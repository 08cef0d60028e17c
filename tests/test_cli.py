import json
from pathlib import Path

import pytest

from ifslab.cli import main
from ifslab.presets import C13, C14, C19


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, ifs in (("c13", C13), ("c19", C19), ("c14", C14)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(ifs.to_dict()))
        paths[name] = str(p)
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps(
        {"scale": ["1/3", "1"], "trans": ["0", "0"], "grid": [200, 1]}))
    paths["nu"] = str(nu)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_dim(files, capsys):
    code, out = run(capsys, "dim", files["c13"])
    assert code == 0
    assert out.splitlines()[0] == "# ifslab 0.1.0"
    assert out.splitlines()[-1] == "0.630929753571457"


def test_separation(files, capsys):
    code, out = run(capsys, "separation", files["c13"], "--depth", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["kind"] == "SSC"
    assert doc["result"]["gap"] == "1/3"


def test_entropy_csv(files, capsys):
    code, out = run(capsys, "entropy", files["c13"], "--level", "14",
                    "--nmin", "4", "--nmax", "12")
    assert code == 0
    lines = out.splitlines()
    assert "n,H_bits" in lines
    assert lines[-1].startswith("slope,")


def test_entropy_level_over_budget_is_input_error(files, capsys):
    code = main(["entropy", files["c13"], "--level", "30", "--nmin", "4",
                 "--nmax", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cells" in captured.err and "budget" in captured.err


def test_convolve_csv(files, capsys):
    code, out = run(capsys, "convolve", files["nu"], files["c13"],
                    "--level", "14", "--out-level", "12",
                    "--nmin", "4", "--nmax", "10")
    assert code == 0
    assert out.splitlines()[-1].startswith("slope,")


def test_embed_check_expectations(files, capsys):
    code, out = run(capsys, "embed-check", files["c19"], files["c13"],
                    "--g", "1,0", "--res", "2^-16", "--expect", "consistent")
    assert code == 0
    assert json.loads(out)["result"]["status"] == "consistent"

    code, out = run(capsys, "embed-check", files["c14"], files["c13"],
                    "--g", "1,0", "--res", "2^-10", "--expect", "consistent")
    assert code == 1
    doc = json.loads(out)
    assert doc["result"]["status"] == "rejected"
    assert doc["result"]["witness_word"]

    # without --expect, a certified rejection still exits 0
    code, _ = run(capsys, "embed-check", files["c14"], files["c13"],
                  "--g", "1,0", "--res", "2^-10")
    assert code == 0


def test_renorm_csv(files, capsys):
    code, out = run(capsys, "renorm", files["c19"], files["c13"],
                    "--g", "1,0", "--i", "1", "--nmax", "12")
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert all(r.endswith(",1") for r in rows)


@pytest.mark.parametrize("golden,argv", [
    ("renorm_c19_in_c13.csv",
     ["renorm", "c19.json", "c13.json", "--g", "1,0", "--i", "1",
      "--nmax", "200"]),
    ("renorm_c13_negative_self.csv",
     ["renorm", "c13.json", "c13.json", "--g=-1/3,1/3", "--self-embedding",
      "--nmax", "30"]),
])
def test_renorm_out_matches_golden(files, capsys, monkeypatch, tmp_path,
                                   golden, argv):
    # the header echoes the input paths, so they are given relative to
    # the directory holding them
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, *argv, "--out", "out.csv")
    assert code == 0
    want = (Path(__file__).parent / "golden" / golden).read_bytes()
    assert (tmp_path / "out.csv").read_bytes() == want


def test_orbit(files, capsys):
    code, out = run(capsys, "orbit", "--x", "log(1/2)/log(1/3)", "--N", "200")
    assert code == 0
    summary = dict(l.split(",") for l in out.splitlines()[-3:])
    assert int(summary["distinct_gap_lengths"]) <= 3


def test_commensurable(files, capsys):
    code, out = run(capsys, "commensurable", "--alpha", "1/9", "--beta", "1/3")
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["verdict"] == "rational"
    assert (doc["result"]["p"], doc["result"]["q"]) == (2, 1)


def test_exponents(files, capsys):
    code, out = run(capsys, "exponents", files["c19"], files["c13"])
    doc = json.loads(out)
    assert code == 0
    assert doc["result"]["rows"][0] == ["2", "0"]


def test_pisot(files, capsys):
    code, out = run(capsys, "pisot", "--poly", "1,-2,-1")
    assert code == 0
    assert json.loads(out)["result"]["is_pisot"] is True


def test_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["dim", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line" in captured.err


def test_precondition_error_is_input_error(files, capsys):
    code, _ = run(capsys, "renorm", files["c14"], files["c13"],
                  "--g", "1,0", "--nmax", "10")
    assert code == 2


def test_out_file_matches_stdout(files, capsys, tmp_path):
    out_path = tmp_path / "dim.txt"
    code, out = run(capsys, "dim", files["c13"], "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_headers_echo_config(files, capsys):
    _, out = run(capsys, "entropy", files["c13"], "--level", "8",
                 "--nmin", "4", "--nmax", "7")
    header = out.splitlines()[2]
    assert header.startswith("# config:")
    cfg = json.loads(header.split("# config: ", 1)[1])
    assert cfg["level"] == 8
