import json
import time
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


def test_separation_depth_over_cap_is_input_error(files, capsys):
    start = time.perf_counter()
    code = main(["separation", files["c13"], "--depth", "30"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert captured.out == ""
    assert "depth 30" in captured.err


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


def test_convolve_output_span_over_budget_is_input_error(files, capsys):
    code = main(["convolve", files["nu"], files["c13"], "--level", "14",
                 "--out-level", "27", "--nmin", "4", "--nmax", "12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "cells" in captured.err and "budget" in captured.err


def test_convolve_empty_grid_is_input_error(files, capsys, tmp_path):
    nu = tmp_path / "empty.json"
    nu.write_text(json.dumps({"scale": ["1/3", "1"], "trans": ["0", "0"],
                              "grid": [0, 1]}))
    code = main(["convolve", str(nu), files["c13"], "--level", "8",
                 "--out-level", "6", "--nmin", "2", "--nmax", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no cells" in captured.err


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
    # irrational log ratio log(1/4)/log(1/3); the last entry is rejected
    ("renorm_c14_in_c13.csv",
     ["renorm", "c14.json", "c13.json", "--g", "1,0", "--nmax", "20",
      "--res", "1/16"]),
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


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden,argv,want_code", [
    ("dim_c13.txt", ["dim", "c13.json"], 0),
    ("separation_c13.json", ["separation", "c13.json"], 0),
    ("separation_c14_depth0.json",
     ["separation", "c14.json", "--depth", "0"], 0),
    ("embed_check_consistent.json",
     ["embed-check", "c19.json", "c13.json", "--g", "1,0", "--res", "2^-16",
      "--expect", "consistent"], 0),
    ("embed_check_rejected.json",
     ["embed-check", "c14.json", "c13.json", "--g", "1,0", "--res", "2^-10",
      "--expect", "consistent"], 1),
    ("orbit_log2_log3.txt",
     ["orbit", "--x", "log(1/2)/log(1/3)", "--N", "20"], 0),
    ("commensurable_rational.json",
     ["commensurable", "--alpha", "1/9", "--beta", "1/3"], 0),
    ("commensurable_incommensurable.json",
     ["commensurable", "--alpha", "1/2", "--beta", "1/3"], 0),
    ("exponents_c19_c13.json", ["exponents", "c19.json", "c13.json"], 0),
])
def test_stdout_matches_golden(files, capsys, monkeypatch, tmp_path,
                               golden, argv, want_code):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *argv)
    assert code == want_code
    assert out == (GOLDEN / golden).read_text()


# entropies and Pisot roots come from numpy log2 and LAPACK, which may
# differ by CPU, so only the lines before them are pinned
@pytest.mark.parametrize("golden,argv", [
    ("entropy_c13_head.txt",
     ["entropy", "c13.json", "--level", "14", "--nmin", "4", "--nmax", "12"]),
    ("entropy_c13_weights_head.txt",
     ["entropy", "c13.json", "--level", "10", "--nmin", "4", "--nmax", "8",
      "--weights", "1/4,3/4"]),
    ("convolve_c13_head.txt",
     ["convolve", "nu.json", "c13.json", "--level", "14", "--out-level", "12",
      "--nmin", "4", "--nmax", "10"]),
    ("convolve_c13_weights_head.txt",
     ["convolve", "nu.json", "c13.json", "--level", "12", "--out-level", "10",
      "--nmin", "4", "--nmax", "8", "--weights", "1/2,1/2"]),
    ("pisot_head.json", ["pisot", "--poly", "1,-2,-1"]),
])
def test_header_matches_golden(files, capsys, monkeypatch, tmp_path,
                               golden, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.startswith((GOLDEN / golden).read_text())


def test_orbit(files, capsys):
    code, out = run(capsys, "orbit", "--x", "log(1/2)/log(1/3)", "--N", "200")
    assert code == 0
    summary = dict(l.split(",") for l in out.splitlines()[-3:])
    assert int(summary["distinct_gap_lengths"]) <= 3


@pytest.mark.parametrize("x", ["log(-1/2)/log(1/3)", "log(0)/log(1/3)",
                               "log(1/2)/log(1)"])
def test_orbit_log_ratio_off_the_reals_is_input_error(capsys, x):
    code = main(["orbit", "--x", x, "--N", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not a real number" in captured.err


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


@pytest.mark.parametrize("missing", ["nu", "mu"])
def test_missing_input_is_input_error(files, capsys, tmp_path, missing):
    paths = {"nu": files["nu"], "mu": files["c13"],
             missing: str(tmp_path / "missing.json")}
    code = main(["convolve", paths["nu"], paths["mu"], "--level", "8",
                 "--out-level", "8", "--nmin", "4", "--nmax", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ifslab: error:")
    assert "missing.json" in captured.err


def test_precondition_error_is_input_error(files, capsys):
    code, _ = run(capsys, "renorm", files["c14"], files["c13"],
                  "--g", "1,0", "--nmax", "10")
    assert code == 2


def test_out_file_matches_stdout(files, capsys, tmp_path):
    out_path = tmp_path / "dim.txt"
    code, out = run(capsys, "dim", files["c13"], "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == out


def test_unwritable_out_is_input_error(files, capsys, tmp_path):
    code = main(["dim", files["c13"], "--out",
                 str(tmp_path / "no" / "such" / "dir" / "x.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("ifslab: error:")


def test_headers_echo_config(files, capsys):
    _, out = run(capsys, "entropy", files["c13"], "--level", "8",
                 "--nmin", "4", "--nmax", "7")
    header = out.splitlines()[2]
    assert header.startswith("# config:")
    cfg = json.loads(header.split("# config: ", 1)[1])
    assert cfg["level"] == 8
