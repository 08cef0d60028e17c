"""Tests of the benchmark itself (not of ifslab):

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import certify
import common
import convolve
import run
import workload
from probe import KERNELS, NOMINAL_S, Probe
from tracing import Tracer

import ifslab
from ifslab.presets import C13, C19

ROOT = workload.ROOT
KINDS = {
    "certify": {"verify_embedding", "renormalize_family",
                "renormalize_family_incomm", "ssc_gap", "log_commensurable"},
    "entropy": {"measure_entropy", "criterion2"},
    "convolve": {"pushforward", "act_convolve", "act_convolve_pairs"},
}


def _inputs(name, seed, blocks=1):
    stream = workload.Blocks(workload.WORKLOADS[name], seed)
    return [r.inputs for i in range(blocks) for r in stream[i]]


@pytest.mark.parametrize("name", sorted(KINDS))
def test_generator_is_deterministic_per_seed(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    assert first != _inputs(name, 8)


@pytest.mark.parametrize("name", sorted(KINDS))
def test_every_request_type_appears(name):
    module = workload.WORKLOADS[name]
    stream = workload.Blocks(module, 3)
    kinds = {r.kind for i in range(module.PREFIX_BLOCKS) for r in stream[i]}
    assert kinds == KINDS[name]


def test_certify_mixes_verdicts():
    rng = random.Random(5)
    reqs = certify.block(rng, None, 0)
    verifies = [r for r in reqs if r.kind == "verify_embedding"]
    results = [r.call().status for r in verifies]
    assert results.count("consistent") == results.count("rejected") == 4


def test_cover_estimates_are_exact():
    """The estimates count the cylinder maps an expansion composes (one per
    node but the root) and applies (one per node)."""
    E = certify.Target(7, (0, 2, 5))
    for k in (6, 9, 12):
        delta = Fraction(1, 2 ** k)
        with Tracer() as tracer:
            ifslab.cylinder_cover(E.ifs, delta)
        nodes = E.cover_size(delta)
        assert common.expansion_nodes(E.ifs.ratios, E.diam, delta) == nodes
        assert tracer.counts["similarity.compose.calls"] == nodes - 1
        assert tracer.counts["similarity.apply.calls"] == nodes
    with Tracer() as tracer:
        ifslab.self_similar_measure(C19, "maximal", 10)
    nodes = common.expansion_nodes(C19.ratios, Fraction(1),
                                   Fraction(1, 2 ** 10))
    assert tracer.counts["similarity.compose.calls"] == nodes - 1


def test_misses_cover_matches_brute_force():
    E = certify.Target(5, (0, 2, 4))
    delta = Fraction(1, 2 ** 7)
    cover = [iv for _, iv in ifslab.cylinder_cover(E.ifs, delta)]
    for k in range(-3, 130):
        lo, hi = Fraction(k, 128), Fraction(k, 128) + Fraction(1, 300)
        iv = ifslab.Interval(lo, hi)
        assert E.misses_cover(lo, hi, delta) == \
            (not any(iv.intersects(c) for c in cover))


def _originals():
    out = {}
    for name, mod in sys.modules.items():
        if name == "ifslab" or name.startswith("ifslab."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    out[("Similarity", "apply")] = vars(ifslab.Similarity)["apply"]
    return out


def _current(key):
    owner = ifslab.Similarity if key[0] == "Similarity" else \
        sys.modules[key[0]]
    return vars(owner)[key[1]]


def test_tracer_removes_its_wrappers():
    before = _originals()
    tracer = Tracer()
    with tracer:
        assert ifslab.verify_embedding is not \
            before[("ifslab", "verify_embedding")]
        assert ifslab.embedding.cylinder_cover is not \
            before[("ifslab.embedding", "cylinder_cover")]
        ifslab.verify_embedding(ifslab.IDENTITY, C19, C13,
                                Fraction(1, 2 ** 8))
    assert tracer.restored()
    assert all(_current(key) is value for key, value in before.items())
    m = tracer.metrics()
    assert m["embedding.verify_embedding.calls"] == 1
    assert m["similarity.cylinder_cover.calls"] == 2
    assert m["dimension.merge.calls"] == 1
    assert m["similarity.compose.calls"] > 0
    assert m["similarity.apply.calls"] > 0


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_match_benchmark_json(monkeypatch):
    bench = _benchmark()
    assert {w["name"] for w in bench["workloads"]} == set(KINDS)
    monkeypatch.setattr(workload, "MIN_REQUESTS", 1)
    stream = workload.Blocks(convolve, 1)
    measured = workload.measure(stream, 1, 0.0, Probe(tuple(KERNELS)))
    end_to_end = set(measured["metrics"]) | {"setup_s"}
    assert end_to_end == {m["name"] for m in bench["end_to_end"]}
    traced = workload.trace(stream, 1, "convolve", 1, None)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failures_are_counted():
    def boom():
        raise ifslab.InvalidParameterError("bad input")

    def reject(result):
        common.require(False, "wrong result")

    ok = common.Request("ok", "a", lambda: 1, lambda r: None, str)
    raising = common.Request("raising", "b", boom, lambda r: None, str)
    wrong = common.Request("wrong", "c", lambda: 2, reject, str)
    run_ = workload.Pass()
    for req in (ok, raising, wrong):
        run_.run(req, digest=True)
    assert run_.failed == 2 and len(run_.latencies) == 3


def test_probe_scales_each_wall_time():
    probe = Probe(tuple(KERNELS))
    nominal = NOMINAL_S["python"] + NOMINAL_S["memory"]
    assert probe.scale(common.ARRAY_PROBE, nominal, nominal) == 1.0
    assert probe.scale(common.ARRAY_PROBE, 2 * nominal, 2 * nominal) == 0.5
    run_ = workload.Pass(probe)
    for kernels in (("python",), common.ARRAY_PROBE):
        run_.run(common.Request("ok", "a", lambda: sum(range(10_000)),
                                lambda r: None, str, probe=kernels),
                 digest=False)
    assert run_.latencies == [w * s for w, s in zip(run_.walls,
                                                     run_.scales)]
    assert all(0 < s < 100 for s in run_.scales)
