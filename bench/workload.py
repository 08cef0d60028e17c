"""One workload process of the benchmark; `run.py` starts it.

    workload.py --workload NAME --seed N --seconds S --mode setup|measure|trace

It sets up (imports `ifslab` from this checkout's `src`, generates the
seeded inputs, warms up) and then, by mode:

- setup: stops there and reports the set-up time, scaled to the nominal
  speed of a probe run just before and just after it (see `probe.py`);
- measure: one client runs whole blocks of requests back to back until
  the requests have taken at least S seconds of wall time and at least
  100 have run; each request is bracketed by a speed probe and its time
  scaled to the probe's nominal speed (see `probe.py`);
- trace: runs the first blocks (the digest prefix) once plain and once
  under the tracer, and reports the per-layer metrics.

Probes, checks, digesting and generating later blocks run between
requests, off the clock.  The last line of stdout is one JSON object.
"""
import time

from probe import Probe

SETUP_KERNELS = ("python",)
SETUP_PROBE = Probe(SETUP_KERNELS)
SETUP_BEFORE = SETUP_PROBE.seconds(SETUP_KERNELS)
T_START = time.perf_counter()   # set-up time counts from here

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import mpmath
import numpy as np
import sympy

import ifslab

import certify
import convolve
import entropy
from common import MAX_CELLS, MAX_CYLINDERS, CheckError
from tracing import Tracer

WORKLOADS = {"certify": certify, "entropy": entropy, "convolve": convolve}
MIN_REQUESTS = 100
#: stop starting blocks after this much wall time, whatever --seconds says
WALL_LIMIT_S = 120.0


class Blocks:
    """The seeded request stream, generated block by block on demand."""

    def __init__(self, module, seed: int):
        self.module = module
        self.rng = random.Random(f"{module.__name__}:{seed}")
        self.state = module.setup(self.rng)
        self.blocks: list = []

    def __getitem__(self, index: int) -> list:
        while len(self.blocks) <= index:
            self.blocks.append(self.module.block(self.rng, self.state,
                                                 len(self.blocks)))
        return self.blocks[index]


class Pass:
    """Latencies, failures and the digest of one sequence of requests.

    With a probe, each request is bracketed by probes of its kernels and
    `latencies` holds its wall time scaled to their nominal speed; `walls`
    always holds the wall times."""

    def __init__(self, probe: Probe | None = None):
        self.probe = probe
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.scales: list[float] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.max_cylinders = 0
        self.max_cells = 0

    def run(self, req, digest: bool, tracer=None) -> None:
        if tracer is not None:
            tracer.request = len(self.latencies)
        before = self.probe.seconds(req.probe) if self.probe else 0.0
        t0 = time.perf_counter()
        try:
            result = req.call()
            error = None
        except Exception as exc:  # a raising request is a failed request
            error = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        scale = Probe.scale(req.probe, before,
                            self.probe.seconds(req.probe)) \
            if self.probe else 1.0
        self.walls.append(wall)
        self.scales.append(scale)
        self.latencies.append(wall * scale)
        if error is None:
            try:
                req.check(result)
            except CheckError as exc:
                error = f"check failed: {exc}"
        if error is not None:
            self.failed += 1
            print(f"FAIL {req.kind}: {error}\n  inputs: {req.inputs[:300]}",
                  file=sys.stderr)
        if digest:
            text = error if error is not None else req.canon(result)
            self.digest.update(f"{req.inputs}\n{text}\n".encode())
        self.max_cylinders = max(self.max_cylinders, req.est_cylinders)
        self.max_cells = max(self.max_cells, req.est_cells)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)


def peak_rss_mib() -> float:
    """High-water resident set of this process (VmHWM)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "sympy": sympy.__version__, "mpmath": mpmath.__version__,
           "nproc": os.cpu_count(), "cpu": cpu}
    for var in ("PYTHONHASHSEED", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def _stats(lat: list[float], ok: int) -> dict:
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {"throughput_rps": ok / sum(lat),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_p90_ms": 1e3 * deciles[8]}


def measure(blocks: Blocks, prefix: int, seconds: float,
            probe: Probe | None) -> dict:
    timed = Pass(probe)
    index = 0
    while True:
        for req in blocks[index]:
            timed.run(req, digest=index < prefix)
        index += 1
        if index >= prefix and timed.wall_s >= seconds and \
                len(timed.latencies) >= MIN_REQUESTS:
            break
        if time.perf_counter() - T_START > WALL_LIMIT_S:
            print(f"wall limit reached after {index} blocks", file=sys.stderr)
            break
    ok = len(timed.latencies) - timed.failed
    quartiles = statistics.quantiles(timed.scales, n=4, method="inclusive")
    return {
        "attempted": len(timed.latencies), "failed": timed.failed,
        "correct": timed.failed == 0, "digest": timed.digest.hexdigest(),
        "blocks": index, "wall_s": timed.wall_s,
        "max_est_cylinders": timed.max_cylinders,
        "max_est_cells": timed.max_cells,
        "wall": _stats(timed.walls, ok),
        "speed_quartiles": quartiles,
        "metrics": dict(_stats(timed.latencies, ok),
                        peak_rss_mib=peak_rss_mib()),
    }


def trace(blocks: Blocks, prefix: int, workload: str, seed: int,
          probe: Probe | None) -> dict:
    plain, traced = Pass(probe), Pass(probe)
    reqs = [req for index in range(prefix) for req in blocks[index]]
    for req in reqs:
        plain.run(req, digest=True)
    tracer = Tracer()
    with tracer:
        for req in reqs:
            traced.run(req, digest=True, tracer=tracer)
    restored = tracer.restored()
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced.busy_s / plain.busy_s - 1.0
    bypass = {
        "certify": sum(v for k, v in metrics.items()
                       if k.startswith("measures.") and k.endswith(".calls")),
        "entropy": sum(v for k, v in metrics.items()
                       if k.startswith("embedding.") and k.endswith(".calls")),
        # "about 0": at most one kernel composition per request
        "convolve": max(0, metrics["similarity.compose.calls"] - len(reqs)),
    }[workload]
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir,
                                    f"spans-{workload}-{seed}.jsonl"))
    failed = plain.failed + traced.failed
    for what, bad in (("digest differs between plain and traced runs",
                       not same),
                      (f"bypassed layer did work ({bypass})", bypass != 0),
                      ("tracer left wrappers installed", not restored)):
        if bad:
            print(f"FAIL trace: {what}", file=sys.stderr)
    return {
        "attempted": 2 * len(reqs), "failed": failed,
        "correct": failed == 0 and same and bypass == 0 and restored,
        "digest": traced.digest.hexdigest(), "blocks": prefix,
        "max_est_cylinders": traced.max_cylinders,
        "max_est_cells": traced.max_cells,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace"))
    args = ap.parse_args()
    if os.path.dirname(os.path.abspath(ifslab.__file__)) != \
            os.path.join(SRC, "ifslab"):
        print(f"error: imported ifslab from {ifslab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    module = WORKLOADS[args.workload]
    blocks = Blocks(module, args.seed)
    for index in range(module.PREFIX_BLOCKS):
        blocks[index]
    warm = Pass()
    for req in module.warmup(random.Random("warmup"), blocks.state):
        warm.run(req, digest=False)
    setup_s = time.perf_counter() - T_START
    setup_s *= Probe.scale(SETUP_KERNELS, SETUP_BEFORE,
                           SETUP_PROBE.seconds(SETUP_KERNELS))
    # warm only the kernels the workload's requests use (every block has
    # every request kind), so that unused probe arrays stay out of its memory
    kernels = tuple({k: None for req in blocks[0] for k in req.probe})

    if args.mode == "setup":
        out = {"setup_s": setup_s, "correct": warm.failed == 0}
    elif args.mode == "measure":
        out = measure(blocks, module.PREFIX_BLOCKS, args.seconds,
                      Probe(kernels))
        out["setup_s"] = setup_s
    else:
        out = trace(blocks, module.PREFIX_BLOCKS, args.workload, args.seed,
                    Probe(kernels))
    out["correct"] = out["correct"] and warm.failed == 0
    out["env"] = environment()
    out["caps"] = {"max_cylinders": MAX_CYLINDERS, "max_cells": MAX_CELLS}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
