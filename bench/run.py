"""Run one workload of the ifslab benchmark and print its metrics.

    python3 bench/run.py --workload certify|entropy|convolve --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout; it measures the `ifslab` under `src/`.
Each workload runs in fresh processes (`workload.py`) with a fixed hash
seed and single-threaded numeric libraries.  With `--trace 0` it starts
SETUP_RUNS processes that only set up, then one that also measures, and
reports the end-to-end metrics with set-up time as the median over all of
them.  Request and set-up times are scaled to a nominal machine speed
(`probe.py`).  With `--trace 1` one process reports the per-layer
metrics.  The last line of stdout is the JSON result; see bench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 4
DEADLINE_S = 170.0
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for a {mode} process")
    proc = subprocess.run(cmd, env=dict(os.environ, **ENV), timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description="ifslab benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("certify", "entropy", "convolve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ifslab",
                                       "__init__.py")):
        print(f"error: no ifslab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = child(args, "trace", deadline)
            setups = []
        else:
            setups = [child(args, "setup", deadline)
                      for _ in range(SETUP_RUNS)]
            res = child(args, "measure", deadline)
    except (subprocess.TimeoutExpired, TimeoutError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in res["metrics"].items()}
    if not args.trace:
        samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
        metrics["setup_s"] = {"value": statistics.median(samples),
                              "unit": "s"}
    correct = res["correct"] and all(s["correct"] for s in setups)

    env = res["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{res['attempted']} requests in {res['blocks']} blocks, "
          f"fail_frac {res['failed'] / res['attempted']:.4g}, "
          f"cost estimates max {res['max_est_cylinders']} cylinders / "
          f"{res['max_est_cells']} cells (caps {res['caps']['max_cylinders']}"
          f" / {res['caps']['max_cells']})")
    print(f"digest {args.workload} seed={args.seed} sha256={res['digest']}")
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}")
        wall = res["wall"]
        print("unscaled wall times: " + ", ".join(
            f"{k} {v:.6g}" for k, v in sorted(wall.items())))
        print("probe speed scale quartiles: " + ", ".join(
            f"{q:.3f}" for q in res["speed_quartiles"]))
    for name in sorted(metrics):
        m = metrics[name]
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_rps"):
        return "1/s"
    if name.endswith(("_frac", ".occupancy")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
