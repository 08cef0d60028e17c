"""Acceptance gate: each `ifslab.suite` criterion must pass, printing its
PASS line (run with `pytest -s tests/test_acceptance.py`), and the CLI
report must be byte-identical across runs and to the golden copy."""
import gc
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ifslab.suite import CRITERIA

#: wall-time budget in seconds of the criteria that have one
BUDGETS = {
    "similarity-dimension": 0.1,
    "entropy-dimension-slope": 10.0,
    "embedding-verification": 5.0,
    "convolution-entropy-growth": 30.0,
    "log-commensurability": 0.1,
}


@pytest.mark.parametrize("name,criterion", CRITERIA,
                         ids=[name for name, _ in CRITERIA])
def test_criterion(name, criterion):
    # time the criterion, not a collection of garbage left by earlier work
    gc.collect()
    t0 = time.perf_counter()
    ok, detail = criterion()
    dt = time.perf_counter() - t0
    assert ok, detail
    assert dt < BUDGETS.get(name, float("inf"))
    print(f"PASS {name}: {detail} ({dt:.3f} s)")


def test_criterion_11_determinism():
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "ifslab", "paper-suite"],
                              capture_output=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"FAIL" not in outputs[0]
    golden = Path(__file__).parent / "golden" / "paper_suite.txt"
    assert outputs[0] == golden.read_bytes()
    print("PASS determinism: paper-suite output byte-identical across two "
          "runs and to the golden copy")
