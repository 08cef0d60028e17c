"""Mutation testing of the certificate code against the tier-1 suite.

Each mutant flips one comparison operator (``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``is``/``is not``, ``in``/``not in``) or one ``and``/``or``
inside one target function.  Every occurrence is its own mutant, also when
a line holds several.  The mutant is written to a temporary copy of
``src/`` and ``tests/``, never to the checkout, and tier-1 runs on it with
``-x --hypothesis-seed=0`` under a timeout of ``TIMEOUT`` seconds.  A
mutant the suite still passes survives; a survivor listed in
``EQUIVALENT`` behaves like the original on every input.

    python tools/mutants.py                      # every target
    python tools/mutants.py dimension.ssc_gap    # some targets
    python tools/mutants.py --out mutants.json

The JSON summary lists every mutant with its outcome: ``killed``,
``timeout`` (counted as killed), ``equivalent`` or ``survived``.  The exit
code is 1 when a mutant survives that ``EQUIVALENT`` does not explain.
"""
from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: module.qualname of every function whose mutants are run by default
TARGETS = [
    "dimension._gap_at_depth",
    "dimension.ssc_gap",
    "dimension.check_osc_hull",
    "similarity.Interval.intersects",
    "commensurability.log_commensurable",
]

#: seconds allowed for one tier-1 run; tests/conftest.py already fails a
#: test after 60 s, so this only stops a run that hangs outside a test
TIMEOUT = 300

#: surviving mutants that compute the same function, keyed by mutant id
EQUIVALENT = {
    "commensurability.log_commensurable: `r <= 0` <= -> <":
        "r is a ratio of two nonzero exponents, never 0",
    "commensurability.log_commensurable: "
    "`r <= 0 or alpha ** q != beta ** p` or -> and":
        "both tests are false on every input that reaches them",
}

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope = tree
    for name in qualname.split("."):
        scope = next(n for n in scope.body
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name)
    return scope


def sites(func: ast.FunctionDef):
    """(node, op index) of every comparison operator and boolean operation,
    in source order; op index is None for a boolean operation."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            found += [(node, k) for k in range(len(node.ops))]
        elif isinstance(node, ast.BoolOp):
            found.append((node, None))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset,
                                        s[1] or 0))


def flip(node: ast.AST, k):
    """Swap the operator in place; returns (old symbol, new symbol)."""
    if k is None:
        old = type(node.op)
        node.op = FLIPS[old]()
    else:
        old = type(node.ops[k])
        node.ops[k] = FLIPS[old]()
    return SYMBOLS[old], SYMBOLS[FLIPS[old]]


def segment(source: str, node: ast.AST, k) -> str:
    """The source of the mutated operation; for one operator of a chained
    comparison, just the pair of operands around it."""
    if k is not None and len(node.ops) > 1:
        operands = [node.left] + node.comparators
        left = ast.get_source_segment(source, operands[k])
        right = ast.get_source_segment(source, operands[k + 1])
        return f"{left} {SYMBOLS[type(node.ops[k])]} {right}"
    text = ast.get_source_segment(source, node).replace("\\\n", " ")
    return " ".join(text.split())


def mutants(target: str):
    """(id, mutated module source) for every mutant of one target."""
    module, qualname = target.split(".", 1)
    path = ROOT / "src" / "ifslab" / f"{module}.py"
    source = path.read_text()
    n_sites = len(sites(find_function(ast.parse(source), qualname)))
    seen = {}
    for i in range(n_sites):
        # a fresh tree per mutant, so that exactly one operator differs
        tree = ast.parse(source)
        node, k = sites(find_function(tree, qualname))[i]
        text = segment(source, node, k)
        old, new = flip(node, k)
        mid = f"{target}: `{text}` {old} -> {new}"
        seen[mid] = seen.get(mid, 0) + 1
        if seen[mid] > 1:
            mid += f" #{seen[mid]}"
        yield mid, module, ast.unparse(tree)


def run_suite(workdir: Path):
    """('passed' | 'failed' | 'timeout', seconds) of tier-1 in workdir."""
    shutil.rmtree(workdir / ".hypothesis", ignore_errors=True)
    # no bytecode cache: two mutants may match in size and mtime second
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-seed=0",
           "-p", "no:cacheprovider", "tests"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("targets", nargs="*", default=TARGETS,
                    help="module.qualname of functions to mutate")
    ap.add_argument("--out", default="mutants.json",
                    help="where to write the JSON summary")
    args = ap.parse_args(argv)

    results = []
    with tempfile.TemporaryDirectory(prefix="ifslab-mutants-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        # the unmutated copy must pass, or no outcome below means anything
        status, _ = run_suite(work)
        if status != "passed":
            print(f"tier-1 does not pass on the unmutated copy: {status}")
            return 2
        for target in args.targets:
            for mid, module, text in mutants(target):
                path = work / "src" / "ifslab" / f"{module}.py"
                original = path.read_text()
                path.write_text(text)
                try:
                    status, secs = run_suite(work)
                finally:
                    path.write_text(original)
                outcome = {"passed": "survived", "failed": "killed",
                           "timeout": "timeout"}[status]
                if outcome == "survived" and mid in EQUIVALENT:
                    outcome = "equivalent"
                results.append({"id": mid, "outcome": outcome,
                                "seconds": round(secs, 1),
                                "reason": EQUIVALENT.get(mid)})
                print(f"{outcome:10} {secs:6.1f} s  {mid}", flush=True)

    counts = Counter(r["outcome"] for r in results)
    with open(args.out, "w") as fh:
        json.dump({"targets": args.targets, "counts": counts,
                   "mutants": results}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(counts))
    return int(counts["survived"] > 0)


if __name__ == "__main__":
    sys.exit(main())
