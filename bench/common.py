"""Pieces shared by the three workloads: the request record, the cost
estimates the generators use to stratify and cap requests, and the
independent reference computations the checks compare against.

Nothing here calls into `ifslab`; the checks must not trust the code they
check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

#: Cost guard: no generated request may expand more cylinders in total
#: (every node of its depth-first expansions, inner ones included), or
#: allocate a dense measure with more cells, than these.
MAX_CYLINDERS = 50_000
MAX_CELLS = 2 ** 22 + 2
#: speed-probe kernels (see `probe.py`) by where a request's time goes:
#: numpy passes over large dense arrays (the entropy requests that allocate
#: more than DENSE_CELLS cells), numpy on small arrays driven from Python
#: (`act_convolve`), or the Python interpreter (the rest)
DENSE_PROBE = ("memory",)
ARRAY_PROBE = ("python", "memory")
DENSE_CELLS = 2 ** 20


class CheckError(Exception):
    """A result failed one of the benchmark's own checks."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


@dataclass
class Request:
    """One closed-loop request: a few public `ifslab` calls on inputs fixed
    at generation time.

    ``call`` looks the library functions up on the module at call time, so
    the tracing wrappers see it.  ``inputs`` is the canonical text of the
    inputs, ``canon(result)`` that of the result; both feed the digest.
    ``probe`` names the kernels of the speed probe that resemble its work
    (see `probe.py`).
    """

    kind: str
    inputs: str
    call: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], str]
    est_cylinders: int = 0
    est_cells: int = 0
    probe: tuple[str, ...] = ("python",)


def frac_str(x) -> str:
    return "None" if x is None else str(x)


def maps_str(ifs) -> str:
    return ";".join(f"{m.ratio},{m.translation}" for m in ifs.maps)


# ---- cost estimates --------------------------------------------------------

def expansion_nodes(ratios: Sequence[Fraction], diam: Fraction,
                    delta: Fraction) -> int:
    """Nodes of the depth-first expansion that splits a cylinder while its
    hull diameter exceeds delta: one cylinder map composed and applied per
    node.  The hull diameter of a cylinder is diam times the product of its
    ratios, so the tree depends on the product only and is counted with a
    memo on it."""
    memo: dict = {}

    def walk(prod: Fraction) -> int:
        if prod not in memo:
            memo[prod] = 1 if diam * prod <= delta else \
                1 + sum(walk(prod * r) for r in ratios)
        return memo[prod]

    return walk(Fraction(1))


def moran_dimension(ratios: Sequence[Fraction]) -> float:
    """The s with sum r_i^s = 1, by bisection: the slope check's reference."""
    rs = [float(r) for r in ratios]
    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sum(r ** mid for r in rs) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---- independent references -------------------------------------------------

def entropy_bits(mu, ns) -> list[float]:
    """H(mu, D_n) in bits for each n in ns, from the nonzero cells alone."""
    nz = np.flatnonzero(mu.masses)
    masses, cells = mu.masses[nz], mu.origin + nz
    out = []
    for n in ns:
        coarse = cells >> (mu.level - n)
        p = np.bincount(coarse - coarse[0], weights=masses)
        p = p[p > 0]
        out.append(float(-np.sum(p * np.log2(p))))
    return out


def measure_canon(mu) -> str:
    """Layout-free text of a dyadic measure: its nonzero (cell, mass) pairs."""
    nz = np.flatnonzero(mu.masses)
    cells = (mu.origin + nz).tolist()
    masses = mu.masses[nz].tolist()
    return f"L{mu.level}|" + ",".join(f"{k}:{m!r}" for k, m in
                                      zip(cells, masses))


def curve_canon(curve) -> str:
    pts = ",".join(f"{n}:{h!r}" for n, h in curve.points)
    return f"{pts}|{curve.slope!r}|{curve.intercept!r}"


def check_measure(mu) -> None:
    require(abs(float(np.sum(mu.masses)) - 1.0) <= 1e-9,
            f"mass {float(np.sum(mu.masses))!r} not within 1e-9 of 1")


def check_curve(mu, curve, n_min: int, n_max: int) -> list[float]:
    """Curve covers n_min..n_max, agrees with the reference entropy, and is
    nondecreasing in n (D_{n+1} refines D_n).  Returns the reference values."""
    ns = [n for n, _ in curve.points]
    require(ns == list(range(n_min, n_max + 1)), f"curve levels {ns}")
    ref = entropy_bits(mu, ns)
    for (n, h), r in zip(curve.points, ref):
        require(abs(h - r) <= 1e-9 * max(1.0, abs(r)),
                f"H(D_{n}) = {h!r}, reference {r!r}")
    for (n, h), (_, h2) in zip(curve.points, curve.points[1:]):
        require(h2 >= h - 1e-9, f"H(D_{n + 1}) = {h2!r} < H(D_{n}) = {h!r}")
    return ref
