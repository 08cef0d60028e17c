"""`entropy` workload: `self_similar_measure` followed by `entropy_dimension`.

Every IFS has 2-4 maps (deep ones 2) placed left to right on [0, 1] with
equal gaps, so it satisfies the SSC and its attractor hull is [0, 1].  Two
kinds of request make up a block:

- shallow-dense: ratios near 1/k at levels 12-16, where the cylinder
  expansion in the similarity kernel dominates;
- deep-sparse: ratios 1/10..1/6 at levels 21-22, with about 2^L cells
  allocated and very few nonzero, where dense storage and coarsening
  dominate.

The first block also carries the C13 / level 22 / n in [8, 20] input of
the acceptance suite.  The shape of block i -- ratios, level and weight
kind of each request, chosen so that each shallow expansion falls in a
fixed band of nodes -- comes from a generator seeded with i alone; the seed
picks map order, weights and curve range.  So every seed sends the same
costs, and the latency percentiles do not depend on it.
"""
from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import ifslab
from ifslab import IFS, Similarity
from ifslab.presets import C13

from common import (DENSE_CELLS, DENSE_PROBE, MAX_CELLS, MAX_CYLINDERS,
                    Request, check_curve, check_measure, curve_canon,
                    expansion_nodes, maps_str, measure_canon,
                    moran_dimension, require)

PREFIX_BLOCKS = 2

#: candidate ratios per map count; every choice sums to less than 1
SHALLOW_RATIOS = {
    2: [Fraction(1, 3), Fraction(3, 8), Fraction(2, 5), Fraction(3, 7),
        Fraction(4, 9), Fraction(5, 11), Fraction(2, 7), Fraction(3, 10)],
    3: [Fraction(1, 4), Fraction(2, 7), Fraction(3, 11), Fraction(3, 10),
        Fraction(1, 5), Fraction(2, 9)],
    4: [Fraction(1, 5), Fraction(2, 9), Fraction(3, 14), Fraction(1, 6),
        Fraction(2, 11)],
}
DEEP_RATIOS = [Fraction(1, q) for q in range(6, 11)] + [Fraction(2, 15)]
#: expansion-node bands and weights of the shallow requests of a block: a
#: ladder of equal steps, so that their latencies form a continuum and the
#: median, which falls among them, moves smoothly with machine speed
SHALLOW_SLOTS = [((lo, lo + 200), "maximal" if j % 2 else "random")
                 for j, lo in enumerate(range(500, 2500, 200))]
#: levels of the deep requests of a block; with 2 of 12 requests deep, the
#: 90th latency percentile falls inside the level-21 group
DEEP_LEVELS = [21, 22]
#: largest distance of the fitted slope from the similarity dimension for
#: maximal weights.  Near the measure's level H(D_n) flattens (the last
#: cylinders are up to 1/r times finer than 2^-L), so curves end a few
#: levels below it: n_max = level - SHALLOW_OFFSET for shallow requests,
#: level minus one of DEEP_OFFSETS for deep ones.  Over every IFS and level
#: these bands admit, the distance is then at most 0.041 (shallow) and
#: 0.027 (deep).
SLOPE_TOL = 0.06
SHALLOW_OFFSET = 1
DEEP_OFFSETS = (2, 4)
LOG2_3 = math.log(2) / math.log(3)


def ifs_from_ratios(ratios) -> IFS:
    """Maps left to right with equal gaps, the first at 0, the last ending
    at 1."""
    gap = (1 - sum(ratios)) / (len(ratios) - 1)
    maps, t = [], Fraction(0)
    for r in ratios:
        maps.append(Similarity(r, t))
        t += r + gap
    return IFS(tuple(maps))


def _weights(rng, kind: str, k: int):
    if kind == "maximal":
        return "maximal"
    w = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(w)
    return [x / total for x in w]


def _request(ifs: IFS, weights, level: int, n_min: int, n_max: int,
             slope_ref=None, slope_tol=SLOPE_TOL, kind="measure_entropy"):
    cylinders = _nodes(tuple(sorted(ifs.ratios)), level)
    cells = 2 ** level + 1
    require(cylinders <= MAX_CYLINDERS and cells <= MAX_CELLS,
            f"cost guard: {cylinders} cylinders, {cells} cells")
    if slope_ref is None and weights == "maximal":
        slope_ref = moran_dimension(ifs.ratios)

    def call():
        mu = ifslab.self_similar_measure(ifs, weights, level)
        return mu, ifslab.entropy_dimension(mu, n_min, n_max)

    def check(res):
        mu, curve = res
        require(mu.level == level, "measure level")
        check_measure(mu)
        check_curve(mu, curve, n_min, n_max)
        if slope_ref is not None:
            require(abs(curve.slope - slope_ref) <= slope_tol,
                    f"slope {curve.slope!r} vs dimension {slope_ref!r}")

    def canon(res):
        return measure_canon(res[0]) + "|" + curve_canon(res[1])

    w = weights if weights == "maximal" else ",".join(map(repr, weights))
    inputs = f"{kind}|{maps_str(ifs)}|{w}|{level}|{n_min}|{n_max}"
    probe = DENSE_PROBE if cells > DENSE_CELLS else ("python",)
    return Request(kind, inputs, call, check, canon, cylinders, cells, probe)


@functools.lru_cache(maxsize=None)
def _nodes(ratios: tuple, level: int) -> int:
    """Expansion nodes down to 2^-level of an IFS with hull [0, 1]; they
    depend on the multiset of ratios only."""
    return expansion_nodes(ratios, Fraction(1), Fraction(1, 2 ** level))


def _pick_shallow(shape, band) -> tuple[list, int]:
    """Ratios near 1/k, homogeneous or not, and a level in 12..16 at which
    the expansion visits a number of nodes inside band; the time of
    `self_similar_measure` is about proportional to it."""
    for _ in range(10_000):
        k = shape.choice((2, 2, 3, 4))
        if shape.random() < 0.5:
            ratios = [shape.choice(SHALLOW_RATIOS[k])] * k
        else:
            ratios = [shape.choice(SHALLOW_RATIOS[k]) for _ in range(k)]
        levels = list(range(12, 17))
        shape.shuffle(levels)
        for level in levels:
            if band[0] <= _nodes(tuple(sorted(ratios)), level) < band[1]:
                return ratios, level
    raise RuntimeError(f"no shallow IFS with {band} expansion nodes")


def make_shallow(shape, rng, band, weights) -> Request:
    ratios, level = _pick_shallow(shape, band)
    rng.shuffle(ratios)
    n_max = level - SHALLOW_OFFSET
    return _request(ifs_from_ratios(ratios),
                    _weights(rng, weights, len(ratios)), level,
                    max(1, n_max - rng.randint(8, 10)), n_max)


def make_deep(shape, rng, level) -> Request:
    ratios = [shape.choice(DEEP_RATIOS) for _ in range(2)]
    rng.shuffle(ratios)
    n_max = level - rng.randint(*DEEP_OFFSETS)
    return _request(ifs_from_ratios(ratios),
                    _weights(rng, shape.choice(("maximal", "random")), 2),
                    level, n_max - 10, n_max)


def criterion2() -> Request:
    """The acceptance-suite input: maximal measure on C13 at level 22,
    slope over n in [8, 20] within 0.02 of log 2 / log 3."""
    return _request(C13, "maximal", 22, 8, 20, LOG2_3, 0.02, "criterion2")


def block(rng, state, index: int) -> list[Request]:
    """Block `index`: its shape (ratios, level, weight kind) is the same for
    every seed; the seed picks the map order, weights and curve range."""
    shape = random.Random(f"entropy-shape:{index}")
    reqs = [make_shallow(shape, rng, band, w) for band, w in SHALLOW_SLOTS]
    reqs += [make_deep(shape, rng, level) for level in DEEP_LEVELS]
    rng.shuffle(reqs)
    return [criterion2()] + reqs if index == 0 else reqs


def setup(rng):
    return None


def warmup(rng, state) -> list[Request]:
    return [make_shallow(rng, rng, SHALLOW_SLOTS[0][0], "maximal"),
            make_shallow(rng, rng, SHALLOW_SLOTS[0][0], "random")]
