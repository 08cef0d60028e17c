"""`convolve` workload: new measures written from a pool of old ones.

Set-up builds a pool of self-similar measures (so building them counts in
set-up time), and each request then writes a new measure from one of them
and takes its entropy curve:

- `pushforward` under a seeded rational similarity, a pure translation in
  half of the cases, where the entropy may move by at most 2 bits;
- `act_convolve` with a seeded uniform `ParamMeasure` on grids from 200x1
  to 48x48, or one built by `from_pairs`.

Here `measures` writes measures where `entropy` mostly reads them, and the
similarity kernel does almost no work once set-up is over.  Requests take
their pool measure round-robin.  As in the other workloads, the shape of
block i (pool measures, grids, ratio sizes, scale ranges, widths of the
translation ranges, levels, pair counts) is the same for every seed, and
the seed picks translations, pairs, signs and order.
"""
from __future__ import annotations

import random
from fractions import Fraction

import ifslab
from ifslab import ParamMeasure, Similarity

from common import (ARRAY_PROBE, MAX_CELLS, Request, check_curve,
                    check_measure, curve_canon, entropy_bits, maps_str,
                    measure_canon, require)
from entropy import ifs_from_ratios

PREFIX_BLOCKS = 8

#: the pool, fixed so that every seed meets the same measures: ratios and
#: level of each; the first has the most nonzero cells (2048), so the largest
#: `act_convolve` and with it the peak memory are the same for every seed
POOL = [
    ([Fraction(2, 5)] * 2, 14),
    ([Fraction(1, 3)] * 2, 16),
    ([Fraction(3, 7), Fraction(2, 5)], 13),
    ([Fraction(1, 4), Fraction(2, 7), Fraction(1, 4)], 13),
    ([Fraction(3, 8)] * 2, 14),
    ([Fraction(1, 5)] * 4, 12),
    ([Fraction(1, 9), Fraction(1, 6)], 15),
    ([Fraction(1, 6), Fraction(1, 8)], 16),
]
#: grids of the uniform `act_convolve` requests of a block; two of ten
#: requests use the largest grid, so the 90th latency percentile falls
#: inside that group
GRIDS = [(200, 1), (16, 16), (32, 32), (48, 48), (48, 48)]
CURVE_POINTS = 9


class Pooled:
    """A pool measure with its reference entropies H(D_n), n = 1..level."""

    def __init__(self, label: str, mu):
        self.label, self.mu = label, mu
        levels = range(1, mu.level + 1)
        self.entropy = dict(zip(levels, entropy_bits(mu, levels)))


def setup(rng) -> list[Pooled]:
    pool = []
    for ratios, level in POOL:
        ifs = ifs_from_ratios(ratios)
        pool.append(Pooled(f"{maps_str(ifs)}|L{level}",
                           ifslab.self_similar_measure(ifs, "maximal",
                                                       level)))
    return pool


def _rational(rng, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _request(kind: str, inputs: str, make, out_level: int,
             base: Pooled, cells: int, translation: bool,
             probe=("python",)) -> Request:
    """`make()` writes the new measure; its entropy curve ends at
    out_level.  A pure translation may move H(D_n) by at most 2 bits: each
    cell of one partition meets at most two cells of the shifted one."""
    require(cells <= MAX_CELLS, f"cost guard: {cells} cells")
    n_min = out_level - CURVE_POINTS + 1

    def call():
        out = make()
        return out, ifslab.entropy_dimension(out, n_min, out_level)

    def check(res):
        out, curve = res
        require(out.level == out_level, "output level")
        check_measure(out)
        check_curve(out, curve, n_min, out_level)
        if translation:
            for n, h in curve.points:
                require(abs(h - base.entropy[n]) <= 2.0,
                        f"translation moved H(D_{n}) from "
                        f"{base.entropy[n]!r} to {h!r}")

    def canon(res):
        return measure_canon(res[0]) + "|" + curve_canon(res[1])

    return Request(kind, f"{kind}|{base.label}|{inputs}|{out_level}", call,
                   check, canon, 0, cells, probe)


def make_pushforward(shape, rng, base: Pooled,
                     translation: bool) -> Request:
    t = _rational(rng, -1024, 1024, 4096)
    if translation:
        g, out_level = Similarity(1, t), base.mu.level
    else:
        r = _rational(shape, 1, 8, 4) * rng.choice((1, -1))
        g, out_level = Similarity(r, t), base.mu.level - shape.randint(0, 2)
    cells = int(abs(g.ratio) * 2 ** out_level) + 2

    return _request("pushforward", f"{g.ratio},{g.translation}",
                    lambda: ifslab.pushforward(g, base.mu, out_level),
                    out_level, base, cells, translation)


def make_convolve(shape, rng, base: Pooled, grid) -> Request:
    a = sorted(shape.sample(range(4, 25), 2))
    scale = (a[0] / 16, a[1] / 16)
    width = 0 if grid[1] == 1 else shape.randint(1, 32)
    t = rng.randint(-32, 32 - width)
    trans = (t / 64, (t + width) / 64)
    out_level = base.mu.level - shape.randint(0, 2)
    # outputs lie in a*[0, 1] + t with a <= 3/2 and |t| <= 1/2
    cells = 3 * 2 ** out_level

    def make():
        nu = ParamMeasure.uniform(scale, trans, grid)
        return ifslab.act_convolve(nu, base.mu, out_level)

    return _request("act_convolve", f"uniform|{scale}|{trans}|{grid}", make,
                    out_level, base, cells, False, ARRAY_PROBE)


def make_from_pairs(shape, rng, base: Pooled) -> Request:
    pairs = [(rng.randint(4, 24) / 16, rng.randint(-32, 32) / 64)
             for _ in range(shape.randint(4, 40))]
    grid = shape.choice(((16, 16), (32, 32)))
    out_level = base.mu.level - shape.randint(0, 2)
    cells = 3 * 2 ** out_level

    def make():
        nu = ParamMeasure.from_pairs(pairs, grid)
        return ifslab.act_convolve(nu, base.mu, out_level)

    return _request("act_convolve_pairs", f"pairs|{pairs}|{grid}", make,
                    out_level, base, cells, False, ARRAY_PROBE)


def block(rng, pool: list[Pooled], index: int) -> list[Request]:
    """Block `index`: its shape (pool measure, grid, scales, levels) is the
    same for every seed; the seed picks translations, pairs and order."""
    shape = random.Random(f"convolve-shape:{index}")
    makers = [lambda b: make_pushforward(shape, rng, b, True),
              lambda b: make_pushforward(shape, rng, b, True),
              lambda b: make_pushforward(shape, rng, b, False),
              lambda b: make_pushforward(shape, rng, b, False),
              lambda b: make_from_pairs(shape, rng, b)]
    makers += [lambda b, g=g: make_convolve(shape, rng, b, g) for g in GRIDS]
    reqs = [make(pool[(index + j) % len(pool)])
            for j, make in enumerate(makers)]
    rng.shuffle(reqs)
    return reqs


def warmup(rng, pool: list[Pooled]) -> list[Request]:
    return [make_pushforward(rng, rng, pool[-1], True),
            make_convolve(rng, rng, pool[-1], (4, 4)),
            make_from_pairs(rng, rng, pool[-1])]
