"""Certified affine-embedding verification at finite resolution, the
renormalization family of induced embeddings, its self-embedding variant,
and fractional-part coverage diagnostics.

Verification is one-sided: a ``rejected`` verdict carries an exact-rational
witness cylinder whose image is disjoint from the target's cover, so it is
a proof of non-containment; ``consistent`` is resolution-indexed and never
a proof.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .commensurability import _log_ratio, log_commensurable
from .dimension import _distance_to_union, _merge, ssc_gap
from .errors import InvalidParameterError, PreconditionError
from .similarity import (IFS, IDENTITY, Interval, Similarity, Word,
                         as_fraction, attractor_hull, compose, cylinder_cover,
                         invert)

#: default re-verification resolution for family entries
DEFAULT_DELTA0 = Fraction(1, 2 ** 12)


@dataclass(frozen=True)
class EmbeddingVerdict:
    status: str                      # "consistent" or "rejected"
    resolution: Fraction
    witness_word: Optional[Word] = None
    witness_interval: Optional[Interval] = None


@dataclass(frozen=True)
class RenormEntry:
    n: int
    l_n: int
    frac: float                       # fractional part of n * log a / log b
    frac_exact: Optional[Fraction]    # exact when the log-ratio is rational
    eta: float                        # induced scale
    eta_exact: Optional[Fraction]     # exact when the log-ratio is rational
    t: Fraction                       # induced translation (always exact)
    word: Word                        # the unique intersecting cylinder of E
    verified: bool


@dataclass(frozen=True)
class RenormalizationFamily:
    source: Similarity
    index: int
    kappa: Fraction
    c: Fraction
    p: int
    N: int
    alpha: Fraction
    beta: Fraction
    log_ratio: Optional[Fraction]     # exact log a / log b when rational
    entries: Tuple[RenormEntry, ...]


@dataclass(frozen=True)
class CoverageReport:
    count: int
    points: np.ndarray                # sorted distinct fractional parts
    max_gap: float
    distinct_gap_lengths: int


def verify_embedding(g: Similarity, F: IFS, E: IFS, delta) -> EmbeddingVerdict:
    """Check g(F) subset of E down to resolution delta, with exact rejection.

    F is covered at delta/|ratio| so image intervals have diameter <= delta;
    a cylinder whose image is disjoint from E's delta-cover contains a point
    of g(F) outside E, certifying g(F) is not contained in E.
    """
    delta = as_fraction(delta)
    union, los = _merged_cover(E, delta)
    return _verdict(g, cylinder_cover(F, delta / abs(g.ratio)), union, los,
                    delta)


def _merged_cover(E: IFS, delta: Fraction
                  ) -> Tuple[List[Interval], List[Fraction]]:
    """E's delta-cover as a sorted disjoint union, with its left ends."""
    if delta <= 0:
        raise InvalidParameterError("resolution delta must be > 0")
    union = _merge([iv for _, iv in cylinder_cover(E, delta)])
    return union, [u.lo for u in union]


def _verdict(g: Similarity, cover_f: Sequence[Tuple[Word, Interval]],
             union: List[Interval], los: List[Fraction],
             delta: Fraction) -> EmbeddingVerdict:
    """Reject g at the first cylinder of F's cover, in word order, whose
    image is disjoint from E's merged cover; otherwise g is consistent."""
    for word, iv in cover_f:
        img = g.apply(iv)
        if _distance_to_union(img, union, los) > 0:
            return EmbeddingVerdict("rejected", delta, word, img)
    return EmbeddingVerdict("consistent", delta)


def _locate_unique_cylinder(E: IFS, hull: Interval, target: Interval,
                            depth: int) -> Tuple[Word, Similarity]:
    """Descend to the unique depth-d cylinder of E whose hull intersects
    the target interval; more or fewer than one hit is a hard error.

    cur o phi_i(hull) meets the target exactly when phi_i(hull) meets
    cur^-1(target), so each step tests the fixed first-level pieces against
    the target mapped back through the cylinder map chosen so far.
    """
    pieces = [m.apply(hull) for m in E.maps]
    inverses = [invert(m) for m in E.maps]
    word: List[int] = []
    cur = IDENTITY
    for step in range(depth):
        hits = [i for i, piece in enumerate(pieces, 1)
                if piece.intersects(target)]
        if len(hits) != 1:
            raise PreconditionError(
                f"unique-cylinder hypothesis violated at depth {step + 1}: "
                f"{len(hits)} cylinders intersect the image interval")
        i = hits[0]
        word.append(i)
        cur = compose(cur, E.maps[i - 1])
        target = inverses[i - 1].apply(target)
    return tuple(word), cur


def _family(g: Similarity, F: IFS, E: IFS, phi: Similarity, index: int,
            n_max: int, delta0: Fraction) -> RenormalizationFamily:
    """Shared renormalization pipeline: for each n the image
    g(phi^n(hull F)) is trapped in a unique cylinder of E and rescaled."""
    if not E.homogeneous():
        raise PreconditionError(
            "hypothesis violated: the target IFS must be homogeneous")
    cert = ssc_gap(E)
    if cert.kind != "SSC":
        raise PreconditionError(
            "hypothesis violated: no certified SSC gap for the target IFS")
    kappa = cert.gap
    alpha = phi.ratio
    gamma = g.ratio
    union, los = _merged_cover(E, delta0)
    # F's cover is kept for one resolution delta0/|eta| at a time: entries
    # with frac = 0 share one, the others rebuild it when eta changes
    res_f = delta0 / abs(gamma)
    cover_f = cylinder_cover(F, res_f)
    base = _verdict(g, cover_f, union, los, delta0)
    if base.status != "consistent":
        raise PreconditionError(
            f"hypothesis violated: g itself is rejected at resolution "
            f"{delta0} (witness word {base.witness_word})")

    hull_f, hull_e = attractor_hull(F), attractor_hull(E)
    if hull_f.diameter == 0:
        raise PreconditionError("degenerate source attractor (zero diameter)")
    beta = E.maps[0].ratio
    c = gamma * hull_f.diameter
    p = 0
    while beta ** p >= kappa / c:
        p += 1
    log_ratio = log_commensurable(alpha, beta).ratio
    if log_ratio is None:
        ctx = Context(prec=60)
        approx = _log_ratio(alpha, beta, ctx.prec)
    # with alpha, beta in (0, 1): n * log alpha / log beta > l exactly when
    # alpha^n < beta^l, so N and every l_n come from exact comparisons
    N = 1
    while alpha ** N >= beta ** p:
        N += 1

    t_lo = hull_e.lo - beta ** p * gamma * hull_f.hi
    t_hi = hull_e.hi - beta ** (p + 1) * gamma * hull_f.lo
    eta_lo, eta_hi = beta ** (p + 1) * gamma, beta ** p * gamma

    entries: List[RenormEntry] = []
    comp = IDENTITY
    l_n, beta_next = 0, beta                # beta_next = beta^(l_n + 1)
    for n in range(1, n_max + 1):
        comp = compose(comp, phi)           # phi^n, of ratio alpha^n
        if n <= N:
            continue
        while comp.ratio <= beta_next:      # l_n = max{l : alpha^n <= beta^l}
            l_n, beta_next = l_n + 1, beta_next * beta
        if log_ratio is not None:
            frac_exact: Optional[Fraction] = log_ratio * n - l_n
            frac = float(frac_exact)
        else:
            frac_exact = None
            frac = float(approx.fma(n, -l_n, ctx))    # one rounding
        # n > N gives alpha^n < beta^p, so l_n >= p
        img = g.apply(comp.apply(hull_f))
        word, psi = _locate_unique_cylinder(E, hull_e, img, l_n - p)
        g_n = compose(invert(psi), compose(g, comp))    # psi^-1 o g o phi^n
        if not eta_lo <= g_n.ratio <= eta_hi:
            raise PreconditionError(
                f"n={n}: induced scale {g_n.ratio} outside "
                f"[{eta_lo}, {eta_hi}]")
        if not t_lo <= g_n.translation <= t_hi:
            raise PreconditionError(
                f"n={n}: induced translation {g_n.translation} outside "
                f"[{t_lo}, {t_hi}]")
        res = delta0 / abs(g_n.ratio)
        if res != res_f:
            res_f, cover_f = res, cylinder_cover(F, res)
        verified = _verdict(g_n, cover_f, union, los,
                            delta0).status == "consistent"
        entries.append(RenormEntry(
            n, l_n, frac, frac_exact, float(g_n.ratio),
            g_n.ratio if frac_exact is not None else None, g_n.translation,
            word, verified))
        if not verified:
            break  # a rejected induced embedding is the reportable outcome
    return RenormalizationFamily(g, index, kappa, c, p, N, alpha, beta,
                                 log_ratio, tuple(entries))


def renormalize_family(g: Similarity, F: IFS, E: IFS, i: int, n_max: int,
                       delta0=DEFAULT_DELTA0) -> RenormalizationFamily:
    """Induced embeddings from iterating the i-th map of F inside g.

    For each admissible n the image g(phi_{i^n}(F)) is trapped in a unique
    depth-(l_n - p) cylinder of E and rescaled back, yielding a new
    embedding (eta_n, t_n) that is re-verified at resolution delta0.
    """
    if not 1 <= i <= len(F):
        raise InvalidParameterError(f"map index {i} out of range 1..{len(F)}")
    if g.ratio <= 0:
        raise PreconditionError(
            "hypothesis violated: needs ratio > 0 (for a negative-ratio "
            "self-embedding, square g and use self_embedding_family)")
    return _family(g, F, E, F.maps[i - 1], i, n_max, as_fraction(delta0))


def self_embedding_family(g: Similarity, F: IFS, n_max: int,
                          delta0=DEFAULT_DELTA0) -> RenormalizationFamily:
    """Renormalization of an affine self-embedding g(F) subset of F.

    E = F with the roles swapped: the iterate is g^{n+1} and the induced
    scale is gamma * alpha^(p + frac(n * log gamma / log alpha)).  A
    negative ratio is handled by squaring g, which is again a
    self-embedding.
    """
    delta0 = as_fraction(delta0)
    if g.ratio < 0:
        g = compose(g, g)
    if not 0 < g.ratio < 1:
        raise PreconditionError(
            "hypothesis violated: a proper self-embedding needs |ratio| < 1")
    return _family(g, F, F, g, 0, n_max, delta0)


def fractional_orbit(x, N: int) -> CoverageReport:
    """Sorted distinct values of {n*x}, 1 <= n <= N, with circular gap stats.

    Computed exactly for rational x and at 40 digits otherwise, so the
    three-distance structure of irrational rotations survives rounding.
    """
    if N < 1:
        raise InvalidParameterError("N must be >= 1")
    if isinstance(x, (int, Fraction)) or isinstance(x, str) and "/" in x \
            and "log" not in x:
        xf = as_fraction(x)
        pts = sorted({(xf * n) % 1 for n in range(1, N + 1)})
        points = np.array([float(v) for v in pts])
    else:
        with localcontext(Context(prec=40)):
            z = Decimal(x, Context(traps=[]))   # malformed text gives NaN
            if not z.is_finite():
                raise InvalidParameterError(f"not a finite real: {x!r}")
            vals = sorted({v - v.to_integral_value(ROUND_FLOOR)
                           for v in (z * n for n in range(1, N + 1))})
        points = np.array([float(v) for v in vals])
        # collapse duplicates introduced by float rounding
        if len(points) > 1:
            keep = np.concatenate([[True], np.diff(points) > 1e-12])
            points = points[keep]
    if len(points) == 1:
        gaps = np.array([1.0])
    else:
        gaps = np.concatenate([np.diff(points),
                               [points[0] + 1.0 - points[-1]]])
    sg = np.sort(gaps)
    distinct = 1 + int(np.count_nonzero(np.diff(sg) > 1e-9))
    return CoverageReport(N, points, float(sg[-1]), distinct)
