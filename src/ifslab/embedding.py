"""Certified affine-embedding verification at finite resolution, the
renormalization family of induced embeddings, its self-embedding variant,
and fractional-part coverage diagnostics.

Verification is one-sided: a ``rejected`` verdict carries an exact-rational
witness cylinder whose image is disjoint from the target's cover, so it is
a proof of non-containment; ``consistent`` is resolution-indexed and never
a proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

import mpmath as mp
import numpy as np

from .commensurability import log_commensurable
from .dimension import _distance_to_union, _merge, ssc_gap
from .errors import (InvalidParameterError, PreconditionError, PrecisionError)
from .similarity import (IFS, IDENTITY, Interval, Similarity, Word,
                         as_fraction, attractor_hull, compose, cylinder_cover)

#: default re-verification resolution for family entries
DEFAULT_DELTA0 = Fraction(1, 2 ** 12)

_MP_DPS = 60
_FLOOR_BUDGET = Fraction(1, 2 ** 40)


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
    eta_exact: Optional[Fraction]     # exact when frac_exact == 0
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
    if delta <= 0:
        raise InvalidParameterError("resolution delta must be > 0")
    cover_f = cylinder_cover(F, delta / abs(g.ratio))
    union = _merge([iv for _, iv in cylinder_cover(E, delta)])
    los = [u.lo for u in union]
    witness = None
    for word, iv in sorted(cover_f, key=lambda wi: wi[0]):
        img = g.apply(iv)
        if _distance_to_union(img, union, los) > 0:
            witness = (word, img)
            break
    if witness is None:
        return EmbeddingVerdict("consistent", delta)
    return EmbeddingVerdict("rejected", delta, witness[0], witness[1])


class _LogRatio:
    """floor/frac splitter for n * log(a)/log(b): exact when the ratio is
    certified rational, 60-digit mpmath otherwise with a 2^-40 budget on
    the distance to the nearest integer."""

    def __init__(self, a: Fraction, b: Fraction):
        res = log_commensurable(a, b)
        self.exact: Optional[Fraction] = res.ratio
        if self.exact is None:
            with mp.workdps(_MP_DPS):
                self.approx = mp.log(mp.mpf(a.numerator) / a.denominator) / \
                    mp.log(mp.mpf(b.numerator) / b.denominator)

    def value(self) -> float:
        return float(self.exact) if self.exact is not None \
            else float(self.approx)

    def times_gt(self, n: int, p: int) -> bool:
        """Whether n * ratio > p."""
        if self.exact is not None:
            return self.exact * n > p
        with mp.workdps(_MP_DPS):
            return self.approx * n > p

    def split(self, n: int) -> Tuple[int, Union[Fraction, float], Optional[Fraction]]:
        """Return (floor, frac_float, frac_exact_or_None) of n * ratio."""
        if self.exact is not None:
            v = self.exact * n
            l = math.floor(v)
            fr = v - l
            return l, float(fr), fr
        with mp.workdps(_MP_DPS):
            v = self.approx * n
            l = int(mp.floor(v))
            fr = v - l
            if min(fr, 1 - fr) < mp.mpf(_FLOOR_BUDGET.denominator) ** -1 * \
                    _FLOOR_BUDGET.numerator and fr != 0:
                raise PrecisionError(
                    f"n={n}: n*log-ratio within 2^-40 of an integer; "
                    "floor cannot be certified at this precision")
            return l, float(fr), None


def _locate_unique_cylinder(E: IFS, hull: Interval, target: Interval,
                            depth: int) -> Tuple[Word, Similarity]:
    """Descend to the unique depth-d cylinder of E whose hull intersects
    the target interval; more or fewer than one hit is a hard error."""
    word: List[int] = []
    cur = IDENTITY
    for step in range(depth):
        hits = [i for i in range(1, len(E) + 1)
                if compose(cur, E.maps[i - 1]).apply(hull).intersects(target)]
        if len(hits) != 1:
            raise PreconditionError(
                f"unique-cylinder hypothesis violated at depth {step + 1}: "
                f"{len(hits)} cylinders intersect the image interval")
        word.append(hits[0])
        cur = compose(cur, E.maps[hits[0] - 1])
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
    gamma, b = g.ratio, g.translation
    base = verify_embedding(g, F, E, delta0)
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
    ratio = _LogRatio(alpha, beta)
    N = 1
    while not ratio.times_gt(N, p):
        N += 1

    t_lo = hull_e.lo - beta ** p * gamma * hull_f.hi
    t_hi = hull_e.hi - beta ** (p + 1) * gamma * hull_f.lo
    eta_lo, eta_hi = beta ** (p + 1) * gamma, beta ** p * gamma

    entries: List[RenormEntry] = []
    comp = IDENTITY
    for n in range(1, n_max + 1):
        comp = compose(comp, phi)           # phi^n
        if n <= N:
            continue
        l_n, frac, frac_exact = ratio.split(n)
        d = l_n - p
        if d < 0:
            raise PreconditionError(
                f"n={n}: l_n < p inside the admissible range")
        img = g.apply(comp.apply(hull_f))
        word, psi = _locate_unique_cylinder(E, hull_e, img, d)
        t_n = (gamma * comp.translation + b - psi.translation) / psi.ratio
        if frac_exact == 0:
            eta_exact: Optional[Fraction] = beta ** p * gamma
            eta = float(eta_exact)
        else:
            eta_exact = None
            with mp.workdps(_MP_DPS):
                eta = float(mp.mpf(gamma.numerator) / gamma.denominator *
                            mp.power(mp.mpf(beta.numerator) / beta.denominator,
                                     p + mp.mpf(frac)))
        if eta_exact is not None:
            eta_ok = eta_lo <= eta_exact <= eta_hi
        else:
            eta_ok = float(eta_lo) - 1e-12 <= eta <= float(eta_hi) + 1e-12
        if not eta_ok:
            raise PreconditionError(
                f"n={n}: induced scale {eta} outside [{eta_lo}, {eta_hi}]")
        if not t_lo <= t_n <= t_hi:
            raise PreconditionError(
                f"n={n}: induced translation {t_n} outside "
                f"[{t_lo}, {t_hi}]")
        g_n = Similarity(eta_exact if eta_exact is not None
                         else Fraction(eta), t_n)
        verified = verify_embedding(g_n, F, E, delta0).status == "consistent"
        entries.append(RenormEntry(n, l_n, frac, frac_exact, eta, eta_exact,
                                   t_n, word, verified))
        if not verified:
            break  # a rejected induced embedding is the reportable outcome
    return RenormalizationFamily(g, index, kappa, c, p, N, alpha, beta,
                                 ratio.exact, tuple(entries))


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
        with mp.workdps(40):
            z = mp.mpf(x)
            vals = sorted({mp.frac(z * n) for n in range(1, N + 1)})
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
