"""Dyadic-grid measures, Shannon entropy, entropy-dimension slopes, and the
pushforward of a product measure under the affine action (g, x) -> g(x).

Conventions fixed here: logarithms are base 2 against dyadic partitions (so
Lebesgue on [0,1) has slope exactly 1), masses are binned by cell midpoint,
and all reductions use numpy's deterministic pairwise summation so results
are bit-identical across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .dimension import similarity_dimension
from .errors import InvalidParameterError
from .similarity import (IFS, Interval, Similarity, _walk, as_fraction,
                         attractor_hull)

_MASS_TOL = 1e-9


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@dataclass(frozen=True, eq=False)
class DyadicMeasure:
    """A probability measure on the level-n dyadic cells [k/2^n, (k+1)/2^n).

    ``masses[j]`` is the mass of the cell with global index ``origin + j``.
    """

    level: int
    origin: int
    masses: np.ndarray

    def __post_init__(self):
        if self.level < 0:
            raise InvalidParameterError("level must be >= 0")
        m = np.asarray(self.masses, dtype=np.float64)
        if m.ndim != 1 or m.size == 0:
            raise InvalidParameterError("masses must be a nonempty 1-D array")
        if np.any(m < 0):
            raise InvalidParameterError("masses must be nonnegative")
        if abs(float(m.sum()) - 1.0) > _MASS_TOL:
            raise InvalidParameterError(
                f"total mass {m.sum()} not within {_MASS_TOL} of 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    def cell_interval(self, j: int) -> Interval:
        k = self.origin + j
        return Interval(Fraction(k, 2 ** self.level),
                        Fraction(k + 1, 2 ** self.level))

    @classmethod
    def uniform(cls, level: int) -> "DyadicMeasure":
        """Lebesgue measure on [0, 1) discretized at the given level."""
        n = 2 ** level
        return cls(level, 0, np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, level: int, x) -> "DyadicMeasure":
        k = math.floor(as_fraction(x) * 2 ** level)
        return cls(level, k, np.array([1.0]))

    @classmethod
    def from_cell_masses(cls, level: int, cells: dict) -> "DyadicMeasure":
        ks = sorted(cells)
        origin = ks[0]
        m = np.zeros(ks[-1] - origin + 1)
        for k in ks:
            m[k - origin] = cells[k]
        return cls(level, origin, m)


@dataclass(frozen=True, eq=False)
class ParamMeasure:
    """A discretized measure on a rectangle of the similarity group,
    scale x translation, with a uniform cell grid."""

    scale_range: Tuple[float, float]
    trans_range: Tuple[float, float]
    grid: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 2:
            raise InvalidParameterError("grid must be 2-D (scale x translation)")
        if np.any(g < 0) or abs(float(g.sum()) - 1.0) > _MASS_TOL:
            raise InvalidParameterError("grid must be a probability array")
        lo, hi = self.scale_range
        if lo <= 0.0 <= hi:
            raise InvalidParameterError("scale_range must exclude 0")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    @property
    def scale_centers(self) -> np.ndarray:
        lo, hi = self.scale_range
        n = self.grid.shape[0]
        return lo + (np.arange(n) + 0.5) * (hi - lo) / n

    @property
    def trans_centers(self) -> np.ndarray:
        lo, hi = self.trans_range
        n = self.grid.shape[1]
        return lo + (np.arange(n) + 0.5) * (hi - lo) / n

    @classmethod
    def uniform(cls, scale_range, trans_range, shape) -> "ParamMeasure":
        nx, ny = shape
        return cls(tuple(scale_range), tuple(trans_range),
                   np.full((nx, ny), 1.0 / (nx * ny)))

    @classmethod
    def point_mass(cls, a: float, t: float) -> "ParamMeasure":
        return cls((a, a), (t, t), np.array([[1.0]]))

    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[float, float]],
                   shape=(64, 64)) -> "ParamMeasure":
        """Uniform measure on a finite set of (scale, translation) pairs,
        snapped onto a grid over their bounding box."""
        if not pairs:
            raise InvalidParameterError("need at least one (scale, trans) pair")
        a = np.array([p[0] for p in pairs])
        t = np.array([p[1] for p in pairs], dtype=np.float64)
        nx, ny = shape
        alo, ahi = float(a.min()), float(a.max())
        tlo, thi = float(t.min()), float(t.max())
        grid = np.zeros((nx, ny))
        ai = np.clip(((a - alo) / (ahi - alo) * nx).astype(int), 0, nx - 1) \
            if ahi > alo else np.zeros(len(a), dtype=int)
        ti = np.clip(((t - tlo) / (thi - tlo) * ny).astype(int), 0, ny - 1) \
            if thi > tlo else np.zeros(len(t), dtype=int)
        np.add.at(grid, (ai, ti), 1.0 / len(pairs))
        return cls((alo, ahi) if ahi > alo else (alo, alo),
                   (tlo, thi) if thi > tlo else (tlo, tlo), grid)


@dataclass(frozen=True)
class EntropyCurve:
    points: Tuple[Tuple[int, float], ...]
    slope: float
    intercept: float


def self_similar_measure(ifs: IFS, weights, level: int) -> DyadicMeasure:
    """Self-similar measure discretized on the level-n dyadic grid.

    Cylinders are expanded until each hull has diameter <= 2^-level; the
    exact product mass of each cylinder is binned at its hull midpoint.
    ``weights="maximal"`` selects p_i = r_i^s with s the similarity
    dimension, giving the measure of maximal dimension under the OSC.
    """
    if level < 1:
        raise InvalidParameterError("level must be >= 1")
    if weights == "maximal":
        s = similarity_dimension(ifs)
        p = [float(r) ** s for r in ifs.ratios]
        tot = sum(p)
        p = [w / tot for w in p]
    else:
        p = [float(w) for w in weights]
        if len(p) != len(ifs):
            raise InvalidParameterError(
                f"got {len(p)} weights for {len(ifs)} maps")
        if any(w < 0 for w in p) or abs(sum(p) - 1.0) > _MASS_TOL:
            raise InvalidParameterError("weights must be a probability vector")

    hull = attractor_hull(ifs)
    diameter, mid = hull.diameter, hull.midpoint
    delta = Fraction(1, 2 ** level)
    two_n = 2 ** level

    def stop(word, g):
        # a zero weight ends its branch, which then carries no mass
        return g.ratio * diameter <= delta or (word and p[word[-1] - 1] == 0.0)

    cells: dict = {}
    for word, g in _walk(ifs, stop):
        mass = math.prod((p[i - 1] for i in word), start=1.0)
        if mass != 0.0:
            k = math.floor(g(mid) * two_n)
            cells[k] = cells.get(k, 0.0) + mass
    return DyadicMeasure.from_cell_masses(level, cells)


def _coarsen(theta: DyadicMeasure, n: int) -> np.ndarray:
    shift = theta.level - n
    if shift == 0:
        return theta.masses
    k = theta.origin + np.arange(theta.masses.size)
    c = k >> shift
    return np.bincount(c - int(c[0]), weights=theta.masses)


def shannon_entropy(theta: Union[DyadicMeasure, ParamMeasure],
                    partition_level: Optional[int] = None) -> float:
    """H(theta, D_n) in bits after exact coarsening; 0 log 0 := 0.

    For a ParamMeasure the entropy is taken over its own grid cells and
    ``partition_level`` must be omitted.
    """
    if isinstance(theta, ParamMeasure):
        if partition_level is not None:
            raise InvalidParameterError(
                "ParamMeasure entropy uses its own grid; omit partition_level")
        return _entropy_bits(theta.grid.ravel())
    n = theta.level if partition_level is None else partition_level
    if n > theta.level:
        raise InvalidParameterError(
            f"cannot refine a level-{theta.level} measure to level {n}")
    return _entropy_bits(_coarsen(theta, n))


def entropy_dimension(theta: DyadicMeasure, n_min: int, n_max: int) -> EntropyCurve:
    """Entropy curve (n, H(theta, D_n)) and its least-squares slope.

    The slope over a range of n estimates the entropy dimension while
    cancelling the additive O(1) discretization offset.
    """
    if not (1 <= n_min < n_max):
        raise InvalidParameterError("need n_max > n_min >= 1")
    if n_max - n_min + 1 < 3:
        raise InvalidParameterError("need at least 3 points for a slope")
    if n_max > theta.level:
        raise InvalidParameterError("n_max exceeds the measure's level")
    ns = np.arange(n_min, n_max + 1, dtype=np.float64)
    hs = np.array([shannon_entropy(theta, int(n)) for n in ns])
    dx = ns - ns.mean()
    dy = hs - hs.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    intercept = float(hs.mean() - slope * ns.mean())
    points = tuple((int(n), float(h)) for n, h in zip(ns, hs))
    return EntropyCurve(points, slope, intercept)


def pushforward(g: Similarity, theta: DyadicMeasure,
                out_level: int) -> DyadicMeasure:
    """Image measure under g, binning each source cell's mass at the output
    cell containing the exact image of the source cell's midpoint."""
    cells: dict = {}
    two_out = 2 ** out_level
    denom = 2 ** (theta.level + 1)
    for j in range(theta.masses.size):
        m = float(theta.masses[j])
        if m == 0.0:
            continue
        mid = Fraction(2 * (theta.origin + j) + 1, denom)
        k = math.floor(g(mid) * two_out)
        cells[k] = cells.get(k, 0.0) + m
    return DyadicMeasure.from_cell_masses(out_level, cells)


def act_convolve(nu: ParamMeasure, mu: DyadicMeasure,
                 out_level: int) -> DyadicMeasure:
    """The measure nu.mu: pushforward of nu x mu under (g, x) -> g(x).

    For every nu grid cell with center (a, t) and mu cell with midpoint x,
    mass nu_cell * mu_cell goes to the output cell containing a*x + t.
    """
    if out_level < 1:
        raise InvalidParameterError("out_level must be >= 1")
    if np.any(nu.scale_centers == 0.0):
        raise InvalidParameterError("a scale cell center is 0 (not in G)")
    jj = np.nonzero(mu.masses)[0]
    x = (mu.origin + jj + 0.5) / 2 ** mu.level
    w = mu.masses[jj]
    two_out = float(2 ** out_level)

    idx_blocks = []
    mass_blocks = []
    a_centers = nu.scale_centers
    t_centers = nu.trans_centers
    for ia in range(nu.grid.shape[0]):
        for it in range(nu.grid.shape[1]):
            wc = nu.grid[ia, it]
            if wc == 0.0:
                continue
            y = a_centers[ia] * x + t_centers[it]
            idx_blocks.append(np.floor(y * two_out).astype(np.int64))
            mass_blocks.append(wc * w)
    idx = np.concatenate(idx_blocks)
    mass = np.concatenate(mass_blocks)
    origin = int(idx.min())
    out = np.zeros(int(idx.max()) - origin + 1)
    np.add.at(out, idx - origin, mass)
    return DyadicMeasure(out_level, origin, out)
