"""Dyadic-grid measures, Shannon entropy, entropy-dimension slopes, and the
pushforward of a product measure under the affine action (g, x) -> g(x).

Conventions fixed here: logarithms are base 2 against dyadic partitions (so
Lebesgue on [0,1) has slope exactly 1) and masses are binned by cell
midpoint.  Totals and entropy sums use numpy's pairwise summation; binning
(coarsening, pushforward, convolution) adds masses one by one in cell order
over the nonzero cells only.  Adding 0.0 leaves a float sum unchanged and
entropies drop empty cells before their pairwise sum, so every result is
the one a scan over the whole dense grid gives, bit for bit, on every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .dimension import similarity_dimension
from .errors import InvalidParameterError
from .similarity import IFS, Similarity, _walk, as_fraction, attractor_hull

_MASS_TOL = 1e-9
#: most dense measure cells, or convolution (nu cell, mu cell) pairs, that
#: one call may hold; larger requests and output spans raise before
#: allocating
_MAX_CELLS = 2 ** 26


def _span(level: int, lo: int, hi: int) -> int:
    """Width of the dense array from cell lo to cell hi; raises past the
    budget."""
    span = hi - lo + 1
    if span > _MAX_CELLS:
        raise InvalidParameterError(
            f"a level-{level} measure from cell {lo} to cell {hi} spans "
            f"{span} cells, over the budget of {_MAX_CELLS}")
    return span


def _entropy_bits(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@dataclass(frozen=True, eq=False)
class DyadicMeasure:
    """A probability measure on the level-n dyadic cells [k/2^n, (k+1)/2^n).

    ``masses[j]`` is the mass of the cell with global index ``origin + j``.
    The readers (coarsening, entropy, pushforward, convolution) read only
    the `nonzero` view, so their cost follows the occupied cells, not the
    width of the dense array.
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
        if not abs(float(m.sum()) - 1.0) <= _MASS_TOL:  # NaN fails too
            raise InvalidParameterError(
                f"total mass {m.sum()} not within {_MASS_TOL} of 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)

    @property
    def total(self) -> float:
        return float(self.masses.sum())

    @cached_property
    def nonzero(self) -> Tuple[np.ndarray, np.ndarray]:
        """Positions j in ``masses`` of the nonzero cells, in cell order, and
        their masses; computed at most once per measure."""
        m = self.masses
        # a boolean test per 2^16-cell block is 4x faster than flatnonzero
        # on floats, and its temporary stays at 64 KiB
        j = np.concatenate([np.flatnonzero(m[i:i + 2 ** 16] != 0) + i
                            for i in range(0, m.size, 2 ** 16)])
        return j, m[j]

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
        """The measure with mass ``cells[k]`` on cell k; raises
        `InvalidParameterError` before allocating when the cells span more
        than `_MAX_CELLS`."""
        ks = sorted(cells)
        origin = ks[0]
        m = np.zeros(_span(level, origin, ks[-1]))
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
        if np.any(g < 0) or not abs(float(g.sum()) - 1.0) <= _MASS_TOL:
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
        if nx < 1 or ny < 1:
            raise InvalidParameterError(f"grid shape {shape} has no cells")
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
    Raises `InvalidParameterError` before any work when the dense array
    could exceed `_MAX_CELLS` cells.
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
        if any(w < 0 for w in p) or not abs(sum(p) - 1.0) <= _MASS_TOL:
            raise InvalidParameterError("weights must be a probability vector")

    hull = attractor_hull(ifs)
    # every cell lies within half a cell of the hull of the positive-weight
    # maps' fixed points, which holds their attractor
    fps = [m.translation / (1 - m.ratio) for m, w in zip(ifs.maps, p) if w]
    span = math.floor((max(fps) - min(fps)) * 2 ** level) + 2
    if span > _MAX_CELLS:
        raise InvalidParameterError(
            f"a level-{level} measure may span {span} cells, over the "
            f"budget of {_MAX_CELLS}")

    # cross-multiplied: the image's diameter (A / D) * diameter <= 2^-level,
    # and the cell of the image of the midpoint, (A mid + B) / D
    u, v = (hull.diameter * 2 ** level).as_integer_ratio()
    mn, md = hull.midpoint.as_integer_ratio()

    def stop(word, a, d):
        # a zero weight ends its branch, which then carries no mass
        return a * u <= d * v or (word and p[word[-1] - 1] == 0.0)

    cells: dict = {}
    for word, a, b, d in _walk(ifs, stop):
        mass = math.prod((p[i - 1] for i in word), start=1.0)
        if mass != 0.0:
            k = ((a * mn + b * md) << level) // (d * md)
            cells[k] = cells.get(k, 0.0) + mass
    return DyadicMeasure.from_cell_masses(level, cells)


def _coarsen(theta: DyadicMeasure, n: int) -> np.ndarray:
    """Masses of the occupied level-n cells, in cell order."""
    j, m = theta.nonzero
    shift = theta.level - n
    if shift == 0:
        return m
    c = (theta.origin + j) >> shift
    # occupied cells are numbered 0, 1, ...: gaps cost no bins
    return np.bincount(np.cumsum(np.diff(c, prepend=c[0]) != 0), weights=m)


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
    if not 0 <= n <= theta.level:
        raise InvalidParameterError(
            f"partition level {n} outside 0..{theta.level}")
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
    cell containing the exact image of the source cell's midpoint.

    Only the nonzero cells of ``theta`` are read.  With g(x) = (p/q) x + u/v,
    the midpoint (2k+1)/2^(L+1) of cell k lands in the output cell
    floor((p(2k+1)v + uq 2^(L+1)) 2^out / (qv 2^(L+1))), an integer floor.
    An output spanning more than `_MAX_CELLS` cells raises
    `InvalidParameterError` before allocating.
    """
    if out_level < 0:
        raise InvalidParameterError("level must be >= 0")
    p, q = g.ratio.numerator, g.ratio.denominator
    u, v = g.translation.numerator, g.translation.denominator
    two_l1 = 2 ** (theta.level + 1)
    a, b = p * v << out_level, u * q * two_l1 << out_level
    denom = q * v * two_l1
    cells: dict = {}
    j, m = theta.nonzero
    for jj, mass in zip(j.tolist(), m.tolist()):
        k = (a * (2 * (theta.origin + jj) + 1) + b) // denom
        cells[k] = cells.get(k, 0.0) + mass
    return DyadicMeasure.from_cell_masses(out_level, cells)


def act_convolve(nu: ParamMeasure, mu: DyadicMeasure,
                 out_level: int) -> DyadicMeasure:
    """The measure nu.mu: pushforward of nu x mu under (g, x) -> g(x).

    For every nu grid cell with center (a, t) and mu cell with midpoint x,
    mass nu_cell * mu_cell goes to the output cell containing a*x + t.
    The nonzero nu cells (row-major) are broadcast against the nonzero mu
    cells in one array of pairs, binned in that order; more than
    `_MAX_CELLS` pairs, or an output spanning more than `_MAX_CELLS` cells,
    raise `InvalidParameterError` before allocating.
    """
    if out_level < 1:
        raise InvalidParameterError("out_level must be >= 1")
    if np.any(nu.scale_centers == 0.0):
        raise InvalidParameterError("a scale cell center is 0 (not in G)")
    ia, it = np.nonzero(nu.grid)
    j, w = mu.nonzero
    if ia.size * j.size > _MAX_CELLS:
        raise InvalidParameterError(
            f"{ia.size} nu cells x {j.size} mu cells = {ia.size * j.size} "
            f"pairs, over the budget of {_MAX_CELLS}")
    x = (mu.origin + j + 0.5) / 2 ** mu.level
    y = np.multiply.outer(nu.scale_centers[ia], x)
    y += nu.trans_centers[it][:, None]
    y *= float(2 ** out_level)
    idx = np.floor(y, out=y).astype(np.int64).ravel()
    del y  # at most two arrays of pairs are alive at once
    origin = int(idx.min())
    _span(out_level, origin, int(idx.max()))
    idx -= origin
    mass = np.multiply.outer(nu.grid[ia, it], w).ravel()
    return DyadicMeasure(out_level, origin, np.bincount(idx, weights=mass))
