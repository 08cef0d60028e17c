"""Similarity dimension (Moran equation) and separation certificates."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import InvalidParameterError
from .similarity import IFS, Interval, _hulls, attractor_hull

# depth-4 refinement is tried first, deepening to 12 while inconclusive,
# subject to a cap on the number of refined intervals per map
_DEFAULT_DEPTH = 4
_MAX_DEPTH = 12
_MAX_INTERVALS = 65536


@dataclass(frozen=True)
class SeparationCertificate:
    kind: str              # "SSC", "OSC-hull" or "none"
    gap: Fraction          # certified lower bound, meaningful for SSC
    witness: str = ""

    def __post_init__(self):
        if self.kind not in ("SSC", "OSC-hull", "none"):
            raise InvalidParameterError(f"unknown certificate kind {self.kind}")
        if self.kind == "SSC" and not self.gap > 0:
            raise InvalidParameterError("SSC certificate requires gap > 0")


def similarity_dimension(ifs: IFS) -> float:
    """The s solving sum_i r_i^s = 1, by bisection to bracket width 1e-14."""
    rs = [float(r) for r in ifs.ratios]
    lo, hi = 0.0, 1.0 + math.log(len(rs)) / math.log(1.0 / max(rs))

    def f(s):
        return sum(r ** s for r in rs) - 1.0

    # f is strictly decreasing, f(lo) = l-1 > 0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(2):  # Newton polish to the nearest double
        df = sum(r ** s * math.log(r) for r in rs)
        if df == 0.0:
            break
        s -= f(s) / df
    return s


def _level_intervals(ifs: IFS, depth: int) -> List[Interval]:
    """Hull images of all words of exactly the given length, one level set."""
    return [iv for _, iv in
            _hulls(ifs, lambda word, _a, _d: len(word) == depth)]


def _merge(intervals: List[Interval]) -> List[Interval]:
    """Union of closed intervals as a sorted disjoint list."""
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    out = [ivs[0]]
    for iv in ivs[1:]:
        if iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


def _distance_to_union(iv: Interval, union: List[Interval], los) -> Fraction:
    """Exact distance from one interval to a merged sorted union."""
    j = bisect_right(los, iv.hi)
    best = None
    for k in (j - 1, j):
        if 0 <= k < len(union):
            d = iv.distance(union[k])
            if best is None or d < best:
                best = d
    return best


def _gap_at_depth(ifs: IFS, depth: int) -> Fraction:
    """Certified lower bound for min_{i != j} d(phi_i(F), phi_j(F))."""
    # phi_i of the depth-d level set is block i of the depth-(d + 1) one
    level = _level_intervals(ifs, depth + 1)
    size = len(level) // len(ifs)
    covers = [level[k:k + size] for k in range(0, len(level), size)]
    gap: Optional[Fraction] = None
    for i in range(len(covers)):
        for j in range(i + 1, len(covers)):
            union = _merge(covers[j])
            los = [u.lo for u in union]
            for iv in covers[i]:
                d = _distance_to_union(iv, union, los)
                if gap is None or d < gap:
                    gap = d
                if gap == 0:
                    return Fraction(0)
    return gap


def ssc_gap(ifs: IFS, depth: Optional[int] = None) -> SeparationCertificate:
    """Certified lower bound on the pairwise distance of first-level images.

    With ``depth=None`` refinement starts at depth 4 and deepens (up to 12,
    capped at 65536 refined intervals) while the covers still overlap; a
    ``none`` verdict is inconclusive, not a refutation.
    """
    if depth is not None:
        if depth < 0:
            raise InvalidParameterError("depth must be >= 0")
        depths = [depth]
    else:
        depths = [d for d in range(_DEFAULT_DEPTH, _MAX_DEPTH + 1)
                  if len(ifs) ** d <= _MAX_INTERVALS] or [1]
    gap = Fraction(0)
    for d in depths:
        gap = _gap_at_depth(ifs, d)
        if gap > 0:
            return SeparationCertificate("SSC", gap,
                                         f"cylinder covers at depth {d}")
    return SeparationCertificate("none", Fraction(0),
                                 f"covers overlap at depth {depths[-1]}")


def check_osc_hull(ifs: IFS) -> SeparationCertificate:
    """Sufficient OSC check with U = interior of the attractor hull.

    A ``none`` verdict does not refute the OSC; only this witness fails.
    """
    hull = attractor_hull(ifs)
    images = sorted((m.apply(hull) for m in ifs.maps),
                    key=lambda iv: (iv.lo, iv.hi))
    # each image lies in the hull: attractor_hull is invariant under every
    # map by construction, as ratios are positive
    if all(images[k].hi <= images[k + 1].lo
           for k in range(len(images) - 1)):
        return SeparationCertificate("OSC-hull", Fraction(0),
                                     f"U = int({hull.lo}, {hull.hi})")
    return SeparationCertificate("none", Fraction(0),
                                 "hull-interior images overlap")
