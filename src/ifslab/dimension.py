"""Similarity dimension (Moran equation) and separation certificates."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import InvalidParameterError
from .similarity import IFS, Interval, _hull_ends, attractor_hull

# depth-4 refinement is tried first, deepening to 12 while inconclusive;
# every depth d run, explicit or not, has len(ifs) ** d <= _MAX_INTERVALS
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
    """Least lo(J) - hi(I) over level-(depth + 1) hulls I, J under different
    first maps, lo(I) <= lo(J): if > 0, a certified lower bound for
    min_{i != j} d(phi_i(F), phi_j(F)); <= 0 if two such hulls meet."""
    leaves = list(_hull_ends(ifs, lambda w, _a, _d: len(w) == depth + 1))
    # integers only: an inf sentinel makes lo a float, overflowing past 1e308
    gaps, reach = [], {}  # reach: furthest right end per first map so far
    for lo, hi, i in sorted((lo, hi, w[0]) for w, lo, hi, _ in leaves):
        others = [r for k, r in reach.items() if k != i]
        if others:
            gaps.append(lo - max(others))
        reach[i] = max(reach.get(i, hi), hi)
    # len(ifs) >= 2, so some hull follows one under another first map
    return Fraction(min(gaps), leaves[0][3])


def ssc_gap(ifs: IFS, depth: Optional[int] = None) -> SeparationCertificate:
    """Certified lower bound on the pairwise distance of first-level images.

    With ``depth=None`` refinement starts at depth 4 and deepens (up to 12)
    while the covers still overlap and ``len(ifs) ** depth <= 65536``; the
    level set at depth d holds ``len(ifs) ** (d + 1)`` hulls.  An explicit
    depth past that cap raises `InvalidParameterError` before any work.  A
    ``none`` verdict is inconclusive, not a refutation.
    """
    # len(ifs) >= 2, so no depth past the cap's bit length is under it
    capped = [d for d in range(_MAX_INTERVALS.bit_length())
              if len(ifs) ** d <= _MAX_INTERVALS]
    if depth is None:
        depths = [d for d in capped
                  if _DEFAULT_DEPTH <= d <= _MAX_DEPTH] or [1]
    elif depth in capped:
        depths = [depth]
    else:
        raise InvalidParameterError(f"depth {depth} outside 0..{capped[-1]}, "
                                    f"the cap len(ifs)^d <= {_MAX_INTERVALS}")
    for d in depths:
        gap = _gap_at_depth(ifs, d)
        if gap > 0:
            return SeparationCertificate("SSC", gap,
                                         f"cylinder covers at depth {d}")
    return SeparationCertificate("none", Fraction(0),
                                 f"covers overlap at depth {depths[-1]}")


def check_osc_hull(ifs: IFS) -> SeparationCertificate:
    """Sufficient OSC check with U = interior of the attractor hull, which
    holds each of its images as ratios are positive: these may touch but
    not overlap.  A ``none`` verdict does not refute the OSC.
    """
    if _gap_at_depth(ifs, 0) >= 0:
        hull = attractor_hull(ifs)
        return SeparationCertificate("OSC-hull", Fraction(0),
                                     f"U = int({hull.lo}, {hull.hi})")
    return SeparationCertificate("none", Fraction(0),
                                 "hull-interior images overlap")
