"""Exact algebra of similarities of the line, IFSs, words and cylinder maps.

All arithmetic here is exact, as certified containment checks elsewhere
depend on exact interval endpoints: maps and intervals are `Fraction`s, and
cylinder expansion (`_walk`) runs on integers over powers of one denominator.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Tuple, Union

from .errors import InvalidParameterError, InvalidWordError

RationalLike = Union[int, str, Fraction]

#: A word is a finite sequence of 1-based map indices.
Word = Tuple[int, ...]


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction or a string like "p/q" / "p" to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) or isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InvalidParameterError(f"not an exact rational: {x!r}") from e
    raise InvalidParameterError(f"not an exact rational: {x!r}")


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise InvalidParameterError(f"interval needs lo <= hi, got {self}")

    @property
    def diameter(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def distance(self, other: "Interval") -> Fraction:
        """Distance between two closed intervals (0 if they intersect)."""
        return max(Fraction(0), self.lo - other.hi, other.lo - self.hi)


@dataclass(frozen=True)
class Similarity:
    """An invertible affine map x -> ratio * x + translation of the line."""

    ratio: Fraction
    translation: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ratio", as_fraction(self.ratio))
        object.__setattr__(self, "translation", as_fraction(self.translation))
        if self.ratio == 0:
            raise InvalidParameterError("similarity ratio must be nonzero")

    def __call__(self, x):
        return self.ratio * x + self.translation

    def apply(self, iv: Interval) -> Interval:
        """Exact image of a closed interval (endpoints swap if ratio < 0)."""
        a, b = self(iv.lo), self(iv.hi)
        return Interval(a, b) if a <= b else Interval(b, a)


IDENTITY = Similarity(Fraction(1), Fraction(0))


def compose(g: Similarity, h: Similarity) -> Similarity:
    """Exact composition g o h: x -> g(h(x))."""
    return Similarity(g.ratio * h.ratio, g.ratio * h.translation + g.translation)


def invert(g: Similarity) -> Similarity:
    """The exact inverse map, so compose(g, invert(g)) == IDENTITY."""
    return Similarity(1 / g.ratio, -g.translation / g.ratio)


@dataclass(frozen=True)
class IFS:
    """A finite list of >= 2 contracting similarities with ratio in (0, 1)."""

    maps: Tuple[Similarity, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) < 2:
            raise InvalidParameterError("an IFS needs at least 2 maps")
        for m in self.maps:
            if not (0 < m.ratio < 1):
                raise InvalidParameterError(
                    f"IFS map ratios must lie in (0,1), got {m.ratio}")

    def __len__(self) -> int:
        return len(self.maps)

    @property
    def ratios(self) -> Tuple[Fraction, ...]:
        return tuple(m.ratio for m in self.maps)

    def homogeneous(self) -> bool:
        return len(set(self.ratios)) == 1

    @classmethod
    def from_dict(cls, d: dict) -> "IFS":
        try:
            maps = tuple(Similarity(as_fraction(m["r"]), as_fraction(m["t"]))
                         for m in d["maps"])
        except (KeyError, TypeError) as e:
            raise InvalidParameterError(f"bad IFS spec: {e}") from e
        return cls(maps, d.get("label", ""))

    @classmethod
    def from_json(cls, path: str) -> "IFS":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"label": self.label,
                "maps": [{"r": str(m.ratio), "t": str(m.translation)}
                         for m in self.maps]}


def cylinder_map(ifs: IFS, word: Sequence[int]) -> Similarity:
    """The composition phi_{i_1} o ... o phi_{i_k}; empty word -> identity."""
    g = IDENTITY
    for i in word:
        if not 1 <= i <= len(ifs):
            raise InvalidWordError(f"index {i} out of range 1..{len(ifs)}")
        g = compose(g, ifs.maps[i - 1])
    return g


def attractor_hull(ifs: IFS) -> Interval:
    """Smallest interval J with phi_i(J) subset of J for every map.

    With positive ratios the endpoints are the extreme fixed points
    t_i / (1 - r_i), which lie in the attractor.
    """
    fps = [m.translation / (1 - m.ratio) for m in ifs.maps]
    return Interval(min(fps), max(fps))


def _walk(ifs: IFS, stop: Callable[[Word, int, int], bool]
          ) -> Iterator[Tuple[Word, int, int, int]]:
    """Depth-first expansion of the word tree of ``ifs``.

    A node ``(word, A, B, D)`` is the cylinder map x -> (A x + B) / D, exact
    and never reduced: with map i as x -> (a_i x + b_i) / Q over the common
    denominator Q, the child ``word + (i,)`` is ``(A a_i, A b_i + B Q, D Q)``.
    Yields the node where ``stop(word, A, D)`` first holds, in lexicographic
    word order; the children of every other node are expanded.
    """
    q = math.lcm(*(x.denominator for m in ifs.maps
                   for x in (m.ratio, m.translation)))
    steps = [(i, int(m.ratio * q), int(m.translation * q))
             for i, m in reversed(list(enumerate(ifs.maps, 1)))]
    stack = [((), 1, 0, 1)]
    while stack:
        word, a, b, d = node = stack.pop()
        if stop(word, a, d):
            yield node
        else:
            bq, dq = b * q, d * q
            for i, r, t in steps:
                stack.append((word + (i,), a * r, a * t + bq, dq))


def _hull_ends(ifs: IFS, stop: Callable[[Word, int, int], bool]
               ) -> Iterator[Tuple[Word, int, int, int]]:
    """The leaves of `_walk` as ``(word, lo, hi, den)``, hull [lo/den, hi/den]:
    den = D * ld * hd for hull ends ln/ld, hn/hd, one per depth."""
    hull = attractor_hull(ifs)
    ln, ld = hull.lo.as_integer_ratio()
    hn, hd = hull.hi.as_integer_ratio()
    # ratios are positive, so the hull's ends keep their order
    for word, a, b, d in _walk(ifs, stop):
        yield word, (a * ln + b * ld) * hd, (a * hn + b * hd) * ld, d * ld * hd


def cylinder_cover(ifs: IFS, delta: RationalLike):
    """Cylinder hulls of diameter <= delta covering the attractor.

    Depth-first per-branch expansion, so inhomogeneous IFSs produce
    mixed-length words.  Returned in lexicographic word order as
    (word, interval) pairs.
    """
    delta = as_fraction(delta)
    if delta <= 0:
        raise InvalidParameterError("cover resolution delta must be > 0")
    # the image's diameter (A / D) * diameter <= delta, cross-multiplied
    u, v = (attractor_hull(ifs).diameter / delta).as_integer_ratio()
    return [(word, Interval(Fraction(lo, den), Fraction(hi, den)))
            for word, lo, hi, den in
            _hull_ends(ifs, lambda _, a, d: a * u <= d * v)]
