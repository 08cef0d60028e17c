"""Exact logarithmic-commensurability arithmetic on rational contraction
ratios, exponent-relation solving, continued fractions, and a Pisot-number
predicate.

Commensurability is decided exactly over a coprime base: gcds split all
numerators and denominators into pairwise-coprime, hence multiplicatively
independent, factors b > 1, and log(alpha)/log(beta) is rational iff the
exponent vectors of alpha and beta over them are parallel.  The emitted
certificate alpha^q == beta^p is checked in exact rational arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidParameterError, PreconditionError
from .similarity import IFS, as_fraction

# certificates name witness primes that trial division below this finds
_TRIAL_LIMIT = 1 << 16

_PISOT_BOUNDARY = 1e-9


@dataclass(frozen=True)
class CommensurabilityResult:
    verdict: str                      # "rational" or "incommensurable"
    p: Optional[int] = None           # log(alpha)/log(beta) = p/q, gcd = 1
    q: Optional[int] = None
    certificate: str = ""

    @property
    def ratio(self) -> Optional[Fraction]:
        return Fraction(self.p, self.q) if self.verdict == "rational" else None


@dataclass(frozen=True)
class ExponentMatrix:
    rows: Tuple[Optional[Tuple[Fraction, ...]], ...]
    has_negative: Tuple[bool, ...]


@dataclass(frozen=True)
class PisotVerdict:
    polynomial: Tuple[int, ...]
    dominant_root: Optional[float]
    conjugate_moduli: Tuple[float, ...]
    is_pisot: bool
    salem_suspect: bool = False
    max_residual: float = 0.0


def _coprime_base(ns: Iterable[int]) -> List[int]:
    """Ascending pairwise-coprime b > 1 of which each n is a product of
    powers, by gcd refinement: n sharing g > 1 with b gives way to g, b/g
    and n/g, so the product of all numbers held falls and the loop ends."""
    base: List[int] = []
    todo = list(ns)
    while todo:
        n = todo.pop()
        b = next((b for b in base if math.gcd(n, b) > 1), None)
        if b is not None:
            base.remove(b)
            g = math.gcd(n, b)
            todo += [g, b // g, n // g]
        elif n > 1:
            base.append(n)
    return sorted(base)


def _exponent_vector(x: Fraction, base: Sequence[int]) -> List[int]:
    """The exponents e_b with x = prod b^e_b over a coprime ``base``."""
    vec = []
    for b in base:
        e = 0
        for n, sign in ((x.numerator, 1), (x.denominator, -1)):
            while n % b == 0:
                n, e = n // b, e + sign
        vec.append(e)
    return vec


def _witness(elements: Sequence[int]) -> Tuple[int, str]:
    """The witness among ``elements`` and the name of its prime: the one
    divisible by the least prime p that divides any of them, named "p", if
    trial division below _TRIAL_LIMIT finds p; else the least one, b, "p|b"."""
    n = math.prod(elements)
    p = next((p for p in range(2, _TRIAL_LIMIT) if n % p == 0), None)
    b = min(elements) if p is None else next(b for b in elements if b % p == 0)
    return b, str(p) if p else f"p|{b}"


def log_commensurable(alpha, beta) -> CommensurabilityResult:
    """Decide whether log(alpha)/log(beta) is rational, exactly."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    for x in (alpha, beta):
        if not 0 < x < 1:
            raise InvalidParameterError(f"ratio {x} outside (0,1)")
    base = _coprime_base([alpha.numerator, alpha.denominator,
                          beta.numerator, beta.denominator])
    va, vb = _exponent_vector(alpha, base), _exponent_vector(beta, base)
    one_sided = [b for b, x, y in zip(base, va, vb) if (x == 0) != (y == 0)]
    if one_sided:
        name = _witness(one_sided)[1]
        return CommensurabilityResult("incommensurable", certificate=(
            f"prime {name} divides exactly one of the ratios"))
    ratio = {b: Fraction(x, y) for b, x, y in zip(base, va, vb)}
    if len(set(ratio.values())) > 1:
        b0, p0 = _witness(base)
        _, p = _witness([b for b in base if ratio[b] != ratio[b0]])
        return CommensurabilityResult(
            "incommensurable",
            certificate=f"exponent mismatch between primes {p0} and {p}")
    r = ratio[base[0]]
    p, q = r.numerator, r.denominator
    if r <= 0 or alpha ** q != beta ** p:
        raise PreconditionError(
            f"parallel exponent vectors fail to verify ({beta})^{p} == "
            f"({alpha})^{q}")
    return CommensurabilityResult(
        "rational", p, q, certificate=f"({beta})^{p} == ({alpha})^{q}")


def _log_ratio(alpha, beta, digits: int) -> Decimal:
    """log(alpha)/log(beta) at ``digits`` significant digits, from
    correctly rounded decimal logarithms."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    if alpha <= 0 or beta <= 0 or beta == 1:
        raise InvalidParameterError(
            f"log({alpha})/log({beta}) is not a real number")
    with localcontext(Context(prec=digits)):
        return (Decimal(alpha.numerator) / alpha.denominator).ln() / \
            (Decimal(beta.numerator) / beta.denominator).ln()


def conjecture_exponents(F: IFS, E: IFS) -> ExponentMatrix:
    """Rational exponents t with alpha_i = prod_j beta_j^{t_ij}, per row.

    Identical beta_j are merged before solving; the first occurrence
    carries the whole exponent and its duplicates get 0.  Gauss-Jordan
    elimination over the coprime base pivots on the leftmost independent
    beta_j and gives the others 0.  Rows outside the rational span come
    back as None; negative entries are flagged.
    """
    betas = list(E.ratios)
    first_index: Dict[Fraction, int] = {}
    for j, b in enumerate(betas):
        first_index.setdefault(b, j)
    uniq = sorted(first_index, key=first_index.get)
    base = _coprime_base(n for x in (*uniq, *F.ratios)
                         for n in (x.numerator, x.denominator))
    # a row per base element: the exponents of each beta, then of each alpha
    system = [[Fraction(e) for e in row] for row in
              zip(*(_exponent_vector(x, base) for x in (*uniq, *F.ratios)))]
    pivots: List[int] = []
    for c in range(len(uniq)):
        r = len(pivots)
        k = next((i for i in range(r, len(system)) if system[i][c]), None)
        if k is None:
            continue
        system[k], system[r] = system[r], [x / system[k][c] for x in system[k]]
        system = [row if i == r else
                  [x - row[c] * y for x, y in zip(row, system[r])]
                  for i, row in enumerate(system)]
        pivots.append(c)

    rows: List[Optional[Tuple[Fraction, ...]]] = []
    negs: List[bool] = []
    for j, a in enumerate(F.ratios, len(uniq)):
        full = [Fraction(0)] * len(betas)
        for row, c in zip(system, pivots):
            full[first_index[uniq[c]]] = row[j]
        if any(row[j] for row in system[len(pivots):]) or \
                not _verify_row(a, betas, full):
            rows.append(None)
            negs.append(False)
            continue
        rows.append(tuple(full))
        negs.append(any(t < 0 for t in full))
    return ExponentMatrix(tuple(rows), tuple(negs))


def _verify_row(alpha: Fraction, betas: Sequence[Fraction],
                ts: Sequence[Fraction]) -> bool:
    L = math.lcm(*[t.denominator for t in ts]) if ts else 1
    lhs = alpha ** L
    rhs = Fraction(1)
    for b, t in zip(betas, ts):
        rhs *= b ** int(t * L)
    return lhs == rhs


def continued_fraction(x, depth: int) -> List[Fraction]:
    """Continued-fraction convergents p_k/q_k of x, at most ``depth`` deep.

    Ints, Fractions, floats, Decimals and numeric strings are exact
    rationals, and the exact expansion ends at that rational.  A float
    equal to its ``limit_denominator(10**6)`` is taken as that rational
    instead, so 0.1 gives [0, 1/10].  Every convergent p/q satisfies
    |r - p/q| < 1/q^2, for r the rational expanded.
    """
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    try:
        rem = Fraction(x)
    except (ValueError, OverflowError) as e:   # NaN, infinity, bad string
        raise InvalidParameterError(f"not a finite real: {x!r}") from e
    if isinstance(x, float):
        r = rem.limit_denominator(10 ** 6)
        rem = r if float(r) == x else rem
    h, h_prev, k, k_prev = 1, 0, 0, 1
    convergents: List[Fraction] = []
    for _ in range(depth + 1):
        a = math.floor(rem)
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        convergents.append(Fraction(h, k))
        rem -= a
        if rem == 0:
            break
        rem = 1 / rem
    return convergents


def is_pisot(coeffs: Sequence[int]) -> PisotVerdict:
    """Root-pattern Pisot test for a monic integer polynomial.

    Coefficients are ordered highest degree first (constant last).
    Irreducibility is NOT checked: the predicate is on the root pattern.
    Conjugate moduli within 1e-9 of 1 yield False with a Salem-suspect
    flag, since |root| = 1 cannot be decided at fixed precision.
    """
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) < 2:
        raise InvalidParameterError("polynomial degree must be >= 1")
    if coeffs[0] != 1:
        raise InvalidParameterError("polynomial must be monic")
    carr = np.array(coeffs, dtype=np.float64)
    roots = np.roots(carr)
    deriv = np.polyder(carr)
    for _ in range(3):  # Newton polish on the companion-matrix eigenvalues
        dp = np.polyval(deriv, roots)
        step = np.where(dp != 0, np.polyval(carr, roots) / np.where(dp == 0, 1, dp), 0)
        roots = roots - step
    residual = float(np.max(np.abs(np.polyval(carr, roots))))

    real_gt1 = [(z.real, i) for i, z in enumerate(roots)
                if abs(z.imag) < 1e-9 and z.real > 1]
    if not real_gt1:
        return PisotVerdict(coeffs, None,
                            tuple(sorted(float(abs(z)) for z in roots)),
                            False, False, residual)
    dom, dom_i = max(real_gt1)
    conj = [float(abs(z)) for i, z in enumerate(roots) if i != dom_i]
    salem = any(abs(m - 1.0) <= _PISOT_BOUNDARY for m in conj)
    ok = all(m <= 1.0 - _PISOT_BOUNDARY for m in conj)
    return PisotVerdict(coeffs, float(dom), tuple(sorted(conj)),
                        ok, salem, residual)
