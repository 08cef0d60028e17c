"""Exact logarithmic-commensurability arithmetic on rational contraction
ratios, exponent-relation solving, continued fractions, and a Pisot-number
predicate.

Commensurability is decided by prime factorization, never by floating
point: log(alpha)/log(beta) is rational iff the prime-exponent vectors of
alpha and beta are parallel, and the emitted certificate alpha^q == beta^p
is checked in exact rational arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp
import numpy as np
import sympy

from .errors import InvalidParameterError, PreconditionError
from .similarity import IFS, as_fraction

# inputs whose numerator or denominator exceeds this many bits are not
# factored; the verdict degrades to "unknown" instead of hanging
_FACTOR_BIT_LIMIT = 128

_PISOT_BOUNDARY = 1e-9


@dataclass(frozen=True)
class CommensurabilityResult:
    verdict: str                      # "rational", "incommensurable", "unknown"
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


def _exponent_vector(x: Fraction) -> Dict[int, int]:
    v: Dict[int, int] = {}
    for prime, e in sympy.factorint(x.numerator).items():
        v[int(prime)] = v.get(int(prime), 0) + e
    for prime, e in sympy.factorint(x.denominator).items():
        v[int(prime)] = v.get(int(prime), 0) - e
    return {prime: e for prime, e in v.items() if e != 0}


def log_commensurable(alpha, beta) -> CommensurabilityResult:
    """Decide whether log(alpha)/log(beta) is rational, exactly."""
    alpha, beta = as_fraction(alpha), as_fraction(beta)
    for x in (alpha, beta):
        if not 0 < x < 1:
            raise InvalidParameterError(f"ratio {x} outside (0,1)")
    for x in (alpha, beta):
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > _FACTOR_BIT_LIMIT:
            return CommensurabilityResult(
                "unknown", certificate="input exceeds factorization bound")
    va, vb = _exponent_vector(alpha), _exponent_vector(beta)
    if set(va) != set(vb):
        prime = sorted(set(va) ^ set(vb))[0]
        return CommensurabilityResult(
            "incommensurable",
            certificate=f"prime {prime} divides exactly one of the ratios")
    primes = sorted(va)
    r = Fraction(va[primes[0]], vb[primes[0]])
    for prime in primes[1:]:
        if Fraction(va[prime], vb[prime]) != r:
            return CommensurabilityResult(
                "incommensurable",
                certificate=(f"exponent mismatch between primes "
                             f"{primes[0]} and {prime}"))
    p, q = r.numerator, r.denominator
    if r <= 0 or alpha ** q != beta ** p:
        raise PreconditionError(
            f"parallel exponent vectors fail to verify ({beta})^{p} == "
            f"({alpha})^{q}")
    return CommensurabilityResult(
        "rational", p, q, certificate=f"({beta})^{p} == ({alpha})^{q}")


def conjecture_exponents(F: IFS, E: IFS) -> ExponentMatrix:
    """Rational exponents t with alpha_i = prod_j beta_j^{t_ij}, per row.

    Identical beta_j are merged before solving; the first occurrence
    carries the whole exponent and its duplicates get 0.  Rows outside the
    rational span come back as None; negative entries are flagged.
    """
    betas = list(E.ratios)
    first_index: Dict[Fraction, int] = {}
    for j, b in enumerate(betas):
        first_index.setdefault(b, j)
    uniq = sorted(first_index, key=first_index.get)
    cols = [_exponent_vector(b) for b in uniq]
    primes = sorted(set().union(*cols))
    M = sympy.Matrix([[sympy.Rational(c.get(pr, 0)) for c in cols]
                      for pr in primes])
    syms = sympy.symbols(f"t0:{len(uniq)}")

    rows: List[Optional[Tuple[Fraction, ...]]] = []
    negs: List[bool] = []
    for a in F.ratios:
        va = _exponent_vector(a)
        if not set(va) <= set(primes):
            rows.append(None)
            negs.append(False)
            continue
        v = sympy.Matrix([sympy.Rational(va.get(pr, 0)) for pr in primes])
        sol = sympy.linsolve((M, v), list(syms))
        if not sol:
            rows.append(None)
            negs.append(False)
            continue
        tup = next(iter(sol))
        tup = tuple(expr.subs({s: 0 for s in syms}) for expr in tup)
        full = [Fraction(0)] * len(betas)
        for k, b in enumerate(uniq):
            full[first_index[b]] = Fraction(int(tup[k].p), int(tup[k].q))
        if not _verify_row(a, betas, full):
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

    Exact for rational x (terminates early); high-precision mpmath
    otherwise.  Every convergent satisfies |x - p/q| < 1/q^2.
    """
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    exact = isinstance(x, (int, Fraction)) or (
        isinstance(x, float) and float(Fraction(x).limit_denominator(10 ** 6)) == x)
    if exact:
        rem: Optional[Fraction] = Fraction(x).limit_denominator(10 ** 6) \
            if isinstance(x, float) else Fraction(x)
    else:
        rem = None
        with mp.workdps(60):
            z = mp.mpf(x)

    h_prev, h = 1, None
    k_prev, k = 0, None
    convergents: List[Fraction] = []
    for _ in range(depth + 1):
        if exact:
            a = math.floor(rem)
            frac = rem - a
        else:
            with mp.workdps(60):
                a = int(mp.floor(z))
                frac = z - a
        if h is None:
            h, k = a, 1
        else:
            h, h_prev = a * h + h_prev, h
            k, k_prev = a * k + k_prev, k
        convergents.append(Fraction(h, k))
        if exact and frac == 0:
            break
        if not exact and frac < mp.mpf(10) ** -50:
            break
        rem = 1 / frac if exact else None
        if not exact:
            with mp.workdps(60):
                z = 1 / frac
    return convergents[:depth + 1]


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
