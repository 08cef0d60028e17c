"""`certify` workload: exact certificates on homogeneous Cantor-type targets.

Every target E has ratio 1/m (m in 3..7) and a digit set with no two
adjacent digits, so its first-level pieces are separated (SSC) by a gap
known in closed form.  Every source F is built from words of E, so F lies
in E and the verdict of each request is known from its construction:
`verify_embedding` with g a cylinder map of E is consistent; moving g so
that one point of g(F) sits in the middle of a gap of E that is wider than
4 delta forces a rejection.

The shape of block i -- every input that sets a request's cost, such as
m, the digit set, word lengths, delta and n_max -- comes from a generator
seeded with i alone, and is chosen so that each request's exact cylinder
count falls in a fixed band.  The seed picks the rest: the inner words of
F and of g, where a rejected g is moved to, the commensurability inputs
and the order.  So every seed sends the same costs in a different guise,
and the latency percentiles do not depend on the seed.
"""
from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction
from itertools import combinations

import ifslab
from ifslab import IFS, Similarity

from common import MAX_CYLINDERS, Request, frac_str, maps_str, require

#: blocks whose results make up the digest and the traced pass
PREFIX_BLOCKS = 3

#: expansion-node bands (E cover plus F cover) of the verify requests of a
#: block, each once with an expected `consistent` and once with a
#: `rejected`; the median latency falls inside the middle band
VERIFY_BANDS = [(80, 130), (350, 500), (350, 500), (1300, 2000)]
#: total expansion nodes of the rational families of a block; the 90th
#: latency percentile falls inside the lower band
FAMILY_BANDS = [(8_000, 9_000), (16_000, 18_000)]
DELTA_EXPONENTS = range(10, 17)
FAMILY_DELTA0 = Fraction(1, 2 ** 12)


class Target:
    """A homogeneous target E = {x/m + d/m : d in D} with closed-form data."""

    def __init__(self, m: int, digits: tuple[int, ...]):
        self.m, self.digits = m, digits
        self.beta = Fraction(1, m)
        self.ifs = IFS(tuple(Similarity(self.beta, Fraction(d, m))
                             for d in digits), f"E{m}:{digits}")
        self.lo = Fraction(min(digits), m - 1)
        self.hi = Fraction(max(digits), m - 1)
        self.diam = self.hi - self.lo
        self.gap = min(Fraction(b - a, m) - self.diam / m
                       for a, b in zip(digits, digits[1:]))

    def word_map(self, word) -> Similarity:
        """phi_w for a 1-based word, composed exactly by hand."""
        r, t = Fraction(1), Fraction(0)
        for i in word:
            t += r * Fraction(self.digits[i - 1], self.m)
            r *= self.beta
        return Similarity(r, t)

    def cover_size(self, delta: Fraction) -> int:
        """Nodes the expansion of the delta-cover visits."""
        return _nodes([1] * len(self.digits), self.diam, delta, self.beta)

    def cover_offsets(self, delta: Fraction) -> tuple[int, list[int]]:
        """Depth j of the delta-cover and the sorted integers T with cover
        intervals [(T + lo)/m^j, (T + hi)/m^j]."""
        j = 0
        while self.diam * self.beta ** j > delta:
            j += 1
        offs = [0]
        for _ in range(j):
            offs = [self.m * t + d for t in offs for d in self.digits]
        return j, sorted(offs)

    def misses_cover(self, lo: Fraction, hi: Fraction, delta) -> bool:
        """Whether [lo, hi] is disjoint from the delta-cover of E."""
        j, offs = self.cover_offsets(delta)
        scale = self.m ** j
        first = math.ceil(lo * scale - self.hi)   # (T + hi)/m^j >= lo
        last = math.floor(hi * scale - self.lo)   # (T + lo)/m^j <= hi
        k = bisect.bisect_left(offs, first)
        return not (k < len(offs) and offs[k] <= last)


def _nodes(exps, diam: Fraction, delta: Fraction, beta: Fraction) -> int:
    """Nodes of the depth-first cover expansion of an IFS whose ratios are
    beta^a for a in exps: a cylinder of ratio beta^e is split while
    diam * beta^e > delta.  Counted per exponent, which is exact and much
    faster than `expansion_nodes` on these IFSs."""
    e_split = 0                          # cylinders with e < e_split split
    while diam * beta ** e_split > delta:
        e_split += 1
    nodes = [1] * (e_split + max(exps) + 1)
    for e in range(e_split - 1, -1, -1):
        nodes[e] = 1 + sum(nodes[e + a] for a in exps)
    return nodes[0]


def _digit_sets(m: int):
    return [d for k in range(2, m) for d in combinations(range(m), k)
            if all(b - a >= 2 for a, b in zip(d, d[1:]))]


def _target(shape) -> Target:
    """Uniform m, then a uniform digit count, so that large covers are not
    rare."""
    m = shape.randint(3, 7)
    sets = _digit_sets(m)
    k = shape.randint(2, max(map(len, sets)))
    return Target(m, shape.choice([d for d in sets if len(d) == k]))


class Source:
    """F from prefix-free words of E: the words 1^a and k^b, whose fixed
    points are the ends of E's hull, and for k >= 3 one word of length c
    that starts with an inner digit.  The shape fixes the lengths, hence
    the ratios and the hull of F and the size of its covers; the seed
    picks the inner word."""

    def __init__(self, shape, rng, E: Target):
        k = len(E.digits)
        self.E = E
        self.words = [(1,) * shape.randint(1, 3), (k,) * shape.randint(1, 3)]
        c = shape.randint(0, 3) if k >= 3 else 0
        if c:
            self.words.append((rng.randint(2, k - 1),) +
                              tuple(rng.randint(1, k) for _ in range(c - 1)))
        self.ifs = IFS(tuple(E.word_map(w) for w in self.words),
                       "F:" + ",".join("".join(map(str, w))
                                       for w in self.words))
        self.lo, self.hi = E.lo, E.hi

    def cover_size(self, delta: Fraction) -> int:
        return _nodes([len(w) for w in self.words], self.hi - self.lo, delta,
                      self.E.beta)


def _cylinder_of(shape, rng, E: Target) -> Similarity:
    """phi_w of E for a word of shape-chosen length 0 or 1."""
    return E.word_map(tuple(rng.randint(1, len(E.digits))
                            for _ in range(shape.randint(0, 1))))


def _apply(g: Similarity, x: Fraction) -> Fraction:
    return g.ratio * x + g.translation


# ---- verify_embedding -------------------------------------------------------

def make_verify(shape, rng, band, consistent: bool) -> Request:
    while True:
        E = _target(shape)
        src = Source(shape, rng, E)
        F, f_lo, f_hi = src.ifs, src.lo, src.hi
        g = _cylinder_of(shape, rng, E)
        exps = list(DELTA_EXPONENTS)
        shape.shuffle(exps)
        for k in exps:
            delta = Fraction(1, 2 ** k)
            est = E.cover_size(delta) + src.cover_size(delta / g.ratio)
            if band[0] <= est < band[1]:
                break
        else:
            continue
        break
    if not consistent:
        g = _misplace(rng, E, F, g, delta)
    return _verify_request(E, F, f_lo, f_hi, g, delta, consistent, est)


def _misplace(rng, E: Target, F: IFS, g: Similarity, delta) -> Similarity:
    """Translate g so that g(fixed point of F's first map), a point of
    g(F), lands in the middle of a gap of E whose half-width exceeds
    2 delta.  Every point of g(F) within delta of that point is then more
    than delta away from any cylinder hull of E's delta-cover."""
    phi = F.maps[0]
    x = _apply(g, phi.translation / (1 - phi.ratio))
    gaps = list(zip(E.digits, E.digits[1:]))
    # first-level gaps are at least 1/7 wide, so the loop ends
    while True:
        v = tuple(rng.randint(1, len(E.digits))
                  for _ in range(rng.randint(0, 2)))
        a, b = rng.choice(gaps)
        psi = E.word_map(v)
        left = _apply(psi, (a + E.hi) / E.m)
        right = _apply(psi, (b + E.lo) / E.m)
        if (right - left) / 2 > 2 * delta:
            break
    return Similarity(g.ratio, g.translation + (left + right) / 2 - x)


def _verify_request(E, F, f_lo, f_hi, g, delta, consistent, est) -> Request:
    def call():
        return ifslab.verify_embedding(g, F, E.ifs, delta)

    def check(v):
        require(v.resolution == delta, "resolution echoed")
        if consistent:
            require(v.status == "consistent" and v.witness_word is None,
                    f"expected consistent, got {v.status}")
            return
        require(v.status == "rejected", f"expected rejected, got {v.status}")
        word = v.witness_word
        require(all(1 <= i <= len(F) for i in word), f"witness word {word}")
        r, t = g.ratio, g.translation
        for i in word:
            t += r * F.maps[i - 1].translation
            r *= F.maps[i - 1].ratio
        lo, hi = sorted((r * f_lo + t, r * f_hi + t))
        iv = v.witness_interval
        require((iv.lo, iv.hi) == (lo, hi), "witness interval recomputed")
        require(hi - lo <= delta, "witness interval wider than delta")
        require(E.misses_cover(lo, hi, delta),
                "witness interval meets the target's delta-cover")

    def canon(v):
        iv = v.witness_interval
        ends = "" if iv is None else f"{iv.lo},{iv.hi}"
        return f"{v.status}|{v.resolution}|{v.witness_word}|{ends}"

    inputs = (f"verify|{maps_str(E.ifs)}|{maps_str(F)}|"
              f"{g.ratio},{g.translation}|{delta}")
    return Request("verify_embedding", inputs, call, check, canon, est)


# ---- renormalize_family -----------------------------------------------------

def _family_constants(E: Target, gamma, f_diam, alpha):
    """p, N of the renormalization pipeline, by its exact definitions:
    p is least with beta^p < kappa/c and N is least with alpha^N < beta^p."""
    c = gamma * f_diam
    p = 0
    while E.beta ** p >= E.gap / c:
        p += 1
    N = 1
    while not alpha ** N < E.beta ** p:
        N += 1
    return p, N


def make_family(shape, rng, band) -> Request:
    while True:
        E = _target(shape)
        src = Source(shape, rng, E)
        F, f_lo, f_hi = src.ifs, src.lo, src.hi
        g = _cylinder_of(shape, rng, E)
        i = shape.randint(1, len(F))
        alpha = F.maps[i - 1].ratio
        p, N = _family_constants(E, g.ratio, f_hi - f_lo, alpha)
        eta = E.beta ** p * g.ratio
        per_entry = E.cover_size(FAMILY_DELTA0) + \
            src.cover_size(FAMILY_DELTA0 / eta)
        base = E.cover_size(FAMILY_DELTA0) + \
            src.cover_size(FAMILY_DELTA0 / g.ratio)
        target = shape.uniform(*band)
        n_max = N + round((target - base) / per_entry)
        if 10 <= n_max <= 60 and n_max > N:
            break
    est = base + per_entry * (n_max - N)
    return _family_request(E, F, f_lo, f_hi, g, i, n_max, FAMILY_DELTA0,
                           p, N, est, exact=True)


def make_incommensurable_family(shape, rng, n_max=None) -> Request:
    """alpha = 1/q with m not a power of q, so log alpha / log beta is
    irrational and the mpmath path runs.  g sends 0, the fixed point of
    F's first map, to a cylinder end of E, and delta0 is E's hull diameter,
    so every cover is one hull and each induced map still meets E's hull."""
    E = _target(shape)
    q = shape.choice([q for q in (2, 3, 5)
                      if round(math.log(E.m, q)) != math.log(E.m, q)])
    alpha = Fraction(1, q)
    F = IFS((Similarity(alpha, 0), Similarity(alpha, 1 - alpha)), f"C1/{q}")
    v = tuple(rng.randint(1, len(E.digits))
              for _ in range(shape.randint(0, 2)))
    g = Similarity(E.beta ** shape.randint(1, 2),
                   _apply(E.word_map(v), E.lo))
    n_max = n_max or shape.randint(10, 60)
    p, N = _family_constants(E, g.ratio, Fraction(1), alpha)
    return _family_request(E, F, Fraction(0), Fraction(1), g, 1, n_max,
                           E.diam, p, N, 2 * (n_max - N + 1), exact=False)


def _family_request(E, F, f_lo, f_hi, g, i, n_max, delta0, p, N, est,
                    exact: bool) -> Request:
    alpha, beta, gamma = F.maps[i - 1].ratio, E.beta, g.ratio
    kind = "renormalize_family" if exact else "renormalize_family_incomm"

    def call():
        return ifslab.renormalize_family(g, F, E.ifs, i, n_max, delta0)

    def check(fam):
        require((fam.kappa, fam.p, fam.N) == (E.gap, p, N),
                f"kappa/p/N = {fam.kappa}/{fam.p}/{fam.N}, "
                f"expected {E.gap}/{p}/{N}")
        require((fam.alpha, fam.beta) == (alpha, beta), "alpha/beta echoed")
        require(len(fam.entries) == n_max - N,
                f"{len(fam.entries)} entries, expected {n_max - N}")
        require((fam.log_ratio is not None) == exact, "log-ratio exactness")
        lo, hi = beta ** (p + 1) * gamma, beta ** p * gamma
        for k, e in enumerate(fam.entries):
            n = N + 1 + k
            require(e.n == n and e.verified, f"entry {n} not verified")
            require(beta ** (e.l_n + 1) < alpha ** n <= beta ** e.l_n,
                    f"l_{n} = {e.l_n} is not the floor of n log a/log b")
            eta = e.eta_exact if exact else Fraction(e.eta)
            require((e.eta_exact is not None) == exact, "eta exactness")
            require(lo <= eta <= hi, f"eta_{n} = {eta} outside [{lo}, {hi}]")
            require(len(e.word) == e.l_n - p and
                    all(1 <= j <= len(E.digits) for j in e.word),
                    f"word of entry {n}")

    def canon(fam):
        head = (f"{fam.kappa}|{fam.c}|{fam.p}|{fam.N}|{fam.alpha}|"
                f"{fam.beta}|{frac_str(fam.log_ratio)}")
        rows = ";".join(
            f"{e.n},{e.l_n},{e.frac!r},{frac_str(e.frac_exact)},{e.eta!r},"
            f"{frac_str(e.eta_exact)},{e.t},{''.join(map(str, e.word))},"
            f"{int(e.verified)}" for e in fam.entries)
        return head + "|" + rows

    inputs = (f"{kind}|{maps_str(E.ifs)}|{maps_str(F)}|{g.ratio},"
              f"{g.translation}|{i}|{n_max}|{delta0}")
    return Request(kind, inputs, call, check, canon, est)


# ---- ssc_gap and log_commensurable ------------------------------------------

def make_ssc(shape) -> Request:
    E = _target(shape)

    def check(cert):
        require(cert.kind == "SSC", f"expected SSC, got {cert.kind}")
        require(cert.gap == E.gap, f"gap {cert.gap}, expected {E.gap}")

    return Request("ssc_gap", f"ssc|{maps_str(E.ifs)}",
                   lambda: ifslab.ssc_gap(E.ifs), check,
                   lambda c: f"{c.kind}|{c.gap}|{c.witness}")


_PRIMES = (2, 3, 5, 7, 11)


def make_commensurable(rng) -> Request:
    """A rational case alpha = r^a, beta = r^b (log-ratio a/b), or an
    incommensurable one by disjoint primes or by mismatched exponents."""
    case = rng.randrange(3)
    if case == 0:
        v = rng.randint(2, 12)
        r = Fraction(rng.randint(1, v - 1), v)
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        alpha, beta, expect = r ** a, r ** b, Fraction(a, b)
    elif case == 1:
        p1, p2 = rng.sample(_PRIMES, 2)
        alpha = Fraction(1, p1 ** rng.randint(1, 5))
        beta = Fraction(1, p2 ** rng.randint(1, 5))
        expect = None
    else:
        p1, p2 = rng.sample(_PRIMES, 2)
        a1, a2, b1 = (rng.randint(1, 4) for _ in range(3))
        b2 = a2 * b1 // a1 + 1 if (a2 * b1) % a1 == 0 else rng.randint(1, 4)
        alpha = Fraction(1, p1 ** a1 * p2 ** a2)
        beta = Fraction(1, p1 ** b1 * p2 ** b2)
        expect = None

    def check(res):
        if expect is None:
            require(res.verdict == "incommensurable" and res.p is None,
                    f"expected incommensurable, got {res.verdict}")
            return
        require(res.verdict == "rational", f"expected rational, got "
                f"{res.verdict}")
        require(res.q > 0 and math.gcd(res.p, res.q) == 1, "p/q reduced")
        require(Fraction(res.p, res.q) == expect, f"{res.p}/{res.q} != "
                f"{expect}")
        require(alpha ** res.q == beta ** res.p, "alpha^q == beta^p")

    return Request("log_commensurable", f"lc|{alpha}|{beta}",
                   lambda: ifslab.log_commensurable(alpha, beta), check,
                   lambda r: f"{r.verdict}|{r.p}|{r.q}|{r.certificate}")


# ---- blocks -----------------------------------------------------------------

def block(rng, state, index: int) -> list[Request]:
    """Block `index`: its shape (every input that sets the cost) is the
    same for every seed; the seed picks the rest."""
    shape = random.Random(f"certify-shape:{index}")
    reqs = [make_verify(shape, rng, band, consistent)
            for band in VERIFY_BANDS for consistent in (True, False)]
    reqs += [make_family(shape, rng, band) for band in FAMILY_BANDS]
    reqs += [make_incommensurable_family(shape, rng), make_ssc(shape),
             make_commensurable(rng)]
    for r in reqs:
        require(r.est_cylinders <= MAX_CYLINDERS,
                f"cost guard: {r.kind} would expand {r.est_cylinders} "
                "cylinders")
    rng.shuffle(reqs)
    return reqs


def setup(rng):
    return None


def warmup(rng, state) -> list[Request]:
    return [make_verify(rng, rng, VERIFY_BANDS[0], True),
            make_verify(rng, rng, VERIFY_BANDS[0], False),
            make_incommensurable_family(rng, rng, n_max=10), make_ssc(rng),
            make_commensurable(rng)]
