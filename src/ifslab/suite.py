"""The bundled acceptance experiments behind `ifslab paper-suite`.

Each criterion returns (name, passed, detail); the CLI renders one line per
criterion.  Everything here is deterministic: randomized checks use a fixed
seed and no timing or environment data leaks into the output.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from . import commensurability as comm
from . import presets
from .dimension import similarity_dimension
from .embedding import fractional_orbit, renormalize_family, verify_embedding
from .measures import (DyadicMeasure, ParamMeasure, act_convolve,
                       entropy_dimension, pushforward, self_similar_measure,
                       shannon_entropy)
from .similarity import IDENTITY, IFS, Similarity

LOG2_3 = 0.63092975357145743


def _c1_similarity_dimension() -> Tuple[bool, str]:
    s13 = similarity_dimension(presets.C13)
    s14 = similarity_dimension(presets.C14)
    ok = abs(s13 - LOG2_3) <= 1e-12 and abs(s14 - 0.5) <= 1e-12
    return ok, f"dim C13 = {s13:.15f}, dim C14 = {s14:.15f}"


def _c2_entropy_slope() -> Tuple[bool, str]:
    mu = self_similar_measure(presets.C13, "maximal", 22)
    curve = entropy_dimension(mu, 8, 20)
    ok = abs(curve.slope - LOG2_3) <= 0.02
    return ok, f"slope over n in [8,20] = {curve.slope:.6f}"


def _c3_lebesgue() -> Tuple[bool, str]:
    theta = DyadicMeasure.uniform(14)
    exact = all(shannon_entropy(theta, n) == float(n) for n in range(1, 15))
    slope = entropy_dimension(theta, 4, 12).slope
    ok = exact and slope == 1.0
    return ok, f"H(D_n) = n exactly: {exact}, slope = {slope}"


def _c4_embedding() -> Tuple[bool, str]:
    good = verify_embedding(IDENTITY, presets.C19, presets.C13,
                            Fraction(1, 2 ** 16))
    bad = verify_embedding(IDENTITY, presets.C14, presets.C13,
                           Fraction(1, 2 ** 10))
    ok = good.status == "consistent" and good.witness_word is None \
        and bad.status == "rejected" and bad.witness_interval is not None
    return ok, (f"C19->C13: {good.status}; C14->C13: {bad.status} "
                f"(witness word {bad.witness_word})")


def _c5_renormalization() -> Tuple[bool, str]:
    fam = renormalize_family(IDENTITY, presets.C19, presets.C13, 1, 200)
    beta = Fraction(1, 3)
    bracket = all(e.eta_exact is not None and
                  beta ** (fam.p + 1) <= e.eta_exact <= beta ** fam.p
                  for e in fam.entries)
    fracs = {e.frac_exact for e in fam.entries}
    ok = (len(fam.entries) == 200 - fam.N and
          all(e.verified for e in fam.entries) and bracket and
          fracs == {Fraction(0)})
    return ok, (f"{len(fam.entries)} entries, p={fam.p}, N={fam.N}, "
                f"all verified, {len(fracs)} distinct fractional part(s)")


def _c6_three_distance() -> Tuple[bool, str]:
    rep = fractional_orbit(math.log(0.5) / math.log(1.0 / 3.0), 1000)
    ok = rep.distinct_gap_lengths <= 3 and rep.max_gap <= 0.005
    rng = np.random.default_rng(20260823)
    rational_ok = True
    for _ in range(5):
        q = int(rng.integers(2, 50))
        p = int(rng.integers(1, q))
        r = fractional_orbit(Fraction(p, q), 400)
        rational_ok &= len(r.points) <= q
    ok = ok and rational_ok
    return ok, (f"irrational orbit: max gap {rep.max_gap:.5f}, "
                f"{rep.distinct_gap_lengths} gap length(s); "
                f"rational orbits <= q points: {rational_ok}")


def _convolution_gap() -> Tuple[float, float]:
    mu = self_similar_measure(presets.C13, "maximal", 16)
    nu = ParamMeasure.uniform((1.0 / 3.0, 1.0), (0.0, 0.0), (200, 1))
    h_mu = shannon_entropy(mu, 14) / 14
    h_conv = shannon_entropy(act_convolve(nu, mu, 14), 14) / 14
    return h_mu, h_conv


def _c7_convolution() -> Tuple[bool, str]:
    h_mu, h_conv = _convolution_gap()
    ok = h_conv >= h_mu + 0.05
    return ok, (f"H(nu.mu,D_14)/14 = {h_conv:.4f} vs "
                f"H(mu,D_14)/14 = {h_mu:.4f} (gap {h_conv - h_mu:.4f})")


def _random_measure(rng: np.random.Generator) -> DyadicMeasure:
    level = int(rng.integers(6, 12))
    width = int(rng.integers(3, 2 ** min(level, 8)))
    origin = int(rng.integers(-50, 50))
    m = rng.random(width)
    m[rng.random(width) < 0.3] = 0.0
    if m.sum() == 0:
        m[0] = 1.0
    return DyadicMeasure(level, origin, m / m.sum())


def _c8_properties() -> Tuple[bool, str]:
    rng = np.random.default_rng(20260823)
    ok = True
    for _ in range(100):
        theta = _random_measure(rng)
        hs = [shannon_entropy(theta, n) for n in range(1, theta.level + 1)]
        ok &= all(hs[k + 1] >= hs[k] - 1e-12 for k in range(len(hs) - 1))
        t = Fraction(int(rng.integers(-999, 999)), int(rng.integers(1, 999)))
        shifted = pushforward(Similarity(1, t), theta, theta.level)
        n = int(rng.integers(1, theta.level + 1))
        ok &= abs(shannon_entropy(shifted, n) - shannon_entropy(theta, n)) \
            <= 2.0 + 1e-9
        ok &= abs(shifted.total - 1.0) <= 1e-9 and abs(theta.total - 1.0) <= 1e-9
    return ok, "100 randomized measures: monotone, shift-robust, mass-conserving"


def _c9_commensurability() -> Tuple[bool, str]:
    a = comm.log_commensurable(Fraction(1, 9), Fraction(1, 3))
    b = comm.log_commensurable(Fraction(1, 2), Fraction(1, 3))
    c = comm.log_commensurable(Fraction(8, 27), Fraction(2, 3))
    F = IFS((Similarity(Fraction(1, 6), 0),
             Similarity(Fraction(1, 6), Fraction(5, 6))))
    E = IFS((Similarity(Fraction(1, 2), 0),
             Similarity(Fraction(1, 3), Fraction(2, 3))))
    m = comm.conjecture_exponents(F, E)
    ok = ((a.verdict, a.p, a.q) == ("rational", 2, 1) and
          b.verdict == "incommensurable" and
          (c.verdict, c.p, c.q) == ("rational", 3, 1) and
          m.rows[0] == (Fraction(1), Fraction(1)))
    return ok, (f"(1/9,1/3)->{a.verdict}({a.p},{a.q}); (1/2,1/3)->{b.verdict}; "
                f"(8/27,2/3)->{c.verdict}({c.p},{c.q}); "
                f"exponents(1/6 | 1/2,1/3) = {m.rows[0]}")


def _c10_pisot() -> Tuple[bool, str]:
    cases = [((1, -2), True), ((1, -1, -1), True),
             ((1, -2, -1), True), ((1, 0, -3), False)]
    verdicts = [comm.is_pisot(c) for c, _ in cases]
    ok = all(v.is_pisot == want for v, (_, want) in zip(verdicts, cases)) \
        and all(v.max_residual <= 1e-10 for v in verdicts)
    return ok, "; ".join(f"{c}: {v.is_pisot}" for (c, _), v in
                         zip(cases, verdicts))


def _c11_determinism() -> Tuple[bool, str]:
    mu1 = self_similar_measure(presets.C13, "maximal", 16)
    mu2 = self_similar_measure(presets.C13, "maximal", 16)
    h1 = [shannon_entropy(mu1, n) for n in range(4, 15)]
    h2 = [shannon_entropy(mu2, n) for n in range(4, 15)]
    g1 = _convolution_gap()
    g2 = _convolution_gap()
    ok = h1 == h2 and g1 == g2
    return ok, "repeated entropy and convolution pipelines are bit-identical"


CRITERIA = [
    ("similarity-dimension", _c1_similarity_dimension),
    ("entropy-dimension-slope", _c2_entropy_slope),
    ("lebesgue-calibration", _c3_lebesgue),
    ("embedding-verification", _c4_embedding),
    ("renormalization-family", _c5_renormalization),
    ("three-distance-orbit", _c6_three_distance),
    ("convolution-entropy-growth", _c7_convolution),
    ("measure-property-suites", _c8_properties),
    ("log-commensurability", _c9_commensurability),
    ("pisot-detection", _c10_pisot),
    ("determinism", _c11_determinism),
]


def run_paper_suite() -> List[Tuple[str, bool, str]]:
    return [(name, *fn()) for name, fn in CRITERIA]
