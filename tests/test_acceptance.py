"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantity (run with `pytest -s tests/test_acceptance.py`)."""
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from ifslab import (DyadicMeasure, IDENTITY, ParamMeasure, Similarity,
                    act_convolve, conjecture_exponents, entropy_dimension,
                    fractional_orbit, is_pisot, log_commensurable,
                    pushforward, renormalize_family, self_similar_measure,
                    shannon_entropy, similarity_dimension, verify_embedding)
from ifslab.presets import C13, C14, C19
from ifslab.similarity import IFS

LOG2_3 = 0.63092975357145743


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_similarity_dimension():
    t0 = time.perf_counter()
    s13 = similarity_dimension(C13)
    t13 = time.perf_counter() - t0
    t0 = time.perf_counter()
    s14 = similarity_dimension(C14)
    t14 = time.perf_counter() - t0
    assert abs(s13 - LOG2_3) <= 1e-12
    assert abs(s14 - 0.5) <= 1e-12
    assert t13 < 0.1 and t14 < 0.1
    report(1, f"dim C13 = {s13:.15f}, dim C14 = {s14:.15f} "
              f"({max(t13, t14) * 1e3:.2f} ms)")


def test_criterion_02_entropy_dimension_slope():
    t0 = time.perf_counter()
    mu = self_similar_measure(C13, "maximal", 22)
    curve = entropy_dimension(mu, 8, 20)
    dt = time.perf_counter() - t0
    assert abs(curve.slope - LOG2_3) <= 0.02
    assert dt < 10.0
    report(2, f"slope = {curve.slope:.6f} vs {LOG2_3:.6f} ({dt:.2f} s)")


def test_criterion_03_lebesgue_calibration():
    theta = DyadicMeasure.uniform(14)
    for n in range(1, 15):
        assert shannon_entropy(theta, n) == float(n)
    curve = entropy_dimension(theta, 4, 12)
    assert curve.slope == 1.0
    report(3, "H(D_n) = n exactly for n <= 14, slope exactly 1.0")


def test_criterion_04_embedding_verification():
    t0 = time.perf_counter()
    good = verify_embedding(IDENTITY, C19, C13, Fraction(1, 2 ** 16))
    t_good = time.perf_counter() - t0
    t0 = time.perf_counter()
    bad = verify_embedding(IDENTITY, C14, C13, Fraction(1, 2 ** 10))
    t_bad = time.perf_counter() - t0
    assert good.status == "consistent" and good.witness_word is None
    assert bad.status == "rejected" and bad.witness_interval is not None
    assert t_good < 5.0 and t_bad < 5.0
    report(4, f"C19->C13 consistent at 2^-16; C14->C13 rejected at 2^-10 "
              f"with witness {bad.witness_word}")


def test_criterion_05_renormalization_family():
    fam = renormalize_family(IDENTITY, C19, C13, 1, 200)
    beta = Fraction(1, 3)
    assert len(fam.entries) == 200 - fam.N
    assert all(e.verified for e in fam.entries)
    assert all(beta ** (fam.p + 1) <= e.eta_exact <= beta ** fam.p
               for e in fam.entries)
    fracs = {e.frac_exact for e in fam.entries}
    assert fracs == {Fraction(0)}
    report(5, f"{len(fam.entries)} entries all re-verified, "
              f"eta in [3^-{fam.p + 1}, 3^-{fam.p}], 1 distinct frac")


def test_criterion_06_three_distance():
    rep = fractional_orbit(math.log(0.5) / math.log(1.0 / 3.0), 1000)
    assert rep.distinct_gap_lengths <= 3
    assert rep.max_gap <= 0.005
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = int(rng.integers(2, 60))
        p = int(rng.integers(1, q))
        r = fractional_orbit(Fraction(p, q), 500)
        assert len(r.points) <= q
    report(6, f"irrational: max gap {rep.max_gap:.5f}, "
              f"{rep.distinct_gap_lengths} gap lengths; rationals periodic")


def test_criterion_07_convolution_entropy_growth():
    t0 = time.perf_counter()
    mu = self_similar_measure(C13, "maximal", 16)
    nu = ParamMeasure.uniform((1.0 / 3.0, 1.0), (0.0, 0.0), (200, 1))
    conv = act_convolve(nu, mu, 14)
    h_mu = shannon_entropy(mu, 14) / 14
    h_conv = shannon_entropy(conv, 14) / 14
    dt = time.perf_counter() - t0
    assert h_conv >= h_mu + 0.05
    assert dt < 30.0
    report(7, f"H(nu.mu,D_14)/14 = {h_conv:.4f} >= {h_mu:.4f} + 0.05 "
              f"(gap {h_conv - h_mu:.4f}, {dt:.2f} s)")


def test_criterion_08_property_suites():
    rng = np.random.default_rng(8)
    for _ in range(100):
        level = int(rng.integers(5, 11))
        width = int(rng.integers(3, 2 ** min(level, 7)))
        m = rng.random(width)
        m[rng.random(width) < 0.3] = 0.0
        if m.sum() == 0:
            m[0] = 1.0
        theta = DyadicMeasure(level, int(rng.integers(-40, 40)), m / m.sum())
        assert abs(theta.total - 1.0) <= 1e-9
        hs = [shannon_entropy(theta, n) for n in range(1, level + 1)]
        assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))
        t = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 500)))
        shifted = pushforward(Similarity(1, t), theta, level)
        assert abs(shifted.total - 1.0) <= 1e-9
        n = int(rng.integers(1, level + 1))
        assert abs(shannon_entropy(shifted, n) -
                   shannon_entropy(theta, n)) <= 2.0 + 1e-9
    report(8, "100 randomized measures: monotone refinement, <= 2 bit "
              "shift robustness, mass conserved")


def test_criterion_09_commensurability():
    t0 = time.perf_counter()
    a = log_commensurable(Fraction(1, 9), Fraction(1, 3))
    b = log_commensurable(Fraction(1, 2), Fraction(1, 3))
    c = log_commensurable(Fraction(8, 27), Fraction(2, 3))
    F = IFS((Similarity(Fraction(1, 6), 0),
             Similarity(Fraction(1, 6), Fraction(5, 6))))
    E = IFS((Similarity(Fraction(1, 2), 0),
             Similarity(Fraction(1, 3), Fraction(2, 3))))
    m = conjecture_exponents(F, E)
    dt = time.perf_counter() - t0
    assert (a.verdict, a.p, a.q) == ("rational", 2, 1)
    assert b.verdict == "incommensurable"
    assert (c.verdict, c.p, c.q) == ("rational", 3, 1)
    assert m.rows[0] == (Fraction(1), Fraction(1))
    assert dt < 0.1
    report(9, f"all exact verdicts correct ({dt * 1e3:.1f} ms)")


def test_criterion_10_pisot():
    cases = [((1, -2), True), ((1, -1, -1), True),
             ((1, -2, -1), True), ((1, 0, -3), False)]
    for coeffs, want in cases:
        v = is_pisot(coeffs)
        assert v.is_pisot == want
        assert v.max_residual <= 1e-10
    report(10, "x-2, x^2-x-1, x^2-2x-1 Pisot; x^2-3 not; residuals <= 1e-10")


def test_criterion_11_determinism():
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-m", "ifslab", "paper-suite"],
                              capture_output=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b"FAIL" not in outputs[0]
    report(11, "paper-suite output byte-identical across two runs")
