import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ifslab import (DyadicMeasure, IDENTITY, InvalidParameterError,
                    ParamMeasure, Similarity, act_convolve, cylinder_cover,
                    cylinder_map, entropy_dimension, pushforward,
                    self_similar_measure, shannon_entropy)
from ifslab.measures import _MAX_CELLS
from ifslab.presets import C13, HALVES

LOG2_3 = math.log(2) / math.log(3)


def brute_force_c13_measure(level, depth):
    """Independent discretization oracle: equal mass on every depth-k
    cylinder midpoint of C13, binned exactly."""
    cells = {}
    mass = 1.0 / 2 ** depth
    for code in range(2 ** depth):
        word = tuple(1 + ((code >> b) & 1) for b in range(depth))
        g = cylinder_map(C13, word)
        mid = g(Fraction(1, 2))
        k = math.floor(mid * 2 ** level)
        cells[k] = cells.get(k, 0.0) + mass
    return DyadicMeasure.from_cell_masses(level, cells)


class TestSelfSimilarMeasure:
    def test_c13_level1(self):
        mu = self_similar_measure(C13, "maximal", 1)
        assert mu.level == 1 and mu.origin == 0
        assert np.allclose(mu.masses, [0.5, 0.5])

    def test_halves_is_lebesgue_exactly(self):
        for n in (1, 4, 8):
            mu = self_similar_measure(HALVES, "maximal", n)
            ref = DyadicMeasure.uniform(n)
            assert mu.origin == ref.origin
            assert np.array_equal(mu.masses, ref.masses)

    def test_degenerate_weight(self):
        mu = self_similar_measure(C13, [1.0, 0.0], 6)
        assert mu.masses.size == 1 and mu.origin == 0

    def test_weight_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            self_similar_measure(C13, [0.5, 0.25, 0.25], 4)

    def test_nan_weight_rejected(self):
        with pytest.raises(InvalidParameterError, match="probability"):
            self_similar_measure(C13, [float("nan"), 1.0], 4)

    def test_matches_brute_force_oracle(self):
        # at level 16 the builder stops every branch at depth 11
        # (3^-11 <= 2^-16 < 3^-10), so the oracle at the same depth bins
        # the exact same cylinder midpoints and the measures must agree
        oracle = brute_force_c13_measure(16, 11)
        built = self_similar_measure(C13, "maximal", 16)
        assert oracle.origin == built.origin
        assert np.allclose(oracle.masses, built.masses, atol=1e-12)
        for n in (4, 7, 10):
            assert abs(shannon_entropy(oracle, n) -
                       shannon_entropy(built, n)) < 1e-9


class TestCellBudget:
    def test_deep_measure_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="cells"):
            self_similar_measure(C13, "maximal", 30)
        assert time.perf_counter() - start < 1.0

    def test_budget_counts_the_support_of_positive_weights(self):
        with pytest.raises(InvalidParameterError, match="cells"):
            self_similar_measure(HALVES, [0.5, 0.5], 26)
        # a zero weight shrinks the support to a point
        theta = self_similar_measure(HALVES, [0.0, 1.0], 60)
        assert (theta.origin, theta.masses.tolist()) == (2 ** 60 - 1, [1.0])

    def test_convolution_pairs_fail_fast(self):
        mu = DyadicMeasure.uniform(14)
        nu = ParamMeasure.uniform((0.5, 1.0), (0.0, 0.0), (2 ** 12 + 1, 1))
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="pairs"):
            act_convolve(nu, mu, 10)
        assert time.perf_counter() - start < 1.0

    def test_output_span_fails_fast(self):
        # two cells with midpoints 1/4 and 3/4 land 2^(L-1) + 1 cells apart
        theta = DyadicMeasure(1, 0, np.array([0.5, 0.5]))
        out_level = _MAX_CELLS.bit_length()
        nu = ParamMeasure.point_mass(1.0, 0.0)
        for image in (lambda: pushforward(IDENTITY, theta, out_level),
                      lambda: act_convolve(nu, theta, out_level)):
            start = time.perf_counter()
            with pytest.raises(InvalidParameterError, match="cells"):
                image()
            assert time.perf_counter() - start < 1.0


class TestShannonEntropy:
    def test_uniform(self):
        theta = DyadicMeasure.uniform(10)
        assert shannon_entropy(theta, 10) == 10.0
        assert shannon_entropy(theta, 3) == 3.0

    def test_point_mass(self):
        theta = DyadicMeasure.point_mass(12, Fraction(3, 7))
        for n in (1, 6, 12):
            assert shannon_entropy(theta, n) == 0.0

    def test_c13_level1(self):
        mu = self_similar_measure(C13, "maximal", 1)
        assert shannon_entropy(mu, 1) == 1.0

    def test_refinement_rejected(self):
        with pytest.raises(InvalidParameterError):
            shannon_entropy(DyadicMeasure.uniform(4), 5)

    def test_negative_partition_level_rejected(self):
        with pytest.raises(InvalidParameterError, match="partition level"):
            shannon_entropy(DyadicMeasure.uniform(4), -1)

    def test_nan_masses_rejected(self):
        with pytest.raises(InvalidParameterError, match="total mass"):
            DyadicMeasure(4, 0, np.array([float("nan"), 1.0]))

    def test_param_measure_entropy(self):
        nu = ParamMeasure.uniform((0.5, 1.0), (0.0, 1.0), (4, 4))
        assert shannon_entropy(nu) == pytest.approx(4.0)
        with pytest.raises(InvalidParameterError):
            shannon_entropy(nu, 3)


class TestEntropyDimension:
    def test_lebesgue_slope_exact(self):
        curve = entropy_dimension(DyadicMeasure.uniform(12), 4, 12)
        assert curve.slope == 1.0

    def test_point_mass_slope(self):
        curve = entropy_dimension(DyadicMeasure.point_mass(12, 0), 2, 10)
        assert curve.slope == 0.0

    def test_c13_slope(self):
        mu = self_similar_measure(C13, "maximal", 22)
        curve = entropy_dimension(mu, 8, 20)
        assert abs(curve.slope - LOG2_3) <= 0.02

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            entropy_dimension(DyadicMeasure.uniform(10), 4, 5)

    def test_sparse_curve_allocates_no_dense_grid(self):
        # a handful of nonzero cells spread over 2^22; numpy reports its
        # buffers to tracemalloc, and one dense pass at this level allocates
        # 4 MiB (a boolean mask) to 32 MiB (cell indices)
        m = np.zeros(2 ** 22)
        m[[0, 9, 12345, 2 ** 21, 3 * 2 ** 20 + 7, 2 ** 22 - 1]] = 1 / 6
        theta = DyadicMeasure(22, 0, m)
        tracemalloc.start()
        try:
            curve = entropy_dimension(theta, 8, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert curve.points[-1][1] == pytest.approx(math.log2(6))


class TestPushforward:
    def test_identity(self):
        theta = self_similar_measure(C13, "maximal", 8)
        out = pushforward(IDENTITY, theta, 8)
        assert out.origin == theta.origin
        assert np.array_equal(out.masses, theta.masses)

    def test_integer_dyadic_shift(self):
        theta = DyadicMeasure.uniform(10)
        out = pushforward(Similarity(1, Fraction(1, 2)), theta, 10)
        assert out.origin == theta.origin + 512
        assert np.array_equal(out.masses, theta.masses)

    def test_halving(self):
        out = pushforward(Similarity(Fraction(1, 2), 0),
                          DyadicMeasure.uniform(10), 10)
        assert out.origin == 0
        assert out.masses.size == 512
        assert np.allclose(out.masses, 1.0 / 512)

    def test_cells_beyond_int64(self):
        theta = DyadicMeasure.point_mass(70, Fraction(1, 3))
        mid = Fraction(2 * theta.origin + 1, 2 ** 71)
        out = pushforward(Similarity(-1, 1), theta, 80)
        assert out.origin == math.floor((1 - mid) * 2 ** 80)
        assert out.masses.tolist() == [1.0]


class TestActConvolve:
    def test_point_mass_at_identity(self):
        mu = self_similar_measure(C13, "maximal", 10)
        nu = ParamMeasure.point_mass(1.0, 0.0)
        out = act_convolve(nu, mu, 10)
        assert np.allclose(
            np.sort(out.masses[out.masses > 0]),
            np.sort(mu.masses[mu.masses > 0]))

    def test_point_mass_equals_pushforward(self):
        g = Similarity(Fraction(1, 2), Fraction(1, 4))
        mu = self_similar_measure(C13, "maximal", 10)
        conv = act_convolve(ParamMeasure.point_mass(0.5, 0.25), mu, 10)
        push = pushforward(g, mu, 10)
        assert conv.origin == push.origin
        assert np.allclose(conv.masses, push.masses)

    def test_scale_spread_raises_entropy(self):
        mu = self_similar_measure(C13, "maximal", 16)
        nu = ParamMeasure.uniform((1.0 / 3.0, 1.0), (0.0, 0.0), (200, 1))
        conv = act_convolve(nu, mu, 14)
        assert shannon_entropy(conv, 14) / 14 > shannon_entropy(mu, 14) / 14

    def test_nan_grid_rejected(self):
        with pytest.raises(InvalidParameterError, match="probability"):
            ParamMeasure((0.5, 1.0), (0.0, 0.0),
                         np.array([[float("nan"), 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 1), (3, 0)])
    def test_empty_uniform_grid_rejected(self, shape):
        with pytest.raises(InvalidParameterError, match="no cells"):
            ParamMeasure.uniform((0.5, 1.0), (0.0, 0.0), shape)

    def test_zero_scale_center_rejected(self):
        mu = DyadicMeasure.uniform(4)
        with pytest.raises(InvalidParameterError):
            ParamMeasure.uniform((-0.5, 0.5), (0.0, 0.0), (2, 1))
        nu = ParamMeasure((0.25, 0.25), (0.0, 0.0), np.array([[1.0]]))
        assert act_convolve(nu, mu, 4).total == pytest.approx(1.0)


def random_measure(rng):
    level = int(rng.integers(5, 11))
    width = int(rng.integers(3, 2 ** min(level, 7)))
    m = rng.random(width)
    m[rng.random(width) < 0.3] = 0.0
    if m.sum() == 0:
        m[0] = 1.0
    return DyadicMeasure(level, int(rng.integers(-40, 40)), m / m.sum())


class TestPropertySuites:
    def test_refinement_monotone_and_mass(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            theta = random_measure(rng)
            assert abs(theta.total - 1.0) <= 1e-9
            hs = [shannon_entropy(theta, n) for n in range(1, theta.level + 1)]
            for a, b in zip(hs, hs[1:]):
                assert b >= a - 1e-12

    def test_translation_robustness(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            theta = random_measure(rng)
            t = Fraction(int(rng.integers(-500, 500)), int(rng.integers(1, 500)))
            shifted = pushforward(Similarity(1, t), theta, theta.level)
            assert abs(shifted.total - 1.0) <= 1e-9
            n = int(rng.integers(1, theta.level + 1))
            assert abs(shannon_entropy(shifted, n) -
                       shannon_entropy(theta, n)) <= 2.0 + 1e-9

    def test_translation_only_convolution_monotone(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            theta = random_measure(rng)
            tlo, thi = sorted(rng.uniform(-2, 2, size=2))
            nu = ParamMeasure.uniform((1.0, 1.0), (tlo, thi), (1, 8))
            conv = act_convolve(nu, theta, theta.level)
            n = int(rng.integers(1, theta.level + 1))
            assert shannon_entropy(conv, n) >= \
                shannon_entropy(theta, n) - 2.0 - 1e-9

    def test_dimension_chain_box_counting_bound(self):
        mu = self_similar_measure(C13, "maximal", 16)
        for n in (4, 8, 12):
            cover = cylinder_cover(C13, Fraction(1, 2 ** n))
            cells = set()
            for _, iv in cover:
                lo = math.floor(iv.lo * 2 ** n)
                hi = math.floor(iv.hi * 2 ** n)
                cells.update(range(lo, hi + 1))
            box = math.log2(len(cells)) / n
            assert shannon_entropy(mu, n) / n <= box + 0.1
