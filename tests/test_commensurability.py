import math
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifslab import (IFS, InvalidParameterError, Similarity,
                    conjecture_exponents, continued_fraction, is_pisot,
                    log_commensurable)
from ifslab.commensurability import _log_ratio


M61, M89 = 2 ** 61 - 1, 2 ** 89 - 1    # Mersenne primes, no factor below 2^16


def ifs_with_ratios(*ratios):
    return IFS(tuple(Similarity(Fraction(r), Fraction(k))
                     for k, r in enumerate(ratios)))


unit_fractions = st.fractions(min_value=Fraction(1, 100),
                              max_value=Fraction(99, 100), max_denominator=100)


@st.composite
def ratio_pairs(draw):
    """Two ratios in (0, 1): powers of one base half of the time, so that
    both verdicts come up."""
    if draw(st.booleans()):
        return draw(unit_fractions), draw(unit_fractions)
    base = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                 Fraction(1, 6), Fraction(4, 9)]))
    return base ** draw(st.integers(1, 4)), base ** draw(st.integers(1, 4))


class TestLogCommensurable:
    def test_forced_identity(self):
        res = log_commensurable(Fraction(1, 9), Fraction(1, 3))
        assert (res.verdict, res.p, res.q) == ("rational", 2, 1)

    def test_prime_obstruction(self):
        res = log_commensurable(Fraction(1, 2), Fraction(1, 3))
        assert res.verdict == "incommensurable"

    def test_composite_ratio(self):
        res = log_commensurable(Fraction(8, 27), Fraction(2, 3))
        assert (res.verdict, res.p, res.q) == ("rational", 3, 1)

    def test_fractional_exponent(self):
        # log(1/4)/log(1/8) = 2/3
        res = log_commensurable(Fraction(1, 4), Fraction(1, 8))
        assert (res.verdict, res.p, res.q) == ("rational", 2, 3)

    def test_mixed_sign_exponents(self):
        # 2/3 and 4/9 = (2/3)^2
        res = log_commensurable(Fraction(4, 9), Fraction(2, 3))
        assert (res.verdict, res.p, res.q) == ("rational", 2, 1)

    def test_same_support_mismatch(self):
        res = log_commensurable(Fraction(2, 9), Fraction(2, 3))
        assert res.verdict == "incommensurable"

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            log_commensurable(Fraction(3, 2), Fraction(1, 2))

    @pytest.mark.parametrize("alpha,beta", [(1, Fraction(1, 3)),
                                            (0, Fraction(1, 3)),
                                            (Fraction(1, 3), 1)])
    def test_range_ends_rejected(self, alpha, beta):
        # log(1) / log(3) = 0 is rational, but 1 is no contraction ratio
        with pytest.raises(InvalidParameterError, match="outside"):
            log_commensurable(alpha, beta)

    def test_large_power_is_rational(self):
        # 3^-81 has 129 bits; its verdict is exact all the same
        res = log_commensurable(Fraction(1, 3 ** 81), Fraction(1, 3))
        assert (res.verdict, res.p, res.q) == ("rational", 81, 1)

    @pytest.mark.parametrize("alpha,beta,certificate", [
        pytest.param(Fraction(1, M61 * M89), Fraction(1, (M61 * M89) ** 3),
                     None, id="rational"),
        pytest.param(Fraction(1, M61), Fraction(1, M89),
                     f"prime p|{M61} divides exactly one of the ratios",
                     id="one-sided-huge"),
        pytest.param(Fraction(1, 2 * M89), Fraction(1, M61),
                     "prime 2 divides exactly one of the ratios",
                     id="one-sided-mixed"),
        pytest.param(Fraction(1, M61 ** 2 * M89), Fraction(1, M61 * M89),
                     f"exponent mismatch between primes p|{M61} and p|{M89}",
                     id="mismatch-huge"),
        pytest.param(Fraction(1, 2 * M61 ** 2 * M89),
                     Fraction(1, 2 * M61 * M89),
                     f"exponent mismatch between primes 2 and p|{M61}",
                     id="mismatch-mixed"),
    ])
    def test_large_inputs(self, alpha, beta, certificate):
        # a base element with no prime below 2^16 is named "p|b"
        res = log_commensurable(alpha, beta)
        if certificate is None:
            assert (res.verdict, res.p, res.q) == ("rational", 1, 3)
        else:
            assert (res.verdict, res.certificate) == ("incommensurable",
                                                      certificate)

    def test_import_loads_no_sympy(self):
        # with mpmath blocked, the irrational log-ratio paths must still run
        code = (
            "import math, sys; sys.modules['mpmath'] = None\n"
            "from fractions import Fraction\n"
            "import ifslab\n"
            "from ifslab.cli import main\n"
            "from ifslab.presets import C13, C14\n"
            "assert main(['orbit', '--x', 'log(1/2)/log(1/3)',"
            " '--N', '50']) == 0\n"
            "fam = ifslab.renormalize_family(ifslab.IDENTITY, C14, C13, 1, 6,"
            " Fraction(1, 16))\n"
            "assert fam.log_ratio is None and fam.entries\n"
            "assert len(ifslab.continued_fraction(math.pi, 8)) == 9\n"
            "print([m for m in sys.modules if m.startswith('sympy')])")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]"

    def test_round_trip_against_high_precision(self):
        cases = [(Fraction(1, 9), Fraction(1, 3)),
                 (Fraction(8, 27), Fraction(2, 3)),
                 (Fraction(1, 4), Fraction(1, 8)),
                 (Fraction(4, 25), Fraction(2, 5))]
        for a, b in cases:
            res = log_commensurable(a, b)
            assert res.verdict == "rational"
            with mp.workdps(40):
                x = mp.log(mp.mpf(a.numerator) / a.denominator) / \
                    mp.log(mp.mpf(b.numerator) / b.denominator)
                assert abs(x - mp.mpf(res.p) / res.q) < mp.mpf(2) ** -60

    @settings(max_examples=40, deadline=None)
    @given(pair=ratio_pairs(), digits=st.sampled_from([40, 60]))
    def test_decimal_log_ratio_matches_high_precision(self, pair, digits):
        a, b = pair
        with mp.workdps(digits + 20):
            want = mp.log(mp.mpf(a.numerator) / a.denominator) / \
                mp.log(mp.mpf(b.numerator) / b.denominator)
            got = mp.mpf(str(_log_ratio(a, b, digits)))
            assert abs(got - want) <= abs(want) * mp.mpf(10) ** (3 - digits)

    @settings(max_examples=80, deadline=None)
    @given(pair=ratio_pairs())
    def test_swapped_ratios_give_reciprocal_verdict(self, pair):
        alpha, beta = pair
        ab = log_commensurable(alpha, beta)
        ba = log_commensurable(beta, alpha)
        assert ab.verdict == ba.verdict
        if ab.verdict == "rational":
            assert (ba.p, ba.q) == (ab.q, ab.p)

    def test_incommensurable_has_no_convergent_certificate(self):
        a, b = Fraction(1, 2), Fraction(1, 3)
        assert log_commensurable(a, b).verdict == "incommensurable"
        x = math.log(a) / math.log(b)
        for conv in continued_fraction(x, 20):
            p, q = conv.numerator, conv.denominator
            # keep the exact big-integer powers tractable
            if 1 <= p <= 10 ** 6 and 1 <= q <= 10 ** 6:
                assert a ** q != b ** p


class TestConjectureExponents:
    def test_duplicate_betas(self):
        m = conjecture_exponents(ifs_with_ratios(Fraction(1, 9), Fraction(1, 9)),
                                 ifs_with_ratios(Fraction(1, 3), Fraction(1, 3)))
        assert m.rows[0] == (Fraction(2), Fraction(0))

    def test_product_row(self):
        m = conjecture_exponents(
            ifs_with_ratios(Fraction(1, 6), Fraction(1, 6)),
            ifs_with_ratios(Fraction(1, 2), Fraction(1, 3)))
        assert m.rows[0] == (Fraction(1), Fraction(1))
        assert not m.has_negative[0]

    def test_outside_span(self):
        m = conjecture_exponents(
            ifs_with_ratios(Fraction(1, 5), Fraction(1, 5)),
            ifs_with_ratios(Fraction(1, 2), Fraction(1, 3)))
        assert m.rows[0] is None

    def test_rows_remultiply_exactly(self):
        F = ifs_with_ratios(Fraction(1, 4), Fraction(1, 36))
        E = ifs_with_ratios(Fraction(1, 2), Fraction(1, 3))
        m = conjecture_exponents(F, E)
        for alpha, row in zip(F.ratios, m.rows):
            assert row is not None
            L = math.lcm(*(t.denominator for t in row))
            prod = Fraction(1)
            for b, t in zip(E.ratios, row):
                prod *= b ** int(t * L)
            assert prod == alpha ** L

    def test_homogeneous_consistency(self):
        F = ifs_with_ratios(Fraction(1, 9), Fraction(1, 2))
        E = ifs_with_ratios(Fraction(1, 3), Fraction(1, 3))
        m = conjecture_exponents(F, E)
        for alpha, row in zip(F.ratios, m.rows):
            commensurable = log_commensurable(alpha, Fraction(1, 3)).verdict \
                == "rational"
            assert (row is not None) == commensurable


class TestContinuedFraction:
    def test_half(self):
        assert continued_fraction(0.5, 5) == [Fraction(0), Fraction(1, 2)]

    def test_integer(self):
        assert continued_fraction(2.0, 3) == [Fraction(2)]

    def test_float_equal_to_small_rational_is_that_rational(self):
        assert continued_fraction(0.1, 3) == [Fraction(0), Fraction(1, 10)]

    def test_log23_convergents(self):
        # frozen from a 60-digit oracle; note 5/8 (not the mediant 7/11)
        convs = continued_fraction(math.log(2) / math.log(3), 5)
        assert convs == [Fraction(0), Fraction(1), Fraction(1, 2),
                         Fraction(2, 3), Fraction(5, 8), Fraction(12, 19)]

    def test_approximation_quality(self):
        x = math.pi
        for conv in continued_fraction(x, 8):
            q = conv.denominator
            assert abs(x - float(conv)) < 1.0 / q ** 2

    @settings(max_examples=100, deadline=None)
    @given(x=st.fractions(min_value=-50, max_value=50,
                          max_denominator=10 ** 6),
           depth=st.integers(1, 30))
    def test_rational_convergents_approximate(self, x, depth):
        for conv in continued_fraction(x, depth):
            assert abs(x - conv) < Fraction(1, conv.denominator ** 2)

    def test_float_expands_exactly(self):
        x = 0.33333333333333337     # one ulp above the float nearest 1/3
        convs = continued_fraction(x, 5)
        assert convs == [Fraction(0), Fraction(1, 2), Fraction(1, 3),
                         Fraction(x)]

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False),
           depth=st.integers(1, 40))
    def test_float_convergents_approximate(self, x, depth):
        # the rational expanded: x itself, or its limit_denominator(10**6)
        # when that rounds back to x
        r = Fraction(x).limit_denominator(10 ** 6)
        exact = r if float(r) == x else Fraction(x)
        for conv in continued_fraction(x, depth):
            assert abs(exact - conv) < Fraction(1, conv.denominator ** 2)

    def test_invalid_depth(self):
        with pytest.raises(InvalidParameterError):
            continued_fraction(0.5, 0)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_rejected(self, x):
        with pytest.raises(InvalidParameterError, match="finite"):
            continued_fraction(x, 3)


class TestIsPisot:
    def test_integer_root(self):
        v = is_pisot((1, -2))
        assert v.is_pisot and v.dominant_root == pytest.approx(2.0)
        assert v.conjugate_moduli == ()

    def test_golden_ratio(self):
        v = is_pisot((1, -1, -1))
        assert v.is_pisot
        assert v.dominant_root == pytest.approx((1 + math.sqrt(5)) / 2)
        assert v.conjugate_moduli[0] == pytest.approx((math.sqrt(5) - 1) / 2)

    def test_silver_ratio(self):
        assert is_pisot((1, -2, -1)).is_pisot  # roots 1 +- sqrt(2)

    def test_sqrt3_not_pisot(self):
        v = is_pisot((1, 0, -3))
        assert not v.is_pisot
        assert v.dominant_root == pytest.approx(math.sqrt(3))

    def test_salem_suspect_flag(self):
        # x^2 - 1: root 1 is not > 1... use (x-2)(x^2-1) style boundary case
        v = is_pisot((1, -2, -1, 2))  # roots 2, 1, -1
        assert not v.is_pisot
        assert v.salem_suspect

    def test_no_root_above_one(self):
        v = is_pisot((1, 0, 1))  # roots +-i
        assert not v.is_pisot and v.dominant_root is None

    def test_residuals(self):
        for coeffs in ((1, -2), (1, -1, -1), (1, -2, -1), (1, 0, -3),
                       (1, -4, 2, 1)):
            assert is_pisot(coeffs).max_residual <= 1e-10

    def test_non_monic(self):
        with pytest.raises(InvalidParameterError):
            is_pisot((2, -1))
