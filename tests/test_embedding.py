import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ifslab import (IDENTITY, IFS, Interval, InvalidParameterError,
                    PreconditionError, Similarity, compose, cylinder_map,
                    fractional_orbit, renormalize_family,
                    self_embedding_family, verify_embedding)
import ifslab.embedding as embedding_module
from ifslab.presets import C13, C14, C19, HALVES


def in_c13(x: Fraction, depth=40) -> bool:
    """Base-3 digit oracle for membership in the middle-thirds Cantor set."""
    if not 0 <= x <= 1:
        return False
    for _ in range(depth):
        x *= 3
        d = math.floor(x)
        if d == 1 and x != 1:
            return False
        x -= d
        if x == 0:
            return True
    return True  # undecided at this depth; treat as inside


small_ifs = st.lists(
    st.tuples(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 5),
                               Fraction(1, 4), Fraction(2, 7)]),
              st.fractions(min_value=0, max_value=1, max_denominator=12)),
    min_size=2, max_size=3).map(
    lambda ms: IFS(tuple(Similarity(r, t) for r, t in ms)))
small_maps = st.builds(
    Similarity,
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                     Fraction(-1, 3), Fraction(2, 3)]),
    st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                 max_denominator=8))


class TestVerifyEmbedding:
    def test_identity_self(self):
        for delta in (Fraction(1, 8), Fraction(1, 2 ** 12)):
            v = verify_embedding(IDENTITY, C13, C13, delta)
            assert v.status == "consistent"

    def test_c19_into_c13(self):
        v = verify_embedding(IDENTITY, C19, C13, Fraction(1, 2 ** 16))
        assert v.status == "consistent"

    def test_c14_into_c13_rejected(self):
        v = verify_embedding(IDENTITY, C14, C13, Fraction(1, 2 ** 10))
        assert v.status == "rejected"
        # certified: the witness hull endpoints are points of C14 outside C13
        assert not in_c13(v.witness_interval.lo)

    def test_rejection_survives_refinement(self):
        coarse = verify_embedding(IDENTITY, C14, C13, Fraction(1, 2 ** 10))
        fine = verify_embedding(IDENTITY, C14, C13, Fraction(1, 2 ** 14))
        assert coarse.status == fine.status == "rejected"

    @settings(max_examples=60, deadline=None)
    @given(g=small_maps, F=small_ifs, E=small_ifs, k=st.integers(1, 5))
    def test_rejection_is_monotone_in_resolution(self, g, F, E, k):
        # ratios <= 1/2 and delta >= 2^-6 keep each cover under 3^9 cylinders
        delta = Fraction(1, 2 ** k)
        if verify_embedding(g, F, E, delta).status == "rejected":
            assert verify_embedding(g, F, E, delta / 2).status == "rejected"

    def test_true_embedding_consistent_at_all_resolutions(self):
        for k in (6, 10, 14):
            v = verify_embedding(IDENTITY, C19, C13, Fraction(1, 2 ** k))
            assert v.status == "consistent"

    def test_scaled_embedding(self):
        # (1/3) * C13 + 0 is the first-level cylinder of C13
        g = Similarity(Fraction(1, 3), 0)
        assert verify_embedding(g, C13, C13, Fraction(1, 2 ** 10)).status \
            == "consistent"

    def test_invalid_resolution(self):
        with pytest.raises(InvalidParameterError):
            verify_embedding(IDENTITY, C13, C13, 0)


class TestRenormalizeFamily:
    def test_commensurable_c19_c13(self):
        fam = renormalize_family(IDENTITY, C19, C13, 1, 40)
        assert fam.p == 2 and fam.kappa == Fraction(1, 3)
        assert fam.log_ratio == Fraction(2)
        assert len(fam.entries) == 40 - fam.N
        beta = Fraction(1, 3)
        for e in fam.entries:
            assert e.verified
            assert e.frac_exact == 0
            assert beta ** (fam.p + 1) <= e.eta_exact <= beta ** fam.p
            t_lo = Fraction(0) - beta ** fam.p * 1
            t_hi = Fraction(1) - beta ** (fam.p + 1) * 0
            assert t_lo <= e.t <= t_hi

    def test_commensurable_collapse(self):
        fam = renormalize_family(IDENTITY, C19, C13, 1, 60)
        q = fam.log_ratio.denominator
        assert len({e.frac_exact for e in fam.entries}) <= q

    def test_large_exact_log_ratio(self):
        # ratios 3^-81 have 129 bits; their log-ratio 81 is still exact
        r = Fraction(1, 3 ** 81)
        F = IFS((Similarity(r, 0), Similarity(r, 1 - r)))
        fam = renormalize_family(IDENTITY, F, C13, 1, 3, Fraction(1, 16))
        assert fam.log_ratio == 81 and fam.entries
        for e in fam.entries:
            assert e.frac_exact == 0 and e.eta_exact == Fraction(1, 9)

    def test_empty_range(self):
        fam = renormalize_family(IDENTITY, C19, C13, 1, 0)
        assert fam.entries == ()

    def test_second_map_index(self):
        fam = renormalize_family(IDENTITY, C19, C13, 2, 20)
        assert all(e.verified for e in fam.entries)
        assert len(fam.entries) == 20 - fam.N

    def test_non_homogeneous_target_rejected(self):
        from ifslab import IFS
        E = IFS((Similarity(Fraction(1, 3), 0),
                 Similarity(Fraction(1, 4), Fraction(3, 4))))
        with pytest.raises(PreconditionError):
            renormalize_family(IDENTITY, C19, E, 1, 10)

    def test_missing_ssc_rejected(self):
        with pytest.raises(PreconditionError):
            renormalize_family(IDENTITY, HALVES, HALVES, 1, 10)

    def test_non_embedding_rejected_upfront(self):
        with pytest.raises(PreconditionError):
            renormalize_family(IDENTITY, C14, C13, 1, 10)

    def test_negative_ratio_rejected(self):
        with pytest.raises(PreconditionError):
            renormalize_family(Similarity(-1, 1), C19, C13, 1, 10)

    def test_broken_invariant_raises_typed_error(self, monkeypatch):
        # a descent that returns a shifted cylinder map puts t_n outside
        # [t_lo, t_hi]; the check must survive python -O
        real = embedding_module._locate_unique_cylinder

        def shifted(E, hull, target, depth):
            word, psi = real(E, hull, target, depth)
            return word, Similarity(psi.ratio, psi.translation - 5)

        monkeypatch.setattr(embedding_module, "_locate_unique_cylinder",
                            shifted)
        with pytest.raises(PreconditionError, match="induced translation"):
            renormalize_family(IDENTITY, C19, C13, 1, 10)


class TestLocateUniqueCylinder:
    @pytest.mark.parametrize("x,word", [(Fraction(1, 3), (1, 2)),
                                        (Fraction(2, 3), (2, 1))])
    def test_target_touching_hull_ends_is_a_hit(self, x, word):
        # 1/3 is the right end of the hulls of cylinders 1 and 12, and 2/3
        # the left end of those of 2 and 21
        got, psi = embedding_module._locate_unique_cylinder(
            C13, Interval(0, 1), Interval(x, x), 2)
        assert got == word
        assert psi == cylinder_map(C13, word)


class TestSelfEmbeddingFamily:
    def test_first_map_itself(self):
        fam = self_embedding_family(C13.maps[0], C13, 25)
        assert fam.log_ratio == Fraction(1)
        assert all(e.verified and e.frac_exact == 0 for e in fam.entries)

    def test_depth2_cylinder_map(self):
        g = compose(C13.maps[0], C13.maps[1])  # ratio 1/9
        fam = self_embedding_family(g, C13, 25)
        assert g.ratio == Fraction(1, 9)
        assert all(e.verified for e in fam.entries)
        etas = {e.eta_exact for e in fam.entries}
        assert etas == {g.ratio * Fraction(1, 3) ** fam.p}

    def test_negative_ratio_is_squared(self):
        # -x/3 + 1/3 maps C13 onto its reflected first cylinder, inside C13
        g = Similarity(Fraction(-1, 3), Fraction(1, 3))
        fam = self_embedding_family(g, C13, 20)
        assert fam.source.ratio == Fraction(1, 9)
        assert all(e.verified for e in fam.entries)

    def test_empty_range(self):
        fam = self_embedding_family(C13.maps[0], C13, 0)
        assert fam.entries == ()


class TestFractionalOrbit:
    def test_rational_half(self):
        rep = fractional_orbit(Fraction(1, 2), 10)
        assert list(rep.points) == [0.0, 0.5]
        assert rep.distinct_gap_lengths == 1
        assert rep.max_gap == 0.5

    def test_integer_ratio(self):
        rep = fractional_orbit(Fraction(2), 50)
        assert list(rep.points) == [0.0]
        assert rep.max_gap == 1.0

    def test_three_distance_irrational(self):
        x = math.log(0.5) / math.log(1.0 / 3.0)
        rep = fractional_orbit(x, 1000)
        assert rep.distinct_gap_lengths <= 3
        assert rep.max_gap <= 0.005

    def test_three_distance_small_n(self):
        for N in (10, 57, 200):
            rep = fractional_orbit(math.sqrt(2), N)
            assert rep.distinct_gap_lengths <= 3

    def test_rational_periodicity(self):
        for p, q in ((3, 7), (5, 12), (1, 9)):
            rep = fractional_orbit(Fraction(p, q), 300)
            assert len(rep.points) <= q

    def test_invalid_count(self):
        with pytest.raises(InvalidParameterError):
            fractional_orbit(0.5, 0)

    def test_unparsed_log_ratio_rejected(self):
        # the CLI evaluates this text; the library takes numbers
        with pytest.raises(InvalidParameterError, match="finite"):
            fractional_orbit("log(1/2)/log(1/3)", 5)
