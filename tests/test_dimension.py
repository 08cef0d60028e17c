import math
import random
from fractions import Fraction

import pytest

from ifslab import (IFS, InvalidParameterError, Similarity, check_osc_hull,
                    similarity_dimension, ssc_gap)
from ifslab.presets import C13, C14, HALVES, cantor


def sim(r, t):
    return Similarity(Fraction(r), Fraction(t))


class TestSimilarityDimension:
    def test_c13_closed_form(self):
        assert abs(similarity_dimension(C13) - math.log(2) / math.log(3)) < 1e-12

    def test_homogeneous_closed_form(self):
        assert abs(similarity_dimension(C14) - 0.5) < 1e-12
        ifs = IFS(tuple(sim(Fraction(1, 5), Fraction(k, 5)) for k in range(3)))
        assert abs(similarity_dimension(ifs) - math.log(3) / math.log(5)) < 1e-12

    def test_full_interval(self):
        assert abs(similarity_dimension(HALVES) - 1.0) < 1e-12

    def test_moran_residual_random(self):
        rng = random.Random(7)
        for _ in range(100):
            l = rng.randint(2, 5)
            ratios = [Fraction(rng.randint(1, 9), rng.randint(10, 30))
                      for _ in range(l)]
            ifs = IFS(tuple(sim(r, Fraction(k, 1)) for k, r in enumerate(ratios)))
            s = similarity_dimension(ifs)
            assert abs(sum(float(r) ** s for r in ratios) - 1.0) <= 1e-12

    def test_monotone_in_extra_map(self):
        base = C13
        bigger = IFS(base.maps + (sim(Fraction(1, 3), Fraction(1, 3)),))
        assert similarity_dimension(bigger) > similarity_dimension(base)


class TestSscGap:
    def test_c13_depth0(self):
        cert = ssc_gap(C13, 0)
        assert cert.kind == "SSC" and cert.gap == Fraction(1, 3)

    def test_c14_depth0(self):
        cert = ssc_gap(C14, 0)
        assert cert.kind == "SSC" and cert.gap == Fraction(1, 2)

    def test_touching_halves_inconclusive(self):
        for depth in (0, 3, None):
            assert ssc_gap(HALVES, depth).kind == "none"

    def test_monotone_in_depth(self):
        prev = Fraction(0)
        for depth in range(0, 6):
            cert = ssc_gap(cantor(Fraction(2, 5)), depth)
            assert cert.gap >= prev
            prev = cert.gap
        # the certified bound never exceeds the true hull distance 1/5
        assert prev <= Fraction(1, 5)

    def test_deepening_reaches_the_cap(self):
        # 4^8 intervals per map is exactly the cap, so depth 8 is the last
        f4 = IFS(tuple(sim(Fraction(1, 3), t) for t in
                       (0, Fraction(2, 9), Fraction(4, 9), Fraction(2, 3))))
        assert ssc_gap(f4).witness == "covers overlap at depth 8"

    def test_explicit_depth_over_cap_rejected(self):
        # 2^16 intervals per map is exactly the cap
        assert ssc_gap(C13, 16).witness == "cylinder covers at depth 16"
        for ifs, depth in ((C13, 17), (C13, 10 ** 9),
                           (IFS(C13.maps * 2), 9)):
            with pytest.raises(InvalidParameterError, match="cap"):
                ssc_gap(ifs, depth)

    def test_ssc_implies_osc_hull(self):
        for ifs in (C13, C14, cantor(Fraction(3, 10))):
            if ssc_gap(ifs).kind == "SSC":
                assert check_osc_hull(ifs).kind == "OSC-hull"


class TestOscHull:
    def test_touching_halves(self):
        assert check_osc_hull(HALVES).kind == "OSC-hull"

    def test_c13(self):
        assert check_osc_hull(C13).kind == "OSC-hull"

    def test_overlapping(self):
        ifs = IFS((sim(Fraction(2, 3), 0), sim(Fraction(2, 3), Fraction(1, 3))))
        assert check_osc_hull(ifs).kind == "none"
