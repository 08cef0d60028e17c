"""Reference oracles for the cylinder expansion and the unique-cylinder
descent, and pinned renormalization families.

The three reference loops below are the stand-alone expansions that
`cylinder_cover`, `self_similar_measure` and `dimension._level_intervals`
once carried each.  The library must reproduce them exactly: the same
(word, interval) lists, the same measure origin and bit-identical masses.
The reference descent recomposes each candidate cylinder from the root;
the library's descent must find the same word and cylinder map, or fail
at the same depth.
"""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ifslab.embedding as embedding_module
import ifslab.measures as measures_module
import ifslab.similarity as similarity_module
from ifslab import (IDENTITY, IFS, DyadicMeasure, Interval,
                    PreconditionError, Similarity, attractor_hull, compose,
                    cylinder_cover, cylinder_map, renormalize_family,
                    self_embedding_family, self_similar_measure,
                    similarity_dimension, verify_embedding)
from ifslab.dimension import _level_intervals
from ifslab.presets import C13, C14, C19, HALVES


def sim(r, t):
    return Similarity(Fraction(r), Fraction(t))


INHOM_2 = IFS((sim(Fraction(1, 2), 0), sim(Fraction(1, 3), Fraction(2, 3))),
              "inhom-1/2-1/3")
INHOM_3 = IFS((sim(Fraction(1, 5), 0), sim(Fraction(1, 4), Fraction(1, 3)),
               sim(Fraction(2, 7), Fraction(5, 7))), "inhom-1/5-1/4-2/7")
OVERLAP = IFS((sim(Fraction(2, 3), 0), sim(Fraction(2, 3), Fraction(1, 3))),
              "overlap-2/3")

#: (IFS, measure level) pairs; levels keep each expansion to a few
#: thousand cylinders
CORPUS = [(C13, 12), (C14, 12), (C19, 12), (HALVES, 10), (INHOM_2, 10),
          (INHOM_3, 10), (OVERLAP, 6)]
over_corpus = pytest.mark.parametrize("ifs,level", CORPUS,
                                      ids=lambda v: getattr(v, "label", v))


# -- reference implementations ---------------------------------------------

def ref_cylinder_cover(ifs, delta):
    """Depth-first expansion until the hull image has diameter <= delta."""
    hull = attractor_hull(ifs)
    out = []
    stack = [((), IDENTITY)]
    while stack:
        word, g = stack.pop()
        iv = g.apply(hull)
        if iv.diameter <= delta:
            out.append((word, iv))
        else:
            for i in range(len(ifs), 0, -1):
                stack.append((word + (i,), compose(g, ifs.maps[i - 1])))
    return out


def ref_self_similar_measure(ifs, p, level):
    """Depth-first expansion that drops zero-mass branches and bins each
    leaf's product mass at its hull midpoint."""
    hull = attractor_hull(ifs)
    delta = Fraction(1, 2 ** level)
    two_n = 2 ** level
    cells = {}
    stack = [(IDENTITY, 1.0)]
    while stack:
        g, mass = stack.pop()
        if mass == 0.0:
            continue
        iv = g.apply(hull)
        if iv.diameter <= delta:
            k = math.floor(iv.midpoint * two_n)
            cells[k] = cells.get(k, 0.0) + mass
        else:
            for i in range(len(ifs) - 1, -1, -1):
                stack.append((compose(g, ifs.maps[i]), mass * p[i]))
    return DyadicMeasure.from_cell_masses(level, cells)


def ref_level_intervals(ifs, depth):
    """Breadth-first: all words of exactly the given length."""
    hull = attractor_hull(ifs)
    maps = [IDENTITY]
    for _ in range(depth):
        maps = [compose(g, phi) for g in maps for phi in ifs.maps]
    return [g.apply(hull) for g in maps]


def ref_locate_unique_cylinder(E, hull, target, depth):
    """Descent that recomposes every candidate cylinder from the root."""
    word = []
    cur = IDENTITY
    for step in range(depth):
        hits = [i for i in range(1, len(E) + 1)
                if compose(cur, E.maps[i - 1]).apply(hull).intersects(target)]
        if len(hits) != 1:
            raise PreconditionError(
                f"unique-cylinder hypothesis violated at depth {step + 1}: "
                f"{len(hits)} cylinders intersect the image interval")
        word.append(hits[0])
        cur = compose(cur, E.maps[hits[0] - 1])
    return tuple(word), cur


def maximal_weights(ifs):
    s = similarity_dimension(ifs)
    p = [float(r) ** s for r in ifs.ratios]
    tot = sum(p)
    return [w / tot for w in p]


def weight_cases(ifs, seed):
    """Maximal, random and zero-containing probability vectors."""
    rng = random.Random(seed)
    raw = [rng.random() for _ in ifs.maps]
    rand = [w / sum(raw) for w in raw]
    zero = [0.0] * len(ifs)
    zero[0] = 1.0
    cases = [("maximal", maximal_weights(ifs)), (rand, rand), (zero, zero)]
    if len(ifs) > 2:
        half = [0.0] + [1.0 / (len(ifs) - 1)] * (len(ifs) - 1)
        cases.append((half, half))
    return cases


def assert_same_measure(got, want):
    assert got.level == want.level
    assert got.origin == want.origin
    assert got.masses.tobytes() == want.masses.tobytes()


# -- comparisons on the corpus ---------------------------------------------

@over_corpus
def test_cover_matches_reference(ifs, level):
    for delta in (Fraction(1), Fraction(1, 7), Fraction(1, 2 ** level)):
        assert cylinder_cover(ifs, delta) == ref_cylinder_cover(ifs, delta)


@over_corpus
def test_measure_matches_reference(ifs, level):
    for weights, p in weight_cases(ifs, level):
        for lev in (1, level):
            assert_same_measure(self_similar_measure(ifs, weights, lev),
                                ref_self_similar_measure(ifs, p, lev))


@over_corpus
def test_level_intervals_match_reference(ifs, level):
    for depth in range(0, 6 if len(ifs) == 2 else 5):
        assert _level_intervals(ifs, depth) == ref_level_intervals(ifs, depth)


small_ratios = st.sampled_from([Fraction(1, 2), Fraction(1, 3),
                                Fraction(2, 5), Fraction(1, 4),
                                Fraction(2, 7)])
small_translations = st.fractions(min_value=0, max_value=1,
                                  max_denominator=12)
small_ifs = st.lists(st.tuples(small_ratios, small_translations),
                     min_size=2, max_size=3).map(
    lambda ms: IFS(tuple(Similarity(r, t) for r, t in ms)))


@settings(max_examples=40, deadline=None)
@given(ifs=small_ifs, k=st.integers(1, 5), depth=st.integers(0, 4),
       raw=st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                    min_size=3, max_size=3))
def test_walk_matches_reference_property(ifs, k, depth, raw):
    # ratios <= 1/2 and delta >= 2^-5 keep every expansion under 3^8 nodes
    delta = Fraction(1, 2 ** k)
    assert cylinder_cover(ifs, delta) == ref_cylinder_cover(ifs, delta)
    assert _level_intervals(ifs, depth) == ref_level_intervals(ifs, depth)
    w = raw[:len(ifs)]
    if sum(w) == 0.0:
        w[0] = 1.0
    p = [x / sum(w) for x in w]
    assert_same_measure(self_similar_measure(ifs, p, k),
                        ref_self_similar_measure(ifs, p, k))


def descent_outcome(locate, E, hull, target, depth):
    try:
        return locate(E, hull, target, depth)
    except PreconditionError as e:
        return str(e)


@st.composite
def descent_cases(draw):
    """A homogeneous SSC IFS on [0, 1] and a target made by shrinking or
    stretching the hull of a random cylinder; stretched targets reach
    neighbouring cylinders or leave the hull, so the descent also fails."""
    r = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 4), Fraction(2, 7),
                              Fraction(1, 5)]))
    m = draw(st.integers(2, 3 if r < Fraction(1, 3) else 2))
    # evenly spread maps leave gaps of (1 - m*r)/(m - 1) > 0
    shifts = draw(st.permutations([k * (1 - r) / (m - 1) for k in range(m)]))
    E = IFS(tuple(Similarity(r, t) for t in shifts))
    word = draw(st.lists(st.integers(1, m), max_size=6))
    iv = cylinder_map(E, word).apply(attractor_hull(E))
    ends = st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(3, 2),
                        max_denominator=16)
    a, b = sorted((draw(ends), draw(ends)))
    target = Interval(iv.lo + a * iv.diameter, iv.lo + b * iv.diameter)
    return E, target, draw(st.integers(0, 8))


@settings(max_examples=60, deadline=None)
@given(case=descent_cases())
def test_descent_matches_reference_property(case):
    E, target, depth = case
    hull = attractor_hull(E)
    assert descent_outcome(embedding_module._locate_unique_cylinder, E, hull,
                           target, depth) == \
        descent_outcome(ref_locate_unique_cylinder, E, hull, target, depth)


def test_zero_weight_branches_are_not_expanded(monkeypatch):
    # without pruning this expansion has 2^40 leaves; the budget turns
    # that into a failure instead of a hang
    calls = [0]
    real = similarity_module.compose

    def counting(g, h):
        calls[0] += 1
        assert calls[0] < 1000, "zero-weight branches are being expanded"
        return real(g, h)

    monkeypatch.setattr(similarity_module, "compose", counting)
    monkeypatch.setattr(measures_module, "compose", counting, raising=False)
    theta = self_similar_measure(HALVES, [1.0, 0.0], 40)
    assert (theta.origin, theta.masses.tolist()) == (0, [1.0])


# -- pinned renormalization families ---------------------------------------

def entry_fields(fam):
    return [(e.n, e.l_n, e.frac_exact, e.eta_exact, e.t, e.word, e.verified)
            for e in fam.entries]


def test_renormalize_family_pinned_c19_in_c13_first_map():
    fam = renormalize_family(IDENTITY, C19, C13, 1, 200)
    assert (fam.p, fam.N) == (2, 2)
    assert entry_fields(fam) == [
        (n, 2 * n, Fraction(0), Fraction(1, 9), Fraction(0),
         (1,) * (2 * n - 2), True) for n in range(3, 201)]


def test_renormalize_family_pinned_c19_in_c13_second_map():
    fam = renormalize_family(IDENTITY, C19, C13, 2, 60)
    assert (fam.p, fam.N) == (2, 2)
    assert entry_fields(fam) == [
        (n, 2 * n, Fraction(0), Fraction(1, 9), Fraction(8, 9),
         (2,) * (2 * n - 2), True) for n in range(3, 61)]


def test_self_embedding_family_pinned_first_map():
    fam = self_embedding_family(C13.maps[0], C13, 40)
    assert (fam.p, fam.N) == (1, 2)
    assert entry_fields(fam) == [
        (n, n, Fraction(0), Fraction(1, 9), Fraction(0), (1,) * (n - 1), True)
        for n in range(3, 41)]


@pytest.mark.parametrize("g", [compose(C13.maps[0], C13.maps[1]),
                               sim(Fraction(-1, 3), Fraction(1, 3))],
                         ids=["phi1-phi2", "negative"])
def test_self_embedding_family_pinned_depth_two(g):
    # the negative map squares to x/9 + 2/9 = phi1 o phi2
    fam = self_embedding_family(g, C13, 30)
    assert (fam.p, fam.N) == (0, 1)
    assert entry_fields(fam) == [
        (n, 2 * n, Fraction(0), Fraction(1, 9), Fraction(2, 9), (1, 2) * n,
         True) for n in range(2, 31)]


@pytest.mark.parametrize("k", [10, 14, 20])
def test_renormalize_family_pinned_rejected_entry(k):
    # g = x/3 + 3^-k: the entry n = k - 6 is the first induced embedding
    # rejected at the default resolution, and the family stops there
    g = sim(Fraction(1, 3), Fraction(1, 3 ** k))
    fam = renormalize_family(g, C13, C13, 1, 40)
    assert (fam.p, fam.N) == (1, 2)
    assert entry_fields(fam) == [
        (n, n, Fraction(0), Fraction(1, 9), Fraction(1, 3 ** (k + 1 - n)),
         (1,) * (n - 1), n < k - 6) for n in range(3, k - 5)]
    delta0 = embedding_module.DEFAULT_DELTA0
    for e in fam.entries:
        verdict = verify_embedding(Similarity(e.eta_exact, e.t), C13, C13,
                                   delta0)
        assert e.verified == (verdict.status == "consistent")


def test_family_cover_count_does_not_grow_with_n_max(monkeypatch):
    calls = [0]
    real = similarity_module.cylinder_cover

    def counting(ifs, delta):
        calls[0] += 1
        return real(ifs, delta)

    monkeypatch.setattr(similarity_module, "cylinder_cover", counting)
    monkeypatch.setattr(embedding_module, "cylinder_cover", counting)
    counts = []
    for n_max in (60, 200):
        calls[0] = 0
        renormalize_family(IDENTITY, C19, C13, 1, n_max)
        counts.append(calls[0])
    assert counts[0] == counts[1]


def two_map_ifs(r):
    return IFS((Similarity(r, 0), Similarity(r, 1 - r)))


small_contractions = st.fractions(min_value=Fraction(1, 12),
                                  max_value=Fraction(5, 11),
                                  max_denominator=12)
powers_of_one_base = st.tuples(
    st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 5)]),
    st.integers(2, 4), st.integers(2, 4)).map(
    lambda t: (t[0] ** t[1], t[0] ** t[2]))


@settings(max_examples=30, deadline=None)
@given(ab=st.one_of(st.tuples(small_contractions, small_contractions),
                    powers_of_one_base),
       gamma=st.sampled_from([Fraction(1, 16), Fraction(1, 2)]))
def test_family_floor_is_exact_property(ab, gamma):
    # g(x) = gamma*x at resolution gamma covers F by its hull, which lands
    # at 0 in E; the family then traps [0, gamma * alpha^n] in cylinders
    # 1^d, and gamma = 1/2 makes p > 0
    alpha, beta = ab
    fam = renormalize_family(Similarity(gamma, 0), two_map_ifs(alpha),
                             two_map_ifs(beta), 1, 12, gamma)
    assert alpha ** fam.N < beta ** fam.p
    assert fam.N == 1 or alpha ** (fam.N - 1) >= beta ** fam.p
    for e in fam.entries:
        assert beta ** (e.l_n + 1) < alpha ** e.n <= beta ** e.l_n
