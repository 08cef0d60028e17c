"""Reference oracles for the cylinder expansion, the unique-cylinder
descent and the measure readers, and pinned renormalization families.

The three reference loops below are the stand-alone expansions that
`cylinder_cover`, `self_similar_measure` and the separation gap once
carried each.  The library must reproduce them exactly: the same
(word, interval) lists, the same measure origin and bit-identical masses.
The integer cylinder walk must give, at every node, the ratio and
translation of `cylinder_map`.  The separation sweep, clamped at 0, must
equal the gap taken by applying each first-level map to a level set and
merging, and its depth-0 sign must give the verdict of the sorted scan of
the hull's images that `check_osc_hull` once ran.  The reference
descent recomposes each candidate cylinder from the root; the library's
descent must find the same word and cylinder map, or fail at the same
depth.  The dense coarsening, the per-cell `Fraction`
pushforward and the per-grid-cell convolution loop are the measure
readers that scanned every dense cell; the library must give the same
entropies, slopes and intercepts, and bit-identical image measures.  The
sympy prime-vector verdict and exponent solve are the commensurability
code the coprime base replaced; the library must return the same results,
certificates included, wherever every prime lies below the trial bound.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import ifslab.commensurability as commensurability_module
import ifslab.embedding as embedding_module
import ifslab.measures as measures_module
import ifslab.similarity as similarity_module
from ifslab import (IDENTITY, IFS, DyadicMeasure, Interval, ParamMeasure,
                    PreconditionError, Similarity, act_convolve,
                    attractor_hull, check_osc_hull, compose, cylinder_cover,
                    cylinder_map, entropy_dimension, pushforward,
                    renormalize_family, self_embedding_family,
                    self_similar_measure, shannon_entropy,
                    similarity_dimension, verify_embedding)
from ifslab.dimension import (_distance_to_union, _gap_at_depth, _merge,
                              ssc_gap)
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


def ref_gap_at_depth(ifs, depth):
    """Applies each first-level map to the depth-d level set."""
    base = ref_level_intervals(ifs, depth)
    covers = [[phi.apply(iv) for iv in base] for phi in ifs.maps]
    gap = None
    for i in range(len(covers)):
        for j in range(i + 1, len(covers)):
            union = _merge(covers[j])
            los = [u.lo for u in union]
            for iv in covers[i]:
                d = _distance_to_union(iv, union, los)
                if gap is None or d < gap:
                    gap = d
                if gap == 0:
                    return Fraction(0)
    return gap


def ref_check_osc_hull(ifs):
    """Sorts the hull's images and scans consecutive pairs for overlap."""
    hull = attractor_hull(ifs)
    images = sorted((m.apply(hull) for m in ifs.maps),
                    key=lambda iv: (iv.lo, iv.hi))
    if all(images[k].hi <= images[k + 1].lo for k in range(len(images) - 1)):
        return "OSC-hull"
    return "none"


def assert_same_separation(ifs, depth):
    assert max(Fraction(0), _gap_at_depth(ifs, depth)) == \
        ref_gap_at_depth(ifs, depth)
    assert check_osc_hull(ifs).kind == ref_check_osc_hull(ifs)


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
    # the sweep of each level set gives the reference gap and OSC verdict
    for depth in range(0, 6 if len(ifs) == 2 else 5):
        assert_same_separation(ifs, depth)


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
    assert_same_separation(ifs, depth)
    w = raw[:len(ifs)]
    if sum(w) == 0.0:
        w[0] = 1.0
    p = [x / sum(w) for x in w]
    assert_same_measure(self_similar_measure(ifs, p, k),
                        ref_self_similar_measure(ifs, p, k))


def denominators(ifs):
    return {x.denominator for m in ifs.maps for x in (m.ratio, m.translation)}


#: inhomogeneous, and no single ratio or translation denominator is the
#: common one, e.g. ratio 2/7 with translation 5/12
mixed_ifs = small_ifs.filter(
    lambda ifs: not ifs.homogeneous()
    and math.lcm(*denominators(ifs)) not in denominators(ifs))


@settings(max_examples=40, deadline=None)
@given(ifs=mixed_ifs, k=st.integers(0, 5), depth=st.integers(0, 3))
def test_integer_walk_matches_cylinder_maps_property(ifs, k, depth):
    # the stop of a 2^-k cover, so the leaves have words of mixed lengths
    q = math.lcm(*denominators(ifs))
    diameter = attractor_hull(ifs).diameter
    nodes = []

    def stop(word, a, d):
        nodes.append((word, a, d))
        return Fraction(a, d) * diameter <= Fraction(1, 2 ** k)

    leaves = list(similarity_module._walk(ifs, stop))
    assert [word for word, *_ in leaves] == \
        [word for word, _ in ref_cylinder_cover(ifs, Fraction(1, 2 ** k))]
    for word, a, d in nodes:
        assert d == q ** len(word)
        assert Fraction(a, d) == cylinder_map(ifs, word).ratio
    for word, a, b, d in leaves:
        g = cylinder_map(ifs, word)
        assert (Fraction(a, d), Fraction(b, d)) == (g.ratio, g.translation)
    assert_same_separation(ifs, depth)


@st.composite
def separation_cases(draw):
    """2-4 maps, of one ratio or several, spread evenly (so often separated)
    or translated at random (so often overlapping), and a depth of 0-4."""
    m = draw(st.integers(2, 4))
    if draw(st.booleans()):
        ratios = [draw(small_ratios)] * m
    else:
        ratios = draw(st.lists(small_ratios, min_size=m, max_size=m))
    if draw(st.booleans()):
        shifts = draw(st.permutations([Fraction(k, m) for k in range(m)]))
    else:
        shifts = draw(st.lists(small_translations, min_size=m, max_size=m))
    return (IFS(tuple(Similarity(r, t) for r, t in zip(ratios, shifts))),
            draw(st.integers(0, 4)))


@settings(max_examples=60, deadline=None)
@given(case=separation_cases())
def test_separation_sweep_matches_reference_property(case):
    assert_same_separation(*case)


def test_separation_sweep_past_the_float_range():
    # at depth 12 the common denominator is about (3 * 10^30)^13 * 10^60,
    # so a float anywhere in the sweep would overflow
    eps = Fraction(1, 10 ** 30)
    touching = IFS((Similarity(Fraction(1, 2), 0),
                    Similarity(Fraction(1, 2), Fraction(1, 2) - eps)))
    assert ssc_gap(touching).witness == "covers overlap at depth 12"
    assert_same_separation(touching, 12)
    separated = IFS((Similarity(Fraction(1, 3), 0),
                     Similarity(Fraction(1, 3), Fraction(2, 3) - eps)))
    assert ssc_gap(separated, 12).gap == ref_gap_at_depth(separated, 12)


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
    # without pruning this expansion has 2^40 leaves; the budget on the
    # leaves the walk yields turns that into a failure instead of a hang
    real = measures_module._walk

    def counting(ifs, stop):
        for leaves, node in enumerate(real(ifs, stop), 1):
            assert leaves < 1000, "zero-weight branches are being expanded"
            yield node

    monkeypatch.setattr(measures_module, "_walk", counting)
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


# C13 written as four maps of ratio 1/9, so log(1/3)/log(1/9) = 1/2
C13_SQUARED = IFS(tuple(sim(Fraction(1, 9), Fraction(d, 9))
                        for d in (0, 2, 6, 8)), "C13^2")


def test_renormalize_family_pinned_half_log_ratio():
    # odd n leave the fractional part 1/2, so the induced scale is
    # 3^-n / 9^(l_n - p) = 1/243 rather than beta^p = 1/81
    fam = renormalize_family(IDENTITY, C13, C13_SQUARED, 1, 12)
    assert (fam.p, fam.N, fam.log_ratio) == (2, 5, Fraction(1, 2))
    assert entry_fields(fam) == [
        (n, n // 2, Fraction(n % 2, 2),
         Fraction(1, 243) if n % 2 else Fraction(1, 81), Fraction(0),
         (1,) * (n // 2 - 2), True) for n in range(6, 13)]
    for e in fam.entries:
        verdict = verify_embedding(Similarity(e.eta_exact, e.t), C13,
                                   C13_SQUARED, embedding_module.DEFAULT_DELTA0)
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


# -- measure readers against the dense loops -------------------------------

def ref_coarsen(theta, n):
    """Dense coarsening: one bin per level-n cell from the first cell of the
    array to the last, zeros included."""
    shift = theta.level - n
    if shift == 0:
        return theta.masses
    k = theta.origin + np.arange(theta.masses.size)
    c = k >> shift
    return np.bincount(c - int(c[0]), weights=theta.masses)


def ref_entropy_bits(p):
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def ref_entropy_curve(theta, n_min, n_max):
    """(entropies, slope, intercept) by the library's least-squares formula
    over the dense coarsening."""
    ns = np.arange(n_min, n_max + 1, dtype=np.float64)
    hs = np.array([ref_entropy_bits(ref_coarsen(theta, int(n))) for n in ns])
    dx = ns - ns.mean()
    dy = hs - hs.mean()
    slope = float(np.sum(dx * dy) / np.sum(dx * dx))
    return hs.tolist(), slope, float(hs.mean() - slope * ns.mean())


def ref_pushforward(g, theta, out_level):
    """One exact `Fraction` image per nonzero source-cell midpoint."""
    cells = {}
    two_out = 2 ** out_level
    denom = 2 ** (theta.level + 1)
    for j in range(theta.masses.size):
        m = float(theta.masses[j])
        if m == 0.0:
            continue
        mid = Fraction(2 * (theta.origin + j) + 1, denom)
        k = math.floor(g(mid) * two_out)
        cells[k] = cells.get(k, 0.0) + m
    return DyadicMeasure.from_cell_masses(out_level, cells)


def ref_act_convolve(nu, mu, out_level):
    """One block of images per nonzero nu grid cell, in row-major order,
    summed by `np.add.at`."""
    jj = np.nonzero(mu.masses)[0]
    x = (mu.origin + jj + 0.5) / 2 ** mu.level
    w = mu.masses[jj]
    two_out = float(2 ** out_level)
    idx_blocks = []
    mass_blocks = []
    a_centers = nu.scale_centers
    t_centers = nu.trans_centers
    for ia in range(nu.grid.shape[0]):
        for it in range(nu.grid.shape[1]):
            wc = nu.grid[ia, it]
            if wc == 0.0:
                continue
            y = a_centers[ia] * x + t_centers[it]
            idx_blocks.append(np.floor(y * two_out).astype(np.int64))
            mass_blocks.append(wc * w)
    idx = np.concatenate(idx_blocks)
    mass = np.concatenate(mass_blocks)
    origin = int(idx.min())
    out = np.zeros(int(idx.max()) - origin + 1)
    np.add.at(out, idx - origin, mass)
    return DyadicMeasure(out_level, origin, out)


def assert_same_entropies(theta, n_min, n_max):
    for n in range(0, theta.level + 1):
        assert shannon_entropy(theta, n) == \
            ref_entropy_bits(ref_coarsen(theta, n))
    curve = entropy_dimension(theta, n_min, n_max)
    hs, slope, intercept = ref_entropy_curve(theta, n_min, n_max)
    assert [h for _, h in curve.points] == hs
    assert (curve.slope, curve.intercept) == (slope, intercept)


@st.composite
def sparse_measures(draw, max_level=14):
    """A measure whose mass array has leading, trailing and interior zero
    cells (each may be absent) and an origin of either sign."""
    level = draw(st.integers(3, max_level))
    lead = [0.0] * draw(st.integers(0, 3))
    trail = [0.0] * draw(st.integers(0, 3))
    body = draw(st.lists(st.one_of(st.just(0.0),
                                   st.floats(1e-6, 1.0),
                                   st.sampled_from([0.25, 1.0, 1e-300])),
                         min_size=1, max_size=200))
    if not any(body):
        body[draw(st.integers(0, len(body) - 1))] = 1.0
    m = np.array(lead + body + trail)
    span = 2 ** level
    origin = draw(st.integers(-2 * span, 2 * span))
    return DyadicMeasure(level, origin, m / m.sum())


ratios = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2),
                          Fraction(-3), Fraction(1, 3), Fraction(-1, 3),
                          Fraction(5, 7), Fraction(-2, 5), Fraction(7, 2)])
translations = st.fractions(min_value=-3, max_value=3, max_denominator=40)


@settings(max_examples=150, deadline=None)
@given(theta=sparse_measures(), data=st.data())
def test_entropy_curve_matches_dense_coarsening_property(theta, data):
    n_min = data.draw(st.integers(1, theta.level - 2))
    assert_same_entropies(theta, n_min,
                          data.draw(st.integers(n_min + 2, theta.level)))


@settings(max_examples=150, deadline=None)
@given(theta=sparse_measures(), r=ratios, t=translations,
       out_level=st.integers(1, 14))
def test_pushforward_matches_fraction_reference_property(theta, r, t,
                                                         out_level):
    g = Similarity(r, t)
    got = pushforward(g, theta, out_level)
    assert_same_measure(got, ref_pushforward(g, theta, out_level))
    assert abs(got.total - theta.total) <= 1e-9


@st.composite
def param_measures(draw):
    """Small scale x translation grids with zero cells, over scale ranges
    of either sign, or `from_pairs` grids."""
    if draw(st.booleans()):
        sign = draw(st.sampled_from([1.0, -1.0]))
        pairs = draw(st.lists(st.tuples(st.sampled_from([0.25, 1 / 3, 0.5,
                                                          1.0, 2.0]),
                                        st.floats(-2.0, 2.0)),
                              min_size=1, max_size=12))
        pairs = [(sign * a, t) for a, t in pairs]
        shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
        return ParamMeasure.from_pairs(pairs, shape)
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                          min_size=nx * ny, max_size=nx * ny))
    g = np.array(cells).reshape(nx, ny)
    if not g.any():
        g[-1, 0] = 1.0
    lo = draw(st.sampled_from([0.1, 1 / 3, 0.5, 1.0]))
    hi = lo + draw(st.sampled_from([0.0, 0.25, 2 / 3, 1.0]))
    scale = (-hi, -lo) if draw(st.booleans()) else (lo, hi)
    tlo = draw(st.floats(-1.0, 1.0))
    trans = (tlo, tlo + draw(st.sampled_from([0.0, 0.5, 1.0])))
    return ParamMeasure(scale, trans, g / g.sum())


@settings(max_examples=150, deadline=None)
@given(nu=param_measures(), mu=sparse_measures(max_level=12),
       out_level=st.integers(1, 14))
def test_act_convolve_matches_loop_reference_property(nu, mu, out_level):
    assert_same_measure(act_convolve(nu, mu, out_level),
                        ref_act_convolve(nu, mu, out_level))


@pytest.mark.parametrize("ifs,level", [(C13, 14), (C19, 14), (HALVES, 10),
                                       (INHOM_3, 12)],
                         ids=lambda v: getattr(v, "label", v))
def test_measure_readers_match_references_on_self_similar(ifs, level):
    theta = self_similar_measure(ifs, "maximal", level)
    assert_same_entropies(theta, 1, level)
    for g in (IDENTITY, sim(Fraction(-1, 3), Fraction(1, 3)),
              sim(3, Fraction(-7, 5)), sim(1, Fraction(-5, 8))):
        assert_same_measure(pushforward(g, theta, level - 2),
                            ref_pushforward(g, theta, level - 2))
    pairs = [(float(r), float(t)) for r, t in
             ((Fraction(1, 3), 0), (Fraction(1, 3), Fraction(2, 3)),
              (Fraction(1, 9), Fraction(1, 2)), (Fraction(1, 2), 1))]
    for nu in (ParamMeasure.from_pairs(pairs, (8, 8)),
               ParamMeasure.uniform((1 / 3, 1.0), (0.0, 0.5), (5, 3))):
        assert_same_measure(act_convolve(nu, theta, level - 1),
                            ref_act_convolve(nu, theta, level - 1))


# -- commensurability against prime factorization --------------------------

def ref_exponent_vector(x):
    v = {}
    for prime, e in sympy.factorint(x.numerator).items():
        v[int(prime)] = v.get(int(prime), 0) + e
    for prime, e in sympy.factorint(x.denominator).items():
        v[int(prime)] = v.get(int(prime), 0) - e
    return {prime: e for prime, e in v.items() if e != 0}


def ref_log_commensurable(alpha, beta):
    """Prime-vector verdict, for inputs of at most 128 bits."""
    Result = commensurability_module.CommensurabilityResult
    va, vb = ref_exponent_vector(alpha), ref_exponent_vector(beta)
    if set(va) != set(vb):
        prime = sorted(set(va) ^ set(vb))[0]
        return Result("incommensurable", certificate=(
            f"prime {prime} divides exactly one of the ratios"))
    primes = sorted(va)
    r = Fraction(va[primes[0]], vb[primes[0]])
    for prime in primes[1:]:
        if Fraction(va[prime], vb[prime]) != r:
            return Result("incommensurable", certificate=(
                f"exponent mismatch between primes {primes[0]} and {prime}"))
    p, q = r.numerator, r.denominator
    assert r > 0 and alpha ** q == beta ** p
    return Result("rational", p, q,
                  certificate=f"({beta})^{p} == ({alpha})^{q}")


def ref_conjecture_exponents(F, E):
    """sympy `linsolve` on the prime rows, free symbols set to 0."""
    betas = list(E.ratios)
    first_index = {}
    for j, b in enumerate(betas):
        first_index.setdefault(b, j)
    uniq = sorted(first_index, key=first_index.get)
    cols = [ref_exponent_vector(b) for b in uniq]
    primes = sorted(set().union(*cols))
    M = sympy.Matrix([[sympy.Rational(c.get(pr, 0)) for c in cols]
                      for pr in primes])
    syms = sympy.symbols(f"t0:{len(uniq)}")
    rows, negs = [], []
    for a in F.ratios:
        va = ref_exponent_vector(a)
        sol = None
        if set(va) <= set(primes):
            v = sympy.Matrix([sympy.Rational(va.get(pr, 0)) for pr in primes])
            sol = sympy.linsolve((M, v), list(syms))
        if not sol:
            rows.append(None)
            negs.append(False)
            continue
        tup = [e.subs({s: 0 for s in syms}) for e in next(iter(sol))]
        full = [Fraction(0)] * len(betas)
        for k, b in enumerate(uniq):
            full[first_index[b]] = Fraction(int(tup[k].p), int(tup[k].q))
        if not commensurability_module._verify_row(a, betas, full):
            rows.append(None)
            negs.append(False)
            continue
        rows.append(tuple(full))
        negs.append(any(t < 0 for t in full))
    return commensurability_module.ExponentMatrix(tuple(rows), tuple(negs))


#: factors below the trial bound, so that certificates name true primes
small_factors = st.integers(2, (1 << 16) - 1)


@st.composite
def atom_powers(draw, count):
    """``count`` ratios in (0, 1) of at most 128 bits, each a product of
    integer powers of one to three shared rational atoms; exponents in
    proportion, disjoint supports and mismatches all come up."""
    atoms = draw(st.lists(st.tuples(small_factors, small_factors)
                          .map(lambda t: Fraction(*t))
                          .filter(lambda a: a != 1), min_size=1, max_size=3))
    out = []
    for _ in range(count):
        x = math.prod((a ** draw(st.integers(-3, 3)) for a in atoms),
                      start=Fraction(1))
        assume(x != 1)
        x = min(x, 1 / x)
        assume(max(x.numerator, x.denominator).bit_length() <= 128)
        out.append(x)
    return out


def ratio_ifs(ratios):
    return IFS(tuple(sim(r, k) for k, r in enumerate(ratios)))


@settings(max_examples=300, deadline=None)
@given(pair=atom_powers(2))
def test_log_commensurable_matches_prime_vectors_property(pair):
    alpha, beta = pair
    assert (commensurability_module.log_commensurable(alpha, beta)
            == ref_log_commensurable(alpha, beta))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_f=st.integers(2, 3), n_e=st.integers(2, 4))
def test_conjecture_exponents_match_linsolve_property(data, n_f, n_e):
    ratios = data.draw(atom_powers(n_f + n_e))
    if data.draw(st.booleans()):
        ratios[-1] = ratios[n_f]           # a duplicate beta
    F, E = ratio_ifs(ratios[:n_f]), ratio_ifs(ratios[n_f:])
    assert (commensurability_module.conjecture_exponents(F, E)
            == ref_conjecture_exponents(F, E))
