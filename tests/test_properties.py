"""Property-based differential tests of the exact linear-algebra core
and of the one orbit-enumeration path.

The one Fraction elimination behind mat_inverse, mat_rank and the
kernel basis, and the Bareiss integer determinant, are checked
against sympy on random matrices. Random words in each bundled deck's
generators check that products keep exactly orthogonal parts without
re-validation, and that input matrices are still checked where they
enter. Orbit-ball counts and nearest lifts are checked against a plain
scan of a box of lattice coordinates, the integer lattice scan against
a scan of a coordinate box in an LLL-reduced basis (deck lattices and
random skewed ones), the orbit hits against the composed rep * t_v
construction over that box scan, the integer-record orbit counts and
finite-index rows against the same counted over hits, normal-form
products, inverses, word balls and subgroup membership against the same
on isometries (word balls against a plain composition search), the
counting paths against building any isometry, the ray queries against
building one per orbit record, and ray scales against the first deck element of a box scan that cuts the ray. The warped grid solver, which
floods only the r >= 0 half of a symmetric grid, or only the rows within
a given count of its source row, is checked bit for bit against a plain
Dijkstra over the whole grid (cylinders of one column up), and the deck
distances, whose flood stops at the rows a shortest path can reach,
against a flood of their whole window. The Monte Carlo estimator, which
draws and tests its samples a block of cells at a time, is checked bit
for bit against a loop over its cells, and the integer-keyed orbit cloud
against the same cloud sorted and converted as Fractions.
"""

import bisect
import contextlib
import heapq
import io
import itertools
import json
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, eye

from orbitlab import cli, flatgeo, groups, warped
from orbitlab.algebra import int_determinant
from orbitlab.euclid import (
    Isometry,
    Point,
    is_orthogonal,
    leq_radius_plus_sqrt,
    mat_inverse,
    mat_vec,
    mat_rank,
    vec_dot,
    vec_sub,
)
from orbitlab.errors import CapExceeded, InconsistentCosets, NotFoundWithinCap
from orbitlab.flatgeo import _kernel_basis, nearest_lifts
from orbitlab.groups import DECK_GROUP_NAMES, builtin_deck_group
from orbitlab.orbit import (
    _image_dists,
    _membership,
    ball_counts,
    finite_index_comparison,
    milnor_check,
    subgroup_index,
    translation_subgroup,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import decks  # noqa: E402
from decks import CUSTOM_DECKS  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None)

ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def _sym(rows):
    return Matrix([[Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _frac(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@st.composite
def low_rank_matrices(draw):
    """An m x n rational matrix B C with inner size k, so of rank <= k."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(m, n)))
    b = [[draw(ENTRIES) for _ in range(k)] for _ in range(m)]
    c = [[draw(ENTRIES) for _ in range(n)] for _ in range(k)]
    return [[sum((b[i][t] * c[t][j] for t in range(k)), Fraction(0)) for j in range(n)]
            for i in range(m)], n


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    entries = st.one_of(st.just(Fraction(0)), ENTRIES)
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


@given(low_rank_matrices())
@PROPERTY
def test_rank_and_kernel_match_sympy(case):
    rows, n = case
    sym = _sym(rows)
    assert mat_rank(rows) == sym.rank()
    kernel = _kernel_basis(rows, n)
    want = [tuple(_frac(x) for x in v) for v in sym.nullspace()]
    assert kernel == want


@given(square_matrices())
@PROPERTY
def test_solve_and_inverse_match_sympy(rows):
    n = len(rows)
    sym = _sym(rows)
    if sym.det() == 0:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(rows)
        return
    inv = sym.inv()
    assert mat_inverse(rows) == tuple(
        tuple(_frac(inv[i, j]) for j in range(n)) for i in range(n)
    )


@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-30, 30)), min_size=n, max_size=n),
        min_size=n, max_size=n)))
@PROPERTY
def test_bareiss_determinant_matches_sympy(m):
    assert int_determinant(m) == (Matrix(m).det() if m else 1)


@pytest.mark.parametrize("name", DECK_GROUP_NAMES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_deck_words_stay_orthogonal_and_factor(name, data):
    deck = builtin_deck_group(name)
    gens = deck.generated().generators
    word = data.draw(st.lists(st.sampled_from(range(len(gens))), max_size=12))
    g = deck.generated().identity
    for i in word:
        g = g * gens[i]
    # products and inverses skip the check; it must still hold
    for h in (g, g.inverse()):
        assert is_orthogonal(h.orthogonal)
        plain = Isometry([list(row) for row in h.orthogonal], list(h.translation))
        assert plain == h and hash(plain) == hash(h) and repr(plain) == repr(h)
        i, v = deck.factor(h)
        assert v in deck.lattice
        assert deck.coset_reps[i] * Isometry.translation_by(v) == h


@st.composite
def non_orthogonal(draw):
    n = draw(st.integers(1, 3))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    sym = _sym(rows)
    if sym * sym.T == eye(n):
        rows[0][0] += 1  # an orthogonal entry is +-1 or 0; this breaks A A^T = I
    return rows


@given(non_orthogonal())
@settings(max_examples=30, deadline=None)
def test_non_orthogonal_input_is_rejected_where_it_enters(rows):
    n = len(rows)
    zero = [Fraction(0)] * n
    with pytest.raises(ValueError):
        Isometry(rows, zero)
    with pytest.raises(ValueError):
        Isometry(tuple(tuple(r) for r in rows), zero)
    obj = {"A": [[str(x) for x in r] for r in rows], "v": [str(x) for x in zero]}
    with pytest.raises(ValueError):
        Isometry.from_obj(obj)
    code = cli.main(["classify", "--generators", json.dumps([obj])])
    assert code == 2


# ---------------------------------------------------------------------------
# orbit enumeration against a coordinate-box scan

ORBIT_DECKS = DECK_GROUP_NAMES + ("z3",)
COORD = st.fractions(min_value=-1, max_value=1, max_denominator=7)


def _box_images(deck, x, y, radius):
    """{g(y): |g(y) - x|^2} over every g = rep * t_v whose lattice
    coordinates lie in a box holding all g with |g(y) - x| <= radius."""
    basis = deck.lattice.basis
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            assert vec_dot(a, b) == 0  # the box below relies on it
    images = {}
    for rep in deck.coset_reps:
        # |rep(y + v) - x| = |v - w| with w = rep^-1(x) - y, so |v| <= radius + |w|
        w = vec_sub(tuple(rep.inverse()(x)), tuple(y))
        reach = radius + math.sqrt(float(vec_dot(w, w)))
        ranges = []
        for b in basis:
            k = math.floor(reach / math.sqrt(float(vec_dot(b, b)))) + 1
            ranges.append(range(-k, k + 1))
        for m in itertools.product(*ranges):
            v = deck.lattice.vector(m)
            image = tuple(rep(Point(tuple(a + b for a, b in zip(y, v)))))
            d = vec_sub(image, tuple(x))
            images[image] = vec_dot(d, d)
    return images


@st.composite
def points_in(draw, dimension):
    return Point(tuple(draw(COORD) for _ in range(dimension)))


@pytest.mark.parametrize("name", ORBIT_DECKS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ball_counts_match_a_box_scan(name, data):
    deck = builtin_deck_group(name)
    x = data.draw(points_in(deck.dimension))
    radii_sq = data.draw(st.lists(
        st.fractions(min_value=0, max_value=12, max_denominator=9), min_size=1, max_size=4))
    # a Milnor radius h^2 r^2, rarely a perfect square
    h_sq = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=9))
    radii_sq.append(h_sq * data.draw(st.integers(1, 2)) ** 2)
    images = _box_images(deck, x, x, math.sqrt(float(max(radii_sq))) + 1)
    want = [sum(1 for d2 in images.values() if d2 <= r2) for r2 in radii_sq]
    assert ball_counts(deck, x, radii_sq) == want


@pytest.mark.parametrize("name", ORBIT_DECKS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_nearest_lifts_match_a_box_scan(name, data):
    deck = builtin_deck_group(name)
    center = data.draw(points_in(deck.dimension))
    target = data.draw(points_in(deck.dimension))
    # the identity lift bounds the minimum
    d = vec_sub(tuple(target), tuple(center))
    images = _box_images(deck, center, target, math.sqrt(float(vec_dot(d, d))) + 1)
    best = min(images.values())
    minimisers = sorted(p for p, d2 in images.items() if d2 == best)
    assert nearest_lifts(deck, center, target) == (best, [Point(p) for p in minimisers])


def _lll(rows):
    """(R, U) with R = U rows an LLL-reduced basis (delta 3/4) and U
    unimodular: textbook LLL in exact arithmetic, Gram-Schmidt recomputed
    at each step, which is plenty for rank 3."""
    b = [list(r) for r in rows]
    u = [[int(i == j) for j in range(len(b))] for i in range(len(b))]

    def gram_schmidt():
        stars, mu = [], [[Fraction(0)] * len(b) for _ in b]
        for i, bi in enumerate(b):
            v = [Fraction(x) for x in bi]
            for j, bj in enumerate(stars):
                mu[i][j] = vec_dot(bi, bj) / vec_dot(bj, bj)
                v = [x - mu[i][j] * y for x, y in zip(v, bj)]
            stars.append(v)
        return stars, mu

    i = 1
    while i < len(b):
        for j in range(i - 1, -1, -1):
            c = round(gram_schmidt()[1][i][j])
            b[i] = [x - c * y for x, y in zip(b[i], b[j])]
            u[i] = [x - c * y for x, y in zip(u[i], u[j])]
        stars, mu = gram_schmidt()
        if vec_dot(stars[i], stars[i]) >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * vec_dot(
                stars[i - 1], stars[i - 1]):
            i += 1
        else:
            b[i - 1], b[i] = b[i], b[i - 1]
            u[i - 1], u[i] = u[i], u[i - 1]
            i = max(i - 1, 1)
    return b, u


def _box_lattice_points(lattice, w, reach, keep):
    """(coords, vector, |v - w|^2) of every lattice vector v with
    keep(|v - w|^2), sorted by (distance, coords), from a plain scan of a
    box of coordinates in an LLL-reduced basis R = U B: every v = n R
    within ``reach`` of w has |n_j - a_j| <= reach * sqrt(G_R^-1_jj), a
    the R-coordinates of w's projection onto the span, and its
    coordinates in the lattice's own basis are m = n U. Norms are
    integers over one denominator; only points a float bound cannot
    exclude get the exact Fraction test ``keep``."""
    w = tuple(Fraction(x) for x in w)
    e = math.lcm(*(x.denominator for x in w))
    basis, d = lattice.int_basis
    reduced, unimodular = _lll(basis)
    ginv = mat_inverse([[Fraction(vec_dot(ri, rj), d * d) for rj in reduced] for ri in reduced])
    a = mat_vec(ginv, tuple(vec_dot(r, w) / d for r in reduced))
    ranges = []
    for j, aj in enumerate(a):
        half = reach * math.sqrt(float(ginv[j][j])) + 1
        ranges.append(range(math.floor(aj - half), math.ceil(aj + half) + 1))
    # (d e)^2 |v - w|^2 = |e n R - d W|^2 with W = e w
    target = [d * x.numerator * (e // x.denominator) for x in w]
    scale = (d * e) ** 2
    bound = (reach * (1 + 1e-9) + 1e-9) ** 2 * scale
    out = []
    for n in itertools.product(*ranges):
        diff = [e * sum(map(operator.mul, n, col)) - t for col, t in zip(zip(*reduced), target)] \
            if n else [-t for t in target]
        q = sum(x * x for x in diff)
        if q <= bound and keep(Fraction(q, scale)):
            m = tuple(sum(map(operator.mul, n, col)) for col in zip(*unimodular))
            out.append((m, lattice.vector(m) if m else tuple(Fraction(0) for _ in w), Fraction(q, scale)))
    return sorted(out, key=lambda p: (p[2], p[0]))


def _old_hits(deck, x, y, near):
    """`DeckGroup._hits` as it was first written: every hit composes
    rep * t_v from two isometries and applies the product to y."""
    hits = []
    for rep in deck.coset_reps:
        for _, v, d2 in near(groups.search_center(rep, x, y)):
            g = rep * Isometry.translation_by(v)
            hits.append((g, g(y), d2))
    hits.sort(key=lambda h: (h[2], tuple(h[1]), h[0].sort_key()))
    return hits


KERNEL_DECKS = ORBIT_DECKS + tuple(CUSTOM_DECKS)


@pytest.mark.parametrize("name", KERNEL_DECKS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_hits_match_the_composed_construction(name, data):
    deck = decks.deck(name)
    x = data.draw(points_in(deck.dimension))
    y = data.draw(points_in(deck.dimension))
    rho2 = data.draw(st.fractions(min_value=0, max_value=10, max_denominator=9))
    radius = data.draw(st.fractions(min_value=0, max_value=2, max_denominator=9))
    slack = data.draw(st.fractions(min_value=0, max_value=4, max_denominator=9))
    lattice = deck.lattice
    queries = (
        (groups._ball_limit(rho2),
         lambda w: _box_lattice_points(lattice, w, math.sqrt(rho2), lambda d2: d2 <= rho2)),
        (groups._plus_sqrt_limit(radius, slack),
         lambda w: _box_lattice_points(lattice, w, float(radius) + math.sqrt(slack),
                                       lambda d2: leq_radius_plus_sqrt(d2, radius, slack))),
    )
    built = []
    init = Isometry.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    for limit, near in queries:
        want = _old_hits(deck, x, y, near)
        with mock.patch.object(Isometry, "__init__", counted):
            got = deck._hits(x, y, limit)
        assert [tuple(h) for h in got] == want
        for (g, _, _), (h, _, _) in zip(got, want):
            assert type(g.orthogonal) is type(h.orthogonal)
        assert len(built) == len(got)  # one isometry per hit
        built.clear()


# ---------------------------------------------------------------------------
# the integer lattice scan against a Fraction box scan

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@st.composite
def lattices(draw):
    """A deck's lattice, or a random skewed one of rank 1-3 in dimension
    rank-3 with small rational entries."""
    if draw(st.booleans()):
        return decks.deck(draw(st.sampled_from(KERNEL_DECKS))).lattice
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    rows = [[draw(SMALL) for _ in range(n)] for _ in range(k)]
    assume(mat_rank(rows) == k)
    return groups.TranslationLattice(rows)


@given(lattices(), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_scan_matches_a_fraction_box_scan(lattice, data):
    w = tuple(data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
              for _ in range(lattice.dimension))
    rho2 = data.draw(st.fractions(min_value=0, max_value=9, max_denominator=9))
    r = data.draw(st.fractions(min_value=0, max_value=2, max_denominator=5))
    q2 = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=5))
    got = decks.lattice_scan(lattice, w, groups._ball_limit(rho2))
    assert got == _box_lattice_points(lattice, w, math.sqrt(rho2), lambda d2: d2 <= rho2)
    got = decks.lattice_scan(lattice, w, groups._plus_sqrt_limit(r, q2))
    assert got == _box_lattice_points(lattice, w, float(r) + math.sqrt(q2),
                                      lambda d2: leq_radius_plus_sqrt(d2, r, q2))
    # the rounded projection bounds the nearest distance
    ginv = lattice.gram_inverse
    a = mat_vec(ginv, tuple(vec_dot(b, w) for b in lattice.basis))
    d = vec_sub(lattice.vector([round(x) for x in a]), w)
    near = _box_lattice_points(lattice, w, math.sqrt(vec_dot(d, d)), lambda d2: d2 <= vec_dot(d, d))
    assert lattice.nearest_dist_sq(w) == near[0][2]


def test_scan_checks_the_cap_before_it_starts(monkeypatch):
    lattice = groups.TranslationLattice([(1, 0), (0, 1)])
    scanned = []
    enumerate_ = groups.TranslationLattice._enumerate
    monkeypatch.setattr(groups.TranslationLattice, "_enumerate",
                        lambda self, *a: scanned.append(1) or enumerate_(self, *a))
    monkeypatch.setattr(groups, "enumeration_cap", lambda: 50)
    assert len(decks.lattice_scan(lattice, (0, 0), groups._ball_limit(Fraction(9)))) == 29  # 7 x 7 fits 50
    with pytest.raises(CapExceeded) as err:
        decks.lattice_scan(lattice, (0, 0), groups._ball_limit(Fraction(16)))  # 9 x 9 = 81 candidates
    assert err.value.limit == 50
    with pytest.raises(CapExceeded):
        decks.deck("klein2").enumerate_orbit(Point((0, 0)), 100)
    # the nearest-plane bound keeps a far target's scan small
    assert lattice.nearest_dist_sq((10 ** 6 + Fraction(1, 2), 0)) == Fraction(1, 4)
    assert len(scanned) == 4


# ---------------------------------------------------------------------------
# normal forms against isometries

def _random_word(data, deck):
    gens = deck.generated().generators
    g = deck.generated().identity
    for i in data.draw(st.lists(st.sampled_from(range(len(gens))), max_size=10)):
        g = g * gens[i]
    return g


@pytest.mark.parametrize("name", KERNEL_DECKS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_normal_forms_multiply_and_invert_like_isometries(name, data):
    deck = decks.deck(name)
    g, h = _random_word(data, deck), _random_word(data, deck)
    nf = deck.normal_form
    for e in (g, h):
        i, v = deck.factor(e)
        assert (nf(e).coset, nf(e).coords) == (i, deck.lattice.coordinates(v))
        assert nf(e).isometry() == e and nf(e).to_obj() == e.to_obj()
    assert nf(g) * nf(h) == nf(g * h)
    assert nf(g).inverse() == nf(g.inverse())
    assert hash(nf(g) * nf(h)) == hash(nf(g * h))
    outsider = Isometry.translation_by([b / 2 for b in deck.lattice.basis[0]])
    with pytest.raises(InconsistentCosets):
        nf(outsider)


def _isometry_word_ball(identity, generators, radius):
    """(closed generators, ball): the generators closed under inverses and
    a breadth-first word ball by plain composition over the whole ball, as
    `word_ball` ran before groups carried a normal-form twin and before the
    search held three spheres."""
    gens = []
    for g in generators:
        for h in (g, g.inverse()):
            if h != identity and h not in gens:
                gens.append(h)
    lengths, frontier = {identity: 0}, [identity]
    for depth in range(1, radius + 1):
        grown = []
        for g in frontier:
            for s in gens:
                h = g * s
                if h not in lengths:
                    lengths[h] = depth
                    grown.append(h)
        frontier = grown
    return gens, lengths


def _cumulative(lengths, radius):
    return [sum(1 for d in lengths.values() if d <= r) for r in range(radius + 1)]


@pytest.mark.parametrize("name", KERNEL_DECKS)
def test_word_balls_in_normal_form_match_isometry_word_balls(name):
    deck = decks.deck(name)
    radius = 2 if name == "p4m" else 4
    gens, plain = _isometry_word_ball(Isometry.identity(deck.dimension), deck._generators(), radius)
    group = deck.generated()
    assert list(group.generators) == gens
    assert [w.isometry() for w in deck.words().generators] == gens
    words = groups.word_ball(deck.words(), radius)
    # the same elements, found in the same order, on either route
    assert [(w.isometry(), d) for w, d in words.items()] == list(plain.items())
    assert list(groups.word_ball(group, radius).items()) == list(plain.items())
    assert groups.word_ball_counts(group, radius) == _cumulative(plain, radius)
    x = Point(tuple(Fraction(k + 1, 7) for k in range(deck.dimension)))
    scale, disp = deck.word_displacements(x)
    assert all(Fraction(disp(w), scale) == w.isometry().displacement_sq(x) for w in words)
    # Milnor's word counts and pointwise failures, in ball order
    milnor = milnor_check(deck, x, list(range(1, radius + 1)))
    h_sq = max(g.displacement_sq(x) for g in gens)
    assert [row.word_count for row in milnor.rows] == _cumulative(plain, radius)[1:]
    assert list(milnor.pointwise_failures) == [
        (d, str(g.to_obj())) for g, d in plain.items() if g.displacement_sq(x) > h_sq * d * d]


QUARTER_TURN = Isometry(((0, -1), (1, 0)), (0, 0))


@pytest.mark.parametrize("group,radius", [
    (groups.heisenberg_group(), 6),
    # a finite group: its spheres run out after the half turn
    (groups.GeneratedGroup.closure(Isometry.identity(2), [QUARTER_TURN]), 5),
], ids=["heisenberg", "quarter-turn"])
def test_word_search_matches_a_plain_composition_search(group, radius):
    gens, plain = _isometry_word_ball(group.identity, group.generators, radius)
    assert list(group.generators) == gens
    assert list(groups.word_ball(group, radius).items()) == list(plain.items())
    assert groups.word_ball_counts(group, radius) == _cumulative(plain, radius)
    assert [groups.word_length(group, g) for g in plain] == list(plain.values())


def test_word_search_of_a_finite_group_stops_when_its_spheres_run_out():
    group = groups.GeneratedGroup.closure(Isometry.identity(2), [QUARTER_TURN])
    assert groups.word_ball_counts(group, 5) == [1, 3, 4, 4, 4, 4]
    reflection = Isometry(((1, 0), (0, -1)), (0, 0))
    with pytest.raises(NotFoundWithinCap, match="not in the generated group"):
        groups.word_length(group, reflection)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_zk_group_keeps_its_unit_translations_and_balls(k):
    units = [Isometry.translation_by([int(i == j) for j in range(k)]) for i in range(k)]
    gens, plain = _isometry_word_ball(Isometry.identity(k), units, 3)
    group = groups.zk_group(k)
    assert list(group.generators) == gens and group.words is not None
    assert list(groups.word_ball(group, 3).items()) == list(plain.items())
    assert groups.word_ball_counts(group, 3) == _cumulative(plain, 3)
    assert groups.word_length(group, Isometry.translation_by([3] + [-2] * (k - 1))) == 3 + 2 * (k - 1)
    with pytest.raises(NotFoundWithinCap):  # outside the deck group, refused without a search
        groups.word_length(group, Isometry.translation_by([Fraction(1, 2)] * k), cap=10)


def test_counting_paths_build_no_isometry(monkeypatch):
    group = groups.zk_group(3)
    torus = builtin_deck_group("torus2")
    built = []
    init = Isometry.__init__
    monkeypatch.setattr(Isometry, "__init__", lambda self, *a: built.append(1) or init(self, *a))
    cube = list(itertools.product(range(-7, 8), repeat=3))
    assert groups.word_ball_counts(group, 7) == [
        sum(1 for v in cube if sum(map(abs, v)) <= r) for r in range(8)]
    assert ball_counts(torus, Point((Fraction(1, 3), Fraction(1, 7))), [1, 4, 25]) == [5, 13, 81]
    assert built == []


MEMBERSHIP_PAIRS = [(name, None) for name in KERNEL_DECKS] + [
    (whole, sub) for sub, (whole, _) in decks.SUBGROUPS.items()]


@pytest.mark.parametrize("whole_name,sub_name", MEMBERSHIP_PAIRS)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_subgroup_membership_in_normal_form(whole_name, sub_name, data):
    whole = decks.deck(whole_name)
    sub = translation_subgroup(whole) if sub_name is None else decks.SUBGROUPS[sub_name][1]()
    inside = _membership(whole, sub)
    g = _random_word(data, whole)
    assert inside(whole.normal_form(g)) == (g in sub)


@pytest.mark.parametrize("whole_name,sub_name", MEMBERSHIP_PAIRS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_record_counts_match_counts_over_hits(whole_name, sub_name, data):
    whole = decks.deck(whole_name)
    sub = translation_subgroup(whole) if sub_name is None else decks.SUBGROUPS[sub_name][1]()
    x = data.draw(points_in(whole.dimension))
    radii_sq = data.draw(st.lists(
        st.fractions(min_value=0, max_value=12, max_denominator=9), min_size=1, max_size=4))
    dists = _image_dists(whole.enumerate_orbit(x, max(radii_sq)))
    assert ball_counts(whole, x, radii_sq) == [bisect.bisect_right(dists, r2) for r2 in radii_sq]

    radii = sorted(set(data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))))
    report = finite_index_comparison(whole, sub, x, radii)
    r0_sq = report.slack_dist_sq
    assert report.index == subgroup_index(whole, sub)
    whole_dists = _image_dists(whole.enumerate_orbit(x, radii[-1] ** 2))
    sub_dists = _image_dists(sub.enumerate_orbit_plus_sqrt(x, radii[-1], r0_sq))
    want = [(r, bisect.bisect_right(whole_dists, r * r),
             sum(1 for d2 in sub_dists if leq_radius_plus_sqrt(d2, r, r0_sq))) for r in radii]
    assert [(row.radius, row.whole_count, row.subgroup_count_extended) for row in report.rows] == want


def test_volumes_read_integer_records(monkeypatch):
    """Ball and thin-set volumes and the dual check scan integer orbit
    records: no `enumerate_orbit` call and no isometry, once warm."""
    deck = builtin_deck_group("moebiusxT")
    center = flatgeo.BASE_POINTS["moebiusxT"]

    def volumes():
        flatgeo.ball_volume(deck, center, 2, samples=1000)
        flatgeo.thin_set_volume(deck, center, 2, 1, flatgeo.soul_axis(deck), samples=1000)
        flatgeo.verify_dual(deck, center, [1, 2, 3], samples=1000)

    volumes()
    calls = []
    enumerate_orbit, init = groups.DeckGroup.enumerate_orbit, Isometry.__init__
    monkeypatch.setattr(groups.DeckGroup, "enumerate_orbit",
                        lambda *a: calls.append("enumerate") or enumerate_orbit(*a))
    monkeypatch.setattr(Isometry, "__init__", lambda self, *a: calls.append("isometry") or init(self, *a))
    volumes()
    assert calls == []


# ---------------------------------------------------------------------------
# the Monte Carlo estimator against a loop over its cells


def _per_cell_estimate(indicator, lo, hi, samples, seed):
    """The stratified estimate as a loop over cells: one ``uniform`` draw
    and one indicator call per cell, axis 0 varying fastest."""
    dim = lo.shape[0]
    s = flatgeo._strata_per_axis(samples, dim)
    cells = s ** dim
    per, extra = divmod(samples, cells)
    rng = np.random.default_rng(seed)
    edges = [np.linspace(lo[i], hi[i], s + 1) for i in range(dim)]
    total = var = 0.0
    for cell in range(cells):
        idx = [cell // s ** i % s for i in range(dim)]
        cell_lo = np.array([edges[i][idx[i]] for i in range(dim)])
        cell_hi = np.array([edges[i][idx[i] + 1] for i in range(dim)])
        m = per + (1 if cell < extra else 0)
        pts = rng.uniform(cell_lo, cell_hi, size=(m, dim))
        p = int(np.count_nonzero(indicator(pts))) / m
        vol = float(np.prod(cell_hi - cell_lo))
        total += vol * p
        var += vol * vol * p * (1.0 - p) / m
    seed_used = tuple(seed) if isinstance(seed, list) else (seed,)
    return flatgeo.VolumeEstimate(total, math.sqrt(var), samples, float(np.prod(hi - lo)), seed_used)


@st.composite
def estimator_cases(draw):
    dim = draw(st.integers(1, 3))
    lo = np.array(draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)))
    hi = lo + np.array(draw(st.lists(st.floats(0.01, 4), min_size=dim, max_size=dim)))
    # sample counts on both sides of the sampling block
    samples = draw(st.one_of(st.integers(64, 5_000), st.integers(64, 70_000),
                             st.integers(flatgeo._BLOCK_SAMPLES - 100, 70_000)))
    seed = draw(st.one_of(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 999), min_size=1, max_size=3)))
    c = np.array(draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        r = draw(st.floats(0.1, 3))
        return lo, hi, samples, seed, lambda pts: np.linalg.norm(pts - c, axis=1) <= r
    b = draw(st.floats(-2, 2))
    return lo, hi, samples, seed, lambda pts: pts @ c <= b


@given(estimator_cases())
@example((np.zeros(3), np.ones(3), 70_000, [7, 1], lambda pts: pts.sum(axis=1) <= 1))
@settings(max_examples=25, deadline=None)
def test_block_estimate_matches_the_per_cell_loop(case):
    lo, hi, samples, seed, inside = case
    rows = []

    def indicator(pts):
        rows.append(len(pts))
        return inside(pts)

    assert flatgeo._stratified_estimate(indicator, lo, hi, samples, seed) == _per_cell_estimate(
        inside, lo, hi, samples, seed)
    assert sum(rows) == samples and max(rows) <= flatgeo._BLOCK_SAMPLES
    if samples <= flatgeo._BLOCK_SAMPLES:
        assert len(rows) == 1


def _fraction_cloud(deck, center, reach_sq):
    """`_orbit_cloud` from orbit hits, as Fraction tuples sorted and converted one by one."""
    uniq = sorted({tuple(h.image) for h in deck.enumerate_orbit(center, reach_sq)})
    return np.array([[float(c) for c in p] for p in uniq], dtype=float), uniq.index(tuple(center))


MIXED_COORD = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 7, 10]))


@pytest.mark.parametrize("name", decks.DECK_NAMES)
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_integer_keyed_cloud_matches_the_fraction_cloud(name, data):
    deck = decks.deck(name)
    center = Point(data.draw(st.lists(MIXED_COORD, min_size=deck.dimension, max_size=deck.dimension)))
    reach_sq = data.draw(st.fractions(min_value=Fraction(1, 7), max_value=9, max_denominator=7))
    pts, idx = flatgeo._orbit_cloud(deck, center, reach_sq)
    want, want_idx = _fraction_cloud(deck, center, reach_sq)
    assert pts.shape == want.shape and pts.tobytes() == want.tobytes() and idx == want_idx


# ---------------------------------------------------------------------------
# ray extensions against a scan of deck elements

RAY_COORD = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _box_elements(deck, x, reach):
    """Every g = rep * t_v with |g(x) - x| <= reach, found by scanning a
    box of lattice coordinates, as (g, g(x) - x)."""
    basis = deck.lattice.basis
    out = []
    for rep in deck.coset_reps:
        w = vec_sub(tuple(rep.inverse()(x)), tuple(x))
        span = reach + math.sqrt(float(vec_dot(w, w)))
        ranges = [range(-k, k + 1)
                  for k in (math.floor(span / math.sqrt(float(vec_dot(b, b)))) + 1 for b in basis)]
        for m in itertools.product(*ranges):
            g = rep * Isometry.translation_by(deck.lattice.vector(m))
            c = vec_sub(tuple(g(x)), tuple(x))
            if vec_dot(c, c) <= reach * reach:
                out.append((g, c))
    return out


def _first_binding(deck, center, d, reach):
    """Least t at which some g with |g(center) - center| <= reach cuts the
    ray center + t d out of the Dirichlet cell: |z - g(center)| < |z - center|
    past t = |c|^2 / (2 <d, c>) for c = g(center) - center with <d, c> > 0."""
    ts = [vec_dot(c, c) / (2 * vec_dot(d, c))
          for _, c in _box_elements(deck, center, reach) if vec_dot(d, c) > 0]
    return min(ts, default=None)


@st.composite
def ray_cases(draw, name):
    deck = builtin_deck_group(name)
    center = Point(tuple(draw(COORD) for _ in range(deck.dimension)))
    target = Point(tuple(draw(RAY_COORD) for _ in range(deck.dimension)))
    d2, lifts = nearest_lifts(deck, center, target)
    assume(d2 != 0)
    return deck, center, target, d2, lifts


@pytest.mark.parametrize("name", ORBIT_DECKS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ray_scale_is_the_first_binding_element(name, data):
    deck, center, target, d2, lifts = data.draw(ray_cases(name))
    d = vec_sub(tuple(lifts[0]), tuple(center))
    rep = flatgeo.ray_extension(deck, center, target)
    if rep.infinite:
        assert _first_binding(deck, center, d, 6) is None
        return
    # an element binding at t has |c| <= 2 t |d|, so this box holds them all
    reach = 2 * float(rep.ray_scale) * math.sqrt(float(d2)) + 1
    assert _first_binding(deck, center, d, reach) == rep.ray_scale
    assert rep.tie == (len(lifts) > 1 or rep.ray_scale == 1)
    assert rep.extension_sq == (rep.ray_scale - 1) ** 2 * d2


@pytest.mark.parametrize("name", ORBIT_DECKS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_report_within_matches_extension_at_most(name, data):
    deck, center, target, _, _ = data.draw(ray_cases(name))
    rep = flatgeo.ray_extension(deck, center, target)
    hs = [Fraction(0), data.draw(st.fractions(min_value=0, max_value=4, max_denominator=16))]
    if rep.extension_sq is not None:
        # the extension itself when it is rational, else just below it
        ext = rep.extension_sq
        hs.append(Fraction(math.isqrt(ext.numerator), math.isqrt(ext.denominator)))
    for h in hs:
        assert rep.within(h) == flatgeo.extension_at_most(deck, center, target, h)
    with pytest.raises(ValueError):
        rep.within(-1)


@pytest.mark.parametrize("name", ORBIT_DECKS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_ray_window_jumps_to_its_certificate(name, data):
    deck, center, target, d2, lifts = data.draw(ray_cases(name))
    d = vec_sub(tuple(lifts[0]), tuple(center))
    windows = []
    records = groups.DeckGroup._records

    def recorded(self, x, y, limit):
        # every orbit scan of the ray, given its nearest lifts, is a window
        scale, den, rows = records(self, x, y, limit)
        assert x == y == center
        binds = any(vec_dot(vec_sub(tuple(Fraction(v, den) for v in image), tuple(x)),
                            mat_vec(self.coset_reps[c].orthogonal, d)) < 0
                    for _, image, _, c, _ in rows)
        windows.append(binds)
        return scale, den, rows

    with mock.patch.object(groups.DeckGroup, "_records", recorded):
        rep = flatgeo.ray_extension(deck, center, target, nearest=(d2, lifts))
    if rep.infinite or len(lifts) > 1:
        assert windows == []
        return
    first = windows.index(True)
    assert not any(windows[:first])  # the window only doubles while nothing binds
    assert len(windows) - first <= 2
    assert rep.search_radius_sq >= 4 * rep.ray_scale ** 2 * rep.direction_sq


# (deck, center, target) whose ray windows hold dozens to about a thousand records
RAY_BUILD_CASES = [
    ("cylinder2", "0,0", "3/2,1/16"), ("moebius2", "0,3/10", "1/3,7/5"),
    ("klein2", "1/10,1/10", "2/7,-3/5"), ("moebiusxT", "0,3/10,0", "1/2,7/4,1/9"),
    ("torus2", "0,0", "1/3,1/7"), ("p4m", "1/10,1/5", "1/3,-1/7"), ("rotated-klein", "0,0", "1/3,1/7"),
]


@pytest.mark.parametrize("name,center,target", RAY_BUILD_CASES)
def test_ray_queries_build_no_isometry_per_record(monkeypatch, name, center, target):
    """`dirichlet_query` and `extension_at_most` build at most one
    Isometry per coset plus one per lift, however many records their
    orbit windows hold."""
    deck = decks.deck(name)
    center, target = (Point(tuple(Fraction(x) for x in p.split(","))) for p in (center, target))
    built, scanned = [], []
    init, records = Isometry.__init__, groups.DeckGroup._records
    monkeypatch.setattr(Isometry, "__init__", lambda self, *a: built.append(1) or init(self, *a))

    def counted(self, *args):
        out = records(self, *args)
        scanned.append(len(out[2]))
        return out

    monkeypatch.setattr(groups.DeckGroup, "_records", counted)
    query = flatgeo.dirichlet_query(deck, center, target)
    for h in (0, Fraction(1, 2), 3):
        flatgeo.extension_at_most(deck, center, target, h)
    bound = len(deck.coset_reps) + len(query.lifts)
    assert sum(scanned) > 4 * bound
    assert len(built) <= bound


@pytest.mark.parametrize("name", DECK_GROUP_NAMES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_dirichlet_command_solves_one_quotient_distance(name, data):
    deck, center, target, _, _ = data.draw(ray_cases(name))
    calls = []
    quotient_dist_sq = groups.DeckGroup.quotient_dist_sq

    def counted(self, x, y):
        calls.append((x, y))
        return quotient_dist_sq(self, x, y)

    argv = ["dirichlet", "--space", name, "--base=" + ",".join(map(str, center)),
            "--point=" + ",".join(map(str, target)), "--within=1/2"]
    with mock.patch.object(groups.DeckGroup, "quotient_dist_sq", counted), \
            contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert len(calls) == 1
    doc = json.loads(out.getvalue())
    assert doc["in_cell"] == flatgeo.dirichlet_contains(deck, center, target)
    assert doc["within"]["ok"] == flatgeo.extension_at_most(deck, center, target, Fraction(1, 2))


# ---------------------------------------------------------------------------
# the half-grid warped solve against a whole-grid Dijkstra


def _whole_grid_distances(r_vals, ncol, ds, periodic, square, source, dr):
    """Heap Dijkstra over every row of the 8-neighbour grid, with the edge
    weights of ``warped._solve_grid`` written out one edge at a time. On a
    cylinder of one or two columns the wrapped edges come out as
    self-loops and parallel copies of stored pairs, no shorter than
    those, so they leave the distances unchanged."""
    nrow = len(r_vals)
    row_factor = warped.metric_factor(r_vals, square)
    mid_factor = warped.metric_factor(0.5 * (r_vals[:-1] + r_vals[1:]), square)
    adjacent = {(i, j): [] for i in range(nrow) for j in range(ncol)}

    def link(a, b, w):
        adjacent[a].append((b, w))
        adjacent[b].append((a, w))

    for i in range(nrow):
        for j in range(ncol):
            for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1)):
                ti, tj = i + di, j + dj
                if periodic:
                    tj %= ncol
                if ti >= nrow or not 0 <= tj < ncol:
                    continue
                if di == 0:
                    w = math.sqrt(row_factor[i]) * ds
                elif dj == 0:
                    w = dr
                else:
                    w = math.sqrt(dr * dr + mid_factor[i] * ds * ds)
                link((i, j), (ti, tj), w)
    dist = np.full((nrow, ncol), np.inf)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, w in adjacent[node]:
            if d + w < dist[nxt]:
                dist[nxt] = d + w
                heapq.heappush(heap, (d + w, nxt))
    return dist


# powers of two and steps that are not, whose r_vals[1] - r_vals[0] can
# differ from the step itself in the last bit
STEPS = st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.floats(0.05, 1.5))


@given(
    half=st.integers(1, 20),
    # cylinders of one to three columns, where wrapped edges alias, get
    # their own share of draws
    ncol=st.one_of(st.integers(1, 3), st.integers(1, 40)),
    dr=STEPS,
    ds=STEPS,
    periodic=st.booleans(),
    square=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_half_grid_solve_matches_the_whole_grid(half, ncol, dr, ds, periodic, square, data):
    r_vals = np.arange(-half, half + 1) * dr
    nrow = len(r_vals)
    # the centre row folds the grid; any other row, or an r-range shifted
    # off symmetry, must keep the whole grid
    row = data.draw(st.one_of(st.just(half), st.integers(0, nrow - 1)))
    shift = data.draw(st.sampled_from([0.0, 0.0, 0.5 * dr]))
    r_vals = r_vals + shift
    source = (row, data.draw(st.integers(0, ncol - 1)))
    # the flood may be cut to the rows within ``cut`` of the source row,
    # whose edges still use the whole grid's first difference as dr
    cut = data.draw(st.one_of(st.none(), st.integers(0, nrow)))
    rows = slice(0, nrow) if cut is None else slice(max(0, row - cut), row + cut + 1)
    graphs = []
    real = warped.dijkstra

    def spy(graph, *args, **kwargs):
        graphs.append((graph.shape[0], graph.nnz))
        return real(graph, *args, **kwargs)

    with mock.patch.object(warped, "dijkstra", spy):
        got = warped._solve_grid(r_vals, np.arange(ncol) * ds, ds, periodic, square, source, rows=cut)
    want = _whole_grid_distances(
        r_vals[rows], ncol, ds, periodic, square, (source[0] - rows.start, source[1]),
        dr=float(r_vals[1] - r_vals[0]),
    )
    assert np.array_equal(got, want)
    # only a centre-row source on an unshifted grid sees symmetric rows
    folded = row == half and shift == 0.0
    flooded = len(want) // 2 + 1 if folded else len(want)
    # one stored entry per neighbour pair
    pairs = {
        frozenset({(i, j), (i + di, (j + dj) % ncol if periodic else j + dj)})
        for i in range(flooded)
        for j in range(ncol)
        for di, dj in ((0, 1), (1, 0), (1, 1), (1, -1))
        if i + di < flooded and (periodic or 0 <= j + dj < ncol)
    }
    assert graphs == [(flooded * ncol, sum(len(pair) == 2 for pair in pairs))]


@given(
    k_max=st.integers(1, 150),
    square=st.booleans(),
    base=st.tuples(st.floats(0.1, 0.4), st.floats(0.1, 0.4)),
    scale=st.sampled_from([1.0, 0.5]),
)
@settings(max_examples=12, deadline=None)
def test_deck_distance_flood_matches_the_whole_window(k_max, square, base, scale):
    """The deck flood, cut to the rows a shortest path can reach, against
    a flood of its whole first window, written out here."""
    base_dr, base_ds = base
    climb = 3.0 * (2 * math.pi * k_max) ** (1 / 3) if square else 4.0 * math.sqrt(math.pi * k_max)
    r_win = min(2 * math.pi * k_max, climb) + 8.0
    dr = max(base_dr, 2.0 * r_win / 400.0) * scale
    half = math.ceil(r_win / dr)
    m = max(3, round(2 * math.pi / (base_ds * max(1.0, k_max / 10.0) * scale)))
    ds = 2 * math.pi / m
    pad = math.ceil(5.0 / ds)
    s_vals = (np.arange(k_max * m + 2 * pad + 1) - pad) * ds
    dist = warped._solve_grid(np.arange(-half, half + 1) * dr, s_vals, ds, False, square, (half, pad))
    want = dist[half, pad + m * np.arange(k_max + 1)]
    assert min(dist[0].min(), dist[-1].min()) > want.max()
    assert np.array_equal(warped._deck_distance_grid(k_max, scale, square, base), want)
