"""Word balls, exact lattice enumeration, and deck groups."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from orbitlab.errors import (
    CapExceeded,
    DegenerateLattice,
    DimensionMismatch,
    InconsistentCosets,
    NotFoundWithinCap,
)
from orbitlab.euclid import Isometry, Point
from orbitlab.groups import (
    HEISENBERG_IDENTITY,
    DeckGroup,
    GeneratedGroup,
    HeisenbergElement,
    TranslationLattice,
    _ball_limit,
    _plus_sqrt_limit,
    builtin_deck_group,
    builtin_generated_group,
    enumeration_cap,
    heisenberg_group,
    word_ball,
    word_ball_counts,
    word_length,
    zk_deck,
    zk_group,
)
from orbitlab.orbit import ball_counts, finite_index_comparison, milnor_check, translation_subgroup

from decks import lattice_scan

# --------------------------------------------------------------------------
# word balls


def test_z2_word_ball_counts_closed_form():
    counts = word_ball_counts(zk_group(2), 5)
    assert counts == [2 * r * r + 2 * r + 1 for r in range(6)]


def test_z1_word_ball_counts():
    assert word_ball_counts(zk_group(1), 4) == [1, 3, 5, 7, 9]


def test_word_ball_is_symmetric():
    lengths = word_ball(zk_group(2), 4)
    for g, d in lengths.items():
        assert lengths[g.inverse()] == d


def test_word_length_translation():
    assert word_length(zk_group(2), Isometry.translation_by((3, -4))) == 7
    assert word_length(zk_group(2), Isometry.identity(2)) == 0


def test_word_ball_cap():
    with pytest.raises(CapExceeded):
        word_ball(zk_group(2), 10, cap=50)


def test_generated_group_refuses_a_generating_set_that_is_not_symmetric():
    # the quarter turn without its inverse: a word search holding three
    # spheres would meet the identity again in this group of order 4
    quarter = Isometry(((0, -1), (1, 0)), (0, 0))
    with pytest.raises(ValueError, match="closed under inverses"):
        GeneratedGroup(Isometry.identity(2), (quarter,))
    with pytest.raises(ValueError, match="omit the identity"):
        GeneratedGroup(Isometry.identity(2), (Isometry.identity(2),))
    assert GeneratedGroup(Isometry.identity(2), (quarter, quarter.inverse())).generators[0] == quarter


@pytest.mark.parametrize("group,radius", [(zk_group(2), 5), (heisenberg_group(), 4)],
                         ids=["z2", "heisenberg"])
def test_word_searches_stop_exactly_when_the_ball_passes_the_cap(group, radius):
    ball = word_ball(group, radius)
    size = len(ball)
    assert word_ball(group, radius, cap=size) == ball
    assert word_ball_counts(group, radius, cap=size)[-1] == size
    with pytest.raises(CapExceeded):
        word_ball(group, radius, cap=size - 1)
    with pytest.raises(CapExceeded):
        word_ball_counts(group, radius, cap=size - 1)
    # word_length finds sphere d exactly when B(d) fits, whichever element
    # of the sphere comes first
    sphere = [g for g, d in ball.items() if d == radius]
    for g in (sphere[0], sphere[-1]):
        assert word_length(group, g, cap=size) == radius
        with pytest.raises(NotFoundWithinCap):
            word_length(group, g, cap=size - 1)


def test_milnor_check_stops_exactly_when_the_word_ball_passes_the_cap():
    size = word_ball_counts(zk_group(2), 5)[-1]
    rep = milnor_check(zk_deck(2), Point.of(0, 0), [2, 5], cap=size)
    assert [row.word_count for row in rep.rows] == [13, size]
    with pytest.raises(CapExceeded):
        milnor_check(zk_deck(2), Point.of(0, 0), [2, 5], cap=size - 1)


def test_word_ball_counts_hold_three_spheres_not_the_ball():
    # the whole ball of 20,201 words peaks near 3.6 MiB, three spheres
    # near 0.3 MiB; at r = 100 the traced search takes about a second
    group = zk_group(2)
    tracemalloc.start()
    try:
        counts = word_ball_counts(group, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[-1] == 2 * 100 * 100 + 2 * 100 + 1
    assert peak < 2 * 2**20


def test_word_length_gives_up_within_cap():
    target = Isometry.translation_by((500, 0))
    with pytest.raises(NotFoundWithinCap):
        word_length(zk_group(2), target, cap=100)


def test_enumeration_cap_env(monkeypatch):
    monkeypatch.setenv("ORBITLAB_CAP", "123")
    assert enumeration_cap() == 123
    monkeypatch.delenv("ORBITLAB_CAP")
    assert enumeration_cap() == 10_000_000


def test_generated_group_closure_dedupes():
    t = Isometry.translation_by((1,))
    g = GeneratedGroup.closure(Isometry.identity(1), [t, t, t.inverse()])
    assert len(g.generators) == 2


# --------------------------------------------------------------------------
# Heisenberg arithmetic


def test_heisenberg_product_and_inverse():
    x = HeisenbergElement(1, 0, 0)
    y = HeisenbergElement(0, 1, 0)
    assert x * y == HeisenbergElement(1, 1, 1)
    assert y * x == HeisenbergElement(1, 1, 0)
    rng = random.Random(5)
    for _ in range(100):
        g = HeisenbergElement(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert g * g.inverse() == HEISENBERG_IDENTITY
        assert g.inverse() * g == HEISENBERG_IDENTITY


def test_heisenberg_commutator_is_central_generator():
    x = HeisenbergElement(1, 0, 0)
    y = HeisenbergElement(0, 1, 0)
    z = x * y * x.inverse() * y.inverse()
    assert z == HeisenbergElement(0, 0, 1)
    assert word_length(heisenberg_group(), z) == 4


def test_heisenberg_associative():
    rng = random.Random(6)
    for _ in range(100):
        a, b, c = (
            HeisenbergElement(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


# --------------------------------------------------------------------------
# lattices


def test_lattice_rejects_dependent_basis():
    with pytest.raises(DegenerateLattice):
        TranslationLattice([[1, 2], [2, 4]])


def test_lattice_rejects_ragged_basis():
    with pytest.raises(DimensionMismatch):
        TranslationLattice([[1, 0], [0, 1, 0]])


def test_lattice_coordinates_round_trip():
    lat = TranslationLattice([["1/2", 0], [0, "1/3"]])
    rng = random.Random(11)
    for _ in range(50):
        m = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert lat.coordinates(lat.vector(m)) == m
    assert lat.coordinates((Fraction(1, 4), Fraction(0))) is None
    assert (Fraction(3, 2), Fraction(2, 3)) in lat


# "points near" a target: the lattice scan under a ball or radius-plus-sqrt limit
def test_points_near_integer_lattice():
    lat = TranslationLattice([[1, 0], [0, 1]])
    pts = lattice_scan(lat, (0, 0), _ball_limit(Fraction(2)))
    assert len(pts) == 9
    assert pts[0][2] == 0


def test_points_near_skewed_lattice():
    lat = TranslationLattice([[1, 1], [1, -1]])  # checkerboard sublattice
    pts = lattice_scan(lat, (0, 0), _ball_limit(Fraction(2)))
    assert len(pts) == 5
    assert {p[1] for p in pts} == {
        (0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)
    }


def _brute_points(basis, target, rho2, box=25):
    """Direct double/triple loop over coordinates, the slow way."""
    hits = set()
    k = len(basis)
    from itertools import product as iproduct

    for m in iproduct(range(-box, box + 1), repeat=k):
        v = [sum(Fraction(m[i]) * Fraction(basis[i][j]) for i in range(k)) for j in range(len(target))]
        d2 = sum((a - Fraction(b)) ** 2 for a, b in zip(v, target))
        if d2 <= rho2:
            hits.add(m)
    return hits


@pytest.mark.parametrize("seed", [0, 1])
def test_points_near_matches_brute_force(seed):
    rng = random.Random(seed)
    basis = [[Fraction(rng.randint(1, 3), 2), Fraction(rng.randint(-2, 2), 3)],
             [Fraction(rng.randint(-2, 2), 3), Fraction(rng.randint(1, 3), 2)]]
    try:
        lat = TranslationLattice(basis)
    except DegenerateLattice:
        pytest.skip("random basis degenerated")
    for _ in range(10):
        target = (Fraction(rng.randint(-6, 6), 5), Fraction(rng.randint(-6, 6), 5))
        rho2 = Fraction(rng.randint(1, 30), 4)
        fast = {p[0] for p in lattice_scan(lat, target, _ball_limit(rho2))}
        assert fast == _brute_points(basis, target, rho2)


def test_nearest_dist_sq_matches_brute_force():
    rng = random.Random(77)
    lat = TranslationLattice([["3/2", 0], ["1/2", 1]])
    for _ in range(30):
        target = (Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 7))
        best = min(
            sum((a - b) ** 2 for a, b in zip(lat.vector(m), target))
            for m in ((i, j) for i in range(-15, 16) for j in range(-15, 16))
        )
        assert lat.nearest_dist_sq(target) == best


def test_points_near_plus_sqrt_boundary():
    lat = TranslationLattice([[1]])
    # |v| <= 1 + sqrt(4) = 3 exactly: seven integers
    pts = lattice_scan(lat, (0,), _plus_sqrt_limit(Fraction(1), Fraction(4)))
    assert [p[1][0] for p in pts] == [0, -1, 1, -2, 2, -3, 3]


def test_points_near_plus_sqrt_contains_plain_ball():
    lat = TranslationLattice([[1, 1], [1, -1]])
    plain = {p[0] for p in lattice_scan(lat, ("1/5", "2/5"), _ball_limit(Fraction(9)))}
    extended = {p[0] for p in lattice_scan(lat, ("1/5", "2/5"), _plus_sqrt_limit(Fraction(3), Fraction(2)))}
    assert plain <= extended


def test_rank_zero_lattice():
    lat = TranslationLattice([])
    assert lat.rank == 0
    assert lat.nearest_dist_sq((Fraction(1), Fraction(2))) == 5


# --------------------------------------------------------------------------
# deck groups


def test_deck_group_rejects_nonpreserving_rep():
    lat = TranslationLattice([[1, 0]])
    rot = Isometry([[0, -1], [1, 0]], (0, 0))
    with pytest.raises(InconsistentCosets):
        DeckGroup(2, lat, (Isometry.identity(2), rot))


def test_deck_group_rejects_duplicate_coset():
    lat = TranslationLattice([[1, 0], [0, 1]])
    with pytest.raises(InconsistentCosets):
        DeckGroup(2, lat, (Isometry.identity(2), Isometry.translation_by((1, 0))))


def test_deck_group_rejects_nonclosed_cosets():
    lat = TranslationLattice([[3, 0], [0, 1]])
    s = Isometry([[1, 0], [0, -1]], (1, 0))  # s^2 = t(2,0), not in the lattice
    with pytest.raises(InconsistentCosets):
        DeckGroup(2, lat, (Isometry.identity(2), s))


def test_factor_round_trip():
    deck = builtin_deck_group("moebius2")
    rng = random.Random(13)
    for _ in range(40):
        i = rng.randrange(len(deck.coset_reps))
        v = deck.lattice.vector((rng.randint(-5, 5),))
        g = deck.coset_reps[i] * Isometry.translation_by(v)
        j, w = deck.factor(g)
        assert j == i and w == v
    outsider = Isometry.translation_by(("1/2", 0))
    assert outsider not in deck


def test_cosets_sharing_a_matrix():
    """Z^2 with coset representatives I and t(1/2, 0), the group (1/2)Z x Z:
    both cosets share the identity matrix, so membership, normal forms and
    the word tables must try each, not stop at the first."""
    half = Isometry.translation_by((Fraction(1, 2), 0))
    lat = TranslationLattice([(1, 0), (0, 1)])
    deck = DeckGroup(2, lat, (Isometry.identity(2), half))
    origin = Point.of(0, 0)
    assert half in deck and deck.coset_index(half) == 1 and deck.factor(half) == (1, (0, 0))
    for h in deck.enumerate_orbit(origin, 9):
        assert deck.normal_form(h.element).isometry() == h.element

    def box(reach_sq, step=Fraction(1, 2)):
        """Orbit points (a step, b) with (a step)^2 + b^2 <= reach_sq."""
        return sum(1 for a in range(-14, 15) for b in range(-7, 8) if (a * step) ** 2 + b * b <= reach_sq)

    squares = DeckGroup(2, lat, deck.coset_reps,
                        word_generators=(Isometry.translation_by((1, 0)), Isometry.translation_by((0, 1))))
    assert squares.generated().words is not None
    milnor = milnor_check(squares, origin, [1, 2, 3])
    assert not milnor.pointwise_failures
    orbit_counts = [box(r * r) for r in (1, 2, 3)]
    assert ball_counts(deck, origin, [1, 4, 9]) == orbit_counts
    assert [(row.word_count, row.orbit_count) for row in milnor.rows] == [
        (2 * r * r + 2 * r + 1, c) for r, c in zip((1, 2, 3), orbit_counts)]

    index = finite_index_comparison(deck, translation_subgroup(deck), origin, [1, 2])
    assert index.index == 2 and index.slack_dist_sq == Fraction(1, 4)
    assert [(row.whole_count, row.subgroup_count_extended) for row in index.rows] == [
        (box(r * r), box((r + Fraction(1, 2)) ** 2, step=1)) for r in (1, 2)]


def test_moebius_orbit_distances():
    """Squared orbit distances at (0, 3/10): k^2 plus 9/25 when k is odd."""
    deck = builtin_deck_group("moebius2")
    x = Point.of(0, Fraction(3, 10))
    hits = deck.enumerate_orbit(x, 5)
    assert [h.dist_sq for h in hits] == [0, Fraction(34, 25), Fraction(34, 25), 4, 4]
    # r = 4 closed ball: k in {-4..4}, nine elements
    assert len(deck.enumerate_orbit(x, 16)) == 9


def test_zk_deck_orbit_counts():
    deck = zk_deck(2)
    base = Point.of(0, 0)
    for r, want in [(1, 5), (2, 13), (5, 81)]:
        assert len(deck.enumerate_orbit(base, r * r)) == want


def test_enumerate_orbit_plus_sqrt_extends_plain():
    deck = builtin_deck_group("klein2")
    x = Point.of(Fraction(1, 10), Fraction(1, 10))
    plain = {h.element for h in deck.enumerate_orbit(x, 9)}
    ext = {h.element for h in deck.enumerate_orbit_plus_sqrt(x, 3, Fraction(26, 25))}
    assert plain < ext


def test_quotient_dist_symmetry_and_identity():
    deck = builtin_deck_group("klein2")
    rng = random.Random(3)
    for _ in range(30):
        x = Point.of(Fraction(rng.randint(-20, 20), 10), Fraction(rng.randint(-20, 20), 10))
        y = Point.of(Fraction(rng.randint(-20, 20), 10), Fraction(rng.randint(-20, 20), 10))
        assert deck.quotient_dist_sq(x, y) == deck.quotient_dist_sq(y, x)
    assert deck.quotient_dist_sq(x, x) == 0


def test_quotient_dist_torus_wraps():
    deck = builtin_deck_group("torus2")
    a = Point.of(Fraction(9, 10), 0)
    b = Point.of(0, 0)
    assert deck.quotient_dist_sq(a, b) == Fraction(1, 100)


def test_builtin_names():
    assert builtin_deck_group("torus2").name == "torus2"
    with pytest.raises(KeyError):
        builtin_deck_group("nope")
    with pytest.raises(KeyError):
        builtin_generated_group("nope")


def test_builtin_generated_from_deck():
    g = builtin_generated_group("moebius2")
    counts = word_ball_counts(g, 3)
    assert counts[0] == 1
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_finite_deck_group_hits_are_group_elements():
    """A rank-0 lattice: the point group of the square alone. Each hit is
    one of the eight coset representatives, mapping x to its image."""
    mats = [[[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
            [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]]]
    deck = DeckGroup(2, TranslationLattice([]), [Isometry(m, (0, 0)) for m in mats])
    x = Point.of(Fraction(1, 3), Fraction(1, 5))
    hits = deck.enumerate_orbit(x, 10)
    assert sorted(h.element.sort_key() for h in hits) == sorted(r.sort_key() for r in deck.coset_reps)
    assert all(h.element(x) == h.image for h in hits)
    assert len({tuple(h.image) for h in hits}) == 8
    assert deck.quotient_dist_sq(x, Point.of(Fraction(-1, 5), Fraction(1, 3))) == 0
