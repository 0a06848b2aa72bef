"""Growth fitting, the displacement comparison, and the index comparison."""

from fractions import Fraction

import pytest

from orbitlab.errors import InsufficientSamples
from orbitlab.euclid import Isometry, Point
from orbitlab.groups import DeckGroup, TranslationLattice, builtin_deck_group, zk_deck, zk_group
from orbitlab.orbit import (
    coset_transversal,
    finite_index_comparison,
    fit_power_law,
    milnor_check,
    orbit_ball_count,
    orbit_growth,
    subgroup_index,
    translation_subgroup,
    word_growth,
)


def test_fit_power_law_recovers_exact_exponent():
    radii = [2.0, 4.0, 8.0, 16.0]
    counts = [3 * r**2 for r in radii]
    expo, r2 = fit_power_law(radii, counts)
    assert abs(expo - 2.0) < 1e-12
    assert r2 > 0.999999


def test_fit_power_law_needs_three_points():
    with pytest.raises(InsufficientSamples):
        fit_power_law([1.0, 2.0], [3, 5])


def test_orbit_growth_z2():
    series = orbit_growth(zk_deck(2), Point.of(0, 0), [4, 8, 16])
    assert series.counts == (49, 197, 797)
    assert abs(series.fitted_exponent - 2.0) < 0.1


def test_word_growth_z2():
    series = word_growth(zk_group(2), [4, 8, 16])
    assert series.counts == (41, 145, 545)
    assert abs(series.fitted_exponent - 2.0) < 0.2


def test_orbit_ball_count_moebius_frozen():
    deck = builtin_deck_group("moebius2")
    x = Point.of(0, Fraction(3, 10))
    got = [orbit_ball_count(deck, x, r) for r in (4, 8, 16, 32, 64)]
    assert got == [9, 17, 33, 65, 129]


def test_milnor_z2():
    rep = milnor_check(zk_deck(2), Point.of(0, 0), [1, 2, 3, 4, 5])
    assert rep.displacement_bound_sq == 1
    assert rep.ok
    assert [r.word_count for r in rep.rows] == [5, 13, 25, 41, 61]
    # h = 1, so the orbit column is the euclidean ball count
    assert [r.orbit_count for r in rep.rows] == [5, 13, 29, 49, 81]


def test_milnor_moebius_displacement_bound():
    deck = builtin_deck_group("moebius2")
    x = Point.of(0, Fraction(3, 10))
    rep = milnor_check(deck, x, [1, 2, 3, 4])
    assert rep.displacement_bound_sq == Fraction(34, 25)
    assert rep.ok and not rep.pointwise_failures


def test_milnor_rejects_fixed_base_point():
    # the cylinder reflection fixes points with y = 1/2 displacement... use a
    # deck whose only word generator fixes the base outright
    lat = TranslationLattice([[1, 0]])
    s = Isometry([[1, 0], [0, -1]], (0, 0))
    deck = DeckGroup(2, lat, (Isometry.identity(2), s), word_generators=(s,))
    with pytest.raises(ValueError):
        milnor_check(deck, Point.of(0, 0), [1, 2])


def test_milnor_flags_foreign_generators():
    """A word generator outside the deck group must break the count bound."""
    lat = TranslationLattice([[1, 0], [0, 1]])
    half = Isometry.translation_by(("1/2", 0))
    deck = DeckGroup(2, lat, (Isometry.identity(2),), word_generators=(half,))
    rep = milnor_check(deck, Point.of(0, 0), [1])
    assert not rep.ok
    # pointwise containment still holds; only the count comparison fails
    assert not rep.pointwise_failures
    assert rep.rows[0].word_count == 3
    assert rep.rows[0].orbit_count == 1


def test_subgroup_index_pure_lattices():
    whole = zk_deck(2)
    sublat = TranslationLattice([[2, 0], [0, 3]])
    sub = DeckGroup(2, sublat, (Isometry.identity(2),))
    assert subgroup_index(whole, sub) == 6


def test_subgroup_index_rejects_outsider():
    whole = builtin_deck_group("moebius2")
    stranger = DeckGroup(2, TranslationLattice([[1, 0]]), (Isometry.identity(2),))
    with pytest.raises(ValueError):
        subgroup_index(whole, stranger)


def test_translation_subgroup_moebius():
    deck = builtin_deck_group("moebius2")
    sub = translation_subgroup(deck)
    assert sub.lattice.basis == ((Fraction(2), Fraction(0)),)
    assert sub.index_over_lattice == 1
    assert subgroup_index(deck, sub) == 2


def test_coset_transversal_covers():
    deck = builtin_deck_group("klein2")
    sub = translation_subgroup(deck)
    reps = [k.isometry() for k in coset_transversal(deck, sub, 2)]
    assert len(reps) == 2
    assert reps[0] == Isometry.identity(2)
    # the nontrivial representative is a genuine reflection
    assert not reps[1].is_translation


@pytest.mark.parametrize(
    "name,base,r0_sq",
    [
        ("klein2", Point.of(Fraction(1, 10), Fraction(1, 10)), Fraction(26, 25)),
        ("moebius2", Point.of(0, Fraction(3, 10)), Fraction(34, 25)),
    ],
)
def test_finite_index_comparison(name, base, r0_sq):
    deck = builtin_deck_group(name)
    sub = translation_subgroup(deck)
    rep = finite_index_comparison(deck, sub, base, [1, 2, 4])
    assert rep.index == 2
    assert rep.slack_dist_sq == r0_sq
    assert rep.ok
    for row in rep.rows:
        assert row.bound == 2 * row.subgroup_count_extended


def test_finite_index_trivial_pair():
    deck = zk_deck(2)
    rep = finite_index_comparison(deck, deck, Point.of(0, 0), [1, 2])
    assert rep.index == 1
    assert rep.slack_dist_sq == 0
    # with r0 = 0 and index 1 the two counts agree exactly
    for row in rep.rows:
        assert row.whole_count == row.subgroup_count_extended


def test_growth_series_exponent_increases_with_dimension():
    radii = [4, 8, 16]
    e2 = orbit_growth(zk_deck(2), Point.of(0, 0), radii).fitted_exponent
    e3 = orbit_growth(zk_deck(3), Point.of(0, 0, 0), radii).fitted_exponent
    assert e2 < e3
    assert abs(e3 - 3.0) < 0.25
    # reproducibility is exact: same inputs, same fit
    assert orbit_growth(zk_deck(2), Point.of(0, 0), radii).fitted_exponent == e2
