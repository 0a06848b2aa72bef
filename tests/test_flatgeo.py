"""Dirichlet cells, ray extensions, Monte Carlo volumes, classification."""

import math
import random
from fractions import Fraction

import pytest

from orbitlab import flatgeo
from orbitlab.errors import (
    NonCommutingGenerators,
    UnsupportedMethod,
    WrongLatticeRank,
)
from orbitlab.euclid import Isometry, Point
from orbitlab.flatgeo import (
    BASE_POINTS,
    ball_volume,
    classify_flat,
    dirichlet_contains,
    extension_at_most,
    nearest_lifts,
    ray_extension,
    reference_ball_volume,
    soul_axis,
    soul_dimension,
    thin_set_volume,
    verify_dual,
)
from orbitlab.groups import DeckGroup, TranslationLattice, builtin_deck_group

# --------------------------------------------------------------------------
# cells and lifts


def test_dirichlet_membership_torus():
    deck = builtin_deck_group("torus2")
    base = Point.of(0, 0)
    assert dirichlet_contains(deck, base, Point.of("2/5", 0))
    assert not dirichlet_contains(deck, base, Point.of("3/5", 0))
    # the boundary belongs to the closed cell
    assert dirichlet_contains(deck, base, Point.of("1/2", 0))


def test_nearest_lifts_counts():
    deck = builtin_deck_group("torus2")
    base = Point.of(0, 0)
    d2, lifts = nearest_lifts(deck, base, Point.of("1/2", "1/2"))
    assert d2 == Fraction(1, 2)
    assert len(lifts) == 4
    d2, lifts = nearest_lifts(deck, base, Point.of("1/4", 0))
    assert d2 == Fraction(1, 16)
    assert lifts == [Point.of("1/4", 0)]


# --------------------------------------------------------------------------
# ray extensions


def test_ray_extension_cylinder_closed_form():
    deck = builtin_deck_group("cylinder2")
    base = BASE_POINTS["cylinder2"]
    rng = random.Random(42)
    for _ in range(50):
        t = Fraction(rng.randint(-200, 200), 64)
        s = Fraction(rng.randint(1, 31), 64)
        rep = ray_extension(deck, base, Point.of(t, s))
        scale = Fraction(1) / (2 * s)
        assert rep.ray_scale == scale
        assert rep.extension_sq == (scale - 1) ** 2 * (t * t + s * s)
        assert not rep.tie and not rep.infinite


def test_ray_extension_tie_is_zero():
    deck = builtin_deck_group("cylinder2")
    rep = ray_extension(deck, BASE_POINTS["cylinder2"], Point.of(1, "1/2"))
    assert rep.tie
    assert rep.extension_sq == 0
    assert rep.extension == 0.0


def test_ray_extension_infinite_along_axis():
    deck = builtin_deck_group("cylinder2")
    rep = ray_extension(deck, BASE_POINTS["cylinder2"], Point.of(2, 0))
    assert rep.infinite
    assert rep.extension == math.inf


def test_ray_extension_infinite_across_moebius_band():
    deck = builtin_deck_group("moebiusxT")
    base = BASE_POINTS["moebiusxT"]
    target = Point.of(0, base[1] + 1, 0)
    assert ray_extension(deck, base, target).infinite


def test_ray_extension_torus_quarter():
    deck = builtin_deck_group("torus2")
    rep = ray_extension(deck, Point.of(0, 0), Point.of("1/4", 0))
    assert rep.ray_scale == 2
    assert rep.extension_sq == Fraction(1, 16)


def test_ray_extension_rejects_orbit_point():
    deck = builtin_deck_group("torus2")
    with pytest.raises(ValueError):
        ray_extension(deck, Point.of(0, 0), Point.of(1, 0))


def test_extension_at_most_agrees_with_exact_value():
    deck = builtin_deck_group("klein2")
    base = BASE_POINTS["klein2"]
    rng = random.Random(2024)
    checked = 0
    for _ in range(60):
        p = Point.of(Fraction(rng.randint(-40, 40), 16), Fraction(rng.randint(-40, 40), 16))
        if deck.quotient_dist_sq(base, p) == 0:
            continue
        rep = ray_extension(deck, base, p)
        if rep.infinite:
            assert not extension_at_most(deck, base, p, 100)
            continue
        h = Fraction(rng.randint(0, 32), 16)
        assert extension_at_most(deck, base, p, h) == (rep.extension_sq <= h * h)
        checked += 1
    assert checked > 20


# --------------------------------------------------------------------------
# reference volumes and Monte Carlo


def test_reference_volumes_known_points():
    assert reference_ball_volume("torus2", 0.25) == pytest.approx(math.pi / 16)
    assert reference_ball_volume("torus2", 0.9) == 1.0
    assert reference_ball_volume("cylinder2", 1.0) == pytest.approx(
        math.sqrt(3) / 2 + math.pi / 3
    )
    assert reference_ball_volume("cylinder2", 0.25) == pytest.approx(math.pi / 16)
    with pytest.raises(UnsupportedMethod):
        reference_ball_volume("moebiusxT", 1.0)
    with pytest.raises(ValueError):
        reference_ball_volume("torus2", 0.0)


def test_reference_torus_continuous_at_half():
    lo = reference_ball_volume("torus2", 0.5)
    hi = reference_ball_volume("torus2", 0.500001)
    assert abs(lo - hi) < 1e-4


@pytest.mark.parametrize("r", [0.25, 0.4, 0.6])
def test_ball_volume_torus_matches_reference(r):
    deck = builtin_deck_group("torus2")
    est = ball_volume(deck, BASE_POINTS["torus2"], Fraction(r).limit_denominator(100), samples=40_000, seed=3)
    ref = reference_ball_volume("torus2", r)
    assert abs(est.value - ref) <= max(3 * est.sigma, 1e-3)


def test_ball_volume_cylinder_matches_reference():
    deck = builtin_deck_group("cylinder2")
    est = ball_volume(deck, BASE_POINTS["cylinder2"], 1, samples=40_000, seed=5)
    ref = reference_ball_volume("cylinder2", 1.0)
    assert abs(est.value - ref) <= 3 * est.sigma


SIGMA_CASES = [("torus2", r) for r in (Fraction(1, 4), Fraction(2, 5), Fraction(3, 5))] + [
    ("cylinder2", r) for r in (Fraction(1, 2), 1, 2)
]
SIGMA_SEEDS = 30


def test_ball_volume_sigma_is_honest():
    # z = (estimate - exact) / sigma over fixed seeds should look standard
    # normal; each case has its own seeds, since a disc ball scales to the
    # same samples under the same seed
    zs = []
    for k, (name, r) in enumerate(SIGMA_CASES):
        deck = builtin_deck_group(name)
        ref = reference_ball_volume(name, float(r))
        for i in range(SIGMA_SEEDS):
            est = ball_volume(deck, BASE_POINTS[name], r, samples=20_000, seed=[k, i])
            zs.append((est.value - ref) / est.sigma)
    assert max(abs(z) for z in zs) <= 4
    assert sum(abs(z) > 3 for z in zs) <= 0.01 * len(zs)
    mean = sum(zs) / len(zs)
    sd = math.sqrt(sum((z - mean) ** 2 for z in zs) / (len(zs) - 1))
    assert 0.7 <= sd <= 1.2


def test_ball_volume_deterministic_per_seed():
    deck = builtin_deck_group("klein2")
    base = BASE_POINTS["klein2"]
    a = ball_volume(deck, base, 2, samples=5_000, seed=11)
    b = ball_volume(deck, base, 2, samples=5_000, seed=11)
    c = ball_volume(deck, base, 2, samples=5_000, seed=12)
    assert a.value == b.value and a.sigma == b.sigma
    assert a.value != c.value


def test_thin_set_slab_is_exact_for_large_radius():
    deck = builtin_deck_group("cylinder2")
    base = BASE_POINTS["cylinder2"]
    est = thin_set_volume(deck, base, 4, "1/2", 0, samples=20_000, seed=9)
    # B(4) covers the slab |x| <= 1/2 entirely, so the volume is exactly 1
    assert abs(est.value - 1.0) <= max(3 * est.sigma, 0.02)


def test_thin_set_redecides_only_near_ties(monkeypatch):
    # the float test settles every sample away from a tie; only near ties
    # is the exact quotient distance computed
    deck = builtin_deck_group("cylinder2")
    calls = []
    exact = DeckGroup.quotient_dist_sq
    monkeypatch.setattr(
        DeckGroup, "quotient_dist_sq", lambda self, x, y: calls.append(1) or exact(self, x, y)
    )
    est = thin_set_volume(deck, BASE_POINTS["cylinder2"], 4, 1, 0, samples=20_000, seed=7)
    assert len(calls) < 0.01 * est.samples
    # the same estimate as deciding every in-cell sample exactly
    assert est.value == 1.989600000000001


def test_thin_set_ratio_decays():
    deck = builtin_deck_group("cylinder2")
    base = BASE_POINTS["cylinder2"]
    small = thin_set_volume(deck, base, 4, 1, 0, samples=10_000, seed=[7, 0])
    large = thin_set_volume(deck, base, 32, 1, 0, samples=10_000, seed=[7, 1])
    assert large.value / 32 < (small.value / 4) / 2


def test_verify_dual_torus_small():
    deck = builtin_deck_group("torus2")
    rep = verify_dual(deck, BASE_POINTS["torus2"], [1, 2], samples=20_000, seed=7)
    assert rep.ok
    assert rep.rows[0].count_r == 5  # orbit points within distance 1
    again = verify_dual(deck, BASE_POINTS["torus2"], [1, 2], samples=20_000, seed=7)
    assert [r.volume for r in rep.rows] == [r.volume for r in again.rows]


def test_verify_dual_word_variant():
    deck = builtin_deck_group("cylinder2")
    rep = verify_dual(deck, BASE_POINTS["cylinder2"], [1, 2], samples=20_000, seed=7, word_variant=True)
    assert rep.word_rows
    assert rep.ok


def _record_trees(monkeypatch):
    """Patch the module-global ``cKDTree`` (the name the tracer hooks) to
    log the point count of every tree built."""
    sizes = []
    real = flatgeo.cKDTree

    def spy(points):
        sizes.append(len(points))
        return real(points)

    monkeypatch.setattr(flatgeo, "cKDTree", spy)
    return sizes


def test_every_volume_builds_its_trees_through_the_module_global(monkeypatch):
    deck = builtin_deck_group("cylinder2")
    base = BASE_POINTS["cylinder2"]
    calls = [
        (ball_volume, (deck, base, 2), 1),
        (thin_set_volume, (deck, base, 4, 1, 0), 1),
        (verify_dual, (deck, base, [1, 2, 3]), 3),
    ]
    plain = [fn(*args, samples=5_000, seed=3) for fn, args, _ in calls]
    sizes = _record_trees(monkeypatch)
    for (fn, args, trees), want in zip(calls, plain):
        sizes.clear()
        assert fn(*args, samples=5_000, seed=3) == want
        assert len(sizes) == trees and min(sizes) > 1


# --------------------------------------------------------------------------
# classification


def test_classify_cylinder_is_product():
    c = classify_flat([Isometry.translation_by((0, 1))])
    assert c.kind == "product"
    assert c.reflecting_count == 0
    assert c.base_dimension == 1


def test_classify_moebius_generator():
    deck = builtin_deck_group("moebius2")
    c = classify_flat(list(deck.word_generators))
    assert c.kind == "moebius"
    assert c.reflecting_count == 1


def test_classify_two_reflections_collapse_to_one():
    refl = [
        Isometry([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (1, 0, 0)),
        Isometry([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 1, 0)),
    ]
    c = classify_flat(refl)
    assert c.kind == "moebius"
    assert c.reflecting_count == 1
    translations = [g for g in c.transformed_generators if g.is_translation]
    assert len(translations) == 1
    assert translations[0].translation == (Fraction(-1), Fraction(1), Fraction(0))


def test_classify_rejects_noncommuting():
    deck = builtin_deck_group("klein2")
    with pytest.raises(NonCommutingGenerators):
        classify_flat(list(deck.word_generators))


def test_classify_rejects_wrong_rank():
    with pytest.raises(WrongLatticeRank):
        classify_flat([Isometry.translation_by((1, 0, 0))])
    with pytest.raises(WrongLatticeRank):
        classify_flat([Isometry.translation_by((1, 0)), Isometry.translation_by((0, 1))])


def test_classify_invariant_under_conjugation():
    rng = random.Random(31)
    deck = builtin_deck_group("moebius2")
    gens = list(deck.word_generators)
    for _ in range(10):
        shift = [Fraction(rng.randint(-16, 16), 4) for _ in range(2)]
        flip = rng.random() < 0.5
        rows = [[0, 1], [1, 0]] if flip else [[1, 0], [0, 1]]
        conj = Isometry(rows, shift)
        moved = [conj * g * conj.inverse() for g in gens]
        assert classify_flat(moved).kind == "moebius"


def test_soul_dimensions_table():
    assert soul_dimension("cylinder2") == 1
    assert soul_dimension("moebius2") == 1
    assert soul_dimension("torus2") == 2
    assert soul_dimension("moebiusxT") == 2
    assert soul_dimension("klein2") == 2
    assert [soul_dimension(f"z{k}") for k in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(KeyError):
        soul_dimension("nope")


@pytest.mark.parametrize("name,axis", [
    ("torus2", None), ("cylinder2", 0), ("moebius2", 1), ("klein2", None), ("moebiusxT", 1), ("z2", None),
])
def test_soul_axes(name, axis):
    assert soul_axis(builtin_deck_group(name)) == axis


def test_soul_axis_refuses_a_soul_off_the_coordinate_hyperplane():
    # s(x, y) = (x + 1, 1 - y) fixes the line y = 1/2, so |y| is not the
    # distance to the soul
    glide = Isometry([[1, 0], [0, -1]], (1, 1))
    deck = DeckGroup(2, TranslationLattice([(2, 0)]), (Isometry.identity(2), glide))
    with pytest.raises(UnsupportedMethod):
        soul_axis(deck)
