"""Exact rational isometries: parsing, algebra, square-root bounds."""

import math
import random
from fractions import Fraction

import pytest

from orbitlab.euclid import (
    Isometry,
    Point,
    frac,
    is_orthogonal,
    leq_radius_plus_sqrt,
    mat_inverse,
    mat_rank,
    point_distance_sq,
    sqrt_lower,
    sqrt_upper,
)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("3/10", Fraction(3, 10)),
        ("0.3", Fraction(3, 10)),
        ("-7/2", Fraction(-7, 2)),
        (4, Fraction(4)),
        (Fraction(5, 6), Fraction(5, 6)),
    ],
)
def test_frac_parsing(raw, expected):
    assert frac(raw) == expected


def test_frac_float_is_exact_binary():
    # 0.5 is representable; frac must not round-trip through repr
    assert frac(0.5) == Fraction(1, 2)
    assert frac(0.1) == Fraction(0.1)  # the exact binary value, not 1/10


def test_frac_rejects_garbage():
    with pytest.raises(ValueError):
        frac("abc")


def test_point_basics():
    p = Point.of(1, "1/2")
    assert p.dimension == 2
    assert p[1] == Fraction(1, 2)
    assert point_distance_sq(p, Point.of(0, 0)) == Fraction(5, 4)


def test_isometry_validates_orthogonality():
    with pytest.raises(ValueError):
        Isometry([[1, 1], [0, 1]], (0, 0))


def test_translation_and_reflection():
    t = Isometry.translation_by((2, 3))
    assert t.is_translation
    s = Isometry([[1, 0], [0, -1]], (1, 0))
    assert not s.is_translation
    p = Point.of(0, Fraction(3, 10))
    q = s(p)
    assert tuple(q) == (Fraction(1), Fraction(-3, 10))
    # s^2 is the pure translation by (2, 0)
    ss = s * s
    assert ss.is_translation and ss.translation == (Fraction(2), Fraction(0))


def _random_isometry(rng, n):
    # signed permutation plus rational shift: orthogonal by construction
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[perm[i]] = Fraction(rng.choice((-1, 1)))
        rows.append(row)
    shift = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(n)]
    return Isometry(rows, shift)


def test_group_axioms_under_seeded_sampling():
    rng = random.Random(20260301)
    for _ in range(50):
        n = rng.randint(1, 4)
        f = _random_isometry(rng, n)
        g = _random_isometry(rng, n)
        h = _random_isometry(rng, n)
        assert (f * g) * h == f * (g * h)
        ident = Isometry.identity(n)
        assert f * f.inverse() == ident
        assert f.inverse() * f == ident
        p = Point.of(*[Fraction(rng.randint(-9, 9), 2) for _ in range(n)])
        assert (f * g)(p) == f(g(p))


def test_apply_matches_matrix_action():
    s = Isometry([[0, -1], [1, 0]], ("1/2", 0))
    p = Point.of(1, 2)
    assert tuple(s(p)) == (Fraction(-3, 2), Fraction(1))


def test_displacement_sq():
    t = Isometry.translation_by((3, 4))
    assert t.displacement_sq(Point.of(7, -2)) == 25


def test_serialization_round_trip():
    rng = random.Random(8)
    for _ in range(25):
        g = _random_isometry(rng, rng.randint(1, 3))
        assert Isometry.from_obj(g.to_obj()) == g


@pytest.mark.parametrize("obj", [
    {"A": [[True]], "v": [0]},
    {"A": [[1]], "v": [False]},
    {"A": [[1]], "v": [0.5]},
    {"A": [[1.0, 0], [0, 1]], "v": [0, 1]},
    {"A": [[0, -1], [1, 0]], "v": ["1/2", 0.0]},
])
def test_from_obj_refuses_booleans_and_floats(obj):
    with pytest.raises(ValueError, match="ints or strings"):
        Isometry.from_obj(obj)


def test_from_obj_reads_ints_and_fraction_strings():
    g = Isometry.from_obj({"A": [[0, -1], ["1", "0"]], "v": ["3/10", -2]})
    assert g == Isometry([[0, -1], [1, 0]], (Fraction(3, 10), -2))


def test_sort_key_orders_deterministically():
    rng = random.Random(99)
    gs = [_random_isometry(rng, 2) for _ in range(30)]
    once = sorted(gs, key=lambda g: g.sort_key())
    again = sorted(list(reversed(gs)), key=lambda g: g.sort_key())
    assert once == again


@pytest.mark.parametrize("x", [Fraction(2), Fraction(49), Fraction(7, 3), Fraction(1, 100)])
def test_sqrt_bounds_bracket(x):
    up = sqrt_upper(x)
    lo = sqrt_lower(x)
    assert lo * lo <= x < up * up
    assert lo >= 0


def test_sqrt_bounds_at_zero():
    assert sqrt_upper(Fraction(0)) == 0
    assert sqrt_lower(Fraction(0)) == 0


def test_sqrt_upper_of_nonpositive():
    assert sqrt_upper(Fraction(-3)) == 0
    assert sqrt_lower(Fraction(-3)) == 0


def test_leq_radius_plus_sqrt_matches_floats():
    rng = random.Random(4321)
    for _ in range(300):
        d2 = Fraction(rng.randint(0, 400), rng.randint(1, 10))
        r = Fraction(rng.randint(0, 20), rng.randint(1, 4))
        q = Fraction(rng.randint(0, 50), rng.randint(1, 6))
        want = math.sqrt(d2) <= float(r) + math.sqrt(q) + 1e-12
        got = leq_radius_plus_sqrt(d2, r, q)
        # only trust the float oracle away from the boundary
        gap = abs(math.sqrt(d2) - (float(r) + math.sqrt(q)))
        if gap > 1e-9:
            assert got == want, (d2, r, q)


def test_leq_radius_plus_sqrt_boundary_exact():
    # d = 3, r = 1, sqrt(q) = 2: equality must count as inside
    assert leq_radius_plus_sqrt(Fraction(9), Fraction(1), Fraction(4))
    assert not leq_radius_plus_sqrt(Fraction(9) + Fraction(1, 10**9), Fraction(1), Fraction(4))


def test_solve_and_inverse():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    inv = mat_inverse(a)
    assert inv[0][0] == Fraction(3, 5)


def test_mat_rank():
    rows = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))]
    assert mat_rank(rows) == 1
    assert mat_rank([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]) == 2
    assert mat_rank([]) == 0


def test_is_orthogonal():
    assert is_orthogonal([[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    assert not is_orthogonal([[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]])
