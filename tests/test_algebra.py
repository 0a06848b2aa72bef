"""Integer linear algebra and the two injectivity checks."""

import random

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from orbitlab.algebra import (
    AbelianPresentation,
    abelian_rank,
    hurewicz_ball_injection,
    independence_check,
    int_determinant,
    integer_rank,
    polycyclic_injection,
    smith_certificate,
    smith_normal_form,
    snf_diagonal,
)
from orbitlab.euclid import Isometry
from orbitlab.groups import (
    HEISENBERG_IDENTITY,
    HEISENBERG_SERIES,
    HeisenbergElement,
    heisenberg_group,
    zk_group,
)


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _diag(d):
    return [d[i][i] for i in range(min(len(d), len(d[0])))]


def test_determinant_known():
    assert int_determinant([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 624
    assert int_determinant([[1]]) == 1
    assert int_determinant([[0, 1], [1, 0]]) == -1


def test_determinant_random_vs_sympy():
    rng = random.Random(314)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert int_determinant(m) == Matrix(m).det()


def test_snf_known_diagonal():
    _, d, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert _diag(d) == [2, 2, 156]
    assert snf_diagonal([[1, 2], [3, 4], [5, 6]]) == [1, 2]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_snf_identities_random(seed):
    rng = random.Random(seed)
    for _ in range(60):
        nrow = rng.randint(1, 6)
        ncol = rng.randint(1, 6)
        m = [[rng.randint(-30, 30) for _ in range(ncol)] for _ in range(nrow)]
        u, d, v = smith_normal_form(m)
        assert _mat_mul(_mat_mul(u, m), v) == d
        assert abs(int_determinant(u)) == 1
        assert abs(int_determinant(v)) == 1
        diag = _diag(d)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0


def test_snf_diagonal_matches_sympy():
    rng = random.Random(2718)
    for _ in range(40):
        nrow = rng.randint(1, 5)
        ncol = rng.randint(1, 5)
        m = [[rng.randint(-20, 20) for _ in range(ncol)] for _ in range(nrow)]
        ours = snf_diagonal(m)
        theirs = sympy_snf(Matrix(m), domain=ZZ)
        td = [abs(theirs[i, i]) for i in range(min(theirs.shape))]
        assert ours == td, (m, ours, td)


def test_snf_zero_and_empty_like():
    _, d, _ = smith_normal_form([[0, 0], [0, 0]])
    assert _diag(d) == [0, 0]


def test_integer_rank():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0, 0]]) == 0


def test_abelian_rank():
    free = AbelianPresentation(3, [])
    assert abelian_rank(free) == 3
    mixed = AbelianPresentation(3, [[2, 0, 0], [0, 3, 0]])
    assert abelian_rank(mixed) == 1
    # a dependent relation must not drop the rank twice
    dep = AbelianPresentation(2, [[2, 0], [4, 0]])
    assert abelian_rank(dep) == 1
    collapsed = AbelianPresentation(2, [[1, 0], [0, 1]])
    assert abelian_rank(collapsed) == 0


def test_independence_check():
    free2 = AbelianPresentation(2, [])
    assert independence_check([[1, 0], [0, 1]], free2)
    assert not independence_check([[1, 2], [2, 4]], free2)
    # modulo torsion: twice the second generator dies
    torsion = AbelianPresentation(2, [[0, 2]])
    assert independence_check([[1, 0]], torsion)
    assert not independence_check([[0, 1]], torsion)
    assert not independence_check([[1, 1], [1, -1]], torsion)


def test_hurewicz_z2_is_exact_bijection_on_balls():
    group = zk_group(2)
    images = [
        (Isometry.translation_by((1, 0)), (1, 0)),
        (Isometry.translation_by((0, 1)), (0, 1)),
    ]
    rep = hurewicz_ball_injection(group, images, 3)
    assert rep.abelian_count == 25  # 2r^2 + 2r + 1 lattice points in the L1 ball
    assert rep.group_count == 25
    assert rep.injective and rep.bound_holds


def test_hurewicz_heisenberg():
    group = heisenberg_group()
    images = [
        (HeisenbergElement(1, 0, 0), (1, 0)),
        (HeisenbergElement(0, 1, 0), (0, 1)),
    ]
    rep = hurewicz_ball_injection(group, images, 4)
    assert rep.abelian_count == 41
    assert rep.group_count >= rep.abelian_count
    assert rep.injective and rep.bound_holds


def test_hurewicz_rejects_dependent_images():
    group = zk_group(2)
    images = [
        (Isometry.translation_by((1, 0)), (1, 0)),
        (Isometry.translation_by((0, 1)), (1, 0)),
    ]
    with pytest.raises(ValueError):
        hurewicz_ball_injection(group, images, 2)


def test_hurewicz_detects_collapse():
    # t and t^2 with independent images: (2,0) and (0,1) collide at t^2
    group = zk_group(1)
    t = Isometry.translation_by((1,))
    images = [(t, (1, 0)), (t * t, (0, 1))]
    rep = hurewicz_ball_injection(group, images, 2)
    assert not rep.injective


def test_polycyclic_heisenberg_box():
    series = [
        HeisenbergElement(1, 0, 0),
        HeisenbergElement(0, 1, 0),
        HeisenbergElement(0, 0, 1),
    ]
    rep = polycyclic_injection(HEISENBERG_IDENTITY, series, 2)
    assert rep.points == 125
    assert rep.injective
    assert rep.collisions == ()


def test_polycyclic_detects_collision():
    series = [HeisenbergElement(1, 0, 0), HeisenbergElement(1, 0, 0)]
    rep = polycyclic_injection(HEISENBERG_IDENTITY, series, 1)
    assert not rep.injective
    assert rep.collisions


@pytest.mark.parametrize(
    "call",
    [
        lambda: smith_normal_form([[1.5]]),
        lambda: smith_normal_form([[1, 2], [3, "4"]]),
        lambda: smith_normal_form([[True, 0]]),
        lambda: AbelianPresentation(1, [[0.5]]),
        lambda: AbelianPresentation(1.5, []),
        lambda: AbelianPresentation(-1, []),
        lambda: independence_check([[0.5, 1]], AbelianPresentation(2, [])),
        lambda: polycyclic_injection(HEISENBERG_IDENTITY, HEISENBERG_SERIES, -1),
    ],
    ids=["snf-float", "snf-string", "snf-bool", "relation-float", "count-float",
         "count-negative", "element-float", "box-negative"],
)
def test_non_integer_or_negative_inputs_are_refused(call):
    # truncating 1.5 to 1 would certify a statement about another input
    with pytest.raises(ValueError):
        call()


def test_smith_certificate_checks_every_property():
    cert = smith_certificate([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert cert.diagonal == [2, 2, 156]
    assert cert.identity_ok and cert.unimodular and cert.chain_ok and cert.ok
    assert _mat_mul(_mat_mul(cert.u, [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), cert.v) == cert.d
    assert smith_certificate([[0, 0], [0, 3]]).diagonal == [3, 0]
