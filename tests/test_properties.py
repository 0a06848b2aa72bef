"""Property-based differential tests of the exact linear-algebra core.

The one Fraction elimination behind solve_square, mat_inverse, mat_rank
and the kernel basis, and the Bareiss integer determinant, are checked
against sympy on random matrices. Random words in each bundled deck's
generators check that products keep exactly orthogonal parts without
re-validation, and that input matrices are still checked where they
enter.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational, eye

from orbitlab import cli
from orbitlab.algebra import int_determinant
from orbitlab.euclid import Isometry, is_orthogonal, mat_inverse, mat_rank, solve_square
from orbitlab.flatgeo import _kernel_basis
from orbitlab.groups import DECK_GROUP_NAMES, builtin_deck_group

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


@given(square_matrices(), st.data())
@PROPERTY
def test_solve_and_inverse_match_sympy(rows, data):
    n = len(rows)
    b = tuple(data.draw(ENTRIES) for _ in range(n))
    sym = _sym(rows)
    if sym.det() == 0:
        with pytest.raises(ZeroDivisionError):
            solve_square(rows, b)
        with pytest.raises(ZeroDivisionError):
            mat_inverse(rows)
        return
    inv = sym.inv()
    assert mat_inverse(rows) == tuple(
        tuple(_frac(inv[i, j]) for j in range(n)) for i in range(n)
    )
    x = sym.LUsolve(_sym([[v] for v in b]))
    assert solve_square(rows, b) == tuple(_frac(x[i, 0]) for i in range(n))


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
