"""Exact rational Euclidean isometries and points.

Everything downstream (orbit balls, Dirichlet domains, cut-locus bounds)
depends on two guarantees floating point cannot give: group elements
compare equal exactly, and ball boundaries ``distance <= r`` are decided
without rounding. So coordinates are `fractions.Fraction`, distances are
kept squared, and square roots appear only in reporting helpers or as
exactly-decided comparisons like ``sqrt(d2) <= r + sqrt(q)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple

from .errors import DimensionMismatch

Vector = tuple  # tuple[Fraction, ...]
Matrix = tuple  # tuple[tuple[Fraction, ...], ...]


def frac(value) -> Fraction:
    """Coerce ints, Fractions, and strings like '3/10' or '0.3'.

    Floats are converted exactly (binary value), which is what the Monte
    Carlo samplers need; prefer strings for human-entered constants.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def vec(values: Iterable) -> Vector:
    return tuple(frac(v) for v in values)


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: Vector, c) -> Vector:
    c = frac(c)
    return tuple(c * x for x in a)


def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vec_norm_sq(a: Vector) -> Fraction:
    return vec_dot(a, a)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(row) for row in rows)


def mat_identity(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_vec(a: Matrix, x: Vector) -> Vector:
    return tuple(vec_dot(row, x) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = mat_transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def is_orthogonal(a: Matrix) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    return mat_mul(a, mat_transpose(a)) == mat_identity(n)


class _Orthogonal(tuple):
    """A matrix already known to satisfy A A^T = I exactly.

    Only `Isometry` makes these: from input that passed `is_orthogonal`,
    or as a product or transpose of matrices of this type, which are
    orthogonal again. Being a tuple, it compares, hashes and prints as
    the plain matrix.
    """

    __slots__ = ()


@lru_cache(maxsize=None)
def _orthogonal_identity(n: int) -> _Orthogonal:
    return _Orthogonal(mat_identity(n))


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form of ``rows`` and its pivot columns, exactly.

    This is the one Fraction elimination: solves, inverses, ranks and
    kernels are all read off its result.
    """
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: List[int] = []
    for col in range(ncols):
        top = len(pivots)
        if top == len(work):
            break
        pivot = next((r for r in range(top, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[top], work[pivot] = work[pivot], work[top]
        inv = Fraction(1) / work[top][col]
        work[top] = [v * inv for v in work[top]]
        for r in range(len(work)):
            if r != top and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[top])]
        pivots.append(col)
    return work, pivots


def _solve(a: Matrix, b: Matrix) -> Matrix:
    """X with a X = b, for square invertible a; b is given by its rows."""
    n = len(a)
    reduced, pivots = rref([tuple(row) + tuple(rhs) for row, rhs in zip(a, b)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in reduced)


def solve_square(a: Matrix, b: Vector) -> Vector:
    """Solve a x = b exactly for square invertible a."""
    return tuple(row[0] for row in _solve(a, [(x,) for x in b]))


def mat_inverse(a: Matrix) -> Matrix:
    return _solve(a, mat_identity(len(a)))


def mat_rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[1])


def sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound for sqrt(x), tight to 1/denominator."""
    x = frac(x)
    if x <= 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    return Fraction(math.isqrt(n * d) + 1, d)


def sqrt_lower(x: Fraction) -> Fraction:
    x = frac(x)
    if x <= 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    return Fraction(math.isqrt(n * d), d)


def sqrt_float(x) -> float:
    x = frac(x)
    return math.sqrt(x.numerator / x.denominator)


def leq_radius_plus_sqrt(d2: Fraction, r: Fraction, q: Fraction) -> bool:
    """Decide sqrt(d2) <= r + sqrt(q) exactly, for r, q >= 0."""
    a = d2 - r * r - q
    if a <= 0:
        return True
    return a * a <= 4 * r * r * q


def sqrt_leq_sqrt_plus_sqrt(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Decide sqrt(a) <= sqrt(b) + sqrt(c) exactly, for a, b, c >= 0."""
    t = a - b - c
    if t <= 0:
        return True
    return t * t <= 4 * b * c


@dataclass(frozen=True)
class Point:
    """A point of R^n with exact rational coordinates."""

    coords: Vector

    def __init__(self, coords):
        object.__setattr__(self, "coords", vec(coords))

    @classmethod
    def of(cls, *values) -> "Point":
        return cls(values)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def floats(self) -> tuple:
        return tuple(float(c) for c in self.coords)


def point_distance_sq(a: Point, b: Point) -> Fraction:
    if a.dimension != b.dimension:
        raise DimensionMismatch(f"points in R^{a.dimension} and R^{b.dimension}")
    return vec_norm_sq(vec_sub(a.coords, b.coords))


@dataclass(frozen=True)
class Isometry:
    """A rigid motion x -> A x + v with exact rational entries.

    A satisfies A A^T = I exactly. A matrix that enters from outside
    (the constructor, `from_obj`, JSON generators) is checked once,
    here, and raises ValueError if it fails. `identity`, `translation_by`,
    `compose` and `inverse` build their matrices as identities, products
    or transposes of checked ones, which are orthogonal again, so they
    skip the check.
    """

    orthogonal: Matrix
    translation: Vector

    def __init__(self, orthogonal, translation):
        trusted = isinstance(orthogonal, _Orthogonal)
        a = orthogonal if trusted else mat(orthogonal)
        v = vec(translation)
        if len(a) != len(v) or any(len(row) != len(v) for row in a):
            raise DimensionMismatch("matrix and translation sizes disagree")
        if not trusted:
            if not is_orthogonal(a):
                raise ValueError("orthogonal part must satisfy A*A^T = I exactly")
            a = _Orthogonal(a)
        object.__setattr__(self, "orthogonal", a)
        object.__setattr__(self, "translation", v)

    @classmethod
    def identity(cls, n: int) -> "Isometry":
        return cls(_orthogonal_identity(n), (Fraction(0),) * n)

    @classmethod
    def translation_by(cls, values) -> "Isometry":
        v = vec(values)
        return cls(_orthogonal_identity(len(v)), v)

    @property
    def dimension(self) -> int:
        return len(self.translation)

    @property
    def is_translation(self) -> bool:
        return self.orthogonal == _orthogonal_identity(self.dimension)

    def compose(self, other: "Isometry") -> "Isometry":
        """Return self after other: (self.compose(other))(x) = self(other(x))."""
        if self.dimension != other.dimension:
            raise DimensionMismatch("composing isometries of different dimensions")
        if self.is_translation:
            # common fast path: lattice translations compose by vector addition
            return Isometry(other.orthogonal, vec_add(other.translation, self.translation))
        a = _Orthogonal(mat_mul(self.orthogonal, other.orthogonal))
        v = vec_add(mat_vec(self.orthogonal, other.translation), self.translation)
        return Isometry(a, v)

    def __mul__(self, other: "Isometry") -> "Isometry":
        return self.compose(other)

    def inverse(self) -> "Isometry":
        at = _Orthogonal(mat_transpose(self.orthogonal))
        return Isometry(at, vec_scale(mat_vec(at, self.translation), -1))

    def preimage(self, x: Vector) -> Vector:
        """The vector y with A y + v = x, that is A^T (x - v)."""
        return mat_vec(mat_transpose(self.orthogonal), vec_sub(x, self.translation))

    def apply(self, p: Point) -> Point:
        if p.dimension != self.dimension:
            raise DimensionMismatch("isometry and point dimensions disagree")
        if self.is_translation:
            return Point(vec_add(p.coords, self.translation))
        return Point(vec_add(mat_vec(self.orthogonal, p.coords), self.translation))

    def __call__(self, p: Point) -> Point:
        return self.apply(p)

    def displacement_sq(self, p: Point) -> Fraction:
        return point_distance_sq(self.apply(p), p)

    def to_obj(self) -> dict:
        return {
            "A": [[str(x) for x in row] for row in self.orthogonal],
            "v": [str(x) for x in self.translation],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Isometry":
        return cls([[Fraction(x) for x in row] for row in obj["A"]],
                   [Fraction(x) for x in obj["v"]])

    def sort_key(self) -> tuple:
        flat = tuple(x for row in self.orthogonal for x in row) + self.translation
        return tuple((v.numerator, v.denominator) for v in flat)


def compose(f: Isometry, g: Isometry) -> Isometry:
    return f.compose(g)


def inverse(f: Isometry) -> Isometry:
    return f.inverse()


def apply(f: Isometry, p: Point) -> Point:
    return f.apply(p)
