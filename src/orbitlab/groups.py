"""Finitely generated groups, word balls, and crystallographic deck groups.

Two flavors of group live here. ``GeneratedGroup`` is a thin wrapper
around any hashable elements with ``*`` and ``.inverse()`` (exact
isometries, Heisenberg triples) and feeds `word_spheres`, the one
breadth-first word search. ``DeckGroup`` models a cocompact group of euclidean
isometries as finitely many isometry cosets over a translation lattice,
which makes orbit enumeration exact: every orbit point in a ball is
found by integer lattice search, never by flood fill.

The exact core runs on integers and builds a Fraction only for a value
handed back to a caller. A lattice query writes |B m - w|^2 as
q(m) / scale with q an integer quadratic in the coordinates m and scans
the ellipsoid q(m) <= limit level by level (Fincke-Pohst), each range
exact by ``isqrt``. Orbit records are integer images, translations and
lattice coordinates over one common denominator; counts read them as
they are, and only hits handed back build an isometry. Deck elements in
normal form (``DeckWord``, a coset index and integer lattice
coordinates, after Zassenhaus) multiply and invert through integer
tables, so word balls of deck-derived groups hash int tuples.

Each bundled space is one row of one table, ``_BUILTIN_DECKS``: lattice
basis, glide shift, translations. `builtin_deck_group` builds the deck
from it; soul and Hurewicz data are read off the row or the deck.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, count
from math import floor, isqrt, lcm
from operator import add, mul, sub
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    CapExceeded,
    DegenerateLattice,
    DimensionMismatch,
    InconsistentCosets,
    NotFoundWithinCap,
)
from .euclid import (
    Isometry,
    Point,
    frac,
    leq_radius_plus_sqrt,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    vec_dot,
    vec_sub,
)

DEFAULT_CAP = 10_000_000


def enumeration_cap() -> int:
    """Current element cap, overridable through ORBITLAB_CAP."""
    raw = os.environ.get("ORBITLAB_CAP", "").strip()
    if raw:
        return int(raw)
    return DEFAULT_CAP


class HeisenbergElement(NamedTuple):
    """Element (a, b, c) of the integer Heisenberg group.

    Multiplication matches the upper unitriangular matrix
    [[1, a, c], [0, 1, b], [0, 0, 1]].
    """

    a: int
    b: int
    c: int

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        # tuple.__new__ skips the NamedTuple's Python-level __new__
        a, b, c = self
        x, y, z = other
        return tuple.__new__(HeisenbergElement, (a + x, b + y, c + z + a * y))

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.a, -self.b, -self.c + self.a * self.b)


HEISENBERG_IDENTITY = HeisenbergElement(0, 0, 0)
# x, y and their commutator z = [x, y]: a cyclic series with infinite
# quotients, whose first two elements generate the group
HEISENBERG_SERIES = (HeisenbergElement(1, 0, 0), HeisenbergElement(0, 1, 0), HeisenbergElement(0, 0, 1))


@dataclass(frozen=True)
class GeneratedGroup:
    """A group presented by a finite symmetric generating set.

    ``generators`` never contains the identity and is closed under
    inverses, which the constructor checks and `word_spheres` relies on;
    use :meth:`closure` to build one from an arbitrary list.
    ``words``, if set, is the same group in normal form (`DeckGroup.words`),
    generators in the same order: word balls search there, on int tuples.
    """

    identity: object
    generators: tuple
    name: str = ""
    words: Optional["GeneratedGroup"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        gens = set(self.generators)
        if self.identity in gens or any(g.inverse() not in gens for g in self.generators):
            raise ValueError("generators must omit the identity and be closed under inverses")

    @classmethod
    def closure(cls, identity, generators: Iterable, name: str = "", words=None) -> "GeneratedGroup":
        out = []
        seen = set()
        for g in generators:
            for h in (g, g.inverse()):
                if h == identity or h in seen:
                    continue
                seen.add(h)
                out.append(h)
        return cls(identity=identity, generators=tuple(out), name=name, words=words)


def word_spheres(group: GeneratedGroup, radius: Optional[int] = None,
                 cap: Optional[int] = None) -> Iterator[List[object]]:
    """The spheres of word length 0, 1, 2, ... (to ``radius`` if given, until
    they run out) as lists, in breadth-first order: the one word search.

    The generators are symmetric, so the neighbours of sphere d lie in
    spheres d - 1, d and d + 1, and only those three are held. Raises
    CapExceeded once the ball would pass ``cap`` elements (default
    `enumeration_cap`); the identity alone never does.
    """
    if radius is not None and radius < 0:
        raise ValueError("radius must be nonnegative")
    depths = count(1) if radius is None else range(1, radius + 1)
    limit = enumeration_cap() if cap is None else cap
    room = max(limit, 1) - 1  # elements the ball may take beyond the identity
    inner: List[object] = []
    sphere = [group.identity]
    seen = {group.identity}
    yield sphere
    for _ in depths:
        grown: List[object] = []
        for g in sphere:
            for s in group.generators:
                h = g * s
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
            if len(grown) > room:
                raise CapExceeded(f"word ball of radius {radius} exceeds {limit} elements", limit=limit)
        if not grown:
            return
        yield grown
        room -= len(grown)
        seen.difference_update(inner)
        inner, sphere = sphere, grown


def word_ball(group: GeneratedGroup, radius: int, cap: Optional[int] = None) -> Dict[object, int]:
    """Map each element of word length <= radius to its word length; on a
    ``words`` twin when there is one, each word mapped back in order. The
    one caller of `word_spheres` that keeps the whole ball."""
    if group.words is not None:
        return {w.isometry(): d for w, d in word_ball(group.words, radius, cap=cap).items()}
    return {g: d for d, sphere in enumerate(word_spheres(group, radius, cap)) for g in sphere}


def word_ball_counts(group: GeneratedGroup, max_radius: int, cap: Optional[int] = None) -> List[int]:
    """Cumulative word-ball sizes [#W(0), ..., #W(max_radius)], on the ``words`` twin if any."""
    sizes = [0] * (max_radius + 1)
    for depth, sphere in enumerate(word_spheres(group.words or group, max_radius, cap)):
        sizes[depth] = len(sphere)
    return list(accumulate(sizes))


def word_length(group: GeneratedGroup, element, cap: Optional[int] = None) -> int:
    """Least number of generators multiplying to ``element``, on the ``words``
    twin when there is one (which refuses a foreign element): d exactly when
    the element lies in sphere d and B(d) keeps within ``cap`` by the rule of
    `word_spheres`, whatever the generator order; else NotFoundWithinCap."""
    if group.words is not None:
        group, element = group.words, group.words.identity.kernel.normal_form(element)
        if element is None:
            raise NotFoundWithinCap("element is not in the deck group")
    try:
        for depth, sphere in enumerate(word_spheres(group, cap=cap)):
            if element in sphere:
                return depth
    except CapExceeded as exc:
        raise NotFoundWithinCap(f"no word of length <= cap {exc.limit} reaches the element") from None
    raise NotFoundWithinCap("element is not in the generated group")


class _Fractions(dict):
    """n -> Fraction(n, den), each built once: the values a query hands
    back repeat across its points, so one Fraction serves them all."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, n: int) -> Fraction:
        f = self[n] = Fraction(n, self.den)
        return f


def _ints(values: Sequence[Fraction], den: int) -> Tuple[int, ...]:
    """values * den, for a den that every denominator divides."""
    return tuple(x.numerator * (den // x.denominator) for x in values)


def _mat_ints(a: Sequence[Sequence[int]], m: Sequence[int]) -> List[int]:
    return [sum(map(mul, row, m)) for row in a]


class _Quadratic(NamedTuple):
    """q(m) = scale * |B m - w|^2 as an integer quadratic form in the
    lattice coordinates m, q(m) = m^T M m + 2 b^T m + c.

    ``levels[l]`` is (M, b) of the quadratic in m_l, ..., m_{k-1} that is
    left after minimising over m_0, ..., m_{l-1} over the reals: each step
    is the fraction-free Schur complement A * (rest) - (coupling)^2 with
    A = M[0][0], the LDL^T of M without division. ``floor`` is the value
    once every coordinate is minimised, scaled by every pivot.
    """

    scale: int
    levels: tuple
    floor: int


@dataclass(frozen=True)
class TranslationLattice:
    """Free abelian group of translations spanned by independent vectors."""

    basis: Tuple[Tuple[Fraction, ...], ...]

    def __init__(self, basis: Sequence[Sequence]):
        rows = tuple(tuple(frac(x) for x in row) for row in basis)
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise DimensionMismatch("lattice basis vectors must share a dimension")
            if mat_rank(rows) != len(rows):
                raise DegenerateLattice("lattice basis vectors are dependent")
        object.__setattr__(self, "basis", rows)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def dimension(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    @cached_property
    def gram(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return tuple(
            tuple(vec_dot(bi, bj) for bj in self.basis) for bi in self.basis
        )

    @cached_property
    def gram_inverse(self) -> Tuple[Tuple[Fraction, ...], ...]:
        return mat_inverse(self.gram)

    @cached_property
    def int_basis(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """(B, D): integer rows B with basis = B / D."""
        d = lcm(*(x.denominator for row in self.basis for x in row))
        return tuple(_ints(row, d) for row in self.basis), d

    @cached_property
    def _int_gram(self) -> Tuple[Tuple[int, ...], ...]:
        """B B^T, the Gram matrix times D^2."""
        b, _ = self.int_basis
        return tuple(tuple(sum(map(mul, bi, bj)) for bj in b) for bi in b)

    def vector(self, coords: Sequence[int]) -> Tuple[Fraction, ...]:
        n = self.dimension
        out = [Fraction(0)] * n
        for c, b in zip(coords, self.basis):
            if c:
                for i in range(n):
                    out[i] += c * b[i]
        return tuple(out)

    def coordinates(self, v: Sequence) -> Optional[Tuple[int, ...]]:
        """Integer basis coordinates of v, or None when v is not in the lattice."""
        w = tuple(frac(x) for x in v)
        if self.rank == 0:
            return () if all(x == 0 for x in w) else None
        proj = tuple(vec_dot(b, w) for b in self.basis)
        a = mat_vec(self.gram_inverse, proj)
        coords = []
        for x in a:
            if x.denominator != 1:
                return None
            coords.append(int(x))
        return tuple(coords) if self.vector(coords) == w else None

    def __contains__(self, v) -> bool:
        return self.coordinates(v) is not None

    def orthogonal_to_span(self, v: Sequence) -> bool:
        w = tuple(frac(x) for x in v)
        return all(vec_dot(b, w) == 0 for b in self.basis)

    def _quadratic(self, w: Sequence[Fraction]) -> _Quadratic:
        """The integer form of |B m - w|^2 for a target w of Fractions.

        With w = W / e and B = B_int / D, |B m - w|^2 = q(m) / (D e)^2
        where q(m) = e^2 m^T (B_int B_int^T) m - 2 e D m^T B_int W + D^2 |W|^2.
        """
        e = lcm(*(x.denominator for x in w))
        ww = _ints(w, e)
        basis, d = self.int_basis
        m = [[e * e * g for g in row] for row in self._int_gram]
        b = [-e * d * sum(map(mul, row, ww)) for row in basis]
        c = d * d * sum(map(mul, ww, ww))
        levels = []
        while m:
            levels.append((m, b))
            top = m[0]
            a = top[0]
            m = [[a * mij - top[i] * top[j] for j, mij in enumerate(row) if j]
                 for i, row in enumerate(m) if i]
            b, c = [a * bi - top[i] * b[0] for i, bi in enumerate(b) if i], a * c - b[0] * b[0]
        return _Quadratic((d * e) ** 2, tuple(levels), c)

    def _enumerate(self, quad: _Quadratic, limit: int) -> List[Tuple[int, Tuple[int, ...]]]:
        """Every (q(m), m) with q(m) <= limit, sorted: the one lattice scan.

        Pruned enumeration (Fincke-Pohst), outermost coordinate first and
        on integers only. At level l, with m_{l+1}, ... fixed, level l's
        quadratic reads A m_l^2 + 2 B m_l + C, and A times it equals
        (A m_l + B)^2 + Q, Q being level l + 1's value. So it stays within
        level l's bound L_l exactly when |A m_l + B| <= isqrt(A L_l - Q),
        which gives the range of m_l that still has a real completion; the
        innermost range holds exactly the kept points, so no candidate is
        rejected. The key (q, m) sorts as (|B m - w|^2, m).

        Raises CapExceeded when the scan could visit more points than
        `enumeration_cap` allows, before it starts.
        """
        levels = quad.levels
        bounds = [limit]
        for m, _ in levels:
            bounds.append(bounds[-1] * m[0][0])
        if quad.floor > bounds[-1]:
            return []
        _check_scan_size(levels, bounds[-1] - quad.floor)
        out: List[Tuple[int, Tuple[int, ...]]] = []

        def scan(level: int, outer: Tuple[int, ...], q_outer: int) -> None:
            m, b = levels[level]
            row = m[0]
            a = row[0]
            lin = b[0] + sum(map(mul, row[1:], outer))
            s = isqrt(bounds[level + 1] - q_outer)
            lo, hi = -((s + lin) // a), (s - lin) // a
            if level:
                for mi in range(lo, hi + 1):
                    z = a * mi + lin
                    scan(level - 1, (mi,) + outer, (z * z + q_outer) // a)
            else:
                for mi in range(lo, hi + 1):
                    z = a * mi + lin
                    out.append(((z * z + q_outer) // a, (mi,) + outer))

        if levels:
            scan(len(levels) - 1, (), quad.floor)
        else:
            out.append((quad.floor, ()))
        out.sort()
        return out

    def nearest_dist_sq(self, target: Sequence) -> Fraction:
        """Exact squared distance from target to the lattice.

        Rounding each coordinate in turn, outermost first (Babai's nearest
        plane), gives a lattice point whose q bounds the minimum; one scan
        within that bound reads the minimum off its first key.
        """
        quad = self._quadratic(tuple(frac(x) for x in target))
        q, outer = quad.floor, ()
        for m, b in reversed(quad.levels):
            row = m[0]
            a = row[0]
            lin = b[0] + sum(map(mul, row[1:], outer))
            mi = (a - 2 * lin) // (2 * a)
            z = a * mi + lin
            q, outer = (z * z + q) // a, (mi,) + outer
        return Fraction(self._enumerate(quad, q)[0][0], quad.scale)


def _ball_limit(rho2: Fraction) -> Callable[[int], int]:
    """limit(scale): the largest integer q with q / scale <= rho2."""
    return lambda scale: rho2.numerator * scale // rho2.denominator


def _plus_sqrt_limit(r: Fraction, q2: Fraction) -> Callable[[int], int]:
    """limit(scale): the largest integer q with sqrt(q / scale) <= r + sqrt(q2),
    for r, q2 >= 0.

    (r + sqrt(q2))^2 scale = (r^2 + q2) scale + sqrt(4 r^2 q2 scale^2), and
    floor(x) + isqrt(floor(y)) is floor(x + sqrt(y)) or one less, so at
    most two exact tests settle it.
    """

    def limit(scale: int) -> int:
        base = (r * r + q2) * scale
        cross = 4 * r * r * q2 * scale * scale
        q = floor(base) + isqrt(max(floor(cross), 0))
        while leq_radius_plus_sqrt(Fraction(q + 1, scale), r, q2):
            q += 1
        return q

    return limit


def _check_scan_size(levels, slack: int) -> None:
    """Raise CapExceeded when the scan's node count could pass the cap.

    Level l's range has at most 2 s / A + 1 values, where s <= isqrt of
    slack / (product of the pivots above l): the box of the ellipsoid in
    the triangular frame of the Schur steps.
    """
    size, above = 1, 1
    for m, _ in reversed(levels):
        a = m[0][0]
        size *= 2 * isqrt(slack // above) // a + 1
        above *= a
    cap = enumeration_cap()
    if size > cap:
        raise CapExceeded(f"lattice scan of up to {size} points exceeds the cap {cap}", limit=cap)


def search_center(rep: Isometry, x: Point, y: Point) -> Tuple[Fraction, ...]:
    """The w with |(rep * t_v)(y) - x|^2 = |v - w|^2 for every vector v."""
    return vec_sub(rep.preimage(tuple(x)), tuple(y))


class OrbitHit(NamedTuple):
    element: Isometry
    image: Point
    dist_sq: Fraction


class DeckWord(NamedTuple):
    """A deck element in normal form: coset_reps[coset] * t_v, v the lattice
    vector with integer ``coords`` (Zassenhaus' normal form).

    Products and inverses are integer arithmetic on the deck's tables:
    r_i t_u r_j t_w = r_k t_(c + C_j u + w) where r_i r_j = r_k t_c and C_j
    is A_j^T acting on lattice coordinates. Words hash and compare as int
    tuples; ``kernel`` is the same object for every word of one deck.
    """

    coset: int
    coords: Tuple[int, ...]
    kernel: "_Kernel"

    def __mul__(self, other: "DeckWord") -> "DeckWord":
        i, u, kern = self
        j, w, _ = other
        k, c = kern.products[i][j]
        conj = kern.conj[j]
        if conj is not None:
            u = _mat_ints(conj, u)
        return DeckWord(k, tuple(map(add, map(add, c, u), w)), kern)

    def inverse(self) -> "DeckWord":
        """(r_i t_u)^-1 = r_i^-1 t_(-A_i u) = r_j t_(d - A_i u), r_i^-1 = r_j t_d."""
        i, u, kern = self
        j, d = kern.inverses[i]
        act = kern.act[i]
        if act is not None:
            u = _mat_ints(act, u)
        return DeckWord(j, tuple(map(sub, d, u)), kern)

    def isometry(self) -> Isometry:
        return self.kernel.isometry(self)

    def to_obj(self) -> dict:
        return self.isometry().to_obj()

    def __repr__(self) -> str:
        return f"DeckWord(coset={self.coset}, coords={self.coords})"


class _Kernel:
    """The integer tables of one deck group, built when the deck validates.

    With B = B_int / D the lattice basis and A_c = A_int / a_c the matrix
    of coset c, the map m -> A_c B^T m is K_c m / den: one integer matrix
    K_c per coset over one denominator ``den``, which the translations
    b_c share too (``shifts``). The word tables behind `DeckWord` are
    built on first use.
    """

    def __init__(self, deck: "DeckGroup"):
        basis, d = deck.lattice.int_basis
        self.lattice = deck.lattice
        self.reps = deck.coset_reps
        mats = []
        for rep in self.reps:
            a_den = lcm(*(x.denominator for row in rep.orthogonal for x in row))
            a_int = [_ints(row, a_den) for row in rep.orthogonal]
            mats.append(([[sum(map(mul, ar, br)) for br in basis] for ar in a_int], a_den * d))
        self.den = lcm(*(den for _, den in mats),
                       *(x.denominator for rep in self.reps for x in rep.translation))
        self.kmats = [[[x * (self.den // den) for x in row] for row in k] for k, den in mats]
        self.shifts = [_ints(rep.translation, self.den) for rep in self.reps]

    def affine(self, offsets: Sequence[Sequence[Fraction]]):
        """(G, [(P_c, K_c)]) with offsets[c] + A_c B^T m = (P_c + K_c m) / G
        for every coset c, over one common denominator G."""
        g = lcm(self.den, *(x.denominator for off in offsets for x in off))
        f = g // self.den
        return g, [
            (_ints(off, g), [[x * f for x in row] for row in k]) for off, k in zip(offsets, self.kmats)
        ]

    def isometry(self, word: DeckWord) -> Isometry:
        c = word.coset
        t = map(add, self.shifts[c], _mat_ints(self.kmats[c], word.coords))
        return Isometry(self.reps[c].orthogonal, tuple(Fraction(x, self.den) for x in t))

    @cached_property
    def solvers(self) -> List[Tuple[List[List[int]], int]]:
        """Per coset, (R, r) with R / r = Gram^-1 B A_c^T: the coordinates
        of A_c^T u for a vector u of the lattice."""
        out = []
        project = mat_mul(self.lattice.gram_inverse, self.lattice.basis)
        for rep in self.reps:
            rows = mat_mul(project, mat_transpose(rep.orthogonal))
            r = lcm(*(x.denominator for row in rows for x in row))
            out.append(([list(_ints(row, r)) for row in rows], r))
        return out

    def normal_form(self, g: Isometry) -> Optional[DeckWord]:
        """g as a `DeckWord`, or None when g is not in the deck group: the
        one membership decision. Several cosets may share g's matrix (their
        translations differ by a non-lattice vector), so each is tried."""
        big = lcm(self.den, *(x.denominator for x in g.translation))
        f = big // self.den
        t = _ints(g.translation, big)
        for c, rep in enumerate(self.reps):
            if rep.orthogonal is not g.orthogonal and rep.orthogonal != g.orthogonal:
                continue
            # u = (t - b_c) big = A_c B^T m big must equal K_c m f
            u = [x - s * f for x, s in zip(t, self.shifts[c])]
            solve, r = self.solvers[c]
            coords = []
            for row in solve:
                q, rem = divmod(sum(map(mul, row, u)), r * big)
                if rem:
                    break
                coords.append(q)
            else:
                if [x * f for x in _mat_ints(self.kmats[c], coords)] == u:
                    return DeckWord(c, tuple(coords), self)
        return None

    def _factor(self, g: Isometry) -> Tuple[int, Tuple[int, ...]]:
        word = self.normal_form(g)
        assert word is not None  # products and inverses of coset representatives
        return word.coset, word.coords

    @cached_property
    def products(self) -> List[List[Tuple[int, Tuple[int, ...]]]]:
        """products[i][j] = (k, c) with r_i r_j = r_k t_c."""
        return [[self._factor(ri * rj) for rj in self.reps] for ri in self.reps]

    @cached_property
    def inverses(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """inverses[i] = (j, d) with r_i^-1 = r_j t_d."""
        return [self._factor(r.inverse()) for r in self.reps]

    @cached_property
    def conj(self) -> List[Optional[List[List[int]]]]:
        """A_c^T on lattice coordinates, an integer matrix (None for A_c = I)."""
        basis, d = self.lattice.int_basis
        out = []
        for rep, (solve, r) in zip(self.reps, self.solvers):
            # column l holds the coordinates of A_c^T b_l = A_c^T B_int[l] / D
            out.append(None if rep.is_translation else
                       [[sum(map(mul, row, b)) // (r * d) for b in basis] for row in solve])
        return out

    @cached_property
    def act(self) -> List[Optional[List[List[int]]]]:
        """A_c on lattice coordinates: A_c = A_j^T for r_c^-1 in coset j."""
        return [self.conj[j] for j, _ in self.inverses]


@dataclass(frozen=True)
class DeckGroup:
    """Group of isometries split as finitely many cosets of a lattice.

    Every element factors uniquely as ``rep * translation`` with the
    translation drawn from ``lattice``; the constructor verifies that
    the cosets really tile a group (lattice invariance, distinctness,
    closure, and an identity coset). Membership is decided in normal
    form, so the integer tables of orbit enumeration and normal forms
    are built during that check; the word tables on first use.
    """

    dimension: int
    lattice: TranslationLattice
    coset_reps: Tuple[Isometry, ...]
    name: str = ""
    word_generators: Tuple[Isometry, ...] = ()

    def __init__(
        self,
        dimension: int,
        lattice: TranslationLattice,
        coset_reps: Sequence[Isometry],
        name: str = "",
        word_generators: Sequence[Isometry] = (),
    ):
        reps = tuple(coset_reps)
        if not reps:
            raise InconsistentCosets("at least one coset representative is required")
        if lattice.basis and lattice.dimension != dimension:
            raise DimensionMismatch("lattice does not live in the ambient dimension")
        for h in reps:
            if h.dimension != dimension:
                raise DimensionMismatch("coset representative has the wrong dimension")
        for h in reps:
            for b in lattice.basis:
                if mat_vec(h.orthogonal, b) not in lattice:
                    raise InconsistentCosets(
                        "conjugation by a representative does not preserve the lattice"
                    )
        for i, hi in enumerate(reps):
            for j, hj in enumerate(reps):
                if i < j and hi.orthogonal == hj.orthogonal:
                    if hi.preimage(hj.translation) in lattice:
                        raise InconsistentCosets(f"representatives {i} and {j} share a coset")
        object.__setattr__(self, "dimension", int(dimension))
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coset_reps", reps)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "word_generators", tuple(word_generators))
        if self.coset_index(Isometry.identity(dimension)) is None:
            raise InconsistentCosets("no coset contains the identity")
        for hi in reps:
            for hj in reps:
                if self.coset_index(hi * hj) is None:
                    raise InconsistentCosets("coset representatives do not close under product")

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel(self)

    def coset_index(self, g: Isometry) -> Optional[int]:
        word = self._kernel.normal_form(g)
        return None if word is None else word.coset

    def __contains__(self, g: Isometry) -> bool:
        return self.coset_index(g) is not None

    def factor(self, g: Isometry) -> Tuple[int, Tuple[Fraction, ...]]:
        """Indices (i, v) with g = coset_reps[i] * translation_by(v), v in the lattice."""
        word = self.normal_form(g)
        return word.coset, self.lattice.vector(word.coords)

    def normal_form(self, g: Isometry) -> DeckWord:
        """g as a `DeckWord` (coset, integer lattice coordinates), computed
        in integers; the word's ``isometry()`` gives g back."""
        word = self._kernel.normal_form(g)
        if word is None:
            raise InconsistentCosets("element does not belong to the deck group")
        return word

    @property
    def index_over_lattice(self) -> int:
        return len(self.coset_reps)

    def _generators(self) -> List[Isometry]:
        gens: List[Isometry] = list(self.word_generators)
        if not gens:
            gens = [Isometry.translation_by(b) for b in self.lattice.basis]
            ident = Isometry.identity(self.dimension)
            gens += [h for h in self.coset_reps if h != ident]
        return gens

    def generated(self) -> GeneratedGroup:
        """The word generators' isometry group, carrying its `words` twin."""
        return GeneratedGroup.closure(
            Isometry.identity(self.dimension), self._generators(), name=self.name, words=self.words()
        )

    def words(self) -> Optional[GeneratedGroup]:
        """`generated` in normal form: the same generators in the same
        order, as `DeckWord`s, so word balls hash int tuples. None when a
        word generator lies outside the deck group."""
        nf = self._kernel.normal_form
        gens = [nf(g) for g in self._generators()]
        if any(g is None for g in gens):
            return None
        self._kernel.products  # the one table built from isometries; word products then build none
        return GeneratedGroup.closure(nf(Isometry.identity(self.dimension)), gens, name=self.name)

    def word_displacements(self, x: Point) -> Tuple[int, Callable[[DeckWord], int]]:
        """(scale, disp) with |g(x) - x|^2 = disp(g) / scale for every
        `DeckWord` g, disp in integers."""
        if x.dimension != self.dimension:
            raise DimensionMismatch("isometry and point dimensions disagree")
        den, maps = self._kernel.affine([vec_sub(tuple(rep(x)), tuple(x)) for rep in self.coset_reps])

        def disp(g: DeckWord) -> int:
            p, k = maps[g.coset]
            return sum(v * v for v in map(add, p, _mat_ints(k, g.coords)))

        return den * den, disp

    def _records(self, x: Point, y: Point, limit: Callable[[int], int]) -> Tuple[int, int, List[tuple]]:
        """(scale, den, sorted records (q, den g(y), den (A v + b), c, m)) for
        the g = rep_c * t_v, v with lattice coordinates m, with |g(y) - x|^2 =
        q / scale and q <= limit(scale): the one loop of coset representatives
        times a lattice scan, over one common denominator (`_Kernel.affine`)
        and one distance scale. Equal images sort next to each other."""
        if y.dimension != self.dimension:
            raise DimensionMismatch("isometry and point dimensions disagree")
        kern, lattice, reps = self._kernel, self.lattice, self.coset_reps
        quads = [lattice._quadratic(search_center(rep, x, y)) for rep in reps]
        scale = lcm(*(quad.scale for quad in quads))
        den, maps = kern.affine([tuple(rep(y)) for rep in reps])
        f = den // kern.den
        records = []
        for c, (quad, (image0, kmat)) in enumerate(zip(quads, maps)):
            shift = [s * f for s in kern.shifts[c]]
            rescale = scale // quad.scale
            for q, m in lattice._enumerate(quad, limit(quad.scale)):
                km = _mat_ints(kmat, m)
                records.append((q * rescale, tuple(map(add, image0, km)), tuple(map(add, shift, km)), c, m))
        records.sort()
        return scale, den, records

    def _hits(self, x: Point, y: Point, limit: Callable[[int], int]) -> List[OrbitHit]:
        """`_records` as hits sorted by (|g(y) - x|^2, g(y), g.sort_key()): one
        Isometry (A, A v + b) and one Point each, from Fractions shared within
        the call; only runs tied on distance and image re-sort by ``sort_key``."""
        scale, den, records = self._records(x, y, limit)
        reps = self.coset_reps
        coord, dist = _Fractions(den), _Fractions(scale)
        hits = [
            OrbitHit(
                Isometry(reps[c].orthogonal, tuple(map(coord.__getitem__, t))),
                Point(tuple(map(coord.__getitem__, image))),
                dist[key],
            )
            for key, image, t, c, _ in records
        ]
        start = 0
        for i in range(1, len(records) + 1):
            if i == len(records) or records[i][:2] != records[start][:2]:
                if i - start > 1:
                    hits[start:i] = sorted(hits[start:i], key=lambda h: h.element.sort_key())
                start = i
        return hits

    def enumerate_orbit(self, x: Point, radius_sq) -> List[OrbitHit]:
        """All g with |g(x) - x|^2 <= radius_sq, sorted by distance.

        The ball boundary is included, matching a closed-ball orbit count.
        """
        return self._hits(x, x, _ball_limit(frac(radius_sq)))

    def enumerate_orbit_plus_sqrt(self, x: Point, radius, slack_sq) -> List[OrbitHit]:
        """All g with |g(x) - x| <= radius + sqrt(slack_sq), decided exactly."""
        return self._hits(x, x, _plus_sqrt_limit(frac(radius), frac(slack_sq)))

    def quotient_dist_sq(self, x: Point, y: Point) -> Fraction:
        """Squared distance between the classes of x and y in the quotient."""
        best: Optional[Fraction] = None
        for rep in self.coset_reps:
            d2 = self.lattice.nearest_dist_sq(search_center(rep, x, y))
            if best is None or d2 < best:
                best = d2
        assert best is not None
        return best


def zk_group(k: int) -> GeneratedGroup:
    """Z^k generated by the unit translations, with its normal-form twin."""
    return zk_deck(k).generated()


def _bundled(name: str, basis: Sequence[Sequence], flip_shift: Optional[Sequence] = None,
             translations: Sequence[Sequence] = ()) -> DeckGroup:
    """The deck group of one ``_BUILTIN_DECKS`` row: the lattice ``basis``,
    the glide s(x) = (x0, -x1, x2, ...) + flip_shift as the second coset
    when a shift is given, and word generators s, then the translations."""
    n = len(basis[0])
    reps = [Isometry.identity(n)]
    if flip_shift is not None:
        flip = [[-1 if i == j == 1 else int(i == j) for j in range(n)] for i in range(n)]
        reps.append(Isometry(flip, flip_shift))
    gens = reps[1:] + [Isometry.translation_by(t) for t in translations]
    return DeckGroup(n, TranslationLattice(basis), reps, name=name, word_generators=gens)


def zk_deck(k: int) -> DeckGroup:
    """Z^k acting by unit translations, packaged as a deck group."""
    units = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return _bundled(f"z{k}", units, translations=units)


def heisenberg_group() -> GeneratedGroup:
    return GeneratedGroup.closure(HEISENBERG_IDENTITY, HEISENBERG_SERIES[:2], name="heisenberg")


def builtin_generated_group(name: str) -> GeneratedGroup:
    if name == "heisenberg":
        return heisenberg_group()
    if name in GENERATED_GROUP_NAMES:
        return builtin_deck_group(name).generated()
    raise KeyError(f"unknown group {name!r}; choose from {sorted(GENERATED_GROUP_NAMES)}")


# Every bundled flat space, one row each: (lattice basis, glide shift or
# None, word-generator translations); `_bundled` builds the deck.
_BUILTIN_DECKS = {
    "torus2": (((1, 0), (0, 1)), None, ((1, 0), (0, 1))),
    "cylinder2": (((0, 1),), None, ((0, 1),)),
    "moebius2": (((2, 0),), (1, 0), ()),
    "klein2": (((2, 0), (0, 1)), (1, 0), ((0, 1),)),
    "moebiusxT": (((2, 0, 0), (0, 0, 1)), (1, 0, 0), ((0, 0, 1),)),
}

ZK_NAMES = ("z1", "z2", "z3")
DECK_GROUP_NAMES = tuple(sorted(_BUILTIN_DECKS))
GENERATED_GROUP_NAMES = ZK_NAMES + ("heisenberg",) + DECK_GROUP_NAMES
# every --space name, table order first
SPACE_NAMES = tuple(_BUILTIN_DECKS) + ZK_NAMES


@cache
def builtin_deck_group(name: str) -> DeckGroup:
    """The bundled deck group ``name`` (z1-z3 too), built and validated once
    per process and then shared, frozen: a gain for command streams in one
    process, none for a one-shot CLI call. ORBITLAB_CAP is read per scan."""
    if name in ZK_NAMES:
        return zk_deck(int(name[1]))
    try:
        row = _BUILTIN_DECKS[name]
    except KeyError:
        raise KeyError(f"unknown deck group {name!r}; choose from {sorted(DECK_GROUP_NAMES)}") from None
    return _bundled(name, *row)


def hurewicz_images(name: str) -> List[Tuple[object, Tuple[int, ...]]]:
    """(generator, image in the abelianization Z^k) pairs: x and y of the
    Heisenberg group, or a lattice deck's word generators and coordinates."""
    if name == "heisenberg":
        return list(zip(HEISENBERG_SERIES[:2], [(1, 0), (0, 1)]))
    if name in GENERATED_GROUP_NAMES:
        deck = builtin_deck_group(name)
        if deck.index_over_lattice == 1:
            return [(g, deck.normal_form(g).coords) for g in deck.word_generators]
    raise ValueError(f"no bundled abelianization data for {name!r}")
