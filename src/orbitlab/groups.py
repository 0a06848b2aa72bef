"""Finitely generated groups, word balls, and crystallographic deck groups.

Two flavors of group live here. ``GeneratedGroup`` is a thin wrapper
around any hashable elements with ``*`` and ``.inverse()`` (exact
isometries, Heisenberg triples) and feeds the breadth-first word-ball
machinery. ``DeckGroup`` models a cocompact group of euclidean
isometries as finitely many isometry cosets over a translation lattice,
which makes orbit enumeration exact: every orbit point in a ball is
found by integer lattice search, never by flood fill.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
    mat_rank,
    mat_vec,
    sqrt_upper,
    vec_add,
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
        return HeisenbergElement(
            self.a + other.a,
            self.b + other.b,
            self.c + other.c + self.a * other.b,
        )

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.a, -self.b, -self.c + self.a * self.b)


HEISENBERG_IDENTITY = HeisenbergElement(0, 0, 0)


@dataclass(frozen=True)
class GeneratedGroup:
    """A group presented by a finite symmetric generating set.

    ``generators`` never contains the identity and is closed under
    inverses; use :meth:`closure` to build one from an arbitrary list.
    """

    identity: object
    generators: tuple
    name: str = ""

    @classmethod
    def closure(cls, identity, generators: Iterable, name: str = "") -> "GeneratedGroup":
        out = []
        seen = set()
        for g in generators:
            for h in (g, g.inverse()):
                if h == identity or h in seen:
                    continue
                seen.add(h)
                out.append(h)
        return cls(identity=identity, generators=tuple(out), name=name)


def word_ball(group: GeneratedGroup, radius: int, cap: Optional[int] = None) -> Dict[object, int]:
    """Map each element of word length <= radius to its word length."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    limit = enumeration_cap() if cap is None else cap
    lengths: Dict[object, int] = {group.identity: 0}
    frontier = [group.identity]
    for depth in range(1, radius + 1):
        grown: List[object] = []
        for g in frontier:
            for s in group.generators:
                h = g * s
                if h not in lengths:
                    if len(lengths) >= limit:
                        raise CapExceeded(
                            f"word ball of radius {radius} exceeds {limit} elements",
                            limit=limit,
                        )
                    lengths[h] = depth
                    grown.append(h)
        if not grown:
            break
        frontier = grown
    return lengths


def word_ball_counts(group: GeneratedGroup, max_radius: int, cap: Optional[int] = None) -> List[int]:
    """Cumulative word-ball sizes [#W(0), #W(1), ..., #W(max_radius)]."""
    lengths = word_ball(group, max_radius, cap=cap)
    counts = [0] * (max_radius + 1)
    for depth in lengths.values():
        counts[depth] += 1
    total = 0
    out = []
    for c in counts:
        total += c
        out.append(total)
    return out


def word_length(group: GeneratedGroup, element, cap: Optional[int] = None) -> int:
    """Least number of generators multiplying to ``element``."""
    limit = enumeration_cap() if cap is None else cap
    if element == group.identity:
        return 0
    lengths = {group.identity: 0}
    frontier = [group.identity]
    depth = 0
    while frontier:
        depth += 1
        grown = []
        for g in frontier:
            for s in group.generators:
                h = g * s
                if h == element:
                    return depth
                if h not in lengths:
                    if len(lengths) >= limit:
                        raise NotFoundWithinCap(
                            f"no word of length <= cap {limit} reaches the element"
                        )
                    lengths[h] = depth
                    grown.append(h)
        frontier = grown
    raise NotFoundWithinCap("element is not in the generated group")


class LatticePoint(NamedTuple):
    coords: Tuple[int, ...]  # integer coordinates in the lattice basis
    vector: Tuple[Fraction, ...]  # the lattice vector itself
    dist_sq: Fraction  # squared distance to the query vector


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
    def _int_gram(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        # gram = (integer matrix) / scale
        scale = 1
        for row in self.gram:
            for x in row:
                scale = scale * x.denominator // _gcd(scale, x.denominator)
        mat = tuple(tuple(int(x * scale) for x in row) for row in self.gram)
        return mat, scale

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

    def _projection_data(self, w: Tuple[Fraction, ...]):
        """Least-squares data for |B m - w|^2 = Q(m) + c0."""
        proj = tuple(vec_dot(b, w) for b in self.basis)
        a = mat_vec(self.gram_inverse, proj)
        c0 = vec_dot(w, w) - vec_dot(a, proj)
        return a, c0

    def points_near(self, target: Sequence, radius_sq) -> List[LatticePoint]:
        """All lattice vectors u with |u - target|^2 <= radius_sq, exactly."""
        rho2 = frac(radius_sq)
        return self._enumerate(tuple(frac(x) for x in target), rho2, None)

    def points_near_plus_sqrt(self, target: Sequence, radius, slack_sq) -> List[LatticePoint]:
        """All lattice vectors u with |u - target| <= radius + sqrt(slack_sq)."""
        r = frac(radius)
        q2 = frac(slack_sq)
        bound = (r + sqrt_upper(q2)) ** 2
        return self._enumerate(
            tuple(frac(x) for x in target),
            bound,
            lambda d2: leq_radius_plus_sqrt(d2, r, q2),
        )

    def _enumerate(self, w, rho2_ub: Fraction, keep) -> List[LatticePoint]:
        if self.rank == 0:
            d2 = vec_dot(w, w)
            ok = keep(d2) if keep is not None else d2 <= rho2_ub
            return [LatticePoint((), tuple(w), d2)] if ok else []
        a, c0 = self._projection_data(w)
        out: List[LatticePoint] = []
        if c0 > rho2_ub:
            return out
        slack = rho2_ub - c0
        ranges = []
        for j in range(self.rank):
            half = sqrt_upper(slack * self.gram_inverse[j][j])
            lo = _ceil_frac(a[j] - half)
            hi = _floor_frac(a[j] + half)
            if lo > hi:
                return out
            ranges.append(range(lo, hi + 1))
        gram_int, e_scale = self._int_gram
        d_scale = 1
        for x in a:
            d_scale = d_scale * x.denominator // _gcd(d_scale, x.denominator)
        alpha = [int(x * d_scale) for x in a]
        denom = d_scale * d_scale * e_scale
        # exact integer comparison: Q(m) <= slack  <=>  q_int * slack.den <= slack.num * denom
        q_limit_num = slack.numerator * denom
        q_limit_den = slack.denominator
        k = self.rank
        for m in product(*ranges):
            mu = [d_scale * m[j] - alpha[j] for j in range(k)]
            q_int = 0
            for i in range(k):
                gi = gram_int[i]
                mi = mu[i]
                if mi:
                    q_int += mi * sum(gi[j] * mu[j] for j in range(k))
            if keep is None:
                if q_int * q_limit_den > q_limit_num:
                    continue
                d2 = Fraction(q_int, denom) + c0
            else:
                d2 = Fraction(q_int, denom) + c0
                if not keep(d2):
                    continue
            out.append(LatticePoint(tuple(m), self.vector(m), d2))
        out.sort(key=lambda p: (p.dist_sq, p.coords))
        return out

    def nearest_dist_sq(self, target: Sequence) -> Fraction:
        """Exact squared distance from target to the lattice."""
        w = tuple(frac(x) for x in target)
        if self.rank == 0:
            return vec_dot(w, w)
        a, c0 = self._projection_data(w)
        rounded = tuple(_round_frac(x) for x in a)
        diff = vec_sub(self.vector(rounded), w)
        upper = vec_dot(diff, diff)
        hits = self._enumerate(w, upper, None)
        return hits[0].dist_sq if hits else upper


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _round_frac(x: Fraction) -> int:
    return _floor_frac(x + Fraction(1, 2))


def search_center(rep: Isometry, x: Point, y: Point) -> Tuple[Fraction, ...]:
    """The w with |(rep * t_v)(y) - x|^2 = |v - w|^2 for every vector v."""
    return vec_sub(rep.preimage(tuple(x)), tuple(y))


class OrbitHit(NamedTuple):
    element: Isometry
    image: Point
    dist_sq: Fraction


@dataclass(frozen=True)
class DeckGroup:
    """Group of isometries split as finitely many cosets of a lattice.

    Every element factors uniquely as ``rep * translation`` with the
    translation drawn from ``lattice``; the constructor verifies that
    the cosets really tile a group (lattice invariance, distinctness,
    closure, and an identity coset).
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

    def _locate(self, g: Isometry) -> Optional[Tuple[int, Tuple[Fraction, ...]]]:
        """(i, v) with g = coset_reps[i] * translation_by(v), or None."""
        for i, h in enumerate(self.coset_reps):
            if h.orthogonal == g.orthogonal:
                v = h.preimage(g.translation)
                if v in self.lattice:
                    return i, v
        return None

    def coset_index(self, g: Isometry) -> Optional[int]:
        found = self._locate(g)
        return None if found is None else found[0]

    def __contains__(self, g: Isometry) -> bool:
        return self.coset_index(g) is not None

    def factor(self, g: Isometry) -> Tuple[int, Tuple[Fraction, ...]]:
        """Indices (i, v) with g = coset_reps[i] * translation_by(v), v in the lattice."""
        found = self._locate(g)
        if found is None:
            raise InconsistentCosets("element does not belong to the deck group")
        return found

    @property
    def index_over_lattice(self) -> int:
        return len(self.coset_reps)

    def generated(self) -> GeneratedGroup:
        gens: List[Isometry] = list(self.word_generators)
        if not gens:
            gens = [Isometry.translation_by(b) for b in self.lattice.basis]
            ident = Isometry.identity(self.dimension)
            gens += [h for h in self.coset_reps if h != ident]
        return GeneratedGroup.closure(Isometry.identity(self.dimension), gens, name=self.name)

    def _hits(self, x: Point, y: Point, near) -> List[OrbitHit]:
        """The g = rep * t_v whose lattice vector v is in ``near(w)``, where
        w is rep's search center for (x, y); sorted by |g(y) - x|^2.

        The one loop over coset representatives times a lattice query.
        With rep = (A, b), each hit builds the single isometry
        g = (A, A v + b), no matrix product, and its image
        g(y) = A y + (A v + b) with A y computed once per coset;
        translation cosets skip A altogether.
        """
        if y.dimension != self.dimension:
            raise DimensionMismatch("isometry and point dimensions disagree")
        hits: List[OrbitHit] = []
        for rep in self.coset_reps:
            a, b = rep.orthogonal, rep.translation
            points = near(search_center(rep, x, y))
            if rep.is_translation:
                for lp in points:
                    t = vec_add(lp.vector, b)
                    hits.append(OrbitHit(Isometry(a, t), Point(vec_add(y.coords, t)), lp.dist_sq))
            else:
                ay = mat_vec(a, y.coords)
                for lp in points:
                    t = vec_add(mat_vec(a, lp.vector), b)
                    hits.append(OrbitHit(Isometry(a, t), Point(vec_add(ay, t)), lp.dist_sq))
        hits.sort(key=lambda h: (h.dist_sq, tuple(h.image), h.element.sort_key()))
        return hits

    def lifts_near(self, x: Point, y: Point, radius_sq) -> List[OrbitHit]:
        """All g with |g(y) - x|^2 <= radius_sq, sorted by distance."""
        rho2 = frac(radius_sq)
        return self._hits(x, y, lambda w: self.lattice.points_near(w, rho2))

    def enumerate_orbit(self, x: Point, radius_sq) -> List[OrbitHit]:
        """All g with |g(x) - x|^2 <= radius_sq, sorted by distance.

        The ball boundary is included, matching a closed-ball orbit count.
        """
        return self.lifts_near(x, x, radius_sq)

    def enumerate_orbit_plus_sqrt(self, x: Point, radius, slack_sq) -> List[OrbitHit]:
        """All g with |g(x) - x| <= radius + sqrt(slack_sq), decided exactly."""
        r, q2 = frac(radius), frac(slack_sq)
        return self._hits(x, x, lambda w: self.lattice.points_near_plus_sqrt(w, r, q2))

    def quotient_dist_sq(self, x: Point, y: Point) -> Fraction:
        """Squared distance between the classes of x and y in the quotient."""
        best: Optional[Fraction] = None
        for rep in self.coset_reps:
            d2 = self.lattice.nearest_dist_sq(search_center(rep, x, y))
            if best is None or d2 < best:
                best = d2
        assert best is not None
        return best


def _reflection_first_axis(n: int, shift: Sequence) -> Isometry:
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rows[1][1] = Fraction(-1)
    return Isometry(tuple(tuple(r) for r in rows), tuple(frac(x) for x in shift))


def zk_group(k: int) -> GeneratedGroup:
    gens = []
    for i in range(k):
        shift = [Fraction(0)] * k
        shift[i] = Fraction(1)
        gens.append(Isometry.translation_by(shift))
    return GeneratedGroup.closure(Isometry.identity(k), gens, name=f"z{k}")


def zk_deck(k: int) -> DeckGroup:
    """Z^k acting by unit translations, packaged as a deck group."""
    lat = TranslationLattice(
        [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    )
    gens = tuple(Isometry.translation_by(b) for b in lat.basis)
    return DeckGroup(
        k, lat, (Isometry.identity(k),), name=f"z{k}", word_generators=gens
    )


def heisenberg_group() -> GeneratedGroup:
    return GeneratedGroup.closure(
        HEISENBERG_IDENTITY,
        [HeisenbergElement(1, 0, 0), HeisenbergElement(0, 1, 0)],
        name="heisenberg",
    )


def builtin_generated_group(name: str) -> GeneratedGroup:
    if name in ("z1", "z2", "z3"):
        return zk_group(int(name[1]))
    if name == "heisenberg":
        return heisenberg_group()
    deck = _BUILTIN_DECKS.get(name)
    if deck is not None:
        return deck().generated()
    raise KeyError(f"unknown group {name!r}; choose from {sorted(GENERATED_GROUP_NAMES)}")


def torus2_deck() -> DeckGroup:
    lat = TranslationLattice([(1, 0), (0, 1)])
    ident = Isometry.identity(2)
    return DeckGroup(
        2,
        lat,
        (ident,),
        name="torus2",
        word_generators=(
            Isometry.translation_by((1, 0)),
            Isometry.translation_by((0, 1)),
        ),
    )


def cylinder2_deck() -> DeckGroup:
    lat = TranslationLattice([(0, 1)])
    ident = Isometry.identity(2)
    return DeckGroup(
        2,
        lat,
        (ident,),
        name="cylinder2",
        word_generators=(Isometry.translation_by((0, 1)),),
    )


def moebius2_deck() -> DeckGroup:
    lat = TranslationLattice([(2, 0)])
    s = _reflection_first_axis(2, (1, 0))
    return DeckGroup(
        2,
        lat,
        (Isometry.identity(2), s),
        name="moebius2",
        word_generators=(s,),
    )


def klein2_deck() -> DeckGroup:
    lat = TranslationLattice([(2, 0), (0, 1)])
    s = _reflection_first_axis(2, (1, 0))
    return DeckGroup(
        2,
        lat,
        (Isometry.identity(2), s),
        name="klein2",
        word_generators=(s, Isometry.translation_by((0, 1))),
    )


def moebius_x_circle_deck() -> DeckGroup:
    lat = TranslationLattice([(2, 0, 0), (0, 0, 1)])
    s = _reflection_first_axis(3, (1, 0, 0))
    return DeckGroup(
        3,
        lat,
        (Isometry.identity(3), s),
        name="moebiusxT",
        word_generators=(s, Isometry.translation_by((0, 0, 1))),
    )


_BUILTIN_DECKS = {
    "torus2": torus2_deck,
    "cylinder2": cylinder2_deck,
    "moebius2": moebius2_deck,
    "klein2": klein2_deck,
    "moebiusxT": moebius_x_circle_deck,
}

DECK_GROUP_NAMES = tuple(sorted(_BUILTIN_DECKS))
GENERATED_GROUP_NAMES = ("z1", "z2", "z3", "heisenberg") + DECK_GROUP_NAMES


def builtin_deck_group(name: str) -> DeckGroup:
    try:
        return _BUILTIN_DECKS[name]()
    except KeyError:
        raise KeyError(
            f"unknown deck group {name!r}; choose from {sorted(DECK_GROUP_NAMES)}"
        ) from None
