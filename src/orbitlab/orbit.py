"""Orbit and word growth: counting, log-log fitting, and comparison lemmas.

Counts are exact (integer lattice enumeration or breadth-first word
balls); only the growth-exponent fit is floating point, since it is a
least-squares regression on log-transformed data.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import log
from operator import mul, sub as sub_
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import algebra
from .errors import InconsistentCosets, InsufficientSamples
from .euclid import Isometry, Point, frac, leq_radius_plus_sqrt, mat_inverse
from .groups import DeckGroup, DeckWord, GeneratedGroup, word_ball_counts, word_spheres
from .groups import _ball_limit, _plus_sqrt_limit


def fit_power_law(radii: Sequence[float], counts: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope and R^2 of log(count) against log(radius)."""
    if len(radii) != len(counts):
        raise ValueError("radii and counts must pair up")
    if len(radii) < 3:
        raise InsufficientSamples("power-law fit needs at least three radii")
    if any(r <= 0 for r in radii) or any(c <= 0 for c in counts):
        raise ValueError("radii and counts must be positive for a log-log fit")
    xs = [log(float(r)) for r in radii]
    ys = [log(float(c)) for c in counts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("radii must not all coincide")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, r2


@dataclass(frozen=True)
class GrowthSeries:
    """Counts of a ball family at increasing radii, with a power-law fit."""

    radii: Tuple[float, ...]
    counts: Tuple[int, ...]
    label: str = ""

    @cached_property
    def _fit(self) -> Tuple[float, float]:
        return fit_power_law(self.radii, self.counts)

    @property
    def fitted_exponent(self) -> float:
        return self._fit[0]

    @property
    def fit_r2(self) -> float:
        return self._fit[1]


def _image_dists(hits) -> List[Fraction]:
    """Sorted squared distances of the distinct orbit points among hits.

    The hits come sorted by (distance, image), as `DeckGroup` returns them,
    so repeated images are adjacent and their distances already sorted.
    """
    return [h.dist_sq for i, h in enumerate(hits) if not i or h.image != hits[i - 1].image]


def image_counts(hits, radii_sq: Sequence) -> List[int]:
    """Distinct orbit points among ``hits`` in the closed ball of each
    squared radius (Fractions); the hits must reach the largest one."""
    dists = _image_dists(hits)
    return [bisect.bisect_right(dists, r2) for r2 in radii_sq]


def _image_qs(records) -> List[int]:
    """`_image_dists` for `DeckGroup._records`: the sorted q of the distinct images."""
    return [r[0] for i, r in enumerate(records) if not i or r[1] != records[i - 1][1]]


def ball_counts(deck: DeckGroup, x: Point, radii_sq: Sequence) -> List[int]:
    """Distinct orbit points of x in the closed ball of each squared radius.

    One integer scan at the largest squared radius (`DeckGroup._records`, no
    isometry or point per hit), then each distinct image's q bucketed against
    r^2 * scale; r^2 need not be a perfect square (h^2 r^2 in Milnor).
    """
    rs2 = [frac(v) for v in radii_sq]
    scale, _, records = deck._records(x, x, _ball_limit(max(rs2, default=Fraction(0))))
    qs = _image_qs(records)
    return [bisect.bisect_right(qs, _ball_limit(r2)(scale)) for r2 in rs2]


def orbit_ball_count(deck: DeckGroup, x: Point, radius) -> int:
    """Number of distinct orbit points of x within the closed ball of ``radius``."""
    r = frac(radius)
    return ball_counts(deck, x, [r * r])[0]


def orbit_growth(deck: DeckGroup, x: Point, radii: Sequence) -> GrowthSeries:
    rs = sorted(frac(v) for v in radii)
    # counted over hits, not records: perfbench/test_harness.py probes the
    # tracer's enumerate_orbit and Isometry wrappers through this function
    rs2 = [r * r for r in rs]
    return GrowthSeries(
        radii=tuple(float(r) for r in rs),
        counts=tuple(image_counts(deck.enumerate_orbit(x, max(rs2, default=Fraction(0))), rs2)),
        label=deck.name or "orbit",
    )


def word_growth(group: GeneratedGroup, radii: Sequence[int], cap: Optional[int] = None) -> GrowthSeries:
    rs = sorted(int(r) for r in radii)
    cumulative = word_ball_counts(group, rs[-1], cap=cap)
    return GrowthSeries(
        radii=tuple(float(r) for r in rs),
        counts=tuple(cumulative[r] for r in rs),
        label=group.name or "word",
    )


class MilnorRow(NamedTuple):
    radius: int
    word_count: int
    orbit_count: int
    ok: bool


@dataclass(frozen=True)
class MilnorReport:
    """Word balls embedded in orbit balls: W(r) inside D(x, h*r).

    ``displacement_bound_sq`` is h^2 where h is the largest generator
    displacement at the base point. Both the pointwise containment and
    the derived count inequality #W(r) <= #D(x, h*r) are checked with
    exact arithmetic.
    """

    base_point: Point
    displacement_bound_sq: Fraction
    rows: Tuple[MilnorRow, ...]
    pointwise_failures: Tuple[Tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.pointwise_failures and all(r.ok for r in self.rows)


def milnor_check(
    deck: DeckGroup, x: Point, radii: Sequence[int], cap: Optional[int] = None
) -> MilnorReport:
    # the word ball runs on normal forms (int tuples), with displacements
    # in integers, unless a word generator lies outside the deck
    group = deck.generated()
    scale, disp = deck.word_displacements(x) if group.words else (1, lambda g: g.displacement_sq(x))
    group = group.words or group
    h_int = max((disp(g) for g in group.generators), default=0)
    if h_int == 0:
        raise ValueError("every generator fixes the base point; no displacement bound")
    h_sq = Fraction(h_int, scale)
    rs = sorted(int(r) for r in radii)

    pointwise: List[Tuple[int, str]] = []
    sizes = [0] * (rs[-1] + 1)
    for depth, sphere in enumerate(word_spheres(group, rs[-1], cap)):
        bound = h_int * depth * depth
        pointwise.extend((depth, str(g.to_obj())) for g in sphere if disp(g) > bound)
        sizes[depth] = len(sphere)
    word_cum = list(accumulate(sizes))

    # the orbit radius h*r may be irrational but its square h^2 r^2 is not
    orbit_counts = ball_counts(deck, x, [h_sq * r * r for r in rs])
    rows = [MilnorRow(r, word_cum[r], oc, word_cum[r] <= oc) for r, oc in zip(rs, orbit_counts)]
    return MilnorReport(
        base_point=x,
        displacement_bound_sq=h_sq,
        rows=tuple(rows),
        pointwise_failures=tuple(pointwise),
    )


class IndexRow(NamedTuple):
    radius: int
    whole_count: int
    subgroup_count_extended: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class IndexComparisonReport:
    index: int
    slack_dist_sq: Fraction  # r0^2, the largest transversal displacement
    rows: Tuple[IndexRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def translation_subgroup(deck: DeckGroup) -> DeckGroup:
    """The pure-translation lattice of a deck group, as a deck group."""
    gens = tuple(Isometry.translation_by(b) for b in deck.lattice.basis)
    return DeckGroup(
        deck.dimension,
        deck.lattice,
        (Isometry.identity(deck.dimension),),
        name=(deck.name + "-translations") if deck.name else "translations",
        word_generators=gens,
    )


def subgroup_index(whole: DeckGroup, sub: DeckGroup) -> int:
    """Index [whole : sub], requiring sub's lattice to sit inside whole's."""
    if whole.dimension != sub.dimension:
        raise ValueError("groups act on different spaces")
    if sub.lattice.rank != whole.lattice.rank:
        raise ValueError("subgroup lattice rank differs; the pair is not cocompact")
    for rep in sub.coset_reps:
        if rep not in whole:
            raise ValueError("subgroup representative falls outside the group")
    coord_rows = []
    for b in sub.lattice.basis:
        coords = whole.lattice.coordinates(b)
        if coords is None:
            raise ValueError("subgroup lattice must sit inside the ambient lattice")
        coord_rows.append(list(coords))
    lattice_index = abs(algebra.int_determinant(coord_rows)) if coord_rows else 1
    if lattice_index == 0:
        raise ValueError("subgroup lattice is degenerate inside the ambient lattice")
    num = lattice_index * whole.index_over_lattice
    if num % sub.index_over_lattice:
        raise InconsistentCosets("coset counts are incompatible with the lattice index")
    return num // sub.index_over_lattice


def _membership(whole: DeckGroup, sub: DeckGroup) -> Callable[[DeckWord], bool]:
    """Membership in ``sub`` for elements of ``whole`` in normal form.

    sub is the union of rep_j * t(L') over its representatives, so (c, m)
    lies in sub iff some rep_j = (c, n_j) in whole's normal form has
    m - n_j in L'. With S the coordinates of L''s basis in whole's lattice
    (rows), that is (m - n_j) adj(S) = 0 mod det S.
    """
    reps = [whole.normal_form(r) for r in sub.coset_reps]
    rows = [whole.lattice.coordinates(b) for b in sub.lattice.basis]
    det = algebra.int_determinant(rows)
    # the columns of adj(S) = det S * S^-1, an integer matrix
    adj_cols = list(zip(*([int(det * x) for x in row] for row in mat_inverse(rows))))

    def inside(g: DeckWord) -> bool:
        for r in reps:
            if r.coset == g.coset:
                diff = tuple(map(sub_, g.coords, r.coords))
                if all(sum(map(mul, diff, col)) % det == 0 for col in adj_cols):
                    return True
        return False

    return inside


def coset_transversal(whole: DeckGroup, sub: DeckGroup, index: int) -> List[DeckWord]:
    """Representatives k_i with whole = union of sub * k_i (right cosets),
    in normal form: a breadth-first search over whole's word generators."""
    words = whole.words()
    if words is None:
        raise InconsistentCosets("a word generator lies outside the deck group")
    inside = _membership(whole, sub)
    reps, frontier = [words.identity], [words.identity]
    while frontier and len(reps) < index:
        grown = []
        for c in (g * s for g in frontier for s in words.generators):
            if len(reps) < index and not any(inside(c * r.inverse()) for r in reps):
                reps.append(c)
                grown.append(c)
        frontier = grown
    if len(reps) != index:
        raise InconsistentCosets(
            f"found {len(reps)} cosets where the index computation promised {index}"
        )
    return reps


def finite_index_comparison(
    whole: DeckGroup,
    sub: DeckGroup,
    x: Point,
    radii: Sequence[int],
) -> IndexComparisonReport:
    """Check #D_whole(x, r) <= index * #D_sub(x, r + r0) at each radius.

    r0 is the largest displacement of a coset transversal element at x.
    The enlarged subgroup ball is enumerated with exact square-root
    comparisons, so each row is a proven inequality, not an estimate.
    """
    index = subgroup_index(whole, sub)
    transversal = coset_transversal(whole, sub, index)
    disp_scale, disp = whole.word_displacements(x)
    r0_sq = Fraction(max(map(disp, transversal)), disp_scale)

    rs = sorted(int(r) for r in radii)
    # factorization sanity on the largest whole-group ball: each element
    # must land in exactly one right coset of the subgroup (in normal form)
    scale, _, whole_records = whole._records(x, x, _ball_limit(frac(rs[-1] * rs[-1])))
    inside = _membership(whole, sub)
    k_inverses = [k.inverse() for k in transversal]
    for *_, c, m in whole_records:
        g = DeckWord(c, m, whole._kernel)
        matches = sum(1 for k in k_inverses if inside(g * k))
        if matches != 1:
            raise InconsistentCosets(
                f"element matched {matches} transversal cosets instead of one"
            )

    # one scan per group at the outermost radius, then exact bucketing
    whole_qs = _image_qs(whole_records)
    sub_scale, _, sub_records = sub._records(x, x, _plus_sqrt_limit(frac(rs[-1]), r0_sq))
    sub_qs = _image_qs(sub_records)
    rows = []
    for r in rs:
        whole_count = bisect.bisect_right(whole_qs, r * r * scale)
        sub_count = bisect.bisect_left(
            sub_qs, True, key=lambda q: not leq_radius_plus_sqrt(Fraction(q, sub_scale), r, r0_sq)
        )
        bound = index * sub_count
        rows.append(IndexRow(r, whole_count, sub_count, bound, whole_count <= bound))
    return IndexComparisonReport(index=index, slack_dist_sq=r0_sq, rows=tuple(rows))
