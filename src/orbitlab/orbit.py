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
from math import log
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InconsistentCosets, InsufficientSamples
from .euclid import Isometry, Point, frac, leq_radius_plus_sqrt
from .groups import DeckGroup, GeneratedGroup, word_ball, word_ball_counts


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


def orbit_ball_count(deck: DeckGroup, x: Point, radius) -> int:
    """Number of distinct orbit points of x within the closed ball of ``radius``."""
    r = frac(radius)
    hits = deck.enumerate_orbit(x, r * r)
    return len({tuple(h.image) for h in hits})


def _image_dists(hits) -> List[Fraction]:
    """Sorted squared distances of the distinct orbit points among hits."""
    return sorted({tuple(h.image): h.dist_sq for h in hits}.values())


def orbit_growth(deck: DeckGroup, x: Point, radii: Sequence) -> GrowthSeries:
    # one enumeration at the outermost radius, then exact bucketing
    rs = sorted(frac(v) for v in radii)
    dists = _image_dists(deck.enumerate_orbit(x, max((r * r for r in rs), default=0)))
    return GrowthSeries(
        radii=tuple(float(r) for r in rs),
        counts=tuple(bisect.bisect_right(dists, r * r) for r in rs),
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
    group = deck.generated()
    h_sq = Fraction(0)
    for g in group.generators:
        h_sq = max(h_sq, g.displacement_sq(x))
    if h_sq == 0:
        raise ValueError("every generator fixes the base point; no displacement bound")
    rs = sorted(int(r) for r in radii)
    lengths = word_ball(group, rs[-1], cap=cap)

    pointwise: List[Tuple[int, str]] = []
    word_cum = [0] * (rs[-1] + 1)
    for g, depth in lengths.items():
        word_cum[depth] += 1
        if g.displacement_sq(x) > h_sq * depth * depth:
            pointwise.append((depth, str(g.to_obj())))
    for i in range(1, len(word_cum)):
        word_cum[i] += word_cum[i - 1]

    # one enumeration at the outermost radius, then exact bucketing; the
    # orbit radius h*r may be irrational but its square h^2 r^2 is not
    dists = _image_dists(deck.enumerate_orbit(x, h_sq * rs[-1] * rs[-1]))
    rows = []
    for r in rs:
        wc = word_cum[r]
        oc = bisect.bisect_right(dists, h_sq * r * r)
        rows.append(MilnorRow(r, wc, oc, wc <= oc))
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
    from .algebra import int_determinant

    lattice_index = abs(int_determinant(coord_rows)) if coord_rows else 1
    if lattice_index == 0:
        raise ValueError("subgroup lattice is degenerate inside the ambient lattice")
    num = lattice_index * whole.index_over_lattice
    if num % sub.index_over_lattice:
        raise InconsistentCosets("coset counts are incompatible with the lattice index")
    return num // sub.index_over_lattice


def coset_transversal(whole: DeckGroup, sub: DeckGroup, index: int) -> List[Isometry]:
    """Representatives k_i with whole = union of sub * k_i (right cosets)."""
    gens = whole.generated().generators
    ident = Isometry.identity(whole.dimension)
    reps = [ident]
    frontier = [ident]
    while frontier and len(reps) < index:
        grown = []
        for g in frontier:
            for s in gens:
                c = g * s
                if any((c * r.inverse()) in sub for r in reps):
                    continue
                reps.append(c)
                grown.append(c)
                if len(reps) == index:
                    return reps
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
    r0_sq = Fraction(0)
    for k in transversal:
        r0_sq = max(r0_sq, k.displacement_sq(x))

    rs = sorted(int(r) for r in radii)
    # factorization sanity on the largest whole-group ball: each element
    # must land in exactly one right coset of the subgroup
    whole_hits = whole.enumerate_orbit(x, rs[-1] * rs[-1])
    for hit in whole_hits:
        matches = sum(1 for k in transversal if (hit.element * k.inverse()) in sub)
        if matches != 1:
            raise InconsistentCosets(
                f"element matched {matches} transversal cosets instead of one"
            )

    # one enumeration per group at the outermost radius, then exact bucketing
    whole_dists = _image_dists(whole_hits)
    sub_dists = _image_dists(sub.enumerate_orbit_plus_sqrt(x, rs[-1], r0_sq))
    rows = []
    for r in rs:
        whole_count = bisect.bisect_right(whole_dists, r * r)
        sub_count = bisect.bisect_left(
            sub_dists, True, key=lambda d2: not leq_radius_plus_sqrt(d2, r, r0_sq)
        )
        bound = index * sub_count
        rows.append(IndexRow(r, whole_count, sub_count, bound, whole_count <= bound))
    return IndexComparisonReport(index=index, slack_dist_sq=r0_sq, rows=tuple(rows))
