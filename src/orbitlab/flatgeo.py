"""Flat quotient geometry: Dirichlet cells, ray extension, volumes, duality.

The exact layer (membership, nearest lifts, ray extension) works in
rational arithmetic with explicit finiteness certificates, so every
yes/no answer is proven, not sampled. The volume layer is Monte Carlo
with stratified variance control; closed-form references exist for the
two bundled 2-dimensional quotients where the integral is elementary.

The soul of a flat quotient R^n / G lifts to a translate of the span of
G's lattice, so soul data is read off the deck, never kept per space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    CapExceeded,
    InsufficientSamples,
    NonCommutingGenerators,
    UnfixedLatticeSpan,
    UnsupportedMethod,
    WrongLatticeRank,
)
from .euclid import (
    Isometry,
    Point,
    frac,
    mat_inverse,
    mat_rank,
    mat_vec,
    rref,
    sqrt_upper,
    vec_dot,
    vec_sub,
)
from .groups import ZK_NAMES, DeckGroup, _BUILTIN_DECKS, _ball_limit, _ints, _plus_sqrt_limit, word_ball_counts
from .orbit import ball_counts

BASE_POINTS: Dict[str, Point] = {
    "torus2": Point.of(0, 0),
    "cylinder2": Point.of(0, 0),
    "moebius2": Point.of(0, Fraction(3, 10)),
    "klein2": Point.of(Fraction(1, 10), Fraction(1, 10)),
    "moebiusxT": Point.of(0, Fraction(3, 10), 0),
}


def soul_dimension(name: str) -> int:
    """The soul's dimension, the rank of the space's deck-table row (k for
    z_k): no deck is built."""
    if name in ZK_NAMES:
        return int(name[1])
    try:
        return len(_BUILTIN_DECKS[name][0])
    except KeyError:
        raise KeyError(f"no bundled soul dimension for {name!r}") from None


def soul_axis(deck: DeckGroup) -> Optional[int]:
    """The coordinate i with |x_i| the distance to the soul; None at full
    rank, where the soul is everything. Refused unless the soul is the
    hyperplane x_i = 0: lattice rank n - 1, normal to axis i, and every
    coset representative has x_i-translation 0."""
    n, basis = deck.dimension, deck.lattice.basis
    if len(basis) == n:
        return None
    normal = [i for i in range(n) if all(b[i] == 0 for b in basis)]
    if len(basis) != n - 1 or len(normal) != 1 or any(r.translation[normal[0]] for r in deck.coset_reps):
        raise UnsupportedMethod("the soul is not a coordinate hyperplane x_i = 0")
    return normal[0]


def default_base(deck: DeckGroup) -> Point:
    """The bundled base point of the deck group's space, else the origin."""
    base = BASE_POINTS.get(deck.name)
    return base if base is not None else Point(tuple(Fraction(0) for _ in range(deck.dimension)))


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume of the unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


# ---------------------------------------------------------------------------
# exact Dirichlet membership and nearest lifts


def dirichlet_contains(deck: DeckGroup, center: Point, p: Point) -> bool:
    """True when p lies in the closed Dirichlet cell around ``center``."""
    d2 = vec_dot(vec_sub(tuple(p), tuple(center)), vec_sub(tuple(p), tuple(center)))
    return d2 == deck.quotient_dist_sq(p, center)


def nearest_lifts(deck: DeckGroup, center: Point, target: Point) -> Tuple[Fraction, List[Point]]:
    """Orbit points of ``target`` closest to ``center``: (min dist^2, lifts),
    the distinct integer images of `DeckGroup._records` within that minimum."""
    best = deck.quotient_dist_sq(center, target)
    _, den, records = deck._records(center, target, _ball_limit(best))
    return best, [Point(tuple(Fraction(v, den) for v in im)) for im in sorted({r[1] for r in records})]


# ---------------------------------------------------------------------------
# ray extension beyond a minimal segment


@dataclass(frozen=True)
class ExtensionReport:
    """How far the minimal segment from the center through ``target`` extends.

    ``ray_scale`` is the largest t such that center + t*(q - center) still
    realizes the quotient distance, where q is the nearest lift; the
    extension length past q is (ray_scale - 1)*|q - center|, reported via
    its exact square ``extension_sq``. Infinite extensions set ``infinite``
    and leave both fields None. ``search_radius_sq`` is the squared radius
    of the last orbit window enumerated, the one that certified
    ``ray_scale`` (None when no window was needed).
    """

    direction_sq: Fraction
    ray_scale: Optional[Fraction]
    extension_sq: Optional[Fraction]
    infinite: bool
    tie: bool
    search_radius_sq: Optional[Fraction] = None

    @property
    def extension(self) -> float:
        if self.infinite:
            return math.inf
        return (
            float(self.ray_scale - 1) * math.sqrt(float(self.direction_sq))
            if self.ray_scale is not None
            else math.nan
        )

    def within(self, h) -> bool:
        """Exact test: is the extension at most ``h``?

        The same answer as `extension_at_most`, read off the report: an
        element binds by |d| + h iff ray_scale <= 1 + h/|d|, that is
        extension_sq <= h^2 (ties extend by 0, infinite rays by no h).
        """
        hh = frac(h)
        if hh < 0:
            raise ValueError("h must be nonnegative")
        return self.tie or (not self.infinite and self.extension_sq <= hh * hh)


def _ray_setup(deck: DeckGroup, center: Point, nearest: Tuple[Fraction, List[Point]]):
    """(d, |d|^2, tie, (e, [U_c])) from `nearest_lifts`' result: d points to
    the first nearest lift, a tie means several lifts, and U_c = e A_c d, in
    integers over one e, is what every element of coset c reads its slope from."""
    d2, lifts = nearest
    if d2 == 0:
        raise ValueError("target lies on the orbit of the center; no ray direction")
    d = vec_sub(tuple(lifts[0]), tuple(center))
    vs = [mat_vec(rep.orthogonal, d) for rep in deck.coset_reps]
    e = math.lcm(*(x.denominator for v in vs for x in v))
    return d, d2, len(lifts) > 1, (e, [_ints(v, e) for v in vs])


def _slopes(deck: DeckGroup, center: Point, e: int, us, limit: Callable[[int], int]):
    """(E, scale, pairs), a pair (q, S) per record of the center's orbit window:
    |g(x) - x|^2 = q / scale, slope <g(x) - x, A_c d> = S / E with
    S = <den g(x) - den x, U_c> and E = den e, binding at q E / (2 scale (-S)) if S < 0."""
    scale, den, records = deck._records(center, center, limit)
    x = _ints(tuple(center), den)
    xu = [sum(map(mul, x, u)) for u in us]
    return den * e, scale, ((q, sum(map(mul, image, us[c])) - xu[c]) for q, image, _, c, _ in records)


def ray_extension(
    deck: DeckGroup,
    center: Point,
    target: Point,
    max_doublings: int = 64,
    nearest: Optional[Tuple[Fraction, List[Point]]] = None,
) -> ExtensionReport:
    """Exact extension bound for the minimal ray from center toward target.

    Along z(t) = center + t*d each deck element u imposes
    |u(center) - center|^2 + 2t * <u(center) - center, A_u d> >= 0,
    affine in t, so the supremum of feasible t is decided by finitely
    many elements. An element displaced by |c| binds no earlier than
    t = |c| / (2|d|). So once some element binds at T, every element
    outside the window |c|^2 <= 4 T^2 |d|^2 binds after T, and one
    enumeration of that window finds and certifies the minimum. Until
    an element binds the window doubles from 2(|d| + 1), at most
    ``max_doublings`` enumerations in all.

    Windows are scanned as integer records (`_slopes`), the least t kept by
    cross-multiplication; only its best t becomes a Fraction, no element an Isometry.

    ``nearest`` is ``nearest_lifts(deck, center, target)`` when the
    caller already has it.
    """
    if nearest is None:
        nearest = nearest_lifts(deck, center, target)
    d, d2, tie, slopes = _ray_setup(deck, center, nearest)
    if tie:
        return ExtensionReport(d2, Fraction(1), Fraction(0), infinite=False, tie=True)

    c = tuple(center)
    if deck.lattice.orthogonal_to_span(d) and all(
            vec_dot(vec_sub(tuple(rep(center)), c), u) >= 0 for rep, u in zip(deck.coset_reps, slopes[1])):
        return ExtensionReport(d2, None, None, infinite=True, tie=False)

    rho2 = 4 * (sqrt_upper(d2) + 1) ** 2
    for _ in range(max_doublings):
        big, scale, pairs = _slopes(deck, center, *slopes, _ball_limit(rho2))
        best = None  # (q, -S) of the least t = q / -S so far, up to the factor E / (2 scale)
        for q, s in pairs:
            if s < 0 and (best is None or q * best[1] < best[0] * -s):
                best = (q, -s)
        if best is None:
            rho2 *= 4
            continue
        best_t = Fraction(best[0] * big, 2 * scale * best[1])
        certificate = 4 * best_t * best_t * d2
        if certificate <= rho2:
            return ExtensionReport(d2, best_t, (best_t - 1) ** 2 * d2, infinite=False, tie=(best_t == 1),
                                   search_radius_sq=rho2)
        rho2 = certificate
    raise CapExceeded("extension search did not stabilize", limit=max_doublings)


def extension_at_most(deck: DeckGroup, center: Point, target: Point, h) -> bool:
    """Exact test: does the ray extension stay within length ``h``?

    Decided by one bounded enumeration: a binding element u certifies
    YES when its constraint distance t_u*|d| is at most |d| + h, and any
    element displaced farther than 2(|d| + h) cannot beat that bound.
    The window and the bound are integer, as in `ray_extension`.
    """
    hh = frac(h)
    if hh < 0:
        raise ValueError("h must be nonnegative")
    _, d2, tie, slopes = _ray_setup(deck, center, nearest_lifts(deck, center, target))
    if tie:
        return True
    big, scale, pairs = _slopes(deck, center, *slopes, _plus_sqrt_limit(2 * hh, 4 * d2))
    # t_u*|d| <= |d| + h  <=>  sqrt(d2)*k <= -2*slope*h, k = |c|^2 + 2*slope = K / (scale E)
    lhs = d2.numerator * hh.denominator ** 2
    rhs = 4 * (scale * hh.numerator) ** 2 * d2.denominator
    for q, s in pairs:
        k = q * big + 2 * s * scale
        if s < 0 and (k <= 0 or lhs * k * k <= rhs * s * s):
            return True
    return False


@dataclass(frozen=True)
class DirichletQuery:
    """Everything the Dirichlet query reports about ``target``.

    ``in_cell``: target lies in the closed Dirichlet cell of the center;
    ``dist_sq`` and ``lifts``: `nearest_lifts`; ``extension``: the
    `ray_extension` report, None when target is on the center's orbit.
    """

    in_cell: bool
    dist_sq: Fraction
    lifts: Tuple[Point, ...]
    extension: Optional[ExtensionReport]


def dirichlet_query(deck: DeckGroup, center: Point, target: Point) -> DirichletQuery:
    """Cell membership, nearest lifts and ray extension from one
    nearest-lift solve.

    The quotient distance is symmetric, so target is in the cell exactly
    when |target - center|^2 equals the nearest-lift distance, and the
    ray starts from the same lifts.
    """
    d2, lifts = nearest_lifts(deck, center, target)
    diff = vec_sub(tuple(target), tuple(center))
    extension = (
        None if d2 == 0 else ray_extension(deck, center, target, nearest=(d2, lifts))
    )
    return DirichletQuery(vec_dot(diff, diff) == d2, d2, tuple(lifts), extension)


# ---------------------------------------------------------------------------
# Monte Carlo volumes


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    sigma: float
    samples: int
    region_volume: float
    seed_used: Tuple[int, ...]


def _strata_per_axis(samples: int, dim: int) -> int:
    s = 1
    while (s + 1) ** dim * 32 <= samples and s < 10:
        s += 1
    return s


def cKDTree(points):
    """scipy's kd-tree over ``points``; scipy is imported on the first call."""
    from scipy.spatial import cKDTree
    return cKDTree(points)


# the most samples one indicator call sees; blocks hold whole cells, so
# only a single cell larger than this makes a larger block
_BLOCK_SAMPLES = 1 << 14


def _stratified_estimate(
    indicator: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    samples: int,
    seed,
) -> VolumeEstimate:
    """Stratified Monte Carlo volume of {x in [lo, hi] : indicator(x)}.

    The box is cut into s^dim equal cells, s = `_strata_per_axis` (at
    most 10 per axis, at least 32 samples per cell); cell c has index
    (c // s^i) % s on axis i, so axis 0 varies fastest. Each cell gets
    samples // cells points, the first samples % cells cells one more,
    drawn uniformly in the cell from one ``default_rng(seed)`` stream in
    cell order.

    The points are drawn a block of consecutive whole cells at a time,
    at most ``_BLOCK_SAMPLES`` rows unless one cell alone is larger, and
    the indicator sees each block once. ``rng.random`` scaled in place by
    the cell's width and shifted by its low corner is exactly what
    ``rng.uniform(cell_lo, cell_hi)`` computes per cell, from the same
    doubles in the same order, so the samples do not depend on the
    blocking. The per-cell terms of the value and the variance are then
    added in cell order in Python floats, as a per-cell loop adds them;
    a numpy sum would add them pairwise and change the last bits.
    """
    import numpy as np
    if samples < 64:
        raise InsufficientSamples("need at least 64 samples for a volume estimate")
    dim = lo.shape[0]
    s = _strata_per_axis(samples, dim)
    cells = s ** dim
    per, extra = divmod(samples, cells)
    rng = np.random.default_rng(seed)
    edges = [np.linspace(lo[i], hi[i], s + 1) for i in range(dim)]
    cell = np.arange(cells)
    cell_lo = np.empty((cells, dim))
    width = np.empty((cells, dim))
    for i in range(dim):
        k = cell // s ** i % s
        cell_lo[:, i] = edges[i][k]
        width[:, i] = edges[i][k + 1] - cell_lo[:, i]
    vol = np.prod(width, axis=1)
    ms = np.full(cells, per)
    ms[:extra] += 1
    ends = np.cumsum(ms)
    hits = np.empty(cells, dtype=np.int64)
    a = 0
    while a < cells:
        start = int(ends[a] - ms[a])
        b = max(a + 1, int(np.searchsorted(ends, start + _BLOCK_SAMPLES, side="right")))
        pts = rng.random((int(ends[b - 1]) - start, dim))
        pts *= np.repeat(width[a:b], ms[a:b], axis=0)
        pts += np.repeat(cell_lo[a:b], ms[a:b], axis=0)
        hits[a:b] = np.add.reduceat(indicator(pts), ends[a:b] - ms[a:b] - start, dtype=np.int64)
        a = b
    total = 0.0
    var = 0.0
    for v, h, m in zip(vol.tolist(), hits.tolist(), ms.tolist()):
        p = h / m
        total += v * p
        var += v * v * p * (1.0 - p) / m
    seed_tuple = tuple(seed) if isinstance(seed, (list, tuple)) else (int(seed),)
    return VolumeEstimate(
        value=total,
        sigma=math.sqrt(var),
        samples=samples,
        region_volume=float(np.prod(hi - lo)),
        seed_used=seed_tuple,
    )


def _orbit_cloud(deck: DeckGroup, center: Point, reach_sq: Fraction):
    """The distinct orbit points of the center within ``reach_sq`` of it,
    sorted, and the center's index among them.

    The points are the integer images of `DeckGroup._records` over their
    one denominator, which order as the Fractions do; ``n / den`` is
    correctly rounded, so each float equals ``float(Fraction)``.
    """
    import numpy as np
    _, den, records = deck._records(center, center, _ball_limit(reach_sq))
    uniq = sorted({r[1] for r in records})
    pts = np.array([[n / den for n in p] for p in uniq], dtype=float)
    return pts, uniq.index(_ints(tuple(center), den))


def _prefiltered(decide, cloud, center_idx: int, reach_sq: float, slack: float):
    """``decide`` as an indicator that skips, as certain rejects, the rows p
    with |p - c|^2 > ``reach_sq`` or with 2 (p - c).(g - c) - |g - c|^2 =
    |p - c|^2 - |p - g|^2 > ``slack``, g one of the 8 orbit points nearest c."""
    import numpy as np
    off = cloud - cloud[center_idx]
    rivals = [(2 * g, g @ g + slack) for g in off[np.argsort(np.einsum("ij,ij->i", off, off))[1:9]]]

    def indicator(pts: np.ndarray) -> np.ndarray:
        # temporaries of one value per row: a column, then a rival, at a time
        sq, t = np.zeros(len(pts)), np.empty(len(pts))
        for i, c in enumerate(cloud[center_idx].tolist()):
            sq += np.square(np.subtract(pts[:, i], c, out=t), out=t)
        rows = np.flatnonzero(sq <= reach_sq)
        del sq, t
        d = pts[rows]
        d -= cloud[center_idx]
        for g2, bound in rivals:
            ok = d @ g2 <= bound
            rows, d = rows[ok], d[ok]
        inside = np.zeros(len(pts), dtype=bool)
        inside[rows] = decide(pts[rows])
        return inside

    return indicator


def ball_volume(
    deck: DeckGroup,
    center: Point,
    radius,
    samples: int = 200_000,
    seed=7,
) -> VolumeEstimate:
    """Monte Carlo volume of the metric ball of ``radius`` in the quotient.

    The ball lifts to {y : |y - center| <= radius and center is the
    nearest orbit point of the center's orbit}, so the indicator is one
    nearest-neighbor query against the orbit cloud out to 2*radius, read
    off one integer orbit scan (`_orbit_cloud`). The query would reject the
    rows `_prefiltered` skips at 1e-9 r^2, as its rounding is below 1e-13 r^2.
    """
    import numpy as np
    r = frac(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    cloud, center_idx = _orbit_cloud(deck, center, 4 * r * r)
    tree = cKDTree(cloud)
    rf = float(r)
    cf = cloud[center_idx]
    lo = cf - rf
    hi = cf + rf

    def decide(pts: np.ndarray) -> np.ndarray:
        dist, idx = tree.query(pts)
        return (idx == center_idx) & (dist <= rf)

    indicator = _prefiltered(decide, cloud, center_idx, rf * rf * (1 + 1e-9), 1e-9 * rf * rf)
    return _stratified_estimate(indicator, lo, hi, samples, seed)


def thin_set_volume(
    deck: DeckGroup,
    center: Point,
    radius,
    thickness,
    soul_axis: Optional[int],
    samples: int = 20_000,
    seed=7,
) -> VolumeEstimate:
    """Volume of the ball intersected with the ``thickness``-neighborhood
    of the core, for quotients whose core distance is a coordinate.

    Samples that land within a 1e-6 relative margin m of any boundary are
    re-decided in exact rational arithmetic, so the estimate never flips
    on floating-point ties, except a sample that an orbit point g beats by
    more than 2m: `_prefiltered` skips it and those with |p - c| > R = r +
    2m, certain rejects. Past R, |p - c| > r in floats and exactly. Within
    R, |p - c|^2 - |p - g|^2 > 5mR gives |p - c| - |p - g| > 2.5m: c is not
    the kd-tree's nearest, no tie is flagged, and g is nearer exactly too.
    """
    import numpy as np
    r = frac(radius)
    hh = frac(thickness)
    if r <= 0 or hh <= 0:
        raise ValueError("radius and thickness must be positive")
    cloud, center_idx = _orbit_cloud(deck, center, 4 * r * r)
    tree = cKDTree(cloud)
    rf = float(r)
    hf = float(hh)
    cf = cloud[center_idx]
    lo = cf - rf
    hi = cf + rf
    if soul_axis is not None:
        lo[soul_axis] = max(lo[soul_axis], -hf)
        hi[soul_axis] = min(hi[soul_axis], hf)
        if lo[soul_axis] >= hi[soul_axis]:
            raise ValueError("the sampling box is empty; center sits outside the slab")
    margin_r = 1e-6 * max(rf, 1.0)
    margin_h = 1e-6 * max(hf, 1.0)

    def exact_inside(row: np.ndarray) -> bool:
        p = Point(tuple(Fraction(float(v)) for v in row))
        d = vec_sub(tuple(p), tuple(center))
        return (vec_dot(d, d) <= r * r and dirichlet_contains(deck, center, p)
                and (soul_axis is None or abs(p[soul_axis]) <= hh))

    def decide(pts: np.ndarray) -> np.ndarray:
        dist, idx = tree.query(pts, k=2)
        center_nearest = idx[:, 0] == center_idx
        inside = center_nearest & (dist[:, 0] <= rf)
        # the nearest orbit point other than the center decides ties
        rival = np.where(center_nearest, dist[:, 1], dist[:, 0])
        dist_center = np.linalg.norm(pts - cf, axis=1)
        borderline = (np.abs(dist_center - rf) < margin_r) | (
            np.abs(dist_center - rival) < margin_r
        )
        if soul_axis is not None:
            axis_abs = np.abs(pts[:, soul_axis])
            inside &= axis_abs <= hf
            borderline |= np.abs(axis_abs - hf) < margin_h
        for i in np.nonzero(borderline)[0]:
            inside[i] = exact_inside(pts[i])
        return inside

    indicator = _prefiltered(decide, cloud, center_idx, (rf + 2 * margin_r) ** 2, 5 * margin_r * (rf + 2 * margin_r))
    return _stratified_estimate(indicator, lo, hi, samples, seed)


@dataclass(frozen=True)
class ThinTrend:
    """Thin-part volumes over increasing radii. Near a soul of dimension
    one, volume per radius falls toward zero."""

    radii: Tuple
    estimates: Tuple[VolumeEstimate, ...]
    ratios: Tuple[float, ...]  # volume / radius
    decreasing: bool  # strictly
    halved: bool  # the last ratio is below half the first


def thin_trend(deck: DeckGroup, center: Point, radii: Sequence, thickness, soul_axis: Optional[int],
               samples: int = 20_000, seed=7) -> ThinTrend:
    """``thin_set_volume`` at each radius, the i-th seeded with [seed, i]."""
    ests = tuple(
        thin_set_volume(deck, center, r, thickness, soul_axis, samples=samples, seed=[seed, i])
        for i, r in enumerate(radii)
    )
    ratios = tuple(e.value / float(r) for r, e in zip(radii, ests))
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    return ThinTrend(tuple(radii), ests, ratios, decreasing, ratios[-1] < ratios[0] / 2.0)


# ---------------------------------------------------------------------------
# closed-form references


def reference_ball_volume(name: str, radius: float) -> float:
    """Exact ball volume for the bundled 2-dimensional quotients.

    Only the square torus and the unit-circumference cylinder have
    elementary closed forms here; other names raise UnsupportedMethod.
    """
    r = float(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    if name == "torus2":
        if r <= 0.5:
            return math.pi * r * r
        if r < math.sqrt(2) / 2:
            seg = r * r * math.acos(0.5 / r) - 0.5 * math.sqrt(r * r - 0.25)
            return math.pi * r * r - 4.0 * seg
        return 1.0
    if name == "cylinder2":
        if r <= 0.5:
            return math.pi * r * r
        u0 = math.sqrt(r * r - 0.25)
        return u0 + 2.0 * r * r * math.acos(u0 / r)
    raise UnsupportedMethod(f"no closed-form ball volume for {name!r}")


# ---------------------------------------------------------------------------
# dual covering inequalities


def schema_row(space: str, radius, quantity: str, value, stderr=None, verdict=None) -> Dict[str, Any]:
    """One row of a dual or thin-set table: a quantity at a radius."""
    return dict(space=space, radius=radius, quantity=quantity, value=value, stderr=stderr, verdict=verdict)


def verdict(ok: bool) -> str:
    return "holds" if ok else "fails"


def dual_rows(space: str, row, volume_rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The table rows of one radius of a flat or warped dual check: both
    counts, the rows that bound the volume, then both margins."""
    r = row.radius
    return [
        schema_row(space, r, "count_r", row.count_r),
        schema_row(space, r, "count_2r", row.count_2r),
        *volume_rows,
        schema_row(space, r, "lower_margin", row.lower_lhs - row.lower_rhs, verdict=verdict(row.lower_ok)),
        schema_row(space, r, "upper_margin", row.upper_rhs - row.upper_lhs, verdict=verdict(row.upper_ok)),
    ]


@dataclass(frozen=True)
class DualRow:
    radius: float
    count_r: int
    count_2r: int
    volume: float
    sigma: float
    lower_lhs: float
    lower_rhs: float
    lower_ok: bool
    upper_lhs: float
    upper_rhs: float
    upper_ok: bool


@dataclass(frozen=True)
class WordDualRow:
    radius: int
    word_count: int
    volume: float
    sigma: float
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class DualReport:
    space: str
    dimension: int
    rows: Tuple[DualRow, ...]
    word_rows: Tuple[WordDualRow, ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.lower_ok and r.upper_ok for r in self.rows) and all(
            w.ok for w in self.word_rows
        )

    def to_obj(self) -> Dict[str, Any]:
        """The verify-dual table: per radius, counts, volume and margins."""
        space = self.space
        out: Dict[str, Any] = {"space": space, "dimension": self.dimension, "rows": [
            x for r in self.rows
            for x in dual_rows(space, r, [schema_row(space, r.radius, "ball_volume", r.volume, stderr=r.sigma)])
        ]}
        if self.word_rows:
            out["word_rows"] = [
                schema_row(space, w.radius, "word_upper_margin", w.rhs - w.lhs,
                           stderr=w.sigma, verdict=verdict(w.ok))
                for w in self.word_rows
            ]
        out["ok"] = self.ok
        return out


def verify_dual(
    deck: DeckGroup,
    center: Point,
    radii: Sequence,
    samples: int = 200_000,
    seed: int = 7,
    word_variant: bool = False,
) -> DualReport:
    """Check the two-sided orbit-count/volume inequalities at each radius.

    Lower: #D(2r) * Vol(B_r) >= omega_n * r^n, tested against the
    estimate plus three sigma. Upper: #D(r) * Vol(B_r) <= omega_n *
    (2r)^n, tested against the estimate minus three sigma. A failure of
    either guard band is a genuine counterexample up to MC noise.

    The counts come from one integer orbit scan at 4*max(r)^2
    (`orbit.ball_counts`); each volume is a plain `ball_volume` call.
    """
    n = deck.dimension
    omega = unit_ball_volume(n)
    rows: List[DualRow] = []
    rs = sorted(frac(v) for v in radii)
    counts = ball_counts(deck, center, [r * r for r in rs] + [4 * r * r for r in rs])
    for i, (r, count_r, count_2r) in enumerate(zip(rs, counts, counts[len(rs):])):
        est = ball_volume(deck, center, r, samples=samples, seed=[seed, i])
        rf = float(r)
        lower_lhs = count_2r * (est.value + 3 * est.sigma)
        lower_rhs = omega * rf ** n
        upper_lhs = count_r * (est.value - 3 * est.sigma)
        upper_rhs = omega * (2 * rf) ** n
        rows.append(
            DualRow(
                radius=rf,
                count_r=count_r,
                count_2r=count_2r,
                volume=est.value,
                sigma=est.sigma,
                lower_lhs=lower_lhs,
                lower_rhs=lower_rhs,
                lower_ok=lower_lhs >= lower_rhs,
                upper_lhs=upper_lhs,
                upper_rhs=upper_rhs,
                upper_ok=upper_lhs <= upper_rhs,
            )
        )
    word_rows: List[WordDualRow] = []
    if word_variant:
        group = deck.generated()
        h_sq = Fraction(0)
        for g in group.generators:
            h_sq = max(h_sq, g.displacement_sq(center))
        if h_sq < 1:
            raise UnsupportedMethod(
                "word-variant rows need generator displacements of at least 1"
            )
        hfloat = math.sqrt(float(h_sq))
        int_radii = sorted({int(r) for r in rs if frac(int(r)) == r and r >= 1})
        counts = word_ball_counts(group, int_radii[-1]) if int_radii else []
        for i, r in enumerate(int_radii):
            est = ball_volume(deck, center, r, samples=samples, seed=[seed, 1000 + i])
            lhs = counts[r] * (est.value - 3 * est.sigma)
            rhs = omega * (2 * hfloat * r) ** n
            word_rows.append(
                WordDualRow(
                    radius=r,
                    word_count=counts[r],
                    volume=est.value,
                    sigma=est.sigma,
                    lhs=lhs,
                    rhs=rhs,
                    ok=lhs <= rhs,
                )
            )
    return DualReport(
        space=deck.name or "deck",
        dimension=n,
        rows=tuple(rows),
        word_rows=tuple(word_rows),
    )


# ---------------------------------------------------------------------------
# classification of line-bundle flat quotients


def _kernel_basis(rows: List[List[Fraction]], n: int) -> List[Tuple[Fraction, ...]]:
    """Basis of {x : M x = 0} for M given by ``rows`` (each of length n)."""
    reduced, pivots = rref(rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def _project_onto_span(basis: List[Tuple[Fraction, ...]], v: Tuple[Fraction, ...]):
    if not basis:
        return tuple(Fraction(0) for _ in v)
    gram = tuple(tuple(vec_dot(a, b) for b in basis) for a in basis)
    coords = mat_vec(mat_inverse(gram), tuple(vec_dot(b, v) for b in basis))
    out = [Fraction(0)] * len(v)
    for c, b in zip(coords, basis):
        for i in range(len(v)):
            out[i] += c * b[i]
    return tuple(out)


@dataclass(frozen=True)
class Classification:
    kind: str  # "product" or "moebius"
    base_dimension: int  # dimension of the translated torus factor
    normal_direction: Tuple[Fraction, ...]
    transformed_generators: Tuple[Isometry, ...]

    @property
    def reflecting_count(self) -> int:
        return sum(0 if g.is_translation else 1 for g in self.transformed_generators)


def classify_flat(generators: Sequence[Isometry]) -> Classification:
    """Decide whether commuting generators present R x T^(n-1) or its twist.

    The invariant subspace is spanned by the projections of each
    translation part onto the fixed space of its rotation part; this
    span does not move under conjugation, which makes the verdict
    independent of the chosen coordinates. Generators must commute and
    the span must have corank one; each rotation part then acts as +-1
    on the normal line, and any single sign of -1 forces the twisted
    bundle.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].dimension
    for g in gens:
        if g.dimension != n:
            raise ValueError("generators act on different spaces")
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if g * h != h * g:
                raise NonCommutingGenerators("generators do not commute")

    projections = []
    for g in gens:
        a_minus_i = [
            [g.orthogonal[r][c] - (1 if r == c else 0) for c in range(n)]
            for r in range(n)
        ]
        fix = _kernel_basis(a_minus_i, n)
        projections.append(_project_onto_span(fix, g.translation))
    span_rows = [list(p) for p in projections if any(x != 0 for x in p)]
    dim = mat_rank(span_rows)
    if dim != n - 1:
        raise WrongLatticeRank(
            f"translation span has dimension {dim}, expected {n - 1}"
        )
    for g in gens:
        for p in projections:
            if mat_vec(g.orthogonal, p) != p:
                raise UnfixedLatticeSpan(
                    "a rotation part moves the translation span"
                )
    normal = _kernel_basis(span_rows, n)
    assert len(normal) == 1
    w = normal[0]
    signs = []
    for g in gens:
        gw = mat_vec(g.orthogonal, w)
        if gw == w:
            signs.append(1)
        elif gw == tuple(-x for x in w):
            signs.append(-1)
        else:
            raise UnfixedLatticeSpan("a rotation part does not preserve the normal line")
    if all(s == 1 for s in signs):
        return Classification(
            kind="product",
            base_dimension=n - 1,
            normal_direction=w,
            transformed_generators=tuple(gens),
        )
    first = signs.index(-1)
    pivot = gens[first]
    new_gens = [pivot]
    for s, g in zip(signs, gens):
        if g is pivot:
            continue
        new_gens.append(g if s == 1 else g * pivot.inverse())
    return Classification(
        kind="moebius",
        base_dimension=n - 1,
        normal_direction=w,
        transformed_generators=tuple(new_gens),
    )
