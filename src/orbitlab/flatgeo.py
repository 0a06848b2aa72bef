"""Flat quotient geometry: Dirichlet cells, ray extension, volumes, duality.

The exact layer (membership, nearest lifts, ray extension) works in
rational arithmetic with explicit finiteness certificates, so every
yes/no answer is proven, not sampled. The volume layer is Monte Carlo
with stratified variance control; closed-form references exist for the
two bundled 2-dimensional quotients where the integral is elementary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

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
from .groups import DeckGroup, search_center, word_ball_counts

BASE_POINTS: Dict[str, Point] = {
    "torus2": Point.of(0, 0),
    "cylinder2": Point.of(0, 0),
    "moebius2": Point.of(0, Fraction(3, 10)),
    "klein2": Point.of(Fraction(1, 10), Fraction(1, 10)),
    "moebiusxT": Point.of(0, Fraction(3, 10), 0),
}

# coordinate whose absolute value measures distance to the totally
# geodesic core; None means the quotient is compact and the core is everything
SOUL_AXES: Dict[str, Optional[int]] = {
    "torus2": None,
    "cylinder2": 0,
    "moebius2": 1,
    "klein2": None,
    "moebiusxT": 1,
}

SOUL_DIMENSIONS: Dict[str, int] = {
    "torus2": 2,
    "cylinder2": 1,
    "moebius2": 1,
    "klein2": 2,
    "moebiusxT": 2,
}


def soul_dimension(name: str) -> int:
    try:
        return SOUL_DIMENSIONS[name]
    except KeyError:
        raise KeyError(f"no bundled soul dimension for {name!r}") from None


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
    """Orbit points of ``target`` closest to ``center``: (min dist^2, lifts)."""
    best = deck.quotient_dist_sq(center, target)
    lifts = []
    for rep in deck.coset_reps:
        for lp in deck.lattice.points_near(search_center(rep, center, target), best):
            if lp.dist_sq == best:
                g = rep * Isometry.translation_by(lp.vector)
                lifts.append(g(target))
    uniq = sorted({tuple(p) for p in lifts})
    return best, [Point(c) for c in uniq]


# ---------------------------------------------------------------------------
# ray extension beyond a minimal segment


@dataclass(frozen=True)
class ExtensionReport:
    """How far the minimal segment from the center through ``target`` extends.

    ``ray_scale`` is the largest t such that center + t*(q - center) still
    realizes the quotient distance, where q is the nearest lift; the
    extension length past q is (ray_scale - 1)*|q - center|, reported via
    its exact square ``extension_sq``. Infinite extensions set ``infinite``
    and leave both fields None.
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


def _ray_setup(deck: DeckGroup, center: Point, target: Point):
    d2, lifts = nearest_lifts(deck, center, target)
    if d2 == 0:
        raise ValueError("target lies on the orbit of the center; no ray direction")
    tie = len(lifts) > 1
    d = vec_sub(tuple(lifts[0]), tuple(center))
    return d, d2, tie


def _coset_slopes(deck: DeckGroup, center: Point, d: Sequence[Fraction]) -> List[Fraction]:
    slopes = []
    for rep in deck.coset_reps:
        c = vec_sub(tuple(rep(center)), tuple(center))
        slopes.append(vec_dot(c, mat_vec(rep.orthogonal, d)))
    return slopes


def ray_extension(
    deck: DeckGroup, center: Point, target: Point, max_doublings: int = 64
) -> ExtensionReport:
    """Exact extension bound for the minimal ray from center toward target.

    Along z(t) = center + t*d each deck element u imposes
    |u(center) - center|^2 + 2t * <u(center) - center, A_u d> >= 0,
    affine in t, so the supremum of feasible t is decided by finitely
    many elements. Enumeration stops once every unseen element provably
    binds later than the best seen one (its constraint sits at distance
    more than half its displacement).
    """
    d, d2, tie = _ray_setup(deck, center, target)
    if tie:
        return ExtensionReport(d2, Fraction(1), Fraction(0), infinite=False, tie=True)

    if deck.lattice.orthogonal_to_span(d):
        if all(s >= 0 for s in _coset_slopes(deck, center, d)):
            return ExtensionReport(d2, None, None, infinite=True, tie=False)

    radius = 2 * (sqrt_upper(d2) + 1)
    best_t: Optional[Fraction] = None
    for _ in range(max_doublings):
        rho2 = radius * radius
        for hit in deck.enumerate_orbit(center, rho2):
            if hit.dist_sq == 0:
                continue
            c = vec_sub(tuple(hit.image), tuple(center))
            slope = vec_dot(c, mat_vec(hit.element.orthogonal, d))
            if slope < 0:
                t = hit.dist_sq / (-2 * slope)
                if best_t is None or t < best_t:
                    best_t = t
        # certificate: any element beyond ``radius`` binds at distance
        # greater than radius/2 along the ray
        if best_t is not None and best_t * best_t * d2 * 4 <= rho2:
            ext_sq = (best_t - 1) * (best_t - 1) * d2
            return ExtensionReport(
                d2, best_t, ext_sq, infinite=False, tie=(best_t == 1), search_radius_sq=rho2
            )
        radius *= 2
    raise CapExceeded("extension search did not stabilize", limit=max_doublings)


def extension_at_most(deck: DeckGroup, center: Point, target: Point, h) -> bool:
    """Exact test: does the ray extension stay within length ``h``?

    Decided by one bounded enumeration: a binding element u certifies
    YES when its constraint distance t_u*|d| is at most |d| + h, and any
    element displaced farther than 2(|d| + h) cannot beat that bound.
    """
    hh = frac(h)
    if hh < 0:
        raise ValueError("h must be nonnegative")
    d, d2, tie = _ray_setup(deck, center, target)
    if tie:
        return True
    hits = deck.enumerate_orbit_plus_sqrt(center, 2 * hh, 4 * d2)
    for hit in hits:
        if hit.dist_sq == 0:
            continue
        c = vec_sub(tuple(hit.image), tuple(center))
        slope = vec_dot(c, mat_vec(hit.element.orthogonal, d))
        if slope >= 0:
            continue
        # t_u*|d| <= |d| + h  <=>  sqrt(d2)*K <= -2*slope*h, K = |c|^2 + 2*slope
        k = hit.dist_sq + 2 * slope
        if k <= 0:
            return True
        if d2 * k * k <= 4 * slope * slope * hh * hh:
            return True
    return False


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


def _stratified_estimate(
    indicator: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    samples: int,
    seed,
) -> VolumeEstimate:
    if samples < 64:
        raise InsufficientSamples("need at least 64 samples for a volume estimate")
    dim = lo.shape[0]
    s = _strata_per_axis(samples, dim)
    cells = s ** dim
    per = samples // cells
    extra = samples - per * cells
    rng = np.random.default_rng(seed)
    edges = [np.linspace(lo[i], hi[i], s + 1) for i in range(dim)]
    total = 0.0
    var = 0.0
    used = 0
    for cell in range(cells):
        idx = []
        c = cell
        for _ in range(dim):
            idx.append(c % s)
            c //= s
        cell_lo = np.array([edges[i][idx[i]] for i in range(dim)])
        cell_hi = np.array([edges[i][idx[i] + 1] for i in range(dim)])
        m = per + (1 if cell < extra else 0)
        if m == 0:
            continue
        pts = rng.uniform(cell_lo, cell_hi, size=(m, dim))
        hits = int(np.count_nonzero(indicator(pts)))
        vol_cell = float(np.prod(cell_hi - cell_lo))
        p = hits / m
        total += vol_cell * p
        var += vol_cell * vol_cell * p * (1.0 - p) / m
        used += m
    seed_tuple = tuple(seed) if isinstance(seed, (list, tuple)) else (int(seed),)
    return VolumeEstimate(
        value=total,
        sigma=math.sqrt(var),
        samples=used,
        region_volume=float(np.prod(hi - lo)),
        seed_used=seed_tuple,
    )


def _orbit_cloud(deck: DeckGroup, center: Point, reach_sq: Fraction):
    hits = deck.enumerate_orbit(center, reach_sq)
    uniq = sorted({tuple(h.image) for h in hits})
    pts = np.array([[float(c) for c in p] for p in uniq], dtype=float)
    ctr = tuple(center)
    center_idx = uniq.index(ctr)
    return pts, center_idx


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
    nearest-neighbor query against the orbit cloud out to 2*radius.
    """
    r = frac(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    cloud, center_idx = _orbit_cloud(deck, center, 4 * r * r)
    tree = cKDTree(cloud)
    rf = float(r)
    cf = np.array([float(c) for c in center], dtype=float)
    lo = cf - rf
    hi = cf + rf

    def indicator(pts: np.ndarray) -> np.ndarray:
        dist, idx = tree.query(pts)
        return (idx == center_idx) & (dist <= rf)

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

    Samples that land within a 1e-6 relative margin of any boundary are
    re-decided in exact rational arithmetic, so the estimate never flips
    on floating-point ties.
    """
    r = frac(radius)
    hh = frac(thickness)
    if r <= 0 or hh <= 0:
        raise ValueError("radius and thickness must be positive")
    cloud, center_idx = _orbit_cloud(deck, center, 4 * r * r)
    tree = cKDTree(cloud)
    rf = float(r)
    hf = float(hh)
    cf = np.array([float(c) for c in center], dtype=float)
    lo = cf - rf
    hi = cf + rf
    if soul_axis is not None:
        lo[soul_axis] = max(lo[soul_axis], -hf)
        hi[soul_axis] = min(hi[soul_axis], hf)
        if lo[soul_axis] >= hi[soul_axis]:
            raise ValueError("the sampling box is empty; center sits outside the slab")
    margin_r = 1e-6 * max(rf, 1.0)
    margin_h = 1e-6 * max(hf, 1.0)
    ctuple = tuple(center)

    def exact_inside(row: np.ndarray) -> bool:
        p = Point(tuple(Fraction(float(v)) for v in row))
        d2 = vec_dot(vec_sub(tuple(p), ctuple), vec_sub(tuple(p), ctuple))
        if d2 > r * r:
            return False
        if d2 != deck.quotient_dist_sq(p, Point(ctuple)):
            return False
        if soul_axis is not None and abs(p[soul_axis]) > hh:
            return False
        return True

    def indicator(pts: np.ndarray) -> np.ndarray:
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

    return _stratified_estimate(indicator, lo, hi, samples, seed)


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
    """
    n = deck.dimension
    omega = unit_ball_volume(n)
    rows: List[DualRow] = []
    rs = sorted(frac(v) for v in radii)
    for i, r in enumerate(rs):
        hits_r = deck.enumerate_orbit(center, r * r)
        count_r = len({tuple(h.image) for h in hits_r})
        hits_2r = deck.enumerate_orbit(center, 4 * r * r)
        count_2r = len({tuple(h.image) for h in hits_2r})
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
