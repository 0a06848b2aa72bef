"""A warped cylinder whose word balls and orbit balls grow at different rates.

The surface is R x S^1 (circumference 2*pi) carrying dr^2 + phi(r) ds^2,
where the warp phi equals 1 on |r| <= 1, r^(-2) on |r| >= 2, and a C^1
monotone cubic bridge in between. Its deck transformations on the
universal cover shift s by multiples of 2*pi, so word balls of the deck
group grow linearly, while the shrinking warp lets geodesics climb
outward and wrap cheaply: going out to height R, wrapping k times, and
coming back costs 2R + 2*pi*k/R, at best 4*sqrt(pi*k), so the distance
to the k-th translate grows like sqrt(k). That gap drives every
quantity exported here. (With ``square`` the coefficient is phi^2, the
wrap costs 2*pi*k/R^2, and the best such path 3*(2*pi*k)^(1/3).)

Distances are computed with Dijkstra on an 8-neighbor grid graph whose
edge weights integrate the metric by the midpoint rule. Every exported
number is certified by recomputing at half the grid spacing; a relative
gap above the tolerance raises ConvergenceError instead of returning a
value.

Each certified value costs one flood per grid spacing. The grid graph
is built directly in CSR form, one stored entry per edge. The metric is
even in r, so a grid symmetric about r = 0 with its source on r = 0
(every deck-distance and ball grid) is flooded on its r >= 0 rows only
and mirrored, bit-identical to the full solve.

Every flood stops at the distance its answer needs, and every value it
returns is bit-identical to a flood of the whole window. Each caller
picks the rows it floods, ``rows`` around the source in ``_solve_grid``.
The bound is U, the length of one explicit grid path, minimised over the
row R it tops out at and scaled by 1 + 1e-9. Floats round monotonically,
so Dijkstra's float distance to a node is at most the float sum along
any path to it; so U bounds the answer, and the distance Dijkstra
returns is the least float sum over all paths:
- deck distances take U_k to each k-th translate from a path that
  climbs straight, then diagonally, runs along row R and comes down its
  mirror (``_wrap_bounds``). A path from r = 0 back to r = 0 whose top
  row is h makes at least 2h row changes and k m column changes on rows
  <= h, so it is at least LB_k(h) long; only the rows up to the top h,
  over every k <= k_max, with LB_k(h) (1 - 1e-9) <= U_k, plus 2 spare
  rows, are flooded. A window whose own top row LB admits is refused
  with TruncationError;
- point distances take U from a path that climbs straight to R, runs
  along it and comes straight down (``_path_bound``). Ball volumes pass
  the radius, and point distances U, as scipy's inclusive ``limit``:
  nodes within it keep their distance, the rest read inf, and, since
  every row crossing costs at least dr, only the rows within
  ceil(limit / dr) + 1 of the source are built and flooded.
Edge weights are written once (``_weights``), for the graph and for
both bounds alike.

Every grid caps its radial window at 400 rows (``_radial``): the row
step is max(base dr, 2 * half-width / 400), so a requested dr is a
floor, and windows wider than 200 base rows are solved on coarser rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CapExceeded, ConvergenceError, TruncationError
from .flatgeo import dual_rows, schema_row

BASE_DR = 0.25
BASE_DS = 0.25
DEFAULT_TOL = 0.02
NODE_CAP = 20_000_000
CIRCUMFERENCE = 2.0 * math.pi
# d(k) / sqrt(k) for the plain warp: the climb-and-wrap bound 4*sqrt(pi*k)
DISTANCE_SLOPE = 4.0 * math.sqrt(math.pi)


def dijkstra(graph, *args, **kwargs):
    """scipy's ``csgraph.dijkstra``; scipy is imported on the first call."""
    from scipy.sparse.csgraph import dijkstra
    return dijkstra(graph, *args, **kwargs)


def warp(r: float) -> float:
    """The warp profile: 1 inside the core, inverse-square far out."""
    t = abs(float(r))
    if t <= 1.0:
        return 1.0
    if t >= 2.0:
        return t ** -2.0
    u = t - 1.0
    return (1.25 * u - 2.0) * u * u + 1.0


def metric_factor(r, square: bool = False) -> np.ndarray:
    """Vectorized coefficient of ds^2 (phi, or phi^2 with ``square``)."""
    import numpy as np
    rr = np.abs(np.asarray(r, dtype=float))
    out = np.ones_like(rr)
    far = rr >= 2.0
    out[far] = rr[far] ** -2.0
    mid = (~far) & (rr > 1.0)
    u = rr[mid] - 1.0
    out[mid] = (1.25 * u - 2.0) * u * u + 1.0
    return out * out if square else out


def _grid_graph(
    nrow: int, ncol: int, dr: float, horiz_w: np.ndarray, diag_w: np.ndarray, periodic: bool
) -> csr_matrix:
    """The 8-neighbor grid as a CSR matrix, one stored entry per edge.

    Node (i, j) stores its edges to (i, j+1), (i+1, j-1), (i+1, j) and
    (i+1, j+1), weighted by row i; ``dijkstra(..., directed=False)``
    supplies the other direction. Every row but the last has the same
    column pattern, so ``indptr``, ``indices`` and ``data`` are filled by
    broadcasting, with no COO stage. On a cylinder of at most 2 columns
    every wrapped edge duplicates a stored one (on 1 column a wrapped
    diagonal duplicates the shorter vertical edge, and the horizontal one
    is a self-loop), so wrapped edges are kept only from 3 columns up.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    tcol = np.arange(ncol)[:, None] + np.array([1, -1, 0, 1])
    ok = (tcol >= 0) & (tcol < ncol)
    if periodic:
        ok |= ncol > 2
        tcol %= ncol
    cols, slots = np.nonzero(ok)
    offsets = (slots > 0) * ncol + tcol[cols, slots]
    horizontal = slots == 0
    # the last row keeps only its horizontal edges
    counts = np.concatenate([
        np.tile(np.bincount(cols, minlength=ncol), nrow - 1),
        np.bincount(cols[horizontal], minlength=ncol),
    ])
    indptr = np.zeros(nrow * ncol + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    row_start = np.arange(nrow, dtype=np.int32) * ncol
    indices = np.concatenate([
        (row_start[:-1, None] + offsets).ravel(),
        row_start[-1] + offsets[horizontal],
    ]).astype(np.int32, copy=False)
    # weight columns: horizontal, diagonal, vertical; slots 1 and 3 are diagonal
    row_w = np.column_stack([horiz_w[:-1], diag_w, np.full(nrow - 1, dr)])
    data = np.concatenate([
        row_w[:, np.array([0, 1, 2, 1])[slots]].ravel(),
        np.full(int(horizontal.sum()), horiz_w[-1]),
    ])
    return csr_matrix((data, indices, indptr), shape=(nrow * ncol, nrow * ncol))


def _columns(nrow: int, ncol: int) -> np.ndarray:
    """``np.arange(ncol)``, once an nrow x ncol grid is known to fit
    under NODE_CAP, so an oversized grid is refused before any of it is
    allocated."""
    import numpy as np
    if nrow * ncol > NODE_CAP:
        raise CapExceeded(f"grid would hold {nrow * ncol} nodes", limit=NODE_CAP)
    return np.arange(ncol)


def _weights(r_vals: np.ndarray, dr: float, ds: float, square: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(horizontal, diagonal) edge weights of the rows ``r_vals``: the
    metric length of a step ds along row i, and of a step (dr, ds) between
    rows i and i + 1 with the warp sampled at the segment midpoint. The
    one place these weights are written, so the bounds of ``_wrap_bounds``
    and ``_path_bound`` use the graph's own weights."""
    import numpy as np
    horiz_w = np.sqrt(metric_factor(r_vals, square)) * ds
    diag_w = np.sqrt(dr * dr + metric_factor(0.5 * (r_vals[:-1] + r_vals[1:]), square) * ds * ds)
    return horiz_w, diag_w


def _radial(r_win: float, dr_floor: float, scale: float) -> Tuple[float, int, np.ndarray]:
    """(dr, half, r_vals) of a radial window of half-width ``r_win``:
    at most 400 rows, so the row step is max(dr_floor, 2 r_win / 400)
    times ``scale``, and the rows are -half..half times dr.

    Callers size half-widths, row cuts and cell areas with this dr; the
    edge weights and bounds take ``r_vals[1] - r_vals[0]``. The two
    differ in the last bit for most steps that are not powers of two, so
    each keeps its own to keep every value's bits."""
    import numpy as np
    dr = max(dr_floor, 2.0 * r_win / 400.0) * scale
    half = int(math.ceil(r_win / dr))
    return dr, half, np.arange(-half, half + 1) * dr


def _solve_grid(
    r_vals: np.ndarray,
    s_vals: np.ndarray,
    ds: float,
    periodic: bool,
    square: bool,
    source: Tuple[int, int],
    rows: Optional[int] = None,
    limit: float = math.inf,
) -> np.ndarray:
    """Distances from ``source`` on the 8-neighbor metric graph, over the
    rows of ``r_vals`` within ``rows`` of the source row (all of them
    when ``rows`` is None); the result holds those rows only.

    Edge weights are straight-segment lengths under the metric, with the
    warp sampled at the segment midpoint (``_weights``). The chamfer
    metric of an 8-neighbor grid overshoots true path lengths by up to 8%
    in off-axis directions; grid halving cannot see that bias because it
    is scale-free, so the certified tolerance covers refinement
    convergence only. Ratio and trend outputs are unaffected, and
    axis-aligned distances (radial runs, loops around the core) are exact
    up to discretization.

    The caller chooses ``rows`` and must know that no shortest path it
    reads leaves them. With a finite ``limit``, such as U, the flood
    stops there: scipy's ``limit`` is inclusive, and Dijkstra's float
    distance to a node is the least float sum over the paths to it, whose
    partial sums never exceed it as floats round monotonically, so every
    node within ``limit`` keeps the distance of the unlimited flood bit
    for bit and every other node reads inf.

    When the flooded rows are symmetric about r = 0 and the source sits
    on their centre row, only the rows with r >= 0 are flooded and then
    mirrored. The metric is even in r, so row -i carries row i's edges
    weight for weight, and any path through r < 0 folds onto one of the
    same float length; the mirrored rows equal a full solve bit for bit.
    The row step of the weights is ``r_vals[1] - r_vals[0]``, taken from
    the whole array: for steps that are not a power of two the first
    difference of a slice need not equal it. The graph is built directly
    in CSR form (``_grid_graph``).
    """
    import numpy as np
    dr = float(r_vals[1] - r_vals[0])
    si, sj = source
    if rows is not None:
        lo = max(0, si - rows)
        r_vals = r_vals[lo : si + rows + 1]
        si -= lo
    nrow, ncol = len(r_vals), len(s_vals)
    mirror = nrow % 2 == 1 and si == nrow // 2 and np.array_equal(r_vals[::-1], -r_vals)
    if mirror:
        r_vals = r_vals[si:]
        nrow, si = len(r_vals), 0
    horiz_w, diag_w = _weights(r_vals, dr, ds, square)
    graph = _grid_graph(nrow, ncol, dr, horiz_w, diag_w, periodic)
    dist = dijkstra(graph, directed=False, indices=si * ncol + sj, limit=limit).reshape(nrow, ncol)
    return np.concatenate([dist[:0:-1], dist]) if mirror else dist


def _path_bound(
    r_vals: np.ndarray, ds: float, square: bool, start_row: int, end_row: int, run: int
) -> float:
    """An upper bound U on the flood's distance between two nodes ``run``
    columns apart: the shortest of the grid paths that climb straight
    from ``start_row`` to some row R of ``r_vals``, run along row R and
    come straight down to ``end_row``, scaled by 1 + 1e-9.

    Floats round monotonically, so Dijkstra's float distance to a node
    is at most the float sum along any path to it; the factor covers the
    different order in which U itself is summed.
    """
    import numpy as np
    dr = float(r_vals[1] - r_vals[0])
    rows = np.arange(len(r_vals))
    climb = (np.abs(rows - start_row) + np.abs(rows - end_row)) * dr
    horiz_w, _ = _weights(r_vals, dr, ds, square)
    return float((climb + run * horiz_w).min()) * (1.0 + 1e-9)


def _wrap_bounds(
    r_vals: np.ndarray, ds: float, square: bool, runs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(U, LB) for paths from the centre row of a grid symmetric about
    r = 0 back to it, ``runs[k]`` columns along; rows h count from r = 0.

    U[k] is the length of one explicit grid path, times 1 + 1e-9: climb
    straight over bands 0..a-1, diagonally over bands a..R-1, run
    K - 2 (R - a) columns along row R and come down its mirror, K =
    ``runs[k]``, minimised over R. a counts the bands whose diagonal
    costs at least a vertical step plus a step along row R (a prefix, as
    the warp shrinks outward), raised so that 2 (R - a) <= K.

    LB[k, h] bounds every path whose top row is h. Folded onto r >= 0 it
    makes at least 2h row changes and K column changes, on rows <= h
    only: v vertical, w horizontal and d diagonal steps with v + d >= 2h
    and w + d >= K cost at least 2h dr + K eta + min(2h, K) min(0, delta -
    dr - eta), eta and delta the least horizontal and diagonal weights
    there (a diagonal costs at least dr and, the warp shrinking outward,
    at least eta, so more than min(2h, K) of them save nothing). The
    weights are the graph's own (``_weights``).
    """
    import numpy as np
    dr = float(r_vals[1] - r_vals[0])
    eta, delta = _weights(r_vals[len(r_vals) // 2 :], dr, ds, square)
    rows = np.arange(len(eta))
    runs = np.asarray(runs)[:, None]
    steep = np.minimum(np.searchsorted(-delta, -(dr + eta), side="right"), rows)
    a = np.maximum(steep, rows - runs // 2)
    climb = np.concatenate([[0.0], np.cumsum(delta)])
    upper = 2 * a * dr + 2 * (climb[rows] - climb[a]) + (runs - 2 * (rows - a)) * eta
    eta_min = np.minimum.accumulate(eta)
    delta_min = np.minimum.accumulate(np.concatenate([[np.inf], delta]))
    saving = np.minimum(0.0, delta_min - dr - eta_min)
    lower = 2 * rows * dr + runs * eta_min + np.minimum(2 * rows, runs) * saving
    return upper.min(axis=1) * (1.0 + 1e-9), lower


@dataclass(frozen=True)
class CertifiedValue:
    value: float
    coarse: float
    rel_diff: float
    tol: float


@dataclass(frozen=True)
class CertifiedTable:
    values: Tuple[float, ...]
    coarse: Tuple[float, ...]
    rel_max: float
    tol: float


def _relative_gap(fine: float, coarse: float) -> float:
    return abs(fine - coarse) / max(abs(fine), 1e-12)


def _certified(solve: Callable[[float], object], noun: str, tol: float, gap=_relative_gap):
    """(fine, coarse, rel): ``solve`` at the base spacing and at its halving.

    Raises ConvergenceError, naming ``noun``, when their relative gap
    exceeds ``tol``.
    """
    coarse = solve(1.0)
    fine = solve(0.5)
    rel = gap(fine, coarse)
    if rel > tol:
        raise ConvergenceError(
            f"{noun} moved by {rel:.3%} under grid halving (tolerance {tol:.1%})"
        )
    return fine, coarse, rel


def _base_spacing(spacing) -> Tuple[float, float]:
    if spacing is None:
        return BASE_DR, BASE_DS
    dr, ds = float(spacing[0]), float(spacing[1])
    if dr <= 0 or ds <= 0:
        raise ValueError("grid spacing must be positive")
    return dr, ds


def _deck_distance_grid(k_max: int, scale: float, square: bool, base: Tuple[float, float]) -> np.ndarray:
    """d(k) for k = 0..k_max on the universal cover, one Dijkstra flood.

    The s-spacing divides 2*pi exactly, so every target sits on a grid
    node; only genuine discretization error enters the certification.
    The radial half-width r_win is the length of the shorter of two paths
    to the k_max-th translate, plus a margin of 8 for grid error: the
    loop through the core (2*pi*k) and the climb-and-wrap path at its
    best height (4*sqrt(pi*k), or 3*(2*pi*k)^(1/3) for the squared warp).
    It fixes the row step dr (through the 400-row cap) and the window's
    half row count, half.

    Only the rows |i| <= top + 2 are flooded (``_wrap_bounds``). U_k is
    the length of the grid path that climbs to the best row R (straight,
    then diagonally where that is cheaper), runs along it to the k-th
    translate and comes back down its mirror: Dijkstra's float distance
    to a node is the least float sum over the paths to it, and floats
    round monotonically, so U_k bounds target k. LB_k(h) bounds every
    path to it whose top row is h, and top is the largest h, over every
    k <= k_max, with LB_k(h) (1 - 1e-9) <= U_k. A path that leaves those
    rows tops out above top, so it is longer than U_k, even in floats,
    and cannot be the least; the targets equal a flood of the whole
    window bit for bit. A window whose own top row LB admits
    (top >= half) is refused with TruncationError; r_win leaves top + 2
    well inside half (at most 0.39 half for k_max up to 400).
    """
    import numpy as np
    base_dr, base_ds = base
    climb = 3.0 * (CIRCUMFERENCE * k_max) ** (1.0 / 3.0) if square else 4.0 * math.sqrt(math.pi * k_max)
    dr, half, r_vals = _radial(min(CIRCUMFERENCE * k_max, climb) + 8.0, base_dr, scale)
    ds_target = base_ds * max(1.0, k_max / 10.0) * scale
    m = max(3, int(round(CIRCUMFERENCE / ds_target)))
    ds = CIRCUMFERENCE / m
    pad = int(math.ceil(5.0 / ds))
    ncol = k_max * m + 2 * pad + 1
    s_vals = (_columns(2 * half + 1, ncol) - pad) * ds
    upper, lower = _wrap_bounds(r_vals, ds, square, m * np.arange(1, k_max + 1))
    top = int(np.flatnonzero((lower * (1.0 - 1e-9) <= upper[:, None]).any(axis=0))[-1])
    if top >= half:
        raise TruncationError("deck distance window is no wider than its path bound")
    dist = _solve_grid(r_vals, s_vals, ds, periodic=False, square=square, source=(half, pad), rows=top + 2)
    return dist[len(dist) // 2, pad + m * np.arange(k_max + 1)]


def deck_distances(
    k_max: int,
    tol: float = DEFAULT_TOL,
    square: bool = False,
    spacing=None,
) -> CertifiedTable:
    """Certified distances from the base point to its first k_max translates.

    ``spacing`` optionally overrides the base (dr, ds) resolution; the
    certification always compares it against its halving. Both are
    floors, not exact steps. The radial window holds at most 400 rows, so
    once its half-width passes 200 * dr the rows are coarsened to
    half-width / 200 (at dr = 0.125, every window above 25, i.e. k_max >=
    6 for the plain warp). The s-step is coarsened with the table length,
    to ds * max(1, k_max / 10) with at least 3 columns per loop; that,
    not the row cap, is what pushes the halving gap of long tables over
    the tolerance at the default spacing (2.07% at k_max = 169, which
    ``verify_dual`` asks for at r = 40, and 2.41% at k_max = 150).

    Each spacing floods one window, cut at the rows its path bounds allow
    (``_deck_distance_grid``); there is no retry on a wider window. A
    window whose top row the lower bound cannot rule out raises
    TruncationError.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    base = _base_spacing(spacing)
    fine, coarse, rel = _certified(
        lambda scale: _deck_distance_grid(k_max, scale, square, base), "deck distances", tol,
        gap=lambda f, c: max(_relative_gap(f[k], c[k]) for k in range(1, k_max + 1)),
    )
    return CertifiedTable(tuple(fine), tuple(coarse), rel, tol)


def _ball_volume_grid(radius: float, scale: float, square: bool, base: Tuple[float, float]) -> float:
    import numpy as np
    base_dr, base_ds = base
    # small balls need proportionally finer cells to keep the boundary
    # error inside the certification tolerance
    refine = min(1.0, radius / 4.0)
    dr, half, r_vals = _radial(radius + 2.0, base_dr * refine, scale)
    n_s = max(16, int(round(CIRCUMFERENCE / (base_ds * refine * scale))))
    ds = CIRCUMFERENCE / n_s
    s_vals = _columns(2 * half + 1, n_s) * ds
    rows = int(math.ceil(radius / dr)) + 1
    dist = _solve_grid(r_vals, s_vals, ds, periodic=True, square=square, source=(half, 0), rows=rows, limit=radius)
    if min(dist[0, :].min(), dist[-1, :].min()) <= radius:
        raise TruncationError("ball reached the radial window boundary")
    # the flooded rows go back into the whole window, the rest outside the
    # ball, so the sum adds up in the same order whatever the cut
    cut = half - len(dist) // 2
    inside = np.zeros((2 * half + 1, n_s), dtype=bool)
    inside[cut : cut + len(dist)] = dist <= radius
    areas = np.sqrt(metric_factor(r_vals, square)) * dr * ds
    return float((inside * areas[:, None]).sum())


def ball_volume(
    radius: float,
    tol: float = DEFAULT_TOL,
    square: bool = False,
    spacing=None,
) -> CertifiedValue:
    """Certified Riemannian volume of the metric ball around (0, 0).

    ``spacing`` is a floor on the base (dr, ds): balls below radius 4 are
    refined by radius / 4, and the radial window (radius + 2 each side)
    holds at most 400 rows, so past radius 48 at the default dr of 0.25
    the rows are coarsened to (radius + 2) / 200.

    Each flood stops at the radius (scipy's ``limit`` is inclusive, so
    every node within it keeps its exact float distance), and only the
    rows within ceil(radius / dr) + 1 of r = 0, the ones a path of that
    length can reach at dr or more per row, are built; the rest read
    inf, which counts as outside the ball just as their distance did.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    base = _base_spacing(spacing)
    fine, coarse, rel = _certified(
        lambda scale: _ball_volume_grid(radius, scale, square, base), "ball volume", tol
    )
    return CertifiedValue(fine, coarse, rel, tol)


def word_count(radius: float) -> int:
    """Size of the deck-group word ball: the deck group is Z."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return 2 * int(math.floor(radius)) + 1


def orbit_count(table: Sequence[float], radius: float) -> int:
    """Orbit points within ``radius``, read off a deck-distance table."""
    if table[-1] <= radius:
        raise TruncationError("distance table is too short for this radius")
    return 1 + 2 * sum(1 for k in range(1, len(table)) if table[k] <= radius)


@dataclass(frozen=True)
class RatioRow:
    scale_c: float
    radius: float
    word_count: int
    volume: float
    volume_rel: float
    ratio: float


def falsifying_ratios(
    cs: Sequence[float],
    radii: Sequence[float],
    tol: float = DEFAULT_TOL,
    square: bool = False,
    spacing=None,
) -> List[RatioRow]:
    """Word-count volume ratios #U(c*r) * Vol(B_r) / (pi * r^2).

    Were the word-ball analogue of the orbit-count lower volume bound
    true, these ratios would stay bounded away from zero; on this
    surface they decay like log(r)/r for every fixed c.
    """
    rows: List[RatioRow] = []
    vols = {float(r): ball_volume(float(r), tol=tol, square=square, spacing=spacing) for r in radii}
    for c in cs:
        for r in radii:
            rf = float(r)
            est = vols[rf]
            wc = word_count(float(c) * rf)
            ratio = wc * est.value / (math.pi * rf * rf)
            rows.append(RatioRow(float(c), rf, wc, est.value, est.rel_diff, ratio))
    return rows


class Halving(NamedTuple):
    c: float
    first: float
    last: float
    halved: bool


def ratio_halving(rows: Sequence[RatioRow], cs: Sequence[float], factor: float = 2.0) -> List[Halving]:
    """Per c, the ratio at the first and the last radius of ``rows`` and
    whether the last fell below the first divided by ``factor``."""
    out = []
    for c in cs:
        mine = [r for r in rows if r.scale_c == float(c)]
        first, last = mine[0].ratio, mine[-1].ratio
        out.append(Halving(float(c), first, last, last < first / factor))
    return out


@dataclass(frozen=True)
class WarpedDualRow:
    radius: float
    count_r: int
    count_2r: int
    volume: float
    volume_rel: float
    lower_lhs: float
    lower_rhs: float
    lower_ok: bool
    upper_lhs: float
    upper_rhs: float
    upper_ok: bool


@dataclass(frozen=True)
class WarpedDualReport:
    rows: Tuple[WarpedDualRow, ...]
    table_rel: float

    @property
    def ok(self) -> bool:
        return all(r.lower_ok and r.upper_ok for r in self.rows)

    def to_obj(self) -> Dict[str, Any]:
        """The verify-dual table: the flat schema, with each volume's
        certified relative gap in place of a sigma."""
        rows = [
            x for r in self.rows
            for x in dual_rows("warped", r, [
                schema_row("warped", r.radius, "ball_volume", r.volume),
                schema_row("warped", r.radius, "volume_certified_rel", r.volume_rel),
            ])
        ]
        return {"space": "warped", "table_rel": self.table_rel, "rows": rows, "ok": self.ok}


DEFAULT_DUAL_RADII = (8.0, 16.0, 32.0)


def verify_dual(
    radii: Sequence[float] = DEFAULT_DUAL_RADII,
    tol: float = DEFAULT_TOL,
    square: bool = False,
    spacing=None,
) -> WarpedDualReport:
    """Two-sided orbit-count/volume inequalities on the warped surface.

    Counts come from one certified deck-distance table, volumes from
    certified grid sums; the inequalities themselves hold with margins
    far above the certification tolerance.
    """
    rs = sorted(float(r) for r in radii)
    top = 2.0 * rs[-1]
    k_max = int(1.3 * top * top / (16.0 * math.pi)) + 4
    for _ in range(5):
        table = deck_distances(k_max, tol=tol, square=square, spacing=spacing)
        if table.values[-1] > top:
            break
        k_max = int(k_max * 1.6) + 2
    else:
        raise TruncationError("could not size the deck-distance table")
    rows = []
    for r in rs:
        c_r = orbit_count(table.values, r)
        c_2r = orbit_count(table.values, 2.0 * r)
        est = ball_volume(r, tol=tol, square=square, spacing=spacing)
        lower_lhs = c_2r * est.value
        lower_rhs = math.pi * r * r
        upper_lhs = c_r * est.value
        upper_rhs = math.pi * (2.0 * r) ** 2
        rows.append(
            WarpedDualRow(
                radius=r,
                count_r=c_r,
                count_2r=c_2r,
                volume=est.value,
                volume_rel=est.rel_diff,
                lower_lhs=lower_lhs,
                lower_rhs=lower_rhs,
                lower_ok=lower_lhs >= lower_rhs,
                upper_lhs=upper_lhs,
                upper_rhs=upper_rhs,
                upper_ok=upper_lhs <= upper_rhs,
            )
        )
    return WarpedDualReport(rows=tuple(rows), table_rel=table.rel_max)


def point_distance(
    start: Tuple[float, float],
    end: Tuple[float, float],
    tol: float = DEFAULT_TOL,
    square: bool = False,
    spacing=None,
    periodic: bool = False,
) -> CertifiedValue:
    """Certified distance between two points (r, s) on the cover or, with
    ``periodic``, on the compact surface where s wraps modulo 2*pi.

    Endpoints snap to the nearest grid node, so prefer coordinates that
    are small multiples of the base spacing when exactness matters.
    ``spacing`` is a floor on the base (dr, ds): the radial window holds
    at most 400 rows, and on the cover at most 1,600 columns, so a wide
    window is solved on coarser steps than requested.

    Each flood stops at U (``_path_bound``): the grid path that climbs
    from the start's row to the best row, runs along it to the end's
    column (on the compact surface the shorter way round) and comes down
    to the end's row. Dijkstra's float distance is at most the float sum
    along that path, so the end node keeps its exact distance under
    scipy's inclusive ``limit``, and only the rows within ceil(U / dr) + 1
    of the start, at dr or more per row crossed, are built and flooded.
    """
    import numpy as np
    base_dr, base_ds = _base_spacing(spacing)

    def solve(scale: float) -> float:
        wrap = 1.0 if periodic else abs(end[1] - start[1]) / CIRCUMFERENCE + 1.0
        climb = math.sqrt(math.pi * wrap)
        dr, half, r_vals = _radial(max(abs(start[0]), abs(end[0])) + climb + 8.0, base_dr, scale)
        if periodic:
            n_s = max(16, int(round(CIRCUMFERENCE / (base_ds * scale))))
            ds = CIRCUMFERENCE / n_s
            s_vals = _columns(2 * half + 1, n_s) * ds
            sj = int(round((start[1] % CIRCUMFERENCE) / ds)) % n_s
            ej = int(round((end[1] % CIRCUMFERENCE) / ds)) % n_s
        else:
            s_lo = min(start[1], end[1]) - 5.0
            s_hi = max(start[1], end[1]) + 5.0
            ds = max(base_ds, (s_hi - s_lo) / 1600.0) * scale
            ncol = int(math.ceil((s_hi - s_lo) / ds)) + 1
            s_vals = s_lo + _columns(2 * half + 1, ncol) * ds
            sj = int(np.argmin(np.abs(s_vals - start[1])))
            ej = int(np.argmin(np.abs(s_vals - end[1])))
        si = int(np.argmin(np.abs(r_vals - start[0])))
        ei = int(np.argmin(np.abs(r_vals - end[0])))
        run = abs(ej - sj)
        if periodic:
            run = min(run, len(s_vals) - run)
        bound = _path_bound(r_vals, ds, square, si, ei, run)
        rows = int(math.ceil(bound / dr)) + 1
        dist = _solve_grid(
            r_vals, s_vals, ds, periodic=periodic, square=square, source=(si, sj), rows=rows, limit=bound
        )
        return float(dist[ei - max(0, si - rows), ej])

    fine, coarse, rel = _certified(solve, "point distance", tol)
    return CertifiedValue(fine, coarse, rel, tol)
