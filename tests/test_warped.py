"""The warped product surface: profile, distances, volumes, ratios."""

import dataclasses
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from orbitlab import cli, warped
from orbitlab.errors import ConvergenceError, TruncationError
from orbitlab.warped import (
    CIRCUMFERENCE,
    RatioRow,
    ball_volume,
    deck_distances,
    falsifying_ratios,
    metric_factor,
    orbit_count,
    point_distance,
    ratio_halving,
    verify_dual,
    warp,
    word_count,
)

# --------------------------------------------------------------------------
# the profile


def test_warp_profile_values():
    assert warp(0.0) == 1.0
    assert warp(1.0) == 1.0
    assert warp(2.0) == 0.25
    assert warp(-2.0) == 0.25
    assert warp(4.0) == pytest.approx(1 / 16)
    assert warp(1.5) == pytest.approx(0.65625)


def test_warp_is_even_and_monotone_outward():
    xs = [0.1 * i for i in range(0, 80)]
    for x in xs:
        assert warp(x) == warp(-x)
    vals = [warp(x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-15


def test_metric_factor_vectorized_and_square():
    rs = np.array([0.0, 1.5, 3.0])
    plain = metric_factor(rs)
    squared = metric_factor(rs, square=True)
    assert plain == pytest.approx([1.0, 0.65625, 1 / 9])
    assert squared == pytest.approx(plain**2)


# --------------------------------------------------------------------------
# counts


def test_word_count():
    assert word_count(0.0) == 1
    assert word_count(0.9) == 1
    assert word_count(4.0) == 9
    with pytest.raises(ValueError):
        word_count(-1.0)


def test_orbit_count_from_table():
    table = [0.0, 5.0, 9.0, 14.0]
    assert orbit_count(table, 6.0) == 3
    assert orbit_count(table, 9.0) == 5
    with pytest.raises(Exception):
        orbit_count(table, 20.0)


# --------------------------------------------------------------------------
# certified distances


def test_deck_distance_first_translate_is_flat_loop():
    table = deck_distances(2)
    assert table.values[0] == 0.0
    # the straight loop through the flat core has length exactly 2*pi
    assert table.values[1] == pytest.approx(CIRCUMFERENCE, rel=0.02)
    assert table.rel_max <= table.tol


def test_deck_distances_monotone():
    table = deck_distances(8)
    vals = table.values
    for a, b in zip(vals[1:], vals[2:]):
        assert b > a


def test_deck_distances_sublinear():
    table = deck_distances(16)
    ref = 4.0 * math.sqrt(math.pi)
    # far translates are reached through the thin end, near sqrt growth
    assert table.values[16] < 0.4 * CIRCUMFERENCE * 16
    assert abs(table.values[16] / 4.0 - ref) <= 0.1 * ref


def test_deck_distances_rejects_bad_k():
    with pytest.raises(ValueError):
        deck_distances(0)


def test_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError):
        deck_distances(2, tol=1e-9)


def test_point_distance_radial():
    cert = point_distance((0.0, 0.0), (3.0, 0.0))
    assert cert.value == pytest.approx(3.0, rel=0.01)


def test_point_distance_around_the_core():
    cert = point_distance((0.0, 0.0), (0.0, CIRCUMFERENCE))
    assert cert.value == pytest.approx(CIRCUMFERENCE, rel=0.02)


# --------------------------------------------------------------------------
# volumes and ratios


def test_ball_volume_flat_core():
    # the 8-neighbor chamfer metric overshoots off-axis distances by up
    # to 8%, shaving the ball; the deficit stays within the squared
    # chamfer factor even though it never shrinks under refinement
    v = ball_volume(1.0)
    assert v.value == pytest.approx(math.pi, rel=0.14)
    assert v.value < math.pi
    assert v.rel_diff <= v.tol


def test_ball_volume_log_growth():
    v4 = ball_volume(4.0).value
    v8 = ball_volume(8.0).value
    assert v8 - v4 == pytest.approx(4 * math.pi * math.log(2), rel=0.1)


def test_ball_volume_rejects_nonpositive():
    with pytest.raises(ValueError):
        ball_volume(0.0)


def test_square_warp_shrinks_everything():
    plain = ball_volume(6.0).value
    squared = ball_volume(6.0, square=True).value
    assert squared < plain
    t_plain = deck_distances(4)
    t_sq = deck_distances(4, square=True)
    assert t_sq.values[4] < t_plain.values[4]


def test_falsifying_ratios_decay():
    rows = falsifying_ratios([1.0, 2.0], [4.0, 16.0])
    by_key = {(r.scale_c, r.radius): r for r in rows}
    for c in (1.0, 2.0):
        assert by_key[(c, 16.0)].ratio < by_key[(c, 4.0)].ratio
    # doubling c doubles the word count, roughly doubling the ratio
    assert by_key[(2.0, 16.0)].ratio > by_key[(1.0, 16.0)].ratio


def test_ratio_halving_compares_first_and_last_radius_per_c():
    rows = [
        RatioRow(c, r, 1, 1.0, 0.0, ratio)
        for c, r, ratio in [(1.0, 8.0, 4.0), (1.0, 16.0, 3.0), (1.0, 64.0, 1.9),
                            (2.0, 8.0, 6.0), (2.0, 16.0, 5.0), (2.0, 64.0, 3.0)]
    ]
    halving = ratio_halving(rows, [1, 2])
    assert [(h.c, h.first, h.last, h.halved) for h in halving] == [
        (1.0, 4.0, 1.9, True), (2.0, 6.0, 3.0, False),
    ]
    # factor 1: any strict fall passes
    assert all(h.halved for h in ratio_halving(rows, [1, 2], factor=1.0))


def test_verify_dual_small_radii():
    rep = verify_dual([8.0, 16.0])
    assert rep.ok
    assert [row.radius for row in rep.rows] == [8.0, 16.0]
    for row in rep.rows:
        assert row.lower_lhs >= row.lower_rhs
        assert row.upper_lhs <= row.upper_rhs


# --------------------------------------------------------------------------
# golden certified values

# Every certified warped value below was recorded once, each float as its
# repr (or the error raised), and must replay bit for bit: solving half
# the grid changes the work done, never a float. The deck tables up to
# k_max = 24 have a grid spacing that does not depend on how the deck
# window is sized; the longer ones, and verify_dual's k_max = 109 table,
# pin the window sized from the climb-and-wrap bound.
GOLDEN_SPACINGS = (None, (0.3, 0.2), (0.125, 0.125))
GOLDEN_RADII = (0.5, 1.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0)


def golden_calls():
    calls = [
        ("ball_volume", {"radius": r, "square": square, "spacing": spacing})
        for spacing in GOLDEN_SPACINGS
        for square in (False, True)
        for r in GOLDEN_RADII
    ]
    calls.append(("falsifying_ratios", {"cs": [1.0], "radii": [4.0, 16.0]}))
    calls += [("deck_distances", {"k_max": k}) for k in (1, 2, 4, 8, 16, 24)]
    calls.append(("deck_distances", {"k_max": 4, "square": True}))
    # deck windows past r = 25 at spacing 0.125, where the flood stops
    # short of the window's outer rows
    calls += [
        ("deck_distances", {"k_max": k, "square": square, "spacing": spacing})
        for k in (32, 64, 109)
        for spacing in (None, (0.125, 0.125))
        for square in (False, True)
    ]
    calls += [
        ("point_distance", {"start": [0.0, 0.0], "end": [3.0, 0.0]}),
        ("point_distance", {"start": [0.0, 0.0], "end": [0.0, CIRCUMFERENCE]}),
    ]
    calls += [
        ("verify_dual", {"radii": [8.0, 16.0, 32.0], "spacing": spacing})
        for spacing in (None, (0.125, 0.125))
    ]
    # round-trip through JSON so recorded and replayed arguments agree
    return json.loads(json.dumps([{"call": c, "kwargs": kw} for c, kw in calls]))


def _reprs(obj):
    """Dataclasses as dicts and sequences as lists, with every float as its
    repr (numpy floats included), which pins it to the last bit."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _reprs(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_reprs(x) for x in obj]
    return repr(float(obj)) if isinstance(obj, float) else obj


def golden_outcome(call, kwargs):
    try:
        return _reprs(getattr(warped, call)(**kwargs))
    except Exception as exc:  # a recorded failure must replay as the same failure
        return f"{type(exc).__name__}: {exc}"


WARPED_GOLDEN = json.loads((Path(__file__).parent / "data" / "warped_golden.json").read_text())


def test_golden_calls_are_the_recorded_ones():
    assert [{"call": g["call"], "kwargs": g["kwargs"]} for g in WARPED_GOLDEN] == golden_calls()


@pytest.mark.parametrize(
    "case", WARPED_GOLDEN, ids=[f"{g['call']} {json.dumps(g['kwargs'])}" for g in WARPED_GOLDEN]
)
def test_certified_values_match_the_recorded_ones(case):
    assert golden_outcome(case["call"], case["kwargs"]) == case["result"]


# --------------------------------------------------------------------------
# one flood per certified value, cut at the distance its answer needs


class Grid(NamedTuple):
    r_vals: np.ndarray
    s_vals: np.ndarray
    ds: float
    source: tuple
    rows: object
    limit: float


def _record_solves(monkeypatch):
    """Patch the module-global ``dijkstra`` (the name the tracer hooks) to
    log the node count of every graph it solves."""
    sizes = []
    real = warped.dijkstra

    def spy(graph, *args, **kwargs):
        sizes.append(graph.shape[0])
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(warped, "dijkstra", spy)
    return sizes


def _record_grids(monkeypatch):
    """Log every grid handed to ``_solve_grid``, with its source and cuts."""
    grids = []
    real = warped._solve_grid

    def spy(r_vals, s_vals, ds, **kwargs):
        grids.append(Grid(r_vals, s_vals, ds, kwargs["source"], kwargs.get("rows"),
                          kwargs.get("limit", math.inf)))
        return real(r_vals, s_vals, ds, **kwargs)

    monkeypatch.setattr(warped, "_solve_grid", spy)
    return grids


def _path_bound(r_vals, ds, square, start_row, end_row, run):
    """U: the shortest climb from ``start_row`` to some row, run of ``run``
    columns along it and descent to ``end_row``, times 1 + 1e-9."""
    dr = float(r_vals[1] - r_vals[0])
    rows = np.arange(len(r_vals))
    climb = (np.abs(rows - start_row) + np.abs(rows - end_row)) * dr
    return float((climb + run * (np.sqrt(metric_factor(r_vals, square)) * ds)).min()) * (1.0 + 1e-9)


def _first_window(k_max, square):
    """The half-width r_win of the first deck-distance flood."""
    climb = 3.0 * (CIRCUMFERENCE * k_max) ** (1 / 3) if square else 4.0 * math.sqrt(math.pi * k_max)
    return min(CIRCUMFERENCE * k_max, climb) + 8.0


def _deck_window(r_win, k_max, base, scale):
    """(dr, half, m, pad) of a deck-distance flood over the half-width r_win."""
    dr = max(base[0], 2.0 * r_win / 400.0) * scale
    m = max(3, round(CIRCUMFERENCE / (base[1] * max(1.0, k_max / 10) * scale)))
    return dr, math.ceil(r_win / dr), m, math.ceil(5.0 / (CIRCUMFERENCE / m))


def _deck_rows(r_win, k_max, square, base, scale):
    """(dr, half, ncol, rows) of a deck-distance flood over the half-width
    r_win: rows is the top row h, over every k <= k_max, whose lower
    bound LB_k(h), less 1e-9, is within U_k, plus 2 spare rows."""
    dr, half, m, pad = _deck_window(r_win, k_max, base, scale)
    runs = m * np.arange(1, k_max + 1)
    upper, lower = warped._wrap_bounds(np.arange(-half, half + 1) * dr, CIRCUMFERENCE / m, square, runs)
    top = max(h for h in range(half + 1) if any(lower[k, h] * (1 - 1e-9) <= upper[k] for k in range(k_max)))
    return dr, half, k_max * m + 2 * pad + 1, top + 2


@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("spacing", [None, (0.125, 0.125)])
@pytest.mark.parametrize("k_max", [1, 4, 32, 109])
def test_deck_distances_floods_once_per_scale_over_half_the_rows(monkeypatch, k_max, spacing, square):
    sizes = _record_solves(monkeypatch)
    grids = _record_grids(monkeypatch)
    deck_distances(k_max, square=square, spacing=spacing)
    base = (0.25, 0.25) if spacing is None else spacing
    expected = [_deck_rows(_first_window(k_max, square), k_max, square, base, scale) for scale in (1.0, 0.5)]
    # the flood stops at the rows a path no longer than U can reach, well
    # inside the window's half
    assert [(len(g.r_vals) // 2, len(g.s_vals), g.rows) for g in grids] == [
        (half, ncol, rows) for _, half, ncol, rows in expected
    ]
    assert all(g.rows < len(g.r_vals) // 5 for g in grids)
    assert [g.limit for g in grids] == [math.inf, math.inf]
    assert sizes == [(g.rows + 1) * len(g.s_vals) for g in grids]


@pytest.mark.parametrize("k_max, spacing, reach", [
    (32, None, 121), (64, None, 135), (109, None, 138), (109, (0.125, 0.125), 121)])
def test_fine_deck_floods_stop_at_the_path_bound(monkeypatch, k_max, spacing, reach):
    # the climb-and-wrap window alone would flood 195, 202, 202 and 202
    # rows, and a bound that counts only the climb 163, 178, 183 and 183
    grids = _record_grids(monkeypatch)
    deck_distances(k_max, spacing=spacing)
    assert grids[1].rows == reach


def test_a_window_whose_top_row_the_bound_admits_is_refused(monkeypatch, capsys):
    # LB_k(h) patched to 0 on the window's top row: a path up there could
    # win, so no flood of this window is trusted
    real = warped._wrap_bounds
    tops = []

    def admit_top(r_vals, *args):
        upper, lower = real(r_vals, *args)
        tops.append(len(r_vals) // 2)
        lower[:, -1] = 0.0
        return upper, lower

    monkeypatch.setattr(warped, "_wrap_bounds", admit_top)
    floods = _record_solves(monkeypatch)
    with pytest.raises(TruncationError, match="no wider than its path bound"):
        warped._deck_distance_grid(16, 1.0, False, (0.25, 0.25))
    assert tops == [_deck_window(_first_window(16, False), 16, (0.25, 0.25), 1.0)[1]]
    assert floods == []
    assert cli.main(["warped-distance", "--k", "4"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "TruncationError"


# small deck windows: (k_max, square, base)
BOUND_CASES = [(k, square, base) for k in (3, 16) for square in (False, True)
               for base in ((0.25, 0.25), (0.3, 0.2))]


def _whole_deck_flood(k_max, square, base):
    """(r_vals, ds, m, pad, dist) of the first deck window at scale 1,
    dist its flood from the source with no row cut."""
    dr, half, m, pad = _deck_window(_first_window(k_max, square), k_max, base, 1.0)
    r_vals = np.arange(-half, half + 1) * dr
    ds = CIRCUMFERENCE / m
    s_vals = (np.arange(k_max * m + 2 * pad + 1) - pad) * ds
    return r_vals, ds, m, pad, warped._solve_grid(r_vals, s_vals, ds, False, square, (half, pad))


@pytest.mark.parametrize("k_max, square, base", BOUND_CASES)
def test_the_wrap_bound_is_the_length_of_its_path(monkeypatch, k_max, square, base):
    graphs = []
    real = warped._grid_graph

    def spy(*args):
        graphs.append(real(*args))
        return graphs[-1]

    monkeypatch.setattr(warped, "_grid_graph", spy)
    r_vals, ds, m, pad, dist = _whole_deck_flood(k_max, square, base)
    (graph,) = graphs  # the mirrored rows r >= 0, row 0 at r = 0
    rows = len(r_vals) // 2 + 1
    ncol = graph.shape[0] // rows

    def weight(i, j, di, dj):
        return graph[i * ncol + j, (i + di) * ncol + j + dj]

    eta = [weight(i, pad, 0, 1) for i in range(rows)]
    delta = [weight(i, pad, 1, 1) for i in range(rows - 1)]
    dr = weight(0, pad, 1, 0)
    runs = m * np.arange(1, k_max + 1)
    upper, _ = warped._wrap_bounds(r_vals, ds, square, runs)
    for k, run in enumerate(runs):
        lengths = []
        for top in range(rows):
            # straight over the bands whose diagonal is no cheaper than a
            # vertical step plus a step along the top row, diagonally above
            straight = max(sum(delta[i] >= dr + eta[top] for i in range(top)), top - run // 2)
            climb = [dr] * straight + delta[straight:top]
            steps = climb + [eta[top]] * (run - 2 * (top - straight)) + climb[::-1]
            length = 0.0
            for w in steps:
                length += w
            lengths.append(length)
        assert upper[k] == pytest.approx(min(lengths) * (1 + 1e-9), rel=1e-12, abs=0)
        assert upper[k] >= dist[len(r_vals) // 2, pad + run]


@pytest.mark.parametrize("k_max, square, base", BOUND_CASES)
def test_the_lower_bound_never_beats_a_real_path(k_max, square, base):
    r_vals, ds, m, pad, dist = _whole_deck_flood(k_max, square, base)
    half = len(r_vals) // 2
    # the k_max-th translate's distances are the source's, mirrored in s,
    # so the least path through a node v is D(v) + D'(v)
    through = dist + dist[:, ::-1]
    least_through = np.minimum(through[half:], through[half::-1]).min(axis=1)  # rows h = |r| / dr
    _, lower = warped._wrap_bounds(r_vals, ds, square, [k_max * m])
    # a path through row h tops out at some row h' >= h
    least_from = np.minimum.accumulate(lower[0][::-1])[::-1]
    assert np.all(least_from * (1 - 1e-9) <= least_through)


def test_narrow_cylinders_keep_their_edges():
    # on one or two columns the wrapped twins of an edge alias; one copy stays
    r_vals = np.arange(-2, 3) * 0.25
    two = warped._solve_grid(r_vals, np.arange(2.0), 1.0, True, False, (2, 0))
    assert two[2].tolist() == [0.0, 1.0]
    assert two[4, 1] == math.sqrt(0.25**2 + 1.0) + 0.25
    one = warped._solve_grid(r_vals, np.arange(1.0), 1.0, True, False, (2, 0))
    assert one[:, 0].tolist() == [0.5, 0.25, 0.0, 0.25, 0.5]
    # a row cut keeps the source's rows and their edges
    assert warped._solve_grid(r_vals, np.arange(2.0), 1.0, True, False, (2, 0), rows=1).tolist() == \
        two[1:4].tolist()
    assert warped._solve_grid(r_vals, np.arange(1.0), 1.0, True, False, (1, 0), rows=2)[:, 0].tolist() == \
        [0.25, 0.0, 0.25, 0.5]


@pytest.mark.parametrize("square", [False, True])
@pytest.mark.parametrize("radius", [1.0, 16.0])
def test_ball_volume_floods_the_rows_within_its_radius(monkeypatch, radius, square):
    sizes = _record_solves(monkeypatch)
    grids = _record_grids(monkeypatch)
    ball_volume(radius, square=square)
    assert [g.limit for g in grids] == [radius, radius]
    # the limit band around the centre row, mirrored (both row steps here
    # are powers of two, so the array's step is the window's dr)
    bands = [math.ceil(radius / float(g.r_vals[1] - g.r_vals[0])) + 1 for g in grids]
    assert [g.rows for g in grids] == bands
    assert all(band < len(g.r_vals) // 2 for band, g in zip(bands, grids))
    assert sizes == [(band + 1) * len(g.s_vals) for band, g in zip(bands, grids)]


@pytest.mark.parametrize("periodic", [False, True])
def test_off_centre_point_distance_floods_the_rows_within_its_path_bound(monkeypatch, periodic):
    sizes = _record_solves(monkeypatch)
    grids = _record_grids(monkeypatch)
    start, end = (3.0, 0.0), (-1.0, 5.5 if periodic else 1.5)
    point_distance(start, end, periodic=periodic)
    for g, size in zip(grids, sizes):
        r, s = g.r_vals, g.s_vals
        si, sj = g.source
        assert si == np.argmin(np.abs(r - start[0]))
        ei, ej = np.argmin(np.abs(r - end[0])), np.argmin(np.abs(s - end[1] % CIRCUMFERENCE))
        # on the compact surface the run goes the shorter way round
        run = min(abs(ej - sj), len(s) - abs(ej - sj)) if periodic else abs(ej - sj)
        assert g.limit == _path_bound(r, g.ds, False, si, ei, run)
        band = math.ceil(g.limit / float(r[1] - r[0])) + 1
        assert g.rows == band
        rows = min(si + band, len(r) - 1) - max(si - band, 0) + 1
        assert rows < len(r)
        assert size == rows * len(s)


def _whole_floods(monkeypatch):
    """Patch ``_solve_grid`` to flood every grid whole, with no row cut and
    no limit. The cut's rows are sliced back out of the whole flood, so its
    caller indexes them as before. Each limited flood is also solved with
    its cut and checked on the spot: a node within the limit keeps the
    whole flood's bits, and every other node reads inf."""
    real = warped._solve_grid

    def whole(r_vals, s_vals, ds, periodic, square, source, rows, limit=math.inf):
        dist = real(r_vals, s_vals, ds, periodic, square, source)
        lo = max(0, source[0] - rows)
        dist = dist[lo : source[0] + rows + 1]
        if limit < math.inf:
            cut = real(r_vals, s_vals, ds, periodic, square, source, rows=rows, limit=limit)
            assert cut.tobytes() == np.where(dist <= limit, dist, np.inf).tobytes()
        return dist

    monkeypatch.setattr(warped, "_solve_grid", whole)


def _point_pairs():
    """44 seeded point pairs, a quarter of them starting on the centre row."""
    rng = random.Random(23)
    pairs = []
    for i in range(44):
        start = (0.0 if i % 4 == 0 else rng.randint(-16, 16) / 4, rng.randint(0, 25) / 4)
        end = (rng.randint(-16, 16) / 4, rng.randint(0, 50) / 4)
        pairs.append((start, end, i % 2 == 1, rng.random() < 0.3))
    return pairs


def _cut_outcomes():
    """Every value a cut flood feeds, each as its bytes. Deck tables are
    solved on each spacing's base grid and on the default's halving; the
    golden values above pin the halvings of the finer spacing, whose
    whole floods would take most of this test's time."""
    out = {}
    for spacing in (None, (0.125, 0.125), (0.3, 0.2)):
        base = warped._base_spacing(spacing)
        for square in (False, True):
            for scale in (1.0, 0.5):
                if scale == 1.0 or spacing is None:
                    for k in (1, 2, 3, 4, 5, 6, 7, 8, 13, 32, 64, 109):
                        dist = warped._deck_distance_grid(k, scale, square, base)
                        out["deck", k, square, base, scale] = dist.tobytes()
                for r in (0.5, 1.0, 2.5, 4.0, 8.0, 16.0, 32.0, 64.0):
                    out["ball", r, square, base, scale] = warped._ball_volume_grid(r, scale, square, base).hex()
    for start, end, periodic, square in _point_pairs():
        cert = point_distance(start, end, tol=math.inf, square=square, periodic=periodic)
        out["point", start, end, periodic, square] = (cert.value.hex(), cert.coarse.hex())
    return out


def test_cut_floods_equal_full_floods(monkeypatch):
    cut = _cut_outcomes()
    _whole_floods(monkeypatch)
    whole = _cut_outcomes()
    assert list(cut) == list(whole)
    assert [key for key in cut if cut[key] != whole[key]] == []
