"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q

They cover the self-time arithmetic, that every oracle accepts the
library's answer and rejects a deliberately wrong one, that removing
the tracing wrappers restores the library exactly, the speed
normalisation, and the stratified moebiusxT draws of exact-queries.
"""

import dataclasses
import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from orbitlab import algebra, euclid, flatgeo, groups, orbit, warped  # noqa: E402
from orbitlab.euclid import Point  # noqa: E402


def _spans():
    S = tracing.Span
    return [
        S("bench.pass", 0.0, 10.0, -1, 0),
        S("orbit.orbit_growth", 1.0, 4.0, 0, 0),
        S("groups.enumerate_orbit", 5.0, 9.0, 0, 7),
        S("euclid.Isometry", 6.0, 7.0, 2, 0),
        S("euclid.Isometry", 7.5, 8.0, 2, 0),
    ]


def test_self_times_subtract_children():
    assert tracing.self_times(_spans()) == [3.0, 3.0, 2.5, 1.0, 0.5]


def test_self_times_add_up_to_the_root():
    agg = tracing.aggregate(_spans())
    assert sum(agg.layer_s.values()) == 10.0
    assert agg.layer_s == {"bench": 3.0, "orbit": 3.0, "groups": 2.5, "euclid": 1.5}
    assert agg.under[("euclid.Isometry", "groups.enumerate_orbit")] == 2
    assert ("groups.enumerate_orbit", "orbit.orbit_growth") not in agg.under
    metrics = tracing.layer_metrics(agg)
    assert metrics["groups.isometries_per_hit"] == 2 / 7
    assert metrics["euclid.ns_per_isometry"] == 1e9 * 1.5 / 2


def _rejects(check, good, bad):
    assert check(good) == []
    assert check(bad) != []


def test_milnor_oracle():
    deck = groups.builtin_deck_group("klein2")
    x = workloads.PAPER_BASE_POINTS["klein2"]
    rep = orbit.milnor_check(deck, Point(x), [1, 2, 3])
    rows = list(rep.rows)
    rows[1] = rows[1]._replace(orbit_count=rows[1].orbit_count + 1)
    bad = dataclasses.replace(rep, rows=tuple(rows))
    _rejects(lambda r: oracles.check_milnor("klein2", x, [1, 2, 3], r), rep, bad)


def test_growth_and_index_oracles():
    deck = groups.builtin_deck_group("moebius2")
    x = workloads.PAPER_BASE_POINTS["moebius2"]
    series = orbit.orbit_growth(deck, Point(x), [1, 2, 4])
    bad = dataclasses.replace(series, counts=series.counts[:-1] + (series.counts[-1] + 1,))
    _rejects(lambda s: oracles.check_growth("moebius2", x, [1, 2, 4], s), series, bad)
    rep = orbit.finite_index_comparison(deck, orbit.translation_subgroup(deck), Point(x), [1, 2])
    _rejects(lambda r: oracles.check_index("moebius2", x, [1, 2], r), rep,
             dataclasses.replace(rep, slack_dist_sq=F(1)))


def test_word_and_algebra_oracles():
    counts = groups.word_ball_counts(groups.heisenberg_group(), 4)
    _rejects(lambda c: oracles.check_word_counts("heisenberg", 4, c), counts, counts[:-1] + [counts[-1] - 1])
    z3 = groups.word_ball_counts(groups.zk_group(3), 3)
    assert z3 == [oracles.zk_word_ball(3, r) for r in range(4)] == [1, 7, 25, 63]
    poly = algebra.polycyclic_injection(groups.HEISENBERG_IDENTITY, [
        groups.HeisenbergElement(1, 0, 0), groups.HeisenbergElement(0, 1, 0),
        groups.HeisenbergElement(0, 0, 1)], 1)
    _rejects(lambda p: oracles.check_polycyclic(1, p), poly, dataclasses.replace(poly, points=26))
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, d, v = algebra.smith_normal_form(m)
    wrong = [row[:] for row in d]
    wrong[2][2] *= 2
    _rejects(lambda r: oracles.check_snf(m, *r), (u, d, v), (u, wrong, v))


def test_volume_oracles():
    cyl = groups.builtin_deck_group("cylinder2")
    est = flatgeo.ball_volume(cyl, Point((0, 0)), 1, samples=20_000, seed=3)
    assert abs(oracles.cylinder_ball_volume(1.0) - (math.sqrt(3) / 2 + math.pi / 3)) < 1e-12
    assert oracles.check_volume("cylinder2", 1, est.value, est.sigma) == []
    assert oracles.check_volume("cylinder2", 1, est.value + 6 * est.sigma, est.sigma) != []
    thin = flatgeo.thin_set_volume(cyl, Point((0, 0)), 4, 1, 0, samples=2_000, seed=3)
    _rejects(lambda e: oracles.check_thin("cylinder2", (0, 0), 4, 1, e), thin,
             dataclasses.replace(thin, value=thin.value + 6 * thin.sigma))
    rep = flatgeo.verify_dual(cyl, Point((0, 0)), [1, 2], samples=5_000, seed=3)
    rows = list(rep.rows)
    rows[0] = dataclasses.replace(rows[0], count_2r=rows[0].count_2r + 2)
    _rejects(lambda r: oracles.check_flat_dual("cylinder2", (0, 0), [1, 2], r), rep,
             dataclasses.replace(rep, rows=tuple(rows)))


def test_dirichlet_and_orbit_count_oracles():
    center = workloads.PAPER_BASE_POINTS["cylinder2"]
    p = (F(3, 2), F(1, 8))
    out = workloads.run_cli(["dirichlet", "--space", "cylinder2", "--point=3/2,1/8", "--within=1/2"])
    payload = json.loads(out.stdout)
    ray = oracles.ray("cylinder2", center, p, 8)
    # criterion 05's closed form: scale 1/(2s), extension^2 = (scale-1)^2 (t^2+s^2)
    assert ray[:2] == ("finite", F(4))
    check = lambda pay: oracles.check_dirichlet("cylinder2", center, p, F(1, 2), pay, ray)
    _rejects(check, payload, dict(payload, extension=dict(payload["extension"], ray_scale="3")))
    assert check(dict(payload, in_cell=not payload["in_cell"])) != []
    out = workloads.run_cli(["orbit-count", "--space", "moebiusxT", "--base=1/2,1/4,0", "--radii", "1,2"])
    payload = json.loads(out.stdout)
    check = lambda pay: oracles.check_orbit_count_rows("moebiusxT", (F(1, 2), F(1, 4), F(0)), [1, 2], pay)
    rows = [dict(payload["rows"][0], count=payload["rows"][0]["count"] + 1)] + payload["rows"][1:]
    _rejects(check, payload, dict(payload, rows=rows))


def test_warped_oracles():
    cv = warped.point_distance((0.0, 0.0), (2.0, 1.5))
    _rejects(lambda c: oracles.check_point_distance((0.0, 0.0), (2.0, 1.5), False, c), cv,
             dataclasses.replace(cv, value=cv.value * 1.5))
    table = warped.deck_distances(16)
    _rejects(lambda t: oracles.check_deck_distances(16, t), table,
             dataclasses.replace(table, values=tuple(v * 1.2 for v in table.values)))
    rows = warped.falsifying_ratios([1.0], [8.0, 64.0])
    _rejects(lambda r: oracles.check_ratios([1.0], [8.0, 64.0], r), rows,
             [dataclasses.replace(rows[0], word_count=rows[0].word_count + 2)] + rows[1:])
    rep = warped.verify_dual((8.0,))
    bad_row = dataclasses.replace(rep.rows[0], count_2r=0, lower_ok=False)
    _rejects(oracles.check_warped_dual, rep, dataclasses.replace(rep, rows=(bad_row,)))


def test_removed_wrappers_leave_the_library_untouched():
    deck = groups.builtin_deck_group("moebius2")
    x = Point((0, F(3, 10)))
    before = repr(orbit.orbit_growth(deck, x, [1, 2, 4]))
    originals = {
        "init": euclid.Isometry.__dict__["__init__"],
        "enum": groups.DeckGroup.__dict__["enumerate_orbit"],
        "growth": orbit.orbit_growth,
        "mat_inverse": (euclid.mat_inverse, groups.mat_inverse, flatgeo.mat_inverse),
        "tree": flatgeo.cKDTree,
        "dijkstra": warped.dijkstra,
    }
    t = tracing.Tracer()
    t.install()
    try:
        assert orbit.orbit_growth is not originals["growth"]
        assert groups.mat_inverse is not originals["mat_inverse"][1]
        traced = repr(orbit.orbit_growth(deck, x, [1, 2, 4]))
    finally:
        t.remove()
    spans = t.take()
    assert traced == before
    assert {s.name for s in spans} >= {"orbit.orbit_growth", "groups.enumerate_orbit", "euclid.Isometry"}
    assert t.missing == []
    assert euclid.Isometry.__dict__["__init__"] is originals["init"]
    assert groups.DeckGroup.__dict__["enumerate_orbit"] is originals["enum"]
    assert orbit.orbit_growth is originals["growth"]
    assert (euclid.mat_inverse, groups.mat_inverse, flatgeo.mat_inverse) == originals["mat_inverse"]
    assert flatgeo.cKDTree is originals["tree"] and warped.dijkstra is originals["dijkstra"]
    assert repr(orbit.orbit_growth(deck, x, [1, 2, 4])) == before
    assert t.take() == []


def test_normalisation_scales_by_the_reference_loops_around_each_op():
    ref = speed.REFERENCE_S
    # op 0 ran between loops at the reference speed, op 1 between loops
    # twice as slow, op 2 between a slow and a fast one
    norm = run.normalise([0.1, 0.2, 0.3], [ref, ref, 2 * ref, ref])
    assert [round(x, 12) for x in norm] == [0.1, round(0.2 * 2 / 3, 12), round(0.3 * 2 / 3, 12)]
    assert 0 < speed.reference_loop() < 1
    assert 0 < speed.reference_loop(numeric=True) < 1


def test_stratified_draws_cover_every_sextile_every_two_passes():
    a, b = workloads._StratifiedDraws(5), workloads._StratifiedDraws(5)
    for i in range(4):
        points = a.for_pass(i)
        assert points == b.for_pass(i)  # a function of the seed alone
        assert len(points) == workloads.DIRICHLET_PER_SPACE
        if i % 2 == 0:
            sextiles = []
        sextiles += [workloads.bisect.bisect(workloads.WINDOW_SEXTILES, workloads._window(ray))
                     for _, ray in points]
        if i % 2 == 1:
            assert sorted(sextiles) == list(range(6))
