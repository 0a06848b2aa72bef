"""Seeded inputs and operations for the four benchmark workloads.

A workload is a list of operations run in one closed loop by one client:
each operation starts when the previous one returns. An operation calls
the library with inputs generated here from the benchmark seed, and
carries an oracle from `oracles` that checks its output without the
library.

``orbit-batch``, ``mc-volume`` and ``warped-grid`` repeat the same
operations in every pass. ``exact-queries`` is a stream: each pass is a
fresh batch of CLI commands drawn from the seed and the pass number,
because its per-command cost is heavy-tailed and a median over many
short passes is steadier than one long pass.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import random
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import oracles
from orbitlab import algebra, cli, flatgeo, groups, orbit, warped
from orbitlab.euclid import Point

F = Fraction

FLAT_SPACES = ("torus2", "cylinder2", "moebius2", "klein2", "moebiusxT")

# the paper's base points, used for seed 0 and by the CLI's defaults
PAPER_BASE_POINTS = {
    "torus2": (F(0), F(0)),
    "cylinder2": (F(0), F(0)),
    "moebius2": (F(0), F(3, 10)),
    "klein2": (F(1, 10), F(1, 10)),
    "moebiusxT": (F(0), F(3, 10), F(0)),
    "z2": (F(0), F(0)),
    "z3": (F(0), F(0), F(0)),
}

# exact-queries: a dirichlet point whose minimal ray is cut farther than
# this from the base point is redrawn. ray_extension re-enumerates a
# doubling window whose size grows with the cut distance (squared on
# moebiusxT); on the 1/64 grid the cut distance reaches ~140 and one such
# command runs for minutes, beyond the benchmark's per-run time limit.
MAX_CUT = 4
# A moebiusxT dirichlet command costs about the square of the search
# window that certifies its ray: the doubling window 2(|d|+1) 2^k that
# first reaches twice the cut distance (see `_window`). Its points are
# stratified by that window: these are the sextiles of the window over
# uniform grid points with the cut within MAX_CUT, and every two passes
# draw one point from each sextile (see `_StratifiedDraws`). Each run then
# carries the same spread of heavy commands, which set query_tail_ms,
# whatever the seed; unstratified draws moved it by 20-30% from seed to
# seed.
WINDOW_SEXTILES = (3.231, 3.994, 5.105, 6.517, 8.414)

ORBIT_GROWTH_RADII = [2, 4, 8, 16]
INDEX_RADII = [1, 2, 4, 8]
FLAT_DUAL_RADII = [1, 2, 4]
THIN_RADII = {"cylinder2": [4, 8, 16, 32], "moebius2": [4, 8, 16, 32], "moebiusxT": [4, 8]}
DUAL_SAMPLES = 20_000
REFERENCE_SAMPLES = 50_000
THIN_SAMPLES = 5_000
WARPED_CS = [1.0, 2.0, 4.0]
WARPED_RATIO_RADII = [8.0, 16.0, 32.0, 64.0]
# verify_dual stops at r=32: at r>=40 the deck-distance grid hits its
# 400-row cap and certification fails (2.08% gap at the 2% tolerance)
WARPED_DUAL_RADII = (8.0, 16.0, 32.0)
WARPED_FINE_SPACING = (0.125, 0.125)
DECK_KS = [32, 64]


class Op(NamedTuple):
    """One closed-loop operation: ``run`` calls the library, ``check``
    returns the oracle's list of problems with the output."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]


class CliOutput(NamedTuple):
    code: int
    stdout: str


def run_cli(argv: List[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _small_rational(rng: random.Random, lo: F, hi: F) -> F:
    d = rng.randint(2, 10)
    return F(rng.randint(int(lo * d), int(hi * d)), d)


def base_points(seed: int) -> Dict[str, tuple]:
    """Seed 0 gives the paper's points; other seeds draw rationals with
    denominators up to 10. The reflected coordinate stays within 1/3 of the
    mirror so generator displacements, and with them the work, stay
    comparable across seeds."""
    if seed == 0:
        return dict(PAPER_BASE_POINTS)
    rng = _rng(seed, "base")
    out = {}
    for name, paper in PAPER_BASE_POINTS.items():
        coords = [_small_rational(rng, F(0), F(1)) for _ in paper]
        if name in ("moebius2", "klein2", "moebiusxT"):
            coords[1] = _small_rational(rng, F(-1, 3), F(1, 3))
        out[name] = tuple(coords)
    return out


class Bundle(NamedTuple):
    """What set-up builds once: the bundled deck groups and word groups."""

    decks: Dict[str, groups.DeckGroup]
    z3_words: groups.GeneratedGroup
    heisenberg: groups.GeneratedGroup


def build_bundle() -> Bundle:
    decks = {name: groups.builtin_deck_group(name) for name in FLAT_SPACES}
    decks["z2"] = groups.zk_deck(2)
    decks["z3"] = groups.zk_deck(3)
    return Bundle(decks, groups.zk_group(3), groups.heisenberg_group())


# ---------------------------------------------------------------------------
# orbit-batch


def _random_matrix(rng: random.Random, max_dim: int, bound: int) -> List[List[int]]:
    rows, cols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) if rng.random() > 0.15 else 0 for _ in range(cols)]
            for _ in range(rows)]


def _snf_check(matrices):
    def check(results):
        problems = []
        for m, (u, d, v) in zip(matrices, results):
            problems += oracles.check_snf(m, u, d, v)
        return problems
    return check


def orbit_batch(bundle: Bundle, seed: int) -> List[Op]:
    pts = base_points(seed)
    decks = bundle.decks
    ops = []
    milnor = [("z2", 12), ("z3", 6), ("moebius2", 20), ("klein2", 12)]
    for name, top in milnor:
        x = Point(pts[name])
        radii = list(range(1, top + 1))
        ops.append(Op(
            f"milnor_check {name}",
            lambda d=decks[name], x=x, radii=radii: orbit.milnor_check(d, x, radii),
            lambda rep, name=name, radii=radii: oracles.check_milnor(name, pts[name], radii, rep),
        ))
    for name in ("cylinder2", "moebius2", "torus2", "moebiusxT"):
        ops.append(Op(
            f"orbit_growth {name}",
            lambda d=decks[name], x=Point(pts[name]): orbit.orbit_growth(d, x, ORBIT_GROWTH_RADII),
            lambda s, name=name: oracles.check_growth(name, pts[name], ORBIT_GROWTH_RADII, s),
        ))
    for name in ("klein2", "moebius2"):
        ops.append(Op(
            f"finite_index_comparison {name}",
            lambda d=decks[name], x=Point(pts[name]): orbit.finite_index_comparison(
                d, orbit.translation_subgroup(d), x, INDEX_RADII),
            lambda rep, name=name: oracles.check_index(name, pts[name], INDEX_RADII, rep),
        ))
    ops.append(Op(
        "word_ball_counts z3",
        lambda: groups.word_ball_counts(bundle.z3_words, 7),
        lambda counts: oracles.check_word_counts("z3", 7, counts),
    ))
    ops.append(Op(
        "word_ball_counts heisenberg",
        lambda: groups.word_ball_counts(bundle.heisenberg, 10),
        lambda counts: oracles.check_word_counts("heisenberg", 10, counts),
    ))
    heis_gens = [groups.HeisenbergElement(1, 0, 0), groups.HeisenbergElement(0, 1, 0),
                 groups.HeisenbergElement(0, 0, 1)]
    ops.append(Op(
        "polycyclic_injection heisenberg",
        lambda: algebra.polycyclic_injection(groups.HEISENBERG_IDENTITY, heis_gens, 3),
        lambda rep: oracles.check_polycyclic(3, rep),
    ))
    rng = _rng(seed, "snf")
    matrices = [_random_matrix(rng, 8, 30) for _ in range(10)]
    ops.append(Op(
        "smith_normal_form x10",
        lambda: [algebra.smith_normal_form(m) for m in matrices],
        _snf_check(matrices),
    ))
    return ops


# ---------------------------------------------------------------------------
# mc-volume


def mc_volume(bundle: Bundle, seed: int) -> List[Op]:
    decks = bundle.decks
    pts = PAPER_BASE_POINTS
    rng = _rng(seed, "mc")
    ops = []
    for name in FLAT_SPACES:
        mc_seed = rng.randrange(2 ** 32)
        ops.append(Op(
            f"verify_dual {name}",
            lambda d=decks[name], x=Point(pts[name]), s=mc_seed: flatgeo.verify_dual(
                d, x, FLAT_DUAL_RADII, samples=DUAL_SAMPLES, seed=s),
            lambda rep, name=name: oracles.check_flat_dual(name, pts[name], FLAT_DUAL_RADII, rep),
        ))
    for name in ("cylinder2", "torus2"):
        mc_seed = rng.randrange(2 ** 32)
        ops.append(Op(
            f"ball_volume {name} r=1",
            lambda d=decks[name], x=Point(pts[name]), s=mc_seed: flatgeo.ball_volume(
                d, x, 1, samples=REFERENCE_SAMPLES, seed=s),
            lambda est, name=name: oracles.check_volume(name, 1, est.value, est.sigma),
        ))
    for name, radii in THIN_RADII.items():
        axis = oracles.SOUL_AXIS[name]
        for r in radii:
            mc_seed = rng.randrange(2 ** 32)
            ops.append(Op(
                f"thin_set_volume {name} r={r}",
                lambda d=decks[name], x=Point(pts[name]), r=r, a=axis, s=mc_seed:
                    flatgeo.thin_set_volume(d, x, r, 1, a, samples=THIN_SAMPLES, seed=s),
                lambda est, name=name, r=r: oracles.check_thin(name, pts[name], r, 1, est),
            ))
    return ops


def sigma_rel_max(outputs) -> Optional[float]:
    """Largest sigma/value over the Monte Carlo estimates among outputs."""
    best = None
    for out in outputs:
        rows = getattr(out, "rows", None)
        ests = [(row.volume, row.sigma) for row in rows] if rows is not None else []
        if hasattr(out, "sigma") and hasattr(out, "value"):
            ests.append((out.value, out.sigma))
        for value, sigma in ests:
            if value > 0:
                best = max(best or 0.0, sigma / value)
    return best


# ---------------------------------------------------------------------------
# warped-grid


def _warped_pairs(rng: random.Random, periodic: bool):
    """Four seeded point pairs. The grid a pair needs depends on its largest
    |r| and, on the cover, on how far apart the s-coordinates are; those are
    fixed (|r| = 3 at one end, s-gaps 1.5, 3, 4.5, 6), and the seed picks
    the rest, so each pair costs about the same for every seed."""
    pairs = []
    for k in range(1, 5):
        s0 = rng.randint(0, 25) / 4.0
        a = (rng.choice((-3.0, 3.0)), s0)
        b = (rng.randint(-12, 12) / 4.0, s0 + (1.5 * k if not periodic else rng.randint(0, 25) / 4.0))
        pairs.append((a, b))
    return pairs


def warped_grid(bundle: Bundle, seed: int) -> List[Op]:
    ops = [
        Op(
            "falsifying_ratios",
            lambda: warped.falsifying_ratios(WARPED_CS, WARPED_RATIO_RADII),
            lambda rows: oracles.check_ratios(WARPED_CS, WARPED_RATIO_RADII, rows),
        ),
        Op(
            "verify_dual default spacing",
            lambda: warped.verify_dual(WARPED_DUAL_RADII),
            oracles.check_warped_dual,
        ),
        Op(
            "verify_dual spacing 0.125",
            lambda: warped.verify_dual(WARPED_DUAL_RADII, spacing=WARPED_FINE_SPACING),
            oracles.check_warped_dual,
        ),
    ]
    for k in DECK_KS:
        ops.append(Op(
            f"deck_distances {k}",
            lambda k=k: warped.deck_distances(k),
            lambda table, k=k: oracles.check_deck_distances(k, table),
        ))
    rng = _rng(seed, "warped")
    for periodic in (False, True):
        for a, b in _warped_pairs(rng, periodic):
            ops.append(Op(
                f"point_distance {'periodic' if periodic else 'cover'}",
                lambda a=a, b=b, p=periodic: warped.point_distance(a, b, periodic=p),
                lambda cv, a=a, b=b, p=periodic: oracles.check_point_distance(a, b, p, cv),
            ))
    return ops


def gap_max(outputs) -> Optional[float]:
    """Largest certified relative gap among warped outputs."""
    gaps = []
    for out in outputs:
        if isinstance(out, list):
            gaps += [row.volume_rel for row in out]
        elif hasattr(out, "table_rel"):
            gaps += [out.table_rel] + [row.volume_rel for row in out.rows]
        elif hasattr(out, "rel_max"):
            gaps.append(out.rel_max)
        elif hasattr(out, "rel_diff"):
            gaps.append(out.rel_diff)
    return max(gaps) if gaps else None


# ---------------------------------------------------------------------------
# exact-queries

DIRICHLET_PER_SPACE = 3
SNF_PER_PASS = 4
ORBIT_COUNT_PER_PASS = 2


def _grid_point(rng: random.Random, dim: int) -> tuple:
    return tuple(F(rng.randint(-256, 256), 64) for _ in range(dim))


def _fmt(p) -> str:
    return ",".join(str(c) for c in p)


def _cli_check(check: Callable[[dict], List[str]]):
    def run_check(out: CliOutput) -> List[str]:
        if out.code != 0:
            return [f"exit code {out.code}"]
        return check(json.loads(out.stdout))
    return run_check


def _window(ray) -> float:
    """The ray's certifying search window: starting from 2(|d|+1), doubled
    until it reaches 2 T |d|, twice the cut distance (0 without a finite cut)."""
    if ray[0] != "finite":
        return 0.0
    t, d = float(ray[1]), math.sqrt(ray[2])
    w = 2 * (d + 1)
    while 2 * t * d > w:
        w *= 2
    return w


def _draw(rng: random.Random, name: str):
    """A grid point whose cut point lies within MAX_CUT, with its ray data."""
    center = PAPER_BASE_POINTS[name]
    while True:
        p = _grid_point(rng, len(center))
        ray = oracles.ray(name, center, p, MAX_CUT)
        if ray[0] != "beyond":
            return p, ray


class _StratifiedDraws:
    """moebiusxT points by sextile of `_window`. The sextiles pair up as
    light (0, 1), middle (2, 3) and heavy (4, 5). An even pass takes one
    point from each pair, from whichever sextile of it comes first; the
    next pass takes the other sextile of each pair. So every pass has one
    light, one middle and one heavy point, and every two passes cover all
    six sextiles. Draws that fall into a sextile no pass needs yet wait
    for one; the stream is a function of the seed alone."""

    def __init__(self, seed: int):
        self.rng = _rng(seed, "moebiusxT")
        self.waiting = [[] for _ in range(len(WINDOW_SEXTILES) + 1)]
        self.next_sextiles = []

    def take(self, sextiles):
        """(sextile, (point, ray)) from the first of ``sextiles`` that has
        a point waiting, drawing until one has."""
        while not any(self.waiting[k] for k in sextiles):
            p, ray = _draw(self.rng, "moebiusxT")
            self.waiting[bisect.bisect(WINDOW_SEXTILES, _window(ray))].append((p, ray))
        k = next(k for k in sextiles if self.waiting[k])
        return k, self.waiting[k].pop(0)

    def for_pass(self, pass_index: int):
        if pass_index % 2 == 0:
            picks = [self.take((2 * j, 2 * j + 1)) for j in range(DIRICHLET_PER_SPACE)]
            self.next_sextiles = [k ^ 1 for k, _ in picks]
        else:
            picks = [self.take((k,)) for k in self.next_sextiles]
        return [point for _, point in picks]


def exact_queries(seed: int, pass_index: int, mxt: _StratifiedDraws) -> List[Op]:
    """One pass of 21 commands, shuffled: 15 dirichlet (3 per flat space),
    4 snf and 2 orbit-count (cycling over the flat spaces), about 70/20/10
    percent. ``mxt`` supplies the moebiusxT points and must be asked for
    passes in order."""
    rng = _rng(seed, "queries", pass_index)
    ops = []
    for name in FLAT_SPACES:
        center = PAPER_BASE_POINTS[name]
        if name == "moebiusxT":
            points = mxt.for_pass(pass_index)
        else:
            points = [_draw(rng, name) for _ in range(DIRICHLET_PER_SPACE)]
        for p, ray in points:
            h = F(rng.randint(1, 8), 8)
            argv = ["dirichlet", "--space", name, f"--point={_fmt(p)}", f"--within={h}"]
            ops.append(Op(
                f"dirichlet {name}",
                lambda argv=argv: run_cli(argv),
                _cli_check(lambda pay, name=name, c=center, p=p, h=h, ray=ray:
                           oracles.check_dirichlet(name, c, p, h, pay, ray)),
            ))
    for _ in range(SNF_PER_PASS):
        m = _random_matrix(rng, 6, 20)
        ops.append(Op(
            "snf",
            lambda m=m: run_cli(["snf", "--matrix", json.dumps(m)]),
            _cli_check(lambda pay, m=m: oracles.check_snf(m, pay["U"], _diag_matrix(m, pay["diagonal"]), pay["V"])
                       + ([] if pay["identity_ok"] and pay["unimodular"] else ["snf self-check failed"])),
        ))
    radii = [1, 2, 3, 4]
    for j in range(ORBIT_COUNT_PER_PASS):
        name = FLAT_SPACES[(pass_index * ORBIT_COUNT_PER_PASS + j) % len(FLAT_SPACES)]
        x = tuple(_small_rational(rng, F(0), F(1)) for _ in PAPER_BASE_POINTS[name])
        argv = ["orbit-count", "--space", name, f"--base={_fmt(x)}", "--radii", "1,2,3,4"]
        ops.append(Op(
            f"orbit-count {name}",
            lambda argv=argv: run_cli(argv),
            _cli_check(lambda pay, name=name, x=x: oracles.check_orbit_count_rows(name, x, radii, pay)),
        ))
    rng.shuffle(ops)
    return ops


def _diag_matrix(m, diagonal):
    rows, cols = len(m), len(m[0])
    return [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)]


# ---------------------------------------------------------------------------


class Workload:
    """The operations of one workload and seed; ``ops(i)`` is pass i."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.bundle = build_bundle()
        self.repeated = name != "exact-queries"
        # warped-grid spends its time in numpy and scipy; the others in the
        # interpreter (see speed.reference_loop)
        self.numeric = name == "warped-grid"
        if self.repeated:
            build = {"orbit-batch": orbit_batch, "mc-volume": mc_volume, "warped-grid": warped_grid}[name]
            self._fixed = build(self.bundle, seed)
        else:
            self._mxt = _StratifiedDraws(seed)
            self._stream = {0: exact_queries(seed, 0, self._mxt)}

    def ops(self, pass_index: int) -> List[Op]:
        if self.repeated:
            return self._fixed
        if pass_index not in self._stream:
            assert pass_index == max(self._stream) + 1, "exact-queries passes are drawn in order"
            self._stream = {pass_index: exact_queries(self.seed, pass_index, self._mxt)}
        return self._stream[pass_index]
