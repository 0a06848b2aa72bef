"""Command line front end.

Every subcommand prints one canonical JSON document on stdout (fixed key
order, two-space indent, trailing newline) so that runs with the same
arguments and seed are byte-identical; wall-clock data is added only
under --timings. Some tabular commands also offer --format csv.

Exit codes: 0 all checks passed, 1 a checked statement failed, 2 bad
usage or inputs, 3 a resource limit (cap, window, or grid convergence).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from . import algebra, flatgeo, groups, orbit, suite, warped
from .errors import (
    CapExceeded,
    ConvergenceError,
    DegenerateLattice,
    DimensionMismatch,
    InconsistentCosets,
    InsufficientSamples,
    NonCommutingGenerators,
    NotFoundWithinCap,
    TruncationError,
    UnfixedLatticeSpan,
    UnsupportedMethod,
    WrongLatticeRank,
)
from .euclid import Isometry, Point, frac
from .groups import HEISENBERG_IDENTITY, HEISENBERG_SERIES, HeisenbergElement

USAGE_ERRORS = (
    ValueError,
    KeyError,
    TypeError,
    OSError,
    json.JSONDecodeError,
    DimensionMismatch,
    DegenerateLattice,
    InconsistentCosets,
    InsufficientSamples,
    UnsupportedMethod,
)
RESOURCE_ERRORS = (CapExceeded, NotFoundWithinCap, TruncationError, ConvergenceError)
CLASSIFY_ERRORS = (NonCommutingGenerators, WrongLatticeRank, UnfixedLatticeSpan)

SPACE_CHOICES = groups.SPACE_NAMES
GLOBAL_CONFIG_KEYS = {"seed", "samples", "tol", "cap"}

CommandResult = Tuple[Dict[str, Any], bool, Optional[Tuple[List[str], List[List[Any]]]]]


def _frac(text: str) -> Fraction:
    try:
        return frac(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"{text.strip()!r} has a zero denominator") from None


def _number_list(text: str, parse: Callable[[str], Any]) -> List:
    vals = [parse(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("expected a comma-separated list of numbers")
    return vals


def _finite(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return val


_frac_list = functools.partial(_number_list, parse=_frac)
_int_list = functools.partial(_number_list, parse=int)
_float_list = functools.partial(_number_list, parse=_finite)


def _increasing(radii: Sequence) -> List:
    vals = list(radii)
    if not vals or vals[0] <= 0 or any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("radii must be positive and strictly increasing")
    return vals


def _parse_point(text: str) -> Point:
    return Point(tuple(_frac(tok) for tok in text.split(",") if tok.strip()))


def _point_json(p: Point) -> List[str]:
    return [str(c) for c in p]


def _load_json_arg(text: str):
    """JSON from an inline literal, an @-prefixed path, or a bare file name.
    JSON nested deeper than the decoder's recursion limit is a ValueError."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            if os.path.exists(text):
                with open(text, "r", encoding="utf-8") as fh:
                    return json.load(fh)
            raise
    except RecursionError:
        raise ValueError("JSON is nested too deeply") from None


def _selector(name: str) -> str:
    """Normalize a --space/--group name as it is parsed: Z^k and z^k mean
    the lattice zk."""
    low = name.strip().lower()
    if low.startswith("z^") and low[2:].isdigit():
        return "z" + low[2:]
    return name.strip()


def _seed(text: str) -> int:  # numpy takes only non-negative integer seeds
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _element_json(g) -> Any:
    if isinstance(g, HeisenbergElement):
        return [g.a, g.b, g.c]
    return g.to_obj()


def _min_samples(samples: int) -> int:
    if samples < 1000:
        raise InsufficientSamples("Monte-Carlo subcommands need at least 1000 samples")
    return samples


def _space_args(args) -> Tuple[groups.DeckGroup, Point]:
    """The deck group named by --space and the base point: --base, else its default."""
    deck = groups.builtin_deck_group(args.space)
    if not getattr(args, "base", None):
        return deck, flatgeo.default_base(deck)
    p = _parse_point(args.base)
    if p.dimension != deck.dimension:
        raise ValueError("base point has the wrong dimension")
    return deck, p


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_orbit_count(args) -> CommandResult:
    deck, base = _space_args(args)
    radii = _increasing(_frac_list(args.radii))
    counts = orbit.ball_counts(deck, base, [r * r for r in radii])
    floats = [float(r) for r in radii]
    rows = []
    for i, r in enumerate(radii):
        expo = None
        if i >= 2 and all(c > 0 for c in counts[: i + 1]):
            expo = orbit.fit_power_law(floats[: i + 1], counts[: i + 1])[0]
        rows.append({"radius": str(r), "count": counts[i], "exponent_so_far": expo})
    fitted = rows[-1]["exponent_so_far"]
    r2 = orbit.fit_power_law(floats, counts)[1] if fitted is not None else None
    payload = {
        "command": "orbit-count",
        "space": args.space,
        "base": _point_json(base),
        "rows": rows,
        "fitted_exponent": fitted,
        "fit_r2": r2,
    }
    csv_rows = [
        [row["radius"], row["count"], "" if row["exponent_so_far"] is None else row["exponent_so_far"]]
        for row in rows
    ]
    return payload, True, (["radius", "count", "exponent-so-far"], csv_rows)


def _cmd_word_ball(args) -> CommandResult:
    group = groups.builtin_generated_group(args.group)
    counts = groups.word_ball_counts(group, args.radius, cap=args.cap)
    rows = [{"radius": i, "count": c} for i, c in enumerate(counts)]
    payload = {"command": "word-ball", "group": args.group, "rows": rows}
    if args.elements:
        ball = groups.word_ball(group, args.radius, cap=args.cap)
        payload["elements"] = sorted((_element_json(g) for g in ball), key=json.dumps)
    return payload, True, (["radius", "count"], [[r["radius"], r["count"]] for r in rows])


def _cmd_growth_fit(args) -> CommandResult:
    if bool(args.space) == bool(args.group):
        raise ValueError("pass exactly one of --space (orbit) or --group (word)")
    if args.space:
        deck, base = _space_args(args)
        series = orbit.orbit_growth(deck, base, _increasing(_frac_list(args.radii)))
        label = args.space
        kind = "orbit"
    else:
        group = groups.builtin_generated_group(args.group)
        series = orbit.word_growth(group, _increasing(_int_list(args.radii)))
        label = args.group
        kind = "word"
    payload = {
        "command": "growth-fit",
        "kind": kind,
        "label": label,
        "radii": list(series.radii),
        "counts": list(series.counts),
        "fitted_exponent": series.fitted_exponent,
        "fit_r2": series.fit_r2,
    }
    csv_rows = [[r, c] for r, c in zip(series.radii, series.counts)]
    return payload, True, (["radius", "count"], csv_rows)


def _cmd_milnor(args) -> CommandResult:
    deck, base = _space_args(args)
    rep = orbit.milnor_check(deck, base, _increasing(_int_list(args.radii)), cap=args.cap)
    payload = {
        "command": "milnor-check",
        "space": args.space,
        "base": _point_json(base),
        "displacement_bound_sq": str(rep.displacement_bound_sq),
        "rows": [
            {
                "radius": r.radius,
                "word_count": r.word_count,
                "orbit_count": r.orbit_count,
                "verdict": flatgeo.verdict(r.ok),
            }
            for r in rep.rows
        ],
        "pointwise_failures": [list(p) for p in rep.pointwise_failures],
        "ok": rep.ok,
    }
    return payload, rep.ok, None


def _cmd_index_check(args) -> CommandResult:
    deck, base = _space_args(args)
    if args.subgroup != "translations":
        raise ValueError("only the 'translations' subgroup is bundled")
    sub = orbit.translation_subgroup(deck)
    rep = orbit.finite_index_comparison(deck, sub, base, _increasing(_int_list(args.radii)))
    payload = {
        "command": "index-check",
        "space": args.space,
        "base": _point_json(base),
        "index": rep.index,
        "slack_dist_sq": str(rep.slack_dist_sq),
        "rows": [
            {
                "radius": r.radius,
                "whole_count": r.whole_count,
                "subgroup_count_extended": r.subgroup_count_extended,
                "bound": r.bound,
                "verdict": flatgeo.verdict(r.ok),
            }
            for r in rep.rows
        ],
        "ok": rep.ok,
    }
    return payload, rep.ok, None


def _cmd_verify_dual(args) -> CommandResult:
    if args.space == "warped":
        radii = (
            _increasing(_float_list(args.radii)) if args.radii else list(warped.DEFAULT_DUAL_RADII)
        )
        rep = warped.verify_dual(radii, tol=args.tol, square=args.square_warp, spacing=args.grid)
        header = ["radius", "count_r", "count_2r", "volume", "lower_ok", "upper_ok"]
    else:
        deck, base = _space_args(args)
        radii = _increasing(_frac_list(args.radii)) if args.radii else [frac(v) for v in (1, 2, 4, 8, 16)]
        rep = flatgeo.verify_dual(
            deck, base, radii,
            samples=_min_samples(args.samples), seed=args.seed, word_variant=args.word_variant,
        )
        header = ["radius", "count_r", "count_2r", "volume", "sigma", "lower_ok", "upper_ok"]
    csv_rows = [[getattr(r, field) for field in header] for r in rep.rows]
    return {"command": "verify-dual", **rep.to_obj()}, rep.ok, (header, csv_rows)


def _cmd_thin_set(args) -> CommandResult:
    deck, base = _space_args(args)
    axis = flatgeo.soul_axis(deck)
    h = _frac(args.thickness)
    samples = _min_samples(args.samples)
    trend = flatgeo.thin_trend(
        deck, base, _increasing(_frac_list(args.radii)), h, axis, samples=samples, seed=args.seed
    )
    rows: List[Dict[str, Any]] = []
    csv_rows: List[List[Any]] = []
    for r, est, per in zip(trend.radii, trend.estimates, trend.ratios):
        rf = float(r)
        rows.append(flatgeo.schema_row(args.space, rf, "thin_volume", est.value, stderr=est.sigma))
        rows.append(
            flatgeo.schema_row(args.space, rf, "thin_volume_per_radius", per, stderr=est.sigma / rf)
        )
        csv_rows.append([str(r), est.value, est.sigma, per])
    payload: Dict[str, Any] = {
        "command": "thin-set",
        "space": args.space,
        "thickness": str(h),
        "samples": samples,
        "rows": rows,
    }
    if len(trend.radii) >= 2:
        payload["per_radius_strictly_decreasing"] = trend.decreasing
        payload["final_below_half_first"] = trend.halved
    payload["ok"] = trend.decreasing
    return payload, trend.decreasing, (["radius", "volume", "stderr", "per_radius"], csv_rows)


def _cmd_dirichlet(args) -> CommandResult:
    deck, base = _space_args(args)
    p = _parse_point(args.point)
    if p.dimension != deck.dimension:
        raise ValueError("point has the wrong dimension")
    q = flatgeo.dirichlet_query(deck, base, p)
    payload: Dict[str, Any] = {
        "command": "dirichlet",
        "space": args.space,
        "base": _point_json(base),
        "point": _point_json(p),
        "in_cell": q.in_cell,
        "nearest_dist_sq": str(q.dist_sq),
        "nearest_lifts": [_point_json(lift) for lift in q.lifts],
    }
    rep = q.extension
    if rep is None:
        payload["extension"] = None
    else:
        payload["extension"] = {
            "infinite": rep.infinite,
            "tie": rep.tie,
            "ray_scale": None if rep.ray_scale is None else str(rep.ray_scale),
            "extension_sq": None if rep.extension_sq is None else str(rep.extension_sq),
        }
        if args.within is not None:
            h = _frac(args.within)
            payload["within"] = {"h": str(h), "ok": rep.within(h)}
    return payload, True, None


def _classification_payload(c: flatgeo.Classification) -> Dict[str, Any]:
    return {
        "kind": c.kind,
        "base_dimension": c.base_dimension,
        "normal_direction": [str(x) for x in c.normal_direction],
        "reflecting_count": c.reflecting_count,
        "transformed_generators": [g.to_obj() for g in c.transformed_generators],
    }


def _cmd_classify(args) -> CommandResult:
    if bool(args.space) == bool(args.generators):
        raise ValueError("pass exactly one of --space or --generators")
    if args.space:
        gens = list(groups.builtin_deck_group(args.space).word_generators)
    else:
        objs = _load_json_arg(args.generators)
        gens = [Isometry.from_obj(o) for o in objs]
    if args.dim is not None and any(g.dimension != args.dim for g in gens):
        raise ValueError(f"generators do not act on dimension {args.dim}")
    try:
        c = flatgeo.classify_flat(gens)
    except CLASSIFY_ERRORS as e:
        payload = {
            "command": "classify",
            "error": type(e).__name__,
            "message": str(e),
            "kind": None,
        }
        return payload, False, None
    payload = {"command": "classify", **_classification_payload(c)}
    return payload, True, None


def _cmd_soul_dim(args) -> CommandResult:
    payload = {
        "command": "soul-dim",
        "space": args.space,
        "soul_dimension": flatgeo.soul_dimension(args.space),
    }
    return payload, True, None


def _cmd_snf(args) -> CommandResult:
    m = _load_json_arg(args.matrix)
    if not isinstance(m, list) or not m or not all(isinstance(r, list) for r in m):
        raise ValueError("matrix must be a JSON list of rows")
    cert = algebra.smith_certificate(m)
    payload = {
        "command": "snf",
        "diagonal": cert.diagonal,
        "U": cert.u,
        "V": cert.v,
        "identity_ok": cert.identity_ok,
        "unimodular": cert.unimodular,
    }
    return payload, cert.ok, None


def _cmd_rank(args) -> CommandResult:
    if args.presentation:
        if args.num_generators is not None or args.relations:
            raise ValueError("--presentation replaces --num-generators/--relations")
        obj = _load_json_arg(args.presentation)
        if not isinstance(obj, dict) or "num_generators" not in obj:
            raise ValueError('presentation JSON needs {"num_generators": n, "relations": [...]}')
        pres = algebra.AbelianPresentation(obj["num_generators"], obj.get("relations", []))
    elif args.num_generators is not None:
        relations = _load_json_arg(args.relations) if args.relations else []
        pres = algebra.AbelianPresentation(args.num_generators, relations)
    else:
        raise ValueError("pass --presentation or --num-generators")
    payload: Dict[str, Any] = {
        "command": "rank",
        "num_generators": pres.num_generators,
        "rank": algebra.abelian_rank(pres),
    }
    if pres.relations:
        payload["relation_diagonal"] = algebra.snf_diagonal(pres.relations)
    if args.elements:
        elements = _load_json_arg(args.elements)
        payload["independent"] = algebra.independence_check(elements, pres)
    return payload, True, None


def _cmd_injection_check(args) -> CommandResult:
    cap = groups.enumeration_cap() if args.cap is None else args.cap
    if args.kind == "hurewicz":
        images = groups.hurewicz_images(args.group)
        group = groups.builtin_generated_group(args.group)
        rep = algebra.hurewicz_ball_injection(group, images, args.radius, cap=cap)
        ok = rep.injective and rep.bound_holds
        payload = {
            "command": "injection-check",
            "kind": "hurewicz",
            "group": args.group,
            "radius": rep.radius,
            "abelian_count": rep.abelian_count,
            "group_count": rep.group_count,
            "injective": rep.injective,
            "bound_holds": rep.bound_holds,
            "ok": ok,
        }
        return payload, ok, None
    if args.group != "heisenberg":
        raise ValueError(f"the polycyclic check is bundled for heisenberg only, not {args.group!r}")
    rep = algebra.polycyclic_injection(
        HEISENBERG_IDENTITY, HEISENBERG_SERIES, args.box, cap=cap
    )
    payload = {
        "command": "injection-check",
        "kind": "polycyclic",
        "group": "heisenberg",
        "box": rep.box,
        "points": rep.points,
        "collisions": [list(map(list, c)) for c in rep.collisions],
        "injective": rep.injective,
        "ok": rep.injective,
    }
    return payload, rep.injective, None


def _cmd_warped_ratio(args) -> CommandResult:
    cs = _float_list(args.cs)
    radii = _increasing(_float_list(args.radii))
    rows = warped.falsifying_ratios(
        cs, radii, tol=args.tol, square=args.square_warp, spacing=args.grid
    )
    halving = warped.ratio_halving(rows, cs) if len(radii) >= 2 else []
    ok = all(h.halved for h in halving)
    payload = {
        "command": "warped-ratio",
        "rows": [
            {
                "c": r.scale_c,
                "radius": r.radius,
                "word_count": r.word_count,
                "volume": r.volume,
                "volume_rel": r.volume_rel,
                "ratio": r.ratio,
            }
            for r in rows
        ],
        "halving": [h._asdict() for h in halving],
        "ok": ok,
    }
    csv_rows = [[r.scale_c, r.radius, r.word_count, r.volume, r.ratio] for r in rows]
    return payload, ok, (["c", "radius", "word_count", "volume", "ratio"], csv_rows)


def _cmd_warped_distance(args) -> CommandResult:
    if args.k:
        if args.surface == "N":
            raise ValueError("translate distances live on the cover; drop --space N")
        ks = sorted(set(_int_list(args.k)))
        if ks[0] < 1:
            raise ValueError("k values must be positive")
        table = warped.deck_distances(
            ks[-1], tol=args.tol, square=args.square_warp, spacing=args.grid
        )
        rows = [
            {
                "k": k,
                "distance": table.values[k],
                "normalized": table.values[k] / math.sqrt(k),
                "reference": warped.DISTANCE_SLOPE,
            }
            for k in ks
        ]
        payload = {
            "command": "warped-distance",
            "rows": rows,
            "table_rel": table.rel_max,
        }
        csv_rows = [[r["k"], r["distance"], r["normalized"], r["reference"]] for r in rows]
        return payload, True, (["k", "distance", "normalized", "reference"], csv_rows)
    if not (args.start and args.end):
        raise ValueError("pass --k, or both --from and --to")
    start = tuple(_float_list(args.start))
    end = tuple(_float_list(args.end))
    if len(start) != 2 or len(end) != 2:
        raise ValueError("points on the surface have two coordinates: r,s")
    cert = warped.point_distance(
        start, end, tol=args.tol, square=args.square_warp,
        spacing=args.grid, periodic=args.surface == "N",
    )
    payload = {
        "command": "warped-distance",
        "space": args.surface,
        "start": list(start),
        "end": list(end),
        "distance": cert.value,
        "rel_diff": cert.rel_diff,
    }
    return payload, True, None


# ---------------------------------------------------------------------------
# the bundled verification suite


def _print_stage(entry: Dict[str, Any]) -> None:
    print(f"[{'PASS' if entry['ok'] else 'FAIL'}] {entry['name']}: {entry['detail']}", file=sys.stderr)


def _cmd_suite(args) -> CommandResult:
    report = suite.run_suite(args.quick, args.seed, args.samples, _print_stage)
    return {"command": "paper-suite", **report}, report["ok"], None


# ---------------------------------------------------------------------------
# parser and dispatch


def _grid_pair(text: str) -> Tuple[float, float]:
    vals = _float_list(text)
    if len(vals) != 2 or vals[0] <= 0 or vals[1] <= 0:
        raise argparse.ArgumentTypeError("grid resolution is 'dr,ds' with positive entries")
    return vals[0], vals[1]


SPACE_HELP = "one of " + ", ".join(SPACE_CHOICES) + " (Z^k also accepted)"
GRID_HELP = (
    "base resolution 'dr,ds'; a floor, since a radial window wider than 400 rows of dr "
    "is solved on 400 coarser rows"
)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a defaulted option (seed, samples, tol, cap) or name a key=value file; explicit flags win",
    )
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--timings", action="store_true", help="include wall-clock seconds in the output; "
                        "a process's first Monte Carlo or warped command also counts importing numpy and scipy")

    p = argparse.ArgumentParser(
        prog="orbitlab",
        description="Orbit growth, covering volumes, and flat quotient geometry.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("orbit-count", parents=[common], help="orbit points of a deck group per radius")
    sc.add_argument("--space", "--group", dest="space", required=True, type=_selector, help=SPACE_HELP)
    sc.add_argument("--base", "--point", dest="base", help="base point, e.g. '0,3/10'")
    sc.add_argument("--radii", default="1,2,4,8,16")
    sc.set_defaults(func=_cmd_orbit_count)

    sc = sub.add_parser("word-ball", parents=[common], help="cumulative word-ball sizes")
    sc.add_argument("--group", required=True, type=_selector,
                    help="a generated group, e.g. z2, Z^3, heisenberg, moebius2")
    sc.add_argument("--radius", type=int, required=True)
    sc.add_argument("--cap", type=int, default=None)
    sc.add_argument("--elements", action="store_true", help="include sorted canonical element encodings")
    sc.set_defaults(func=_cmd_word_ball)

    sc = sub.add_parser("growth-fit", parents=[common], help="power-law fit of orbit or word growth")
    sc.add_argument("--space", type=_selector, help=SPACE_HELP)
    sc.add_argument("--group", type=_selector, help="word growth of this generated group instead")
    sc.add_argument("--base")
    sc.add_argument("--radii", default="4,8,16,32,64")
    sc.set_defaults(func=_cmd_growth_fit)

    sc = sub.add_parser("milnor-check", parents=[common], help="word balls inside orbit balls, exactly")
    sc.add_argument("--space", required=True, type=_selector, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--radii", default="1,2,3,4,5,6,7,8")
    sc.add_argument("--cap", type=int, default=None)
    sc.set_defaults(func=_cmd_milnor)

    sc = sub.add_parser("index-check", parents=[common], help="finite-index orbit comparison")
    sc.add_argument("--space", required=True, type=_selector, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--subgroup", default="translations", choices=("translations",))
    sc.add_argument("--radii", default="1,2,4,8")
    sc.set_defaults(func=_cmd_index_check)

    sc = sub.add_parser("verify-dual", parents=[common], help="two-sided count/volume inequalities")
    sc.add_argument("--space", required=True, type=_selector, help=SPACE_HELP + ", or 'warped'")
    sc.add_argument("--base")
    sc.add_argument("--radii")
    sc.add_argument("--samples", type=int, default=200000)
    sc.add_argument("--seed", type=_seed, default=7)
    sc.add_argument("--word-variant", action="store_true", help="add word-count upper-bound rows")
    sc.add_argument("--tol", type=float, default=warped.DEFAULT_TOL)
    sc.add_argument("--square-warp", action="store_true")
    sc.add_argument("--grid", type=_grid_pair, default=None, help="warped " + GRID_HELP)
    sc.set_defaults(func=_cmd_verify_dual)

    sc = sub.add_parser("thin-set", parents=[common], help="volume of the ball near the core")
    sc.add_argument("--space", required=True, type=_selector, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--radii", "--radius", dest="radii", required=True)
    sc.add_argument("--thickness", "--h", dest="thickness", required=True)
    sc.add_argument("--samples", type=int, default=20000)
    sc.add_argument("--seed", type=_seed, default=7)
    sc.set_defaults(func=_cmd_thin_set)

    sc = sub.add_parser("dirichlet", parents=[common], help="cell membership and ray extension")
    sc.add_argument("--space", required=True, type=_selector, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--point", required=True)
    sc.add_argument("--within", help="also test extension <= this bound")
    sc.set_defaults(func=_cmd_dirichlet)

    sc = sub.add_parser("classify", parents=[common], help="product or twisted line bundle")
    sc.add_argument("--space", type=_selector, help=SPACE_HELP)
    sc.add_argument("--generators", help="JSON list of isometries, a file name, or @file")
    sc.add_argument("--dim", type=int, default=None, help="expected ambient dimension")
    sc.set_defaults(func=_cmd_classify)

    sc = sub.add_parser("soul-dim", parents=[common], help="dimension of the totally geodesic core")
    sc.add_argument("--space", required=True, type=_selector, help=SPACE_HELP)
    sc.set_defaults(func=_cmd_soul_dim)

    sc = sub.add_parser("snf", parents=[common], help="Smith normal form with transforms")
    sc.add_argument("--matrix", required=True, help="JSON rows, a file name, or @file")
    sc.set_defaults(func=_cmd_snf)

    sc = sub.add_parser("rank", parents=[common], help="free rank of a presented abelian group")
    sc.add_argument("--presentation", help='JSON {"num_generators": n, "relations": [...]}, or a file')
    sc.add_argument("--num-generators", type=int, default=None)
    sc.add_argument("--relations", help="JSON rows, a file name, or @file")
    sc.add_argument("--elements", help="JSON rows to test for independence")
    sc.set_defaults(func=_cmd_rank)

    sc = sub.add_parser("injection-check", parents=[common], help="abelianized or polycyclic section injectivity")
    sc.add_argument("--kind", default="polycyclic", choices=("hurewicz", "polycyclic"))
    sc.add_argument("--group", default="heisenberg", type=_selector,
                    help="heisenberg; for hurewicz also z1-z3, torus2 or cylinder2")
    sc.add_argument("--radius", type=int, default=4)
    sc.add_argument("--box", type=int, default=3)
    sc.add_argument("--cap", type=int, default=None)
    sc.set_defaults(func=_cmd_injection_check)

    sc = sub.add_parser("warped-ratio", parents=[common], help="word-count volume ratios on the warped surface")
    sc.add_argument("--cs", "--c", dest="cs", default="1,2,4")
    sc.add_argument("--radii", default="8,64")
    sc.add_argument("--tol", type=float, default=warped.DEFAULT_TOL)
    sc.add_argument("--square-warp", action="store_true")
    sc.add_argument("--grid", type=_grid_pair, default=None, help=GRID_HELP)
    sc.set_defaults(func=_cmd_warped_ratio)

    sc = sub.add_parser("warped-distance", parents=[common], help="certified distances on the warped surface")
    sc.add_argument("--k", help="comma list of translate indices")
    sc.add_argument("--start", "--from", dest="start", help="point 'r,s'")
    sc.add_argument("--end", "--to", dest="end", help="point 'r,s'")
    sc.add_argument(
        "--space", dest="surface", choices=("N", "cover"), default="cover",
        help="compact surface N (s wraps mod 2*pi) or the universal cover",
    )
    sc.add_argument("--tol", type=float, default=warped.DEFAULT_TOL)
    sc.add_argument("--square-warp", action="store_true")
    sc.add_argument("--grid", type=_grid_pair, default=None, help=GRID_HELP)
    sc.set_defaults(func=_cmd_warped_distance)

    sc = sub.add_parser("paper-suite", parents=[common], help="run the bundled verification stages")
    sc.add_argument("--quick", action="store_true", help="small parameters, under a minute")
    sc.add_argument("--seed", type=_seed, default=7)
    sc.add_argument("--samples", type=int, default=None)
    sc.set_defaults(func=_cmd_suite)

    return p


def _config_pairs(items: Sequence[str]) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            # a bare token names a key=value defaults file
            with open(item, "r", encoding="utf-8") as fh:
                lines = [ln.split("#", 1)[0].strip() for ln in fh]
            pairs.update(_config_pairs([ln for ln in lines if ln]))
            continue
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _flagged(argv: Sequence[str], options: Dict[str, argparse.Action]) -> Set[str]:
    """Destinations of the options argv sets, by any spelling or, as argparse
    allows, an unambiguous prefix of a long one (``--sam=5`` for ``--samples``)."""
    spellings = {f: a.dest for a in options.values() for f in a.option_strings}
    out = set()
    for tok in argv:
        name = tok.partition("=")[0]
        if name in spellings:
            out.add(spellings[name])
        elif name.startswith("--"):
            dests = {d for f, d in spellings.items() if f.startswith(name)}
            if len(dests) == 1:
                out |= dests
    return out


def _apply_config(args, argv: Sequence[str]) -> None:
    options = _options(args.command)
    flagged = _flagged(argv, options)
    for key, raw in _config_pairs(args.config).items():
        action = options.get(key)
        if action is None or not hasattr(args, key):
            if key in GLOBAL_CONFIG_KEYS:
                continue
            raise ValueError(f"config key {key!r} does not apply to this command")
        # an explicit flag, in any of its spellings, beats the config
        if key in flagged:
            continue
        if isinstance(getattr(args, key), bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes", "on"))
            continue
        # the checks the flag would get, also where the default is None
        try:
            value = (action.type or str)(raw)
        except argparse.ArgumentTypeError as e:
            raise ValueError(f"config {key}={raw}: {e}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config {key}={raw}: choose from {', '.join(map(str, action.choices))}")
        setattr(args, key, value)


def _options(command: str) -> Dict[str, argparse.Action]:
    """The argparse action of each option of ``command``, by destination."""
    subparsers = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subparsers.choices[command]._actions}


def _emit(payload: Dict[str, Any], args, csv_data) -> None:
    if args.format == "csv":
        if csv_data is None:
            raise ValueError(f"{payload.get('command')} has no CSV projection")
        header, rows = csv_data
        _print("\n".join([",".join(header)] + [",".join(str(x) for x in row) for row in rows]))
        return
    _print(json.dumps(payload, indent=2))


def _emit_error(e: BaseException, args) -> None:
    """A structured error object on stdout, a human line on stderr."""
    obj = {"error": type(e).__name__, "message": str(e)}
    if getattr(args, "format", "json") == "json":
        _print(json.dumps(obj, indent=2))
    print(f"orbitlab: {obj['error']}: {obj['message']}", file=sys.stderr)


def _print(text: str) -> None:  # to stdout, or devnull once its reader has gone (| head)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built by `build_parser` on first use.

    Parsing keeps no state in the parser: each call fills a fresh
    namespace, and ``--config`` appends to a copy of its default list.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        _apply_config(args, argv)
        payload, ok, csv_data = args.func(args)
        if args.timings:
            payload["elapsed_seconds"] = round(time.perf_counter() - start, 3)
        _emit(payload, args, csv_data)
    except RESOURCE_ERRORS as e:
        _emit_error(e, args)
        return 3
    except USAGE_ERRORS as e:
        _emit_error(e, args)
        return 2
    return 0 if ok else 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
