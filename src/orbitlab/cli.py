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
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import algebra, flatgeo, groups, orbit, warped
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
from .groups import HEISENBERG_IDENTITY, HeisenbergElement

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

SPACE_CHOICES = ("torus2", "cylinder2", "moebius2", "klein2", "moebiusxT", "z1", "z2", "z3")
GLOBAL_CONFIG_KEYS = {"seed", "samples", "tol", "cap"}

CommandResult = Tuple[Dict[str, Any], bool, Optional[Tuple[List[str], List[List[Any]]]]]


def _frac_list(text: str) -> List[Fraction]:
    vals = [frac(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("expected a comma-separated list of numbers")
    return vals


def _int_list(text: str) -> List[int]:
    return [int(tok.strip()) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> List[float]:
    return [float(tok.strip()) for tok in text.split(",") if tok.strip()]


def _increasing(radii: Sequence) -> List:
    vals = list(radii)
    if not vals or vals[0] <= 0 or any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("radii must be positive and strictly increasing")
    return vals


def _parse_point(text: str) -> Point:
    return Point(tuple(frac(tok.strip()) for tok in text.split(",") if tok.strip()))


def _point_json(p: Point) -> List[str]:
    return [str(c) for c in p]


def _load_json_arg(text: str):
    """JSON from an inline literal, an @-prefixed path, or a bare file name."""
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


def _selector(name: str) -> str:
    """Normalize a space/group name: Z^k and z^k mean the lattice zk."""
    low = name.strip().lower()
    if low.startswith("z^") and low[2:].isdigit():
        return "z" + low[2:]
    return name.strip()


def _deck(name: str) -> groups.DeckGroup:
    if name in ("z1", "z2", "z3"):
        return groups.zk_deck(int(name[1]))
    return groups.builtin_deck_group(name)


def _element_json(g) -> Any:
    if isinstance(g, HeisenbergElement):
        return [g.a, g.b, g.c]
    return g.to_obj()


def _min_samples(samples: int) -> int:
    if samples < 1000:
        raise InsufficientSamples("Monte-Carlo subcommands need at least 1000 samples")
    return samples


def _base_point(args, deck: groups.DeckGroup) -> Point:
    if getattr(args, "base", None):
        p = _parse_point(args.base)
        if p.dimension != deck.dimension:
            raise ValueError("base point has the wrong dimension")
        return p
    default = flatgeo.BASE_POINTS.get(args.space)
    if default is not None:
        return default
    return Point(tuple(Fraction(0) for _ in range(deck.dimension)))


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_orbit_count(args) -> CommandResult:
    args.space = _selector(args.space)
    deck = _deck(args.space)
    base = _base_point(args, deck)
    radii = _increasing(_frac_list(args.radii))
    rows = []
    counts: List[int] = []
    floats: List[float] = []
    for r in radii:
        counts.append(orbit.orbit_ball_count(deck, base, r))
        floats.append(float(r))
        expo = None
        if len(counts) >= 3 and all(c > 0 for c in counts):
            expo = orbit.fit_power_law(floats, counts)[0]
        rows.append({"radius": str(r), "count": counts[-1], "exponent_so_far": expo})
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
    args.group = _selector(args.group)
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
        args.space = _selector(args.space)
        deck = _deck(args.space)
        base = _base_point(args, deck)
        series = orbit.orbit_growth(deck, base, _increasing(_frac_list(args.radii)))
        label = args.space
        kind = "orbit"
    else:
        args.group = _selector(args.group)
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
    args.space = _selector(args.space)
    deck = _deck(args.space)
    base = _base_point(args, deck)
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
                "verdict": "holds" if r.ok else "fails",
            }
            for r in rep.rows
        ],
        "pointwise_failures": [list(p) for p in rep.pointwise_failures],
        "ok": rep.ok,
    }
    return payload, rep.ok, None


def _cmd_index_check(args) -> CommandResult:
    args.space = _selector(args.space)
    deck = _deck(args.space)
    base = _base_point(args, deck)
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
                "verdict": "holds" if r.ok else "fails",
            }
            for r in rep.rows
        ],
        "ok": rep.ok,
    }
    return payload, rep.ok, None


def _schema_row(space: str, radius: float, quantity: str, value, stderr=None, verdict=None):
    return {
        "space": space,
        "radius": radius,
        "quantity": quantity,
        "value": value,
        "stderr": stderr,
        "verdict": verdict,
    }


def _dual_payload(rep: flatgeo.DualReport) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    for r in rep.rows:
        rows.append(_schema_row(rep.space, r.radius, "count_r", r.count_r))
        rows.append(_schema_row(rep.space, r.radius, "count_2r", r.count_2r))
        rows.append(_schema_row(rep.space, r.radius, "ball_volume", r.volume, stderr=r.sigma))
        rows.append(
            _schema_row(
                rep.space, r.radius, "lower_margin", r.lower_lhs - r.lower_rhs,
                verdict="holds" if r.lower_ok else "fails",
            )
        )
        rows.append(
            _schema_row(
                rep.space, r.radius, "upper_margin", r.upper_rhs - r.upper_lhs,
                verdict="holds" if r.upper_ok else "fails",
            )
        )
    word_rows = [
        _schema_row(
            rep.space, w.radius, "word_upper_margin", w.rhs - w.lhs, stderr=w.sigma,
            verdict="holds" if w.ok else "fails",
        )
        for w in rep.word_rows
    ]
    out: Dict[str, Any] = {"space": rep.space, "dimension": rep.dimension, "rows": rows}
    if word_rows:
        out["word_rows"] = word_rows
    out["ok"] = rep.ok
    return out


def _cmd_verify_dual(args) -> CommandResult:
    args.space = _selector(args.space)
    if args.space == "warped":
        radii = (
            _increasing(_float_list(args.radii)) if args.radii else list(warped.DEFAULT_DUAL_RADII)
        )
        rep = warped.verify_dual(radii, tol=args.tol, square=args.square_warp, spacing=args.grid)
        rows: List[Dict[str, Any]] = []
        for r in rep.rows:
            rows.append(_schema_row("warped", r.radius, "count_r", r.count_r))
            rows.append(_schema_row("warped", r.radius, "count_2r", r.count_2r))
            rows.append(_schema_row("warped", r.radius, "ball_volume", r.volume))
            rows.append(_schema_row("warped", r.radius, "volume_certified_rel", r.volume_rel))
            rows.append(
                _schema_row(
                    "warped", r.radius, "lower_margin", r.lower_lhs - r.lower_rhs,
                    verdict="holds" if r.lower_ok else "fails",
                )
            )
            rows.append(
                _schema_row(
                    "warped", r.radius, "upper_margin", r.upper_rhs - r.upper_lhs,
                    verdict="holds" if r.upper_ok else "fails",
                )
            )
        payload = {
            "command": "verify-dual",
            "space": "warped",
            "table_rel": rep.table_rel,
            "rows": rows,
            "ok": rep.ok,
        }
        csv_rows = [
            [r.radius, r.count_r, r.count_2r, r.volume, r.lower_ok, r.upper_ok] for r in rep.rows
        ]
        return payload, rep.ok, (["radius", "count_r", "count_2r", "volume", "lower_ok", "upper_ok"], csv_rows)
    deck = _deck(args.space)
    base = _base_point(args, deck)
    radii = _increasing(_frac_list(args.radii)) if args.radii else [frac(v) for v in (1, 2, 4, 8, 16)]
    rep = flatgeo.verify_dual(
        deck, base, radii,
        samples=_min_samples(args.samples), seed=args.seed, word_variant=args.word_variant,
    )
    payload = {"command": "verify-dual", **_dual_payload(rep)}
    csv_rows = [
        [r.radius, r.count_r, r.count_2r, r.volume, r.sigma, r.lower_ok, r.upper_ok]
        for r in rep.rows
    ]
    return payload, rep.ok, (
        ["radius", "count_r", "count_2r", "volume", "sigma", "lower_ok", "upper_ok"],
        csv_rows,
    )


def _cmd_thin_set(args) -> CommandResult:
    args.space = _selector(args.space)
    deck = _deck(args.space)
    base = _base_point(args, deck)
    if args.space not in flatgeo.SOUL_AXES:
        raise ValueError(f"no bundled core geometry for {args.space!r}")
    axis = flatgeo.SOUL_AXES[args.space]
    radii = _increasing(_frac_list(args.radii))
    h = frac(args.thickness)
    samples = _min_samples(args.samples)
    rows: List[Dict[str, Any]] = []
    ratios: List[float] = []
    csv_rows: List[List[Any]] = []
    for i, r in enumerate(radii):
        est = flatgeo.thin_set_volume(
            deck, base, r, h, axis, samples=samples, seed=[args.seed, i]
        )
        per = est.value / float(r)
        ratios.append(per)
        rf = float(r)
        rows.append(_schema_row(args.space, rf, "thin_volume", est.value, stderr=est.sigma))
        rows.append(
            _schema_row(args.space, rf, "thin_volume_per_radius", per, stderr=est.sigma / rf)
        )
        csv_rows.append([str(r), est.value, est.sigma, per])
    payload: Dict[str, Any] = {
        "command": "thin-set",
        "space": args.space,
        "thickness": str(h),
        "samples": samples,
        "rows": rows,
    }
    ok = True
    if len(ratios) >= 2:
        decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
        payload["per_radius_strictly_decreasing"] = decreasing
        payload["final_below_half_first"] = ratios[-1] < ratios[0] / 2.0
        ok = decreasing
    payload["ok"] = ok
    return payload, ok, (["radius", "volume", "stderr", "per_radius"], csv_rows)


def _cmd_dirichlet(args) -> CommandResult:
    args.space = _selector(args.space)
    deck = _deck(args.space)
    base = _base_point(args, deck)
    p = _parse_point(args.point)
    if p.dimension != deck.dimension:
        raise ValueError("point has the wrong dimension")
    member = flatgeo.dirichlet_contains(deck, base, p)
    d2, lifts = flatgeo.nearest_lifts(deck, base, p)
    payload: Dict[str, Any] = {
        "command": "dirichlet",
        "space": args.space,
        "base": _point_json(base),
        "point": _point_json(p),
        "in_cell": member,
        "nearest_dist_sq": str(d2),
        "nearest_lifts": [_point_json(q) for q in lifts],
    }
    if d2 == 0:
        payload["extension"] = None
    else:
        rep = flatgeo.ray_extension(deck, base, p)
        payload["extension"] = {
            "infinite": rep.infinite,
            "tie": rep.tie,
            "ray_scale": None if rep.ray_scale is None else str(rep.ray_scale),
            "extension_sq": None if rep.extension_sq is None else str(rep.extension_sq),
        }
        if args.within is not None:
            payload["within"] = {
                "h": str(frac(args.within)),
                "ok": flatgeo.extension_at_most(deck, base, p, frac(args.within)),
            }
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
        args.space = _selector(args.space)
        deck = _deck(args.space)
        gens = list(deck.word_generators)
        if not gens:
            raise ValueError("this space has no bundled generating set")
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
    u, d, v = algebra.smith_normal_form(m)
    ints = [[int(x) for x in row] for row in m]
    identity_ok = algebra.int_mat_mul(algebra.int_mat_mul(u, ints), v) == d
    unimodular = abs(algebra.int_determinant(u)) == 1 and abs(algebra.int_determinant(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    payload = {
        "command": "snf",
        "diagonal": diag,
        "U": u,
        "V": v,
        "identity_ok": identity_ok,
        "unimodular": unimodular,
    }
    return payload, identity_ok and unimodular, None


def _cmd_rank(args) -> CommandResult:
    if args.presentation:
        if args.num_generators is not None or args.relations:
            raise ValueError("--presentation replaces --num-generators/--relations")
        obj = _load_json_arg(args.presentation)
        if not isinstance(obj, dict) or "num_generators" not in obj:
            raise ValueError('presentation JSON needs {"num_generators": n, "relations": [...]}')
        num_generators = int(obj["num_generators"])
        relations = obj.get("relations", [])
    elif args.num_generators is not None:
        num_generators = args.num_generators
        relations = _load_json_arg(args.relations) if args.relations else []
    else:
        raise ValueError("pass --presentation or --num-generators")
    pres = algebra.AbelianPresentation(num_generators, relations)
    payload: Dict[str, Any] = {
        "command": "rank",
        "num_generators": num_generators,
        "rank": algebra.abelian_rank(pres),
    }
    if relations:
        payload["relation_diagonal"] = algebra.snf_diagonal([list(r) for r in relations])
    if args.elements:
        elements = _load_json_arg(args.elements)
        payload["independent"] = algebra.independence_check(elements, pres)
    return payload, True, None


def _hurewicz_setup(name: str):
    if name == "heisenberg":
        group = groups.heisenberg_group()
        images = [
            (HeisenbergElement(1, 0, 0), (1, 0)),
            (HeisenbergElement(0, 1, 0), (0, 1)),
        ]
        return group, images
    if name in ("z1", "z2", "z3"):
        k = int(name[1])
        group = groups.zk_group(k)
        images = []
        for i in range(k):
            shift = [0] * k
            shift[i] = 1
            images.append((Isometry.translation_by(shift), tuple(shift)))
        return group, images
    raise ValueError(f"no bundled abelianization data for {name!r}")


def _cmd_injection_check(args) -> CommandResult:
    args.group = _selector(args.group)
    if args.kind == "hurewicz":
        group, images = _hurewicz_setup(args.group)
        rep = algebra.hurewicz_ball_injection(group, images, args.radius, cap=args.cap or 10_000_000)
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
    series = [
        HeisenbergElement(1, 0, 0),
        HeisenbergElement(0, 1, 0),
        HeisenbergElement(0, 0, 1),
    ]
    rep = algebra.polycyclic_injection(
        HEISENBERG_IDENTITY, series, args.box, cap=args.cap or 10_000_000
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
    halving = []
    ok = True
    if len(radii) >= 2:
        for c in cs:
            mine = [r for r in rows if r.scale_c == c]
            first = next(r for r in mine if r.radius == radii[0])
            last = next(r for r in mine if r.radius == radii[-1])
            good = last.ratio < first.ratio / 2.0
            halving.append({"c": c, "first": first.ratio, "last": last.ratio, "halved": good})
            ok = ok and good
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
        "halving": halving,
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
        ref = 4.0 * math.sqrt(math.pi)
        rows = [
            {
                "k": k,
                "distance": table.values[k],
                "normalized": table.values[k] / math.sqrt(k),
                "reference": ref,
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


def _stage_orbit_oracle(quick: bool, seed: int, samples: int):
    rmax = 12 if quick else 50
    deck = groups.zk_deck(2)
    base = Point.of(0, 0)
    hits = deck.enumerate_orbit(base, rmax * rmax)
    buckets = [0] * (rmax + 1)
    for h in hits:
        d2 = int(h.dist_sq)
        k = math.isqrt(d2)
        if k * k < d2:
            k += 1
        buckets[k] += 1
    counts = []
    total = 0
    for b in buckets:
        total += b
        counts.append(total)
    mismatches = []
    for r in range(1, rmax + 1):
        direct = 0
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                if a * a + b * b <= r * r:
                    direct += 1
        if direct != counts[r]:
            mismatches.append(r)
    ok = not mismatches
    detail = f"z2 orbit counts equal the direct double-loop count for radii 1..{rmax}"
    if mismatches:
        detail = f"mismatch at radii {mismatches}"
    return ok, detail, {"max_radius": rmax, "count_at_max": counts[rmax]}


def _stage_milnor(quick: bool, seed: int, samples: int):
    names = ["z2", "moebius2"] if quick else ["z2", "z3", "moebius2", "klein2"]
    rmax = 6 if quick else 20
    radii = list(range(1, rmax + 1))
    bad = []
    for name in names:
        deck = _deck(name)
        base = flatgeo.BASE_POINTS.get(name) or Point(tuple(Fraction(0) for _ in range(deck.dimension)))
        rep = orbit.milnor_check(deck, base, radii)
        if not rep.ok:
            bad.append(name)
    ok = not bad
    detail = (
        f"word balls sat inside orbit balls for {', '.join(names)} at radii 1..{rmax}"
        if ok
        else f"violations in {', '.join(bad)}"
    )
    return ok, detail, {"spaces": names, "max_radius": rmax}


def _stage_dual_flat(quick: bool, seed: int, samples: int):
    names = ["torus2", "cylinder2"] if quick else list(SPACE_CHOICES[:5])
    radii = [1, 2] if quick else [1, 2, 4, 8, 16]
    bad = []
    for i, name in enumerate(names):
        deck = _deck(name)
        base = flatgeo.BASE_POINTS[name]
        rep = flatgeo.verify_dual(deck, base, radii, samples=samples, seed=seed * 100 + i)
        if not rep.ok:
            bad.append(name)
    cyl = _deck("cylinder2")
    est = flatgeo.ball_volume(cyl, flatgeo.BASE_POINTS["cylinder2"], 1, samples=samples, seed=[seed, 999])
    ref = flatgeo.reference_ball_volume("cylinder2", 1.0)
    ref_ok = abs(est.value - ref) <= 3.0 * est.sigma
    ok = not bad and ref_ok
    parts = []
    if bad:
        parts.append(f"dual failed on {', '.join(bad)}")
    if not ref_ok:
        parts.append("cylinder volume missed its closed form")
    detail = (
        f"both inequalities held on {', '.join(names)}; cylinder B_1 matched sqrt(3)/2 + pi/3"
        if ok
        else "; ".join(parts)
    )
    return ok, detail, {"spaces": names, "radii": radii, "cylinder_ref": ref, "cylinder_est": est.value}


def _stage_index(quick: bool, seed: int, samples: int):
    radii = [1, 2] if quick else [1, 2, 4, 8]
    results = {}
    ok = True
    for name in ("klein2", "moebius2"):
        deck = _deck(name)
        sub = orbit.translation_subgroup(deck)
        rep = orbit.finite_index_comparison(deck, sub, flatgeo.BASE_POINTS[name], radii)
        results[name] = {"index": rep.index, "slack_sq": str(rep.slack_dist_sq), "ok": rep.ok}
        ok = ok and rep.ok
    detail = (
        f"index-{results['klein2']['index']} comparisons held on klein2 and moebius2 at radii {radii}"
        if ok
        else "an index comparison failed"
    )
    return ok, detail, results


def _stage_thin(quick: bool, seed: int, samples: int):
    deck = _deck("cylinder2")
    base = flatgeo.BASE_POINTS["cylinder2"]
    radii = [4, 16] if quick else [4, 8, 16, 32]
    n = 8000 if quick else 20000
    ratios = []
    for i, r in enumerate(radii):
        est = flatgeo.thin_set_volume(deck, base, r, 1, 0, samples=n, seed=[seed, i])
        ratios.append(est.value / r)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    halved = True if quick else ratios[-1] < ratios[0] / 2.0
    rng = random.Random(seed)
    trials = 10 if quick else 100
    closed_form_ok = True
    for _ in range(trials):
        t = Fraction(rng.randint(-256, 256), 64)
        s = Fraction(rng.randint(1, 31), 64)
        rep = flatgeo.ray_extension(deck, base, Point.of(t, s))
        scale = Fraction(1) / (2 * s)
        ext_sq = (scale - 1) * (scale - 1) * (t * t + s * s)
        if rep.ray_scale != scale or rep.extension_sq != ext_sq:
            closed_form_ok = False
            break
    ok = decreasing and halved and closed_form_ok
    parts = []
    if not decreasing:
        parts.append("thin-part ratio failed to decrease")
    if not halved:
        parts.append("final ratio above half the first")
    if not closed_form_ok:
        parts.append("an extension disagreed with the closed form")
    detail = (
        f"thin-part ratio fell monotonically over radii {radii}; {trials} ray extensions matched exactly"
        if ok
        else "; ".join(parts)
    )
    return ok, detail, {"ratios": ratios}


def _stage_growth(quick: bool, seed: int, samples: int):
    if quick:
        specs = [("cylinder2", 1), ("torus2", 2)]
        radii = [4, 8, 16]
        tol = 0.25
    else:
        specs = [("cylinder2", 1), ("moebius2", 1), ("torus2", 2), ("moebiusxT", 2)]
        radii = [4, 8, 16, 32, 64]
        tol = 0.15
    exps = {}
    ok = True
    for name, dim in specs:
        deck = _deck(name)
        series = orbit.orbit_growth(deck, flatgeo.BASE_POINTS[name], radii)
        exps[name] = series.fitted_exponent
        ok = ok and abs(series.fitted_exponent - dim) <= tol
    listing = ", ".join(f"{k}={v:.3f}" for k, v in exps.items())
    detail = (
        f"fitted exponents matched soul dimensions within {tol}: {listing}"
        if ok
        else f"an exponent strayed past {tol}: {listing}"
    )
    return ok, detail, {"exponents": {k: v for k, v in exps.items()}}


def _canonical_classify_inputs():
    cyl = [Isometry.translation_by((0, 1))]
    moe = [groups.moebius2_deck().coset_reps[1]]
    refl = [
        Isometry([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (1, 0, 0)),
        Isometry([[1, 0, 0], [0, 1, 0], [0, 0, -1]], (0, 1, 0)),
    ]
    return [("cylinder", cyl, "product"), ("moebius-band", moe, "moebius"), ("two-reflection", refl, "moebius")]


def _stage_classify(quick: bool, seed: int, samples: int):
    cases = _canonical_classify_inputs()
    verdicts = {}
    ok = True
    for label, gens, expected in cases:
        c = flatgeo.classify_flat(gens)
        verdicts[label] = c.kind
        ok = ok and c.kind == expected
        if expected == "moebius":
            ok = ok and c.reflecting_count == 1
    rng = random.Random(seed)
    trials = 3 if quick else 20
    invariant = True
    for _ in range(trials):
        for label, gens, expected in cases:
            n = gens[0].dimension
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            shift = [Fraction(rng.randint(-32, 32), 4) for _ in range(n)]
            conj = Isometry(rows, shift)
            moved = [conj * g * conj.inverse() for g in gens]
            if flatgeo.classify_flat(moved).kind != expected:
                invariant = False
    ok = ok and invariant
    detail = (
        f"three canonical inputs classified correctly; {trials} conjugation trials left verdicts unchanged"
        if ok
        else "classification missed a case or moved under conjugation"
    )
    return ok, detail, {"verdicts": verdicts}


def _stage_warped(quick: bool, seed: int, samples: int):
    if quick:
        rows = warped.falsifying_ratios([1.0], [4.0, 16.0])
        ok = rows[1].ratio < rows[0].ratio
        detail = (
            f"word-count ratio fell from {rows[0].ratio:.3f} at r=4 to {rows[1].ratio:.3f} at r=16"
            if ok
            else "word-count ratio failed to decrease"
        )
        return ok, detail, {"ratios": [rows[0].ratio, rows[1].ratio]}
    rows = warped.falsifying_ratios([1.0, 2.0, 4.0], [8.0, 64.0])
    halved = True
    for c in (1.0, 2.0, 4.0):
        first = next(r for r in rows if r.scale_c == c and r.radius == 8.0)
        last = next(r for r in rows if r.scale_c == c and r.radius == 64.0)
        halved = halved and last.ratio < first.ratio / 2.0
    dual = warped.verify_dual()
    table = warped.deck_distances(32)
    ref = 4.0 * math.sqrt(math.pi)
    norm_ok = all(
        abs(table.values[k] / math.sqrt(k) - ref) <= 0.1 * ref for k in (16, 32)
    )
    ok = halved and dual.ok and norm_ok
    parts = []
    if not halved:
        parts.append("a ratio failed to halve between r=8 and r=64")
    if not dual.ok:
        parts.append("a dual inequality failed")
    if not norm_ok:
        parts.append("d(k)/sqrt(k) strayed from 4*sqrt(pi)")
    detail = (
        "ratios halved for c in {1,2,4}; dual inequalities held; d(k) tracked 4*sqrt(pi*k)"
        if ok
        else "; ".join(parts)
    )
    return ok, detail, {
        "ratios": [{"c": r.scale_c, "radius": r.radius, "ratio": r.ratio} for r in rows],
        "dual_ok": dual.ok,
        "normalized": {str(k): table.values[k] / math.sqrt(k) for k in (16, 32)},
    }


def _stage_algebra(quick: bool, seed: int, samples: int):
    rng = random.Random(seed)
    count = 25 if quick else 200
    size = 5 if quick else 8
    snf_ok = True
    for _ in range(count):
        nrow = rng.randint(1, size)
        ncol = rng.randint(1, size)
        m = [[rng.randint(-50, 50) for _ in range(ncol)] for _ in range(nrow)]
        u, d, v = algebra.smith_normal_form(m)
        if algebra.int_mat_mul(algebra.int_mat_mul(u, m), v) != d:
            snf_ok = False
            break
        diag = [d[i][i] for i in range(min(nrow, ncol))]
        if any(x < 0 for x in diag):
            snf_ok = False
            break
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b % a != 0:
                snf_ok = False
        if abs(algebra.int_determinant(u)) != 1 or abs(algebra.int_determinant(v)) != 1:
            snf_ok = False
            break
    heis = groups.heisenberg_group()
    rmax = 4 if quick else 8
    counts = groups.word_ball_counts(heis, rmax)
    bound_ok = all(counts[r] >= 2 * r * r + 2 * r + 1 for r in range(1, rmax + 1))
    exp_ok = True
    if not quick:
        series = orbit.word_growth(heis, [4, 6, 8, 10, 12])
        exp_ok = 3.5 <= series.fitted_exponent <= 4.5
    box = 2 if quick else 3
    series_elems = [
        HeisenbergElement(1, 0, 0),
        HeisenbergElement(0, 1, 0),
        HeisenbergElement(0, 0, 1),
    ]
    poly = algebra.polycyclic_injection(HEISENBERG_IDENTITY, series_elems, box)
    ok = snf_ok and bound_ok and exp_ok and poly.injective
    parts = []
    if not snf_ok:
        parts.append("a normal-form identity failed")
    if not bound_ok:
        parts.append("a word ball fell below its abelianized size")
    if not exp_ok:
        parts.append("the word growth exponent left [3.5, 4.5]")
    if not poly.injective:
        parts.append("polycyclic evaluation collided")
    detail = (
        f"{count} normal forms verified; word balls dominated 2r^2+2r+1 up to r={rmax}; "
        f"box {box} evaluation stayed injective"
        if ok
        else "; ".join(parts)
    )
    return ok, detail, {"snf_matrices": count, "heisenberg_counts": counts}


def _stage_determinism(quick: bool, seed: int, samples: int):
    deck = _deck("torus2")
    base = flatgeo.BASE_POINTS["torus2"]
    n = min(samples, 20000)

    def run() -> str:
        rep = flatgeo.verify_dual(deck, base, [1, 2], samples=n, seed=seed)
        return json.dumps(_dual_payload(rep), indent=2)

    first = run()
    second = run()
    ok = first == second
    detail = (
        "two identically seeded runs serialized to identical bytes"
        if ok
        else "repeated runs diverged"
    )
    return ok, detail, {"bytes": len(first)}


SUITE_STAGES = [
    ("orbit-oracle", _stage_orbit_oracle),
    ("milnor", _stage_milnor),
    ("dual-flat", _stage_dual_flat),
    ("index-lemma", _stage_index),
    ("thin-and-extension", _stage_thin),
    ("growth-exponents", _stage_growth),
    ("classify", _stage_classify),
    ("warped", _stage_warped),
    ("algebra", _stage_algebra),
    ("determinism", _stage_determinism),
]


def _cmd_suite(args) -> CommandResult:
    quick = args.quick
    samples = args.samples if args.samples is not None else (20000 if quick else 200000)
    stages = []
    passed = 0
    for name, fn in SUITE_STAGES:
        try:
            ok, detail, data = fn(quick, args.seed, samples)
        except Exception as e:  # a failing stage must not stop the suite
            ok, detail, data = False, f"{type(e).__name__}: {e}", {}
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", file=sys.stderr)
        entry: Dict[str, Any] = {"name": name, "ok": ok, "detail": detail}
        if data:
            entry["data"] = data
        stages.append(entry)
        passed += 1 if ok else 0
    payload = {
        "command": "paper-suite",
        "quick": quick,
        "seed": args.seed,
        "samples": samples,
        "stages": stages,
        "passed": passed,
        "failed": len(stages) - passed,
        "ok": passed == len(stages),
    }
    return payload, passed == len(stages), None


# ---------------------------------------------------------------------------
# parser and dispatch


def _grid_pair(text: str) -> Tuple[float, float]:
    vals = _float_list(text)
    if len(vals) != 2 or vals[0] <= 0 or vals[1] <= 0:
        raise argparse.ArgumentTypeError("grid resolution is 'dr,ds' with positive entries")
    return vals[0], vals[1]


SPACE_HELP = "one of " + ", ".join(SPACE_CHOICES) + " (Z^k also accepted)"


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
    common.add_argument("--timings", action="store_true", help="include wall-clock seconds in the output")

    p = argparse.ArgumentParser(
        prog="orbitlab",
        description="Orbit growth, covering volumes, and flat quotient geometry.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("orbit-count", parents=[common], help="orbit points of a deck group per radius")
    sc.add_argument("--space", "--group", dest="space", required=True, help=SPACE_HELP)
    sc.add_argument("--base", "--point", dest="base", help="base point, e.g. '0,3/10'")
    sc.add_argument("--radii", default="1,2,4,8,16")
    sc.set_defaults(func=_cmd_orbit_count)

    sc = sub.add_parser("word-ball", parents=[common], help="cumulative word-ball sizes")
    sc.add_argument("--group", required=True, help="a generated group, e.g. z2, Z^3, heisenberg, moebius2")
    sc.add_argument("--radius", type=int, required=True)
    sc.add_argument("--cap", type=int, default=None)
    sc.add_argument("--elements", action="store_true", help="include sorted canonical element encodings")
    sc.set_defaults(func=_cmd_word_ball)

    sc = sub.add_parser("growth-fit", parents=[common], help="power-law fit of orbit or word growth")
    sc.add_argument("--space", help=SPACE_HELP)
    sc.add_argument("--group", help="word growth of this generated group instead")
    sc.add_argument("--base")
    sc.add_argument("--radii", default="4,8,16,32,64")
    sc.set_defaults(func=_cmd_growth_fit)

    sc = sub.add_parser("milnor-check", parents=[common], help="word balls inside orbit balls, exactly")
    sc.add_argument("--space", required=True, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--radii", default="1,2,3,4,5,6,7,8")
    sc.add_argument("--cap", type=int, default=None)
    sc.set_defaults(func=_cmd_milnor)

    sc = sub.add_parser("index-check", parents=[common], help="finite-index orbit comparison")
    sc.add_argument("--space", required=True, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--subgroup", default="translations", choices=("translations",))
    sc.add_argument("--radii", default="1,2,4,8")
    sc.set_defaults(func=_cmd_index_check)

    sc = sub.add_parser("verify-dual", parents=[common], help="two-sided count/volume inequalities")
    sc.add_argument("--space", required=True, help=SPACE_HELP + ", or 'warped'")
    sc.add_argument("--base")
    sc.add_argument("--radii")
    sc.add_argument("--samples", type=int, default=200000)
    sc.add_argument("--seed", type=int, default=7)
    sc.add_argument("--word-variant", action="store_true", help="add word-count upper-bound rows")
    sc.add_argument("--tol", type=float, default=warped.DEFAULT_TOL)
    sc.add_argument("--square-warp", action="store_true")
    sc.add_argument("--grid", type=_grid_pair, default=None, help="warped base resolution 'dr,ds'")
    sc.set_defaults(func=_cmd_verify_dual)

    sc = sub.add_parser("thin-set", parents=[common], help="volume of the ball near the core")
    sc.add_argument("--space", required=True, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--radii", "--radius", dest="radii", required=True)
    sc.add_argument("--thickness", "--h", dest="thickness", required=True)
    sc.add_argument("--samples", type=int, default=20000)
    sc.add_argument("--seed", type=int, default=7)
    sc.set_defaults(func=_cmd_thin_set)

    sc = sub.add_parser("dirichlet", parents=[common], help="cell membership and ray extension")
    sc.add_argument("--space", required=True, help=SPACE_HELP)
    sc.add_argument("--base")
    sc.add_argument("--point", required=True)
    sc.add_argument("--within", help="also test extension <= this bound")
    sc.set_defaults(func=_cmd_dirichlet)

    sc = sub.add_parser("classify", parents=[common], help="product or twisted line bundle")
    sc.add_argument("--space", help=SPACE_HELP)
    sc.add_argument("--generators", help="JSON list of isometries, a file name, or @file")
    sc.add_argument("--dim", type=int, default=None, help="expected ambient dimension")
    sc.set_defaults(func=_cmd_classify)

    sc = sub.add_parser("soul-dim", parents=[common], help="dimension of the totally geodesic core")
    sc.add_argument("--space", required=True, help="one of " + ", ".join(flatgeo.SOUL_DIMENSIONS))
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
    sc.add_argument("--group", default="heisenberg", help="heisenberg, z1, z2, or z3")
    sc.add_argument("--radius", type=int, default=4)
    sc.add_argument("--box", type=int, default=3)
    sc.add_argument("--cap", type=int, default=None)
    sc.set_defaults(func=_cmd_injection_check)

    sc = sub.add_parser("warped-ratio", parents=[common], help="word-count volume ratios on the warped surface")
    sc.add_argument("--cs", "--c", dest="cs", default="1,2,4")
    sc.add_argument("--radii", default="8,64")
    sc.add_argument("--tol", type=float, default=warped.DEFAULT_TOL)
    sc.add_argument("--square-warp", action="store_true")
    sc.add_argument("--grid", type=_grid_pair, default=None, help="base resolution 'dr,ds'")
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
    sc.add_argument("--grid", type=_grid_pair, default=None, help="base resolution 'dr,ds'")
    sc.set_defaults(func=_cmd_warped_distance)

    sc = sub.add_parser("paper-suite", parents=[common], help="run the bundled verification stages")
    sc.add_argument("--quick", action="store_true", help="small parameters, under a minute")
    sc.add_argument("--seed", type=int, default=7)
    sc.add_argument("--samples", type=int, default=None)
    sc.set_defaults(func=_cmd_suite)

    return p


# option spellings that argparse accepts for one destination; config
# overrides must lose to ANY explicit spelling on the command line
CONFIG_FLAG_ALIASES = {
    "space": ("--space", "--group"),
    "base": ("--base", "--point"),
    "radii": ("--radii", "--radius"),
    "thickness": ("--thickness", "--h"),
    "cs": ("--cs", "--c"),
    "start": ("--start", "--from"),
    "end": ("--end", "--to"),
    "surface": ("--space",),
}


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


def _apply_config(args, argv: Sequence[str]) -> None:
    for key, raw in _config_pairs(args.config).items():
        flags = CONFIG_FLAG_ALIASES.get(key, ("--" + key.replace("_", "-"),))
        if not hasattr(args, key):
            if key in GLOBAL_CONFIG_KEYS:
                continue
            raise ValueError(f"config key {key!r} does not apply to this command")
        if any(tok == f or tok.startswith(f + "=") for tok in argv for f in flags):
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes", "on"))
        elif isinstance(current, int) and not isinstance(current, bool):
            setattr(args, key, int(raw))
        elif isinstance(current, float):
            setattr(args, key, float(raw))
        else:
            setattr(args, key, raw)


def _emit(payload: Dict[str, Any], args, csv_data) -> None:
    if args.format == "csv":
        if csv_data is None:
            raise ValueError(f"{payload.get('command')} has no CSV projection")
        header, rows = csv_data
        print(",".join(header))
        for row in rows:
            print(",".join(str(x) for x in row))
        return
    print(json.dumps(payload, indent=2))


def _emit_error(e: BaseException, args) -> None:
    """A structured error object on stdout, a human line on stderr."""
    obj = {"error": type(e).__name__, "message": str(e)}
    if getattr(args, "format", "json") == "json":
        print(json.dumps(obj, indent=2))
    print(f"orbitlab: {obj['error']}: {obj['message']}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
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
