"""The bundled verification suite behind ``orbitlab paper-suite``.

Each stage checks one ingredient of the b_1 = n - 1 rigidity argument
end to end: word balls inside orbit balls, the two-sided count/volume
inequalities, the finite-index lemma, thin sets and ray extension near
the soul, growth exponents against soul dimensions, the product-or-
twisted classification, the warped surface where the volume side breaks
down, the integer algebra, and seeded determinism.

``STAGES`` lists every stage once with its quick and full parameters. A
stage function returns its success detail, its checks as (passed,
failure message) pairs, and its data; `run_suite` turns the checks into
a verdict and a detail line, and catches a stage's exception so the
remaining stages still run.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import algebra, flatgeo, groups, orbit, warped
from .euclid import Isometry, Point
from .groups import HEISENBERG_IDENTITY, HEISENBERG_SERIES

Checks = List[Tuple[bool, str]]
StageResult = Tuple[str, Checks, Dict[str, Any]]


def _orbit_oracle(seed: int, samples: int, rmax: int) -> StageResult:
    counts = orbit.ball_counts(groups.zk_deck(2), Point.of(0, 0), [r * r for r in range(rmax + 1)])
    mismatches = [
        r for r in range(1, rmax + 1)
        if counts[r] != sum(a * a + b * b <= r * r for a in range(-r, r + 1) for b in range(-r, r + 1))
    ]
    return (
        f"z2 orbit counts equal the direct double-loop count for radii 1..{rmax}",
        [(not mismatches, f"mismatch at radii {mismatches}")],
        {"max_radius": rmax, "count_at_max": counts[rmax]},
    )


def _milnor(seed: int, samples: int, names: List[str], rmax: int) -> StageResult:
    bad = []
    for name in names:
        deck = groups.builtin_deck_group(name)
        if not orbit.milnor_check(deck, flatgeo.default_base(deck), list(range(1, rmax + 1))).ok:
            bad.append(name)
    return (
        f"word balls sat inside orbit balls for {', '.join(names)} at radii 1..{rmax}",
        [(not bad, f"violations in {', '.join(bad)}")],
        {"spaces": names, "max_radius": rmax},
    )


def _dual_flat(seed: int, samples: int, names: List[str], radii: List[int]) -> StageResult:
    bad = []
    for i, name in enumerate(names):
        deck = groups.builtin_deck_group(name)
        rep = flatgeo.verify_dual(deck, flatgeo.default_base(deck), radii, samples=samples, seed=seed * 100 + i)
        if not rep.ok:
            bad.append(name)
    cyl = groups.builtin_deck_group("cylinder2")
    est = flatgeo.ball_volume(cyl, flatgeo.default_base(cyl), 1, samples=samples, seed=[seed, 999])
    ref = flatgeo.reference_ball_volume("cylinder2", 1.0)
    return (
        f"both inequalities held on {', '.join(names)}; cylinder B_1 matched sqrt(3)/2 + pi/3",
        [
            (not bad, f"dual failed on {', '.join(bad)}"),
            (abs(est.value - ref) <= 3.0 * est.sigma, "cylinder volume missed its closed form"),
        ],
        {"spaces": names, "radii": radii, "cylinder_ref": ref, "cylinder_est": est.value},
    )


def _index(seed: int, samples: int, radii: List[int]) -> StageResult:
    results = {}
    for name in ("klein2", "moebius2"):
        deck = groups.builtin_deck_group(name)
        sub = orbit.translation_subgroup(deck)
        rep = orbit.finite_index_comparison(deck, sub, flatgeo.default_base(deck), radii)
        results[name] = {"index": rep.index, "slack_sq": str(rep.slack_dist_sq), "ok": rep.ok}
    return (
        f"index-{results['klein2']['index']} comparisons held on klein2 and moebius2 at radii {radii}",
        [(all(r["ok"] for r in results.values()), "an index comparison failed")],
        results,
    )


def _thin(seed: int, samples: int, radii: List[int], thin_samples: int, halve: bool, trials: int) -> StageResult:
    deck = groups.builtin_deck_group("cylinder2")
    base = flatgeo.default_base(deck)
    axis = flatgeo.soul_axis(deck)
    trend = flatgeo.thin_trend(deck, base, radii, 1, axis, samples=thin_samples, seed=seed)
    rng = random.Random(seed)

    def closed_form(t: Fraction, s: Fraction) -> bool:
        # the minimal ray from the base of the cylinder to (t, s) is cut at
        # the bisector s = 1/2, i.e. at scale 1/(2s)
        rep = flatgeo.ray_extension(deck, base, Point.of(t, s))
        scale = Fraction(1) / (2 * s)
        return rep.ray_scale == scale and rep.extension_sq == (scale - 1) ** 2 * (t * t + s * s)

    closed_form_ok = all(
        closed_form(Fraction(rng.randint(-256, 256), 64), Fraction(rng.randint(1, 31), 64))
        for _ in range(trials)
    )
    return (
        f"thin-part ratio fell monotonically over radii {radii}; {trials} ray extensions matched exactly",
        [
            (trend.decreasing, "thin-part ratio failed to decrease"),
            (trend.halved or not halve, "final ratio above half the first"),
            (closed_form_ok, "an extension disagreed with the closed form"),
        ],
        {"ratios": trend.ratios},
    )


def _growth(seed: int, samples: int, names: List[str], radii: List[int], tol: float) -> StageResult:
    exps = {}
    for name in names:
        deck = groups.builtin_deck_group(name)
        exps[name] = orbit.orbit_growth(deck, flatgeo.default_base(deck), radii).fitted_exponent
    listing = ", ".join(f"{k}={v:.3f}" for k, v in exps.items())
    close = all(abs(exps[name] - flatgeo.soul_dimension(name)) <= tol for name in names)
    return (
        f"fitted exponents matched soul dimensions within {tol}: {listing}",
        [(close, f"an exponent strayed past {tol}: {listing}")],
        {"exponents": exps},
    )


def _classify(seed: int, samples: int, trials: int) -> StageResult:
    # canonical generating sets with the kind each must be classified as
    flip = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    cases = [
        ("cylinder", [Isometry.translation_by((0, 1))], "product"),
        ("moebius-band", [groups.builtin_deck_group("moebius2").coset_reps[1]], "moebius"),
        ("two-reflection", [Isometry(flip, (1, 0, 0)), Isometry(flip, (0, 1, 0))], "moebius"),
    ]
    verdicts = {}
    ok = True
    for label, gens, expected in cases:
        c = flatgeo.classify_flat(gens)
        verdicts[label] = c.kind
        ok = ok and c.kind == expected and (expected != "moebius" or c.reflecting_count == 1)
    # a coordinate permutation and a shift conjugate each set; the verdict must not move
    rng = random.Random(seed)
    for _ in range(trials):
        for label, gens, expected in cases:
            n = gens[0].dimension
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            conj = Isometry(rows, [Fraction(rng.randint(-32, 32), 4) for _ in range(n)])
            if flatgeo.classify_flat([conj * g * conj.inverse() for g in gens]).kind != expected:
                ok = False
    return (
        f"three canonical inputs classified correctly; {trials} conjugation trials left verdicts unchanged",
        [(ok, "classification missed a case or moved under conjugation")],
        {"verdicts": verdicts},
    )


def _warped(
    seed: int, samples: int, cs: List[float], radii: List[float], factor: float, ks: Sequence[int]
) -> StageResult:
    """The word-count ratio must fall by ``factor`` for every c. Only with
    deck translates ``ks`` does the stage also run the warped dual check
    and the d(k) ~ 4*sqrt(pi*k) law."""
    rows = warped.falsifying_ratios(cs, radii)
    halving = warped.ratio_halving(rows, cs, factor)
    fell = all(h.halved for h in halving)
    if not ks:
        h = halving[0]
        return (
            f"word-count ratio fell from {h.first:.3f} at r={radii[0]:g} to {h.last:.3f} at r={radii[-1]:g}",
            [(fell, "word-count ratio failed to decrease")],
            {"ratios": [h.first, h.last]},
        )
    dual = warped.verify_dual()
    table = warped.deck_distances(max(ks))
    normalized = {k: table.values[k] / math.sqrt(k) for k in ks}
    slope = warped.DISTANCE_SLOPE
    return (
        "ratios halved for c in {1,2,4}; dual inequalities held; d(k) tracked 4*sqrt(pi*k)",
        [
            (fell, f"a ratio failed to halve between r={radii[0]:g} and r={radii[-1]:g}"),
            (dual.ok, "a dual inequality failed"),
            (all(abs(v - slope) <= 0.1 * slope for v in normalized.values()),
             "d(k)/sqrt(k) strayed from 4*sqrt(pi)"),
        ],
        {
            "ratios": [{"c": r.scale_c, "radius": r.radius, "ratio": r.ratio} for r in rows],
            "dual_ok": dual.ok,
            "normalized": {str(k): v for k, v in normalized.items()},
        },
    )


def _algebra(
    seed: int, samples: int, count: int, size: int, rmax: int, growth_radii: List[int], box: int
) -> StageResult:
    rng = random.Random(seed)
    snf_ok = True
    for _ in range(count):
        nrow = rng.randint(1, size)
        ncol = rng.randint(1, size)
        m = [[rng.randint(-50, 50) for _ in range(ncol)] for _ in range(nrow)]
        if not algebra.smith_certificate(m).ok:
            snf_ok = False
            break
    heis = groups.heisenberg_group()
    counts = groups.word_ball_counts(heis, rmax)
    exp_ok = not growth_radii or 3.5 <= orbit.word_growth(heis, growth_radii).fitted_exponent <= 4.5
    poly = algebra.polycyclic_injection(HEISENBERG_IDENTITY, HEISENBERG_SERIES, box)
    return (
        f"{count} normal forms verified; word balls dominated 2r^2+2r+1 up to r={rmax}; "
        f"box {box} evaluation stayed injective",
        [
            (snf_ok, "a normal-form identity failed"),
            (all(counts[r] >= 2 * r * r + 2 * r + 1 for r in range(1, rmax + 1)),
             "a word ball fell below its abelianized size"),
            (exp_ok, "the word growth exponent left [3.5, 4.5]"),
            (poly.injective, "polycyclic evaluation collided"),
        ],
        {"snf_matrices": count, "heisenberg_counts": counts},
    )


def _determinism(seed: int, samples: int) -> StageResult:
    deck = groups.builtin_deck_group("torus2")
    base = flatgeo.default_base(deck)
    n = min(samples, 20000)

    def run() -> str:
        return json.dumps(flatgeo.verify_dual(deck, base, [1, 2], samples=n, seed=seed).to_obj(), indent=2)

    first = run()
    return (
        "two identically seeded runs serialized to identical bytes",
        [(first == run(), "repeated runs diverged")],
        {"bytes": len(first)},
    )


class Stage(NamedTuple):
    name: str
    check: Callable[..., StageResult]
    quick: Dict[str, Any]
    full: Dict[str, Any]


STAGES = (
    Stage("orbit-oracle", _orbit_oracle, {"rmax": 12}, {"rmax": 50}),
    Stage("milnor", _milnor, {"names": ["z2", "moebius2"], "rmax": 6},
          {"names": ["z2", "z3", "moebius2", "klein2"], "rmax": 20}),
    Stage("dual-flat", _dual_flat, {"names": ["torus2", "cylinder2"], "radii": [1, 2]},
          {"names": ["torus2", "cylinder2", "moebius2", "klein2", "moebiusxT"], "radii": [1, 2, 4, 8, 16]}),
    Stage("index-lemma", _index, {"radii": [1, 2]}, {"radii": [1, 2, 4, 8]}),
    Stage("thin-and-extension", _thin,
          {"radii": [4, 16], "thin_samples": 8000, "halve": False, "trials": 10},
          {"radii": [4, 8, 16, 32], "thin_samples": 20000, "halve": True, "trials": 100}),
    Stage("growth-exponents", _growth, {"names": ["cylinder2", "torus2"], "radii": [4, 8, 16], "tol": 0.25},
          {"names": ["cylinder2", "moebius2", "torus2", "moebiusxT"], "radii": [4, 8, 16, 32, 64], "tol": 0.15}),
    Stage("classify", _classify, {"trials": 3}, {"trials": 20}),
    Stage("warped", _warped, {"cs": [1.0], "radii": [4.0, 16.0], "factor": 1.0, "ks": ()},
          {"cs": [1.0, 2.0, 4.0], "radii": [8.0, 64.0], "factor": 2.0, "ks": (16, 32)}),
    Stage("algebra", _algebra, {"count": 25, "size": 5, "rmax": 4, "growth_radii": [], "box": 2},
          {"count": 200, "size": 8, "rmax": 8, "growth_radii": [4, 6, 8, 10, 12], "box": 3}),
    Stage("determinism", _determinism, {}, {}),
)

DEFAULT_SAMPLES = {True: 20000, False: 200000}


def run_suite(
    quick: bool, seed: int, samples: Optional[int], on_stage: Callable[[Dict[str, Any]], None]
) -> Dict[str, Any]:
    """Run every stage in order and hand each report entry to ``on_stage``
    as it completes; ``samples`` None means the mode's default."""
    if samples is None:
        samples = DEFAULT_SAMPLES[quick]
    stages = []
    for stage in STAGES:
        try:
            success, checks, data = stage.check(seed, samples, **(stage.quick if quick else stage.full))
            failures = [message for passed, message in checks if not passed]
            ok, detail = not failures, "; ".join(failures) or success
        except Exception as e:  # a failing stage must not stop the suite
            ok, detail, data = False, f"{type(e).__name__}: {e}", {}
        entry: Dict[str, Any] = {"name": stage.name, "ok": ok, "detail": detail}
        if data:
            entry["data"] = data
        on_stage(entry)
        stages.append(entry)
    passed = sum(entry["ok"] for entry in stages)
    return {
        "quick": quick,
        "seed": seed,
        "samples": samples,
        "stages": stages,
        "passed": passed,
        "failed": len(stages) - passed,
        "ok": passed == len(stages),
    }
