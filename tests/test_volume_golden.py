"""Recorded Monte Carlo volume estimates.

Every `ball_volume`, `thin_set_volume` and `verify_dual` estimate below
was recorded once and must replay bit for bit: ``value`` and ``sigma``
as `float.hex`, ``samples`` and ``seed_used`` as they are. The sample
counts straddle the strata boundaries (64, 65, 999, 20,001) and exceed
one sampling block (200,000), so a change to how the estimator draws,
batches or sums its samples shows here.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_volume_golden.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from orbitlab import flatgeo
from orbitlab.groups import builtin_deck_group

PATH = Path(__file__).parent / "data" / "volume_golden.json"

SPACES = ("torus2", "cylinder2", "moebius2", "klein2", "moebiusxT")
BALL_SAMPLES = (64, 65, 999, 20_001, 200_000)
BALL_RADII = ("1/3", "1", "5/2")
# (space, radius, thickness): radii inside and well outside the slab
THIN_CASES = [(name, r, h) for name in ("cylinder2", "moebius2", "moebiusxT")
              for r, h in (("1", "1/2"), ("4", "1"))]
THIN_SAMPLES = 20_000
DUAL_CASES = ("cylinder2", "klein2")
DUAL_RADII = (1, 2)
DUAL_SAMPLES = 20_000


def _estimate(est):
    return {"value": est.value.hex(), "sigma": est.sigma.hex(), "samples": est.samples,
            "seed_used": list(est.seed_used)}


def golden_cases():
    cases = []
    k = 0
    for name in SPACES:
        for n in BALL_SAMPLES:
            for r in BALL_RADII:
                # alternate integer and list seeds
                seed = 100 + k if k % 2 == 0 else [100, k]
                cases.append({"call": "ball_volume", "space": name, "radius": r, "samples": n,
                              "seed": seed})
                k += 1
    for i, (name, r, h) in enumerate(THIN_CASES):
        cases.append({"call": "thin_set_volume", "space": name, "radius": r, "thickness": h,
                      "samples": THIN_SAMPLES, "seed": [7, i]})
    for name in DUAL_CASES:
        cases.append({"call": "verify_dual", "space": name, "radii": list(DUAL_RADII),
                      "samples": DUAL_SAMPLES, "seed": 7})
    return cases


def golden_outcome(case):
    name = case["space"]
    deck = builtin_deck_group(name)
    base = flatgeo.BASE_POINTS[name]
    call = case["call"]
    if call == "ball_volume":
        return _estimate(flatgeo.ball_volume(deck, base, case["radius"], samples=case["samples"],
                                             seed=case["seed"]))
    if call == "thin_set_volume":
        return _estimate(flatgeo.thin_set_volume(
            deck, base, case["radius"], case["thickness"], flatgeo.soul_axis(deck),
            samples=case["samples"], seed=case["seed"]))
    if call == "verify_dual":
        rep = flatgeo.verify_dual(deck, base, case["radii"], samples=case["samples"],
                                  seed=case["seed"], word_variant=True)
        return [{"volume": r.volume.hex(), "sigma": r.sigma.hex()}
                for r in rep.rows + rep.word_rows]
    raise ValueError(call)


def _label(case):
    return " ".join(f"{k}={v}" for k, v in case.items())


def test_golden_cases_are_the_recorded_ones():
    assert [g["case"] for g in GOLDEN] == json.loads(json.dumps(golden_cases()))


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else []


@pytest.mark.parametrize("entry", GOLDEN, ids=[_label(g["case"]) for g in GOLDEN])
def test_estimates_match_the_recorded_ones(entry):
    assert golden_outcome(entry["case"]) == entry["result"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    cases = golden_cases()
    PATH.write_text(json.dumps([{"case": c, "result": golden_outcome(c)} for c in cases],
                               indent=0) + "\n")
    print(f"recorded {len(cases)} cases in {PATH}")
