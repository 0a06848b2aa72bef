"""Recorded exact orbit enumerations, nearest distances and comparison reports.

Every hit list of `enumerate_orbit`, `enumerate_orbit_plus_sqrt` and the
lift scan `DeckGroup._hits` (call `lifts_near`: all g with
|g(y) - x|^2 <= radius_sq), every lattice scan read by
`decks.lattice_scan` (calls `points_near` and `points_near_plus_sqrt`,
the names of the views that once wrapped it), every nearest lattice
distance (`nearest_dist_sq`), every quotient distance and every
`milnor_check` and `finite_index_comparison` report below was recorded
once from the Fraction implementation and must replay equal, element by
element and in the same order. The decks are the bundled ones, z2, z3
and the two custom decks of `decks.py`.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_orbit_golden.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from decks import DECK_NAMES, SUBGROUPS, deck, lattice_scan  # noqa: E402
from orbitlab.euclid import Point  # noqa: E402
from orbitlab.groups import DeckGroup, _ball_limit, _plus_sqrt_limit  # noqa: E402
from orbitlab.orbit import finite_index_comparison, milnor_check, translation_subgroup  # noqa: E402

F = Fraction
PATH = Path(__file__).parent / "data" / "orbit_golden.json"

# generic points, points on the moebius/klein mirror line y = 0, on the p4m
# mirrors x = 0, x = 1/2 and x = y, and lattice points
POINTS_2D = [
    (F(1, 10), F(1, 10)), (F(0), F(3, 10)), (F(1, 3), F(0)), (F(1, 2), F(1, 4)),
    (F(1, 4), F(1, 4)), (F(2, 7), F(-3, 5)), (F(0), F(0)),
]
POINTS_3D = [(F(0), F(3, 10), F(0)), (F(1, 2), F(0), F(1, 3)), (F(1, 7), F(-2, 9), F(1, 2)), (F(0),) * 3]
MILNOR_RADII = [1, 2, 3]
INDEX_RADII = [1, 2, 4]


def _points(d: DeckGroup):
    return [Point(p) for p in (POINTS_2D if d.dimension == 2 else POINTS_3D)]


def _s(values) -> str:
    return ",".join(str(v) for v in values)


def _hits(hits):
    return [f"{_s(x for row in h.element.orthogonal for x in row)}|{_s(h.element.translation)}"
            f"|{_s(h.image)}|{h.dist_sq}" for h in hits]


def _lattice_points(points):
    return [f"{_s(coords)}|{_s(vector)}|{dist_sq}" for coords, vector, dist_sq in points]


def _report(rep):
    out = {}
    for name, value in vars(rep).items():
        if isinstance(value, Point):
            value = _s(value)
        elif isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[name] = value
    return json.loads(json.dumps(out))


def golden_cases():
    cases = []
    for name in DECK_NAMES:
        d = deck(name)
        pts = _points(d)
        for i, x in enumerate(pts):
            cases.append({"deck": name, "call": "enumerate_orbit", "x": i, "radius_sq": "9"})
            cases.append({"deck": name, "call": "enumerate_orbit_plus_sqrt", "x": i,
                          "radius": "2", "slack_sq": "26/25"})
            cases.append({"deck": name, "call": "points_near", "x": i, "radius_sq": "21/4"})
            cases.append({"deck": name, "call": "points_near_plus_sqrt", "x": i,
                          "radius": "3/2", "slack_sq": "2"})
            cases.append({"deck": name, "call": "nearest_dist_sq", "x": i})
            for j in range(len(pts)):
                cases.append({"deck": name, "call": "quotient_dist_sq", "x": i, "y": j})
            cases.append({"deck": name, "call": "lifts_near", "x": i, "y": (i + 1) % len(pts),
                          "radius_sq": "13/2"})
        for i in range(2):
            cases.append({"deck": name, "call": "milnor_check", "x": i})
            cases.append({"deck": name, "call": "finite_index_comparison", "x": i,
                          "sub": "translations"})
    for sub, (name, _) in SUBGROUPS.items():
        for i in range(3):
            cases.append({"deck": name, "call": "finite_index_comparison", "x": i, "sub": sub})
    return cases


def golden_outcome(case):
    d = deck(case["deck"])
    pts = _points(d)
    x = pts[case["x"]]
    call = case["call"]
    if call == "enumerate_orbit":
        return _hits(d.enumerate_orbit(x, F(case["radius_sq"])))
    if call == "enumerate_orbit_plus_sqrt":
        return _hits(d.enumerate_orbit_plus_sqrt(x, F(case["radius"]), F(case["slack_sq"])))
    if call == "lifts_near":
        return _hits(d._hits(x, pts[case["y"]], _ball_limit(F(case["radius_sq"]))))
    if call == "points_near":
        return _lattice_points(lattice_scan(d.lattice, x, _ball_limit(F(case["radius_sq"]))))
    if call == "points_near_plus_sqrt":
        return _lattice_points(lattice_scan(
            d.lattice, x, _plus_sqrt_limit(F(case["radius"]), F(case["slack_sq"]))))
    if call == "nearest_dist_sq":
        return str(d.lattice.nearest_dist_sq(tuple(x)))
    if call == "quotient_dist_sq":
        return str(d.quotient_dist_sq(x, pts[case["y"]]))
    if call == "milnor_check":
        return _report(milnor_check(d, x, MILNOR_RADII))
    if call == "finite_index_comparison":
        sub = translation_subgroup(d) if case["sub"] == "translations" else SUBGROUPS[case["sub"]][1]()
        return _report(finite_index_comparison(d, sub, x, INDEX_RADII))
    raise ValueError(call)


def _label(case):
    return " ".join(f"{k}={v}" for k, v in case.items())


def test_golden_cases_are_the_recorded_ones():
    assert [g["case"] for g in GOLDEN] == json.loads(json.dumps(golden_cases()))


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else []


@pytest.mark.parametrize("entry", GOLDEN, ids=[_label(g["case"]) for g in GOLDEN])
def test_outputs_match_the_recorded_ones(entry):
    assert golden_outcome(entry["case"]) == entry["result"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    cases = golden_cases()
    PATH.write_text(json.dumps([{"case": c, "result": golden_outcome(c)} for c in cases],
                               indent=0) + "\n")
    print(f"recorded {len(cases)} cases in {PATH}")
