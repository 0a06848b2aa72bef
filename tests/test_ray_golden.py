"""Recorded exact Dirichlet queries and ray extensions.

For seeded (center, target) pairs on the nine decks of `decks.py`, every
field of `dirichlet_query` (cell membership, nearest distance, lifts and
the `ExtensionReport`, ``search_radius_sq`` included), `extension_at_most`
at h in {0, 1/8, 1/2, 1, 3}, and `ray_extension` capped at one and two
windows (a report or CapExceeded) were recorded once and must replay
equal. The pairs were drawn so that each ray is cut within a few units
of its center, which keeps the replay short.

Re-record (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_ray_golden.py --record
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from decks import DECK_NAMES, deck  # noqa: E402
from orbitlab import flatgeo  # noqa: E402
from orbitlab.errors import CapExceeded  # noqa: E402
from orbitlab.euclid import Point  # noqa: E402

F = Fraction
PATH = Path(__file__).parent / "data" / "ray_golden.json"
HS = ("0", "1/8", "1/2", "1", "3")
DOUBLINGS = (1, 2)
# rays cut farther than this from their center are not recorded
MAX_CUT_SQ = 9
PER_DECK = 12


def _s(values) -> str:
    return ",".join(str(v) for v in values)


def _point(text: str) -> Point:
    return Point(tuple(F(x) for x in text.split(",")))


def _report(rep):
    if rep is None:
        return None
    return {name: value if isinstance(value, bool) or value is None else str(value)
            for name, value in vars(rep).items()}


def golden_outcome(case):
    d = deck(case["deck"])
    center, target = _point(case["center"]), _point(case["target"])
    q = flatgeo.dirichlet_query(d, center, target)
    out = {
        "in_cell": q.in_cell,
        "dist_sq": str(q.dist_sq),
        "lifts": [_s(p) for p in q.lifts],
        "extension": _report(q.extension),
    }
    if q.extension is None:
        return out
    out["at_most"] = [flatgeo.extension_at_most(d, center, target, F(h)) for h in HS]
    capped = []
    for k in DOUBLINGS:
        try:
            capped.append(_report(flatgeo.ray_extension(d, center, target, max_doublings=k)))
        except CapExceeded:
            capped.append("CapExceeded")
    out["capped"] = capped
    return out


def _draw(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    q = rng.randint(1, den)
    return F(rng.randint(lo * q, hi * q), q)


def golden_cases():
    """Seeded pairs per deck: the bundled base point or a random center,
    a random target, and one target on the center's orbit."""
    cases = []
    for k, name in enumerate(DECK_NAMES):
        d = deck(name)
        rng = random.Random(1000 + k)
        base = flatgeo.default_base(d)
        kept = [{"deck": name, "center": _s(base),
                 "target": _s(x + b for x, b in zip(base, d.lattice.basis[0]))}]
        while len(kept) < PER_DECK:
            center = base if rng.random() < 0.5 else Point(
                tuple(_draw(rng, -1, 1, 6) for _ in range(d.dimension)))
            target = Point(tuple(_draw(rng, -2, 2, 8) for _ in range(d.dimension)))
            q = flatgeo.dirichlet_query(d, center, target)
            rep = q.extension
            if rep is None or rep.tie or rep.infinite or rep.ray_scale ** 2 * rep.direction_sq <= MAX_CUT_SQ:
                kept.append({"deck": name, "center": _s(center), "target": _s(target)})
        cases += kept
    return cases


def _label(case):
    return f"{case['deck']} {case['center']} -> {case['target']}"


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else []


def test_every_deck_is_recorded():
    assert {g["case"]["deck"] for g in GOLDEN} == set(DECK_NAMES)


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
