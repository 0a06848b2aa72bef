"""The Monte Carlo indicators, sample by sample.

`ball_volume` and `thin_set_volume` hand `_stratified_estimate` an
indicator that tests each row against a finite list of rival orbit points
(`flatgeo._rivals`), not a kd-tree over every orbit point within 2r. These
tests capture that indicator and compare it row for row with the plain
kd-tree decision, written out here, and with the nearest-orbit-point rule
over the whole 2r cloud, on drawn rows and on hand-placed ones: on a
bisector, on the sphere |p - c| = r, within 1e-6 r of either, and on the
thin set's slab face. On a row that the center ties with another orbit
point in floats, the kd-tree's pick follows its traversal; the indicator
keeps the row, as the closed cell does.
"""

import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from orbitlab import flatgeo
from orbitlab.errors import UnsupportedMethod
from orbitlab.euclid import Point, mat_vec
from orbitlab.groups import DeckGroup

sys.path.insert(0, str(Path(__file__).resolve().parent))
from decks import DECK_NAMES, SUBGROUPS, deck  # noqa: E402

F = Fraction
ALL_DECKS = DECK_NAMES + tuple(SUBGROUPS)


def _deck(name):
    return SUBGROUPS[name][1]() if name in SUBGROUPS else deck(name)


def _point(*xs):
    return Point(tuple(F(x) for x in xs))


def _cases():
    """(deck name, center, radius): the bundled base point, a point with a
    stabiliser where the deck has one, and a radius so small that the
    orbit cloud is the center alone."""
    out = []
    for name in ALL_DECKS:
        d = _deck(name)
        base = flatgeo.default_base(d)
        out += [(name, base, F(1, 8)), (name, base, F(3, 4)), (name, base, 2)]
    out += [("p4m", _point(0, 0), 1), ("p4m", _point("1/2", 0), F(3, 2)), ("p4", _point("1/2", "1/2"), 1),
            ("klein2", _point(0, "1/2"), F(5, 4)), ("moebius2", _point(0, 0), 1)]
    return out


def _capture(monkeypatch):
    """Make `_stratified_estimate` keep the indicator and box it is given,
    and return a placeholder estimate with hits."""
    seen = {}

    def keep(indicator, lo, hi, samples, seed):
        seen.update(indicator=indicator, lo=lo, hi=hi)
        return flatgeo.VolumeEstimate(1.0, 0.0, samples, 1.0, (seed,))

    monkeypatch.setattr(flatgeo, "_stratified_estimate", keep)
    return seen


def _rows(seen, cf, cloud, center_idx, r, extra=()):
    """Rows drawn in the captured box, and hand-placed ones near the sphere
    and near the bisector with each of the center's nearest orbit points."""
    rng = np.random.default_rng(5)
    lo, hi = seen["lo"], seen["hi"]
    dim = len(cf)
    rows = [lo + (hi - lo) * rng.random((300, dim))]
    units = np.vstack([np.eye(dim), -np.eye(dim), rng.normal(size=(2, dim))])
    units /= np.linalg.norm(units, axis=1)[:, None]
    off = cloud - cf
    for eps in (0.0, 5e-7, -9e-7):
        # on |p - c| = r (exactly, along the axes) and within 1e-6 r of it
        rows.append(cf + (r * (1 + eps)) * units)
        for i in np.argsort(np.einsum("ij,ij->i", off, off))[1:5]:
            g = off[i]
            n = np.linalg.norm(g)
            # on the bisector of c and g, and within 1e-6 r across it
            mid = cf + g / 2 + (eps * r / n) * g
            tangent = units[-2:] - np.outer(units[-2:] @ g / (n * n), g)
            rows.append(mid + 0.3 * r * tangent)
    rows += list(extra)
    return np.vstack(rows)


def _sq_dists(pts, cloud):
    """|p - q|^2 for every row p and cloud point q, summed over the
    coordinates in order, as the indicator and the kd-tree sum them."""
    sq = np.zeros((len(pts), len(cloud)))
    for i in range(pts.shape[1]):
        sq += (pts[:, i, None] - cloud[None, :, i]) ** 2
    return sq


@pytest.mark.parametrize("name,center,r", _cases())
def test_ball_indicator_is_the_kdtree_decision_row_for_row(monkeypatch, name, center, r):
    """Off exact float ties, the kd-tree's decision; on a row that the center
    and another orbit point tie for nearest, the closed cell's (the center
    wins), brute-forced over the whole 4r^2 cloud. On such a tie the
    kd-tree's pick follows its traversal."""
    d = _deck(name)
    seen = _capture(monkeypatch)
    flatgeo.ball_volume(d, center, r, samples=64)
    cloud, center_idx = flatgeo._orbit_cloud(d, center, 4 * r * r)
    cf = np.array([float(c) for c in center])
    rf = float(r)
    pts = _rows(seen, cf, cloud, center_idx, rf)
    dist, idx = cKDTree(cloud).query(pts)
    plain = (idx == center_idx) & (dist <= rf)
    sq = _sq_dists(pts, cloud)
    own = sq[:, center_idx]
    rival = np.delete(sq, center_idx, axis=1).min(axis=1, initial=np.inf)
    tie = own == rival
    assert plain.any() and not plain.all()
    want = np.where(tie, (np.sqrt(own) <= rf) & (own <= rival), plain)
    assert np.array_equal(seen["indicator"](pts), want)


def test_a_small_radius_leaves_the_center_alone_in_the_cloud(monkeypatch):
    d = _deck("torus2")
    center = flatgeo.default_base(d)
    cloud, _ = flatgeo._orbit_cloud(d, center, 4 * F(1, 8) ** 2)
    assert len(cloud) == 1
    seen = _capture(monkeypatch)
    flatgeo.ball_volume(d, center, F(1, 8), samples=64)
    pts = _rows(seen, cloud[0], cloud, 0, 0.125)
    assert np.array_equal(seen["indicator"](pts), np.linalg.norm(pts - cloud[0], axis=1) <= 0.125)


def _thin_cases():
    out = []
    for name, center, r in _cases():
        try:
            axis = flatgeo.soul_axis(_deck(name))
        except UnsupportedMethod:
            continue
        h = F(1, 2) if axis is not None and abs(center[axis]) < F(1, 2) else F(3, 2)
        out.append((name, center, r, h, axis))
    return out


@pytest.mark.parametrize("name,center,r,h,axis", _thin_cases())
def test_thin_indicator_is_the_kdtree_decision_row_for_row(monkeypatch, name, center, r, h, axis):
    d = _deck(name)
    exact = DeckGroup.quotient_dist_sq
    seen = _capture(monkeypatch)
    flatgeo.thin_set_volume(d, center, r, h, axis, samples=64)
    cloud, center_idx = flatgeo._orbit_cloud(d, center, 4 * r * r)
    cf = np.array([float(c) for c in center])
    rf, hf = float(r), float(h)
    margin_r, margin_h = 1e-6 * max(rf, 1.0), 1e-6 * max(hf, 1.0)
    extra = []
    if axis is not None:
        # on the slab face and within its margin
        face = _rows(seen, cf, cloud, center_idx, rf)[:40]
        for v in (hf, -hf, hf * (1 - 5e-7), -hf * (1 + 5e-7)):
            extra.append(face.copy())
            extra[-1][:, axis] = v
    pts = _rows(seen, cf, cloud, center_idx, rf, extra)

    # the plain decision: the kd-tree for every row, exact arithmetic near a tie
    dist, idx = cKDTree(cloud).query(pts, k=2)
    center_nearest = idx[:, 0] == center_idx
    plain = center_nearest & (dist[:, 0] <= rf)
    rival = np.where(center_nearest, dist[:, 1], dist[:, 0])
    dist_center = np.linalg.norm(pts - cf, axis=1)
    borderline = (np.abs(dist_center - rf) < margin_r) | (np.abs(dist_center - rival) < margin_r)
    if axis is not None:
        plain &= np.abs(pts[:, axis]) <= hf
        borderline |= np.abs(np.abs(pts[:, axis]) - hf) < margin_h
    reaches_exact = np.zeros(len(pts), dtype=bool)
    for i in np.flatnonzero(borderline):
        p = Point(tuple(F(float(v)) for v in pts[i]))
        d2 = sum((a - b) ** 2 for a, b in zip(p, center))
        reaches_exact[i] = d2 <= r * r
        plain[i] = reaches_exact[i] and d2 == exact(d, p, center) and (axis is None or abs(p[axis]) <= h)
    assert borderline.any()

    asked = set()
    monkeypatch.setattr(DeckGroup, "quotient_dist_sq", lambda self, x, y: asked.add(tuple(x)) or exact(self, x, y))
    assert np.array_equal(seen["indicator"](pts), plain)
    # a row within the margin skips the exact test only when an orbit point
    # beats the center by more than 2 margin_r
    others = np.delete(cloud, center_idx, axis=0)
    for i in np.flatnonzero(reaches_exact):
        if tuple(F(float(v)) for v in pts[i]) not in asked:
            assert dist_center[i] - np.linalg.norm(others - pts[i], axis=1).min() > 2 * margin_r


# points with a stabiliser: on mirror lines or at a rotation centre
STABILISED = {"p4m": [(0, 0), ("1/2", 0), ("1/3", "1/3")], "p4": [("1/2", "1/2"), (0, "1/2")]}
DECKS = {name: _deck(name) for name in ALL_DECKS}
COORD = st.fractions(min_value=-2, max_value=2, max_denominator=7)


def _reach_sq(d, center):
    """R^2 of `_rivals`, from the Gram inverse: the largest squared distance
    from x to rep(x) + span L over the cosets, plus sum |b_i|^2."""
    basis = d.lattice.basis
    far = 0
    for rep in d.coset_reps:
        w = tuple(a - b for a, b in zip(rep.preimage(tuple(center)), center))
        proj = tuple(sum(map(F.__mul__, b, w)) for b in basis)
        coef = mat_vec(d.lattice.gram_inverse, proj)
        far = max(far, sum(x * x for x in w) - sum(map(F.__mul__, coef, proj)))
    return far + sum(x * x for b in basis for x in b)


@st.composite
def ball_cases(draw):
    """(deck name, center, radius, 2r beyond R): a deck of `tests/decks.py`,
    its base point, a point with a stabiliser or a rational one, and 2r a
    rational multiple in [1/4, 2] of R."""
    name = draw(st.sampled_from(sorted(DECKS)))
    d = DECKS[name]
    options = [flatgeo.default_base(d)] + [_point(*xs) for xs in STABILISED.get(name, ())]
    if draw(st.booleans()):
        center = draw(st.sampled_from(options))
    else:
        center = Point(tuple(draw(st.lists(COORD, min_size=d.dimension, max_size=d.dimension))))
    t = draw(st.fractions(min_value=F(1, 4), max_value=2, max_denominator=16))
    reach = math.sqrt(_reach_sq(d, center))
    r = (t * F(reach) / 2).limit_denominator(64)
    return name, center, r, 4 * r * r > _reach_sq(d, center)


def test_rival_indicator_is_the_nearest_orbit_point_rule(monkeypatch):
    """The rival-list indicator against the nearest-orbit-point rule over
    every orbit point within 2r, in the indicator's own arithmetic, with
    2r on both sides of the rival reach R."""
    seen = _capture(monkeypatch)
    sides = set()

    @given(ball_cases())
    @settings(max_examples=60, deadline=None)
    def agrees(case):
        name, center, r, beyond = case
        d = DECKS[name]
        flatgeo.ball_volume(d, center, r, samples=64)
        cloud, center_idx = flatgeo._orbit_cloud(d, center, 4 * r * r)
        cf = cloud[center_idx]
        rf = float(r)
        pts = _rows(seen, cf, cloud, center_idx, rf)
        sq = _sq_dists(pts, cloud)
        own = sq[:, center_idx]
        nearest = (np.sqrt(own) <= rf) & (own <= np.delete(sq, center_idx, axis=1).min(axis=1, initial=np.inf))
        assert np.array_equal(seen["indicator"](pts), nearest)
        sides.add(beyond)

    start = time.perf_counter()
    agrees()
    assert time.perf_counter() - start < 3.0  # every example together
    assert sides == {False, True}
