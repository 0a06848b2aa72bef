"""The Monte Carlo prefilter, sample by sample.

`ball_volume` and `thin_set_volume` hand `_stratified_estimate` an
indicator that skips the kd-tree on rows that cannot count. These tests
capture that indicator and compare it row for row with the plain kd-tree
decision, written out here, on drawn rows and on hand-placed ones: on a
bisector, on the sphere |p - c| = r, within 1e-6 r of either, and on the
thin set's slab face.
"""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from orbitlab import flatgeo
from orbitlab.errors import UnsupportedMethod
from orbitlab.euclid import Point
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
    """Make `_stratified_estimate` keep the indicator and box it is given."""
    seen = {}

    def keep(indicator, lo, hi, samples, seed):
        seen.update(indicator=indicator, lo=lo, hi=hi)

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


@pytest.mark.parametrize("name,center,r", _cases())
def test_ball_indicator_is_the_kdtree_decision_row_for_row(monkeypatch, name, center, r):
    d = _deck(name)
    seen = _capture(monkeypatch)
    flatgeo.ball_volume(d, center, r, samples=64)
    cloud, center_idx = flatgeo._orbit_cloud(d, center, 4 * r * r)
    cf = np.array([float(c) for c in center])
    rf = float(r)
    pts = _rows(seen, cf, cloud, center_idx, rf)
    dist, idx = cKDTree(cloud).query(pts)
    plain = (idx == center_idx) & (dist <= rf)
    assert plain.any() and not plain.all()
    assert np.array_equal(seen["indicator"](pts), plain)


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
