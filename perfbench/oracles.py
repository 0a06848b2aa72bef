"""Reference answers computed without importing orbitlab.

Every check here re-derives the expected output from first principles:
brute force over boxes of lattice coordinates times coset
representatives in exact `Fraction` arithmetic, closed forms, or exact
identities. The bundled spaces are described again below, by hand, so a
bug in the library's own space definitions cannot leak into its oracle.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List

F = Fraction

# A space is (lattice basis, coset representatives); a representative is
# (A, t) for the isometry x -> A x + t, and the element rep * t_v acts as
# x -> A (x + v) + t. All bundled bases are orthogonal, which the box
# bounds in `orbit_elements` rely on.


def _ident(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _flip_second(n: int):
    rows = [list(r) for r in _ident(n)]
    rows[1][1] = -1
    return tuple(tuple(r) for r in rows)


def _zero(n: int):
    return tuple(F(0) for _ in range(n))


def _glide(n: int):
    return (_flip_second(n), tuple(F(1 if i == 0 else 0) for i in range(n)))


SPACES = {
    "z2": (((1, 0), (0, 1)), ((_ident(2), _zero(2)),)),
    "z3": (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((_ident(3), _zero(3)),)),
    "torus2": (((1, 0), (0, 1)), ((_ident(2), _zero(2)),)),
    "cylinder2": (((0, 1),), ((_ident(2), _zero(2)),)),
    "moebius2": (((2, 0),), ((_ident(2), _zero(2)), _glide(2))),
    "klein2": (((2, 0), (0, 1)), ((_ident(2), _zero(2)), _glide(2))),
    "moebiusxT": (((2, 0, 0), (0, 0, 1)), ((_ident(3), _zero(3)), _glide(3))),
}

# word generators of each space's deck group, before closing under inverses
WORD_GENERATORS = {
    "z2": [(_ident(2), (F(1), F(0))), (_ident(2), (F(0), F(1)))],
    "z3": [(_ident(3), tuple(F(int(i == j)) for j in range(3))) for i in range(3)],
    "moebius2": [_glide(2)],
    "klein2": [_glide(2), (_ident(2), (F(0), F(1)))],
}

# area (volume) of each compact quotient: lattice covolume / coset count
COMPACT_VOLUME = {"torus2": F(1), "klein2": F(1)}

# coordinate measuring distance to the core, for the thin-set reference
SOUL_AXIS = {"cylinder2": 0, "moebius2": 1, "moebiusxT": 1}

# half-widths of a fundamental domain along the compact axes (the glide
# halves the x period of moebius2 and moebiusxT)
SLAB_HALF_WIDTHS = {
    "cylinder2": (F(0), F(1, 2)),
    "moebius2": (F(1, 2), F(0)),
    "moebiusxT": (F(1, 2), F(0), F(1, 2)),
}


def dot(a, b):
    return sum((x * y for x, y in zip(a, b)), F(0))


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def matvec(a, x):
    return tuple(sum((F(r) * y for r, y in zip(row, x)), F(0)) for row in a)


def act(rep, v, x):
    """(rep * t_v)(x) = A (x + v) + t."""
    a, t = rep
    return tuple(y + s for y, s in zip(matvec(a, tuple(p + q for p, q in zip(x, v))), t))


def orbit_elements(space: str, x, center, rho_sq):
    """Every (rep, v, image, dist_sq) with |(rep * t_v)(x) - center|^2 <= rho_sq.

    |A (x + v) + t - c| = |v - w| with w = A^T (c - t) - x, and for an
    orthogonal basis |v - w| <= rho bounds each coordinate m_j of v by
    |m_j |b_j|^2 - <w, b_j>| <= rho |b_j|. The scan runs in integers
    scaled by the common denominator of x, center and the translations.
    """
    basis, reps = SPACES[space]
    x = tuple(F(c) for c in x)
    center = tuple(F(c) for c in center)
    rho_sq = F(rho_sq)
    den = 1
    for q in x + center + tuple(c for _, t in reps for c in t):
        den = den * q.denominator // math.gcd(den, q.denominator)
    xs = [int(c * den) for c in x]
    cs = [int(c * den) for c in center]
    limit = rho_sq * den * den
    rho = math.sqrt(float(rho_sq)) + 1e-9
    n = len(x)
    out = []
    for rep in reps:
        a, t = rep
        ts = [int(c * den) for c in t]
        w = sub(matvec(tuple(zip(*a)), sub(center, t)), x)
        ranges = []
        for b in basis:
            nb = dot(b, b)
            mid = float(dot(w, b) / nb)
            half = rho / math.sqrt(float(nb))
            ranges.append(range(math.floor(mid - half) - 1, math.ceil(mid + half) + 2))
        for m in _product(ranges):
            v = [sum(mj * b[i] for mj, b in zip(m, basis)) for i in range(n)]
            y = [xs[i] + v[i] * den for i in range(n)]
            img = [sum(a[i][k] * y[k] for k in range(n)) + ts[i] for i in range(n)]
            d2 = sum((img[i] - cs[i]) ** 2 for i in range(n))
            if d2 <= limit:
                out.append((rep, tuple(F(c) for c in v), tuple(F(c, den) for c in img), F(d2, den * den)))
    return out


def _product(ranges):
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for tail in _product(ranges[1:]):
            yield (head,) + tail


def orbit_count(space: str, x, radius_sq) -> int:
    """Distinct orbit points of x in the closed ball of squared radius radius_sq."""
    return len({img for _, _, img, _ in orbit_elements(space, x, x, radius_sq)})


def sqrt_leq_r_plus_sqrt(d2, r, q):
    """sqrt(d2) <= r + sqrt(q), decided exactly for r, q >= 0."""
    a = d2 - r * r - q
    return a <= 0 or a * a <= 4 * r * r * q


# ---------------------------------------------------------------------------
# words


def zk_word_ball(k: int, r: int) -> int:
    """#{v in Z^k : |v|_1 <= r} = sum_i 2^i C(k, i) C(r, i)."""
    return sum(2 ** i * math.comb(k, i) * math.comb(r, i) for i in range(k + 1))


def _iso_mul(f, g):
    """(f g)(x) = f(g(x)) for isometries stored as (A, t)."""
    fa, ft = f
    ga, gt = g
    a = tuple(tuple(sum(fa[i][k] * ga[k][j] for k in range(len(ga))) for j in range(len(ga)))
              for i in range(len(fa)))
    t = tuple(y + s for y, s in zip(matvec(fa, gt), ft))
    return (a, t)


def _iso_inv(f):
    a, t = f
    at = tuple(zip(*a))
    return (at, tuple(-y for y in matvec(at, t)))


def word_ball_sizes(identity, generators, mul, inv, r: int) -> List[int]:
    """Cumulative word-ball sizes by breadth-first search."""
    gens = []
    for g in generators:
        for h in (g, inv(g)):
            if h != identity and h not in gens:
                gens.append(h)
    seen = {identity}
    frontier = [identity]
    sizes = [1]
    for _ in range(r):
        grown = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
        frontier = grown
        sizes.append(len(seen))
    return sizes


def heis_mul(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def heis_inv(x):
    return (-x[0], -x[1], -x[2] + x[0] * x[1])


def heisenberg_ball_sizes(r: int) -> List[int]:
    return word_ball_sizes((0, 0, 0), [(1, 0, 0), (0, 1, 0)], heis_mul, heis_inv, r)


def space_word_ball_sizes(space: str, r: int) -> List[int]:
    n = len(SPACES[space][0][0])
    ident = (_ident(n), _zero(n))
    return word_ball_sizes(ident, WORD_GENERATORS[space], _iso_mul, _iso_inv, r)


def displacement_sq(iso, x):
    x = tuple(F(c) for c in x)
    a, t = iso
    img = tuple(y + s for y, s in zip(matvec(a, x), t))
    return dot(sub(img, x), sub(img, x))


# ---------------------------------------------------------------------------
# checks for orbit-batch


def check_milnor(space, x, radii, report) -> List[str]:
    problems = []
    gens = WORD_GENERATORS[space]
    h_sq = max(displacement_sq(g, x) for g in gens)
    if report.displacement_bound_sq != h_sq:
        problems.append(f"h^2 {report.displacement_bound_sq} != {h_sq}")
    rs = sorted(radii)
    words = space_word_ball_sizes(space, rs[-1])
    if space in ("z2", "z3"):
        k = int(space[1])
        if words != [zk_word_ball(k, r) for r in range(rs[-1] + 1)]:
            problems.append("oracle BFS disagrees with the Z^k closed form")
    if report.pointwise_failures:
        problems.append(f"{len(report.pointwise_failures)} pointwise failures")
    if [row.radius for row in report.rows] != rs:
        problems.append("radii differ")
        return problems
    for row in report.rows:
        wc = words[row.radius]
        oc = orbit_count(space, x, h_sq * row.radius * row.radius)
        if (row.word_count, row.orbit_count, row.ok) != (wc, oc, wc <= oc):
            problems.append(
                f"r={row.radius}: got ({row.word_count}, {row.orbit_count}, {row.ok}), "
                f"want ({wc}, {oc}, {wc <= oc})"
            )
    if not report.ok:
        problems.append("containment reported as failing")
    return problems


def check_growth(space, x, radii, series) -> List[str]:
    want = tuple(orbit_count(space, x, F(r) * F(r)) for r in sorted(radii))
    if tuple(series.counts) != want:
        return [f"counts {series.counts} != {want}"]
    return []


def check_index(space, x, radii, report) -> List[str]:
    """Subgroup = the translation lattice; index = number of cosets."""
    basis, reps = SPACES[space]
    index = len(reps)
    # the transversal is {identity, first word generator}, so r0^2 is the
    # glide's displacement (26/25 and 34/25 at the paper's points)
    glide = WORD_GENERATORS[space][0]
    slack = displacement_sq(glide, x)
    problems = []
    if (report.index, report.slack_dist_sq) != (index, slack):
        problems.append(f"index/slack ({report.index}, {report.slack_dist_sq}) != ({index}, {slack})")
    for row, r in zip(report.rows, sorted(radii)):
        whole = orbit_count(space, x, F(r) * F(r))
        reach = (F(r) + F(math.isqrt(slack.numerator * slack.denominator) + 1, slack.denominator)) ** 2
        lattice_pts = {
            img for rep, _, img, d2 in orbit_elements(space, x, x, reach)
            if rep is reps[0] and sqrt_leq_r_plus_sqrt(d2, F(r), slack)
        }
        got = (row.radius, row.whole_count, row.subgroup_count_extended, row.bound, row.ok)
        want = (r, whole, len(lattice_pts), index * len(lattice_pts), whole <= index * len(lattice_pts))
        if got != want:
            problems.append(f"row {got} != {want}")
    if len(report.rows) != len(radii) or not report.ok:
        problems.append("comparison reported as failing")
    return problems


def check_word_counts(group, radius, counts) -> List[str]:
    if group == "heisenberg":
        want = heisenberg_ball_sizes(radius)
        if any(want[r] < 2 * r * r + 2 * r + 1 for r in range(radius + 1)):
            return ["oracle heisenberg ball below its quadratic floor"]
    else:
        want = [zk_word_ball(int(group[1]), r) for r in range(radius + 1)]
    return [] if list(counts) == want else [f"word counts {counts} != {want}"]


def check_polycyclic(box, report) -> List[str]:
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    seen = set()
    for l in _product([range(-box, box + 1)] * 3):
        g = (0, 0, 0)
        for h, e in zip(gens, l):
            step = h if e >= 0 else heis_inv(h)
            for _ in range(abs(e)):
                g = heis_mul(g, step)
        seen.add(g)
    points = (2 * box + 1) ** 3
    want = (points, len(seen) == points, ())
    got = (report.points, report.injective, tuple(report.collisions))
    return [] if got == want else [f"polycyclic {got[:2]} != {want[:2]}"]


def int_det(m) -> int:
    """Determinant by Fraction elimination."""
    a = [[F(x) for x in row] for row in m]
    n = len(a)
    det = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def check_snf(m, u, d, v) -> List[str]:
    problems = []
    if _mul(_mul(u, m), v) != d:
        problems.append("U*M*V != D")
    if abs(int_det(u)) != 1 or abs(int_det(v)) != 1:
        problems.append("transform not unimodular")
    rows, cols = len(m), len(m[0])
    if any(d[i][j] != 0 for i in range(rows) for j in range(cols) if i != j):
        problems.append("D is not diagonal")
    diag = [d[i][i] for i in range(min(rows, cols))]
    if any(x < 0 for x in diag):
        problems.append("negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            problems.append(f"divisibility chain broken at {a} | {b}")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo references


def cylinder_ball_volume(r: float) -> float:
    """Area of a radius-r disc on the circumference-1 flat cylinder.

    Slices |x| <= u0 = sqrt(r^2 - 1/4) wrap the whole circle; beyond that
    each slice has length 2 sqrt(r^2 - x^2).
    """
    if r <= 0.5:
        return math.pi * r * r
    u0 = math.sqrt(r * r - 0.25)
    tail = 4.0 * (r * r * math.pi / 4.0 - u0 * 0.25 - 0.5 * r * r * math.asin(u0 / r))
    return 2.0 * u0 + tail


def reference_volume(space: str, r: float):
    """Exact ball volume where a closed form is known, else None."""
    if space == "cylinder2":
        return cylinder_ball_volume(r)
    if space in COMPACT_VOLUME and r >= 2.0:
        # the radius-2 ball already covers a fundamental domain of diameter < 2
        return float(COMPACT_VOLUME[space])
    if space == "torus2" and r >= math.sqrt(2) / 2:
        return 1.0
    return None


def check_volume(space, r, value, sigma, sigmas=5.0) -> List[str]:
    ref = reference_volume(space, float(r))
    if ref is None:
        return []
    if not abs(value - ref) <= sigmas * sigma:
        return [f"{space} B_{r} = {value:.5f} +- {sigma:.5f}, reference {ref:.5f}"]
    return []


def check_flat_dual(space, x, radii, report) -> List[str]:
    n = len(x)
    omega = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
    problems = []
    if [row.radius for row in report.rows] != [float(r) for r in sorted(radii)]:
        return ["radii differ"]
    for row in report.rows:
        r = F(row.radius)
        want = (orbit_count(space, x, r * r), orbit_count(space, x, 4 * r * r))
        if (row.count_r, row.count_2r) != want:
            problems.append(f"r={row.radius}: counts {(row.count_r, row.count_2r)} != {want}")
        lower = row.count_2r * (row.volume + 3 * row.sigma) >= omega * row.radius ** n
        upper = row.count_r * (row.volume - 3 * row.sigma) <= omega * (2 * row.radius) ** n
        if not (lower and upper and row.lower_ok and row.upper_ok):
            problems.append(f"r={row.radius}: an inequality failed")
        problems += check_volume(space, row.radius, row.volume, row.sigma)
    return problems


def check_thin(space, x, r, h, est, sigmas=5.0) -> List[str]:
    """Once every point of the slab |core coordinate| <= h lies within r of
    the centre, the thin set is the whole slab, of volume 2h times the
    unit cross-section of each bundled quotient."""
    axis = SOUL_AXIS[space]
    far = sum(c * c for i, c in enumerate(SLAB_HALF_WIDTHS[space]) if i != axis)
    far += (F(h) + abs(F(x[axis]))) ** 2
    if F(r) * F(r) < far:
        return []
    ref = 2.0 * float(h)
    if not abs(est.value - ref) <= sigmas * est.sigma:
        return [f"{space} thin r={r}: {est.value:.4f} +- {est.sigma:.4f}, reference {ref}"]
    return []


# ---------------------------------------------------------------------------
# Dirichlet cells and ray extensions


def nearest(space, center, p):
    """(quotient distance^2 between center and p, sorted distinct nearest lifts of p)."""
    p = tuple(F(c) for c in p)
    center = tuple(F(c) for c in center)
    hits = orbit_elements(space, p, center, dot(sub(p, center), sub(p, center)))
    best = min(d2 for *_, d2 in hits)
    return best, sorted({img for _, _, img, d2 in hits if d2 == best})


def ray(space, center, p, max_cut):
    """Exact ray data toward p: ('orbit',), ('tie',), ('infinite',),
    ('finite', T, d2) or ('beyond', None, d2) when the cut point lies
    farther than max_cut from the center.

    Along center + t d, element u binds at t_u = |c_u|^2 / (-2 <c_u, A_u d>)
    with c_u = u(center) - center. Since t_u >= |c_u| / (2 |d|), the best t
    among all u with |c_u| <= rho is the true minimum once 2 t |d| <= rho;
    rho doubles until that holds or passes 2 max_cut.
    """
    center = tuple(F(c) for c in center)
    d2, lifts = nearest(space, center, p)
    if d2 == 0:
        return ("orbit",)
    if len(lifts) > 1:
        return ("tie",)
    d = sub(lifts[0], center)
    basis, reps = SPACES[space]
    if all(dot(b, d) == 0 for b in basis):
        slopes = [dot(sub(act(rep, _zero(len(d)), center), center), matvec(rep[0], d)) for rep in reps]
        if all(s >= 0 for s in slopes):
            return ("infinite",)
    rho = F(2 * (math.isqrt(math.ceil(d2)) + 2))
    while True:
        rho = min(rho, F(2 * max_cut))
        best = None
        for rep, v, img, c2 in orbit_elements(space, center, center, rho * rho):
            if c2 == 0:
                continue
            slope = dot(sub(img, center), matvec(rep[0], d))
            if slope < 0:
                t = c2 / (-2 * slope)
                if best is None or t < best:
                    best = t
        if best is not None and 4 * best * best * d2 <= rho * rho:
            return ("finite", best, d2)
        if rho >= 2 * max_cut:
            return ("beyond", None, d2)
        rho *= 2


def check_dirichlet(space, center, p, within, payload, ray_data) -> List[str]:
    """``ray_data`` is what `ray` returned for this point."""
    center = tuple(F(c) for c in center)
    p = tuple(F(c) for c in p)
    d2, lifts = nearest(space, center, p)
    problems = []
    in_cell = dot(sub(p, center), sub(p, center)) == d2
    if payload.get("in_cell") != in_cell:
        problems.append(f"in_cell {payload.get('in_cell')} != {in_cell}")
    if payload.get("nearest_dist_sq") != str(d2):
        problems.append(f"nearest_dist_sq {payload.get('nearest_dist_sq')} != {d2}")
    if payload.get("nearest_lifts") != [[str(c) for c in q] for q in lifts]:
        problems.append("nearest lifts differ")
    r = ray_data
    ext = payload.get("extension")
    if r[0] == "orbit":
        return problems + ([] if ext is None else ["extension reported for an orbit point"])
    if r[0] == "tie":
        want = {"infinite": False, "tie": True, "ray_scale": "1", "extension_sq": "0"}
        ok = True
    elif r[0] == "infinite":
        want = {"infinite": True, "tie": False, "ray_scale": None, "extension_sq": None}
        ok = False
    elif r[0] == "finite":
        t = r[1]
        ext_sq = (t - 1) * (t - 1) * r[2]
        want = {"infinite": False, "tie": t == 1, "ray_scale": str(t), "extension_sq": str(ext_sq)}
        ok = ext_sq <= F(within) * F(within)
    else:
        return problems + ["cut point beyond the generator's bound"]
    if ext != want:
        problems.append(f"extension {ext} != {want}")
    got_ok = (payload.get("within") or {}).get("ok")
    if got_ok != ok:
        problems.append(f"within ok {got_ok} != {ok}")
    return problems


def check_orbit_count_rows(space, x, radii, payload) -> List[str]:
    got = [(row["radius"], row["count"]) for row in payload.get("rows", [])]
    want = [(str(F(r)), orbit_count(space, x, F(r) * F(r))) for r in radii]
    return [] if got == want else [f"orbit-count rows {got} != {want}"]


# ---------------------------------------------------------------------------
# warped surface


ASYMPTOTIC = 4.0 * math.sqrt(math.pi)
CHAMFER_SLACK = 1.10  # 8-neighbour grids overshoot off-axis lengths by up to 8%


def warp(r: float) -> float:
    t = abs(r)
    if t <= 1.0:
        return 1.0
    if t >= 2.0:
        return 1.0 / (t * t)
    u = t - 1.0
    return (1.25 * u - 2.0) * u * u + 1.0


def path_upper_bound(start, end, periodic: bool) -> float:
    """Length of the best climb-wrap-descend path: radially to height R,
    along s at R, and back, minimized over R on a fine grid."""
    ds = abs(end[1] - start[1])
    if periodic:
        ds = ds % (2 * math.pi)
        ds = min(ds, 2 * math.pi - ds)
    best = math.inf
    for i in range(-4000, 4001):
        h = i / 250.0
        length = abs(start[0] - h) + abs(end[0] - h) + ds * math.sqrt(warp(h))
        best = min(best, length)
    return best


def check_certified(value, rel, tol) -> List[str]:
    if not (rel <= tol and math.isfinite(value) and value >= 0):
        return [f"certificate gap {rel} over tolerance {tol}"]
    return []


def check_point_distance(start, end, periodic, cv) -> List[str]:
    problems = check_certified(cv.value, cv.rel_diff, cv.tol)
    lower = abs(end[0] - start[0])
    upper = path_upper_bound(start, end, periodic) * CHAMFER_SLACK
    if not lower - 1e-9 <= cv.value <= upper:
        problems.append(f"distance {cv.value:.4f} outside [{lower:.4f}, {upper:.4f}]")
    return problems


def check_deck_distances(k_max, table) -> List[str]:
    problems = check_certified(table.values[-1], table.rel_max, table.tol)
    vals = table.values
    if len(vals) != k_max + 1 or vals[0] != 0.0:
        problems.append("table shape")
        return problems
    for k in range(1, k_max + 1):
        if not vals[k - 1] <= vals[k] + 1e-9 or vals[k] > 2 * math.pi * k * CHAMFER_SLACK:
            problems.append(f"d({k}) = {vals[k]:.4f} not monotone or above the core loop")
            break
    for k in (16, 32, 64):
        if k <= k_max and abs(vals[k] / math.sqrt(k) - ASYMPTOTIC) > 0.10 * ASYMPTOTIC:
            problems.append(f"d({k})/sqrt({k}) = {vals[k] / math.sqrt(k):.3f} off 4 sqrt(pi)")
    return problems


def check_ratios(cs, radii, rows) -> List[str]:
    problems = []
    want_keys = [(float(c), float(r)) for c in cs for r in radii]
    if [(row.scale_c, row.radius) for row in rows] != want_keys:
        return ["ratio rows differ"]
    for row in rows:
        wc = 2 * math.floor(row.scale_c * row.radius) + 1
        ratio = wc * row.volume / (math.pi * row.radius ** 2)
        if row.word_count != wc or abs(row.ratio - ratio) > 1e-12 * max(1.0, ratio):
            problems.append(f"c={row.scale_c} r={row.radius}: ratio mismatch")
        problems += check_certified(row.volume, row.volume_rel, 0.02)
    for c in cs:
        first = next(row.ratio for row in rows if row.scale_c == c and row.radius == radii[0])
        last = next(row.ratio for row in rows if row.scale_c == c and row.radius == radii[-1])
        if not last < first / 2:
            problems.append(f"c={c}: ratio did not halve")
    return problems


def check_warped_dual(report) -> List[str]:
    problems = check_certified(0.0, report.table_rel, 0.02)
    for row in report.rows:
        r = row.radius
        if row.count_r % 2 != 1 or row.count_2r < row.count_r:
            problems.append(f"r={r}: orbit counts {row.count_r}, {row.count_2r}")
        lower = row.count_2r * row.volume >= math.pi * r * r
        upper = row.count_r * row.volume <= 4 * math.pi * r * r
        if not (lower and upper and row.lower_ok and row.upper_ok):
            problems.append(f"r={r}: an inequality failed")
        problems += check_certified(row.volume, row.volume_rel, 0.02)
    return problems
