"""Integer matrix normal forms and abelianization rank certificates.

Smith normal form is computed by classical row/column reduction with
pivot selection by least absolute value, over Python ints (so entries may
grow without overflow). The transforms U, V are tracked so callers can
verify U*M*V = D exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Integral
from typing import List, Sequence, Tuple

from .errors import CapExceeded, OrbitlabError

IntMatrix = List[List[int]]


def _integer(x, what: str = "entries") -> int:
    """``x`` as an int; floats, bools and strings are refused, never truncated."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{what} must be integers, got {x!r}")
    return int(x)


def _int_rows(rows) -> IntMatrix:
    return [[_integer(x) for x in row] for row in rows]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_determinant(m: IntMatrix) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination.

    After step k every entry of the trailing block is a (k+1)-minor of m,
    so each division by the previous pivot is exact and no entry grows
    past the size of a minor.
    """
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: Sequence[Sequence[int]]) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular, and the
    diagonal of D nonnegative with d1 | d2 | ... .
    """
    a = _int_rows(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row_dst += k * row_src
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for row in a:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for s in range(min(rows, cols)):
        while True:
            # smallest-magnitude nonzero pivot in the trailing block
            best = None
            for i in range(s, rows):
                for j in range(s, cols):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            swap_rows(s, best[0])
            swap_cols(s, best[1])
            if a[s][s] < 0:
                negate_row(s)
            # clear the pivot row and column by euclidean steps
            dirty = False
            for i in range(s + 1, rows):
                if a[i][s] != 0:
                    q = a[i][s] // a[s][s]
                    add_row(s, i, -q)
                    if a[i][s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if a[s][j] != 0:
                    q = a[s][j] // a[s][s]
                    add_col(s, j, -q)
                    if a[s][j] != 0:
                        dirty = True
            if dirty:
                continue
            # divisibility sweep: pivot must divide the whole trailing block
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if a[i][j] % a[s][s] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, s, 1)
        if s < min(rows, cols) and a[s][s] < 0:
            negate_row(s)
    return u, a, v


def _diagonal(d: IntMatrix) -> List[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def snf_diagonal(m: Sequence[Sequence[int]]) -> List[int]:
    _, d, _ = smith_normal_form(m)
    return _diagonal(d)


@dataclass(frozen=True)
class SmithCertificate:
    """A Smith form with its three checks, each decided exactly."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    diagonal: List[int]
    identity_ok: bool  # U * M * V == D
    unimodular: bool  # det U and det V are +-1
    chain_ok: bool  # d_i >= 0 and d_1 | d_2 | ... (0 divides only 0)

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.unimodular and self.chain_ok


def smith_certificate(m: Sequence[Sequence[int]]) -> SmithCertificate:
    """Smith normal form of ``m``, checked against its defining properties."""
    u, d, v = smith_normal_form(m)
    diag = _diagonal(d)
    return SmithCertificate(
        u, d, v, diag,
        identity_ok=int_mat_mul(int_mat_mul(u, _int_rows(m)), v) == d,
        unimodular=abs(int_determinant(u)) == 1 and abs(int_determinant(v)) == 1,
        chain_ok=all(x >= 0 for x in diag)
        and all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:])),
    )


def integer_rank(m: Sequence[Sequence[int]]) -> int:
    if not m or not m[0]:
        return 0
    return sum(1 for x in snf_diagonal(m) if x != 0)


@dataclass(frozen=True)
class AbelianPresentation:
    """A finitely generated abelian group Z^m / (row lattice of relations)."""

    num_generators: int
    relations: tuple  # tuple of int tuples, each of length num_generators

    def __init__(self, num_generators: int, relations: Sequence[Sequence[int]] = ()):
        num_generators = _integer(num_generators, "generator counts")
        if num_generators < 0:
            raise ValueError("the generator count must be nonnegative")
        rel = tuple(map(tuple, _int_rows(relations)))
        for row in rel:
            if len(row) != num_generators:
                raise ValueError("relation length must equal the generator count")
        object.__setattr__(self, "num_generators", num_generators)
        object.__setattr__(self, "relations", rel)


def abelian_rank(p: AbelianPresentation) -> int:
    """Free rank of Z^m modulo the relation lattice."""
    if not p.relations:
        return p.num_generators
    return p.num_generators - integer_rank([list(r) for r in p.relations])


def independence_check(elements: Sequence[Sequence[int]], p: AbelianPresentation) -> bool:
    """True when no nonzero integer combination of the elements lies in the
    relation lattice, i.e. they are independent in the presented group."""
    elems = [tuple(e) for e in _int_rows(elements)]
    for e in elems:
        if len(e) != p.num_generators:
            raise ValueError("element length must equal the generator count")
    if not elems:
        return True
    base = [list(r) for r in p.relations]
    stacked = base + [list(e) for e in elems]
    base_rank = integer_rank(base) if base else 0
    return integer_rank(stacked) == base_rank + len(elems)


def _l1_ball(k: int, r: int):
    """All integer vectors l in Z^k with sum |l_i| <= r, in a fixed order."""
    if k == 0:
        yield ()
        return
    for head in range(-r, r + 1):
        for tail in _l1_ball(k - 1, r - abs(head)):
            yield (head,) + tail


def _power_tables(identity, elements, bound: int) -> List[dict]:
    """Per element h, the table e -> h^e for |e| <= bound."""
    tables = []
    for h in elements:
        table = {0: identity}
        hinv = h.inverse()
        for e in range(1, bound + 1):
            table[e] = table[e - 1] * h
            table[-e] = table[-(e - 1)] * hinv
        tables.append(table)
    return tables


@dataclass(frozen=True)
class HurewiczReport:
    radius: int
    abelian_count: int
    group_count: int
    injective: bool
    bound_holds: bool


def hurewicz_ball_injection(group, generator_images, r: int, cap: int = 10_000_000) -> HurewiczReport:
    """Certify that the abelianized ball of radius r injects back into the group.

    ``generator_images`` pairs each chosen group generator g_i with its
    image vector in Z^k. The images must be independent over Z (full
    rank); the section sends sum l_i * gamma_i to g_1^{l_1} ... g_k^{l_k},
    and injectivity is checked by exact element comparison.
    """
    from .groups import word_ball_counts  # local import to avoid a cycle

    gens = [g for g, _ in generator_images]
    images = [tuple(im) for im in _int_rows(im for _, im in generator_images)]
    k = len(images)
    if k == 0:
        raise ValueError("need at least one generator image")
    dim = len(images[0])
    if any(len(im) != dim for im in images):
        raise ValueError("image vectors must share a length")
    if integer_rank([list(im) for im in images]) != k:
        raise ValueError("generator images are not independent over Z")

    tables = _power_tables(group.identity, gens, r)
    seen = {}
    count = 0
    for l in _l1_ball(k, r):
        g = group.identity
        for table, li in zip(tables, l):
            g = g * table[li]
        if g in seen:
            return HurewiczReport(r, count + 1, -1, False, False)
        seen[g] = l
        count += 1
        if count > cap:
            raise CapExceeded("abelian ball exceeded cap", limit=cap)
    group_count = word_ball_counts(group, r, cap=cap)[-1]
    return HurewiczReport(
        radius=r,
        abelian_count=count,
        group_count=group_count,
        injective=True,
        bound_holds=group_count >= count,
    )


@dataclass(frozen=True)
class PolycyclicReport:
    box: int
    points: int
    collisions: tuple
    injective: bool


def polycyclic_injection(identity, series_elements, box: int, cap: int = 10_000_000) -> PolycyclicReport:
    """Evaluate (l_1..l_k) -> h_1^{l_1} ... h_k^{l_k} on the integer box
    [-box, box]^k and report any collisions.

    A collision falsifies the claim that the h_i descend from a cyclic
    series with infinite quotients; an empty collision list certifies
    injectivity on the box (and nothing more).
    """
    if box < 0:
        raise ValueError("box must be nonnegative")
    k = len(series_elements)
    total = (2 * box + 1) ** k
    if total > cap:
        raise CapExceeded(f"box holds {total} points, over the cap", limit=cap)
    tables = _power_tables(identity, series_elements, box)
    seen = {}
    collisions = []
    for exps in product(range(-box, box + 1), repeat=k):
        g = identity
        for table, e in zip(tables, exps):
            g = g * table[e]
        if g in seen:
            collisions.append((seen[g], exps))
        else:
            seen[g] = exps
    return PolycyclicReport(
        box=box,
        points=total,
        collisions=tuple(collisions),
        injective=not collisions,
    )
