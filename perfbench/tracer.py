"""Spans recorded from outside the library, and the per-layer metrics.

`Tracer.install` replaces public functions of each orbitlab module with
wrappers that record a span (name, start, end, parent, work) in memory;
`Tracer.remove` puts every original object back. Names bound into other
modules with ``from .euclid import ...`` are replaced there too. The
wrappers exist only between install and remove, so an untraced run
executes the library unmodified.

A span's self time is its duration minus the time its child spans cover.
Every span sits under a ``bench.pass`` root, so the self times of one
pass add up to that pass's traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

LAYERS = ("euclid", "groups", "orbit", "flatgeo", "warped", "algebra", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same list, -1 for a root
    work: object  # items produced (int), or (nodes, edges) for dijkstra


def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the summed durations of its children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - covered[i] for i, s in enumerate(spans)]


# ancestors whose descendants some metrics count
ANCESTORS = (
    "groups.enumerate_orbit",
    "orbit.orbit_growth",
    "orbit.finite_index_comparison",
    "flatgeo.ball_volume",
    "flatgeo.thin_set_volume",
    "flatgeo.ray_extension",
)
_BIT = {name: 1 << i for i, name in enumerate(ANCESTORS)}


class Aggregate(NamedTuple):
    count: Dict[str, int]
    self_s: Dict[str, float]
    work: Dict[str, int]
    work2: Dict[str, int]
    under: Dict[Tuple[str, str], int]  # (span name, ancestor name) -> count
    layer_s: Dict[str, float]


def aggregate(spans: Sequence[Span]) -> Aggregate:
    count: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    work: Dict[str, int] = defaultdict(int)
    work2: Dict[str, int] = defaultdict(int)
    under: Dict[Tuple[str, str], int] = defaultdict(int)
    layer_s: Dict[str, float] = defaultdict(float)
    above = [0] * len(spans)
    for i, (s, own) in enumerate(zip(spans, self_times(spans))):
        count[s.name] += 1
        self_s[s.name] += own
        layer_s[s.name.split(".", 1)[0]] += own
        if isinstance(s.work, tuple):
            work[s.name] += s.work[0]
            work2[s.name] += s.work[1]
        else:
            work[s.name] += s.work
        if s.parent >= 0:
            p = spans[s.parent]
            bits = above[s.parent] | _BIT.get(p.name, 0)
            above[i] = bits
            if bits:
                for anc, bit in _BIT.items():
                    if bits & bit:
                        under[(s.name, anc)] += 1
    return Aggregate(count, self_s, work, work2, under, layer_s)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: Aggregate) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (0 where a layer is idle)."""
    c, s, w, u = agg.count, agg.self_s, agg.work, agg.under
    m: Dict[str, float] = {}
    # euclid
    m["euclid.isometries_built"] = c["euclid.Isometry"]
    m["euclid.isometry_init_s"] = s["euclid.Isometry"]
    m["euclid.ns_per_isometry"] = 1e9 * _ratio(s["euclid.Isometry"], c["euclid.Isometry"])
    m["euclid.compose_calls"] = c["euclid.Isometry.compose"]
    m["euclid.inverse_calls"] = c["euclid.Isometry.inverse"]
    m["euclid.mat_inverse_calls"] = c["euclid.mat_inverse"]
    m["euclid.mat_inverse_s"] = s["euclid.mat_inverse"]
    # groups
    enum = "groups.enumerate_orbit"
    m["groups.enumerate_orbit_calls"] = c[enum]
    m["groups.orbit_hits"] = w[enum]
    m["groups.enumerate_orbit_self_s"] = s[enum]
    m["groups.isometries_per_hit"] = _ratio(u[("euclid.Isometry", enum)], w[enum])
    m["groups.lattice_enum_calls"] = c["groups.lattice_enum"]
    m["groups.lattice_points_kept"] = w["groups.lattice_enum"]
    m["groups.lattice_enum_s"] = s["groups.lattice_enum"]
    m["groups.ns_per_lattice_point"] = 1e9 * _ratio(s["groups.lattice_enum"], w["groups.lattice_enum"])
    m["groups.word_ball_elements"] = w["groups.word_ball"]
    m["groups.word_ball_s"] = s["groups.word_ball"] + s["groups.word_ball_counts"]
    m["groups.quotient_dist_calls"] = c["groups.quotient_dist_sq"]
    m["groups.quotient_dist_s"] = s["groups.quotient_dist_sq"]
    m["groups.coset_index_calls"] = c["groups.coset_index"]
    m["groups.coset_index_s"] = s["groups.coset_index"]
    m["groups.deck_builds"] = c["groups.DeckGroup"]
    m["groups.deck_build_s"] = s["groups.DeckGroup"] + s["groups.builtin_deck_group"] + s["groups.zk_deck"]
    # orbit
    m["orbit.milnor_s"] = s["orbit.milnor_check"]
    m["orbit.growth_s"] = s["orbit.orbit_growth"]
    m["orbit.index_s"] = s["orbit.finite_index_comparison"]
    m["orbit.enumerations_per_call"] = _ratio(
        u[(enum, "orbit.orbit_growth")] + u[(enum, "orbit.finite_index_comparison")],
        c["orbit.orbit_growth"] + c["orbit.finite_index_comparison"],
    )
    # flatgeo
    volumes = ("flatgeo.ball_volume", "flatgeo.thin_set_volume")
    samples = sum(w[v] for v in volumes)
    volume_self = sum(s[v] for v in volumes)
    redecisions = u[("groups.quotient_dist_sq", "flatgeo.thin_set_volume")]
    m["flatgeo.mc_samples"] = samples
    m["flatgeo.volume_self_s"] = volume_self
    m["flatgeo.ns_per_sample"] = 1e9 * _ratio(volume_self, samples)
    m["flatgeo.kdtree_points"] = w["flatgeo.cKDTree.query"]
    m["flatgeo.kdtree_query_s"] = s["flatgeo.cKDTree.query"]
    m["flatgeo.orbit_cloud_points"] = w["flatgeo.cKDTree"]
    m["flatgeo.enumerations_per_volume"] = _ratio(
        sum(u[(enum, v)] for v in volumes), sum(c[v] for v in volumes))
    m["flatgeo.exact_redecisions"] = redecisions
    m["flatgeo.redecision_ratio"] = _ratio(redecisions, w["flatgeo.thin_set_volume"])
    m["flatgeo.ray_calls"] = c["flatgeo.ray_extension"]
    m["flatgeo.ray_s"] = s["flatgeo.ray_extension"]
    m["flatgeo.ray_enums_per_call"] = _ratio(u[(enum, "flatgeo.ray_extension")], c["flatgeo.ray_extension"])
    m["flatgeo.dirichlet_s"] = s["flatgeo.dirichlet_contains"]
    m["flatgeo.nearest_lifts_s"] = s["flatgeo.nearest_lifts"]
    m["flatgeo.extension_at_most_s"] = s["flatgeo.extension_at_most"]
    # warped
    certified = sum(c[n] for n in ("warped.ball_volume", "warped.deck_distances", "warped.point_distance"))
    m["warped.dijkstra_calls"] = c["warped.dijkstra"]
    m["warped.dijkstra_s"] = s["warped.dijkstra"]
    m["warped.grid_nodes"] = w["warped.dijkstra"]
    m["warped.grid_edges"] = agg.work2["warped.dijkstra"]
    m["warped.ns_per_edge"] = 1e9 * _ratio(s["warped.dijkstra"], agg.work2["warped.dijkstra"])
    m["warped.self_s"] = agg.layer_s["warped"] - s["warped.dijkstra"]
    m["warped.certified_values"] = certified
    m["warped.solves_per_certificate"] = _ratio(c["warped.dijkstra"], certified)
    # algebra
    m["algebra.snf_calls"] = c["algebra.smith_normal_form"]
    m["algebra.snf_s"] = s["algebra.smith_normal_form"]
    m["algebra.det_calls"] = c["algebra.int_determinant"]
    m["algebra.det_s"] = s["algebra.int_determinant"]
    m["algebra.injection_points"] = w["algebra.polycyclic_injection"] + w["algebra.hurewicz_ball_injection"]
    # cli
    m["cli.commands"] = c["cli.main"]
    m["cli.parse_s"] = s["cli.build_parser"] + s["cli.parse_args"]
    m["cli.self_s"] = s["cli.main"]
    # self time of every layer, and of the benchmark's own code
    for layer in LAYERS:
        m[f"{layer}.layer_s"] = agg.layer_s[layer]
    m["bench.harness_s"] = agg.layer_s["bench"]
    return m


def _len(result, args):
    return len(result)


def _points(result, args):
    return len(args[0])


def _samples(result, args):
    return result.samples


def _graph_size(result, args):
    graph = args[0]
    return (graph.shape[0], graph.nnz)


class _TracedTree:
    """A cKDTree whose ``query`` records a span."""

    def __init__(self, tree, query):
        self._tree = tree
        self.query = query

    def __getattr__(self, name):
        return getattr(self._tree, name)


class Tracer:
    """Install and remove the wrappers; collect spans while installed."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def wrap(self, fn: Callable, name: str, work: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                amount = work(result, args) if work is not None and result is not None else 0
                spans[i] = Span(name, start, end, parent, amount)

        return traced

    def span(self, name: str, fn: Callable, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self.wrap(fn, name)(*args)

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans taken while one is still open")
        out = list(self.spans)
        self.spans.clear()
        return out

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _hook(self, owners: Sequence[object], attr: str, name: str, work=None) -> None:
        present = [o for o in owners if attr in o.__dict__]
        if not present:
            self.missing.append(f"{name} ({attr})")
            return
        original = present[0].__dict__[attr]
        wrapped = self.wrap(original, name, work)
        for owner in present:
            if owner.__dict__[attr] is original:
                self._replace(owner, attr, wrapped)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("wrappers are already installed")
        self.missing = []
        from orbitlab import algebra, cli, euclid, flatgeo, groups, orbit, warped

        iso, deck, lattice = euclid.Isometry, groups.DeckGroup, groups.TranslationLattice
        hook = self._hook
        hook([iso], "__init__", "euclid.Isometry")
        hook([iso], "compose", "euclid.Isometry.compose")
        hook([iso], "inverse", "euclid.Isometry.inverse")
        hook([euclid, groups, flatgeo], "mat_inverse", "euclid.mat_inverse")

        hook([deck], "__init__", "groups.DeckGroup")
        hook([groups], "builtin_deck_group", "groups.builtin_deck_group")
        hook([groups], "zk_deck", "groups.zk_deck")
        hook([deck], "enumerate_orbit", "groups.enumerate_orbit", _len)
        hook([deck], "enumerate_orbit_plus_sqrt", "groups.enumerate_orbit", _len)
        hook([deck], "quotient_dist_sq", "groups.quotient_dist_sq")
        hook([deck], "coset_index", "groups.coset_index")
        # the one enumeration behind points_near, points_near_plus_sqrt and
        # nearest_dist_sq; only here is the number of kept points visible
        hook([lattice], "_enumerate", "groups.lattice_enum", _len)
        hook([groups, orbit], "word_ball", "groups.word_ball", _len)
        hook([groups, orbit, flatgeo], "word_ball_counts", "groups.word_ball_counts")

        for attr in ("milnor_check", "orbit_growth", "finite_index_comparison",
                     "orbit_ball_count", "translation_subgroup"):
            hook([orbit], attr, f"orbit.{attr}")

        hook([flatgeo], "verify_dual", "flatgeo.verify_dual")
        hook([flatgeo], "ball_volume", "flatgeo.ball_volume", _samples)
        hook([flatgeo], "thin_set_volume", "flatgeo.thin_set_volume", _samples)
        for attr in ("dirichlet_contains", "nearest_lifts", "ray_extension", "extension_at_most"):
            hook([flatgeo], attr, f"flatgeo.{attr}")
        if "cKDTree" in flatgeo.__dict__:
            tree_cls = flatgeo.cKDTree

            def traced_tree(data, *args, **kwargs):
                tree = tree_cls(data, *args, **kwargs)
                return _TracedTree(tree, self.wrap(tree.query, "flatgeo.cKDTree.query", _points))

            self._replace(flatgeo, "cKDTree",
                          self.wrap(traced_tree, "flatgeo.cKDTree", lambda r, a: r.n))
        else:
            self.missing.append("flatgeo.cKDTree")

        for attr in ("falsifying_ratios", "verify_dual", "deck_distances", "ball_volume", "point_distance"):
            hook([warped], attr, f"warped.{attr}")
        hook([warped], "dijkstra", "warped.dijkstra", _graph_size)

        hook([algebra], "smith_normal_form", "algebra.smith_normal_form")
        hook([algebra], "int_determinant", "algebra.int_determinant")
        hook([algebra], "polycyclic_injection", "algebra.polycyclic_injection", lambda r, a: r.points)
        hook([algebra], "hurewicz_ball_injection", "algebra.hurewicz_ball_injection",
             lambda r, a: r.abelian_count)

        hook([cli], "main", "cli.main")
        if "build_parser" in cli.__dict__:
            build = cli.build_parser

            def traced_build():
                parser = build()
                parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")
                return parser

            self._replace(cli, "build_parser", self.wrap(traced_build, "cli.build_parser"))
        else:
            self.missing.append("cli.build_parser")
        if self.missing:
            print("tracer: not found, left unwrapped: " + ", ".join(self.missing), file=sys.stderr)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def write_spans(path, spans: Sequence[Span]) -> None:
    """One CSV line per span: index, parent, name, start and end in ns
    relative to the first span, and work."""
    t0 = spans[0].start if spans else 0.0
    with gzip.open(path, "wt", encoding="ascii") as fh:
        fh.write("id,parent,name,start_ns,end_ns,work\n")
        for i, s in enumerate(spans):
            work = "/".join(map(str, s.work)) if isinstance(s.work, tuple) else s.work
            fh.write(f"{i},{s.parent},{s.name},{round((s.start - t0) * 1e9)},"
                     f"{round((s.end - t0) * 1e9)},{work}\n")
