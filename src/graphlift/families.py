"""Constructors and structural validators for the quantum-space graph families.

All four families share the loop discipline that drives the downstream
classifier: every vertex carries at most one loop, and removing the loops
leaves an acyclic graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import Edge, Graph, GraphError, loop_structure, power_graph, skew_product

# Largest edge count the sphere and projective builders accept. The count is
# known from n before anything is built, so a size a user types ends in a
# GraphError rather than an out-of-memory kill. The largest odd sphere under
# the limit is sphere_odd_graph(1413), with 998,991 edges.
MAX_EDGES = 1_000_000


def _require_edges(family: str, n: int, count: int) -> None:
    if count > MAX_EDGES:
        raise GraphError(f"{family} graph with n={n} has {count} edges, "
                         f"more than MAX_EDGES={MAX_EDGES}")


def _pair_id(head: int, tail: int) -> str:
    # "ji" for an edge i -> j; underscore-separated once labels leave one digit
    if head <= 9 and tail <= 9:
        return f"{head}{tail}"
    return f"{head}_{tail}"


def sphere_odd_graph(n: int) -> Graph:
    """Vertices 1..n with a single edge i -> j (id "ji") for every i <= j."""
    if n < 1:
        raise GraphError("n must be >= 1")
    _require_edges("sphere-odd", n, n * (n + 1) // 2)
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = tuple(
        Edge(_pair_id(j, i), str(i), str(j))
        for j in range(1, n + 1)
        for i in range(1, j + 1)
    )
    return Graph(vertices, edges)


def sphere_even_graph(n: int) -> Graph:
    """The odd-sphere pattern on 1..n plus two extra vertices n+1 and n+2 that
    receive nothing and emit one edge onto each of 1..n."""
    if n < 1:
        raise GraphError("n must be >= 1")
    _require_edges("sphere-even", n, n * (n + 1) // 2 + 2 * n)
    vertices = tuple(str(i) for i in range(1, n + 3))
    edges = [Edge(_pair_id(i, i), str(i), str(i)) for i in range(1, n + 1)]
    edges += [
        Edge(_pair_id(j, i), str(i), str(j))
        for j in range(2, n + 1)
        for i in range(1, j)
    ]
    for extra in (n + 1, n + 2):
        edges += [Edge(_pair_id(i, extra), str(extra), str(i)) for i in range(1, n + 1)]
    return Graph(vertices, tuple(edges))


def projective_graph(n: int) -> Graph:
    """Power graph of the odd sphere: one edge per length-2 path, C(n+2, 3)
    of them."""
    _require_edges("projective", n, n * (n + 1) * (n + 2) // 6)
    return power_graph(sphere_odd_graph(n), 2)


@dataclass(frozen=True)
class LensParams:
    """Parameters (n, p, weights) for the lens construction; weights[i-1] is the
    level step attached to vertex i."""

    n: int
    p: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if self.n < 1:
            raise GraphError("n must be >= 1")
        if self.p < 2:
            raise GraphError("cyclic order p must be >= 2")
        if len(self.weights) != self.n:
            raise GraphError(f"need {self.n} weights, got {len(self.weights)}")
        if any(w < 1 for w in self.weights):
            raise GraphError("weights must be positive")


def require_coprime(params: LensParams) -> None:
    offenders = [
        (i + 1, w) for i, w in enumerate(params.weights) if gcd(w, params.p) != 1
    ]
    if offenders:
        detail = ", ".join(f"gcd(m_{i}={w}, p={params.p}) != 1" for i, w in offenders)
        raise GraphError(f"weights must be coprime to p: {detail}")


def _level_of(skew_vertex: str) -> int:
    return int(skew_vertex.rsplit("@", 1)[1])


def _base_of(skew_vertex: str) -> str:
    return skew_vertex.rsplit("@", 1)[0]


def _admissible_paths_from(skew: Graph, i: str) -> list[tuple[str, ...]]:
    """Admissible leveled paths out of (i, 0), as edge-id tuples in traversal
    order; `lens_graph_coprime` states the rule."""
    start = f"{i}@0"
    found: list[tuple[str, ...]] = []

    def extend(at: str, acc: list[str], blocked: set[str]) -> None:
        for e in skew.out_edges(at):
            head = e.range
            if head in blocked:
                continue
            acc.append(e.id)
            if len(acc) == 1:
                found.append(tuple(acc))  # single-edge paths are always admissible
                extend(head, acc, blocked | {head})
            elif _level_of(head) == 0:
                found.append(tuple(acc))  # closing edge; nothing may follow it
            else:
                extend(head, acc, blocked | {head})
            acc.pop()

    extend(start, [], {start})
    return found


def lens_graph_coprime(params: LensParams) -> Graph:
    """Contract the leveled odd sphere along admissible paths.

    Each admissible path out of (i, 0) becomes one edge of the result, running
    from i to the base vertex its final edge lands on; the edge id encodes the
    underlying leveled path for auditability. A path is admissible when it is
    a single edge, or when only its final edge returns to level 0; no path
    revisits a leveled vertex, its start included, so every vertex keeps
    exactly one loop.
    """
    require_coprime(params)
    base = sphere_odd_graph(params.n)
    weights = {str(i + 1): params.weights[i] for i in range(params.n)}
    skew = skew_product(base, params.p, weights)
    vertices = base.vertices
    index = {v: k for k, v in enumerate(vertices)}
    edges = []
    for i in vertices:
        for ids in _admissible_paths_from(skew, i):
            target = _base_of(skew.edge_by_id[ids[-1]].range)
            edges.append(Edge(".".join(reversed(ids)), i, target))
    edges.sort(key=lambda e: (index[e.source], index[e.range], e.id))
    return Graph(vertices, tuple(edges))


def lens_edge_provenance(edge_id: str) -> list[str]:
    """The leveled edge ids a lens edge contracts, in traversal order."""
    return edge_id.split(".")[::-1]


@dataclass(frozen=True)
class FamilyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FamilyReport:
    family: str
    checks: tuple[FamilyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


_ONE_LOOP_FAMILIES = ("sphere-odd", "projective", "lens")
FAMILIES = _ONE_LOOP_FAMILIES + ("sphere-even",)


def validate_quantum_graph(graph: Graph, family: str) -> FamilyReport:
    """Structural report for a claimed family member: loop discipline,
    acyclicity away from loops, and the i <= j edge pattern where it applies."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}")
    structure = loop_structure(graph)
    checks: list[FamilyCheck] = []

    if family in _ONE_LOOP_FAMILIES:
        off = {v: c for v, c in structure.loops_per_vertex.items() if c != 1}
        checks.append(
            FamilyCheck(
                "one-loop-per-vertex",
                not off,
                "ok" if not off else f"loop counts off at {off}",
            )
        )
    else:
        multi = {v: c for v, c in structure.loops_per_vertex.items() if c > 1}
        checks.append(
            FamilyCheck(
                "at-most-one-loop",
                not multi,
                "ok" if not multi else f"loop counts off at {multi}",
            )
        )
        loopless = [v for v, c in structure.loops_per_vertex.items() if c == 0]
        receiving = [v for v in loopless if graph.in_edges(v)]
        checks.append(
            FamilyCheck(
                "loopless-are-sources",
                not receiving,
                "ok" if not receiving else f"loopless vertices receive edges: {receiving}",
            )
        )
        checks.append(
            FamilyCheck(
                "two-source-vertices",
                len(loopless) == 2,
                f"{len(loopless)} loopless vertices",
            )
        )

    checks.append(
        FamilyCheck(
            "loops-removed-acyclic",
            structure.loops_removed_acyclic,
            "ok"
            if structure.loops_removed_acyclic
            else f"cycle through {' -> '.join(structure.cycle)}",
        )
    )

    if family in _ONE_LOOP_FAMILIES:
        bad = []
        present = {(e.source, e.range) for e in graph.edges}
        for a, i in ((v, graph.vertex_index[v]) for v in graph.vertices):
            for b, j in ((v, graph.vertex_index[v]) for v in graph.vertices):
                if ((a, b) in present) != (i <= j):
                    bad.append(f"{a}->{b}")
        checks.append(
            FamilyCheck(
                "edge-pattern",
                not bad,
                "ok" if not bad else f"i->j iff i<=j violated at {bad}",
            )
        )

    return FamilyReport(family, tuple(checks))
