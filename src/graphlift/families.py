"""Constructors and structural validators for the quantum-space graph families.

All four families share the loop discipline that drives the downstream
classifier: every vertex carries at most one loop, and removing the loops
leaves an acyclic graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import Edge, Graph, GraphError, loop_structure

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
    """One edge per length-2 path of the odd sphere, C(n+2, 3) of them: the
    path through edge `first`, then edge `second`, is an edge "second.first"
    from first's source to second's range. Edges are ordered by the first
    edge's id, then the second's."""
    _require_edges("projective", n, n * (n + 1) * (n + 2) // 6)
    g = sphere_odd_graph(n)
    edges = tuple(
        Edge(f"{second.id}.{first.id}", first.source, second.range)
        for first in sorted(g.edges, key=lambda e: e.id)
        for second in g.out_edges(first.range)
    )
    return Graph(g.vertices, edges)


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


def _admissible_count(params: LensParams, cap: int) -> int:
    """The number of admissible paths, so of lens edges, saturated at `cap`,
    from one pass over the (vertex, level) states; nothing is enumerated.

    A state (j, l) with l != 0 is the end of a path that must go on. Its
    completions take one base edge j -> k (k >= j) to level l' = l + steps[j]:
    landing on level 0 closes the path (one completion), elsewhere the path
    goes on from (k, l'). As steps[j] is coprime to p, the loop at j walks
    every level, -steps[j], -2 steps[j], ... up to 0, so the states at j are
    settled in that order from the counts of the vertices above j. A path out of (i, 0) is counted
    as its first edge, an admissible path on its own, plus its completions,
    less the one completion that returns to the start (loops at i only).
    """
    n, p = params.n, params.p
    # an edge out of vertex j (0-based) at level l lands at l + steps[j] mod p
    steps = [w % p for w in params.weights]
    total = 0
    # above[l]: completions summed over the vertices k above j on landing at
    # level l, where landing on level 0 is one completion
    above = [0] * p
    for j in reversed(range(n)):
        step = steps[j]
        # here[l]: the same on landing at (j, l)
        here = [1] + [0] * (p - 1)
        level = 0
        for _ in range(p - 1):
            below = (level - step) % p
            here[below] = min(cap, above[level] + here[level])
            level = below
        # out of (j, 0): the loop, whose own path stands in for its one
        # completion back to the start, and each edge to k > j as a path
        # plus its completions
        total = min(cap, total + here[step] + (n - 1 - j) + above[step])
        above = [min(cap, a + h) for a, h in zip(above, here)]
    return total


def _admissible_paths(params: LensParams, i: int) -> list[tuple[str, int]]:
    """Admissible leveled paths out of (i, 0), each as its lens edge id and
    the 0-based base vertex it ends on; `lens_graph_coprime` states the rule.

    A depth-first walk over integer (vertex, level) states, with an explicit
    stack that keeps deep paths off the Python call stack. No edge goes to a
    lower vertex, and the loop at a vertex walks every level before it
    repeats one, so a path reaches level 0, where it closes, before it could
    repeat a state: the only state it can come back to is its start, which
    it skips. Only the loop leaves the top vertex, and its orbit ends at the
    start, so that loop is the one path out of it."""
    n, p = params.n, params.p
    steps = [w % p for w in params.weights]
    if i == n - 1:
        return [(f"{_pair_id(n, n)}@{steps[i]}", i)]
    out = [[(k, _pair_id(k + 1, j + 1)) for k in range(j, n)] for j in range(n)]
    ids: list[str] = []  # leveled edge ids of the current path
    found = []
    stack = [(i, 0, iter(out[i]))]
    while stack:
        j, at, edges = stack[-1]
        level = (at + steps[j]) % p
        for k, eid in edges:
            if k == i and level == 0:  # back at the start
                continue
            ids.append(f"{eid}@{level}")
            if len(ids) == 1:
                found.append((ids[0], k))  # single-edge paths are always admissible
            elif level == 0:
                found.append((".".join(reversed(ids)), k))  # closing edge
                ids.pop()  # nothing may follow it
                continue
            stack.append((k, level, iter(out[k])))
            break
        else:
            stack.pop()
            if stack:
                ids.pop()
    return found


def lens_graph_coprime(params: LensParams) -> Graph:
    """Contract the leveled odd sphere along admissible paths.

    Each admissible path out of (i, 0) becomes one edge of the result, running
    from i to the base vertex its final edge lands on; the edge id encodes the
    underlying leveled path for auditability. A path is admissible when it is
    a single edge, or when only its final edge returns to level 0; no path
    revisits a leveled vertex, its start included, so every vertex keeps
    exactly one loop.

    The leveled sphere (the odd sphere's skew product over Z/p: each vertex
    and edge once per level) has p n(n+1)/2 edges, and the admissible paths
    are counted before any is enumerated: a GraphError refuses either count
    above MAX_EDGES, so a size a user types never runs out of time or memory.
    """
    require_coprime(params)
    n, p = params.n, params.p
    leveled = p * n * (n + 1) // 2
    if leveled > MAX_EDGES:
        raise GraphError(f"lens graph with n={n}, p={p} needs a leveled sphere of "
                         f"{leveled} edges, more than MAX_EDGES={MAX_EDGES}")
    if _admissible_count(params, MAX_EDGES + 1) > MAX_EDGES:
        raise GraphError(f"lens graph with n={n}, p={p} has more than "
                         f"MAX_EDGES={MAX_EDGES} edges")
    vertices = tuple(str(i) for i in range(1, n + 1))
    found = sorted((i, k, eid) for i in range(n) for eid, k in _admissible_paths(params, i))
    return Graph(vertices, tuple(Edge(eid, vertices[i], vertices[k]) for i, k, eid in found))


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
