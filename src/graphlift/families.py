"""Constructors and structural validators for the quantum-space graph families.

All four families share the loop discipline that drives the downstream
classifier: every vertex carries at most one loop, and removing the loops
leaves an acyclic graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .graphs import Graph, GraphError, loop_structure

# Largest edge count the sphere and projective builders accept. The count is
# known from n before anything is built, so a size a user types ends in a
# GraphError rather than an out-of-memory kill. The largest odd sphere under
# the limit is sphere_odd_graph(1413), with 998,991 edges.
MAX_EDGES = 1_000_000

# The most memory a lens graph may take, at `_PIECE_BYTES` for each leveled
# edge its edge ids name (the pieces "ji@l" of an id). It was set when
# `graph make lens --format json --out F` held the whole document, at 31-35
# bytes a piece above the maxrss of `graphlift --help` for (n, p) = (5, 41),
# (3, 300), (4, 101) and (2, 5000), 6.7 to 25 million pieces. Every output
# mode now writes the text as it is made, which takes 7-11 bytes a piece
# for (5, 41), (3, 300) and (4, 101) (2-CPU machine, Python 3.11.7).
_PIECE_BYTES = 36
_LENS_BYTES = 1 << 30


def _require_edges(family: str, n: int, count: int) -> None:
    if count > MAX_EDGES:
        raise GraphError(f"{family} graph with n={n} has {count} edges, "
                         f"more than MAX_EDGES={MAX_EDGES}")


def _pair_id(head: int, tail: int) -> str:
    # "ji" for an edge i -> j; underscore-separated once labels leave one digit
    if head <= 9 and tail <= 9:
        return f"{head}{tail}"
    return f"{head}_{tail}"


def _pair_graph(size: int, pairs: list[tuple[int, int]]) -> Graph:
    """The graph on vertices 1..size with, for each (i, j) in order, an edge
    i -> j with id "ji"; labels are 0-based in pairs."""
    source, range_ = zip(*pairs)
    return Graph._of(tuple(str(i) for i in range(1, size + 1)),
                     [_pair_id(j + 1, i + 1) for i, j in pairs], source, range_)


def sphere_odd_graph(n: int) -> Graph:
    """Vertices 1..n with a single edge i -> j (id "ji") for every i <= j."""
    if n < 1:
        raise GraphError("n must be >= 1")
    _require_edges("sphere-odd", n, n * (n + 1) // 2)
    return _pair_graph(n, [(i, j) for j in range(n) for i in range(j + 1)])


def sphere_even_graph(n: int) -> Graph:
    """The odd-sphere pattern on 1..n plus two extra vertices n+1 and n+2 that
    receive nothing and emit one edge onto each of 1..n."""
    if n < 1:
        raise GraphError("n must be >= 1")
    _require_edges("sphere-even", n, n * (n + 1) // 2 + 2 * n)
    pairs = [(i, i) for i in range(n)]
    pairs += [(i, j) for j in range(1, n) for i in range(j)]
    pairs += [(extra, i) for extra in (n, n + 1) for i in range(n)]
    return _pair_graph(n + 2, pairs)


def projective_graph(n: int) -> Graph:
    """One edge per length-2 path of the odd sphere, C(n+2, 3) of them: the
    path through edge `first`, then edge `second`, is an edge "second.first"
    from first's source to second's range. Edges are ordered by the first
    edge's id, then the second's."""
    _require_edges("projective", n, n * (n + 1) * (n + 2) // 6)
    g = sphere_odd_graph(n)
    ids, source, range_ = g._ids, g._source, g._range
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    out: list[list[int]] = [[] for _ in g.vertices]  # edges out of each vertex, in id order
    for b in by_id:
        out[source[b]].append(b)
    pairs = [(a, b) for a in by_id for b in out[range_[a]]]
    return Graph._of(g.vertices, [f"{ids[b]}.{ids[a]}" for a, b in pairs],
                     [source[a] for a, _ in pairs], [range_[b] for _, b in pairs])


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


def _admissible_count(params: LensParams, cap: int) -> tuple[int, int]:
    """The number of admissible paths, so of lens edges, and the number of
    leveled edges they hold, so of pieces in the lens edge ids, each
    saturated at `cap`, from one pass over the (vertex, level) states;
    nothing is enumerated.

    A state (j, l) with l != 0 is the end of a path that must go on. Its
    completions take one base edge j -> k (k >= j) to level l' = l + steps[j]:
    landing on level 0 closes the path (one completion, of no edges),
    elsewhere the path goes on from (k, l'). As steps[j] is coprime to p,
    the loop at j walks every level, -steps[j], -2 steps[j], ... up to 0, so
    the states at j are settled in that order from the counts of the
    vertices above j. Landing at (j, l) has one completion by loops alone, t
    edges for the t-th level of that walk; the others leave j, and are
    counted with their edges apart from it, so every count is a sum and
    saturates exactly. A path out of (i, 0) is its first edge, an admissible
    path on its own, plus that edge followed by each completion, less the
    completion by loops alone when the first edge is the loop, as that one
    returns to the start.
    """
    n, p = params.n, params.p
    # an edge out of vertex j (0-based) at level l lands at l + steps[j] mod p
    steps = [w % p for w in params.weights]
    paths = pieces = 0
    # above[l], above_edges[l]: the completions summed over the vertices k
    # above j on landing at level l, and their edges
    above, above_edges = [0] * p, [0] * p
    for j in reversed(range(n)):
        step = steps[j]
        # here[l], here_edges[l]: the same on landing at (j, l), for the
        # completions that leave j; none leave the top vertex
        here, here_edges = [0] * p, [0] * p
        level = 0
        for _ in range(p - 1 if j < n - 1 else 0):
            below = (level - step) % p
            here[below] = min(cap, above[level] + here[level])
            here_edges[below] = min(cap, above_edges[level] + above[level]
                                    + here_edges[level] + here[level])
            level = below
        # out of (j, 0): the loop, then the completions that leave j; each
        # edge to k > j, then every completion
        paths = min(cap, paths + 1 + here[step] + (n - 1 - j) + above[step])
        pieces = min(cap, pieces + 1 + here[step] + here_edges[step]
                     + (n - 1 - j) + above[step] + above_edges[step])
        if j:
            # level l is t = -l / step loops away from 0, the edges of the
            # completion by loops alone
            inverse = pow(step, -1, p)
            loops = [(p - l) * inverse % p for l in range(p)]
            above = [min(cap, a + h + 1) for a, h in zip(above, here)]
            above_edges = [min(cap, a + h + t)
                           for a, h, t in zip(above_edges, here_edges, loops)]
    return paths, pieces


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
    and the leveled edges they hold are counted before any is enumerated: a
    GraphError refuses either edge count above MAX_EDGES, or ids whose
    leveled edges would take more than `_LENS_BYTES`, so a size a user types
    never runs out of time or memory.
    """
    require_coprime(params)
    n, p = params.n, params.p
    leveled = p * n * (n + 1) // 2
    if leveled > MAX_EDGES:
        raise GraphError(f"lens graph with n={n}, p={p} needs a leveled sphere of "
                         f"{leveled} edges, more than MAX_EDGES={MAX_EDGES}")
    # a path repeats no (vertex, level) state, of which there are at most
    # n p <= MAX_EDGES, so where the edges pass, their pieces count exactly
    edges, pieces = _admissible_count(params, MAX_EDGES**2)
    if edges > MAX_EDGES:
        raise GraphError(f"lens graph with n={n}, p={p} has more than "
                         f"MAX_EDGES={MAX_EDGES} edges")
    if pieces * _PIECE_BYTES > _LENS_BYTES:
        raise GraphError(f"lens graph with n={n}, p={p} has edge ids of {pieces} leveled "
                         f"edges, {pieces * _PIECE_BYTES} bytes at {_PIECE_BYTES} bytes each, "
                         f"more than the {_LENS_BYTES} bytes a lens graph may take")
    found = sorted((i, k, eid) for i in range(n) for eid, k in _admissible_paths(params, i))
    source, range_, ids = zip(*found)
    return Graph._of(tuple(str(i) for i in range(1, n + 1)), ids, source, range_)


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
        received = set(map(graph.vertices.__getitem__, graph._range))
        receiving = [v for v in loopless if v in received]
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
        present = set(zip(graph._source, graph._range))
        bad = [f"{a}->{b}" for i, a in enumerate(graph.vertices)
               for j, b in enumerate(graph.vertices) if ((i, j) in present) != (i <= j)]
        checks.append(
            FamilyCheck(
                "edge-pattern",
                not bad,
                "ok" if not bad else f"i->j iff i<=j violated at {bad}",
            )
        )

    return FamilyReport(family, tuple(checks))
