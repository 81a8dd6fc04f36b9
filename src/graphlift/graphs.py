"""Finite directed multigraphs, paths, and the constructions built from them.

Paths are stored in traversal order (source end first) and rendered in the
right-to-left composition convention, so the path that traverses edge "21"
and then edge "32" displays as "32.21".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


class GraphError(ValueError):
    """Raised for malformed graphs, paths, or unsatisfiable graph operations."""


@dataclass(frozen=True)
class Edge:
    """Directed edge; `source` is the tail vertex, `range` the head vertex."""

    id: str
    source: str
    range: str


@dataclass(frozen=True, init=False)
class Graph:
    """Finite directed multigraph with ordered, uniquely named vertices and edges,
    stored as the edge ids and each edge's source and range vertex index, in edge
    order. The `Edge` views (`edges`, `edge_by_id`, ...) are built on first use."""

    vertices: tuple[str, ...]
    _ids: tuple[str, ...]
    _source: tuple[int, ...]
    _range: tuple[int, ...]

    def __init__(self, vertices, edges=()):
        edges = tuple(edges)
        self.__dict__.update(_checked(vertices, [e.id for e in edges], [e.source for e in edges],
                                      [e.range for e in edges]).__dict__, edges=edges)

    @classmethod
    def _of(cls, vertices, ids, source, range_) -> Graph:
        """The graph whose edge i is ids[i], from vertex source[i] to vertex range_[i];
        the arrays are taken as valid, as the family builders and `_checked` make them."""
        graph = object.__new__(cls)
        graph.__dict__.update(vertices=tuple(vertices), _ids=tuple(ids), _source=tuple(source),
                              _range=tuple(range_))
        return graph

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        name = self.vertices.__getitem__
        return tuple(map(Edge, self._ids, map(name, self._source), map(name, self._range)))

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _outgoing(self) -> dict[str, tuple[Edge, ...]]:
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.source].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in table.items()}

    @cached_property
    def _incoming(self) -> dict[str, tuple[Edge, ...]]:
        edges = self.edges
        return {v: tuple(edges[i] for i in into) for v, into in zip(self.vertices, self._into)}

    @cached_property
    def _into(self) -> tuple[tuple[int, ...], ...]:
        """The edges with range v, for each vertex v in order, as edge indices
        sorted by id; read from the arrays, with no `Edge` built."""
        table: list[list[int]] = [[] for _ in self.vertices]
        for i in sorted(range(len(self._ids)), key=self._ids.__getitem__):
            table[self._range[i]].append(i)
        return tuple(map(tuple, table))

    def require_vertex(self, v: str) -> None:
        if v not in self.vertex_index:
            raise GraphError(f"unknown vertex {v!r}")

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges with source v, sorted by id."""
        self.require_vertex(v)
        return self._outgoing[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        """Edges with range v, sorted by id."""
        self.require_vertex(v)
        return self._incoming[v]


def _checked(vertices, ids, sources, ranges) -> Graph:
    """The graph of these vertex ids, edge ids and endpoint vertex ids, checked: the
    vertices one by one, the edges in bulk for unique non-empty str ids and known
    endpoints. A failing graph's edges are walked for the first fault, id first."""
    vertices, ids = tuple(vertices), tuple(ids)
    if not vertices:
        raise GraphError("a graph needs at least one vertex")
    index: dict[str, int] = {}
    for v in vertices:
        if not isinstance(v, str) or not v:
            raise GraphError(f"bad vertex id {v!r}")
        if v in index:
            raise GraphError(f"duplicate vertex id {v!r}")
        index[v] = len(index)
    source, range_ = (tuple(map(index.get, ends, itertools.repeat(-1)))
                      for ends in (sources, ranges))
    if (all(map(isinstance, ids, itertools.repeat(str))) and all(ids)
            and len(set(ids)) == len(ids) and -1 not in source and -1 not in range_):
        return Graph._of(vertices, ids, source, range_)
    seen = set()
    for eid, s, r in zip(ids, sources, ranges):
        if not isinstance(eid, str) or not eid:
            raise GraphError(f"bad edge id {eid!r}")
        if eid in seen:
            raise GraphError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        if s not in index:
            raise GraphError(f"edge {eid!r}: unknown source vertex {s!r}")
        if r not in index:
            raise GraphError(f"edge {eid!r}: unknown range vertex {r!r}")


@dataclass(frozen=True)
class Path:
    """Composable edge sequence in traversal order; `base` names the vertex of a
    length-0 path and is normalized to the source vertex otherwise."""

    graph: Graph
    edges: tuple[str, ...] = ()
    base: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        g = self.graph
        if not self.edges:
            if self.base is None:
                raise GraphError("a length-0 path needs a base vertex")
            g.require_vertex(self.base)
            return
        prev = None
        for eid in self.edges:
            e = g.edge_by_id.get(eid)
            if e is None:
                raise GraphError(f"unknown edge {eid!r}")
            if prev is not None and prev.range != e.source:
                raise GraphError(
                    f"edges {prev.id!r} and {e.id!r} do not compose: "
                    f"range {prev.range!r} != source {e.source!r}"
                )
            prev = e
        src = g.edge_by_id[self.edges[0]].source
        if self.base is None:
            object.__setattr__(self, "base", src)
        elif self.base != src:
            raise GraphError(f"base {self.base!r} is not the path source {src!r}")

    def extend(self, edge_id: str) -> Path:
        """This path, then edge `edge_id`. Only the new edge is checked: it
        must exist and start at this path's range."""
        e = self.graph.edge_by_id.get(edge_id)
        if e is None:
            raise GraphError(f"unknown edge {edge_id!r}")
        if e.source != self.range:
            raise GraphError(f"edge {e.id!r} does not compose after {self.display!r}: "
                             f"range {self.range!r} != source {e.source!r}")
        path = object.__new__(Path)  # the prefix is valid, so skip the full check
        object.__setattr__(path, "graph", self.graph)
        object.__setattr__(path, "edges", self.edges + (edge_id,))
        object.__setattr__(path, "base", self.base)
        return path

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def source(self) -> str:
        return self.base  # normalized in __post_init__

    @property
    def range(self) -> str:
        if not self.edges:
            return self.base
        return self.graph.edge_by_id[self.edges[-1]].range

    @property
    def display(self) -> str:
        """Right-to-left rendering: last traversed edge first."""
        if not self.edges:
            return self.base
        return ".".join(reversed(self.edges))

    def __str__(self) -> str:
        return self.display

    def __repr__(self) -> str:
        return f"Path({self.display!r})"


def _unwind(node) -> list[str]:
    """The edge ids of a path node, its own edge first, then those of the
    nodes it holds. A node is None (no edges) or (edge id, node)."""
    edges = []
    while node is not None:
        edge, node = node
        edges.append(edge)
    return edges


def maximal_paths(graph: Graph, v: str, m: int) -> list[Path]:
    """Paths with range v of length exactly m, plus shorter ones whose source
    vertex receives no edges (and hence cannot be extended), sorted
    lexicographically by traversed edge ids.
    """
    graph.require_vertex(v)
    if m < 0:
        raise GraphError("level must be nonnegative")
    # (source, node); each level's nodes grow at the source end, and a path
    # whose source receives no edge is carried to the next level unchanged
    level = [(v, None)]
    for _ in range(m):
        grown = []
        for at, node in level:
            incoming = graph.in_edges(at)
            if not incoming:
                grown.append((at, node))
            for e in incoming:
                grown.append((e.source, (e.id, node)))
        level = grown
    found = [Path(graph, _unwind(node), base=at) for at, node in level]
    found.sort(key=lambda p: p.edges)
    return found


@dataclass(frozen=True)
class LoopStructure:
    loops_per_vertex: dict[str, int]
    loops_removed_acyclic: bool
    cycle: tuple[str, ...] | None = None


def loop_structure(graph: Graph) -> LoopStructure:
    """Loop count per vertex and acyclicity of the graph with loops removed, with
    a closed cycle v0 -> ... -> v0 along its edges if any, by one depth-first search."""
    loops = [0] * len(graph.vertices)
    succ: list[list[int]] = [[] for _ in graph.vertices]
    for s, r in zip(graph._source, graph._range):
        if s == r:
            loops[s] += 1
        else:
            succ[s].append(r)
    counts = dict(zip(graph.vertices, loops))
    state = [0] * len(succ)  # 0 unseen, 1 on the search path, 2 done
    path, nexts = [], [iter(range(len(succ)))]  # below a root that reaches every vertex
    while nexts:
        w = next(nexts[-1], None)
        if w is None:
            nexts.pop()
            if path:
                state[path.pop()] = 2
        elif state[w] == 1:
            cycle = path[path.index(w):] + [w]
            return LoopStructure(counts, False, tuple(graph.vertices[u] for u in cycle))
        elif not state[w]:
            state[w] = 1
            path.append(w)
            nexts.append(iter(set(succ[w])))  # parallel edges once
    return LoopStructure(counts, True, None)


def opposite(graph: Graph) -> Graph:
    """Same vertices and edge ids with every edge reversed."""
    return Graph._of(graph.vertices, graph._ids, graph._range, graph._source)


_ISO_VERTEX_LIMIT = 9


def _multiplicity(graph: Graph) -> list[list[int]]:
    n = len(graph.vertices)
    table = [[0] * n for _ in range(n)]
    for s, r in zip(graph._source, graph._range):
        table[s][r] += 1
    return table


def is_isomorphic(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Brute-force search for a vertex bijection matching edge multiplicities.

    Returns the bijection as a dict, or None. Bounded to small graphs; the
    search is pruned by (loop count, out-profile, in-profile) signatures.
    """
    if len(g1.vertices) > _ISO_VERTEX_LIMIT or len(g2.vertices) > _ISO_VERTEX_LIMIT:
        raise GraphError(f"isomorphism search is limited to {_ISO_VERTEX_LIMIT} vertices")
    if len(g1.vertices) != len(g2.vertices) or len(g1._ids) != len(g2._ids):
        return None
    m1, m2 = _multiplicity(g1), _multiplicity(g2)
    n = len(g1.vertices)

    def signature(m, i):
        out = sorted(m[i][j] for j in range(n) if j != i)
        inc = sorted(m[j][i] for j in range(n) if j != i)
        return (m[i][i], tuple(out), tuple(inc))

    groups1: dict[tuple, list[int]] = {}
    groups2: dict[tuple, list[int]] = {}
    for i in range(n):
        groups1.setdefault(signature(m1, i), []).append(i)
        groups2.setdefault(signature(m2, i), []).append(i)
    if set(groups1) != set(groups2):
        return None
    keys = sorted(groups1)
    if any(len(groups1[k]) != len(groups2[k]) for k in keys):
        return None

    slots = [groups1[k] for k in keys]
    for assignment in itertools.product(*(itertools.permutations(groups2[k]) for k in keys)):
        sigma = [0] * n
        for src_group, dst_group in zip(slots, assignment):
            for a, b in zip(src_group, dst_group):
                sigma[a] = b
        if all(
            m1[i][j] == m2[sigma[i]][sigma[j]]
            for i in range(n)
            for j in range(n)
        ):
            return {g1.vertices[i]: g2.vertices[sigma[i]] for i in range(n)}
    return None
