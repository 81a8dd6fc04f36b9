"""Finite directed multigraphs, paths, and the constructions built from them.

Paths are stored in traversal order (source end first) and rendered in the
right-to-left composition convention, so the path that traverses edge "21"
and then edge "32" displays as "32.21".
"""

from __future__ import annotations

import graphlib
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


@dataclass(frozen=True)
class Graph:
    """Finite directed multigraph with ordered, uniquely named vertices and edges."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.vertices:
            raise GraphError("a graph needs at least one vertex")
        seen = set()
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise GraphError(f"bad vertex id {v!r}")
            if v in seen:
                raise GraphError(f"duplicate vertex id {v!r}")
            seen.add(v)
        ids = set()
        for e in self.edges:
            if not isinstance(e.id, str) or not e.id:
                raise GraphError(f"bad edge id {e.id!r}")
            if e.id in ids:
                raise GraphError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            if e.source not in seen:
                raise GraphError(f"edge {e.id!r}: unknown source vertex {e.source!r}")
            if e.range not in seen:
                raise GraphError(f"edge {e.id!r}: unknown range vertex {e.range!r}")

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: k for k, v in enumerate(self.vertices)}

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
        table: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.range].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in table.items()}

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


def compose_paths(left: Path, right: Path) -> Path:
    """The path that traverses `right` first and then `left`.

    Requires source(left) == range(right); lengths add.
    """
    if left.graph != right.graph:
        raise GraphError("paths live on different graphs")
    if left.source != right.range:
        raise GraphError(
            f"paths do not compose: source {left.source!r} != range {right.range!r}"
        )
    return Path(left.graph, right.edges + left.edges, base=right.base)


def enumerate_paths(graph: Graph, length: int, source: str | None = None,
                    range: str | None = None) -> list[Path]:
    """All paths of exactly `length`, optionally filtered by source and/or range
    vertex, in lexicographic order of their traversed edge-id sequences."""
    if length < 0:
        raise GraphError("path length must be nonnegative")
    if source is not None:
        graph.require_vertex(source)
    if range is not None:
        graph.require_vertex(range)
    starts = [source] if source is not None else list(graph.vertices)
    found: list[Path] = []

    def extend(start: str, at: str, acc: list[str]) -> None:
        if len(acc) == length:
            if range is None or at == range:
                found.append(Path(graph, tuple(acc), base=start))
            return
        for e in graph.out_edges(at):
            acc.append(e.id)
            extend(start, e.range, acc)
            acc.pop()

    for start in starts:
        extend(start, start, [])
    found.sort(key=lambda p: p.edges)
    return found


def maximal_paths(graph: Graph, v: str, m: int) -> list[Path]:
    """Paths with range v of length exactly m, plus shorter ones whose source
    vertex receives no edges (and hence cannot be extended), sorted
    lexicographically by traversed edge ids.
    """
    graph.require_vertex(v)
    if m < 0:
        raise GraphError("level must be nonnegative")
    found: list[Path] = []

    def back(at: str, acc: list[str]) -> None:
        # acc holds edge ids from the range end inward; reverse on emit
        if len(acc) == m:
            found.append(Path(graph, tuple(reversed(acc)), base=at))
            return
        incoming = graph.in_edges(at)
        if not incoming:
            found.append(Path(graph, tuple(reversed(acc)), base=at))
            return
        for e in incoming:
            acc.append(e.id)
            back(e.source, acc)
            acc.pop()

    back(v, [])
    found.sort(key=lambda p: p.edges)
    return found


@dataclass(frozen=True)
class LoopStructure:
    loops_per_vertex: dict[str, int]
    loops_removed_acyclic: bool
    cycle: tuple[str, ...] | None = None


def loop_structure(graph: Graph) -> LoopStructure:
    """Loop count per vertex and acyclicity of the graph with loops removed."""
    loops = {v: 0 for v in graph.vertices}
    preds: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for e in graph.edges:
        if e.source == e.range:
            loops[e.source] += 1
        else:
            preds[e.range].add(e.source)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as err:
        return LoopStructure(loops, False, tuple(err.args[1]))
    return LoopStructure(loops, True, None)


def opposite(graph: Graph) -> Graph:
    """Same vertices and edge ids with every edge reversed."""
    return Graph(graph.vertices, tuple(Edge(e.id, e.range, e.source) for e in graph.edges))


def power_graph(graph: Graph, k: int) -> Graph:
    """One edge per length-k path; the edge id joins the constituent edge ids
    with "." in display (right-to-left) order."""
    if k < 1:
        raise GraphError("power must be >= 1")
    edges = tuple(Edge(p.display, p.source, p.range) for p in enumerate_paths(graph, k))
    return Graph(graph.vertices, edges)


_ISO_VERTEX_LIMIT = 9


def _multiplicity(graph: Graph) -> list[list[int]]:
    n = len(graph.vertices)
    idx = graph.vertex_index
    table = [[0] * n for _ in range(n)]
    for e in graph.edges:
        table[idx[e.source]][idx[e.range]] += 1
    return table


def is_isomorphic(g1: Graph, g2: Graph) -> dict[str, str] | None:
    """Brute-force search for a vertex bijection matching edge multiplicities.

    Returns the bijection as a dict, or None. Bounded to small graphs; the
    search is pruned by (loop count, out-profile, in-profile) signatures.
    """
    if len(g1.vertices) > _ISO_VERTEX_LIMIT or len(g2.vertices) > _ISO_VERTEX_LIMIT:
        raise GraphError(f"isomorphism search is limited to {_ISO_VERTEX_LIMIT} vertices")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
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
