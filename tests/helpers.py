"""Shared oracles and builders for the test suite."""

from __future__ import annotations

import contextlib
import graphlib
import io
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from hypothesis import strategies as st

from graphlift import (
    CkReport,
    Edge,
    Graph,
    GraphError,
    LensParams,
    LoopStructure,
    ModuleError,
    Path,
    PythagoreanModule,
    TruncatedLift,
    maximal_paths,
    opposite,
    sphere_odd_graph,
)
from graphlift import cli, modules
from graphlift.lifting import PathLevel
from graphlift.io import (LIFT_FORMAT, CodecError, _fail, _is_int, _need, _need_key,
                          module_to_dict)


def one_dim_components(graph: Graph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Brute-force the vertices supporting a valid one-dimensional module.

    With a single nonzero fiber at v, every edge operator with an endpoint
    away from v is zero-shaped, so the only live constraint is at v itself:
    the squared moduli of the loop scalars at v must sum to 1. That has a
    solution exactly when v carries a loop; a loopless v works only when it
    receives nothing (the constraint is then never imposed).
    """
    looped, free = [], []
    for v in graph.vertices:
        loops = [e for e in graph.out_edges(v) if e.range == v]
        if loops:
            looped.append(v)
        elif not graph.in_edges(v):
            free.append(v)
    return tuple(looped), tuple(free)


def maximal_tails(graph: Graph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Brute-force the maximal tails of `opposite(graph)`, the edge
    convention in which they index the primitive ideals, as (circles,
    points): the labels of the tails whose loop has no exit inside the tail,
    and of the other tails, each in vertex order.

    A nonempty vertex subset M is a maximal tail when
    (1) every vertex that reaches a vertex of M by a path lies in M;
    (2) every vertex of M that emits an edge emits one whose range is in M;
    (3) any two vertices of M reach a common vertex of M.
    Every vertex reaches itself. A tail is labelled by its minimal vertex m,
    the one vertex of M that reaches no other vertex of M; a graph whose
    cycles are all loops gives every tail one, and the unpacking below fails
    otherwise. The tail's loop is a loop at m, and an exit from it inside
    the tail is any other edge out of m whose range is in M. Every subset
    is tried, so keep graphs small.
    """
    g = opposite(graph)
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    reach = dict(bit)  # reach[v]: bitmask of the vertices that v reaches
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            grown = reach[e.source] | reach[e.range]
            changed |= grown != reach[e.source]
            reach[e.source] = grown
    circles, points = set(), set()
    for mask in range(1, 1 << len(g.vertices)):
        tail = [v for v in g.vertices if bit[v] & mask]
        closed = all(bit[v] & mask or not reach[v] & mask for v in g.vertices)
        emits = all(any(bit[e.range] & mask for e in g.out_edges(v))
                    for v in tail if g.out_edges(v))
        directed = all(reach[u] & reach[v] & mask for u in tail for v in tail)
        if not (closed and emits and directed):
            continue
        (m,) = [v for v in tail if reach[v] & mask == bit[v]]
        inside = [e for e in g.out_edges(m) if bit[e.range] & mask]
        no_exit_loop = len(inside) == 1 and inside[0].range == m
        (circles if no_exit_loop else points).add(m)
    return (tuple(v for v in g.vertices if v in circles),
            tuple(v for v in g.vertices if v in points))


_SPAN_TOL = 1e-10


def _span_append(basis: list[np.ndarray], candidate: np.ndarray) -> np.ndarray | None:
    """Gram-Schmidt a vector against `basis`; append and return it if nonzero."""
    v = candidate.reshape(-1)
    scale = max(1.0, float(np.linalg.norm(v)))
    for _ in range(2):  # second pass keeps the basis orthonormal in float
        for b in basis:
            v = v - np.vdot(b, v) * b
    if np.linalg.norm(v) <= _SPAN_TOL * scale:
        return None
    v = v / np.linalg.norm(v)
    basis.append(v)
    return v


def dense_generators(module: PythagoreanModule) -> list[np.ndarray]:
    """Reference only: vertex projections and edge operators as d x d matrices
    on the total fiber (the zero ones left out)."""
    d = module.total_dim
    vertices = module.graph.vertices
    off = dict(zip(vertices, itertools.accumulate((module.dims[v] for v in vertices),
                                                  initial=0)))
    gens = []
    for v in module.graph.vertices:
        dv = module.dims[v]
        if dv == 0:
            continue
        p = np.zeros((d, d), dtype=np.complex128)
        p[off[v] : off[v] + dv, off[v] : off[v] + dv] = np.eye(dv)
        gens.append(p)
    for e in module.graph.edges:
        a = module.ops[e.id]
        if a.size == 0:
            continue
        m = np.zeros((d, d), dtype=np.complex128)
        m[
            off[e.source] : off[e.source] + a.shape[0],
            off[e.range] : off[e.range] + a.shape[1],
        ] = a
        gens.append(m)
    return gens


def orbit_span_dim(module: PythagoreanModule, vec: np.ndarray) -> int:
    """Dimension of the orbit of vec under the generated unital algebra. The
    seed may also be a d x d matrix: the orbit of the identity is the algebra."""
    basis: list[np.ndarray] = []
    seed = np.asarray(vec, dtype=np.complex128)
    if _span_append(basis, seed) is None:
        return 0
    gens = dense_generators(module)
    frontier = [seed / np.linalg.norm(seed)]
    while frontier:
        fresh = []
        for w in frontier:
            for g in gens:
                added = _span_append(basis, g @ w)
                if added is not None:
                    fresh.append(added.reshape(seed.shape))
        frontier = fresh
    return len(basis)


def dense_commutant_dim(module: PythagoreanModule) -> int:
    """Reference only: dimension of the maps on the whole total fiber (no
    grading assumed) commuting with every generator and its adjoint, from the
    full d^2 x d^2 Kronecker system. Memory grows as d^4; keep d small."""
    d = module.total_dim
    eye = np.eye(d, dtype=np.complex128)
    blocks = [
        np.kron(eye, mat.T) - np.kron(mat, eye)
        for g in dense_generators(module)
        for mat in (g, g.conj().T)
    ]
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return d * d - int(np.sum(s > _SPAN_TOL * max(1.0, s[0])))


def reference_matrix_to_entries(mat: np.ndarray) -> list:
    """`io._matrix_to_entries` entry by entry: each complex entry as a
    [real, imag] pair of Python floats, row by row."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def kron_graded_system(graph: Graph, dims_s: dict[str, int], dims_t: dict[str, int],
                       relations) -> tuple[np.ndarray, dict[str, slice]]:
    """Reference only: the system `modules._graded_nullspace` solves, and
    each vertex's column slice, built one zeroed rows x cols block per
    relation, its two terms written by np.kron with fresh identities, the
    blocks joined by np.vstack."""
    span = {}
    cols = 0
    for v in graph.vertices:
        span[v] = slice(cols, cols + dims_t[v] * dims_s[v])
        cols = span[v].stop
    blocks = []
    for head, tail, a, b in relations:
        rows = dims_t[head] * dims_s[tail]
        if rows == 0:
            continue
        block = np.zeros((rows, cols), dtype=np.complex128)
        block[:, span[head]] += np.kron(np.eye(dims_t[head]), a.T)
        block[:, span[tail]] -= np.kron(b, np.eye(dims_s[tail]))
        blocks.append(block)
    system = np.vstack(blocks) if blocks else np.zeros((0, cols), dtype=np.complex128)
    return system, span


def kron_graded_nullspace(graph: Graph, dims_s: dict[str, int], dims_t: dict[str, int],
                          relations) -> tuple[np.ndarray, dict[str, slice]]:
    """Reference only: `modules._graded_nullspace` on `kron_graded_system`."""
    system, span = kron_graded_system(graph, dims_s, dims_t, relations)
    return modules._nullspace(system), span


def dense_ck_residuals(trunc: TruncatedLift) -> CkReport:
    """Reference only: the relation residuals of `ck_residuals`, with the same
    Frobenius definitions, from dense materialized generator matrices."""
    g = trunc.module.graph
    m = trunc.level
    diags = {v: np.diag(trunc.projection_matrix(v, m)) for v in g.vertices}
    ortho = 0.0
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1 :]:
            ortho = max(ortho, float(np.linalg.norm(diags[u] * diags[v])))
    completeness = float(np.linalg.norm(sum(diags.values()) - 1.0))
    edge_mats = {e.id: trunc.edge_matrix(e.id, m) for e in g.edges}
    edge_isometry = {
        e.id: float(np.linalg.norm(
            edge_mats[e.id].T @ edge_mats[e.id]
            - trunc.projection_matrix(e.source, m), "fro"))
        for e in g.edges
    }
    vertex_sum = {}
    for w in g.vertices:
        incoming = g.in_edges(w)
        if incoming:
            acc = sum(edge_mats[e.id] @ edge_mats[e.id].T for e in incoming)
            vertex_sum[w] = float(np.linalg.norm(
                acc - trunc.projection_matrix(w, m + 1), "fro"))
    embed_isometry = {}
    for k in range(m + 1):
        emb = trunc.embed_matrix(k)
        embed_isometry[k] = float(np.linalg.norm(
            emb.conj().T @ emb - np.eye(trunc.dimension_at(k)), "fro"))
    return CkReport(m, ortho, completeness, edge_isometry, vertex_sum,
                    embed_isometry)


@dataclass(frozen=True)
class ReferenceEdge:
    """Reference only: the frozen-dataclass edge that `Graph` stored, one
    per edge, before graphs were stored as index arrays."""

    id: str
    source: str
    range: str


@dataclass(frozen=True)
class ReferenceGraph:
    """Reference only: `Graph` as a tuple of `ReferenceEdge`, validated by
    one pass over the vertices and one over the edges, raising at the first
    fault."""

    vertices: tuple[str, ...]
    edges: tuple[ReferenceEdge, ...] = ()

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
    def edge_by_id(self) -> dict[str, ReferenceEdge]:
        return {e.id: e for e in self.edges}

    def out_edges(self, v: str) -> tuple[ReferenceEdge, ...]:
        return tuple(sorted((e for e in self.edges if e.source == v), key=lambda e: e.id))

    def in_edges(self, v: str) -> tuple[ReferenceEdge, ...]:
        return tuple(sorted((e for e in self.edges if e.range == v), key=lambda e: e.id))


def reference_loop_structure(graph: ReferenceGraph) -> LoopStructure:
    """Reference only: `loop_structure` through graphlib. Its cycle, when
    there is one, follows the graph's edges but depends on the order in
    which sets of str iterate, so it is not compared as is."""
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


def reference_enumerate_paths(graph: Graph, length: int, source: str | None = None,
                              range: str | None = None) -> list[Path]:
    """Reference only: all paths of exactly `length`, optionally filtered by
    source and/or range vertex, in lexicographic order of their traversed
    edge ids, by a recursive forward DFS from each start vertex, one frame
    per edge."""
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


def reference_power_graph(graph: Graph, k: int) -> Graph:
    """Reference only: one edge per length-k path, with the path's display as
    its id, in `reference_enumerate_paths` order."""
    paths = reference_enumerate_paths(graph, k)
    return Graph(graph.vertices, tuple(Edge(p.display, p.source, p.range) for p in paths))


def reference_maximal_paths(graph: Graph, v: str, m: int) -> list[Path]:
    """Reference only: `maximal_paths` by a recursive backward DFS from v,
    one frame per edge, emitting a path once it has length m or its source
    receives no edge."""
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


def reference_basis(module: PythagoreanModule, k: int):
    """Reference only: the basis of W_k from one backward DFS per vertex
    (`maximal_paths`), as (entries, index). Entries are (Path, fiber) pairs
    in vertex order, then path order, then fiber; index maps the key
    (edges, base) of each path with a nonzero fiber to its first entry."""
    entries, index = [], {}
    for v in module.graph.vertices:
        for p in maximal_paths(module.graph, v, k):
            d = module.dims[p.source]
            if d:
                index[(p.edges, p.base)] = len(entries)
            entries.extend((p, b) for b in range(d))
    return entries, index


def reference_levels(module: PythagoreanModule, top: int) -> list[PathLevel]:
    """Reference only: levels 0..top of the path trie, each `PathLevel`
    built from the one below by the per-level builder that the all-level
    store of `TruncatedLift` replaced, with no size limit.

    Level k+1 holds a child e.mu per level-k path mu and out-edge e of its
    range, laid out along level k's traversal order, each path's children in
    edge id order, then the length-0 path at each live vertex that receives
    no edge. On a graph where every live vertex receives an edge, a level
    from 2 on comes out in traversal order; level 1, and every level of any
    other graph, is sorted into traversal order by a key per path: the rank
    of its parent's sequence in the level below and its last edge for a new
    path, the rank of its own sequence one level down for a carried one.
    Each level is then laid out on its own: basis order by one stable
    argsort by range, offsets by a cumsum of the fibers in that order, the
    vertex blocks by a searchsorted."""
    g = module.graph
    n_vertices, n_edges = len(g.vertices), len(g._ids)
    fiber = np.array([module.dims[v] for v in g.vertices], dtype=np.intp)
    edge_range = np.array(g._range, dtype=np.intp)
    edge_source = np.array(g._source, dtype=np.intp)
    edge_rank = np.argsort(sorted(range(n_edges), key=g._ids.__getitem__)).astype(np.int32)
    out_edges = np.lexsort((edge_rank, edge_source))
    out_degree = np.bincount(edge_source, minlength=n_vertices)
    out_start = out_degree.cumsum() - out_degree
    out_rank = np.empty_like(out_edges)
    out_rank[out_edges] = np.arange(n_edges) - out_start[edge_source[out_edges]]
    roots = np.flatnonzero((fiber > 0) & (np.bincount(edge_range, minlength=n_vertices) == 0))
    none = np.full(roots.size, -1, dtype=np.intp)
    root_rows = (none, none, roots, roots, np.zeros_like(roots), none)

    def level_from(parent, edge, rng, source, length, head, down, walk) -> PathLevel:
        if walk is None:
            order = rng.argsort(kind="stable")
            count = out_degree[rng]
            ends = count.cumsum()
            first = ends - count
        else:
            walked = rng[walk]
            order = walk[walked.argsort(kind="stable")]
            count = out_degree[walked]
            ends = count.cumsum()
            first = np.empty_like(count)
            first[walk] = ends - count
        starts = np.zeros(order.size + 1, dtype=np.intp)
        fiber[source[order]].cumsum(out=starts[1:])
        offset = np.empty_like(starts[:-1])
        offset[order] = starts[:-1]
        bounds = starts[np.searchsorted(rng[order], np.arange(n_vertices + 1))]
        return PathLevel(parent, edge, rng, source, length, offset, first, head, down,
                         order, bounds, int(starts[-1]))

    live = fiber.nonzero()[0]
    none = np.full(live.size, -1, dtype=np.intp)
    levels = [level_from(none, none, live, live, np.zeros_like(live), none, none, None)]
    walk, rank = None, np.zeros(live.size, dtype=np.intp)
    for k in range(top):
        low = levels[k]
        count = out_degree[low.range]
        parent = np.arange(count.size).repeat(count) if walk is None else walk.repeat(
            count[walk])
        edge = out_edges[(out_start[low.range] - low.first)[parent] + np.arange(parent.size)]
        rng = edge_range[edge]
        source = low.source[parent]
        if k == 0:  # paths of length <= 1 embed from their range vertex
            index = np.full(n_vertices, -1, dtype=np.intp)
            index[low.range] = np.arange(low.range.size)
            down = index[rng]
        else:
            tail = low.down[parent]
            down = np.where(tail >= 0, levels[k - 1].first[tail] + out_rank[edge], -1)
        if k and not roots.size:  # already in traversal order
            levels.append(level_from(parent, edge, rng, source,
                                     np.full(parent.size, k + 1, dtype=np.intp),
                                     low.head[parent], down, None))
            walk = None
            continue
        length = low.length[parent] + 1
        head = np.where(length == 1, edge, low.head[parent])
        if roots.size:
            parent, edge, rng, source, length, head = (
                np.concatenate(pair) for pair in
                zip((parent, edge, rng, source, length, head), root_rows))
            down = np.concatenate((down, index[roots] if k == 0 else
                                   np.arange(low.range.size - roots.size, low.range.size)))
        new = length == k + 1
        key = rank[np.where(new, parent, down)] * (n_edges + 1)
        key[new] += edge_rank[edge[new]] + 1
        walk = key.argsort(kind="stable")
        levels.append(level_from(parent, edge, rng, source, length, head, down, walk))
        rank = np.empty_like(walk)
        rank[walk] = np.arange(walk.size)
    return levels


def reference_edge_targets(module: PythagoreanModule, k: int) -> dict:
    """Reference only: per edge id, the index in W_{k+1} of the image of each
    entry of W_k, or -1, looked up entry by entry in `reference_basis`."""
    g = module.graph
    entries, _ = reference_basis(module, k)
    _, upper = reference_basis(module, k + 1)
    maps = {e.id: np.full(len(entries), -1, dtype=np.intp) for e in g.edges}
    for col, (p, b) in enumerate(entries):
        if b:
            continue
        d = module.dims[p.source]
        for e in g.out_edges(p.range):
            row0 = upper[(p.edges + (e.id,), p.base)]
            maps[e.id][col : col + d] = np.arange(row0, row0 + d)
    return maps


def expand_edge_images(doc: dict) -> dict:
    """Reference only: an "edge-images" lift document in the earlier
    "partial-maps" layout, keys in the same order. Each edge's images of its
    source block become a -1-padded target per basis entry of its level, and
    each projection's [start, stop] the list of indices it keeps."""
    source = {e["id"]: e["source"] for e in doc["module"]["graph"]["edges"]}
    edges = {}
    for k, images in doc["edges"].items():
        blocks = doc["projections"][k]
        edges[k] = {}
        for eid, block in images.items():
            start, stop = blocks[source[eid]]
            assert len(block) == stop - start, (k, eid)
            targets = [-1] * len(doc["bases"][k])
            targets[start:stop] = block
            edges[k][eid] = targets
    projections = {
        k: {v: list(range(start, stop)) for v, (start, stop) in blocks.items()}
        for k, blocks in doc["projections"].items()
    }
    return dict(doc, format="partial-maps", edges=edges, projections=projections)


def _reference_basis_records(trunc: TruncatedLift) -> dict:
    """Reference only: one record dict per basis entry of levels 0..m+1, read
    off the path trie; each display extends its parent's by one edge id on
    the left."""
    g = trunc.module.graph
    names = [e.id for e in g.edges]
    vertices = g.vertices
    fibers = [range(trunc.module.dims[v]) for v in vertices]
    shown: list[str] = []
    out = {}
    for k in range(trunc.level + 2):
        level = trunc.paths_at(k)
        parent, edge, rng, source, length = (
            a.tolist() for a in (level.parent, level.edge, level.range,
                                 level.source, level.length))
        shown = [
            vertices[v] if p < 0 else names[e] if n == 1 else f"{names[e]}.{shown[p]}"
            for p, e, v, n in zip(parent, edge, rng, length)
        ]
        out[str(k)] = [
            {"path": shown[i], "source": vertices[source[i]],
             "range": vertices[rng[i]], "length": length[i], "fiber": b}
            for i in level.order.tolist()
            for b in fibers[source[i]]
        ]
    return out


def reference_lift_dict(trunc: TruncatedLift) -> dict:
    """Reference only: the "edge-images" lift document built as one dict per
    basis entry, the byte oracle of the lift writer through
    `json.dumps(doc, indent=2) + "\n"`."""
    m = trunc.level
    g = trunc.module.graph
    bounds = [trunc.paths_at(k).bounds.tolist() for k in range(m + 1)]
    return {
        "format": LIFT_FORMAT,
        "module": module_to_dict(trunc.module),
        "level": m,
        "bases": _reference_basis_records(trunc),
        "edges": {
            str(k): {e.id: trunc.edge_images(e.id, k).tolist() for e in g.edges}
            for k in range(m + 1)
        },
        "projections": {
            str(k): {v: b[u : u + 2] for u, v in enumerate(g.vertices)}
            for k, b in enumerate(bounds)
        },
    }


def partial_maps_dict(trunc: TruncatedLift) -> dict:
    """Reference only: the "partial-maps" lift document, one -1-padded
    `reference_edge_targets` list per edge and level and the listed indices of
    each projection block (from `paths_at(k).bounds`), with the same module,
    level and bases as `reference_lift_dict`."""
    doc = reference_lift_dict(trunc)
    g = trunc.module.graph
    levels = range(trunc.level + 1)
    bounds = {k: trunc.paths_at(k).bounds.tolist() for k in levels}
    return dict(
        doc,
        format="partial-maps",
        edges={str(k): {eid: targets.tolist() for eid, targets
                        in reference_edge_targets(trunc.module, k).items()}
               for k in levels},
        projections={str(k): {v: list(range(bounds[k][u], bounds[k][u + 1]))
                              for u, v in enumerate(g.vertices)}
                     for k in levels},
    )


def reference_embed_map(module: PythagoreanModule, k: int):
    """Reference only: the nonzeros (rows, cols, vals) of the embedding
    W_k -> W_{k+1}, rows ascending, grouped block by block from
    `reference_basis` lookups."""
    g = module.graph
    entries, _ = reference_basis(module, k)
    _, upper = reference_basis(module, k + 1)
    # columns and row0s per block: ("edge", nu) carries A_nu, and
    # ("fixed", v) the identity on unextendable entries with source v
    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for col, (p, b) in enumerate(entries):
        if b:
            continue
        incoming = g.in_edges(p.source)
        if not incoming:
            cols, rows = groups.setdefault(("fixed", p.source), ([], []))
            cols.append(col)
            rows.append(upper[(p.edges, p.base)])
        for nu in incoming:
            if module.dims[nu.source] == 0:
                continue
            cols, rows = groups.setdefault(("edge", nu.id), ([], []))
            cols.append(col)
            rows.append(upper[((nu.id,) + p.edges, nu.source)])
    parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp),
              np.zeros(0, np.complex128))]
    for (kind, name), (cols, rows) in groups.items():
        if kind == "edge":
            block = module.ops[name]
        else:
            block = np.eye(module.dims[name], dtype=np.complex128)
        h, w = block.shape
        shape = (len(cols), h, w)
        parts.append((
            np.broadcast_to(np.add.outer(rows, np.arange(h))[:, :, None],
                            shape).ravel(),
            np.broadcast_to(np.add.outer(cols, np.arange(w))[:, None, :],
                            shape).ravel(),
            np.broadcast_to(block, shape).ravel(),
        ))
    rows, cols, vals = (np.concatenate(arrs) for arrs in zip(*parts))
    order = np.argsort(rows, kind="stable")
    return rows[order], cols[order], vals[order]


def reference_gram_residual(block_map) -> float:
    """Reference only: the Frobenius norm of M*M - I for the nonzeros of a
    `BlockMap` M, summed row by row over the pairs of entries that share a
    row; no dense Gram matrix is formed."""
    n = block_map.shape[1]
    if not block_map.rows.size:
        return float(np.sqrt(n))
    starts = np.flatnonzero(np.diff(block_map.rows, prepend=-1))
    counts = np.diff(np.append(starts, block_map.rows.size))
    size = np.repeat(counts, counts)  # entries in the row of each entry
    left = np.repeat(np.arange(block_map.rows.size), size)
    # each entry pairs with every entry of its row, its own included
    offset = np.arange(left.size) - np.repeat(np.cumsum(size) - size, size)
    right = np.repeat(np.repeat(starts, counts), size) + offset
    keys, inverse = np.unique(block_map.cols[left] * n + block_map.cols[right],
                              return_inverse=True)
    # conj(x) * y in real arithmetic, so that conj(x) * x is exactly real
    xr, xi = block_map.vals.real[left], block_map.vals.imag[left]
    yr, yi = block_map.vals.real[right], block_map.vals.imag[right]
    gram_re = np.bincount(inverse, xr * yr + xi * yi)
    gram_im = np.bincount(inverse, xr * yi - xi * yr)
    diagonal = keys // n == keys % n
    gram_re[diagonal] -= 1.0
    unseen = n - int(diagonal.sum())  # zero columns: Gram diagonal 0
    return float(np.sqrt(np.sum(gram_re**2) + np.sum(gram_im**2) + unseen))


def perturb_edge(module: PythagoreanModule, edge_id: str,
                 eps: float) -> PythagoreanModule:
    """Copy the module with one operator shifted by eps in every entry."""
    ops = dict(module.ops)
    ops[edge_id] = ops[edge_id] + eps
    return PythagoreanModule(module.graph, module.dims, ops)


def module_allclose(m1: PythagoreanModule, m2: PythagoreanModule,
                    tol: float = 0.0) -> bool:
    if m1.graph != m2.graph or m1.dims != m2.dims:
        return False
    return all(
        np.allclose(m1.ops[e.id], m2.ops[e.id], rtol=0.0, atol=tol)
        for e in m1.graph.edges
    )


def compose_paths(left: Path, right: Path) -> Path:
    """Reference only: the path that traverses `right` first and then
    `left`. Requires source(left) == range(right); lengths add."""
    if left.graph != right.graph:
        raise GraphError("paths live on different graphs")
    if left.source != right.range:
        raise GraphError(
            f"paths do not compose: source {left.source!r} != range {right.range!r}"
        )
    return Path(left.graph, right.edges + left.edges, base=right.base)


def path_operator(module: PythagoreanModule, path: Path) -> np.ndarray:
    """Reference only: the matrix of a path action (fiber at range -> fiber
    at source); the first traversed edge is applied last. A length-0 path
    acts as the identity."""
    if path.graph != module.graph:
        raise ModuleError("path lives on a different graph")
    mat = np.eye(module.dims[path.range], dtype=np.complex128)
    for eid in reversed(path.edges):
        mat = module.ops[eid] @ mat
    return mat


def relabel_graph(graph: Graph, mapping: dict[str, str]) -> Graph:
    """Rename vertices in place (edge ids kept), preserving listed order."""
    return Graph(
        tuple(mapping[v] for v in graph.vertices),
        tuple(Edge(e.id, mapping[e.source], mapping[e.range]) for e in graph.edges),
    )


def random_feasible_dims(graph: Graph, rng, hi: int = 3) -> dict[str, int]:
    """Draw per-vertex dims in 0..hi so that every receiving vertex can carry
    an isometry (incoming fibers at least as large as its own)."""
    while True:
        dims = {v: int(rng.integers(0, hi + 1)) for v in graph.vertices}
        if sum(dims.values()) == 0:
            continue
        feasible = all(
            sum(dims[e.source] for e in graph.in_edges(w)) >= dims[w]
            for w in graph.vertices
            if graph.in_edges(w)
        )
        if feasible:
            return dims


def overflow_module() -> PythagoreanModule:
    """Finite operators on sphere_odd_graph(2) whose Gram overflows to NaN at
    vertex "2", listed after the clean vertex "1"."""
    big = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
    ops = {"11": np.eye(1), "21": np.zeros((1, 2)), "22": big}
    return PythagoreanModule(sphere_odd_graph(2), {"1": 1, "2": 2}, ops)


def unfed_fiber_module() -> PythagoreanModule:
    """Edge a from u to v with fibers u: 0 and v: 2. The relation at v fails
    by sqrt(2), and the level-0 embedding of its lift has no entry."""
    graph = Graph(("u", "v"), (Edge("a", "u", "v"),))
    return PythagoreanModule(graph, {"u": 0, "v": 2}, {"a": np.zeros((0, 2))})


def expand_class(trunc: TruncatedLift, path, xi: np.ndarray, level: int) -> np.ndarray:
    """Reference class reduction: expand (path, xi) at the source end, one
    incoming edge at a time, until every summand's path is level-maximal."""
    g = trunc.module.graph
    pending = [(path.edges, path.base, np.asarray(xi, dtype=np.complex128))]
    coeffs = np.zeros(trunc.dimension_at(level), dtype=np.complex128)
    _, index = reference_basis(trunc.module, level)
    while pending:
        edges, base, vec = pending.pop()
        src = g.edge_by_id[edges[0]].source if edges else base
        if len(edges) == level or not g.in_edges(src):
            at = index[(edges, base)]
            coeffs[at : at + vec.size] += vec
            continue
        for nu in g.in_edges(src):
            if trunc.module.dims[nu.source]:
                pending.append(((nu.id,) + edges, nu.source,
                                trunc.module.ops[nu.id] @ vec))
    return coeffs


@st.composite
def supported_graphs(draw):
    """A graph whose only cycles are loops, at most one per vertex, possibly
    with parallel edges. A loopless vertex may receive edges, so the draw
    can fall outside the spectrum's supported class (see `spectrum_graphs`).
    Vertices are listed in a drawn order, and edge ids are drawn labels of
    different lengths, so that neither the vertex order nor the id order
    follows the edges."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(i, i) for i in range(n) if draw(st.booleans())]
    for j in range(n):
        for i in range(j):
            pairs += [(i, j)] * draw(st.integers(0, 2))
    ids = draw(st.lists(st.integers(0, 200), min_size=len(pairs),
                        max_size=len(pairs), unique=True))
    edges = [Edge(str(label), names[i], names[j])
             for label, (i, j) in zip(ids, pairs)]
    return Graph(tuple(names), tuple(draw(st.permutations(edges))))


@st.composite
def spectrum_graphs(draw):
    """A graph in the spectrum's supported class: a `supported_graphs` draw
    with the edges into its loopless vertices left out."""
    g = draw(supported_graphs())
    looped = {e.source for e in g.edges if e.source == e.range}
    return Graph(g.vertices, tuple(e for e in g.edges if e.range in looped))


@st.composite
def small_multigraphs(draw):
    """Any multigraph with at most 4 vertices and 6 edges, outside the
    supported class too: cycles through distinct vertices, several loops at
    one vertex, parallel edges. Vertex order and edge ids are drawn as in
    `supported_graphs`."""
    n = draw(st.integers(1, 4))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    ids = draw(st.lists(st.integers(0, 200), min_size=len(pairs),
                        max_size=len(pairs), unique=True))
    return Graph(tuple(names), tuple(Edge(str(label), names[i], names[j])
                                     for label, (i, j) in zip(ids, pairs)))


def skew_product(graph: Graph, p: int, weights: dict[str, int]) -> Graph:
    """Level the graph over the cyclic group of order p; the leveled odd
    sphere that `reference_lens_graph` contracts.

    Vertex (v, c) is named "v@c"; edge (e, c) is named "e@c" and runs from
    (source(e), c - weights[source(e)] mod p) to (range(e), c).
    """
    if p < 2:
        raise GraphError("cyclic order p must be >= 2")
    missing = [v for v in graph.vertices if v not in weights]
    if missing:
        raise GraphError(f"missing weights for vertices {missing}")
    vertices = tuple(f"{v}@{c}" for v in graph.vertices for c in range(p))
    edges = tuple(
        Edge(
            f"{e.id}@{c}",
            f"{e.source}@{(c - weights[e.source]) % p}",
            f"{e.range}@{c}",
        )
        for e in graph.edges
        for c in range(p)
    )
    return Graph(vertices, edges)


def reference_lens_graph(params: LensParams) -> Graph:
    """Reference only: the lens graph by a recursive DFS over the string
    vertices of the built skew product, copying the blocked set per step."""
    base = sphere_odd_graph(params.n)
    weights = {str(i + 1): params.weights[i] for i in range(params.n)}
    skew = skew_product(base, params.p, weights)

    def level_of(vertex: str) -> int:
        return int(vertex.rsplit("@", 1)[1])

    def paths_from(i: str) -> list[tuple[str, ...]]:
        start = f"{i}@0"
        found: list[tuple[str, ...]] = []

        def extend(at: str, acc: list[str], blocked: set[str]) -> None:
            for e in skew.out_edges(at):
                head = e.range
                if head in blocked:
                    continue
                acc.append(e.id)
                if len(acc) == 1:
                    found.append(tuple(acc))
                    extend(head, acc, blocked | {head})
                elif level_of(head) == 0:
                    found.append(tuple(acc))
                else:
                    extend(head, acc, blocked | {head})
                acc.pop()

        extend(start, [], {start})
        return found

    index = {v: k for k, v in enumerate(base.vertices)}
    edges = []
    for i in base.vertices:
        for ids in paths_from(i):
            target = skew.edge_by_id[ids[-1]].range.rsplit("@", 1)[0]
            edges.append(Edge(".".join(reversed(ids)), i, target))
    edges.sort(key=lambda e: (index[e.source], index[e.range], e.id))
    return Graph(base.vertices, tuple(edges))


def reference_graph_from_dict(doc) -> Graph:
    """Reference only: the graph decoder that checks and builds item by item,
    raising at the first fault in document order."""
    _need(doc, "/", dict, "object")
    vertices = _need(_need_key(doc, "/", "vertices"), "/vertices", list, "array")
    for i, v in enumerate(vertices):
        _need(v, f"/vertices/{i}", str, "string")
    raw_edges = _need(_need_key(doc, "/", "edges"), "/edges", list, "array")
    edges = []
    for i, entry in enumerate(raw_edges):
        _need(entry, f"/edges/{i}", dict, "object")
        fields = {}
        for key in ("id", "source", "range"):
            fields[key] = _need(
                _need_key(entry, f"/edges/{i}", key), f"/edges/{i}/{key}", str, "string"
            )
        edges.append(Edge(fields["id"], fields["source"], fields["range"]))
    try:
        return Graph(tuple(vertices), tuple(edges))
    except GraphError as exc:
        raise CodecError(f"/: {exc}") from exc


def _reference_entries_to_matrix(doc, where: str, shape: tuple[int, int]) -> np.ndarray:
    rows, cols = shape
    _need(doc, where, list, "array")
    if len(doc) != rows:
        _fail(where, f"expected {rows} rows, got {len(doc)}")
    out = np.zeros(shape, dtype=np.complex128)
    for i, row in enumerate(doc):
        _need(row, f"{where}/{i}", list, "array")
        if len(row) != cols:
            _fail(f"{where}/{i}", f"expected {cols} entries, got {len(row)}")
        for j, pair in enumerate(row):
            _need(pair, f"{where}/{i}/{j}", list, "array")
            if len(pair) != 2 or not all(_is_int(x) or isinstance(x, float) for x in pair):
                _fail(f"{where}/{i}/{j}", "expected a [re, im] pair of numbers")
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError:  # an integer literal beyond float range
                _fail(f"{where}/{i}/{j}", "number out of float range")
    return out


def reference_module_from_dict(doc) -> PythagoreanModule:
    """Reference only: the module decoder that checks and converts every
    operator entry by entry, raising at the first fault in edge order."""
    _need(doc, "/", dict, "object")
    graph = reference_graph_from_dict(_need_key(doc, "/", "graph"))
    raw_dims = _need(_need_key(doc, "/", "dims"), "/dims", dict, "object")
    dims = {}
    for v, d in raw_dims.items():
        if v not in graph.vertex_index:
            _fail(f"/dims/{v}", "unknown vertex")
        if not _is_int(d) or d < 0:
            _fail(f"/dims/{v}", "expected a nonnegative integer")
        dims[v] = d
    dims = {v: dims.get(v, 0) for v in graph.vertices}
    raw_ops = _need(_need_key(doc, "/", "ops"), "/ops", dict, "object")
    for eid in raw_ops:
        if eid not in graph.edge_by_id:
            _fail(f"/ops/{eid}", "unknown edge")
    ops = {}
    for e in graph.edges:
        if e.id not in raw_ops:
            _fail("/ops", f"missing operator for edge {e.id!r}")
        shape = (dims[e.source], dims[e.range])
        ops[e.id] = _reference_entries_to_matrix(raw_ops[e.id], f"/ops/{e.id}", shape)
    try:
        return PythagoreanModule(graph, dims, ops)
    except ModuleError as exc:
        raise CodecError(f"/: {exc}") from exc


def reference_edge_operators(graph: Graph, dims: dict[str, int], ops: dict) -> dict:
    """Reference only: module operators checked one edge at a time, in edge
    order, raising at the first missing or bad one."""
    checked = {}
    for e in graph.edges:
        if e.id not in ops:
            raise ModuleError(f"missing operator for edge {e.id!r}")
        checked[e.id] = modules._as_operator(ops[e.id], (dims[e.source], dims[e.range]),
                                             f"edge {e.id!r}")
    return checked


def reference_validate_residuals(module: PythagoreanModule) -> tuple[dict, tuple]:
    """Reference only: `validate_module`'s residuals and exempt vertices,
    from each vertex's `in_edges` views."""
    residuals, exempt = {}, []
    for w in module.graph.vertices:
        incoming = module.graph.in_edges(w)
        if not incoming or module.dims[w] == 0:
            exempt.append(w)
            continue
        stacked = np.vstack([module.ops[e.id] for e in incoming])
        gram = stacked.conj().T @ stacked
        residuals[w] = float(np.linalg.norm(gram - np.eye(module.dims[w]), "fro"))
    return residuals, tuple(exempt)


def nested_parse(argv: list[str]):
    """Reference only: argv parsed through the whole parser tree, the top
    parser, then the group parser, then the command's own."""
    return cli.build_parser().parse_args(argv)


def parse_outcome(parse, argv: list[str]) -> tuple:
    """What `parse(argv)` gives: the vars of its Namespace, or its
    SystemExit code, then the text it wrote to stdout and to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()
