"""Shared oracles and builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from graphlift import (
    CkReport,
    Edge,
    Graph,
    GraphError,
    LensParams,
    PythagoreanModule,
    TruncatedLift,
    maximal_paths,
    sphere_odd_graph,
)
from graphlift import modules
from graphlift.io import CodecError, _need, _need_key, lift_to_dict


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
    off = module.offsets
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


def partial_maps_dict(trunc: TruncatedLift) -> dict:
    """Reference only: the "partial-maps" lift document, one -1-padded
    `reference_edge_targets` list per edge and level and the listed indices of
    each projection block (from `paths_at(k).bounds`), with the same module,
    level and bases as `lift_to_dict`."""
    doc = lift_to_dict(trunc)
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
    """A graph in the supported class: at most one loop per vertex and an
    acyclic rest, possibly with parallel edges. Vertices are listed in a
    drawn order, and edge ids are drawn labels of different lengths, so
    that neither the vertex order nor the id order follows the edges."""
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
