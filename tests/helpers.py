"""Shared oracles and builders for the test suite."""

from __future__ import annotations

import numpy as np

from graphlift import (
    CkReport,
    Edge,
    Graph,
    PythagoreanModule,
    TruncatedLift,
    sphere_odd_graph,
)


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


def orbit_span_dim(module: PythagoreanModule, vec: np.ndarray) -> int:
    """Dimension of the orbit of vec under the generated unital algebra. The
    seed may also be a d x d matrix: the orbit of the identity is the algebra."""
    from graphlift.modules import _global_generators

    basis: list[np.ndarray] = []
    seed = np.asarray(vec, dtype=np.complex128)
    if _span_append(basis, seed) is None:
        return 0
    gens = _global_generators(module)
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
    from graphlift.modules import _global_generators

    d = module.total_dim
    eye = np.eye(d, dtype=np.complex128)
    blocks = [
        np.kron(eye, mat.T) - np.kron(mat, eye)
        for g in _global_generators(module)
        for mat in (g, g.conj().T)
    ]
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return d * d - int(np.sum(s > _SPAN_TOL * max(1.0, s[0])))


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


def expand_class(trunc: TruncatedLift, path, xi: np.ndarray, level: int) -> np.ndarray:
    """Reference class reduction: expand (path, xi) at the source end, one
    incoming edge at a time, until every summand's path is level-maximal."""
    g = trunc.module.graph
    pending = [(path.edges, path.base, np.asarray(xi, dtype=np.complex128))]
    coeffs = np.zeros(trunc.dimension_at(level), dtype=np.complex128)
    index = trunc._index(level)
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
