"""Finite-dimensional modules over a graph algebra.

A module assigns a fiber dimension to every vertex and a complex matrix to
every edge g, of shape dims[source(g)] x dims[range(g)]; the matrix is the
operator from the fiber at range(g) to the fiber at source(g). Paths act
contravariantly: the matrix of a composite applies the first traversed edge
last. The defining relation lives at every vertex w that receives at least
one edge: the matrices of the incoming edges, stacked, must have orthonormal
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Graph, Path

RANK_TOL = 1e-10
# seed of the one intertwiner combination that `are_equivalent` draws
EQUIVALENCE_SEED = 0


class ModuleError(ValueError):
    """Raised for malformed modules or unsatisfiable module operations."""


def _require_count(value, what: str) -> int:
    """A nonnegative integer, numpy's included; bools, floats and anything
    else raise a ModuleError that names `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ModuleError(f"{what} must be a nonnegative integer, got {value!r}")
    return int(value)


def _full_dims(graph: Graph, dims: dict) -> dict[str, int]:
    """The fiber dimension of every vertex of `graph`, 0 where `dims` has
    none; a ModuleError for a vertex not in the graph or a bad dimension."""
    unknown = set(dims) - set(graph.vertices)
    if unknown:
        raise ModuleError(f"dims name unknown vertices {sorted(unknown, key=repr)}")
    return {v: _require_count(dims.get(v, 0), f"dimension at vertex {v!r}")
            for v in graph.vertices}


def _as_operator(value, shape: tuple[int, int], label: str) -> np.ndarray:
    """`value` as a finite complex matrix of `shape`, any empty array
    standing for a zero-size one; else a ModuleError that starts with
    `label`, which names the operator."""
    a = np.asarray(value, dtype=np.complex128)
    if a.size == 0 and 0 in shape:
        return np.zeros(shape, dtype=np.complex128)
    if a.shape != shape:
        raise ModuleError(f"{label}: operator shape {a.shape} != {shape}")
    if not np.isfinite(a).all():
        raise ModuleError(f"{label}: operator has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class PythagoreanModule:
    """Vertex fiber dimensions plus one edge operator per edge."""

    graph: Graph
    dims: dict[str, int]
    ops: dict[str, np.ndarray]

    def __post_init__(self):
        dims = _full_dims(self.graph, self.dims)
        unknown = set(self.ops) - set(self.graph.edge_by_id)
        if unknown:
            raise ModuleError(f"ops name unknown edges {sorted(unknown, key=repr)}")
        ops = {}
        for e in self.graph.edges:
            if e.id not in self.ops:
                raise ModuleError(f"missing operator for edge {e.id!r}")
            ops[e.id] = _as_operator(self.ops[e.id], (dims[e.source], dims[e.range]),
                                     f"edge {e.id!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ops", ops)

    @cached_property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @cached_property
    def offsets(self) -> dict[str, int]:
        """Start of each vertex block in the concatenated fiber ordering."""
        table = {}
        at = 0
        for v in self.graph.vertices:
            table[v] = at
            at += self.dims[v]
        return table


@dataclass(frozen=True)
class ModuleReport:
    """Per-vertex Frobenius residuals of the summed-isometry relation."""

    residuals: dict[str, float]
    exempt: tuple[str, ...]
    tol: float

    @property
    def max_residual(self) -> float:
        """The worst residual; NaN when any residual is NaN."""
        return float(np.max(list(self.residuals.values()), initial=0.0))

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _require_tolerance(tol: float) -> float:
    """The one tolerance rule: a positive finite number, else ModuleError."""
    if not (np.isfinite(tol) and tol > 0):
        raise ModuleError(f"tolerance must be a positive finite number, got {tol!r}")
    return float(tol)


def validate_module(module: PythagoreanModule, tol: float = 1e-9) -> ModuleReport:
    """Check sum of A_g* A_g over incoming edges against the identity at every
    vertex; vertices with no incoming edges or a zero fiber are exempt."""
    tol = _require_tolerance(tol)
    residuals = {}
    exempt = []
    for w in module.graph.vertices:
        incoming = module.graph.in_edges(w)
        if not incoming or module.dims[w] == 0:
            exempt.append(w)
            continue
        stacked = np.vstack([module.ops[e.id] for e in incoming])
        gram = stacked.conj().T @ stacked
        residuals[w] = float(np.linalg.norm(gram - np.eye(module.dims[w]), "fro"))
    return ModuleReport(residuals, tuple(exempt), tol)


def one_dim_module(graph: Graph, v: str, z: complex) -> PythagoreanModule:
    """One-dimensional module at a vertex carrying exactly one loop: the loop
    acts by the unit scalar z, everything else is zero-shaped."""
    graph.require_vertex(v)
    loops = [e for e in graph.out_edges(v) if e.range == v]
    if len(loops) != 1:
        raise ModuleError(f"vertex {v!r} carries {len(loops)} loops, need exactly one")
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-12:
        raise ModuleError(f"loop scalar must have modulus 1, got |z| = {abs(z)!r}")
    dims = {u: (1 if u == v else 0) for u in graph.vertices}
    ops = {}
    for e in graph.edges:
        if e.id == loops[0].id:
            ops[e.id] = np.array([[z]], dtype=np.complex128)
        else:
            ops[e.id] = np.zeros((dims[e.source], dims[e.range]), dtype=np.complex128)
    return PythagoreanModule(graph, dims, ops)


def isolated_module(graph: Graph, v: str) -> PythagoreanModule:
    """One-dimensional module at a vertex that receives no edges; all operators
    are zero-shaped, and no relation constrains the fiber."""
    graph.require_vertex(v)
    if graph.in_edges(v):
        raise ModuleError(f"vertex {v!r} receives edges; the relation there cannot hold")
    dims = {u: (1 if u == v else 0) for u in graph.vertices}
    ops = {
        e.id: np.zeros((dims[e.source], dims[e.range]), dtype=np.complex128)
        for e in graph.edges
    }
    return PythagoreanModule(graph, dims, ops)


def direct_sum(m1: PythagoreanModule, m2: PythagoreanModule) -> PythagoreanModule:
    """Blockwise direct sum; fibers concatenate with m1 first."""
    if m1.graph != m2.graph:
        raise ModuleError("modules live on different graphs")
    g = m1.graph
    dims = {v: m1.dims[v] + m2.dims[v] for v in g.vertices}
    ops = {}
    for e in g.edges:
        a, b = m1.ops[e.id], m2.ops[e.id]
        block = np.zeros((dims[e.source], dims[e.range]), dtype=np.complex128)
        block[: a.shape[0], : a.shape[1]] = a
        block[a.shape[0] :, a.shape[1] :] = b
        ops[e.id] = block
    return PythagoreanModule(g, dims, ops)


def random_module(graph: Graph, dims: dict[str, int], seed: int) -> PythagoreanModule:
    """Random module, deterministic in `seed`: at each receiving vertex the
    incoming stack is the column-orthonormalization of a complex Gaussian
    sample, split back into per-edge blocks (incoming edges in id order)."""
    full = _full_dims(graph, dims)
    rng = np.random.default_rng(_require_count(seed, "seed"))
    ops: dict[str, np.ndarray] = {}
    for w in graph.vertices:
        incoming = graph.in_edges(w)
        if not incoming:
            continue
        cols = full[w]
        rows = sum(full[e.source] for e in incoming)
        if cols == 0:
            for e in incoming:
                ops[e.id] = np.zeros((full[e.source], 0), dtype=np.complex128)
            continue
        if rows < cols:
            raise ModuleError(
                f"vertex {w!r}: incoming fibers total {rows} < {cols}, no isometry fits"
            )
        sample = (
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        ) / np.sqrt(2.0)
        q = np.linalg.qr(sample)[0]
        at = 0
        for e in incoming:
            d = full[e.source]
            ops[e.id] = q[at : at + d, :].copy()
            at += d
    return PythagoreanModule(graph, full, ops)


def path_operator(module: PythagoreanModule, path: Path) -> np.ndarray:
    """Matrix of a path action (fiber at range -> fiber at source); the first
    traversed edge is applied last. A length-0 path acts as the identity."""
    if path.graph != module.graph:
        raise ModuleError("path lives on a different graph")
    mat = np.eye(module.dims[path.range], dtype=np.complex128)
    for eid in reversed(path.edges):
        mat = module.ops[eid] @ mat
    return mat


def _rank(s: np.ndarray, scale: float) -> int:
    """The one rank rule: the count of singular values `s` above RANK_TOL
    times `scale`, or times 1 if that is smaller, so pure roundoff has rank 0."""
    return int(np.sum(s > RANK_TOL * max(1.0, scale)))


def _nullspace(system: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the right nullspace; the rank is
    `_rank` scaled by the largest singular value, so a system of pure
    roundoff has full nullity. Only a wide system needs the full right
    factor; a tall one never forms a rows x rows U."""
    rows, cols = system.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(system, full_matrices=rows < cols)
    return vh[_rank(s, s[0]):].conj().T


def _graded_nullspace(graph: Graph, dims_s: dict[str, int], dims_t: dict[str, int],
                      relations) -> tuple[np.ndarray, dict[str, slice]]:
    """Nullspace of theta_head a = b theta_tail, one equation per relation
    (head, tail, a, b), over graded maps theta with blocks theta_v of shape
    dims_t[v] x dims_s[v], each flattened row-major and stacked in vertex
    order. Returns the nullspace columns and each vertex's column slice.

    Relation (head, tail, a, b) owns the m * n rows (i, j) of one zeroed
    system, m = dims_t[head] and n = dims_s[tail]. Only the nonzeros of its
    two Kronecker terms are written: I (x) a^T puts a[k, j] at column (i, k)
    of the head block, and b (x) I puts -b[i, l] at column (l, j) of the tail
    block, m * n * (p + q) entries for a of p rows and b of q columns. The
    relations are grouped by block shape (m, n, p, q), and each term of a
    group is one indexed read-modify-write of the flat system; a loop's two
    terms can share entries, so the terms are never merged or assigned. A
    skipped product is a zero, and a written one differs from the Kronecker
    product's at most in the sign of a zero part; adding a zero to an entry of
    +0.0, or subtracting one from an entry that is never -0.0, changes no bit,
    so every entry is bitwise the one the Kronecker products give."""
    span = {}
    cols = 0
    for v in graph.vertices:
        span[v] = slice(cols, cols + dims_t[v] * dims_s[v])
        cols = span[v].stop
    groups: dict[tuple[int, int, int, int], tuple[list, list, list, list]] = {}
    rows = 0
    for head, tail, a, b in relations:
        m, n = dims_t[head], dims_s[tail]
        if m * n == 0:
            continue
        heads, tails, a_blocks, b_blocks = groups.setdefault(
            (m, n, a.shape[0], b.shape[1]), ([], [], [], []))
        # flat offsets of the relation's first row at the head and tail blocks
        heads.append(rows * cols + span[head].start)
        tails.append(rows * cols + span[tail].start)
        a_blocks.append(a)
        b_blocks.append(b)
        rows += m * n
    system = np.zeros((rows, cols), dtype=np.complex128)
    flat = system.reshape(-1)
    for (m, n, p, q), (heads, tails, a_blocks, b_blocks) in groups.items():
        i, j = np.arange(m)[:, None, None], np.arange(n)[:, None]
        row_at = (i * n + j) * cols  # flat start of row (i, j), shape (m, n, 1)
        head_at = row_at + i * p + np.arange(p)
        tail_at = row_at + np.arange(q) * n + j
        flat[np.array(heads)[:, None, None, None] + head_at] += (
            np.array(a_blocks).transpose(0, 2, 1)[:, None])
        flat[np.array(tails)[:, None, None, None] + tail_at] -= (
            np.array(b_blocks)[:, :, None])
    return _nullspace(system), span


@dataclass(frozen=True)
class IntertwinerSpace:
    """Orthonormal basis of the graded maps commuting with the edge actions."""

    source: PythagoreanModule
    target: PythagoreanModule
    basis: tuple[dict[str, np.ndarray], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def intertwiner_space(source: PythagoreanModule, target: PythagoreanModule) -> IntertwinerSpace:
    """Solve theta_{source(g)} A_g = A'_g theta_{range(g)} for all edges g.

    Commuting with the vertex projections makes a map block diagonal, so the
    unknowns are the graded blocks theta_v alone: the sum over vertices of
    target x source fiber dimensions, not the square of the total fiber. The
    per-edge equations fill their rows of one graded system in place
    (`_graded_nullspace`), which is solved by SVD."""
    if source.graph != target.graph:
        raise ModuleError("modules live on different graphs")
    g = source.graph
    relations = [(e.source, e.range, source.ops[e.id], target.ops[e.id]) for e in g.edges]
    null, span = _graded_nullspace(g, source.dims, target.dims, relations)
    basis = tuple(
        {v: vec[span[v]].reshape(target.dims[v], source.dims[v]) for v in g.vertices}
        for vec in null.T
    )
    return IntertwinerSpace(source, target, basis)


def _support_reaches(module: PythagoreanModule) -> bool:
    """Whether every support vertex (nonzero fiber) reaches every other one
    through edges whose two ends are both in the support. When u cannot reach
    v, no path with source u and range v exists, so P_u alg P_v = 0: an exact
    certificate of reducibility that needs no numerics."""
    support = [v for v in module.graph.vertices if module.dims[v]]
    for v in support:
        seen = {v}
        todo = [v]
        while todo:
            for e in module.graph.out_edges(todo.pop()):
                if module.dims[e.range] and e.range not in seen:
                    seen.add(e.range)
                    todo.append(e.range)
        if len(seen) < len(support):
            return False
    return True


def _column_blocks(module: PythagoreanModule, v: str) -> dict[str, int]:
    """Dimensions of the blocks B(u, v) = P_u alg P_v of the unital algebra
    generated by the vertex projections and edge operators, for every vertex
    u with a nonzero fiber, by span closure over the paths with range v.

    B(v, v) starts from I_v; each round adds A_e B(range(e), v) to B(u, v) for
    the edges e with source u, applied to the last round's new elements only.
    A block is a set of orthonormal rows of length d_u d_v (row-major
    flattening). The candidates of one edge at a time are projected off the
    block twice (the second pass keeps it orthonormal in float) and kept by
    `_rank` on their singular values, scaled by the largest candidate norm;
    so the working set is the blocks plus one edge's products."""
    dims = module.dims
    dv = dims[v]
    edges_from = {
        u: [(module.ops[e.id], e.range) for e in module.graph.out_edges(u)
            if dims[e.range]]
        for u in module.graph.vertices if dims[u]
    }
    basis = {u: np.zeros((0, dims[u] * dv), dtype=np.complex128) for u in edges_from}
    basis[v] = np.eye(dv, dtype=np.complex128).reshape(1, dv * dv) / np.sqrt(dv)
    frontier = {v: basis[v]}
    while frontier:
        fresh = {}
        for u, edges in edges_from.items():
            cap = dims[u] * dv
            for a, w in edges:
                room = cap - basis[u].shape[0]
                if not room or w not in frontier:
                    continue
                cand = (a @ frontier[w].reshape(-1, dims[w], dv)).reshape(-1, cap)
                scale = float(np.linalg.norm(cand, axis=1).max())
                for _ in range(2):
                    cand = cand - (cand @ basis[u].conj().T) @ basis[u]
                _, s, vh = np.linalg.svd(cand, full_matrices=False)
                new = vh[: min(_rank(s, scale), room)]
                if new.shape[0]:
                    basis[u] = np.vstack([basis[u], new])
                    fresh.setdefault(u, []).append(new)
        frontier = {u: np.vstack(parts) for u, parts in fresh.items()}
    return {u: b.shape[0] for u, b in basis.items()}


def is_irreducible(module: PythagoreanModule) -> bool:
    """Graded Burnside test: the module has no proper graded invariant
    subspace iff the unital algebra generated by the vertex projections and
    edge operators is the full matrix algebra on the total fiber. The
    projections split that algebra into blocks P_u alg P_v, so this holds iff
    every block is all of M_{d_u x d_v}. A support that is not strongly
    connected settles the verdict exactly; otherwise each block column is
    closed by `_column_blocks`, and no matrix on the total fiber is formed."""
    if module.total_dim == 0:
        raise ModuleError("the zero module has no irreducibility verdict")
    if not _support_reaches(module):
        return False
    dims = module.dims
    return all(
        rank == dims[u] * dims[v]
        for v in module.graph.vertices if dims[v]
        for u, rank in _column_blocks(module, v).items()
    )


def is_indecomposable(module: PythagoreanModule) -> bool:
    """True iff only scalars commute with all generators and their adjoints.

    Commuting with the vertex projections makes a map graded, so this
    commutant is End(M) intersected with End(M)*: the graded theta with
    theta_{source(g)} A_g = A_g theta_{range(g)} (the intertwiner system of M
    with itself) and theta_{range(g)} A_g* = A_g* theta_{source(g)}, which
    says that theta* lies in End(M). A splitting into two mutually orthogonal
    submodules is the same thing as a nontrivial orthogonal projection in
    that commutant, and a star-closed commutant of dimension > 1 always
    contains one.
    """
    if module.total_dim == 0:
        raise ModuleError("the zero module has no decomposability verdict")
    relations = []
    for e in module.graph.edges:
        a = module.ops[e.id]
        a_star = a.conj().T
        relations += [(e.source, e.range, a, a), (e.range, e.source, a_star, a_star)]
    null, _ = _graded_nullspace(module.graph, module.dims, module.dims, relations)
    return null.shape[1] == 1


EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Equivalence:
    verdict: str
    certificate: dict[str, np.ndarray] | None = None


def _graded_invertible(theta: dict[str, np.ndarray], dims: dict[str, int]) -> bool:
    return all(_nullspace(theta[v]).shape[1] == 0 for v, d in dims.items() if d)


def are_equivalent(m1: PythagoreanModule, m2: PythagoreanModule) -> Equivalence:
    """Decide module equivalence where possible.

    Mismatched fibers settle inequivalence. Otherwise one seeded random
    combination of the Hom(m1, m2) basis is drawn; if it is invertible it
    settles equivalence and is the certificate. If it is not (or Hom(m1, m2)
    is zero), a zero intertwiner space in either direction settles
    inequivalence. Equivalent modules have dim Hom(m1, m2) = dim Hom(m2, m1)
    = dim End(m1) = dim End(m2), so when both spaces are nonzero End(m1) and
    End(m2) are solved, and any mismatch settles inequivalence. Four equal
    dimensions leave the verdict undetermined; between direct sums of
    irreducibles they force equivalence, so only non-semisimple pairs remain.
    """
    if m1.graph != m2.graph:
        raise ModuleError("modules live on different graphs")
    g = m1.graph
    if m1.total_dim == 0 and m2.total_dim == 0:
        return Equivalence(EQUIVALENT, {v: np.zeros((0, 0)) for v in g.vertices})
    if any(m1.dims[v] != m2.dims[v] for v in g.vertices):
        return Equivalence(INEQUIVALENT)
    forward = intertwiner_space(m1, m2)
    if forward.dimension:
        rng = np.random.default_rng(EQUIVALENCE_SEED)
        coeff = rng.standard_normal(forward.dimension) + 1j * rng.standard_normal(
            forward.dimension
        )
        theta = {
            v: sum(c * b[v] for c, b in zip(coeff, forward.basis))
            for v in g.vertices
        }
        if _graded_invertible(theta, m1.dims):
            return Equivalence(EQUIVALENT, theta)
    backward = intertwiner_space(m2, m1).dimension if forward.dimension else 0
    if backward == 0:
        return Equivalence(INEQUIVALENT)
    counts = {forward.dimension, backward, intertwiner_space(m1, m1).dimension,
              intertwiner_space(m2, m2).dimension}
    return Equivalence(UNDETERMINED if len(counts) == 1 else INEQUIVALENT)
