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
# random combinations of the intertwiner basis that `are_equivalent` tries
EQUIVALENCE_DRAWS = 20
EQUIVALENCE_SEED = 0


class ModuleError(ValueError):
    """Raised for malformed modules or unsatisfiable module operations."""


def _as_operator(value, shape: tuple[int, int], edge_id: str) -> np.ndarray:
    a = np.asarray(value, dtype=np.complex128)
    if a.size == 0 and 0 in shape:
        return np.zeros(shape, dtype=np.complex128)
    if a.shape != shape:
        raise ModuleError(f"edge {edge_id!r}: operator shape {a.shape} != {shape}")
    if not np.isfinite(a).all():
        raise ModuleError(f"edge {edge_id!r}: operator has non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class PythagoreanModule:
    """Vertex fiber dimensions plus one edge operator per edge."""

    graph: Graph
    dims: dict[str, int]
    ops: dict[str, np.ndarray]

    def __post_init__(self):
        unknown = set(self.dims) - set(self.graph.vertices)
        if unknown:
            raise ModuleError(f"dims name unknown vertices {sorted(unknown)}")
        dims = {}
        for v in self.graph.vertices:
            d = int(self.dims.get(v, 0))
            if d < 0:
                raise ModuleError(f"negative dimension at vertex {v!r}")
            dims[v] = d
        unknown = set(self.ops) - set(self.graph.edge_by_id)
        if unknown:
            raise ModuleError(f"ops name unknown edges {sorted(unknown)}")
        ops = {}
        for e in self.graph.edges:
            if e.id not in self.ops:
                raise ModuleError(f"missing operator for edge {e.id!r}")
            ops[e.id] = _as_operator(self.ops[e.id], (dims[e.source], dims[e.range]), e.id)
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


def validate_module(module: PythagoreanModule, tol: float = 1e-9) -> ModuleReport:
    """Check sum of A_g* A_g over incoming edges against the identity at every
    vertex; vertices with no incoming edges or a zero fiber are exempt."""
    if tol <= 0:
        raise ModuleError("tolerance must be positive")
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
    return ModuleReport(residuals, tuple(exempt), float(tol))


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
    unknown = set(dims) - set(graph.vertices)
    if unknown:
        raise ModuleError(f"dims name unknown vertices {sorted(unknown)}")
    full = {v: int(dims.get(v, 0)) for v in graph.vertices}
    if any(d < 0 for d in full.values()):
        raise ModuleError("dimensions must be nonnegative")
    rng = np.random.default_rng(seed)
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


def _nullspace(system: np.ndarray) -> np.ndarray:
    """Orthonormal basis (as columns) of the right nullspace; singular values
    up to RANK_TOL times the largest, or times 1 if that is smaller, count as
    zero, so a system of pure roundoff has full nullity. Only a wide system
    needs the full right factor; a tall one never forms a rows x rows U."""
    rows, cols = system.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(system, full_matrices=rows < cols)
    cutoff = RANK_TOL * max(1.0, s[0])
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _graded_nullspace(graph: Graph, dims_s: dict[str, int], dims_t: dict[str, int],
                      relations) -> tuple[np.ndarray, dict[str, slice]]:
    """Nullspace of theta_head a = b theta_tail, one equation per relation
    (head, tail, a, b), over graded maps theta with blocks theta_v of shape
    dims_t[v] x dims_s[v], each flattened row-major and stacked in vertex
    order. Returns the nullspace columns and each vertex's column slice."""
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
    stacked per-edge equations are solved by SVD."""
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


def _global_generators(module: PythagoreanModule) -> list[np.ndarray]:
    """Vertex projections and edge operators as matrices on the total fiber."""
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


def _algebra_dimension(gens: list[np.ndarray], d: int) -> int:
    """Dimension of the unital algebra spanned by words in `gens`, computed by
    span closure under right multiplication, one frontier round at a time.

    Each round stacks the products m @ g of the last round's new elements,
    projects the basis out twice (the second pass keeps it orthonormal in
    float) and keeps the left singular vectors whose singular value exceeds
    RANK_TOL times the largest candidate norm (at least 1)."""
    stack = np.asarray(gens)
    cap = d * d
    basis = np.eye(d, dtype=np.complex128).reshape(cap, 1) / np.sqrt(d)
    frontier = basis
    while frontier.shape[1] and basis.shape[1] < cap:
        mats = frontier.T.reshape(-1, 1, d, d)
        cand = (mats @ stack).reshape(-1, cap).T
        scale = max(1.0, float(np.linalg.norm(cand, axis=0).max()))
        for _ in range(2):
            cand = cand - basis @ (basis.conj().T @ cand)
        u, s, _ = np.linalg.svd(cand, full_matrices=False)
        frontier = u[:, s > RANK_TOL * scale][:, : cap - basis.shape[1]]
        basis = np.hstack([basis, frontier])
    return basis.shape[1]


def is_irreducible(module: PythagoreanModule) -> bool:
    """Burnside test: the module has no proper graded invariant subspace iff
    the unital algebra generated by the vertex projections and edge operators
    is the full matrix algebra on the total fiber."""
    d = module.total_dim
    if d == 0:
        raise ModuleError("the zero module has no irreducibility verdict")
    gens = _global_generators(module)
    return _algebra_dimension(gens, d) == d * d


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
    for v, d in dims.items():
        if d == 0:
            continue
        s = np.linalg.svd(theta[v], compute_uv=False)
        if s[-1] <= RANK_TOL * max(1.0, s[0]):
            return False
    return True


def are_equivalent(m1: PythagoreanModule, m2: PythagoreanModule) -> Equivalence:
    """Decide module equivalence where possible.

    Mismatched fibers or a vanishing intertwiner space in either direction
    settle inequivalence; an invertible random combination of the intertwiner
    basis (or irreducibility of both sides plus a nonzero intertwiner) settles
    equivalence with a certificate. Anything else is reported undetermined.
    """
    if m1.graph != m2.graph:
        raise ModuleError("modules live on different graphs")
    g = m1.graph
    if m1.total_dim == 0 and m2.total_dim == 0:
        return Equivalence(EQUIVALENT, {v: np.zeros((0, 0)) for v in g.vertices})
    if any(m1.dims[v] != m2.dims[v] for v in g.vertices):
        return Equivalence(INEQUIVALENT)
    forward = intertwiner_space(m1, m2)
    if forward.dimension == 0 or intertwiner_space(m2, m1).dimension == 0:
        return Equivalence(INEQUIVALENT)
    rng = np.random.default_rng(EQUIVALENCE_SEED)
    for _ in range(EQUIVALENCE_DRAWS):
        coeff = rng.standard_normal(forward.dimension) + 1j * rng.standard_normal(
            forward.dimension
        )
        theta = {
            v: sum(c * b[v] for c, b in zip(coeff, forward.basis))
            for v in g.vertices
        }
        if _graded_invertible(theta, m1.dims):
            return Equivalence(EQUIVALENT, theta)
    if is_irreducible(m1) and is_irreducible(m2):
        # a nonzero intertwiner between irreducibles is automatically invertible
        return Equivalence(EQUIVALENT, forward.basis[0])
    return Equivalence(UNDETERMINED)
