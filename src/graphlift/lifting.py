"""Exact finite truncations of the lifted representation of a module.

Level k of the lift is the space W_k spanned by classes (lambda, b) where
lambda runs over the maximal paths of level k at each vertex (range there,
length exactly k, or shorter with a source that receives no edges), b over a
basis of the fiber at source(lambda), and only paths with a nonzero source
fiber appear. The basis is declared orthonormal, so generator matrices are
exact 0/1 data: the edge operator E_e sends (mu, b) to (e.mu, b) when
source(e) = range(mu), and the vertex projection P_v keeps paths with range v.
The infinite space is never materialized; a lift at level m carries the bases
of levels 0..m+1 so that every operator out of level m still has a home.

The module operators enter through the level embeddings: (mu, b) expands at
the source end as the sum over incoming edges nu of (mu.nu, A_nu e_b), and
unextendable entries ride along unchanged. The embedding is an isometry
exactly when the module satisfies its defining relation, so the embedding
Gram residual is the lift-level witness of module validity; the edge and
projection relations hold identically and cannot see a perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Path, maximal_paths
from .modules import PythagoreanModule, validate_module

BasisEntry = tuple[Path, int]


class LiftError(ValueError):
    """Raised for out-of-range levels, bad words, or invalid inputs."""


class TruncatedLift:
    """Levels 0..level+1 of the lifted representation of one module."""

    def __init__(self, module: PythagoreanModule, level: int,
                 validate: bool = True, tol: float = 1e-9):
        if level < 0:
            raise LiftError("level must be nonnegative")
        if validate:
            report = validate_module(module, tol)
            if not report.passed:
                raise LiftError(
                    "module fails validation: max residual "
                    f"{report.max_residual:.3e} > {tol:.1e}"
                )
        self.module = module
        self.level = int(level)
        self._bases: dict[int, tuple[BasisEntry, ...]] = {}
        self._indexes: dict[int, dict] = {}

    def _check_level(self, k: int, top: int) -> int:
        k = int(k)
        if not 0 <= k <= top:
            raise LiftError(f"level {k} outside 0..{top}")
        return k

    def basis_at(self, k: int) -> tuple[BasisEntry, ...]:
        """Ordered basis of W_k: vertex order, then path order, then fiber."""
        k = self._check_level(k, self.level + 1)
        if k not in self._bases:
            g = self.module.graph
            entries = []
            for v in g.vertices:
                for p in maximal_paths(g, v, k):
                    d = self.module.dims[p.source]
                    entries.extend((p, b) for b in range(d))
            self._bases[k] = tuple(entries)
            self._indexes[k] = {
                (p.edges, p.base, b): i for i, (p, b) in enumerate(self._bases[k])
            }
        return self._bases[k]

    @property
    def basis(self) -> tuple[BasisEntry, ...]:
        return self.basis_at(self.level)

    def dimension_at(self, k: int) -> int:
        return len(self.basis_at(k))

    @property
    def dimension(self) -> int:
        return self.dimension_at(self.level)

    def _index(self, k: int) -> dict:
        self.basis_at(k)
        return self._indexes[k]

    def edge_matrix(self, edge_id: str, k: int) -> np.ndarray:
        """Matrix of the edge generator from W_k to W_{k+1}; entries 0 or 1."""
        k = self._check_level(k, self.level)
        e = self.module.graph.edge_by_id.get(edge_id)
        if e is None:
            raise LiftError(f"unknown edge {edge_id!r}")
        target = self._index(k + 1)
        mat = np.zeros((self.dimension_at(k + 1), self.dimension_at(k)))
        for col, (p, b) in enumerate(self.basis_at(k)):
            if p.range != e.source:
                continue
            mat[target[(p.edges + (e.id,), p.base, b)], col] = 1.0
        return mat

    def projection_matrix(self, v: str, k: int) -> np.ndarray:
        """Diagonal projection onto classes whose path has range v, on W_k."""
        k = self._check_level(k, self.level + 1)
        self.module.graph.require_vertex(v)
        diag = np.array([1.0 if p.range == v else 0.0 for p, _ in self.basis_at(k)])
        return np.diag(diag)

    def embed_matrix(self, k: int) -> np.ndarray:
        """Matrix of the class-preserving embedding W_k -> W_{k+1}.

        Extendable entries expand at the source end through the module
        operators; entries whose source receives no edges map to themselves.
        """
        k = self._check_level(k, self.level)
        g = self.module.graph
        target = self._index(k + 1)
        mat = np.zeros((self.dimension_at(k + 1), self.dimension_at(k)),
                       dtype=np.complex128)
        for col, (p, b) in enumerate(self.basis_at(k)):
            incoming = g.in_edges(p.source)
            if not incoming:
                mat[target[(p.edges, p.base, b)], col] = 1.0
                continue
            for nu in incoming:
                a = self.module.ops[nu.id]
                if a.shape[0] == 0:
                    continue
                row0 = target[((nu.id,) + p.edges, nu.source, 0)]
                mat[row0 : row0 + a.shape[0], col] = a[:, b]
        return mat

    def reduce_class(self, path: Path | str, xi, level: int | None = None) -> "LiftVector":
        """Coordinates of the class of (path, xi) in the basis of W_level.

        The pair is expanded at the source end, one incoming edge at a time,
        until every summand's path is level-maximal; coefficients over equal
        paths accumulate. A vertex id stands for its length-0 path.
        """
        if isinstance(path, str):
            path = Path(self.module.graph, (), base=path)
        if path.graph != self.module.graph:
            raise LiftError("path lives on a different graph")
        m = self.level if level is None else self._check_level(level, self.level + 1)
        if path.length > m:
            raise LiftError(f"target level {m} below path length {path.length}")
        d = self.module.dims[path.source]
        if d == 0:
            raise LiftError(f"fiber at {path.source!r} is zero-dimensional")
        xi = np.asarray(xi, dtype=np.complex128).reshape(d)
        g = self.module.graph
        pending = {(path.edges, path.base): xi}
        done: dict[tuple, np.ndarray] = {}
        while pending:
            (edges, base), vec = pending.popitem()
            src = g.edge_by_id[edges[0]].source if edges else base
            incoming = g.in_edges(src)
            if len(edges) == m or not incoming:
                if vec.size:
                    done[(edges, base)] = done.get((edges, base), 0) + vec
                continue
            for nu in incoming:
                out = self.module.ops[nu.id] @ vec
                if not out.size:
                    continue
                key = ((nu.id,) + edges, nu.source)
                if key in pending:
                    pending[key] = pending[key] + out
                else:
                    pending[key] = out
        index = self._index(m)
        coeffs = np.zeros(self.dimension_at(m), dtype=np.complex128)
        for (edges, base), vec in done.items():
            at = index[(edges, base, 0)]
            coeffs[at : at + vec.size] += vec
        return LiftVector(self, m, coeffs)


def lift(module: PythagoreanModule, level: int, validate: bool = True,
         tol: float = 1e-9) -> TruncatedLift:
    """Build the truncated lift; by default the module is validated first."""
    return TruncatedLift(module, level, validate=validate, tol=tol)


@dataclass(eq=False)
class LiftVector:
    """Coefficient vector over the basis of one level of a lift."""

    lift: TruncatedLift
    level: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128).reshape(-1)
        want = self.lift.dimension_at(self.level)
        if self.coeffs.size != want:
            raise LiftError(f"coefficient count {self.coeffs.size} != {want}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def embed_vector(x: LiftVector) -> LiftVector:
    """Apply the level embedding; an isometry whenever the module is valid."""
    if x.level > x.lift.level:
        raise LiftError(f"no embedding out of level {x.level} in this lift")
    return LiftVector(x.lift, x.level + 1, x.lift.embed_matrix(x.level) @ x.coeffs)


@dataclass(frozen=True)
class GeneratorMatrices:
    """Edge matrices W_m -> W_{m+1} and vertex projections on W_m."""

    edges: dict[str, np.ndarray]
    projections: dict[str, np.ndarray]
    source_level: int
    target_level: int


def generator_matrices(trunc: TruncatedLift) -> GeneratorMatrices:
    m = trunc.level
    return GeneratorMatrices(
        edges={e.id: trunc.edge_matrix(e.id, m) for e in trunc.module.graph.edges},
        projections={
            v: trunc.projection_matrix(v, m) for v in trunc.module.graph.vertices
        },
        source_level=m,
        target_level=m + 1,
    )


@dataclass(frozen=True)
class CkReport:
    """Frobenius residuals of the generator relations at one level.

    projector_orthogonality and projector_completeness live on W_m;
    edge_isometry holds E*E - P_source per edge on W_m; vertex_sum holds
    sum(E E*) - P_w on W_{m+1} per receiving vertex w; embed_isometry holds
    the embedding Gram residual per level 0..m, the one entry that reflects
    the module relation rather than pure path combinatorics.
    """

    level: int
    projector_orthogonality: float
    projector_completeness: float
    edge_isometry: dict[str, float]
    vertex_sum: dict[str, float]
    embed_isometry: dict[int, float]

    @property
    def max_residual(self) -> float:
        worst = max(self.projector_orthogonality, self.projector_completeness)
        for table in (self.edge_isometry, self.vertex_sum, self.embed_isometry):
            worst = max(worst, max(table.values(), default=0.0))
        return worst

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_residual <= tol


def ck_residuals(trunc: TruncatedLift) -> CkReport:
    """Measure every defining relation of the lift at its level."""
    g = trunc.module.graph
    m = trunc.level
    diags = {v: np.diag(trunc.projection_matrix(v, m)) for v in g.vertices}
    ortho = 0.0
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1 :]:
            ortho = max(ortho, float(np.linalg.norm(diags[u] * diags[v])))
    total = sum(diags.values()) if diags else np.zeros(0)
    completeness = float(np.linalg.norm(total - np.ones(trunc.dimension_at(m))))
    edge_mats = {e.id: trunc.edge_matrix(e.id, m) for e in g.edges}
    edge_isometry = {}
    for e in g.edges:
        mat = edge_mats[e.id]
        gram = mat.T @ mat
        edge_isometry[e.id] = float(
            np.linalg.norm(gram - trunc.projection_matrix(e.source, m), "fro")
        )
    vertex_sum = {}
    for w in g.vertices:
        incoming = g.in_edges(w)
        if not incoming:
            continue
        acc = sum(edge_mats[e.id] @ edge_mats[e.id].T for e in incoming)
        vertex_sum[w] = float(
            np.linalg.norm(acc - trunc.projection_matrix(w, m + 1), "fro")
        )
    embed_isometry = {}
    for k in range(m + 1):
        emb = trunc.embed_matrix(k)
        gram = emb.conj().T @ emb
        embed_isometry[k] = float(
            np.linalg.norm(gram - np.eye(trunc.dimension_at(k)), "fro")
        )
    return CkReport(m, ortho, completeness, edge_isometry, vertex_sum, embed_isometry)


@dataclass(frozen=True)
class WordOperator:
    matrix: np.ndarray
    source_level: int
    target_level: int


def word_operator(trunc: TruncatedLift, word: list[str], start_level: int) -> WordOperator:
    """Compose generator matrices for a word of symbols, rightmost first.

    Symbols are edge ids (raise the level), edge ids suffixed with "*"
    (adjoints, lower the level), and vertex ids (projections). Every level
    visited must stay within 0..lift level.
    """
    g = trunc.module.graph
    k = trunc._check_level(start_level, trunc.level)
    mat = np.eye(trunc.dimension_at(k), dtype=np.complex128)
    for token in reversed(list(word)):
        if token.endswith("*") and token[:-1] in g.edge_by_id:
            if k == 0:
                raise LiftError(f"level underflow applying {token!r}")
            mat = trunc.edge_matrix(token[:-1], k - 1).T @ mat
            k -= 1
        elif token in g.edge_by_id:
            if k == trunc.level:
                raise LiftError(f"level overflow applying {token!r} at level {k}")
            mat = trunc.edge_matrix(token, k) @ mat
            k += 1
        elif token in g.vertex_index:
            mat = trunc.projection_matrix(token, k) @ mat
        else:
            raise LiftError(f"unknown symbol {token!r}")
    return WordOperator(mat, int(start_level), k)


def lift_intertwiner(theta: dict[str, np.ndarray], source: TruncatedLift,
                     target: TruncatedLift, tol: float = 1e-9,
                     level: int | None = None) -> np.ndarray:
    """Lift a graded intertwiner to a matrix between two lifts of one level.

    The map acts blockwise on each basis path's fiber, so it commutes with
    every generator matrix and with the embeddings. By default the matrix is
    produced at the lifts' own level; pass `level` for any materialized one.
    """
    if source.module.graph != target.module.graph:
        raise LiftError("lifts live on different graphs")
    if source.level != target.level:
        raise LiftError("lifts have different levels")
    g = source.module.graph
    blocks = {}
    for v in g.vertices:
        want = (target.module.dims[v], source.module.dims[v])
        block = np.asarray(theta.get(v, np.zeros(want)), dtype=np.complex128)
        if block.shape != want:
            if block.size == 0 and 0 in want:
                block = np.zeros(want, dtype=np.complex128)
            else:
                raise LiftError(f"vertex {v!r}: block shape {block.shape} != {want}")
        blocks[v] = block
    for e in g.edges:
        lhs = blocks[e.source] @ source.module.ops[e.id]
        rhs = target.module.ops[e.id] @ blocks[e.range]
        gap = float(np.linalg.norm(lhs - rhs, "fro"))
        if gap > tol:
            raise LiftError(f"not an intertwiner: edge {e.id!r} residual {gap:.3e}")
    m = source.level if level is None else source._check_level(level, source.level + 1)
    index = target._index(m)
    mat = np.zeros((target.dimension_at(m), source.dimension_at(m)),
                   dtype=np.complex128)
    for col, (p, b) in enumerate(source.basis_at(m)):
        block = blocks[p.source]
        if block.shape[0] == 0:
            continue
        row0 = index[(p.edges, p.base, 0)]
        mat[row0 : row0 + block.shape[0], col] = block[:, b]
    return mat
