"""Exact finite truncations of the lifted representation of a module.

Level k of the lift is the space W_k spanned by classes (lambda, b) where
lambda runs over the maximal paths of level k at each vertex (range there,
length exactly k, or shorter with a source that receives no edges), b over a
basis of the fiber at source(lambda), and only paths with a nonzero source
fiber appear. The basis is declared orthonormal, so the generators are pure
path combinatorics: the edge operator E_e sends (mu, b) to (e.mu, b) when
source(e) = range(mu), and the vertex projection P_v keeps paths with range v.
The infinite space is never materialized; a lift at level m carries the bases
of levels 0..m+1 so that every operator out of level m still has a home.

The module operators enter through the level embeddings: (mu, b) expands at
the source end as the sum over incoming edges nu of (mu.nu, A_nu e_b), and
unextendable entries ride along unchanged. The embedding is an isometry
exactly when the module satisfies its defining relation, so the embedding
Gram residual is the lift-level witness of module validity; the edge and
projection relations hold identically and cannot see a perturbation. The
class of a pair (lambda, xi) with lambda of length L is xi at lambda's own
block of W_L, carried to any higher level by these embeddings alone.

Storage follows that description, so lift work scales with nonzeros rather
than with dimension squared. Each E_e out of W_k is a partial injection
stored as an int array `edge_targets(e, k)`, the index in W_{k+1} of each
entry's image or -1 where range(mu) != source(e); each P_v is the boolean
mask `projection_mask(v, k)`, read off the per-entry range index; each
embedding is an `EmbedMap`, the nonzeros of its blocks A_nu[:, b] (one per
column and incoming edge) plus one identity entry per unextendable column.
`edge_matrix`, `projection_matrix` and `embed_matrix` materialize dense
matrices from these maps for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Path, maximal_paths
from .modules import PythagoreanModule, validate_module

BasisEntry = tuple[Path, int]

# largest Frobenius gap theta A = B theta that `lift_intertwiner` accepts
INTERTWINER_TOL = 1e-9


class LiftError(ValueError):
    """Raised for out-of-range levels, bad words, or invalid inputs."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EmbedMap:
    """Nonzeros of the embedding W_k -> W_{k+1}: entry i puts vals[i] at
    (rows[i], cols[i]); rows come in ascending order."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def apply(self, x: np.ndarray) -> np.ndarray:
        terms = self.vals * np.asarray(x)[self.cols]
        n = self.shape[0]
        return (np.bincount(self.rows, terms.real, n)
                + 1j * np.bincount(self.rows, terms.imag, n))

    def toarray(self) -> np.ndarray:
        mat = np.zeros(self.shape, dtype=np.complex128)
        mat[self.rows, self.cols] = self.vals
        return mat

    def gram_residual(self) -> float:
        """Frobenius norm of M*M - I, summed row by row over the pairs of
        entries that share a row; no dense Gram matrix is formed."""
        n = self.shape[1]
        if not self.rows.size:
            return float(np.sqrt(n))
        starts = np.flatnonzero(np.diff(self.rows, prepend=-1))
        counts = np.diff(np.append(starts, self.rows.size))
        size = np.repeat(counts, counts)  # entries in the row of each entry
        left = np.repeat(np.arange(self.rows.size), size)
        # each entry pairs with every entry of its row, its own included
        offset = np.arange(left.size) - np.repeat(np.cumsum(size) - size, size)
        right = np.repeat(np.repeat(starts, counts), size) + offset
        keys, inverse = np.unique(self.cols[left] * n + self.cols[right],
                                  return_inverse=True)
        # conj(x) * y in real arithmetic, so that conj(x) * x is exactly real
        xr, xi = self.vals.real[left], self.vals.imag[left]
        yr, yi = self.vals.real[right], self.vals.imag[right]
        gram_re = np.bincount(inverse, xr * yr + xi * yi)
        gram_im = np.bincount(inverse, xr * yi - xi * yr)
        diagonal = keys // n == keys % n
        gram_re[diagonal] -= 1.0
        unseen = n - int(diagonal.sum())  # zero columns: Gram diagonal 0
        return float(np.sqrt(np.sum(gram_re**2) + np.sum(gram_im**2) + unseen))


class TruncatedLift:
    """Levels 0..level+1 of the lifted representation of one module."""

    def __init__(self, module: PythagoreanModule, level: int, validate: bool = True):
        if level < 0:
            raise LiftError("level must be nonnegative")
        if validate:
            report = validate_module(module)
            if not report.passed:
                raise LiftError(
                    "module fails validation: max residual "
                    f"{report.max_residual:.3e} > {report.tol:.1e}"
                )
        self.module = module
        self.level = int(level)
        self._bases: dict[int, tuple[BasisEntry, ...]] = {}
        self._indexes: dict[int, dict[tuple, int]] = {}
        self._ranges: dict[int, np.ndarray] = {}
        self._edge_maps: dict[int, dict[str, np.ndarray]] = {}
        self._embeds: dict[int, EmbedMap] = {}

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
            counts = []
            index = {}  # one key per path: the index of its first fiber entry
            for v in g.vertices:
                before = len(entries)
                for p in maximal_paths(g, v, k):
                    d = self.module.dims[p.source]
                    if d:
                        index[(p.edges, p.base)] = len(entries)
                    entries.extend((p, b) for b in range(d))
                counts.append(len(entries) - before)
            self._bases[k] = tuple(entries)
            self._indexes[k] = index
            self._ranges[k] = _frozen(np.repeat(np.arange(len(counts)), counts))
        return self._bases[k]

    @property
    def basis(self) -> tuple[BasisEntry, ...]:
        return self.basis_at(self.level)

    def dimension_at(self, k: int) -> int:
        return len(self.basis_at(k))

    @property
    def dimension(self) -> int:
        return self.dimension_at(self.level)

    def _index(self, k: int) -> dict[tuple, int]:
        self.basis_at(k)
        return self._indexes[k]

    def edge_targets(self, edge_id: str, k: int) -> np.ndarray:
        """Partial injection of the edge generator W_k -> W_{k+1}: the index
        of the image of each entry of W_k, or -1 where the edge cannot act."""
        k = self._check_level(k, self.level)
        if edge_id not in self.module.graph.edge_by_id:
            raise LiftError(f"unknown edge {edge_id!r}")
        if k not in self._edge_maps:
            g = self.module.graph
            upper = self._index(k + 1)
            dim = self.dimension_at(k)
            maps = {e.id: np.full(dim, -1, dtype=np.intp) for e in g.edges}
            for col, (p, b) in enumerate(self.basis_at(k)):
                if b:
                    continue
                d = self.module.dims[p.source]
                for e in g.out_edges(p.range):
                    row0 = upper[(p.edges + (e.id,), p.base)]
                    maps[e.id][col : col + d] = np.arange(row0, row0 + d)
            self._edge_maps[k] = {eid: _frozen(t) for eid, t in maps.items()}
        return self._edge_maps[k][edge_id]

    def projection_mask(self, v: str, k: int) -> np.ndarray:
        """Entries of W_k whose path has range v."""
        k = self._check_level(k, self.level + 1)
        self.module.graph.require_vertex(v)
        self.basis_at(k)
        return self._ranges[k] == self.module.graph.vertex_index[v]

    def embed_map(self, k: int) -> EmbedMap:
        """The class-preserving embedding W_k -> W_{k+1}, block by block.

        Extendable entries expand at the source end through the module
        operators; entries whose source receives no edges map to themselves.
        """
        k = self._check_level(k, self.level)
        if k not in self._embeds:
            g = self.module.graph
            upper = self._index(k + 1)
            # columns and row0s per block: ("edge", nu) carries A_nu, and
            # ("fixed", v) the identity on unextendable entries with source v
            groups: dict[tuple[str, str], tuple[list, list]] = {}
            for col, (p, b) in enumerate(self.basis_at(k)):
                if b:
                    continue
                incoming = g.in_edges(p.source)
                if not incoming:
                    cols, rows = groups.setdefault(("fixed", p.source), ([], []))
                    cols.append(col)
                    rows.append(upper[(p.edges, p.base)])
                for nu in incoming:
                    if self.module.dims[nu.source] == 0:
                        continue
                    cols, rows = groups.setdefault(("edge", nu.id), ([], []))
                    cols.append(col)
                    rows.append(upper[((nu.id,) + p.edges, nu.source)])
            parts = [(np.zeros(0, np.intp), np.zeros(0, np.intp),
                      np.zeros(0, np.complex128))]
            for (kind, name), (cols, rows) in groups.items():
                if kind == "edge":
                    block = self.module.ops[name]
                else:
                    block = np.eye(self.module.dims[name], dtype=np.complex128)
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
            self._embeds[k] = EmbedMap(
                _frozen(rows[order]), _frozen(cols[order]),
                _frozen(vals[order]),
                (self.dimension_at(k + 1), self.dimension_at(k)),
            )
        return self._embeds[k]

    def edge_matrix(self, edge_id: str, k: int) -> np.ndarray:
        """Matrix of the edge generator from W_k to W_{k+1}; entries 0 or 1."""
        targets = self.edge_targets(edge_id, k)
        mat = np.zeros((self.dimension_at(k + 1), self.dimension_at(k)))
        cols = np.flatnonzero(targets >= 0)
        mat[targets[cols], cols] = 1.0
        return mat

    def projection_matrix(self, v: str, k: int) -> np.ndarray:
        """Diagonal projection onto classes whose path has range v, on W_k."""
        return np.diag(self.projection_mask(v, k).astype(float))

    def embed_matrix(self, k: int) -> np.ndarray:
        """Matrix of the class-preserving embedding W_k -> W_{k+1}."""
        return self.embed_map(k).toarray()

    def reduce_class(self, path: Path | str, xi, level: int | None = None) -> "LiftVector":
        """Coordinates of the class of (path, xi) in the basis of W_level.

        A path of length L is itself a basis path of W_L, so the class is xi
        placed at that path's block of W_L and carried up by the level
        embeddings; the result equals `embed_vector` applied level - L times.
        A vertex id stands for its length-0 path.
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
        at = self._index(path.length)[(path.edges, path.base)]
        coeffs = np.zeros(self.dimension_at(path.length), dtype=np.complex128)
        coeffs[at : at + d] = xi
        for k in range(path.length, m):
            coeffs = self.embed_map(k).apply(coeffs)
        return LiftVector(self, m, coeffs)


def lift(module: PythagoreanModule, level: int, validate: bool = True) -> TruncatedLift:
    """Build the truncated lift; by default the module is validated first."""
    return TruncatedLift(module, level, validate=validate)


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
    return LiftVector(x.lift, x.level + 1, x.lift.embed_map(x.level).apply(x.coeffs))


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
        """The worst residual; NaN when any residual is NaN."""
        return float(np.max([
            self.projector_orthogonality, self.projector_completeness,
            *self.edge_isometry.values(), *self.vertex_sum.values(),
            *self.embed_isometry.values(),
        ]))

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_residual <= tol


def ck_residuals(trunc: TruncatedLift) -> CkReport:
    """Measure every defining relation of the lift at its level.

    Every residual is read off the stored maps, in time linear in their
    nonzeros (times the largest fiber for the embeddings); no dense matrix is
    formed. For a partial map with targets t and hit counts h_r = #{c: t_c = r},
    E*E has diagonal [t_c >= 0] and an entry per ordered pair of columns
    sharing a row, and E E* is diagonal with entries h_r.
    """
    g = trunc.module.graph
    m = trunc.level
    masks = {v: trunc.projection_mask(v, m) for v in g.vertices}
    ortho = 0.0
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1 :]:
            ortho = max(ortho, float(np.sqrt(np.count_nonzero(masks[u] & masks[v]))))
    cover = sum(mask.astype(int) for mask in masks.values())
    completeness = float(np.sqrt(np.sum((cover - 1) ** 2)))
    upper = trunc.dimension_at(m + 1)
    hits = {}
    edge_isometry = {}
    for e in g.edges:
        targets = trunc.edge_targets(e.id, m)
        hit = targets >= 0
        hits[e.id] = np.bincount(targets[hit], minlength=upper)
        wrong = np.count_nonzero(hit != masks[e.source])
        collisions = int(np.sum(hits[e.id] * (hits[e.id] - 1)))
        edge_isometry[e.id] = float(np.sqrt(wrong + collisions))
    vertex_sum = {}
    for w in g.vertices:
        incoming = g.in_edges(w)
        if not incoming:
            continue
        diag = sum(hits[e.id] for e in incoming) - trunc.projection_mask(w, m + 1)
        vertex_sum[w] = float(np.sqrt(np.sum(diag**2)))
    embed_isometry = {k: trunc.embed_map(k).gram_residual() for k in range(m + 1)}
    return CkReport(m, ortho, completeness, edge_isometry, vertex_sum, embed_isometry)


@dataclass(frozen=True)
class WordOperator:
    matrix: np.ndarray
    source_level: int
    target_level: int


def word_operator(trunc: TruncatedLift, word: list[str], start_level: int) -> WordOperator:
    """Matrix of a word of symbols, applied rightmost first.

    Symbols are edge ids (raise the level), edge ids suffixed with "*"
    (adjoints, lower the level), and vertex ids (projections). Every level
    visited must stay within 0..lift level. Each symbol acts on the rows of
    the running matrix through the stored maps, so no generator matrix is
    formed.
    """
    g = trunc.module.graph
    k = trunc._check_level(start_level, trunc.level)
    mat = np.eye(trunc.dimension_at(k), dtype=np.complex128)
    for token in reversed(list(word)):
        if token.endswith("*") and token[:-1] in g.edge_by_id:
            if k == 0:
                raise LiftError(f"level underflow applying {token!r}")
            targets = trunc.edge_targets(token[:-1], k - 1)
            hit = targets >= 0
            out = np.zeros((targets.size, mat.shape[1]), dtype=np.complex128)
            out[hit] = mat[targets[hit]]  # E* gathers: row c reads row t_c
            mat = out
            k -= 1
        elif token in g.edge_by_id:
            if k == trunc.level:
                raise LiftError(f"level overflow applying {token!r} at level {k}")
            targets = trunc.edge_targets(token, k)
            hit = targets >= 0
            out = np.zeros((trunc.dimension_at(k + 1), mat.shape[1]),
                           dtype=np.complex128)
            np.add.at(out, targets[hit], mat[hit])  # E scatters row c to t_c
            mat = out
            k += 1
        elif token in g.vertex_index:
            mat = mat * trunc.projection_mask(token, k)[:, None]
        else:
            raise LiftError(f"unknown symbol {token!r}")
    return WordOperator(mat, int(start_level), k)


def lift_intertwiner(theta: dict[str, np.ndarray], source: TruncatedLift,
                     target: TruncatedLift, level: int | None = None) -> np.ndarray:
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
        if gap > INTERTWINER_TOL:
            raise LiftError(f"not an intertwiner: edge {e.id!r} residual {gap:.3e}")
    m = source.level if level is None else source._check_level(level, source.level + 1)
    index = target._index(m)
    mat = np.zeros((target.dimension_at(m), source.dimension_at(m)),
                   dtype=np.complex128)
    for col, (p, b) in enumerate(source.basis_at(m)):
        block = blocks[p.source]
        if block.shape[0] == 0:
            continue
        row0 = index[(p.edges, p.base)]
        mat[row0 : row0 + block.shape[0], col] = block[:, b]
    return mat
