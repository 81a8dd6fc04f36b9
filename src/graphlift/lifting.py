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
than with dimension squared. The maximal paths of level k+1 at v are e.mu
for each edge e into v and each level-k path mu at source(e), plus the
length-0 path at v when v receives no edge, so each level is a path trie
over the one below: a `PathLevel` of int arrays, a parent path and an edge
per path, built from the level below in one vectorized step. One lexsort
puts it in basis order, on the range and a key per path: the rank of the
parent's traversal sequence in the level below and the appended edge, so
the work per path does not grow with the level. `basis_at` builds
`(Path, fiber)` tuples from the trie only when asked. Basis order is
range-major, so the entries with range v form one block of W_k, the slice
`block(v, k)`, and P_v keeps it.
E_e maps the whole block of source(e) and nothing else, since each path has
a child per out-edge of its range: a level stores just those images, edge by
edge. `edge_images(e, k)` reads one edge's as they are stored (the index in
W_{k+1} of the image of each entry of the source block), which is all that
callers acting on vectors, the relation check and the "edge-images" lift file
need. Each embedding is a `BlockMap`, the nonzeros of its blocks A_nu[:, b]
(one per column and incoming edge) plus one identity entry per unextendable
column, and so is each lifted intertwiner. `edge_matrix`, `projection_matrix`
and `embed_matrix` materialize dense matrices for callers that want them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import Path
from .modules import (ModuleError, PythagoreanModule, _as_operator, _require_tolerance,
                      validate_module)

BasisEntry = tuple[Path, int]

# largest Frobenius gap theta A = B theta that `lift_intertwiner` accepts
INTERTWINER_TOL = 1e-9

# Largest level `TruncatedLift` accepts. A lift builds every level below
# its own, and a level can be empty or one path wide, so no size check
# stops a level a user types; above the limit it ends in a LiftError
# rather than a run that never returns. At the limit, `lift check` on a
# module whose levels hold one path each takes seconds.
MAX_LEVEL = 10_000


class LiftError(ValueError):
    """Raised for out-of-range levels, bad words, or invalid inputs."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BlockMap:
    """Nonzeros of a level embedding or a lifted intertwiner: entry i puts
    vals[i] at (rows[i], cols[i]); rows come in ascending order."""

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


def _block_map(row0, col0, height, width, start, values, shape) -> BlockMap:
    """Block i, the height[i] x width[i] row-major array from values[start[i]],
    sits at (row0[i], col0[i]); blocks come in row order and share no row."""
    size = height * width
    before = (size.cumsum() - size).repeat(size)  # entries ahead of the block
    j = np.arange(before.size) - before
    width = width.repeat(size)
    return BlockMap(_frozen(row0.repeat(size) + j // width),
                    _frozen(col0.repeat(size) + j % width),
                    _frozen(values[start.repeat(size) + j]), shape)


class PathLevel(NamedTuple):
    """The basis paths of one lift level, stored as a trie over the level below.

    Path i is edge[i] appended at the range end of path parent[i] of the
    level below, or the length-0 path at vertex range[i] when parent[i] is
    -1 (edge[i] is -1 then too). Only paths with a nonzero source fiber are
    stored, in build order: above level 0, the children of each path of the
    level below in turn, then the length-0 paths. The children of path i
    sit at build indices first[i], first[i] + 1, ... of the level above, one
    per out-edge of range[i] in id order. `order` lists the paths in basis
    order (range vertex, then traversed edge ids, a path before its
    extensions), found from the order of the level below; the fiber
    entries of path i in W_k start at offset[i], and those of the paths
    with range v fill the block bounds[v]:bounds[v + 1].
    For the level embedding, head[i] is the first traversed edge (-1 at
    length 0), and down[i] the build index of the path of the level below
    that embeds onto path i: at full length k its tail without head[i],
    else the same path; -1 where that path has a zero fiber.
    Vertices and edges are numbered by their position in the graph.
    """

    parent: np.ndarray
    edge: np.ndarray
    range: np.ndarray
    source: np.ndarray
    length: np.ndarray
    offset: np.ndarray
    first: np.ndarray
    head: np.ndarray
    down: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    dimension: int


class TruncatedLift:
    """Levels 0..level+1 of the lifted representation of one module."""

    def __init__(self, module: PythagoreanModule, level: int, validate: bool = True):
        if level < 0:
            raise LiftError("level must be nonnegative")
        if level > MAX_LEVEL:
            raise LiftError(f"level {level} is above MAX_LEVEL={MAX_LEVEL}")
        if validate:
            report = validate_module(module)
            if not report.passed:
                raise LiftError(
                    "module fails validation: max residual "
                    f"{report.max_residual:.3e} > {report.tol:.1e}"
                )
        self.module = module
        self.level = int(level)
        g = module.graph
        vid = g.vertex_index
        self._edge_index = {e.id: i for i, e in enumerate(g.edges)}
        self._edge_range = np.array([vid[e.range] for e in g.edges], dtype=np.intp)
        self._edge_source = np.array([vid[e.source] for e in g.edges], dtype=np.intp)
        by_id = sorted(range(len(g.edges)), key=lambda i: g.edges[i].id)
        self._edge_rank = np.argsort(by_id).astype(np.int32)
        # out-edges grouped by source vertex, each group in id order
        self._out_edges = np.lexsort((self._edge_rank, self._edge_source))
        self._out_degree = np.bincount(self._edge_source, minlength=len(g.vertices))
        self._out_start = self._out_degree.cumsum() - self._out_degree
        self._out_rank = np.empty_like(self._out_edges)  # position in its group
        self._out_rank[self._out_edges] = (
            np.arange(len(g.edges)) - self._out_start[self._edge_source[self._out_edges]])
        self._fiber = np.array([module.dims[v] for v in g.vertices], dtype=np.intp)
        # length-0 paths above level 0, as (parent, edge, range, source,
        # length) columns: one per live vertex that receives no edge
        roots = [vid[v] for v in g.vertices if module.dims[v] and not g.in_edges(v)]
        self._root_rows = np.array([[-1] * len(roots), [-1] * len(roots), roots,
                                    roots, [0] * len(roots)], dtype=np.intp)
        self._levels: list[PathLevel] = []
        self._paths: list[list[Path]] = []  # levels 0, 1, ... built so far
        self._images: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._embeds: dict[int, BlockMap] = {}
        self._block_table: tuple[np.ndarray, np.ndarray] | None = None

    def _check_level(self, k: int, top: int) -> int:
        k = int(k)
        if not 0 <= k <= top:
            raise LiftError(f"level {k} outside 0..{top}")
        return k

    def paths_at(self, k: int) -> PathLevel:
        """The basis paths of W_k as per-path arrays; see `PathLevel`."""
        k = self._check_level(k, self.level + 1)
        while len(self._levels) <= k:
            self._levels.append(self._grow())
        return self._levels[k]

    def _grow(self) -> PathLevel:
        """Build the next level from the last one. Each path of level k+1 is
        an edge e appended to a level-k path mu at source(e), or the
        length-0 path at a vertex that receives no edge. The path that
        embeds onto e.mu is e appended to the one that embeds onto mu, one
        level lower.

        Basis order is range, then traversal sequence, a path before its
        extensions. `_rank` holds the rank of each path's sequence among
        the paths of the last level, so the order of level k+1 follows from
        one key per path: rank(mu)·(|E|+1) + rank(e) + 1 for a new path
        mu.e of length k+1, and rank(S)·(|E|+1) for any other path S, which
        starts at a vertex that receives no edge and is its own `down` at
        level k. This is exact. For k >= 1 the parents of new paths all
        have length k, so distinct parents have distinct sequences and
        neither is a prefix of the other; at k = 0 every parent is empty
        and has rank 0, so the edge alone decides. A carried S compares with
        mu.e as it compares with mu, and when S = mu, S comes first. The
        length-0 paths of level 1 tie at key 0 and are ranked apart in build
        order, which no later comparison sees: nothing else ranks between
        them. Keys stay below paths·(|E|+1), far inside int64."""
        k = len(self._levels) - 1
        if k < 0:
            live = self._fiber.nonzero()[0]
            table = np.empty((9, live.size), dtype=np.intp)
            table[[0, 1, 7, 8]] = -1
            table[2] = table[3] = live
            table[4] = 0
            self._rank = np.zeros(live.size, dtype=np.intp)  # all sequences empty
            return self._level_from(table, np.arange(live.size))
        low = self._levels[k]
        count = self._out_degree[low.range]
        parent = np.arange(count.size).repeat(count)
        built = parent.size
        step = np.arange(built)
        table = np.empty((9, built + self._root_rows.shape[1]), dtype=np.intp)
        table[:5, built:] = self._root_rows
        table[7, built:] = -1
        table[0, :built] = parent
        table[1, :built] = edge = self._out_edges[
            (self._out_start[low.range] - low.first).repeat(count) + step]
        table[2, :built] = self._edge_range[edge]
        table[3, :built] = low.source[parent]
        np.add(low.length[parent], 1, out=table[4, :built])
        table[7, :built] = np.where(low.length[parent] == 0, edge, low.head[parent])
        if k == 0:  # paths of length <= 1 embed from their range vertex
            index = np.empty(self._fiber.size, dtype=np.intp)
            index.fill(-1)
            index[low.range] = np.arange(low.range.size)
            table[8] = index[table[2]]
        else:  # length-0 paths embed from their own, the last of each level
            tail = low.down[parent]
            table[8, :built] = np.where(
                tail >= 0, self._levels[k - 1].first[tail] + self._out_rank[edge], -1)
            table[8, built:] = np.arange(low.range.size - self._root_rows.shape[1],
                                         low.range.size)
        # a new path sorts as its parent, then its last edge; any other as
        # the same path one level down, ahead of that path's extensions
        new = table[4] == k + 1
        key = self._rank[np.where(new, table[0], table[8])] * (self._edge_rank.size + 1)
        key[new] += self._edge_rank[table[1, new]] + 1
        self._rank = key.argsort(kind="stable").argsort()
        return self._level_from(table, np.lexsort((key, table[2])))

    def _level_from(self, table: np.ndarray, order: np.ndarray) -> PathLevel:
        """Fill in the entry offsets (row 5), the first-child build indices
        (row 6) and the vertex blocks of a level whose other rows are set."""
        fibers = self._fiber[table[3, order]]
        starts = np.append(0, fibers.cumsum())
        table[5, order] = starts[:-1]
        count = self._out_degree[table[2]]
        count.cumsum(out=table[6])
        table[6] -= count
        table.flags.writeable = False
        bounds = starts[np.searchsorted(table[2, order], np.arange(self._fiber.size + 1))]
        return PathLevel(*table, _frozen(order), _frozen(bounds), int(starts[-1]))

    def basis_at(self, k: int) -> tuple[BasisEntry, ...]:
        """Ordered basis of W_k: vertex order, then path order, then fiber.
        The `Path` objects are built on first request, from the trie."""
        paths = self._paths_of(k)
        order = self.paths_at(k).order.tolist()
        return tuple((paths[i], b) for i in order
                     for b in range(self.module.dims[paths[i].source]))

    def _paths_of(self, k: int) -> list[Path]:
        """The `Path` of each path of level k, in build order, level by level."""
        self.paths_at(k)
        g = self.module.graph
        for level in self._levels[len(self._paths) : k + 1]:
            below = self._paths[-1] if self._paths else []
            self._paths.append([
                Path(g, (), base=g.vertices[v]) if p < 0
                else Path(g, below[p].edges + (g.edges[e].id,), base=below[p].base)
                for p, e, v in zip(level.parent.tolist(), level.edge.tolist(),
                                   level.range.tolist())
            ])
        return self._paths[k]

    @property
    def basis(self) -> tuple[BasisEntry, ...]:
        return self.basis_at(self.level)

    def dimension_at(self, k: int) -> int:
        return self.paths_at(k).dimension

    @property
    def dimension(self) -> int:
        return self.dimension_at(self.level)

    def _offset(self, k: int, path: Path) -> int:
        """Index of the first fiber entry of `path` in W_k, found by walking
        the trie up from the path's length-0 start."""
        g = self.module.graph
        start = k - path.length
        if (start < 0 or not self.module.dims[path.source]
                or (start and g.in_edges(path.source))):
            raise LiftError(f"{path.display} is not a basis path of level {k}")
        level = self.paths_at(start)
        at = int(np.flatnonzero((level.parent < 0)
                                & (level.range == g.vertex_index[path.source]))[0])
        for eid in path.edges:
            at = int(level.first[at] + self._out_rank[self._edge_index[eid]])
            start += 1
            level = self.paths_at(start)
        return int(level.offset[at])

    def edge_images(self, edge_id: str, k: int) -> np.ndarray:
        """The edge generator W_k -> W_{k+1} on the block it maps, a
        read-only view: entry j is the index in W_{k+1} of the image of entry
        start + j of W_k, where start:stop = `paths_at(k).bounds` at the
        edge's source vertex. Every other entry of W_k maps to zero."""
        k = self._check_level(k, self.level)
        if edge_id not in self.module.graph.edge_by_id:
            raise LiftError(f"unknown edge {edge_id!r}")
        if k not in self._images:
            low, high = self.paths_at(k), self.paths_at(k + 1)
            start = low.bounds[self._edge_source]  # each edge acts on this block
            size = low.bounds[self._edge_source + 1] - start
            ends = np.append(0, size.cumsum())
            col = np.arange(ends[-1]) + (start - ends[:-1]).repeat(size)
            # (mu, b) maps to (e.mu, b), the child of mu at the out-rank of e
            path = np.repeat(low.order, self._fiber[low.source[low.order]])[col]
            child = low.first[path] + self._out_rank.repeat(size)
            self._images[k] = (_frozen(high.offset[child] + col - low.offset[path]),
                               _frozen(ends))
        images, ends = self._images[k]
        i = self._edge_index[edge_id]
        return images[ends[i] : ends[i + 1]]

    def block(self, v: str, k: int) -> slice:
        """The entries of W_k whose path has range v, one block of the basis:
        P_v keeps it, and each edge out of v maps it and nothing else."""
        k = self._check_level(k, self.level + 1)
        self.module.graph.require_vertex(v)
        bounds = self.paths_at(k).bounds
        u = self.module.graph.vertex_index[v]
        return slice(int(bounds[u]), int(bounds[u + 1]))

    def embed_map(self, k: int) -> BlockMap:
        """The class-preserving embedding W_k -> W_{k+1}, block by block.

        A path of full length k+1 receives A_nu from its tail, nu being its
        first edge; a shorter one starts at a vertex that receives no edge
        and receives the identity from the same path one level down.
        """
        k = self._check_level(k, self.level)
        if k not in self._embeds:
            low, high = self.paths_at(k), self.paths_at(k + 1)
            path = high.order  # row order: paths in basis order
            down = high.down[path]
            blocks, starts = self._blocks()
            block = np.where(high.length == k + 1, high.head,
                             len(self._edge_index) + high.source)[path]
            # the block of path i is fiber(source i) x fiber(source down(i))
            self._embeds[k] = _block_map(
                high.offset[path], low.offset[down], self._fiber[high.source[path]],
                self._fiber[low.source[down]] * (down >= 0), starts[block], blocks,
                (high.dimension, low.dimension))
        return self._embeds[k]

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The embedding blocks, row-major in one array: A_e per edge, then
        the identity on the fiber of each vertex that receives no edge; and
        where the block of each edge and of each vertex starts."""
        if self._block_table is None:
            parts = [self.module.ops[e.id].ravel() for e in self.module.graph.edges]
            sizes = [a.size for a in parts] + [0] * self._fiber.size
            for v in self._root_rows[2].tolist():  # the only fibers fixed
                d = int(self._fiber[v])
                # entry j of the d x d identity is 1 exactly when d + 1 divides j
                parts.append(np.arange(d * d) % (d + 1) == 0)
                sizes[len(self._edge_index) + v] = d * d
            sizes = np.array(sizes, dtype=np.intp)
            self._block_table = (np.concatenate(parts).astype(np.complex128),
                                 sizes.cumsum() - sizes)
        return self._block_table

    def edge_matrix(self, edge_id: str, k: int) -> np.ndarray:
        """Matrix of the edge generator from W_k to W_{k+1}; entries 0 or 1."""
        images = self.edge_images(edge_id, k)
        start = self.block(self.module.graph.edge_by_id[edge_id].source, k).start
        mat = np.zeros((self.dimension_at(k + 1), self.dimension_at(k)))
        mat[images, np.arange(start, start + images.size)] = 1.0
        return mat

    def projection_matrix(self, v: str, k: int) -> np.ndarray:
        """Diagonal projection onto classes whose path has range v, on W_k."""
        keep = self.block(v, k)
        diagonal = np.zeros(self.dimension_at(k))
        diagonal[keep] = 1.0
        return np.diag(diagonal)

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
        at = self._offset(path.length, path)
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
        """Whether the worst residual is at most tol, a positive finite
        number (else ModuleError)."""
        return self.max_residual <= _require_tolerance(tol)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, and how many times each occurs."""
    cut = np.ones(keys.size + 1, dtype=bool)  # where a run starts, and the end
    np.not_equal(keys[1:], keys[:-1], out=cut[1:-1])
    ends = np.flatnonzero(cut)
    return keys[ends[:-1]], np.diff(ends)


def ck_residuals(trunc: TruncatedLift) -> CkReport:
    """Measure every defining relation of the lift at its level.

    Every residual is read off the vertex blocks and the stored maps, with
    work that follows their nonzeros: one sort of the level's edge images,
    and the embedding entries times the largest fiber. No dense matrix and
    no per-vertex or per-edge array as long as a level is formed.
    P_v keeps the block of v, so the projector residuals follow from the
    block intervals: an entry covered c times adds (c - 1)^2 to
    completeness, and two blocks that share n entries give an orthogonality
    residual sqrt(n). E_e maps the block of source(e) to images t; with hit
    counts h_r = #{j: t_j = r}, E*E - P_source counts each negative image and
    each ordered pair of entries sharing a row, and E E* is diagonal with
    entries h_r. So the sum of E E* over the edges into w, minus P_w, counts
    (h_r - 1)^2 on a row of w's block, h_r^2 on a row off it, and 1 on a row
    of the block that no image hits.
    """
    g = trunc.module.graph
    m = trunc.level
    embed_isometry = {k: trunc.embed_map(k).gram_residual() for k in range(m + 1)}
    low, high = trunc.paths_at(m).bounds, trunc.paths_at(m + 1).bounds
    order = np.argsort(low[:-1], kind="stable")
    starts, stops = low[:-1][order], low[1:][order]
    # a block shares the most with the one that starts no later and ends last
    shared = np.minimum(stops[1:], np.maximum.accumulate(stops)[:-1]) - starts[1:]
    ortho = float(np.sqrt(int(np.max(shared, initial=0))))
    # the entries covered c times, between consecutive block ends
    ends = np.sort(np.concatenate(([0, trunc.dimension_at(m)], starts, stops)))
    cover = (np.searchsorted(starts, ends[:-1], "right")
             - np.searchsorted(np.sort(stops), ends[:-1], "right"))
    completeness = float(np.sqrt(int(np.sum(np.diff(ends) * (cover - 1) ** 2))))
    # every image of the level, with its edge and the vertex that edge enters
    n_edges, n_vertices = len(g.edges), len(g.vertices)
    images = [trunc.edge_images(e.id, m) for e in g.edges]
    edge = np.arange(n_edges).repeat([a.size for a in images])
    images = np.concatenate([*images, np.zeros(0, dtype=np.intp)])
    hit = images >= 0
    into = np.array([g.vertex_index[e.range] for e in g.edges], dtype=np.intp)
    upper = trunc.dimension_at(m + 1)
    # one sort groups the hits by receiving vertex, then row, then edge
    key = np.sort((into[edge[hit]] * upper + images[hit]) * n_edges + edge[hit])
    cell, h = _runs(key)  # the hits on one row from one edge
    slot, hits = _runs(key // n_edges)  # the hits on one row from all edges into w
    wrong = (np.bincount(edge[~hit], minlength=n_edges)
             + np.bincount(cell % n_edges, h * (h - 1), n_edges))
    w, row = np.divmod(slot, upper)
    inside = (row >= high[w]) & (row < high[w + 1])
    off = (np.bincount(w, (hits - inside) ** 2, n_vertices)
           + np.diff(high) - np.bincount(w, inside, n_vertices))
    edge_isometry = {e.id: float(np.sqrt(wrong[i])) for i, e in enumerate(g.edges)}
    receiving = set(into.tolist())
    vertex_sum = {v: float(np.sqrt(off[i])) for i, v in enumerate(g.vertices)
                  if i in receiving}
    return CkReport(m, ortho, completeness, edge_isometry, vertex_sum, embed_isometry)


@dataclass(frozen=True)
class WordOperator:
    matrix: np.ndarray
    source_level: int
    target_level: int


def _act(trunc: TruncatedLift, token: str, x: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """One symbol of a word (see `word_operator`) applied to x, a vector on W_k
    or a matrix with rows indexed by W_k; returns the result and its level."""
    g = trunc.module.graph
    if token.endswith("*") and token[:-1] in g.edge_by_id:
        if k == 0:
            raise LiftError(f"level underflow applying {token!r}")
        k -= 1
        out = np.zeros((trunc.dimension_at(k),) + x.shape[1:], dtype=np.complex128)
        # E* gathers: entry j of the source block reads entry t_j
        out[trunc.block(g.edge_by_id[token[:-1]].source, k)] = x[trunc.edge_images(token[:-1], k)]
    elif token in g.edge_by_id:
        if k == trunc.level:
            raise LiftError(f"level overflow applying {token!r} at level {k}")
        out = np.zeros((trunc.dimension_at(k + 1),) + x.shape[1:], dtype=np.complex128)
        # E scatters entry j of the source block to entry t_j (all distinct)
        out[trunc.edge_images(token, k)] = x[trunc.block(g.edge_by_id[token].source, k)]
        k += 1
    elif token in g.vertex_index:
        keep = trunc.block(token, k)
        out = np.zeros_like(x)
        out[keep] = x[keep]
    else:
        raise LiftError(f"unknown symbol {token!r}")
    return out, k


def word_operator(trunc: TruncatedLift, word: list[str], start_level: int) -> WordOperator:
    """Matrix of a word of symbols, applied rightmost first.

    Symbols are edge ids (raise the level), edge ids suffixed with "*"
    (adjoints, lower the level), and vertex ids (projections). Every level
    visited must stay within 0..lift level. Each symbol acts on the rows of
    the running matrix through the stored maps, so no generator matrix is
    formed.
    """
    k = trunc._check_level(start_level, trunc.level)
    mat = np.eye(trunc.dimension_at(k), dtype=np.complex128)
    for token in reversed(list(word)):
        mat, k = _act(trunc, token, mat, k)
    return WordOperator(mat, int(start_level), k)


def loop_eigenvalue(trunc: TruncatedLift, v: str) -> tuple[complex, float]:
    """The loop at v applied to the class of (v, e_0) at level m - 1 of a lift
    of level m >= 1, against that class at level m: the Rayleigh quotient and
    the residual. A one-dimensional module of loop phase z gives conj(z), 0."""
    loops = [e for e in trunc.module.graph.out_edges(v) if e.range == v]
    if len(loops) != 1:
        raise LiftError(f"vertex {v!r} carries {len(loops)} loops, need one")
    if trunc.level < 1:
        raise LiftError("the loop eigenvalue needs a lift of level at least 1")
    below = trunc.reduce_class(v, np.arange(trunc.module.dims[v]) == 0,
                               trunc.level - 1).coeffs
    image, _ = _act(trunc, loops[0].id, below, trunc.level - 1)
    top = trunc.embed_map(trunc.level - 1).apply(below)
    weight = complex(np.vdot(top, top))
    if abs(weight) < 1e-30:
        raise LiftError(f"the class at {v!r} reduces to zero")
    value = complex(np.vdot(top, image)) / weight
    return value, float(np.linalg.norm(image - value * top))


def lift_intertwiner(theta: dict[str, np.ndarray], source: TruncatedLift,
                     target: TruncatedLift, level: int | None = None) -> BlockMap:
    """Lift a graded intertwiner to a map between two lifts of one level.

    The map acts blockwise on each basis path's fiber, so it commutes with
    every generator and with the embeddings. By default the map is produced
    at the lifts' own level; pass `level` for any materialized one. A key of
    `theta` that names no vertex is a LiftError; a vertex it omits gets a
    zero block.
    """
    if source.module.graph != target.module.graph:
        raise LiftError("lifts live on different graphs")
    if source.level != target.level:
        raise LiftError("lifts have different levels")
    g = source.module.graph
    unknown = set(theta) - set(g.vertices)
    if unknown:
        raise LiftError(f"theta names unknown vertices {sorted(unknown, key=repr)}")
    blocks = {}
    for v in g.vertices:
        want = (target.module.dims[v], source.module.dims[v])
        try:
            blocks[v] = _as_operator(theta.get(v, np.zeros(want)), want, f"vertex {v!r}")
        except ModuleError as exc:
            raise LiftError(str(exc)) from None
    for e in g.edges:
        lhs = blocks[e.source] @ source.module.ops[e.id]
        rhs = target.module.ops[e.id] @ blocks[e.range]
        gap = float(np.linalg.norm(lhs - rhs, "fro"))
        if not gap <= INTERTWINER_TOL:  # NaN, from an overflow, fails too
            raise LiftError(f"not an intertwiner: edge {e.id!r} residual {gap:.3e}")
    m = source.level if level is None else source._check_level(level, source.level + 1)
    cols, rows = source.paths_at(m), target.paths_at(m)
    # in basis order, the paths with a fiber on both sides come in the same
    # order in each trie
    col_paths = cols.order[target._fiber[cols.source[cols.order]] > 0]
    row_paths = rows.order[source._fiber[rows.source[rows.order]] > 0]
    at = cols.source[col_paths]
    sizes = np.array([blocks[v].size for v in g.vertices])
    return _block_map(rows.offset[row_paths], cols.offset[col_paths],
                      target._fiber[at], source._fiber[at], (sizes.cumsum() - sizes)[at],
                      np.concatenate([blocks[v].ravel() for v in g.vertices]),
                      (rows.dimension, cols.dimension))
