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
over the one below: int arrays with a parent path and an edge per path.
The number of paths and the dimension of every level follow from those
counts per vertex alone, so a lift knows them before it grows anything,
refuses one that would hold too much up front, and grows all its levels
into one store whose arrays run end to end over levels 0..m+1, each level
a slice (`paths_at(k)` gives one as a `PathLevel`). A level is grown from
the one below in one vectorized step with only the fields that step reads,
the children of its paths taken in their traversal order. When every live
vertex receives an edge, every level from 2 on comes out in traversal
order; level 1, and every level of a graph with a live vertex that
receives no edge, is sorted into it by a key per path: the rank of the
parent's traversal sequence in the level below and the appended edge.
Either way the work per path does not grow with the level. The basis
order, entry offsets and vertex blocks of all levels are then laid out at
once, by one stable sort on (level, range). `basis_at` builds
`(Path, fiber)` tuples from the trie only when asked, each `Path` its
parent's extended by one edge, keeping only the level below. Basis order
is range-major, so the entries with range v form one block of W_k, the
slice `block(v, k)`, and P_v keeps it.
E_e maps the whole block of source(e) and nothing else, since each path has
a child per out-edge of its range: a level stores just those images, edge by
edge, in one array. `edge_images(e, k)` reads one edge's as they are stored
(the index in W_{k+1} of the image of each entry of the source block), which
is all that callers acting on vectors and the relation check need; the
"edge-images" lift file reads a level's array whole. Each embedding is a
block placement: per path of level k+1, its block (A_nu for its first edge
nu, or the identity at a vertex that receives no edge) and the path of
level k it reads. `embed_map` expands a
placement into a `BlockMap`, the nonzeros of its blocks, for the callers
that act on vectors, and so is each lifted intertwiner; the relation check
reads the embedding Gram straight off the placements instead, for all
levels in one pass: consecutive levels whose Gram terms fit a fixed budget
are read as one slice of the store and summed with one pair of bincounts,
each level over its own slots, and a level over the budget goes alone.
`edge_matrix`, `projection_matrix` and `embed_matrix` materialize dense
matrices for callers that want them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import modules
from .graphs import Path
from .modules import (ModuleError, PythagoreanModule, _as_operator, _require_tolerance,
                      validate_module)

BasisEntry = tuple[Path, int]

# largest Frobenius gap theta A = B theta that `lift_intertwiner` accepts
INTERTWINER_TOL = 1e-9

# Largest level `TruncatedLift` accepts. A lift builds every level below
# its own, and a level can be empty or one path wide, so no size check
# stops a level a user types; above the limit it ends in a LiftError
# rather than a run that never returns. At the limit, `ck_residuals` on
# the lift of `one_dim_module(sphere_odd_graph(1), "1", 1j)`, one path per
# level, takes 0.14-0.17 s, most of it growing the levels (best of 3, five
# runs, 2-CPU machine, Python 3.11.7).
MAX_LEVEL = 10_000

# Gram terms that `TruncatedLift._gram_residuals` takes in one run of
# levels; a bound on the transient memory of every run but a lone level's
_GRAM_TERMS_PER_RUN = 1 << 16

# Largest dimension of one lift level, so that an entry index fits in an
# int32. A level above it is refused as soon as its dimension is known,
# before any array with an item per entry is formed; so is a table of
# embedding blocks or Gram terms of more than `modules._MAX_ENTRIES`
# entries, before it is allocated.
_MAX_DIMENSION = 2**31 - 1

# The most memory a lift may take for its paths, all levels together, at
# `_PATH_BYTES` a path: `lift check` on one vertex with two loops, fiber 1, peaks at
# 136 bytes a path above the maxrss of `graphlift --help` at levels 19 and 20 (2.1
# and 4.2 million paths; 2-CPU machine, Python 3.11.7, numpy 2.4.6).
_PATH_BYTES = 136
_LIFT_BYTES = 1 << 29


class LiftError(ValueError):
    """Raised for out-of-range levels, bad words, or invalid inputs."""


def _require_entries(entries: int, what: str) -> None:
    """A LiftError that names `what` and its size when a lift table would
    hold more than `modules._MAX_ENTRIES` entries."""
    if entries > modules._MAX_ENTRIES:
        raise LiftError(f"{what} need {entries} entries, more than the "
                        f"{modules._MAX_ENTRIES} a lift table may hold")


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


def _ramps(size: np.ndarray) -> np.ndarray:
    """0, 1, ..., size[i] - 1 for each i in turn: each item's place in its run."""
    at = np.arange(int(size.sum()))
    at -= (size.cumsum() - size).repeat(size)
    return at


def _block_map(row0, col0, height, width, start, values, shape) -> BlockMap:
    """Block i, the height[i] x width[i] row-major array from values[start[i]],
    sits at (row0[i], col0[i]); blocks come in row order and share no row."""
    size = height * width
    j = _ramps(size)
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
    level below, taken in that level's traversal order (by the sequence of
    traversed edge ids, a path before its extensions), then the length-0
    paths. The children of path i sit at build indices first[i],
    first[i] + 1, ... of the level above, one per out-edge of range[i] in
    id order. So when every live vertex receives an edge, every level from
    2 on is stored in traversal order (see `TruncatedLift._grow`). `order`
    lists the paths in basis order (range vertex, then traversal order);
    the fiber entries of path i in W_k start at offset[i], and those of the
    paths with range v fill the block bounds[v]:bounds[v + 1].
    For the level embedding, head[i] is the first traversed edge (-1 at
    length 0), and down[i] the build index of the path of the level below
    that embeds onto path i: at full length k its tail without head[i],
    else the same path; -1 where that path has a zero fiber.
    Vertices and edges are numbered by their position in the graph.

    A lift keeps all its levels in one such record, each per-path field
    running end to end over levels 0..m+1 with each level's indices in its
    own numbering, `bounds` holding one row per level and `dimension` the
    sum; `TruncatedLift.paths_at` slices a level out of it.
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
    """Levels 0..level+1 of the lifted representation of one module.

    Nothing is grown until a level is read. The first read of any level
    counts the paths and the dimension of every level 0..level+1 (`_sizes`)
    and refuses the whole lift if one of them passes a limit; otherwise it
    grows all of them at once into one all-level `PathLevel` (`_grow`), of
    which `paths_at(k)` returns level k's slices."""

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
        self._edge_index = {eid: i for i, eid in enumerate(g._ids)}
        self._edge_range = np.array(g._range, dtype=np.intp)
        self._edge_source = np.array(g._source, dtype=np.intp)
        self._edge_rank = np.empty(len(g._ids), dtype=np.int32)
        self._edge_rank[sorted(range(len(g._ids)), key=g._ids.__getitem__)] = np.arange(
            len(g._ids))
        # out-edges grouped by source vertex, each group in id order
        self._out_edges = np.lexsort((self._edge_rank, self._edge_source))
        self._out_degree = np.bincount(self._edge_source, minlength=len(g.vertices))
        self._out_start = self._out_degree.cumsum() - self._out_degree
        self._out_rank = np.empty_like(self._out_edges)  # position in its group
        self._out_rank[self._out_edges] = (
            np.arange(len(g._ids)) - self._out_start[self._edge_source[self._out_edges]])
        self._fiber = np.array([module.dims[v] for v in g.vertices], dtype=np.intp)
        # the live vertices that receive no edge, each with a length-0 path
        # at every level
        self._roots = np.flatnonzero((self._fiber > 0) & (np.bincount(
            self._edge_range, minlength=self._fiber.size) == 0))
        # every level end to end, where each level starts in it (then the
        # path count) and each level's dimension; set by the first read
        self._trie: PathLevel | None = None
        self._starts: list[int] = []
        self._dims: list[int] = []
        self._views: dict[int, PathLevel] = {}  # the levels read, as slices of the trie
        self._images: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._embeds: dict[int, BlockMap] = {}
        self._block_table: tuple[np.ndarray, np.ndarray] | None = None
        self._gram_table: tuple[np.ndarray, ...] | None = None

    def _check_level(self, k: int, top: int) -> int:
        k = int(k)
        if not 0 <= k <= top:
            raise LiftError(f"level {k} outside 0..{top}")
        return k

    def paths_at(self, k: int) -> PathLevel:
        """The basis paths of W_k as per-path arrays; see `PathLevel`."""
        k = self._check_level(k, self.level + 1)
        if k not in self._views:
            trie = self._grown()
            a, b = self._starts[k], self._starts[k + 1]
            self._views[k] = PathLevel(*(field[a:b] for field in trie[:10]), trie.bounds[k],
                                       self._dims[k])
        return self._views[k]

    def _grown(self) -> PathLevel:
        """Every level, grown on the first call; see `paths_at`."""
        if self._trie is None:
            sizes, self._dims = self._sizes()
            self._trie = self._grow(sizes)
        return self._trie

    def _sizes(self) -> tuple[list[int], list[int]]:
        """The path count and the dimension of each level 0..level+1, counted
        per range vertex in Python ints before anything is grown. At vertex
        v, level 0 holds [d_v > 0] paths of d_v entries each; level k+1 holds
        the level-k paths at the source of each edge into v, one edge
        longer, and the length-0 path at v when v is live and receives no
        edge. Levels are counted in turn, and the first that would bring
        the lift past `_LIFT_BYTES` at `_PATH_BYTES` a path, or whose
        dimension passes `_MAX_DIMENSION`, is refused."""
        g = self.module.graph
        fiber = self._fiber.tolist()
        roots = self._roots.tolist()
        out: list[list[int]] = [[] for _ in fiber]  # the range of each edge out of v
        for s, r in zip(g._source, g._range):
            out[s].append(r)
        # per vertex, the paths with that range and their dimension, and the
        # vertices that hold a path: only their out-edges are followed
        paths, dims = [int(d > 0) for d in fiber], fiber
        held = [v for v, d in enumerate(fiber) if d]
        sizes, totals = [len(held)], [sum(fiber)]
        root_dims = sum(fiber[v] for v in roots)
        total = 0
        for k in range(self.level + 2):
            if k:
                grown_paths, grown_dims = [0] * len(fiber), [0] * len(fiber)
                grown = list(roots)
                size, dimension = len(roots), root_dims
                for v in roots:
                    grown_paths[v], grown_dims[v] = 1, fiber[v]
                for u in held:
                    p, d = paths[u], dims[u]
                    size += p * len(out[u])
                    dimension += d * len(out[u])
                    for r in out[u]:
                        if not grown_paths[r]:
                            grown.append(r)
                        grown_paths[r] += p
                        grown_dims[r] += d
                paths, dims, held = grown_paths, grown_dims, grown
                sizes.append(size)
                totals.append(dimension)
            total += sizes[k]
            if total * _PATH_BYTES > _LIFT_BYTES:
                raise LiftError(f"level {k} would bring the lift to {total} paths, "
                                f"{total * _PATH_BYTES} bytes at {_PATH_BYTES} bytes a path, "
                                f"more than the {_LIFT_BYTES} bytes a lift may hold")
            if totals[k] > _MAX_DIMENSION:
                raise LiftError(f"level {k} has dimension {totals[k]}, "
                                f"more than the {_MAX_DIMENSION} a lift level may hold")
        return sizes, totals

    def _grow(self, sizes: list[int]) -> PathLevel:
        """Grow the levels of these path counts into one all-level
        `PathLevel`, written level by level into the rows of one table sized
        in advance.

        Each path of level k+1 is an edge e appended to a level-k path mu at
        source(e), or the length-0 path at a vertex that receives no edge.
        The path that embeds onto e.mu is e appended to the one that embeds
        onto mu, one level lower. A level is grown from the one below with
        only the fields that the next level reads; the basis layout of all
        levels follows at the end (`_lay_out`).

        Basis order is range, then traversal sequence, a path before its
        extensions. The children blocks are laid out along the traversal
        order of level k, each block in edge id order, so they come sorted
        by the traversal order of the parent, then the appended edge. For
        k >= 1 on a graph where every live vertex receives an edge, that is
        the traversal order of level k+1: every path of level k has length
        k, so distinct parents have distinct sequences and neither is a
        prefix of the other. Such a level is stored in traversal order.

        Level 1, and every level of a graph with a live vertex that receives
        no edge, is put in traversal order by one key per path instead.
        `rank` holds the rank of each path's sequence among the paths of
        the last level: the key is rank(mu)·(|E|+1) + rank(e) + 1 for a new
        path mu.e of length k+1, and rank(S)·(|E|+1) for any other path S,
        which starts at a vertex that receives no edge and is its own `down`
        at level k. This is exact. For k >= 1 the parents of new paths all
        have length k, as above; at k = 0 every parent is empty and has rank
        0, so the edge alone decides. A carried S compares with mu.e as it
        compares with mu, and when S = mu, S comes first. The length-0 paths
        of level 1 tie at key 0 and are ranked apart in build order, which
        no later comparison sees: nothing else ranks between them. Keys stay
        below paths·(|E|+1), far inside int64."""
        starts = self._starts = [0, *itertools.accumulate(sizes)]
        # one row per field, each over every level
        trie = np.empty((10, starts[-1]), dtype=np.intp)
        parent, edge, head, rng, source, length, down, first, order, offset = trie
        order[:] = np.arange(order.size)  # each level's traversal order, by trie index
        roots, r = self._roots, self._roots.size
        out_edges, out_start, out_rank = self._out_edges, self._out_start, self._out_rank
        edge_range, out_degree, ramp = self._edge_range, self._out_degree, np.arange
        # level 0: the length-0 path at each live vertex, all tied at rank 0
        live = self._fiber.nonzero()[0]
        trie[:3, : live.size] = -1  # no parent, edge or head at length 0
        length[: live.size] = 0
        rng[: live.size] = live
        source[: live.size] = live
        down[: live.size] = -1
        count = out_degree[live]  # each path's children, in build order
        first[: live.size] = count.cumsum() - count
        index = np.full(self._fiber.size, -1, dtype=np.intp)  # level 0 by vertex
        index[live] = ramp(live.size)
        walk = rank = None
        for k in range(len(sizes) - 1):
            a, b, c = starts[k], starts[k + 1], starts[k + 2]
            stop = c - r  # the children, then the length-0 paths at the roots
            at = ramp(b - a).repeat(count) if walk is None else walk.repeat(count[walk])
            grown = out_edges[(out_start[rng[a:b]] - first[a:b])[at] + ramp(stop - b)]
            parent[b:stop] = at
            edge[b:stop] = grown
            rng[b:stop] = edge_range[grown]
            source[b:stop] = source[a:b][at]
            if k == 0:  # paths of length 1 start with their edge and embed from their range
                length[b:stop] = 1
                head[b:stop] = grown
                down[b:stop] = index[rng[b:stop]]
            else:
                tail = down[a:b][at]
                below = first[starts[k - 1] : a][tail]
                below += out_rank[grown]
                below[tail < 0] = -1
                down[b:stop] = below
                if r:  # a child of a length-0 path starts with its edge
                    length[b:stop] = length[a:b][at] + 1
                    head[b:stop] = np.where(length[b:stop] == 1, grown, head[a:b][at])
                else:
                    length[b:stop] = k + 1
                    head[b:stop] = head[a:b][at]
            if r:  # the length-0 paths, each embedding from its own, the last of each level
                trie[:3, stop:c] = -1
                length[stop:c] = 0
                rng[stop:c] = roots
                source[stop:c] = roots
                down[stop:c] = index[roots] if k == 0 else ramp(b - a - r, b - a)
            if k and not r:  # already in traversal order
                walk = None
            else:
                # a new path sorts as its parent, then its last edge; any other
                # as the same path one level down, ahead of that path's extensions
                if k == 0:  # the paths below are all empty and tie
                    key = np.zeros(c - b, dtype=np.intp)
                    key[: stop - b] = self._edge_rank[grown] + 1
                else:
                    extended = length[b:c] == k + 1
                    key = rank[np.where(extended, parent[b:c], down[b:c])] * (
                        self._edge_rank.size + 1)
                    key[extended] += self._edge_rank[edge[b:c][extended]] + 1
                walk = key.argsort(kind="stable")
                rank = np.empty_like(walk)
                rank[walk] = ramp(walk.size)
                order[b:c] = walk + b
            count = out_degree[rng[b:c]]
            if walk is None:
                first[b:c] = count.cumsum() - count
            else:
                walked = count[walk]
                first[b:c][walk] = walked.cumsum() - walked
        bounds, dimension = self._lay_out(sizes, rng, source, order, offset)
        return PathLevel(*map(_frozen, (parent, edge, rng, source, length, offset, first, head,
                                        down, order, bounds)), dimension)

    def _lay_out(self, sizes: list[int], rng: np.ndarray, source: np.ndarray,
                 order: np.ndarray, offset: np.ndarray) -> tuple[np.ndarray, int]:
        """Lay out the basis of every level at once: one stable sort of all
        paths by level, then range, each level taken in its traversal order,
        which `order` holds by trie index; one cumsum of the fibers in that
        order; and one pass over the sorted keys for the vertex blocks.
        Leaves each level's basis order in `order` and each path's entry
        offset in `offset`; returns each level's vertex blocks as one row of
        a table, and the dimension of all levels."""
        n_vertices = self._fiber.size
        starts, sizes = np.array(self._starts[:-1]), np.array(sizes)
        # a path's key, level·(|V| + 1) + range, is one less than the flat
        # index of its block's end in the table of block bounds
        key = (np.arange(sizes.size) * (n_vertices + 1)).repeat(sizes)
        key += rng[order]
        basis = key.argsort(kind="stable")
        key = key[basis]
        basis = order[basis]
        entries = np.zeros(basis.size + 1, dtype=np.intp)
        self._fiber[source[basis]].cumsum(out=entries[1:])
        at = starts.repeat(sizes)  # where each path's level starts
        offset[basis] = entries[:-1] - entries[at]
        np.subtract(basis, at, out=order)
        del at, basis
        # the dimension of each (level, range) block that holds a path, at its
        # column; each level's bounds are their running sum over the row
        cuts = _cuts(key)
        ends = entries[cuts]
        bounds = np.zeros((sizes.size, n_vertices + 1), dtype=np.intp)
        bounds.reshape(-1)[key[cuts[:-1]] + 1] = ends[1:] - ends[:-1]
        np.cumsum(bounds, axis=1, out=bounds)
        return bounds, int(entries[-1])

    def basis_at(self, k: int) -> tuple[BasisEntry, ...]:
        """Ordered basis of W_k: vertex order, then path order, then fiber.
        The `Path` objects are built on first request, from the trie."""
        paths = self._paths_of(k)
        order = self.paths_at(k).order.tolist()
        return tuple((paths[i], b) for i in order
                     for b in range(self.module.dims[paths[i].source]))

    def _paths_of(self, k: int) -> list[Path]:
        """The `Path` of each path of level k, in build order, each its parent
        one level down extended by its edge. Built from level 0 on every
        call, keeping only the level below."""
        k = self._check_level(k, self.level + 1)
        trie = self._grown()
        g = self.module.graph
        paths: list[Path] = []
        for a, b in zip(self._starts[: k + 1], self._starts[1 : k + 2]):
            paths = [Path(g, (), base=g.vertices[v]) if p < 0 else paths[p].extend(g._ids[e])
                     for p, e, v in zip(trie.parent[a:b].tolist(), trie.edge[a:b].tolist(),
                                        trie.range[a:b].tolist())]
        return paths

    @property
    def basis(self) -> tuple[BasisEntry, ...]:
        return self.basis_at(self.level)

    def dimension_at(self, k: int) -> int:
        k = self._check_level(k, self.level + 1)
        self._grown()
        return self._dims[k]

    @property
    def dimension(self) -> int:
        return self.dimension_at(self.level)

    def _offset(self, k: int, path: Path) -> int:
        """Index of the first fiber entry of `path` in W_k, found by walking
        the trie up from the path's length-0 start."""
        g = self.module.graph
        start = k - path.length
        u = g.vertex_index[path.source]
        if start < 0 or not self.module.dims[path.source] or (start and g._into[u]):
            raise LiftError(f"{path.display} is not a basis path of level {k}")
        level = self.paths_at(start)
        at = int(np.flatnonzero((level.parent < 0) & (level.range == u))[0])
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
        if edge_id not in self._edge_index:
            raise LiftError(f"unknown edge {edge_id!r}")
        images, ends = self._level_images(k)
        i = self._edge_index[edge_id]
        return images[ends[i] : ends[i + 1]]

    def _level_images(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The `edge_images` of every edge out of level k, a valid level, end
        to end in edge order, and where each edge's start, then their end."""
        if k not in self._images:
            low, high = self.paths_at(k), self.paths_at(k + 1)
            start = low.bounds[self._edge_source]  # each edge acts on this block
            size = low.bounds[self._edge_source + 1] - start
            ends = np.zeros(size.size + 1, dtype=np.intp)
            size.cumsum(out=ends[1:])
            col = np.arange(ends[-1]) + (start - ends[:-1]).repeat(size)
            # (mu, b) maps to (e.mu, b), the child of mu at the out-rank of e
            path = low.order.repeat(self._fiber[low.source[low.order]])[col]
            child = low.first[path] + self._out_rank.repeat(size)
            self._images[k] = (_frozen(high.offset[child] + col - low.offset[path]),
                               _frozen(ends))
        return self._images[k]

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
            path, down, block = self._placement(k)
            blocks, starts = self._blocks()
            # the block of path i is fiber(source i) x fiber(source down(i))
            self._embeds[k] = _block_map(
                high.offset[path], low.offset[down], self._fiber[high.source[path]],
                self._fiber[low.source[down]] * (down >= 0), starts[block], blocks,
                (high.dimension, low.dimension))
        return self._embeds[k]

    def _placement(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The embedding of level k as a block placement: the paths of level
        k+1 in basis order (the row order), the path of level k that each
        reads (-1 for none), and the index of its block in `_blocks`."""
        high = self.paths_at(k + 1)
        path = high.order
        block = self._block_of(high.length[path], k + 1, high.head[path], high.source[path])
        return path, high.down[path], block

    def _block_of(self, length, level, head, source) -> np.ndarray:
        """The block in `_blocks` of each row path of an embedding, given its
        length, its level, its first edge and its source: A_head for a path
        as long as its level, else the identity at its source, the root."""
        return np.where(length == level, head, len(self._edge_index) + source)

    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The embedding blocks, row-major in one array: A_e per edge, then
        the identity on the fiber of each vertex that receives no edge; and
        where the block of each edge and of each vertex starts."""
        if self._block_table is None:
            parts = [self.module.ops[eid].ravel() for eid in self.module.graph._ids]
            sizes = [a.size for a in parts] + [0] * self._fiber.size
            roots = self._roots.tolist()  # the only fibers fixed
            for v in roots:
                sizes[len(parts) + v] = int(self._fiber[v]) ** 2
            _require_entries(sum(sizes), "the embedding blocks")
            for v in roots:
                d = int(self._fiber[v])
                # entry j of the d x d identity is 1 exactly when d + 1 divides j
                parts.append(np.arange(d * d) % (d + 1) == 0)
            sizes = np.array(sizes, dtype=np.intp)
            self._block_table = (np.concatenate([*parts, np.zeros(0)]).astype(np.complex128),
                                 sizes.cumsum() - sizes)
        return self._block_table

    def _gram_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Gram terms of the blocks of `_blocks`: for row r and columns a
        and c of a block B of width w, conj(B[r, a]) * B[r, c] in real
        arithmetic, as a real and an imaginary part, and its cell a * w + c
        of the w x w Gram; block by block, each in (r, a, c) order. Also
        where the terms of each block start and how many it has."""
        if self._gram_table is None:
            values, starts = self._blocks()
            side = np.zeros_like(self._fiber)  # of the identity at each root
            side[self._roots] = self._fiber[self._roots]
            height = np.concatenate((self._fiber[self._edge_source], side))
            width = np.concatenate((self._fiber[self._edge_range], side))
            _require_entries(sum(h * w * w for h, w in zip(height.tolist(), width.tolist())),
                             "the embedding Gram terms")
            count = height * width * width
            w = width.repeat(count)
            r, cell = np.divmod(_ramps(count), w * w)
            a, c = np.divmod(cell, w)
            row = starts.repeat(count) + r * w  # where row r of the block starts
            x, y = values[row + a], values[row + c]
            self._gram_table = (x.real * y.real + x.imag * y.imag,
                                x.real * y.imag - x.imag * y.real,
                                cell, count.cumsum() - count, count)
        return self._gram_table

    def _gram_residuals(self) -> list[float]:
        """Frobenius norm of M*M - I for the embedding M of each level
        0..level, read off the block placements of `embed_map` without
        expanding them.

        Each row of M reads the columns of one lower path, so M*M is block
        diagonal, with a w x w slot block for each lower path that receives
        a row, w being its fiber; the slot blocks follow the lower paths in
        basis order. Each row path adds the Gram terms of its block into the
        slots of its lower path, rows in order, in one bincount for the real
        parts and one for the imaginary parts, so each slot sums its terms
        row by row. A lower path that receives no row has a zero Gram block:
        its entries add 1 each. Slots are indexed by path, never by column,
        and nothing is sorted.

        Consecutive levels go through `_gram_run` together, as long as their
        terms (at most rows times the largest block's term count) fit in
        `_GRAM_TERMS_PER_RUN`; a level with more runs alone. A run lays its
        levels' rows and slots out level after level, so each slot still
        sums its own terms in row order and each level sums its own slots:
        every residual is the one its level alone would give."""
        self._grown()
        # at least 1, so that a run also holds at most the budget in rows
        widest = max(int(self._gram_terms()[4].max(initial=0)), 1)
        starts = self._starts
        out: list[float] = []
        first = terms = 0
        for k in range(self.level + 1):
            rows = (starts[k + 2] - starts[k + 1]) * widest  # bounds the level's terms
            if k > first and terms + rows > _GRAM_TERMS_PER_RUN:
                out += self._gram_run(first, k)
                first, terms = k, 0
            terms += rows
        return out + self._gram_run(first, self.level + 1)

    def _gram_run(self, first: int, stop: int) -> list[float]:
        """The Gram residuals of levels first..stop-1, with one pair of
        bincounts; see `_gram_residuals`."""
        real, imag, cell, start, count = self._gram_terms()
        down, block, side, ends, base, bounds = self._gram_layout(first, stop)
        count = count[block]
        term = _ramps(count)  # the terms of each row path's block, in turn
        term += start[block].repeat(count)
        slot = cell[term]
        slot += base[down].repeat(count)
        del down, block, base, count  # row-sized, freed before the bincounts
        # a run with no terms has no slots, and bincount then gives ints
        gram_re = np.bincount(slot, real[term], ends[-1]).astype(np.float64, copy=False)
        gram_im = np.bincount(slot, imag[term], ends[-1]).astype(np.float64, copy=False)
        gram_re[_ramps(side) * (side + 1).repeat(side) + ends[:-1].repeat(side)] -= 1.0
        gram_re **= 2
        gram_im **= 2
        slots = ends[bounds].tolist()
        seen = np.zeros(side.size + 1, dtype=side.dtype)
        side.cumsum(out=seen[1:])
        seen = seen[bounds].tolist()
        dims = self._dims[first:stop]
        # a lower entry that no row reads adds 1
        return np.sqrt([np.add.reduce(gram_re[a:b]) + np.add.reduce(gram_im[a:b])
                        + (d - (s1 - s0))
                        for a, b, s0, s1, d in zip(slots, slots[1:], seen, seen[1:], dims)],
                       dtype=np.float64).tolist()

    def _gram_layout(self, first: int, stop: int) -> tuple[np.ndarray, ...]:
        """The placements of levels first..stop-1 (see `_placement`) as they
        lie end to end in the trie, lower paths numbered from the first path
        of level first. Returns, for each row path that reads a lower path,
        level after level in basis order, that lower path and its block; the
        side of each lower path's slot block (0 where no row reads it), and
        where the slot blocks start, then the slot count, both in basis
        order; where each lower path's slot block starts, by path; and where
        each level's lower paths start in basis order, then their count.
        Apart from `_gram_run`, so that its path-sized temporaries are freed
        before the terms are formed."""
        trie = self._trie
        starts = np.array(self._starts[first : stop + 2])
        sizes = starts[1:] - starts[:-1]
        shift = starts - starts[0]
        # each row's level, as an index into `starts`, and the row's trie index
        level = np.arange(1, sizes.size).repeat(sizes[1:])
        rows = trie.order[starts[1] : starts[-1]] + starts[level]
        down = trie.down[rows]
        fed = down >= 0
        rows, level = rows[fed], level[fed]
        down = down[fed] + shift[level - 1]
        block = self._block_of(trie.length[rows], level + first, trie.head[rows],
                               trie.source[rows])
        lower = trie.order[starts[0] : starts[-2]] + shift[:-2].repeat(sizes[:-1])
        side = np.zeros_like(lower)
        side[down] = self._fiber[trie.source[down + starts[0]]]
        side = side[lower]
        ends = np.zeros(side.size + 1, dtype=side.dtype)
        np.cumsum(side * side, out=ends[1:])
        base = np.empty_like(side)
        base[lower] = ends[:-1]
        return down, block, side, ends, base, shift[:-1]

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


def _cuts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted array starts, then its size."""
    cut = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=cut[1:-1])
    return np.flatnonzero(cut)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a sorted array, and how many times each occurs."""
    ends = _cuts(keys)
    return keys[ends[:-1]], ends[1:] - ends[:-1]


def ck_residuals(trunc: TruncatedLift) -> CkReport:
    """Measure every defining relation of the lift at its level.

    Every residual is read off the vertex blocks and the stored maps, with
    work that follows their nonzeros: one sort of the level's edge images,
    and per level a per-path slot block of the embedding Gram, filled from
    the block placement with no sort, levels taken together in runs under
    a term budget (`TruncatedLift._gram_residuals`); no embedding is
    expanded. No dense matrix and no per-vertex or per-edge array as long
    as a level is formed.
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
    embed_isometry = dict(enumerate(trunc._gram_residuals()))
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
    completeness = float(np.sqrt(int(np.sum((ends[1:] - ends[:-1]) * (cover - 1) ** 2))))
    # every image of the level, with its edge and the vertex that edge enters
    n_edges, n_vertices = len(g._ids), len(g.vertices)
    images = [trunc.edge_images(eid, m) for eid in g._ids]
    edge = np.arange(n_edges).repeat([a.size for a in images])
    images = np.concatenate([*images, np.zeros(0, dtype=np.intp)])
    hit = images >= 0
    into = trunc._edge_range
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
           + (high[1:] - high[:-1]) - np.bincount(w, inside, n_vertices))
    edge_isometry = {eid: float(np.sqrt(wrong[i])) for i, eid in enumerate(g._ids)}
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
    edge = trunc._edge_index
    if token.endswith("*") and token[:-1] in edge:
        if k == 0:
            raise LiftError(f"level underflow applying {token!r}")
        k -= 1
        out = np.zeros((trunc.dimension_at(k),) + x.shape[1:], dtype=np.complex128)
        # E* gathers: entry j of the source block reads entry t_j
        source = g.vertices[g._source[edge[token[:-1]]]]
        out[trunc.block(source, k)] = x[trunc.edge_images(token[:-1], k)]
    elif token in edge:
        if k == trunc.level:
            raise LiftError(f"level overflow applying {token!r} at level {k}")
        out = np.zeros((trunc.dimension_at(k + 1),) + x.shape[1:], dtype=np.complex128)
        # E scatters entry j of the source block to entry t_j (all distinct)
        source = g.vertices[g._source[edge[token]]]
        out[trunc.edge_images(token, k)] = x[trunc.block(source, k)]
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
    g = trunc.module.graph
    g.require_vertex(v)
    u = g.vertex_index[v]
    loops = [eid for eid, s, r in zip(g._ids, g._source, g._range) if s == r == u]
    if len(loops) != 1:
        raise LiftError(f"vertex {v!r} carries {len(loops)} loops, need one")
    if trunc.level < 1:
        raise LiftError("the loop eigenvalue needs a lift of level at least 1")
    below = trunc.reduce_class(v, np.arange(trunc.module.dims[v]) == 0,
                               trunc.level - 1).coeffs
    image, _ = _act(trunc, loops[0], below, trunc.level - 1)
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
