"""Per-layer spans recorded from outside the package.

`install` wraps the public functions of every graphlift layer module, plus the
public `TruncatedLift` methods, and rebinds each wrapper under every
`graphlift.*` module name that holds the original (the CLI imports
`ck_residuals` by name, for example, so patching `graphlift.lifting` alone
would miss it). Nothing under `src/` changes; an untraced process never calls
`install` and runs the package untouched.

A span's self time is its duration minus the time its direct child spans
cover. With `memory=True`, `tracemalloc` runs and each span also records its
peak of traced bytes above the level at entry; numpy reports its buffers to
`tracemalloc`, so array allocations count. Memory tracing slows Python-heavy
code several times over, so timings come from a run without it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
import weakref
from collections import defaultdict

LAYERS = ("cli", "io", "families", "graphs", "spectrum", "modules", "lifting")

LIFT_METHODS = (
    "basis_at",
    "dimension_at",
    "edge_matrix",
    "projection_matrix",
    "embed_matrix",
    "reduce_class",
)

# Span groups behind the per-layer self-time metrics; a group lists spans.
GROUPS = {
    "io.encode": (
        "io.graph_to_dict", "io.module_to_dict", "io.spectrum_to_dict",
        "io.lift_to_dict", "io.dumps_json", "io.write_json", "io.graph_to_dot",
        "io.format_complex",
    ),
    "io.decode": (
        "io.read_json", "io.graph_from_dict", "io.module_from_dict",
        "io.spectrum_from_dict", "io.lift_from_dict", "io.parse_complex",
    ),
    "graphs.maximal_paths": ("graphs.maximal_paths",),
    "graphs.is_isomorphic": ("graphs.is_isomorphic",),
    "modules.validate": ("modules.validate_module",),
    "modules.intertwiners": ("modules.intertwiner_space",),
    "modules.irreducible": ("modules.is_irreducible",),
    "modules.indecomposable": ("modules.is_indecomposable",),
    "modules.equivalent": ("modules.are_equivalent",),
    "lifting.basis": ("lifting.basis_at",),
    "lifting.edge_matrix": ("lifting.edge_matrix",),
    "lifting.projection_matrix": ("lifting.projection_matrix",),
    "lifting.embed_matrix": ("lifting.embed_matrix",),
    "lifting.ck_residuals": ("lifting.ck_residuals",),
    "lifting.query": (
        "lifting.reduce_class", "lifting.word_operator", "lifting.embed_vector",
    ),
}

_MB = float(1 << 20)


class _Frame:
    __slots__ = ("name", "layer", "start", "children", "mem_entry", "mem_max")

    def __init__(self, name, layer, start):
        self.name = name
        self.layer = layer
        self.start = start
        self.children = 0.0
        self.mem_entry = 0
        self.mem_max = 0


class Tracer:
    """Collects span self times, layer entries, peaks and work counters."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.enabled = False
        self._stack: list[_Frame] = []
        self._bases_seen = weakref.WeakKeyDictionary()
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.entries = defaultdict(int)
        self.peak = defaultdict(int)
        self.counts = defaultdict(float)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, layer: str) -> _Frame:
        frame = _Frame(name, layer, 0.0)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.mem_max = max(parent.mem_max, peak)
            tracemalloc.reset_peak()
            frame.mem_entry = frame.mem_max = cur
        if all(f.layer != layer for f in self._stack):
            self.entries[layer] += 1
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        self.self_s[frame.name] += duration - frame.children
        if self._stack:
            self._stack[-1].children += duration
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            frame.mem_max = max(frame.mem_max, peak)
            used = frame.mem_max - frame.mem_entry
            self.peak[frame.name] = max(self.peak[frame.name], used)
            self.peak[frame.layer] = max(self.peak[frame.layer], used)
            if self._stack:
                parent = self._stack[-1]
                parent.mem_max = max(parent.mem_max, frame.mem_max)

    def wrap(self, fn, name: str, layer: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    # -- counters at the layer boundaries -------------------------------------

    def _count_family(self, args, graph) -> None:
        self.counts["families.edges_built"] += len(graph.edges)

    def _count_paths(self, args, paths) -> None:
        self.counts["graphs.paths_returned"] += len(paths)

    def _count_basis(self, args, basis) -> None:
        trunc, k = args[0], int(args[1])
        levels = self._bases_seen.setdefault(trunc, set())
        if k not in levels:
            levels.add(k)
            self.counts["lifting.dim_total"] += len(basis)

    def _count_edge(self, args, mat) -> None:
        self.counts["lifting.edge_nonzeros"] += int((mat != 0).sum())
        self.counts["lifting.edge_entries"] += mat.size

    def _count_write(self, args, result) -> None:
        self.counts["io.bytes_written"] += os.path.getsize(args[0])

    def _count_read(self, args, result) -> None:
        self.counts["io.bytes_read"] += os.path.getsize(args[0])

    _COUNTERS = {
        "families.sphere_odd_graph": _count_family,
        "families.sphere_even_graph": _count_family,
        "families.projective_graph": _count_family,
        "families.lens_graph_coprime": _count_family,
        "graphs.maximal_paths": _count_paths,
        "lifting.basis_at": _count_basis,
        "lifting.edge_matrix": _count_edge,
        "io.write_json": _count_write,
        "io.read_json": _count_read,
    }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the public lift methods."""
        import graphlift  # noqa: F401  (loads every layer module)
        from graphlift.lifting import TruncatedLift

        package = {
            name: mod for name, mod in sys.modules.items()
            if name == "graphlift" or name.startswith("graphlift.")
        }
        for layer in LAYERS:
            mod = package[f"graphlift.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(fn, name, layer, self._COUNTERS.get(name))
                for holder in package.values():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        for attr in LIFT_METHODS:
            name = f"lifting.{attr}"
            fn = getattr(TruncatedLift, attr)
            setattr(TruncatedLift, attr,
                    self.wrap(fn, name, "lifting", self._COUNTERS.get(name)))

    # -- one pass's numbers --------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer numbers gathered since the last `reset`."""
        layer_self = defaultdict(float)
        for name, seconds in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        out = {}
        for group, names in GROUPS.items():
            out[f"{group}.self_s"] = sum(self.self_s.get(n, 0.0) for n in names)
        for layer in ("cli", "families", "spectrum"):
            out[f"{layer}.self_s"] = layer_self[layer]
        for layer in ("cli", "families", "spectrum", "modules"):
            out[f"{layer}.calls"] = float(self.entries[layer])
        for key in ("families.edges_built", "graphs.paths_returned",
                    "lifting.dim_total", "io.bytes_written", "io.bytes_read"):
            out[key] = self.counts[key]
        entries = self.counts["lifting.edge_entries"]
        out["lifting.edge_nnz_ratio"] = (
            self.counts["lifting.edge_nonzeros"] / entries if entries else 0.0
        )
        if self.memory:
            out["io.peak_mb"] = self.peak["io"] / _MB
            out["modules.peak_mb"] = self.peak["modules"] / _MB
            out["modules.indecomposable.peak_mb"] = (
                self.peak["modules.is_indecomposable"] / _MB
            )
            out["lifting.peak_mb"] = self.peak["lifting"] / _MB
        out["layer_self_s"] = {layer: layer_self[layer] for layer in LAYERS}
        return out
