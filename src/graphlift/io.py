"""JSON codecs, DOT export, and scalar syntax for the command line.

Decoders report failures with a JSON-pointer location and ignore unknown
keys, so annotated documents (extra provenance fields and the like) still
decode. Complex entries in matrices are [re, im] pairs, row-major.
"""

from __future__ import annotations

import cmath
import json
import re

import numpy as np

from .graphs import Edge, Graph, GraphError, Path
from .lifting import TruncatedLift, lift
from .modules import ModuleError, PythagoreanModule
from .spectrum import SpectrumDescription


class CodecError(ValueError):
    """Schema violation; the message starts with the JSON-pointer location."""


def _fail(where: str, message: str):
    raise CodecError(f"{where}: {message}")


def _need(obj, where: str, kind, label: str):
    if not isinstance(obj, kind):
        _fail(where, f"expected {label}, got {type(obj).__name__}")
    return obj


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _need_key(obj: dict, where: str, key: str):
    if key not in obj:
        _fail(where, f"missing key {key!r}")
    return obj[key]


def graph_to_dict(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": [
            {"id": e.id, "source": e.source, "range": e.range} for e in graph.edges
        ],
    }


def graph_from_dict(doc) -> Graph:
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


def _matrix_to_entries(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _entries_to_matrix(doc, where: str, shape: tuple[int, int]) -> np.ndarray:
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
            out[i, j] = complex(pair[0], pair[1])
    return out


def module_to_dict(module: PythagoreanModule) -> dict:
    return {
        "graph": graph_to_dict(module.graph),
        "dims": dict(module.dims),
        "ops": {eid: _matrix_to_entries(mat) for eid, mat in module.ops.items()},
    }


def module_from_dict(doc) -> PythagoreanModule:
    _need(doc, "/", dict, "object")
    graph = graph_from_dict(_need_key(doc, "/", "graph"))
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
        ops[e.id] = _entries_to_matrix(raw_ops[e.id], f"/ops/{e.id}", shape)
    try:
        return PythagoreanModule(graph, dims, ops)
    except ModuleError as exc:
        raise CodecError(f"/: {exc}") from exc


def spectrum_to_dict(description: SpectrumDescription) -> dict:
    return {
        "class": description.class_tag,
        "circles": list(description.circles),
        "points": list(description.points),
    }


def spectrum_from_dict(doc) -> SpectrumDescription:
    _need(doc, "/", dict, "object")
    tag = _need(_need_key(doc, "/", "class"), "/class", str, "string")
    out = {}
    for key in ("circles", "points"):
        seq = _need(_need_key(doc, "/", key), f"/{key}", list, "array")
        for i, v in enumerate(seq):
            _need(v, f"/{key}/{i}", str, "string")
        out[key] = tuple(seq)
    return SpectrumDescription(tag, out["circles"], out["points"])


def _basis_entry(path: Path, fiber: int) -> dict:
    return {
        "path": path.display,
        "source": path.source,
        "range": path.range,
        "length": path.length,
        "fiber": fiber,
    }


LIFT_FORMAT = "partial-maps"


def lift_to_dict(trunc: TruncatedLift) -> dict:
    """Bases for levels 0..m+1 and the generators out of levels 0..m as index
    lists: per edge, the target index of each basis entry (-1 where the edge
    cannot act); per vertex, the indices of the entries it projects onto."""
    m = trunc.level
    g = trunc.module.graph
    return {
        "format": LIFT_FORMAT,
        "module": module_to_dict(trunc.module),
        "level": m,
        "bases": {
            str(k): [_basis_entry(p, b) for p, b in trunc.basis_at(k)]
            for k in range(m + 2)
        },
        "edges": {
            str(k): {e.id: trunc.edge_targets(e.id, k).tolist() for e in g.edges}
            for k in range(m + 1)
        },
        "projections": {
            str(k): {
                v: np.flatnonzero(trunc.projection_mask(v, k)).tolist()
                for v in g.vertices
            }
            for k in range(m + 1)
        },
    }


def lift_from_dict(doc) -> TruncatedLift:
    """Rebuild the lift from its module and level; the maps are recomputed.
    Documents without a "format" key (dense 0/1 matrices) decode the same."""
    _need(doc, "/", dict, "object")
    if "format" in doc and doc["format"] != LIFT_FORMAT:
        _fail("/format", f"unknown lift format {doc['format']!r}, "
                         f"expected {LIFT_FORMAT!r}")
    module = module_from_dict(_need_key(doc, "/", "module"))
    level = _need_key(doc, "/", "level")
    if not _is_int(level) or level < 0:
        _fail("/level", "expected a nonnegative integer")
    return lift(module, level, validate=False)


def graph_to_dot(graph: Graph) -> str:
    lines = ["digraph {"]
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for e in graph.edges:
        lines.append(f'  "{e.source}" -> "{e.range}" [label="{e.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_PHASE = re.compile(r"^exp\((-?\d+)/(\d+)\)$")


def parse_complex(text: str) -> complex:
    """Accept "a+bi" with decimal floats, or "exp(k/n)" for e^(2*pi*i*k/n)."""
    cleaned = text.strip().replace(" ", "")
    phase = _PHASE.match(cleaned)
    if phase:
        k, n = int(phase.group(1)), int(phase.group(2))
        if n == 0:
            raise CodecError(f"/: zero denominator in {text!r}")
        return cmath.exp(2j * cmath.pi * k / n)
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise CodecError(f"/: cannot parse complex scalar {text!r}") from None


def format_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:g}{z.imag:+g}i"


def read_json(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise CodecError(f"/: invalid JSON in {path}: {exc}") from exc


def dumps_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_json(path: str, doc):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_json(doc))
