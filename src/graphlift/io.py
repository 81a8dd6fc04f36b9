"""JSON codecs, DOT export, and scalar syntax for the command line.

Decoders report failures with a JSON-pointer location and ignore unknown
keys, so annotated documents (extra provenance fields and the like) still
decode. Complex entries in matrices are [re, im] pairs, row-major.
"""

from __future__ import annotations

import cmath
import json
import re
from operator import itemgetter

import numpy as np

from .graphs import Edge, Graph, GraphError
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
    doc = {
        "class": description.class_tag,
        "circles": list(description.circles),
        "points": list(description.points),
    }
    if description.by_analogy:
        doc["by_analogy"] = True
    return doc


def spectrum_from_dict(doc) -> SpectrumDescription:
    _need(doc, "/", dict, "object")
    tag = _need(_need_key(doc, "/", "class"), "/class", str, "string")
    out = {}
    for key in ("circles", "points"):
        seq = _need(_need_key(doc, "/", key), f"/{key}", list, "array")
        for i, v in enumerate(seq):
            _need(v, f"/{key}/{i}", str, "string")
        out[key] = tuple(seq)
    by_analogy = _need(doc.get("by_analogy", False), "/by_analogy", bool, "boolean")
    return SpectrumDescription(tag, out["circles"], out["points"], by_analogy)


def _basis_records(trunc: TruncatedLift) -> dict:
    """One record per basis entry of levels 0..m+1, read off the path trie;
    each display extends its parent's by one edge id on the left."""
    g = trunc.module.graph
    names = [e.id for e in g.edges]
    vertices = g.vertices
    fibers = [range(trunc.module.dims[v]) for v in vertices]
    shown: list[str] = []
    out = {}
    for k in range(trunc.level + 2):
        level = trunc.paths_at(k)
        parent, edge, rng, source, length = (
            a.tolist() for a in (level.parent, level.edge, level.range,
                                 level.source, level.length))
        shown = [
            vertices[v] if p < 0 else names[e] if n == 1 else f"{names[e]}.{shown[p]}"
            for p, e, v, n in zip(parent, edge, rng, length)
        ]
        out[str(k)] = [
            {"path": shown[i], "source": vertices[source[i]],
             "range": vertices[rng[i]], "length": length[i], "fiber": b}
            for i in level.order.tolist()
            for b in fibers[source[i]]
        ]
    return out


LIFT_FORMAT = "edge-images"
# the earlier layout, which spread each edge over a -1-padded list as long as
# its level and listed each projection's indices; it decodes the same
LIFT_FORMATS = (LIFT_FORMAT, "partial-maps")


def lift_to_dict(trunc: TruncatedLift) -> dict:
    """Bases for levels 0..m+1 and the generators out of levels 0..m as index
    lists. The basis is range-major, so vertex v projects onto one block of
    each level, written as its [start, stop]; an edge maps the block of its
    source and nothing else, and is written as the index in level k+1 of the
    image of each entry of that block (`TruncatedLift.edge_images`). Apart
    from the bases, a file holds O(vertices + nonzeros) numbers per level."""
    m = trunc.level
    g = trunc.module.graph
    bounds = [trunc.paths_at(k).bounds.tolist() for k in range(m + 1)]
    return {
        "format": LIFT_FORMAT,
        "module": module_to_dict(trunc.module),
        "level": m,
        "bases": _basis_records(trunc),
        "edges": {
            str(k): {e.id: trunc.edge_images(e.id, k).tolist() for e in g.edges}
            for k in range(m + 1)
        },
        "projections": {
            str(k): {v: b[u : u + 2] for u, v in enumerate(g.vertices)}
            for k, b in enumerate(bounds)
        },
    }


def lift_from_dict(doc) -> TruncatedLift:
    """Rebuild the lift from its module and level; the maps are recomputed.
    "partial-maps" documents and those without a "format" key (dense 0/1
    matrices) decode the same."""
    _need(doc, "/", dict, "object")
    if "format" in doc and doc["format"] not in LIFT_FORMATS:
        _fail("/format", f"unknown lift format {doc['format']!r}, expected "
                         + " or ".join(map(repr, LIFT_FORMATS)))
    module = module_from_dict(_need_key(doc, "/", "module"))
    level = _need_key(doc, "/", "level")
    if not _is_int(level) or level < 0:
        _fail("/level", "expected a nonnegative integer")
    return lift(module, level, validate=False)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: Graph) -> str:
    """The graph in DOT, every id a quoted string with `"` and `\\` escaped."""
    q = _dot_quote
    lines = ["digraph {"]
    for v in graph.vertices:
        lines.append(f"  {q(v)};")
    for e in graph.edges:
        lines.append(f"  {q(e.source)} -> {q(e.range)} [label={q(e.id)}];")
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
        except UnicodeDecodeError as exc:
            raise CodecError(f"/: {path} is not UTF-8 text: {exc}") from exc


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_ESCAPE = json.encoder.encode_basestring_ascii
# JSON text of the leaf types, by exact type; subclasses (np.float64 and the
# like) take the isinstance path of _encode
_LEAF = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _records(obj, pad: str) -> str | None:
    """The JSON text of obj, a list of exact dicts, written column by column,
    when they all have the same str keys in the same order and each key's
    values are of one exact leaf type; None otherwise."""
    shapes = set(map(tuple, obj))
    if len(shapes) != 1:
        return None
    (keys,) = shapes
    if not keys or not all(isinstance(key, str) for key in keys):
        return None
    columns = []
    for key in keys:
        column = list(map(itemgetter(key), obj))
        kinds = set(map(type, column))
        leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf is None:
            return None
        columns.append(map(leaf, column))
    inner = pad + "  "
    field = "," + inner + "  "
    # pad is a newline and spaces, so only the keys can hold a %
    names = [_ESCAPE(key).replace("%", "%%") + ": %s" for key in keys]
    record = "{" + field[1:] + field.join(names) + inner + "}"
    return "[" + inner + ("," + inner).join(map(record.__mod__, zip(*columns))) + pad + "]"


def _encode(obj, pad: str, parts: list) -> None:
    """Append the JSON text of obj to parts; pad is the newline and indent of
    the line obj starts on, and the contents go one level (2 spaces) deeper."""
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        parts.append(leaf(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = pad + "  "
        kinds = set(map(type, obj))
        if kinds == {int}:
            parts += ("[", inner, ("," + inner).join(map(int.__repr__, obj)), pad, "]")
            return
        if kinds == {dict}:
            text = _records(obj, pad)
            if text is not None:
                parts.append(text)
                return
        sep = "[" + inner
        for value in obj:
            leaf = _LEAF.get(type(value))
            if leaf is not None:
                parts.append(sep + leaf(value))
            else:
                parts.append(sep)
                _encode(value, inner, parts)
            sep = "," + inner
        parts += (pad, "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            leaf = _LEAF.get(type(value))
            if leaf is not None:
                parts.append(f"{sep}{_ESCAPE(key)}: {leaf(value)}")
            else:
                parts.append(f"{sep}{_ESCAPE(key)}: ")
                _encode(value, inner, parts)
            sep = "," + inner
        parts += (pad, "}")
    elif isinstance(obj, str):
        parts.append(_ESCAPE(obj))
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps_json(doc) -> str:
    """doc as 2-space-indented, ASCII-escaped JSON plus a newline: the same
    text as json.dumps(doc, indent=2) + "\n". Unlike json, a dict key that is
    not a str raises TypeError instead of being coerced; no graphlift
    document has one.

    A list of flat records (exact dicts with the same str keys in the same
    order, each key's values of one exact leaf type, as in lift bases and
    graph edges) is written column by column through one per-record
    template; the bytes are the same as on the general path."""
    return "".join(_json_parts(doc))


def _json_parts(doc) -> list[str]:
    """The text of `dumps_json(doc)` as the pieces that join to it."""
    parts: list[str] = []
    _encode(doc, "\n", parts)
    parts.append("\n")
    return parts


def write_json(path: str, doc):
    """Encode doc first, so a document that cannot be encoded leaves no file;
    the pieces are written as they are, never joined into one string."""
    parts = _json_parts(doc)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(parts)
