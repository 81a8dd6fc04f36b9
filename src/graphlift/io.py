"""JSON codecs, DOT export, and scalar syntax for the command line.

Decoders report failures with a JSON-pointer location and ignore unknown
keys, so annotated documents (extra provenance fields and the like) still
decode. The graph decoder checks each array of a document in one pass, and
the module decoder checks every operator's shape and entry types in one
pass and converts all entries with one array call; only a document that
fails those checks is walked item by item, to name its first fault by JSON
pointer, with the same message as an item-by-item decoder.
Complex entries in matrices are [re, im] pairs, row-major.
"""

from __future__ import annotations

import cmath
import json
import os
import re
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .families import lens_edge_provenance
from .graphs import Graph, GraphError, _checked
from .lifting import MAX_LEVEL, TruncatedLift, lift
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
    name = graph.vertices.__getitem__
    return {
        "vertices": list(graph.vertices),
        "edges": [{"id": eid, "source": name(s), "range": name(r)}
                  for eid, s, r in zip(graph._ids, graph._source, graph._range)],
    }


def _graph_text(graph: Graph, provenance: bool) -> Iterator[str]:
    """The text of `dumps_json(graph_to_dict(graph))`, in pieces, each edge
    record formatted once and no per-edge dict built. With provenance, each
    record also holds the edge's "provenance" list, its
    `lens_edge_provenance`, as `graph make lens` writes."""
    vertices = list(map(_ESCAPE, graph.vertices))
    yield '{\n  "vertices": ' + _strings(list(graph.vertices), "\n  ") + ',\n  "edges": '
    sep = "["
    for eid, s, r in zip(graph._ids, graph._source, graph._range):
        record = (f'{sep}\n    {{\n      "id": {_ESCAPE(eid)},\n      "source": '
                  f'{vertices[s]},\n      "range": {vertices[r]}')
        if provenance:
            record += (',\n      "provenance": '
                       + _strings(lens_edge_provenance(eid), "\n      "))
        yield record + "\n    }"
        sep = ","
    yield "[]\n}\n" if sep == "[" else "\n  ]\n}\n"


def _each(items, kind) -> bool:
    """Whether every item is an instance of kind, in one pass."""
    return all(map(isinstance, items, repeat(kind)))


def graph_from_dict(doc) -> Graph:
    vertices = records = ids = None
    if isinstance(doc, dict) and "vertices" in doc and "edges" in doc:
        vertices, records = doc["vertices"], doc["edges"]
    if (isinstance(vertices, list) and _each(vertices, str)
            and isinstance(records, list) and _each(records, dict)):
        try:
            ids, sources, ranges = (list(map(itemgetter(key), records))
                                    for key in ("id", "source", "range"))
        except KeyError:
            pass
    if ids is None or not all(_each(a, str) for a in (ids, sources, ranges)):
        _graph_fault(doc)
    try:
        return _checked(vertices, ids, sources, ranges)
    except GraphError as exc:
        raise CodecError(f"/: {exc}") from exc


def _graph_fault(doc) -> NoReturn:
    """Raise the CodecError for the first fault of a graph document that
    failed the whole-array checks of `graph_from_dict`: the object, its
    vertices in order, then its edge records in order, each record's id,
    source and range in that order."""
    _need(doc, "/", dict, "object")
    vertices = _need(_need_key(doc, "/", "vertices"), "/vertices", list, "array")
    for i, v in enumerate(vertices):
        _need(v, f"/vertices/{i}", str, "string")
    records = _need(_need_key(doc, "/", "edges"), "/edges", list, "array")
    for i, entry in enumerate(records):
        _need(entry, f"/edges/{i}", dict, "object")
        for key in ("id", "source", "range"):
            _need(_need_key(entry, f"/edges/{i}", key), f"/edges/{i}/{key}", str, "string")
    raise AssertionError("graph_from_dict refused a document with no fault")


def _matrix_to_entries(mat: np.ndarray) -> list:
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


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
            try:
                out[i, j] = complex(pair[0], pair[1])
            except OverflowError:  # an integer literal beyond float range
                _fail(f"{where}/{i}/{j}", "number out of float range")
    return out


def _operators(raw_ops: dict, graph: Graph, dims: dict[str, int]) -> dict | None:
    """Every edge's operator, all converted by one array call; None when any
    is missing, is not rows of [re, im] pairs in its edge's shape, holds a
    leaf whose type is not exactly int or float, or holds an int beyond
    float range. `module_from_dict` then walks the entries to locate the
    first fault."""
    shapes = [(dims[e.source], dims[e.range]) for e in graph.edges]
    mats = [raw_ops.get(e.id) for e in graph.edges]
    if not set(map(type, mats)) <= {list} or list(map(len, mats)) != [r for r, _ in shapes]:
        return None
    rows = list(chain.from_iterable(mats))
    if (not set(map(type, rows)) <= {list}
            or list(map(len, rows)) != [c for r, c in shapes for _ in range(r)]):
        return None
    pairs = list(chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        return None
    leaves = list(chain.from_iterable(pairs))
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        values = np.array(leaves, dtype=np.float64).view(np.complex128)
    except OverflowError:
        return None
    ends = list(accumulate([r * c for r, c in shapes], initial=0))
    return {e.id: values[a:b].reshape(shape)
            for e, a, b, shape in zip(graph.edges, ends, ends[1:], shapes)}


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
    ops = _operators(raw_ops, graph, dims)
    if ops is None:
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


LIFT_FORMAT = "edge-images"
# the earlier layout, which spread each edge over a -1-padded list as long as
# its level and listed each projection's indices; it decodes the same
LIFT_FORMATS = (LIFT_FORMAT, "partial-maps")


def lift_to_dict(trunc: TruncatedLift) -> dict:
    """Bases for levels 0..m+1 and the generators out of levels 0..m as index
    lists. The basis is range-major, so vertex v projects onto one block of
    each level, written as its [start, stop]; an edge maps the block of its
    source and nothing else, and is written as the index in level k+1 of the
    image of each entry of that block (`TruncatedLift.edge_images`). Each
    basis entry has one record: its path's display, source, range and length,
    and its fiber index. Apart from the bases, a file holds
    O(vertices + nonzeros) numbers per level. The document is decoded from
    the text that `lift build` writes."""
    return json.loads("".join(_lift_text(trunc)))


_PATHS_PER_PIECE = 4096


def _lift_text(trunc: TruncatedLift) -> Iterator[str]:
    """The text of the lift document, as `dumps_json` would write it, in
    pieces in document order: the module, the bases level by level, then the
    edge images and the projection blocks. No per-entry object is built. Ids
    are escaped once; each path's display is its parent's with one more
    escaped edge id on the left; each path's record text up to the fiber
    index is formatted once and joined with the fiber indices of its source.
    A level's bases come in pieces of a few thousand paths, so that besides
    the trie only the displays of the level and one piece are held. The
    levels are grown first, so a level too large to hold is refused before
    any text, the fiber indices of a huge source included, is formed."""
    m = trunc.level
    trunc.paths_at(m + 1)
    g = trunc.module.graph
    vertices = [_ESCAPE(v) for v in g.vertices]
    names = list(map(_ESCAPE, g._ids))
    bare_vertices = [v[1:-1] for v in vertices]
    bare_names = [name[1:-1] for name in names]
    sources = [f',\n        "source": {v}' for v in vertices]
    ranges = [f',\n        "range": {v},\n        "length": ' for v in vertices]
    # the record text of a path up to its length, joined over the fibers of
    # the path's source, gives its records, each led by the comma before it
    dims = [trunc.module.dims[v] for v in g.vertices]
    fibers = [["", *(f',\n        "fiber": {b}\n      }}' for b in range(d))] for d in dims]
    parts: list[str] = []
    _encode(module_to_dict(trunc.module), "\n  ", parts)
    yield f'{{\n  "format": {_ESCAPE(LIFT_FORMAT)},\n  "module": ' + "".join(parts)
    yield f',\n  "level": {m},\n  "bases": {{'
    shown: list[str] = []  # escaped displays without quotes, in build order
    for k in range(m + 2):
        level = trunc.paths_at(k)
        shown = [
            bare_vertices[v] if p < 0 else bare_names[e] if n == 1
            else f"{bare_names[e]}.{shown[p]}"
            for p, e, v, n in zip(*(a.tolist() for a in (level.parent, level.edge,
                                                         level.range, level.length)))
        ]
        key = f'{"," if k else ""}\n    "{k}": '
        if not level.order.size:
            yield key + "[]"
            continue
        for start in range(0, level.order.size, _PATHS_PER_PIECE):
            at = level.order[start : start + _PATHS_PER_PIECE]
            piece = "".join([
                f',\n      {{\n        "path": "{shown[i]}"{sources[s]}{ranges[r]}{n}'.join(
                    fibers[s])
                for i, s, r, n in zip(at.tolist(), level.source[at].tolist(),
                                      level.range[at].tolist(), level.length[at].tolist())
            ])
            yield key + "[" + piece[1:] if start == 0 else piece
        yield "\n    ]"
    yield '\n  },\n  "edges": {'
    for k in range(m + 1):
        yield f'{"," if k else ""}\n    "{k}": '
        yield from _members(
            f"\n      {name}: " + _ints(trunc.edge_images(eid, k).tolist())
            for eid, name in zip(g._ids, names))
    yield '\n  },\n  "projections": {'
    for k in range(m + 1):
        bounds = trunc.paths_at(k).bounds.tolist()
        yield f'{"," if k else ""}\n    "{k}": '
        yield from _members(
            f"\n      {v}: [\n        {bounds[u]},\n        {bounds[u + 1]}\n      ]"
            for u, v in enumerate(vertices))
    yield "\n  }\n}\n"


def _ints(values: list) -> str:
    """The JSON text of a list of ints at the indent of a lift map's entries."""
    if not values:
        return "[]"
    return "[\n        " + ",\n        ".join(map(int.__repr__, values)) + "\n      ]"


def _members(texts: Iterator[str]) -> Iterator[str]:
    """The JSON object of one level of lift maps, from the texts of its
    members, each yielded as it is produced."""
    sep = "{"
    for text in texts:
        yield sep + text
        sep = ","
    yield "{}" if sep == "{" else "\n    }"


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
    if level > MAX_LEVEL:
        _fail("/level", f"level {level} is above MAX_LEVEL={MAX_LEVEL}")
    return lift(module, level, validate=False)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(graph: Graph) -> str:
    """The graph in DOT, every id a quoted string with `"` and `\\` escaped."""
    q = _dot_quote
    lines = ["digraph {"]
    for v in graph.vertices:
        lines.append(f"  {q(v)};")
    for eid, s, r in zip(graph._ids, graph._source, graph._range):
        lines.append(f"  {q(graph.vertices[s])} -> {q(graph.vertices[r])} [label={q(eid)}];")
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
        except UnicodeDecodeError as exc:
            raise CodecError(f"/: {path} is not UTF-8 text: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, or text json refuses with another error: an
            # integer literal over the interpreter's digit limit (ValueError)
            # or nesting deeper than the recursion limit
            raise CodecError(f"/: invalid JSON in {path}: {exc}") from exc


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


def _strings(obj: list, pad: str) -> str:
    """The JSON text of obj, a list of exact strs, on a line indented by pad."""
    if not obj:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(_ESCAPE, obj)) + pad + "]"


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
    document has one."""
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
    _write_text(path, _json_parts(doc))


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces to path as they come. If producing or writing one
    raises, the partial file is removed and the error re-raised; only a
    regular file is removed, never a device such as /dev/null."""
    handle = open(path, "w", encoding="utf-8")
    try:
        with handle:
            handle.writelines(pieces)
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise
