"""JSON codecs, DOT export, and scalar syntax for the command line.

Decoders report failures with a JSON-pointer location and ignore unknown
keys, so annotated documents (extra provenance fields and the like) still
decode. The graph decoder checks each array of a document in one pass, and
the module decoder checks every operator's shape and entry types in one
pass, converts all entries with one array call and checks them finite
once, then builds the module without checking it again; only a document
that fails those checks is walked item by item, to name its first fault by
JSON pointer, with the same message as an item-by-item decoder.
Complex entries in matrices are [re, im] pairs, row-major. Graph, module
and lift documents are written from their arrays, with no per-entry object;
the small reports and `write_json` use the stdlib's indented `json.dumps`.
"""

from __future__ import annotations

import cmath
import json
import os
import re
from itertools import accumulate, chain, repeat
from operator import itemgetter, mul
from typing import Iterable, Iterator, NoReturn

import numpy as np

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
    yield from _graph_pieces(graph, provenance, "\n")
    yield "\n"


def _graph_pieces(graph: Graph, provenance: bool, pad: str) -> Iterator[str]:
    """The JSON text of the graph of `_graph_text` on a line indented by pad,
    as `dumps_json` writes it. `_ESCAPE` escapes each character on its own and
    never writes ".", so the text of the provenance list is the escaped id
    split at its dots, reversed and joined once."""
    inner, record, field = pad + "  ", pad + "    ", pad + "      "
    vertices = list(map(_ESCAPE, graph.vertices))
    yield ("{" + inner + '"vertices": ' + _strings(list(graph.vertices), inner) + ","
           + inner + '"edges": ')
    sep = "["
    for eid, s, r in zip(graph._ids, graph._source, graph._range):
        name = _ESCAPE(eid)
        text = (f'{sep}{record}{{{field}"id": {name},{field}"source": {vertices[s]},'
                f'{field}"range": {vertices[r]}')
        if provenance:
            text += (f',{field}"provenance": [{field}  "'
                     + f'",{field}  "'.join(name[1:-1].split(".")[::-1]) + f'"{field}]')
        yield text + record + "}"
        sep = ","
    yield ("[]" if sep == "[" else inner + "]") + pad + "}"


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
    """Every edge's operator, all converted by one array call and checked
    finite once; None when any is missing, is not rows of [re, im] pairs in
    its edge's shape, holds a leaf whose type is not exactly int or float,
    an int beyond float range, or a part that is not finite.
    `module_from_dict` then walks the entries to locate the first fault."""
    fiber = list(dims.values())  # in vertex order
    heights = list(map(fiber.__getitem__, graph._source))
    widths = list(map(fiber.__getitem__, graph._range))
    mats = list(map(raw_ops.get, graph._ids))
    if not set(map(type, mats)) <= {list} or list(map(len, mats)) != heights:
        return None
    rows = list(chain.from_iterable(mats))
    if (not set(map(type, rows)) <= {list}
            or list(map(len, rows)) != list(chain.from_iterable(map(repeat, widths, heights)))):
        return None
    pairs = list(chain.from_iterable(rows))
    if not set(map(type, pairs)) <= {list} or not set(map(len, pairs)) <= {2}:
        return None
    leaves = list(chain.from_iterable(pairs))
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        parts = np.array(leaves, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(parts).all():
        return None
    values = parts.view(np.complex128)
    ends = list(accumulate(map(mul, heights, widths), initial=0))
    return {eid: values[a:b].reshape(h, w)
            for eid, a, b, h, w in zip(graph._ids, ends, ends[1:], heights, widths)}


def module_to_dict(module: PythagoreanModule) -> dict:
    return {
        "graph": graph_to_dict(module.graph),
        "dims": dict(module.dims),
        "ops": {eid: _matrix_to_entries(mat) for eid, mat in module.ops.items()},
    }


def _module_text(module: PythagoreanModule, pad: str) -> str:
    """The JSON text of `module_to_dict(module)` on a line indented by pad, as
    `dumps_json` writes it: the graph by `_graph_pieces`, and the operators from
    one `tolist` of all their parts end to end, each [re, im] pair formatted
    by one `str.format` and each row joined once."""
    p1, p2, p3, p4, p5 = (pad + "  " * i for i in range(1, 6))
    dims = ("," + p2).join(f"{_ESCAPE(v)}: {d}" for v, d in module.dims.items())
    ops = module.ops
    parts = np.concatenate([*(op.ravel() for op in ops.values()),
                            np.zeros(0, dtype=np.complex128)]).view(np.float64)
    number = float.__repr__ if np.isfinite(parts).all() else json.dumps
    parts = list(map(number, parts.tolist()))
    pairs = list(map(f"[{p5}{{}},{p5}{{}}{p4}]".format, parts[::2], parts[1::2]))
    members = []
    at = 0
    for eid, op in ops.items():
        height, width = op.shape
        rows = (["[" + p4 + ("," + p4).join(pairs[i : i + width]) + p3 + "]"
                 for i in range(at, at + op.size, width)] if width else ["[]"] * height)
        at += op.size
        members.append(_ESCAPE(eid) + ": "
                       + ("[" + p3 + ("," + p3).join(rows) + p2 + "]" if rows else "[]"))
    return ("{" + p1 + '"graph": ' + "".join(_graph_pieces(module.graph, False, p1))
            + "," + p1 + '"dims": {' + p2 + dims + p1 + "}," + p1 + '"ops": '
            + ("{" + p2 + ("," + p2).join(members) + p1 + "}" if members else "{}")
            + pad + "}")


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
    ids = set(graph._ids)
    for eid in raw_ops:
        if eid not in ids:
            _fail(f"/ops/{eid}", "unknown edge")
    ops = _operators(raw_ops, graph, dims)
    if ops is not None:
        return PythagoreanModule._of(graph, dims, ops)
    ops = {}
    fiber = list(dims.values())
    for eid, s, r in zip(graph._ids, graph._source, graph._range):
        if eid not in raw_ops:
            _fail("/ops", f"missing operator for edge {eid!r}")
        ops[eid] = _entries_to_matrix(raw_ops[eid], f"/ops/{eid}", (fiber[s], fiber[r]))
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
    yield (f'{{\n  "format": {_ESCAPE(LIFT_FORMAT)},\n  "module": '
           + _module_text(trunc.module, "\n  "))
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
        yield f'{"," if k else ""}\n    "{k}": ' + _edge_maps(names, *trunc._level_images(k))
    yield '\n  },\n  "projections": {'
    for k in range(m + 1):
        bounds = trunc.paths_at(k).bounds.tolist()
        yield f'{"," if k else ""}\n    "{k}": '
        yield from _members(
            f"\n      {v}: [\n        {bounds[u]},\n        {bounds[u + 1]}\n      ]"
            for u, v in enumerate(vertices))
    yield "\n  }\n}\n"


def _edge_maps(names: list[str], images: np.ndarray, ends: np.ndarray) -> str:
    """The JSON object of one level's edge images: member i is names[i], an
    escaped edge id, with the ints images[ends[i]:ends[i + 1]] at the indent
    of a lift map's entries; from one `tolist` and one join."""
    if not names:
        return "{}"
    values = images.tolist()
    # each value, led by the text before it; an edge's first value is led by
    # the close of the last list, the edges between with no images, and its key
    parts = [",\n        "] * (2 * len(values))
    parts[1::2] = map(int.__repr__, values)
    lead = "{"
    ends = ends.tolist()
    for i, (name, a, b) in enumerate(zip(names, ends, ends[1:])):
        lead += f'{"," if i else ""}\n      {name}: '
        if a == b:
            lead += "[]"
        else:
            parts[2 * a] = lead + "[\n        "
            lead = "\n      ]"
    return "".join(parts) + lead + "\n    }"


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
    return "".join(_dot_lines(graph))


def _dot_lines(graph: Graph) -> Iterator[str]:
    """The lines of `graph_to_dot(graph)`, each with its newline."""
    q = _dot_quote
    yield "digraph {\n"
    for v in graph.vertices:
        yield f"  {q(v)};\n"
    for eid, s, r in zip(graph._ids, graph._source, graph._range):
        yield f"  {q(graph.vertices[s])} -> {q(graph.vertices[r])} [label={q(eid)}];\n"
    yield "}\n"


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


_ESCAPE = json.encoder.encode_basestring_ascii


def _strings(obj: list, pad: str) -> str:
    """The JSON text of obj, a list of exact strs, on a line indented by pad."""
    if not obj:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(_ESCAPE, obj)) + pad + "]"


def dumps_json(doc) -> str:
    """doc as 2-space-indented, ASCII-escaped JSON plus a newline: the text of
    json.dumps(doc, indent=2) + "\n", a non-str dict key coerced as json does."""
    return json.dumps(doc, indent=2) + "\n"


def write_json(path: str, doc):
    """Encode doc first, so a document that cannot be encoded leaves no file."""
    _write_text(path, [dumps_json(doc)])


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
