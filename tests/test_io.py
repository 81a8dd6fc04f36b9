"""JSON codecs, complex scalar syntax, and dot output."""

import cmath
import collections
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphlift import (
    CodecError,
    Edge,
    Graph,
    ModuleError,
    PythagoreanModule,
    cli,
    LensParams,
    classify,
    lens_edge_provenance,
    lens_graph_coprime,
    lift,
    one_dim_module,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
    validate_module,
    validate_quantum_graph,
)
from graphlift import io
from graphlift.io import (
    dumps_json,
    format_complex,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    lift_from_dict,
    lift_to_dict,
    module_from_dict,
    module_to_dict,
    parse_complex,
    read_json,
    spectrum_from_dict,
    spectrum_to_dict,
    write_json,
)

from helpers import (
    expand_edge_images,
    partial_maps_dict,
    random_feasible_dims,
    reference_graph_from_dict,
    reference_lift_dict,
    reference_matrix_to_entries,
    reference_module_from_dict,
    reference_validate_residuals,
    small_multigraphs,
    supported_graphs,
)


class _Name(str):
    """A str subclass; a decoder takes it as it takes a str."""


_LENS_GRAPHS = st.sampled_from([LensParams(2, 3, (1, 1)), LensParams(2, 3, (1, 2)),
                                LensParams(3, 4, (1, 1, 3))]).map(lens_graph_coprime)
_NOT_STR = st.sampled_from([True, False, 0, 7, None, 1.5, [], ["1"], {}])
_NOT_LIST = st.sampled_from([True, 0, None, "1", {}, {"0": "1"}])
_NOT_DICT = st.sampled_from([True, 0, None, "e", [], [["id", "e"]]])


@st.composite
def graph_docs(draw):
    """A graph and its document, maybe with extra keys, lens provenance on
    each edge record and a str subclass in place of some names."""
    graph = draw(st.one_of(supported_graphs(), small_multigraphs(), _LENS_GRAPHS))
    doc = graph_to_dict(graph)
    if draw(st.booleans()):
        doc["comment"] = "not part of the graph"
        for entry in doc["edges"]:
            entry["provenance"] = lens_edge_provenance(entry["id"])
    if draw(st.booleans()):
        at = draw(st.integers(0, len(doc["vertices"]) - 1))
        doc["vertices"][at] = _Name(doc["vertices"][at])
        for entry in doc["edges"]:
            entry["source"] = _Name(entry["source"])
    return graph, doc


def _inject_fault(draw, doc):
    """doc with one more schema fault, made in place unless the fault
    replaces the whole document."""
    if not isinstance(doc, dict):
        return doc
    kinds = ["root", "no vertices", "no edges", "vertices", "edges"]
    vertices, records = doc.get("vertices"), doc.get("edges")
    if isinstance(vertices, list) and vertices:
        kinds.append("vertex")
    dicts = ([i for i, entry in enumerate(records) if isinstance(entry, dict)]
             if isinstance(records, list) else [])
    if isinstance(records, list) and records:
        kinds.append("record")
    if dicts:
        kinds += ["field", "no field"]
    kind = draw(st.sampled_from(kinds))
    if kind == "root":
        return draw(_NOT_DICT)
    if kind in ("no vertices", "no edges"):
        doc.pop(kind[3:], None)
    elif kind in ("vertices", "edges"):
        doc[kind] = draw(_NOT_LIST)
    elif kind == "vertex":
        vertices[draw(st.integers(0, len(vertices) - 1))] = draw(_NOT_STR)
    elif kind == "record":
        records[draw(st.integers(0, len(records) - 1))] = draw(_NOT_DICT)
    else:
        entry = records[draw(st.sampled_from(dicts))]
        key = draw(st.sampled_from(["id", "source", "range"]))
        if kind == "field":
            entry[key] = draw(_NOT_STR)
        else:
            entry.pop(key, None)
    return doc


def _decoded(decode, doc):
    """The graph decode(doc) returns, or the type and text of the CodecError
    it raises."""
    try:
        return decode(doc)
    except CodecError as exc:
        return type(exc), str(exc)


class TestGraphCodec:
    def test_round_trip(self):
        g = sphere_odd_graph(3)
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_unknown_keys_ignored(self):
        doc = graph_to_dict(sphere_odd_graph(1))
        doc["comment"] = "kept out of the model"
        doc["edges"][0]["weight"] = 3
        assert graph_from_dict(doc) == sphere_odd_graph(1)

    def test_missing_key_is_located(self):
        with pytest.raises(CodecError, match=r"/: missing key 'edges'"):
            graph_from_dict({"vertices": ["1"]})

    def test_bad_edge_field_is_located(self):
        doc = graph_to_dict(sphere_odd_graph(1))
        doc["edges"][0]["source"] = 7
        with pytest.raises(CodecError, match=r"/edges/0/source: expected string"):
            graph_from_dict(doc)

    def test_bad_vertex_entry_is_located(self):
        with pytest.raises(CodecError, match=r"/vertices/1: expected string"):
            graph_from_dict({"vertices": ["1", 2], "edges": []})

    def test_structural_faults_surface_at_root(self):
        doc = {
            "vertices": ["1"],
            "edges": [{"id": "e", "source": "1", "range": "9"}],
        }
        with pytest.raises(CodecError, match="/: "):
            graph_from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(CodecError, match="/: expected object, got list"):
            graph_from_dict([])

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(graph_docs())
    def test_matches_reference_decoder(self, drawn):
        graph, doc = drawn
        got = graph_from_dict(doc)
        assert got == reference_graph_from_dict(doc) == graph

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(graph_docs(), st.integers(1, 2), st.data())
    def test_faults_raise_as_reference_decoder(self, drawn, faults, data):
        _, doc = drawn
        for _ in range(faults):
            doc = _inject_fault(data.draw, doc)
        want = _decoded(reference_graph_from_dict, doc)
        assert want[0] is CodecError
        assert _decoded(graph_from_dict, doc) == want

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": ["1", 2]}, "/vertices/1: expected string, got int"),
        ({"vertices": [None], "edges": 0}, "/vertices/0: expected string, got NoneType"),
        ({"vertices": [True], "edges": [5]}, "/vertices/0: expected string, got bool"),
    ])
    def test_bad_vertex_is_named_before_missing_or_bad_edges(self, doc, message):
        with pytest.raises(CodecError) as caught:
            graph_from_dict(doc)
        assert str(caught.value) == message

    def test_need_calls_do_not_grow_with_the_edges(self, monkeypatch):
        calls = []
        need = io._need
        monkeypatch.setattr(io, "_need", lambda *args: calls.append(args) or need(*args))
        counts = []
        for n in (10, 1000):
            calls.clear()
            doc = {"vertices": ["1"],
                   "edges": [{"id": f"e{i}", "source": "1", "range": "1"} for i in range(n)]}
            assert len(graph_from_dict(doc).edges) == n
            counts.append(len(calls))
        assert counts[0] == counts[1]


def _entry_blocks() -> dict[str, np.ndarray]:
    """Operator blocks for the entry encoding: random complex blocks, signed
    zeros in both parts, and the empty (0, n) and (n, 0) shapes."""
    rng = np.random.default_rng(4)
    blocks = {
        f"random-{r}x{c}": rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        for r, c in ((1, 1), (2, 3), (3, 2), (12, 12))
    }
    signed = np.empty((2, 2), dtype=np.complex128)
    signed.real = [[0.0, -0.0], [0.0, -0.0]]
    signed.imag = [[0.0, 0.0], [-0.0, -0.0]]
    blocks["signed-zeros"] = signed
    blocks["empty-0x3"] = np.zeros((0, 3), dtype=np.complex128)
    blocks["empty-3x0"] = np.zeros((3, 0), dtype=np.complex128)
    return blocks


_ENTRY_BLOCKS = _entry_blocks()


class TestModuleCodec:
    def test_round_trip_exact(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 7)
        back = module_from_dict(module_to_dict(m))
        assert back.graph == g
        assert back.dims == m.dims
        for eid in m.ops:
            assert np.array_equal(back.ops[eid], m.ops[eid])

    def test_missing_dims_default_to_zero(self):
        g = sphere_odd_graph(2)
        doc = module_to_dict(one_dim_module(g, "1", 1j))
        del doc["dims"]["2"]
        assert module_from_dict(doc).dims == {"1": 1, "2": 0}

    def test_unknown_vertex_in_dims_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["dims"]["9"] = 1
        with pytest.raises(CodecError, match="/dims/9: unknown vertex"):
            module_from_dict(doc)

    def test_negative_dim_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["dims"]["1"] = -2
        with pytest.raises(CodecError, match="/dims/1: expected a nonnegative"):
            module_from_dict(doc)

    def test_boolean_dim_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["dims"]["1"] = True
        with pytest.raises(CodecError, match="/dims/1: expected a nonnegative"):
            module_from_dict(doc)

    def test_unknown_edge_in_ops_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["ops"]["zz"] = []
        with pytest.raises(CodecError, match="/ops/zz: unknown edge"):
            module_from_dict(doc)

    def test_missing_operator_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(2), "1", 1j))
        del doc["ops"]["21"]
        with pytest.raises(CodecError, match=r"/ops: missing operator for edge '21'"):
            module_from_dict(doc)

    def test_wrong_shape_names_the_edge(self):
        g = sphere_odd_graph(2)
        doc = module_to_dict(random_module(g, {"1": 1, "2": 1}, 0))
        doc["ops"]["21"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(CodecError, match="/ops/21: expected 1 rows, got 2"):
            module_from_dict(doc)

    def test_ragged_row_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["ops"]["11"] = [[[0.0, 1.0], [9.0, 9.0]]]
        with pytest.raises(CodecError, match="/ops/11/0: expected 1 entries, got 2"):
            module_from_dict(doc)

    def test_bad_pair_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["ops"]["11"] = [[[0.0, "x"]]]
        with pytest.raises(CodecError, match=r"/ops/11/0/0: expected a \[re, im\]"):
            module_from_dict(doc)

    def test_boolean_pair_located(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["ops"]["11"] = [[[True, False]]]
        with pytest.raises(CodecError, match=r"/ops/11/0/0: expected a \[re, im\]"):
            module_from_dict(doc)

    @pytest.mark.parametrize("pair", [[10**400, 0], [0.0, -10**400]])
    def test_integer_beyond_float_range_located(self, pair):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["ops"]["11"] = [[pair]]
        with pytest.raises(CodecError, match=r"^/ops/11/0/0: number out of float range$"):
            module_from_dict(doc)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_names_edge(self, literal):
        text = json.dumps(module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j)))
        doc = json.loads(text.replace("[0.0, 1.0]", f"[0.0, {literal}]"))
        with pytest.raises(CodecError, match="'11': operator has non-finite"):
            module_from_dict(doc)

    def test_unknown_keys_ignored(self):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(1), "1", 1j))
        doc["provenance"] = {"tool": "elsewhere"}
        m = module_from_dict(doc)
        assert m.dims == {"1": 1}

    @pytest.mark.parametrize("name", sorted(_ENTRY_BLOCKS))
    def test_entries_are_the_reference_encoding(self, name):
        mat = _ENTRY_BLOCKS[name]
        got = io._matrix_to_entries(mat)
        expected = reference_matrix_to_entries(mat)
        assert dumps_json(got) == dumps_json(expected)
        leaves = [x for row in got for pair in row for x in pair]
        assert all(type(x) is float for x in leaves)



# entry parts the decoders must carry bit for bit: signed zeros,
# subnormals, ints above 2**53 (which round to a float), ordinary floats
_ENTRY_PARTS = st.one_of(
    st.sampled_from([0, 1, -3, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]),
    st.integers(2**53 + 1, 2**80), st.integers(-(2**80), -(2**53) - 1),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def module_docs(draw):
    """A module document over a drawn graph with drawn fibers (0 to 3) and
    drawn entries; the operators need not satisfy the module relation."""
    graph = draw(st.one_of(supported_graphs(), small_multigraphs()))
    dims = {v: draw(st.integers(0, 3)) for v in graph.vertices}
    ops = {e.id: [[[draw(_ENTRY_PARTS), draw(_ENTRY_PARTS)] for _ in range(dims[e.range])]
                  for _ in range(dims[e.source])]
           for e in graph.edges}
    return {"graph": graph_to_dict(graph), "dims": dims, "ops": ops}


def _inject_op_fault(draw, doc):
    """doc with one more change to its operators, made in place: a fault,
    or np.float64 parts in one operator, which both decoders accept."""
    ops = doc["ops"]
    edges = [entry["id"] for entry in doc["graph"]["edges"]]
    pairs = [(eid, i, j) for eid in edges if isinstance(ops.get(eid), list)
             for i, row in enumerate(ops[eid]) if isinstance(row, list)
             for j, pair in enumerate(row) if isinstance(pair, list) and pair]
    rows = [row for eid in edges if isinstance(ops.get(eid), list)
            for row in ops[eid] if isinstance(row, list)]
    kinds = ["missing"] if edges else []
    if pairs:
        kinds += ["bool", "string", "null", "huge", "triple", "numpy",
                  "malformed then missing", "number for pair", "null for pair"]
    if rows:
        kinds.append("ragged")
    if not kinds:
        return doc
    kind = draw(st.sampled_from(kinds))
    if kind == "missing":
        ops.pop(draw(st.sampled_from(edges)), None)
    elif kind == "ragged":
        draw(st.sampled_from(rows)).append([0.0, 0.0])
    elif kind == "numpy":
        eid = draw(st.sampled_from(pairs))[0]
        ops[eid] = [[[np.float64(x) if type(x) is float else x for x in pair]
                     if isinstance(pair, list) else pair for pair in row]
                    if isinstance(row, list) else row for row in ops[eid]]
    else:
        eid, i, j = draw(st.sampled_from(pairs))
        pair = ops[eid][i][j]
        if kind == "number for pair":
            ops[eid][i][j] = draw(st.sampled_from([0.5, 0, -2]))
        elif kind == "null for pair":
            ops[eid][i][j] = None
        elif kind == "triple":
            pair.append(0.0)
        elif kind == "malformed then missing":
            pair[0] = True
            later = edges[edges.index(eid) + 1:]
            if later:
                ops.pop(draw(st.sampled_from(later)), None)
        else:
            pair[draw(st.integers(0, len(pair) - 1))] = draw(st.sampled_from({
                "bool": [True, False], "string": ["1.5", "0"], "null": [None],
                "huge": [10**400, -10**400]}[kind]))
    return doc


class TestModuleDecoder:
    """`module_from_dict` converts every operator in one array call, and walks
    the entries only to locate a fault; it decodes as the entry-by-entry
    reference does."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(module_docs(), st.integers(0, 2), st.data())
    def test_decodes_as_reference_decoder(self, doc, faults, data):
        for _ in range(faults):
            doc = _inject_op_fault(data.draw, doc)
        want = _decoded(reference_module_from_dict, doc)
        got = _decoded(module_from_dict, doc)
        if isinstance(want, tuple):
            assert want[0] is CodecError
            assert got == want
            return
        assert (got.graph, got.dims) == (want.graph, want.dims)
        for eid, mat in want.ops.items():
            assert got.ops[eid].shape == mat.shape
            assert got.ops[eid].tobytes() == mat.tobytes(), eid

    def test_well_formed_operators_are_not_walked(self, monkeypatch):
        doc = module_to_dict(random_module(sphere_odd_graph(3), {"1": 2, "2": 0, "3": 3}, 4))
        want = reference_module_from_dict(doc)

        def refuse(*args):
            raise AssertionError("entries walked")

        monkeypatch.setattr(io, "_entries_to_matrix", refuse)
        got = module_from_dict(doc)
        assert all(got.ops[eid].tobytes() == mat.tobytes() for eid, mat in want.ops.items())

    @pytest.mark.parametrize("row, message", [
        ([0.5], "/ops/11/0/0: expected array, got float"),
        ([None], "/ops/11/0/0: expected array, got NoneType"),
    ])
    def test_entry_that_is_not_a_pair(self, row, message):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(2), "1", 1j))
        doc["ops"]["11"] = [row]
        assert _decoded(reference_module_from_dict, doc) == (CodecError, message)
        assert _decoded(module_from_dict, doc) == (CodecError, message)

    @pytest.mark.parametrize("first, message", [
        ([[True, 0.0]], r"/ops/11/0/0: expected a \[re, im\] pair of numbers"),
        ([[10**400, 0.0]], "/ops/11/0/0: number out of float range"),
    ])
    def test_missing_operator_after_a_malformed_one(self, first, message):
        doc = module_to_dict(one_dim_module(sphere_odd_graph(2), "1", 1j))
        doc["ops"]["11"] = [first]
        del doc["ops"]["22"]
        with pytest.raises(CodecError, match=f"^{message}$"):
            module_from_dict(doc)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_first_non_finite_operator_named(self, tmp_path, text):
        m = random_module(sphere_odd_graph(3), {"1": 1, "2": 2, "3": 1}, 3)
        raw = dumps_json(module_to_dict(m))
        doc = json.loads(raw)
        # parts of edges 11 and 22, in that edge order, read as non-finite
        for eid in ("22", "11"):
            doc["ops"][eid][0][0][1] = 1234.5
        path = tmp_path / "bad.json"
        path.write_text(dumps_json(doc).replace("1234.5", text))
        doc = read_json(str(path))
        message = "/: edge '11': operator has non-finite entries"
        assert _decoded(reference_module_from_dict, doc) == (CodecError, message)
        assert _decoded(module_from_dict, doc) == (CodecError, message)


class TestDecodedModule:
    """A module decoded from `module_to_dict(m)` is m: the decoder builds it
    without the public constructor's second check, and `validate_module`
    reads the graph's index arrays."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(small_multigraphs(), st.data())
    def test_equals_public_module(self, g, data):
        dims = {v: data.draw(st.integers(0, 2), label=f"dim {v}") for v in g.vertices}
        seed = data.draw(st.integers(0, 2**16), label="seed")
        m = None
        if data.draw(st.booleans(), label="valid"):  # residuals near 0 too
            try:
                m = random_module(g, dims, seed)
            except ModuleError:  # the fibers allow no valid module
                pass
        if m is None:
            rng = np.random.default_rng(seed)
            shapes = {e.id: (dims[e.source], dims[e.range]) for e in g.edges}
            m = PythagoreanModule(g, dims, {
                eid: rng.standard_normal(s) + 1j * rng.standard_normal(s)
                for eid, s in shapes.items()})
        got = module_from_dict(json.loads(dumps_json(module_to_dict(m))))
        assert got.graph == m.graph
        assert list(got.dims.items()) == list(m.dims.items())
        assert ([(eid, a.dtype, a.shape, a.tobytes()) for eid, a in got.ops.items()]
                == [(eid, a.dtype, a.shape, a.tobytes()) for eid, a in m.ops.items()])
        want, exempt = reference_validate_residuals(m)
        for module in (got, m):
            report = validate_module(module)
            assert report.exempt == exempt
            assert ({w: r.hex() for w, r in report.residuals.items()}
                    == {w: r.hex() for w, r in want.items()})


class TestSpectrumCodec:
    def test_round_trip(self):
        desc = classify(sphere_even_graph(2))
        assert spectrum_from_dict(spectrum_to_dict(desc)) == desc

    def test_shape(self):
        doc = spectrum_to_dict(classify(sphere_odd_graph(2)))
        assert doc == {"class": "loop-graph", "circles": ["1", "2"], "points": []}

    def test_old_by_analogy_document_decodes(self):
        g = sphere_even_graph(2)
        desc = classify(Graph(g.vertices, g.edges[:-1]))  # less one source edge
        doc = spectrum_to_dict(desc)
        assert "by_analogy" not in doc
        assert spectrum_from_dict(dict(doc, by_analogy=True)) == desc

    def test_bad_point_entry_located(self):
        with pytest.raises(CodecError, match="/points/0: expected string"):
            spectrum_from_dict({"class": "x", "circles": [], "points": [1]})


class TestLiftCodec:
    def test_round_trip_rebuilds_matrices(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 3)
        t = lift(m, 2)
        back = lift_from_dict(lift_to_dict(t))
        assert back.level == t.level
        for k in range(t.level + 1):
            for e in g.edges:
                assert np.array_equal(back.edge_matrix(e.id, k),
                                      t.edge_matrix(e.id, k))
            assert np.allclose(back.embed_matrix(k), t.embed_matrix(k))

    def test_document_layout(self):
        g = sphere_odd_graph(2)
        t = lift(one_dim_module(g, "1", 1j), 1)
        doc = lift_to_dict(t)
        assert set(doc) == {"format", "module", "level", "bases", "edges",
                            "projections"}
        assert doc["format"] == "edge-images"
        assert doc["level"] == 1
        assert set(doc["bases"]) == {"0", "1", "2"}
        assert [e["path"] for e in doc["bases"]["1"]] == ["11", "21"]
        assert set(doc["edges"]) == set(doc["projections"]) == {"0", "1"}
        # "22" leaves the zero fiber at "2", an empty block
        assert doc["edges"]["0"] == {"11": [0], "21": [1], "22": []}
        assert doc["edges"]["1"] == {"11": [0], "21": [1], "22": [2]}
        assert doc["projections"]["0"] == {"1": [0, 1], "2": [1, 1]}
        assert doc["projections"]["1"] == {"1": [0, 1], "2": [1, 2]}
        entry = doc["bases"]["2"][0]
        assert entry == {"path": "11.11", "source": "1", "range": "1",
                         "length": 2, "fiber": 0}

    def test_unknown_format_located(self):
        g = sphere_odd_graph(1)
        doc = lift_to_dict(lift(one_dim_module(g, "1", 1j), 1))
        doc["format"] = "dense"
        with pytest.raises(CodecError, match="/format: unknown lift format 'dense', "
                                             "expected 'edge-images' or 'partial-maps'"):
            lift_from_dict(doc)

    def test_edge_images_document_decodes(self):
        g = sphere_odd_graph(2)
        t = lift(random_module(g, {"1": 2, "2": 1}, 3), 2)
        doc = json.loads(json.dumps(lift_to_dict(t)))
        assert doc["format"] == "edge-images"
        back = lift_from_dict(doc)
        assert back.level == 2
        for k in range(3):
            for e in g.edges:
                assert np.array_equal(back.edge_images(e.id, k), t.edge_images(e.id, k))

    def test_partial_maps_document_decodes(self):
        g = sphere_odd_graph(2)
        t = lift(random_module(g, {"1": 2, "2": 1}, 3), 2)
        doc = json.loads(json.dumps(partial_maps_dict(t)))
        assert doc["format"] == "partial-maps"
        back = lift_from_dict(doc)
        assert back.level == 2
        for k in range(3):
            assert np.array_equal(back.embed_matrix(k), t.embed_matrix(k))
            for e in g.edges:
                assert np.array_equal(back.edge_images(e.id, k),
                                      t.edge_images(e.id, k))

    def test_legacy_dense_document_decodes(self):
        g = sphere_odd_graph(2)
        t = lift(random_module(g, {"1": 2, "2": 1}, 3), 2)
        doc = lift_to_dict(t)
        del doc["format"]
        doc["edges"] = {
            str(k): {e.id: t.edge_matrix(e.id, k).astype(int).tolist()
                     for e in g.edges}
            for k in range(3)
        }
        doc["projections"] = {
            str(k): {v: np.diag(t.projection_matrix(v, k)).astype(int).tolist()
                     for v in g.vertices}
            for k in range(3)
        }
        back = lift_from_dict(json.loads(json.dumps(doc)))
        assert back.level == 2
        for k in range(3):
            assert np.array_equal(back.embed_matrix(k), t.embed_matrix(k))
            for e in g.edges:
                assert np.array_equal(back.edge_images(e.id, k),
                                      t.edge_images(e.id, k))

    def test_bad_level_located(self):
        g = sphere_odd_graph(1)
        doc = lift_to_dict(lift(one_dim_module(g, "1", 1j), 1))
        doc["level"] = -3
        with pytest.raises(CodecError, match="/level: expected a nonnegative"):
            lift_from_dict(doc)

    def test_level_above_the_cap_located(self):
        g = sphere_odd_graph(1)
        doc = lift_to_dict(lift(one_dim_module(g, "1", 1j), 1))
        doc["level"] = 10**11
        with pytest.raises(CodecError, match="/level: level 100000000000 is above "
                                             "MAX_LEVEL=10000"):
            lift_from_dict(doc)

    def test_boolean_level_located(self):
        g = sphere_odd_graph(1)
        doc = lift_to_dict(lift(one_dim_module(g, "1", 1j), 1))
        doc["level"] = True
        with pytest.raises(CodecError, match="/level: expected a nonnegative"):
            lift_from_dict(doc)


ROUND_TRIP_GRAPHS = (
    lambda: sphere_odd_graph(1),
    lambda: sphere_odd_graph(3),
    lambda: sphere_odd_graph(4),
    lambda: sphere_even_graph(2),
    lambda: lens_graph_coprime(LensParams(2, 3, (1, 1))),
)


class TestLiftRoundTripProperty:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(graph=st.sampled_from(ROUND_TRIP_GRAPHS),
           seed=st.integers(0, 2**16), level=st.integers(0, 4))
    def test_maps_rebuild_the_generator_matrices(self, graph, seed, level):
        g = graph()
        dims = random_feasible_dims(g, np.random.default_rng(seed), hi=3)
        t = lift(random_module(g, dims, seed), level)
        doc = json.loads(json.dumps(lift_to_dict(t)))
        for k in range(level + 1):
            rows = len(doc["bases"][str(k + 1)])
            cols = len(doc["bases"][str(k)])
            blocks = doc["projections"][str(k)]
            for e in g.edges:
                start, stop = blocks[e.source]
                images = doc["edges"][str(k)][e.id]
                assert len(images) == stop - start
                mat = np.zeros((rows, cols))
                mat[images, range(start, stop)] = 1.0
                assert np.array_equal(mat, t.edge_matrix(e.id, k))
            assert [blocks[v] for v in g.vertices] == sorted(blocks.values())
            for v in g.vertices:
                start, stop = blocks[v]
                diag = np.zeros(cols)
                diag[start:stop] = 1.0
                assert np.array_equal(np.diag(diag), t.projection_matrix(v, k))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(graph=st.sampled_from(ROUND_TRIP_GRAPHS),
           seed=st.integers(0, 2**16), level=st.integers(0, 4))
    def test_expands_to_the_partial_maps_document(self, graph, seed, level):
        g = graph()
        dims = random_feasible_dims(g, np.random.default_rng(seed), hi=3)
        t = lift(random_module(g, dims, seed), level)
        expanded = expand_edge_images(json.loads(json.dumps(lift_to_dict(t))))
        # the same text, so the same keys in the same order
        assert json.dumps(expanded) == json.dumps(partial_maps_dict(t))


def _lift_text(trunc) -> str:
    return "".join(io._lift_text(trunc))


def _oracle_text(trunc) -> str:
    return json.dumps(reference_lift_dict(trunc), indent=2) + "\n"


class TestLiftWriter:
    """The lift writer's text against the per-entry builder through the
    stdlib encoder, byte for byte."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(graph=supported_graphs(), seed=st.integers(0, 2**16),
           level=st.integers(0, 4))
    def test_matches_the_reference(self, graph, seed, level):
        dims = random_feasible_dims(graph, np.random.default_rng(seed), hi=3)
        t = lift(random_module(graph, dims, seed), level)
        assert _lift_text(t) == _oracle_text(t)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_escaped_ids(self, level):
        """Ids with quotes, backslashes, format characters, dots, non-ASCII
        and a line separator; a zero fiber, and a vertex with no edges."""
        q, s, lone, zero = 'q"\\%', "s{}.\u00e9", "lone\u2028", "z%s"
        graph = Graph((q, s, lone, zero), (
            Edge('a"{0}', q, q), Edge("b\\.%d", q, s), Edge("c\u2028\u00e9", s, s),
            Edge("d.}", zero, s), Edge("e{}", q, zero)))
        module = random_module(graph, {q: 2, s: 3, lone: 1, zero: 0}, 5)
        t = lift(module, level)
        text = _lift_text(t)
        assert text == _oracle_text(t)
        assert text.isascii()
        doc = json.loads(text)
        assert doc["bases"]["0"][-1]["path"] == lone
        assert doc["edges"]["0"]["d.}"] == []
        if level:
            assert {'a"{0}.a"{0}', "c\u2028\u00e9.b\\.%d"} <= {
                r["path"] for r in doc["bases"]["2"]}


class TestComplexSyntax:
    def test_cartesian_forms(self):
        assert parse_complex("0.6+0.8i") == complex(0.6, 0.8)
        assert parse_complex("-1+0i") == -1
        assert parse_complex("1") == 1
        assert parse_complex("0.25i") == 0.25j

    def test_phase_forms(self):
        assert parse_complex("exp(1/8)") == pytest.approx(cmath.exp(1j * cmath.pi / 4))
        assert parse_complex("exp(-1/4)") == pytest.approx(-1j)
        assert parse_complex("exp(0/5)") == 1

    def test_whitespace_tolerated(self):
        assert parse_complex(" 0.6 + 0.8i ") == complex(0.6, 0.8)

    def test_garbage_rejected(self):
        with pytest.raises(CodecError, match="cannot parse complex scalar"):
            parse_complex("one plus i")

    def test_zero_denominator_rejected(self):
        with pytest.raises(CodecError, match="zero denominator"):
            parse_complex("exp(1/0)")

    def test_format_round_trips(self):
        for z in (0.6 + 0.8j, -1 + 0j, 0.25j, 1 + 0j):
            assert parse_complex(format_complex(z)) == pytest.approx(z)

    def test_format_shape(self):
        assert format_complex(0.6 + 0.8j) == "0.6+0.8i"
        assert format_complex(-1) == "-1+0i"


class TestDotAndFiles:
    def test_dot_output_lists_edges(self):
        text = graph_to_dot(sphere_odd_graph(2))
        assert text.startswith("digraph {")
        assert '"1" -> "2" [label="21"];' in text
        assert text.endswith("}\n")

    def test_json_file_round_trip(self, tmp_path):
        doc = graph_to_dict(sphere_odd_graph(2))
        path = tmp_path / "g.json"
        write_json(str(path), doc)
        assert read_json(str(path)) == doc
        assert path.read_text().endswith("\n")

    def test_invalid_json_file_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CodecError, match="invalid JSON"):
            read_json(str(path))

    @pytest.mark.parametrize("text", [
        '{"vertices": ["1"], "edges": [], "note": ' + "9" * 5000 + "}",
        "[" * 100_000 + "]" * 100_000,
    ], ids=["digits-over-limit", "nesting-over-limit"])
    def test_text_json_refuses_without_decode_error_reported(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(CodecError) as caught:
            read_json(str(path))
        assert str(caught.value).startswith(f"/: invalid JSON in {path}: ")

    def test_dot_escapes_quotes_and_backslashes(self):
        g = Graph(('a"b', "c\\d"), (Edge('e"', 'a"b', "c\\d"),))
        assert graph_to_dot(g).splitlines() == [
            "digraph {",
            '  "a\\"b";',
            '  "c\\\\d";',
            '  "a\\"b" -> "c\\\\d" [label="e\\""];',
            "}",
        ]

    def test_non_utf8_file_reported(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(CodecError, match=r"^/: .* is not UTF-8 text"):
            read_json(str(path))

    def test_unencodable_document_writes_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_json(str(path), {"level": np.int64(1)})
        assert not path.exists()

    def test_dumps_is_deterministic(self):
        doc = module_to_dict(random_module(sphere_odd_graph(2),
                                           {"1": 1, "2": 1}, 5))
        assert dumps_json(doc) == dumps_json(json.loads(dumps_json(doc)))


_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", "tab\tnl\n\"q\"\\", "\u00e9\u2028",
                     "\U0001f600", "\ud800"]),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300]),
)
_LEAVES = st.one_of(
    _STRINGS,
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.booleans(),
    st.none(),
    _FLOATS,
    _FLOATS.map(np.float64),
)
_INT_LISTS = st.lists(st.one_of(st.integers(), _LEAVES), max_size=6)
_DOCS = st.recursive(
    st.one_of(_LEAVES, _INT_LISTS, st.lists(st.integers(), max_size=6),
              st.lists(_STRINGS, max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
    ),
    max_leaves=12,
)


class _Text(str):
    pass


class _Count(int):
    def __repr__(self):
        return "Count()"


# keys that a %-template or the escaper could get wrong
_KEYS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["%", "%s", "%%d", "%(a)s", '"', "\\", "\u00e9", "\ud800",
                     "\U0001f600", "a b"]),
)
_COLUMNS = (
    _STRINGS,
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.booleans(),
    st.none(),
    _FLOATS,
    st.one_of(st.integers(), st.booleans(), _FLOATS, st.none()),
    _FLOATS.map(np.float64),
    _STRINGS.map(_Text),
    st.integers().map(_Count),
    _INT_LISTS,
    st.lists(_STRINGS, max_size=4),
    st.lists(st.one_of(_STRINGS, _STRINGS.map(_Text)), max_size=3),
    st.just({}),
)


@st.composite
def _record_lists(draw):
    """0-6 dicts sharing one key tuple, each key's column drawn from one of
    _COLUMNS, then perhaps one item made an OrderedDict or reordered."""
    keys = draw(st.lists(_KEYS, max_size=4, unique=True))
    n = draw(st.integers(min_value=0, max_value=6))
    columns = [draw(st.lists(draw(st.sampled_from(_COLUMNS)), min_size=n, max_size=n))
               for _ in keys]
    records = [dict(zip(keys, row)) for row in zip(*columns)] if keys else [{}] * n
    change = draw(st.sampled_from(["none", "ordered", "reversed"]))
    if records and change != "none":
        i = draw(st.integers(min_value=0, max_value=n - 1))
        if change == "ordered":
            records[i] = collections.OrderedDict(records[i])
        else:
            records[i] = dict(reversed(records[i].items()))
    return records


class TestEncoder:
    """dumps_json against the stdlib encoder as the oracle."""

    @given(_DOCS)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_stdlib(self, doc):
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"

    def test_subclasses_encode_as_their_base(self):
        class Text(str):
            pass

        class Count(int):
            def __repr__(self):
                return "Count()"

        doc = {"s": Text("x\u00e9"), "n": [Count(3), Count(-4)], "i": Count(5),
               "f": np.float64(0.1), "t": collections.namedtuple("P", "a b")(1, "z"),
               "d": collections.OrderedDict(k=[Text("y")])}
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("value", [np.int64(1), {1, 2}, b"x"])
    def test_unencodable_value_raises(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        for doc in (value, [1, value], {"a": [value]}):
            with pytest.raises(TypeError, match="not JSON serializable"):
                dumps_json(doc)

    @pytest.mark.parametrize("key, text", [(1, "1"), (1.5, "1.5"), (True, "true"),
                                           (None, "null")])
    def test_non_str_key_coerced(self, key, text):
        """A non-str key is written as json coerces it; no graphlift
        document has one."""
        doc = {"a": {key: 0}}
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"
        assert json.loads(dumps_json(doc)) == {"a": {text: 0}}

    @pytest.mark.parametrize("level", [5, 6, 7])
    def test_lift_file_matches_stdlib(self, tmp_path, capsys, level):
        g = sphere_odd_graph(4)
        mod_path, out = tmp_path / "mod.json", tmp_path / "lift.json"
        write_json(str(mod_path),
                   module_to_dict(random_module(g, {v: 2 for v in g.vertices}, 1)))
        assert cli.run(["lift", "build", "--module", str(mod_path),
                        "--level", str(level), "--out", str(out)]) == 0
        capsys.readouterr()
        module = module_from_dict(read_json(str(mod_path)))
        oracle = json.dumps(reference_lift_dict(lift(module, level)), indent=2) + "\n"
        assert out.read_bytes() == oracle.encode("ascii")

    @given(_record_lists())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_record_lists_match_stdlib(self, records):
        for doc in (records, {"k": records}, [records, records]):
            assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"

    def test_flat_records_match_stdlib(self):
        records = [{"a%": "x\u00e9", "b": 1, "c": True, "d": None, "e": 0.5},
                   {"a%": "", "b": -2, "c": False, "d": None, "e": float("nan")}]
        for doc in (records, {"k": {"k": records}}):
            assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"

    def test_string_list_records_match_stdlib(self):
        """Edge records with lens provenance, at the top and nested two
        levels deep (each line indented by four more spaces)."""
        records = [{"id": "a", "provenance": ["x%s", "\u00e9", '"']},
                   {"id": "b", "provenance": []}]
        for doc in (records, {"k": {"k": records}}):
            assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("records", [
        [{"a": 1}, {"a": True}],
        [{"a": 1}, {"a": 1.0}],
        [{"a": "x"}, {"a": None}],
        [{"a": [1]}, {"a": [2]}],
        [{"a": ["x"]}, {"a": [1]}],
        [{"a": ["x"]}, {"a": [_Text("y")]}],
        [{"a": ["x"]}, {"a": ("y",)}],
        [{"a": ["x"]}, {"a": [["y"]]}],
        [{"a": {}}, {"a": {"b": 1}}],
        [{"a": np.float64(0.5)}, {"a": np.float64(1.5)}],
        [{"a": _Text("x")}, {"a": _Text("y")}],
        [{"a": _Count(1)}, {"a": _Count(2)}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{}, {}],
    ], ids=["int-bool", "int-float", "str-none", "nested-list", "str-int-lists",
            "str-subclass-list", "list-tuple", "nested-str-list", "nested-dict",
            "np-float64", "str-subclass", "int-subclass", "key-order", "key-names",
            "key-count", "empty-dicts"])
    def test_record_fallbacks(self, records):
        assert dumps_json(records) == json.dumps(records, indent=2) + "\n"

    def test_dict_subclass_records_fall_back(self):
        class Shadow(dict):
            """json reads items(), never __getitem__."""

            def __getitem__(self, key):
                return "shadow"

        for records in ([collections.OrderedDict(a=1), {"a": 2}],
                        [Shadow(a=1), Shadow(a=2)]):
            assert dumps_json(records) == json.dumps(records, indent=2) + "\n"

    def test_non_str_key_in_records_coerced(self):
        doc = {"a": [{1: "x"}, {1: "y"}]}
        assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"
        assert json.loads(dumps_json(doc)) == {"a": [{"1": "x"}, {"1": "y"}]}


@st.composite
def _named_graphs(draw):
    """Graphs whose vertex and edge ids are drawn from _STRINGS, edgeless
    ones included."""
    names = _STRINGS.filter(bool)
    vertices = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    edges = draw(st.lists(
        st.builds(Edge, names, st.sampled_from(vertices), st.sampled_from(vertices)),
        max_size=6, unique_by=lambda e: e.id))
    return Graph(tuple(vertices), tuple(edges))


class TestGraphText:
    """The graph writer against the stdlib text of graph_to_dict."""

    @given(_named_graphs(), st.booleans())
    @example(Graph(("v",)), False)
    @example(Graph(("v", "\ud800")), True)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_stdlib(self, graph, provenance):
        doc = graph_to_dict(graph)
        if provenance:
            for entry in doc["edges"]:
                entry["provenance"] = lens_edge_provenance(entry["id"])
        assert "".join(io._graph_text(graph, provenance)) == (
            json.dumps(doc, indent=2) + "\n")


class TestModuleText:
    """The module writer against the stdlib text of module_to_dict."""

    @given(small_multigraphs(), st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_stdlib(self, graph, data):
        dims = {v: data.draw(st.integers(0, 2), label=f"dim {v}") for v in graph.vertices}
        parts = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 1e300, 0.1, 5e-324])
        ops = {}
        for e in graph.edges:
            shape = (dims[e.source], dims[e.range])
            ops[e.id] = np.array(
                data.draw(st.lists(parts, min_size=2 * shape[0] * shape[1],
                                   max_size=2 * shape[0] * shape[1]), label=e.id),
                dtype=np.float64).view(np.complex128).reshape(shape)
        module = PythagoreanModule(graph, dims, ops)
        if data.draw(st.booleans(), label="non-finite") and graph.edges:
            # operators are arrays a caller can still write to
            op = module.ops[graph.edges[0].id]
            if op.size:
                op[0, 0] = complex(float("nan"), float("-inf"))
        want = json.dumps(module_to_dict(module), indent=2)
        assert io._module_text(module, "\n") == want
        assert io._module_text(module, "\n    ") == want.replace("\n", "\n    ")


class TestCliOutputMatchesStdlib:
    """Whole CLI documents on stdout against json.dumps(doc, indent=2)."""

    def test_lens_graph_with_provenance(self, capsys):
        assert cli.run(["graph", "make", "lens", "--n", "2", "--p", "3",
                        "--weights", "1,1", "--format", "json"]) == 0
        doc = graph_to_dict(lens_graph_coprime(LensParams(2, 3, (1, 1))))
        for entry in doc["edges"]:
            entry["provenance"] = list(lens_edge_provenance(entry["id"]))
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    def test_graph_check_records(self, tmp_path, capsys):
        path = tmp_path / "odd3.json"
        write_json(str(path), graph_to_dict(sphere_odd_graph(3)))
        assert cli.run(["graph", "check", str(path), "--family", "sphere-odd",
                        "--format", "json"]) == 0
        report = validate_quantum_graph(sphere_odd_graph(3), "sphere-odd")
        doc = {"family": report.family, "passed": report.passed,
               "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                          for c in report.checks]}
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("argv, build", [
        (["module", "random", "--dims", "2,0,1", "--seed", "7"],
         lambda g: random_module(g, {"1": 2, "2": 0, "3": 1}, 7)),
        (["module", "make", "--vertex", "2", "--z", "exp(1/3)"],
         lambda g: one_dim_module(g, "2", cmath.exp(2j * cmath.pi / 3))),
        (["spectrum", "module", "--vertex", "3", "--z", "0.6+0.8i"],
         lambda g: one_dim_module(g, "3", 0.6 + 0.8j)),
    ], ids=["random", "make", "spectrum"])
    def test_module_files(self, tmp_path, capsys, argv, build):
        graph = sphere_odd_graph(3)
        path, out = str(tmp_path / "odd3.json"), tmp_path / "m.json"
        write_json(path, graph_to_dict(graph))
        where = ["--graph", path] if argv[0] == "module" else [path]
        assert cli.run([*argv[:2], *where, *argv[2:], "--out", str(out)]) == 0
        want = json.dumps(module_to_dict(build(graph)), indent=2) + "\n"
        assert out.read_text() == want

    def test_lift_build_to_stdout(self, tmp_path, capsys):
        lens = lens_graph_coprime(LensParams(3, 4, (1, 3, 1)))
        module = random_module(lens, {v: 2 for v in lens.vertices}, 1)
        path = tmp_path / "lens3-wide.json"
        write_json(str(path), module_to_dict(module))
        assert cli.run(["lift", "build", "--module", str(path), "--level", "2"]) == 0
        doc = reference_lift_dict(lift(module, 2))
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
