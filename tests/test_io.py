"""JSON codecs, complex scalar syntax, and dot output."""

import cmath
import collections
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlift import (
    CodecError,
    Edge,
    Graph,
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

from helpers import expand_edge_images, partial_maps_dict, random_feasible_dims


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


class TestSpectrumCodec:
    def test_round_trip(self):
        desc = classify(sphere_even_graph(2))
        assert spectrum_from_dict(spectrum_to_dict(desc)) == desc

    def test_shape(self):
        doc = spectrum_to_dict(classify(sphere_odd_graph(2)))
        assert doc == {"class": "loop-graph", "circles": ["1", "2"], "points": []}

    def test_by_analogy_round_trip(self):
        g = sphere_even_graph(2)
        desc = classify(Graph(g.vertices, g.edges[:-1]))  # less one source edge
        doc = spectrum_to_dict(desc)
        assert doc["by_analogy"] is True
        assert spectrum_from_dict(doc) == desc

    def test_by_analogy_must_be_boolean(self):
        with pytest.raises(CodecError, match="/by_analogy: expected boolean"):
            spectrum_from_dict({"class": "x", "circles": [], "points": [], "by_analogy": 1})

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
    st.one_of(_LEAVES, _INT_LISTS, st.lists(st.integers(), max_size=6)),
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

    @pytest.mark.parametrize("key", [1, 1.5, True, None])
    def test_non_str_key_raises(self, key):
        """json would coerce such a key to a string; no graphlift document
        has one, so the encoder refuses it."""
        with pytest.raises(TypeError, match="keys must be str"):
            dumps_json({"a": {key: 0}})

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
        oracle = json.dumps(lift_to_dict(lift(module, level)), indent=2) + "\n"
        assert out.read_bytes() == oracle.encode("ascii")

    @given(_record_lists())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_record_lists_match_stdlib(self, records):
        for doc in (records, {"k": records}, [records, records]):
            assert dumps_json(doc) == json.dumps(doc, indent=2) + "\n"

    def test_flat_records_are_written_by_column(self):
        records = [{"a%": "x\u00e9", "b": 1, "c": True, "d": None, "e": 0.5},
                   {"a%": "", "b": -2, "c": False, "d": None, "e": float("nan")}]
        text = io._records(records, "\n")
        assert text == json.dumps(records, indent=2)

    @pytest.mark.parametrize("records", [
        [{"a": 1}, {"a": True}],
        [{"a": 1}, {"a": 1.0}],
        [{"a": "x"}, {"a": None}],
        [{"a": [1]}, {"a": [2]}],
        [{"a": {}}, {"a": {"b": 1}}],
        [{"a": np.float64(0.5)}, {"a": np.float64(1.5)}],
        [{"a": _Text("x")}, {"a": _Text("y")}],
        [{"a": _Count(1)}, {"a": _Count(2)}],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{}, {}],
    ], ids=["int-bool", "int-float", "str-none", "nested-list", "nested-dict",
            "np-float64", "str-subclass", "int-subclass", "key-order", "key-names",
            "key-count", "empty-dicts"])
    def test_record_fallbacks(self, records):
        assert io._records(records, "\n") is None
        assert dumps_json(records) == json.dumps(records, indent=2) + "\n"

    def test_dict_subclass_records_fall_back(self):
        class Shadow(dict):
            """json reads items(), never __getitem__."""

            def __getitem__(self, key):
                return "shadow"

        for records in ([collections.OrderedDict(a=1), {"a": 2}],
                        [Shadow(a=1), Shadow(a=2)]):
            assert dumps_json(records) == json.dumps(records, indent=2) + "\n"

    def test_non_str_key_in_records_raises(self):
        assert io._records([{1: "x"}, {1: "y"}], "\n") is None
        with pytest.raises(TypeError, match="keys must be str"):
            dumps_json({"a": [{1: "x"}, {1: "y"}]})


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

    def test_lift_build_to_stdout(self, tmp_path, capsys):
        lens = lens_graph_coprime(LensParams(3, 4, (1, 3, 1)))
        module = random_module(lens, {v: 2 for v in lens.vertices}, 1)
        path = tmp_path / "lens3-wide.json"
        write_json(str(path), module_to_dict(module))
        assert cli.run(["lift", "build", "--module", str(path), "--level", "2"]) == 0
        doc = lift_to_dict(lift(module, 2))
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
