"""JSON codecs, complex scalar syntax, and dot output."""

import cmath
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlift import (
    CodecError,
    LensParams,
    classify,
    lens_graph_coprime,
    lift,
    one_dim_module,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
)
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

from helpers import random_feasible_dims


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
        assert doc["format"] == "partial-maps"
        assert doc["level"] == 1
        assert set(doc["bases"]) == {"0", "1", "2"}
        assert [e["path"] for e in doc["bases"]["1"]] == ["11", "21"]
        assert set(doc["edges"]) == set(doc["projections"]) == {"0", "1"}
        assert doc["edges"]["0"] == {"11": [0], "21": [1], "22": [-1]}
        assert doc["projections"]["1"] == {"1": [0], "2": [1]}
        entry = doc["bases"]["2"][0]
        assert entry == {"path": "11.11", "source": "1", "range": "1",
                         "length": 2, "fiber": 0}

    def test_unknown_format_located(self):
        g = sphere_odd_graph(1)
        doc = lift_to_dict(lift(one_dim_module(g, "1", 1j), 1))
        doc["format"] = "dense"
        with pytest.raises(CodecError, match="/format: unknown lift format 'dense'"):
            lift_from_dict(doc)

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
                assert np.array_equal(back.edge_targets(e.id, k),
                                      t.edge_targets(e.id, k))

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
            for e in g.edges:
                mat = np.zeros((rows, cols))
                for col, row in enumerate(doc["edges"][str(k)][e.id]):
                    if row >= 0:
                        mat[row, col] = 1.0
                assert np.array_equal(mat, t.edge_matrix(e.id, k))
            for v in g.vertices:
                diag = np.zeros(cols)
                diag[doc["projections"][str(k)][v]] = 1.0
                assert np.array_equal(np.diag(diag), t.projection_matrix(v, k))


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

    def test_dumps_is_deterministic(self):
        doc = module_to_dict(random_module(sphere_odd_graph(2),
                                           {"1": 1, "2": 1}, 5))
        assert dumps_json(doc) == dumps_json(json.loads(dumps_json(doc)))
