"""End-to-end command-line flows through cli.run."""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphlift
from graphlift import (
    Edge,
    Graph,
    GraphError,
    PythagoreanModule,
    cli,
    isolated_module,
    lens_edge_provenance,
    lift,
    one_dim_module,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
    word_operator,
)
from graphlift import io, modules
from graphlift.io import (
    format_complex,
    graph_from_dict,
    module_from_dict,
    module_to_dict,
    read_json,
    write_json,
)
from graphlift.lifting import LiftError, TruncatedLift

from helpers import nested_parse, overflow_module, parse_outcome, unfed_fiber_module


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def odd_graph_file(tmp_path, capsys):
    path = tmp_path / "odd3.json"
    code, _, _ = run(capsys, "graph", "make", "sphere-odd", "--n", "3",
                     "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def even_graph_file(tmp_path, capsys):
    path = tmp_path / "even2.json"
    code, _, _ = run(capsys, "graph", "make", "sphere-even", "--n", "2",
                     "--out", str(path))
    assert code == 0
    return str(path)


@pytest.fixture()
def phase_module_file(tmp_path, capsys, odd_graph_file):
    path = tmp_path / "m1.json"
    code, _, _ = run(capsys, "module", "make", "--graph", odd_graph_file,
                     "--vertex", "1", "--z", "exp(1/8)", "--out", str(path))
    assert code == 0
    return str(path)


class TestGraphMake:
    def test_writes_decodable_graph(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, out, err = run(capsys, "graph", "make", "sphere-odd", "--n", "3",
                             "--out", str(path))
        assert code == 0 and err == ""
        assert out.strip() == "sphere-odd: 3 vertices, 6 edges"
        assert graph_from_dict(read_json(str(path))) == sphere_odd_graph(3)

    def test_prints_json_without_out(self, capsys):
        code, out, _ = run(capsys, "graph", "make", "sphere-odd", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == ["1", "2"]

    def test_lens_includes_provenance(self, tmp_path, capsys):
        path = tmp_path / "lens.json"
        code, _, _ = run(capsys, "graph", "make", "lens", "--n", "2",
                         "--p", "3", "--weights", "1,1", "--out", str(path))
        assert code == 0
        doc = read_json(str(path))
        assert len(doc["edges"]) == 6
        for entry in doc["edges"]:
            assert entry["provenance"] == list(lens_edge_provenance(entry["id"]))
        graph_from_dict(doc)  # extra key must not break decoding

    def test_lens_rejects_shared_factor(self, capsys):
        code, out, err = run(capsys, "graph", "make", "lens", "--n", "2",
                             "--p", "4", "--weights", "2,1")
        assert code == 2 and out == ""
        assert err.startswith("error: weights must be coprime to p")
        assert "gcd(m_1=2, p=4)" in err

    def test_lens_requires_p_and_weights(self, capsys):
        code, _, err = run(capsys, "graph", "make", "lens", "--n", "2")
        assert code == 2
        assert "lens graphs need --p and --weights" in err

    def test_lens_weights_must_be_integers(self, capsys):
        code, out, err = run(capsys, "graph", "make", "lens", "--n", "2", "--p", "3",
                             "--weights", "1,x")
        assert code == 2 and out == ""
        assert "--weights must be comma-separated integers" in err

    def test_dot_file_written(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "make", "sphere-odd", "--n", "2",
                         "--out", str(tmp_path / "g.json"), "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph {")

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        """The file is written as the graph's text is produced; a failure
        after the first edge removes what was written."""
        out_path = tmp_path / "g.json"
        text = io._graph_text
        seen = []

        def fail_after_one_edge(graph, provenance):
            pieces = text(graph, provenance)
            yield next(pieces)
            yield next(pieces)
            seen.append(out_path.exists())
            raise GraphError("no more edges")

        monkeypatch.setattr(io, "_graph_text", fail_after_one_edge)
        code, out, err = run(capsys, "graph", "make", "sphere-odd", "--n", "3",
                             "--out", str(out_path))
        assert (code, out, err) == (2, "", "error: no more edges\n")
        assert seen == [True]
        assert not out_path.exists()

    def test_deterministic_output(self, capsys):
        first = run(capsys, "graph", "make", "projective", "--n", "3")
        second = run(capsys, "graph", "make", "projective", "--n", "3")
        assert first == second


class TestGraphCheck:
    def test_family_match_passes(self, capsys, odd_graph_file):
        code, out, _ = run(capsys, "graph", "check", odd_graph_file,
                           "--family", "sphere-odd")
        assert code == 0
        assert "edge-pattern: pass" in out

    def test_family_mismatch_fails(self, capsys, even_graph_file):
        code, out, _ = run(capsys, "graph", "check", even_graph_file,
                           "--family", "sphere-odd")
        assert code == 1
        assert "FAIL" in out

    def test_json_format(self, capsys, odd_graph_file):
        code, out, _ = run(capsys, "graph", "check", odd_graph_file,
                           "--family", "sphere-odd", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} >= {"one-loop-per-vertex"}


class TestClassify:
    def test_loop_graph_document(self, capsys, odd_graph_file):
        code, out, _ = run(capsys, "classify", odd_graph_file)
        assert code == 0
        assert json.loads(out) == {
            "class": "loop-graph",
            "circles": ["1", "2", "3"],
            "points": [],
        }

    def test_sources_and_text_format(self, capsys, even_graph_file):
        code, out, _ = run(capsys, "classify", even_graph_file,
                           "--format", "text")
        assert code == 0
        assert "class: loop-graph-with-sources" in out
        assert "points: 3, 4" in out

    def test_unsupported_graph_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "vertices": ["1", "2"],
            "edges": [
                {"id": "11", "source": "1", "range": "1"},
                {"id": "21", "source": "1", "range": "2"},
            ],
        }))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert "loopless vertices receiving" in err

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")


class TestGraphCommandsBuildNoEdge:
    """`graph make`, `graph check` and `classify` read the graph's index
    arrays: none of them builds an `Edge`, on a sphere file or a lens file,
    passing or failing."""

    @pytest.mark.parametrize("family, flags, other", [
        ("sphere-even", ["--n", "3"], "sphere-odd"),
        ("lens", ["--n", "3", "--p", "4", "--weights", "1,3,1"], "sphere-even"),
    ])
    def test_no_edge_built(self, tmp_path, capsys, monkeypatch, family, flags, other):
        def refuse(*args, **kwargs):
            raise AssertionError("an Edge was built")

        monkeypatch.setattr(Edge, "__init__", refuse)
        path, cyclic = str(tmp_path / "g.json"), str(tmp_path / "cyclic.json")
        write_json(cyclic, {"vertices": ["1", "2"], "edges": [
            {"id": "a", "source": "1", "range": "2"}, {"id": "b", "source": "2", "range": "1"}]})
        for argv, want in (
                (["graph", "make", family, *flags, "--out", path,
                  "--dot", str(tmp_path / "g.dot")], 0),
                (["graph", "make", family, *flags, "--format", "json"], 0),
                (["graph", "check", path, "--family", family], 0),
                (["graph", "check", path, "--family", other], 1),
                (["graph", "check", cyclic, "--family", family, "--format", "json"], 1),
                (["classify", path], 0),
                (["classify", path, "--format", "text"], 0),
                (["classify", cyclic], 2)):
            code, _, err = run(capsys, *argv)
            assert code == want and "an Edge was built" not in err, argv


class TestModuleCommands:
    def test_make_and_check_pass(self, capsys, phase_module_file):
        code, out, _ = run(capsys, "module", "check", phase_module_file)
        assert code == 0
        assert "vertex 1: residual 0.000e+00" in out
        assert out.strip().endswith("pass")

    def test_check_json_format(self, capsys, phase_module_file):
        code, out, _ = run(capsys, "module", "check", phase_module_file,
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["max_residual"] == 0.0

    def test_perturbed_module_fails_check(self, tmp_path, capsys,
                                          phase_module_file):
        doc = read_json(phase_module_file)
        doc["ops"]["11"][0][0][0] += 0.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "module", "check", str(bad))
        assert code == 1
        assert "FAIL" in out

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, odd_graph_file):
        path = tmp_path / "rand.json"
        code, out, err = run(capsys, "module", "random", "--graph", odd_graph_file,
                             "--dims", "1,1,1", "--seed", "-1", "--out", str(path))
        assert code == 2 and out == ""
        assert err == "error: seed must be a nonnegative integer, got -1\n"
        assert not path.exists()

    def test_random_module_round_trip(self, tmp_path, capsys, odd_graph_file):
        path = tmp_path / "rand.json"
        code, _, _ = run(capsys, "module", "random", "--graph", odd_graph_file,
                         "--dims", "2,1,1", "--seed", "9", "--out", str(path))
        assert code == 0
        module = module_from_dict(read_json(str(path)))
        assert module.total_dim == 4
        assert run(capsys, "module", "check", str(path))[0] == 0

    def test_random_dims_length_checked(self, capsys, odd_graph_file):
        code, _, err = run(capsys, "module", "random", "--graph", odd_graph_file,
                           "--dims", "2,1")
        assert code == 2
        assert "--dims lists 2 values for 3 vertices" in err

    def test_random_dims_must_be_integers(self, capsys, even_graph_file):
        code, out, err = run(capsys, "module", "random", "--graph", even_graph_file,
                             "--dims", "1,x,0,0")
        assert code == 2 and out == ""
        assert "--dims must be comma-separated integers" in err

    def test_make_without_phase_is_the_isolated_module(self, tmp_path, capsys,
                                                       even_graph_file):
        path = tmp_path / "point.json"
        code, _, _ = run(capsys, "module", "make", "--graph", even_graph_file,
                         "--vertex", "3", "--out", str(path))
        assert code == 0
        expected = module_to_dict(isolated_module(sphere_even_graph(2), "3"))
        assert module_to_dict(module_from_dict(read_json(str(path)))) == expected

    def test_make_without_phase_refuses_a_receiving_vertex(self, capsys,
                                                           even_graph_file):
        code, out, err = run(capsys, "module", "make", "--graph", even_graph_file,
                             "--vertex", "1")
        assert code == 2 and out == ""
        assert "receives edges" in err

    def test_irreducible_verdicts(self, tmp_path, capsys, odd_graph_file,
                                  phase_module_file):
        code, out, _ = run(capsys, "module", "irreducible", phase_module_file)
        assert code == 0 and "irreducible: true" in out
        fat = tmp_path / "fat.json"
        run(capsys, "module", "random", "--graph", odd_graph_file,
            "--dims", "2,0,0", "--out", str(fat))
        code, out, _ = run(capsys, "module", "irreducible", str(fat))
        assert code == 1 and "irreducible: false" in out

    def test_intertwiners_dimension(self, capsys, phase_module_file):
        code, out, _ = run(capsys, "module", "intertwiners",
                           phase_module_file, phase_module_file)
        assert code == 0
        assert out.strip() == "dimension: 1"

    def test_equivalence_verdicts(self, tmp_path, capsys, odd_graph_file,
                                  phase_module_file):
        other = tmp_path / "m2.json"
        run(capsys, "module", "make", "--graph", odd_graph_file,
            "--vertex", "1", "--z", "exp(3/8)", "--out", str(other))
        code, out, _ = run(capsys, "module", "equivalent",
                           phase_module_file, phase_module_file)
        assert code == 0 and "verdict: equivalent" in out
        code, out, _ = run(capsys, "module", "equivalent",
                           phase_module_file, str(other))
        assert code == 1 and "verdict: inequivalent" in out


class TestSpectrumCommand:
    def test_point_module(self, tmp_path, capsys, even_graph_file):
        path = tmp_path / "pt.json"
        code, _, _ = run(capsys, "spectrum", "module", even_graph_file,
                         "--vertex", "3", "--out", str(path))
        assert code == 0
        module = module_from_dict(read_json(str(path)))
        assert module.dims["3"] == 1 and module.total_dim == 1

    def test_circle_needs_phase(self, capsys, even_graph_file):
        code, _, err = run(capsys, "spectrum", "module", even_graph_file,
                           "--vertex", "1")
        assert code == 2
        assert "not an isolated point" in err

    @pytest.mark.parametrize("phase", [(), ("--z", "1+0i")])
    def test_unknown_vertex_named(self, capsys, even_graph_file, phase):
        code, _, err = run(capsys, "spectrum", "module", even_graph_file,
                           "--vertex", "9", *phase)
        assert code == 2
        assert err == "error: unknown vertex '9'\n"


class TestLiftCommands:
    def test_build_writes_document(self, tmp_path, capsys, phase_module_file):
        out_path = tmp_path / "lift.json"
        code, out, _ = run(capsys, "lift", "build", "--module",
                           phase_module_file, "--level", "2",
                           "--out", str(out_path))
        assert code == 0
        assert out.strip() == "lift at level 2: dimension 6"
        doc = read_json(str(out_path))
        assert doc["level"] == 2
        assert set(doc["bases"]) == {"0", "1", "2", "3"}

    def test_failed_build_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                         phase_module_file):
        """The file is written as the document is produced; a failure after
        the bases and the level-0 edges removes what was written."""
        out_path = tmp_path / "lift.json"
        images = TruncatedLift.edge_images
        seen = []

        def fail_at_level_1(self, edge_id, k):
            if k == 1:
                seen.append(out_path.exists())
                raise LiftError("no images at level 1")
            return images(self, edge_id, k)

        monkeypatch.setattr(TruncatedLift, "edge_images", fail_at_level_1)
        code, out, err = run(capsys, "lift", "build", "--module", phase_module_file,
                             "--level", "2", "--out", str(out_path))
        assert (code, out, err) == (2, "", "error: no images at level 1\n")
        assert seen == [True]
        assert not out_path.exists()

    def test_failed_build_never_removes_a_device(self, capsys, monkeypatch,
                                                 phase_module_file):
        """A build to a device that fails part way unlinks nothing."""
        removed = []
        images = TruncatedLift.edge_images

        def fail_at_level_1(self, edge_id, k):
            if k == 1:
                raise LiftError("no images at level 1")
            return images(self, edge_id, k)

        monkeypatch.setattr(os, "remove", removed.append)
        monkeypatch.setattr(TruncatedLift, "edge_images", fail_at_level_1)
        code, out, err = run(capsys, "lift", "build", "--module", phase_module_file,
                             "--level", "2", "--out", os.devnull)
        assert (code, out, err) == (2, "", "error: no images at level 1\n")
        assert removed == []

    def test_check_passes_for_valid_module(self, capsys, phase_module_file):
        code, out, _ = run(capsys, "lift", "check", "--module",
                           phase_module_file, "--level", "2")
        assert code == 0
        assert out.strip().endswith("pass")

    def test_check_fails_for_perturbed_module(self, tmp_path, capsys,
                                              phase_module_file):
        doc = read_json(phase_module_file)
        doc["ops"]["11"][0][0][0] += 0.01
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "lift", "check", "--module", str(bad),
                           "--level", "2")
        assert code == 1
        assert "FAIL" in out
        assert "embedding level 0" in out

    def test_eigen_reports_conjugate_phase(self, capsys, phase_module_file):
        code, out, _ = run(capsys, "lift", "eigen", "--module",
                           phase_module_file, "--vertex", "1", "--level", "2")
        assert code == 0
        assert out.startswith("eigenvalue: 0.707107-0.707107i")

    def test_eigen_level_must_be_positive(self, capsys, phase_module_file):
        code, _, err = run(capsys, "lift", "eigen", "--module",
                           phase_module_file, "--vertex", "1", "--level", "0")
        assert code == 2
        assert err == "error: the loop eigenvalue needs a lift of level at least 1\n"

    @pytest.mark.parametrize("command", [["build"], ["check"], ["eigen", "--vertex", "1"]])
    def test_level_above_the_cap_exits_2(self, capsys, phase_module_file, command):
        start = time.perf_counter()
        code, _, err = run(capsys, "lift", *command, "--module", phase_module_file,
                           "--level", "99999999999")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert err == "error: level 99999999999 is above MAX_LEVEL=10000\n"

    def test_eigen_needs_nonzero_fiber(self, capsys, phase_module_file):
        code, _, err = run(capsys, "lift", "eigen", "--module",
                           phase_module_file, "--vertex", "2", "--level", "1")
        assert code == 2
        assert "zero-dimensional" in err

    def test_eigen_needs_a_loop(self, tmp_path, capsys, even_graph_file):
        path = tmp_path / "point.json"
        run(capsys, "module", "make", "--graph", even_graph_file,
            "--vertex", "3", "--out", str(path))
        code, _, err = run(capsys, "lift", "eigen", "--module", str(path),
                           "--vertex", "3", "--level", "1")
        assert code == 2
        assert "carries 0 loops" in err

    def test_eigen_class_reducing_to_zero(self, tmp_path, capsys):
        # a zero loop operator sends the class to zero in W_1
        graph = Graph(("1",), (Edge("11", "1", "1"),))
        path = tmp_path / "zero-loop.json"
        write_json(str(path), module_to_dict(
            PythagoreanModule(graph, {"1": 1}, {"11": np.zeros((1, 1))})))
        code, _, err = run(capsys, "lift", "eigen", "--module", str(path),
                           "--vertex", "1", "--level", "1")
        assert code == 2
        assert "reduces to zero" in err

    def test_check_fails_on_an_embedding_with_no_entry(self, tmp_path, capsys):
        path = tmp_path / "unfed.json"
        write_json(str(path), module_to_dict(unfed_fiber_module()))
        code, out, _ = run(capsys, "lift", "check", "--module", str(path),
                           "--level", "2")
        assert code == 1
        assert "embedding level 0: 1.414e+00" in out
        assert out.strip().endswith("FAIL")


def eigen_reference(module, v, level):
    """`lift eigen` stdout computed through the full `word_operator` matrix."""
    trunc = lift(module, level, validate=False)
    loop = next(e.id for e in module.graph.out_edges(v) if e.range == v)
    xi = np.zeros(module.dims[v])
    xi[0] = 1.0
    below = trunc.reduce_class(v, xi, level - 1)
    image = word_operator(trunc, [loop], level - 1).matrix @ below.coeffs
    top = trunc.reduce_class(v, xi, level).coeffs
    value = complex(np.vdot(top, image)) / complex(np.vdot(top, top))
    residual = float(np.linalg.norm(image - value * top))
    return f"eigenvalue: {format_complex(value)}\nresidual: {residual:.3e}\n"


class TestLiftEigenThroughMaps:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_word_operator(self, tmp_path, capsys, n):
        g = sphere_odd_graph(n)
        modules = [one_dim_module(g, v, np.exp(2j * np.pi * (i + 1) / 7))
                   for i, v in enumerate(g.vertices)]
        modules.append(random_module(g, {v: 2 for v in g.vertices}, seed=n))
        path = str(tmp_path / "m.json")
        for module in modules:
            write_json(path, module_to_dict(module))
            for v in g.vertices:
                if module.dims[v] == 0:
                    continue
                for level in range(1, 7):
                    code, out, err = run(capsys, "lift", "eigen", "--module", path,
                                         "--vertex", v, "--level", str(level))
                    assert code in (0, 1) and err == ""
                    assert out == eigen_reference(module, v, level)

    def test_forms_no_identity(self, capsys, monkeypatch, phase_module_file):
        def boom(*args, **kwargs):
            raise AssertionError("dense identity formed")

        monkeypatch.setattr(graphlift.lifting, "word_operator", boom)
        monkeypatch.setattr(cli, "word_operator", boom, raising=False)
        monkeypatch.setattr(np, "eye", boom)
        code, out, err = run(capsys, "lift", "eigen", "--module",
                             phase_module_file, "--vertex", "1", "--level", "4")
        assert code == 0 and err == ""
        assert out.startswith("eigenvalue: 0.707107-0.707107i")


class TestTolerance:
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("module", "check", "{}"),
        ("lift", "check", "--module", "{}", "--level", "2"),
        ("lift", "eigen", "--module", "{}", "--vertex", "1", "--level", "2"),
    ])
    def test_refused_with_usage_error(self, capsys, phase_module_file, argv, tol):
        code, out, err = run(capsys, *(a.format(phase_module_file) for a in argv),
                             "--tol", tol)
        assert code == 2 and out == ""
        assert "error: argument --tol: tolerance must be a positive finite number" in err

    def test_not_a_number(self, capsys, phase_module_file):
        code, _, err = run(capsys, "module", "check", phase_module_file,
                           "--tol", "tiny")
        assert code == 2
        assert "error: argument --tol: invalid float value: 'tiny'" in err


class TestParserReuse:
    def test_format_does_not_stick(self, capsys, odd_graph_file):
        argv = ("graph", "check", odd_graph_file, "--family", "sphere-odd")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["passed"] is True
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("one-loop-per-vertex: pass")

    def test_tolerance_does_not_stick(self, capsys, phase_module_file):
        argv = ("lift", "check", "--module", phase_module_file, "--level", "2")
        code, out, _ = run(capsys, *argv, "--tol", "1e-3")
        assert code == 0 and "against 1.0e-03: pass" in out
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "against 1.0e-09: pass" in out

    def test_usage_error_then_valid_command(self, capsys, odd_graph_file):
        assert run(capsys, "graph", "make", "sphere-odd")[0] == 2
        code, out, err = run(capsys, "classify", odd_graph_file)
        assert code == 0 and err == ""
        assert json.loads(out)["class"] == "loop-graph"

    def test_parsers_built_on_first_call_only(self, monkeypatch, capsys,
                                              odd_graph_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        recorded = []
        add_command = cli._add_command

        def counting_add_command(*args):
            recorded.append(1)
            return add_command(*args)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_add_command", counting_add_command)
        per_call, tables = [], []
        for _ in range(5):
            before = len(built), len(recorded)
            run(capsys, "graph", "check", odd_graph_file, "--family", "sphere-odd")
            per_call.append((len(built) - before[0], len(recorded) - before[1]))
            tables.append(cli.build_parser().commands)
        assert per_call[0][0] > 0 and per_call[0][1] == len(tables[0])
        assert per_call[1:] == [(0, 0)] * 4
        assert all(table is tables[0] for table in tables)

    def test_command_table_holds_every_leaf_parser(self):
        def leaves(parser, words=()):
            groups = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
            if not groups:
                yield words, parser
            for action in groups:
                for name, child in action.choices.items():
                    yield from leaves(child, words + (name,))

        parser = cli.build_parser()
        reachable = dict(leaves(parser))
        assert len(reachable) == 13
        assert reachable.keys() == parser.commands.keys()
        assert all(parser.commands[words] is leaf for words, leaf in reachable.items())


class TestBadNumbers:
    @pytest.fixture()
    def nan_module_file(self, tmp_path, capsys, odd_graph_file):
        path = tmp_path / "nan.json"
        run(capsys, "module", "random", "--graph", odd_graph_file,
            "--dims", "2,1,2", "--seed", "7", "--out", str(path))
        doc = read_json(str(path))
        doc["ops"]["33"][0][0][0] = float("nan")
        path.write_text(json.dumps(doc))  # a NaN literal, which json accepts
        return str(path)

    @pytest.mark.parametrize("argv", [
        ("module", "check", "{}"),
        ("module", "irreducible", "{}"),
        ("lift", "check", "--module", "{}", "--level", "2"),
        ("lift", "build", "--module", "{}", "--level", "2"),
    ])
    def test_nan_literal_refused(self, capsys, nan_module_file, argv):
        code, out, err = run(capsys, *(a.format(nan_module_file) for a in argv))
        assert code == 2 and out == ""
        assert err == "error: /: edge '33': operator has non-finite entries\n"

    def test_first_of_two_non_finite_edges_named(self, tmp_path, capsys,
                                                 nan_module_file):
        doc = read_json(nan_module_file)
        doc["ops"]["21"][0][0][1] = float("inf")  # edge "21" precedes "33"
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 2 and out == ""
        assert err == "error: /: edge '21': operator has non-finite entries\n"

    def test_nan_phase_refused(self, capsys, odd_graph_file):
        code, _, err = run(capsys, "module", "make", "--graph", odd_graph_file,
                           "--vertex", "1", "--z", "nan")
        assert code == 2
        assert "operator has non-finite entries" in err

    def test_overflow_to_nan_fails(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(module_to_dict(overflow_module())))
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 1 and err == ""
        assert "vertex 2: residual nan" in out
        assert out.strip().endswith("max residual nan against 1.0e-09: FAIL")
        code, out, err = run(capsys, "lift", "check", "--module", str(path),
                             "--level", "2")
        assert code == 1 and err == ""
        assert "embedding level 1: nan" in out and out.strip().endswith("FAIL")
        code, _, err = run(capsys, "lift", "build", "--module", str(path),
                           "--level", "2", "--out", str(tmp_path / "lift.json"))
        assert code == 2
        assert err == "error: module fails validation: max residual nan > 1.0e-09\n"
        assert not (tmp_path / "lift.json").exists()

    def test_entry_beyond_float_range_refused(self, tmp_path, capsys, phase_module_file):
        doc = read_json(phase_module_file)
        doc["ops"]["11"] = [[[10**400, 0]]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 2 and out == ""
        assert err == "error: /ops/11/0/0: number out of float range\n"

    def test_boolean_dim_refused(self, tmp_path, capsys, phase_module_file):
        doc = read_json(phase_module_file)
        doc["dims"]["1"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: /dims/1: expected a nonnegative integer")


# Hand-picked argv: help, abbreviations, `--`, `--flag=value`, unknown
# flags, extra positionals, missing subcommands and bad numbers.
PINNED_ARGV = (
    "",
    "-h",
    "--help",
    "--he",
    "frobnicate",
    "graph",
    "lift",
    "graph mak",
    "graph -h",
    "graph make -h",
    "graph make --he",
    "classify -h",
    "classify",
    "classify g.json",
    "classify g.json --fo text",
    "classify g.json --format=text",
    "classify g.json extra",
    "classify -- g.json",
    "classify -- -h",
    "graph make sphere-odd --n 2",
    "graph make sphere-odd --n=2",
    "graph make sphere-odd --n two",
    "graph make sphere-odd",
    "graph make torus --n 2",
    "graph make lens --n 2 --p 3 --weights 1,1 --fo json",
    "graph make sphere-odd --n 2 --bogus",
    "graph make sphere-odd --n 2 extra junk",
    "graph make -- sphere-odd --n 2",
    "graph check g.json --family lens",
    "graph check g.json --fam sphere-odd --format xml",
    "module random --graph g.json --dims 1,1 --seed x",
    "module check m.json --tol 0",
    "module equivalent a.json",
    "module intertwiners a.json b.json c.json",
    "lift check --module m.json --level 2 --t 1e-3",
    "lift eigen --module m.json --vertex 1 --level -1",
    "lift build --module m.json --level 3 -x",
    "spectrum module g.json --vertex 2 --z exp(1/8) --out",
)

_VALUES = ("1", "2", "0", "-1", "two", "1e-3", "nan", "1,1", "exp(1/8)", "g.json", "")
_STRAYS = ("--", "-h", "--help", "--he", "--bogus", "-x", "extra", "graph", "make")


@st.composite
def _argv(draw) -> list[str]:
    """Argv that starts with a command's words, or with words that name no
    command, followed by its flags (whole, abbreviated, or with `=value`),
    values, `--`, help, unknown flags and stray words."""
    commands = cli.build_parser().commands
    heads = sorted(commands) + [(), ("graph",), ("lift",), ("graph", "mak"),
                                ("frobnicate",), ("module", "--")]
    words = draw(st.sampled_from(heads))
    leaf = commands.get(words)
    flags, values = ["--format", "--n", "--tol"], list(_VALUES)
    if leaf:
        flags = sorted(s for a in leaf._actions for s in a.option_strings)
        values += [c for a in leaf._actions for c in a.choices or ()]
    argv = list(words)
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("flag", "value", "value", "stray")))
        if kind == "flag":
            flag = draw(st.sampled_from(flags))
            if flag.startswith("--"):
                flag = flag[:draw(st.integers(3, len(flag)))]
            if draw(st.booleans()):
                flag += "=" + draw(st.sampled_from(values))
            argv.append(flag)
        else:
            argv.append(draw(st.sampled_from(values if kind == "value" else _STRAYS)))
    return argv


class TestParseOnce:
    """`run` parses a command with that command's parser alone."""

    @pytest.mark.parametrize("argv", PINNED_ARGV)
    def test_pinned_argv_parse_as_nested(self, argv):
        argv = argv.split()
        assert parse_outcome(cli._parse, argv) == parse_outcome(nested_parse, argv)

    @given(_argv())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_any_argv_parses_as_nested(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(nested_parse, argv)

    def test_extra_words_get_the_top_usage(self):
        code, out, err = parse_outcome(cli._parse, ["classify", "g.json", "extra"])
        assert code == ("exit", 2) and out == ""
        assert err.startswith("usage: graphlift [-h]")
        assert err.endswith("graphlift: error: unrecognized arguments: extra\n")

    def test_each_command_parses_once(self, monkeypatch, capsys, tmp_path):
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        tour = (
            ("graph make sphere-odd --n 3 --out sphere.json", 0),
            ("graph check sphere.json --family sphere-odd", 0),
            ("classify sphere.json", 0),
            ("spectrum module sphere.json --vertex 2 --z exp(1/8) --out rep.json", 0),
            ("module make --graph sphere.json --vertex 1 --z exp(1/8) --out mod.json", 0),
            ("module random --graph sphere.json --dims 2,1,1 --seed 7 --out rand.json", 0),
            ("module check rand.json", 0),
            ("module irreducible mod.json", 0),
            ("module intertwiners mod.json mod.json", 0),
            ("module equivalent mod.json rand.json", 1),
            ("lift build --module mod.json --level 3 --out lift.json", 0),
            ("lift check --module mod.json --level 3", 0),
            ("lift eigen --module mod.json --vertex 1 --level 2", 0),
        )
        covered = set()
        for command, want in tour:
            argv = command.split()
            words = tuple(argv[:1] if argv[0] == "classify" else argv[:2])
            covered.add(words)
            del calls[:]
            assert run(capsys, *argv)[0] == want
            assert calls == ["graphlift " + " ".join(words)]
        assert covered == set(cli.build_parser().commands)


class TestFiberBeyondMemory:
    """A fiber the decoder accepts but no verdict's arrays could hold."""

    @pytest.fixture()
    def huge_module_file(self, tmp_path):
        doc = {"graph": {"vertices": ["1", "2"],
                         "edges": [{"id": "11", "source": "1", "range": "1"}]},
               "dims": {"1": 0, "2": 10**12}, "ops": {"11": []}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_relations_checked(self, capsys, huge_module_file):
        code, out, _ = run(capsys, "module", "check", huge_module_file)
        assert code == 0 and out.endswith("pass\n")

    def test_irreducible_refused(self, capsys, huge_module_file):
        code, out, err = run(capsys, "module", "irreducible", huge_module_file)
        assert code == 2 and out == ""
        assert err == (f"error: an algebra block of fiber {10**12} needs {10**48} "
                       "complex entries, more than the 268435456 a module verdict "
                       "may hold\n")

    @pytest.mark.parametrize("command", ["intertwiners", "equivalent"])
    def test_graded_system_refused(self, capsys, huge_module_file, command):
        code, out, err = run(capsys, "module", command, huge_module_file,
                             huge_module_file)
        assert code == 2 and out == ""
        assert err == (f"error: a graded system of 0 equations in {10**24} unknowns "
                       f"needs {10**48} complex entries, more than the 268435456 "
                       "a module verdict may hold\n")

    @pytest.mark.parametrize("command", ["check", "build"])
    def test_lift_refused(self, tmp_path, huge_module_file, command):
        # in a child under a 3 GB address-space limit, so that a regression
        # dies of MemoryError instead of taking the machine's memory
        out = tmp_path / "F.json"
        src = os.path.dirname(os.path.dirname(os.path.abspath(graphlift.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "graphlift", "lift", command, "--module",
             huge_module_file, "--level", "1", *(["--out", str(out)] * (command == "build"))],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (3 << 30, 3 << 30)))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (f"error: level 0 has dimension {10**12}, more than the "
                               "2147483647 a lift level may hold\n")
        assert not out.exists()

    @pytest.mark.parametrize("limit, err", [
        (9, "the embedding blocks need 10 entries"),  # A_11, then the 3 x 3 identity
        (27, "the embedding Gram terms need 28 entries"),  # 1, then 3 x 3 x 3
    ])
    def test_lift_tables_refused(self, tmp_path, capsys, monkeypatch, limit, err):
        graph = Graph(("1", "2"), (Edge("11", "1", "1"),))
        module = PythagoreanModule(graph, {"1": 1, "2": 3}, {"11": np.ones((1, 1))})
        path = tmp_path / "root3.json"
        write_json(str(path), module_to_dict(module))
        monkeypatch.setattr(modules, "_MAX_ENTRIES", limit)
        code, out, got = run(capsys, "lift", "check", "--module", str(path), "--level", "1")
        assert code == 2 and out == ""
        assert got == f"error: {err}, more than the {limit} a lift table may hold\n"
        monkeypatch.setattr(modules, "_MAX_ENTRIES", 28)  # the limit is inclusive
        code, out, _ = run(capsys, "lift", "check", "--module", str(path), "--level", "1")
        assert code == 0 and out.endswith("pass\n")


class TestLiftBudget:
    """Levels that are each small but add up to more than a lift may hold."""

    def test_refused_under_the_memory_limit(self, tmp_path):
        # one vertex with two loops doubles its paths every level; at level
        # 40 a lift with no budget dies of MemoryError at 2^24 paths a level
        # under this 3 GB address-space limit
        g = Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1")))
        path = tmp_path / "two-loops.json"
        write_json(str(path), module_to_dict(PythagoreanModule(
            g, {"1": 1}, {"a": np.array([[0.6]]), "b": np.array([[0.8]])})))
        src = os.path.dirname(os.path.dirname(os.path.abspath(graphlift.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "graphlift", "lift", "check", "--module", str(path),
             "--level", "40"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120, preexec_fn=lambda: resource.setrlimit(
                resource.RLIMIT_AS, (3 << 30, 3 << 30)))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            "error: level 21 would bring the lift to 4194303 paths, 570425208 bytes at "
            "136 bytes a path, more than the 536870912 bytes a lift may hold\n")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "graph", "make", "sphere-odd")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2


class TestUndecodableFiles:
    @pytest.mark.parametrize("argv", [
        ("module", "check", "{}"),
        ("graph", "check", "{}", "--family", "sphere-odd"),
        ("lift", "check", "--module", "{}", "--level", "1"),
    ])
    def test_non_utf8_file_is_a_data_error(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: /: {path} is not UTF-8 text")

    @pytest.mark.parametrize("text", [
        '{"vertices": ["1"], "edges": [], "note": ' + "9" * 5000 + "}",
        "[" * 100_000,
    ], ids=["digits-over-limit", "nesting-over-limit"])
    def test_text_json_refuses_otherwise_is_a_data_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: /: invalid JSON in {path}: ")


class TestModuleEntryPoint:
    """`python -m graphlift` with only the source tree on the path."""

    @staticmethod
    def _run(tmp_path, *argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(graphlift.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "graphlift", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_graph_make_runs(self, tmp_path):
        done = self._run(tmp_path, "graph", "make", "sphere-odd", "--n", "2")
        assert done.returncode == 0, done.stderr
        assert graph_from_dict(json.loads(done.stdout)) == sphere_odd_graph(2)

    def test_usage_error_exits_2(self, tmp_path):
        done = self._run(tmp_path, "graph", "make", "sphere-odd")
        assert done.returncode == 2 and done.stdout == ""
        assert "the following arguments are required: --n" in done.stderr
