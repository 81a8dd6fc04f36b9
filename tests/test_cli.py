"""End-to-end command-line flows through cli.run."""

import json

import pytest

from graphlift import cli, lens_edge_provenance, sphere_odd_graph
from graphlift.io import graph_from_dict, module_from_dict, module_to_dict, read_json

from helpers import overflow_module


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

    def test_dot_file_written(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, _, _ = run(capsys, "graph", "make", "sphere-odd", "--n", "2",
                         "--out", str(tmp_path / "g.json"), "--dot", str(dot))
        assert code == 0
        assert dot.read_text().startswith("digraph {")

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
        assert "--level must be at least 1" in err

    def test_eigen_needs_nonzero_fiber(self, capsys, phase_module_file):
        code, _, err = run(capsys, "lift", "eigen", "--module",
                           phase_module_file, "--vertex", "2", "--level", "1")
        assert code == 2
        assert "zero-dimensional" in err


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

    def test_boolean_dim_refused(self, tmp_path, capsys, phase_module_file):
        doc = read_json(phase_module_file)
        doc["dims"]["1"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "module", "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: /dims/1: expected a nonnegative integer")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "graph", "make", "sphere-odd")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2
