"""Family constructors and their structural validators."""

import time

import pytest

from graphlift import (
    Edge,
    Graph,
    GraphError,
    LensParams,
    lens_edge_provenance,
    lens_graph_coprime,
    loop_structure,
    power_graph,
    projective_graph,
    require_coprime,
    sphere_even_graph,
    sphere_odd_graph,
    validate_quantum_graph,
)
from graphlift import cli
from graphlift.families import MAX_EDGES

LENS_CASES = (
    LensParams(2, 3, (1, 1)),
    LensParams(2, 5, (1, 2)),
    LensParams(3, 4, (1, 3, 1)),
)


class TestSphereOdd:
    def test_smallest_is_one_loop(self):
        g = sphere_odd_graph(1)
        assert len(g.vertices) == 1 and len(g.edges) == 1
        assert g.edges[0] == Edge("11", "1", "1")

    def test_three_vertices_edge_table(self):
        g = sphere_odd_graph(3)
        assert {e.id for e in g.edges} == {"11", "21", "22", "31", "32", "33"}
        for e in g.edges:
            assert e.source == e.id[1] and e.range == e.id[0]

    def test_edge_count_triangular(self):
        for n in range(1, 6):
            assert len(sphere_odd_graph(n).edges) == n * (n + 1) // 2

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphError):
            sphere_odd_graph(0)


class TestSphereEven:
    def test_counts(self):
        g = sphere_even_graph(3)
        assert len(g.vertices) == 5 and len(g.edges) == 12

    def test_smallest(self):
        g = sphere_even_graph(1)
        assert len(g.vertices) == 3 and len(g.edges) == 3
        assert {(e.source, e.range) for e in g.edges} == {
            ("1", "1"),
            ("2", "1"),
            ("3", "1"),
        }

    def test_extra_vertices_receive_nothing(self):
        for n in range(1, 7):
            g = sphere_even_graph(n)
            for extra in (str(n + 1), str(n + 2)):
                assert not g.in_edges(extra)
                assert len(g.out_edges(extra)) == n

    def test_source_edge_ids_follow_pair_convention(self):
        g = sphere_even_graph(3)
        assert {e.id for e in g.in_edges("1")} == {"11", "14", "15"}

    def test_loop_placement(self):
        report = loop_structure(sphere_even_graph(4))
        assert report.loops_per_vertex == {
            "1": 1, "2": 1, "3": 1, "4": 1, "5": 0, "6": 0,
        }


class TestProjective:
    def test_is_square_of_odd_sphere(self):
        for n in (1, 2, 3):
            assert projective_graph(n) == power_graph(sphere_odd_graph(n), 2)

    def test_smallest(self):
        g = projective_graph(1)
        assert len(g.vertices) == 1 and len(g.edges) == 1

    def test_three_vertex_count(self):
        assert len(projective_graph(3).edges) == 10

    def test_one_loop_per_vertex(self):
        for n in range(1, 7):
            report = loop_structure(projective_graph(n))
            assert all(c == 1 for c in report.loops_per_vertex.values())
            assert report.loops_removed_acyclic


EDGE_COUNTS = (
    (sphere_odd_graph, lambda n: n * (n + 1) // 2, 1414),
    (sphere_even_graph, lambda n: n * (n + 1) // 2 + 2 * n, 1412),
    (projective_graph, lambda n: (n + 2) * (n + 1) * n // 6, 181),
)


class TestEdgeLimit:
    @pytest.mark.parametrize("make, count, _", EDGE_COUNTS)
    def test_closed_form_counts(self, make, count, _):
        for n in range(1, 8):
            assert len(make(n).edges) == count(n)

    @pytest.mark.parametrize("make, count, above", EDGE_COUNTS)
    def test_first_n_above_the_limit_is_refused(self, make, count, above):
        assert count(above - 1) <= MAX_EDGES < count(above)
        start = time.perf_counter()
        with pytest.raises(GraphError, match=f"{count(above)} edges"):
            make(above)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("family", ["sphere-odd", "sphere-even", "projective"])
    def test_cli_refuses_huge_n(self, family, capsys):
        start = time.perf_counter()
        assert cli.run(["graph", "make", family, "--n", "100000000"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "MAX_EDGES" in capsys.readouterr().err


class TestLensParams:
    def test_weight_count_must_match(self):
        with pytest.raises(GraphError, match="weights"):
            LensParams(2, 3, (1,))

    def test_positive_weights(self):
        with pytest.raises(GraphError):
            LensParams(2, 3, (1, 0))

    def test_p_bound(self):
        with pytest.raises(GraphError):
            LensParams(2, 1, (1, 1))

    def test_coprime_diagnostic_names_offender(self):
        with pytest.raises(GraphError, match=r"gcd\(m_1=2, p=4\)"):
            require_coprime(LensParams(2, 4, (2, 1)))

    def test_coprime_accepts_valid(self):
        require_coprime(LensParams(3, 4, (1, 3, 1)))


class TestLensGraph:
    def test_two_vertex_order_three_shape(self):
        g = lens_graph_coprime(LensParams(2, 3, (1, 1)))
        assert g.vertices == ("1", "2")
        pairs = [(e.source, e.range) for e in g.edges]
        assert pairs.count(("1", "1")) == 1
        assert pairs.count(("2", "2")) == 1
        assert pairs.count(("1", "2")) == 4
        assert pairs.count(("2", "1")) == 0

    def test_loops_are_single_skew_edges(self):
        g = lens_graph_coprime(LensParams(2, 3, (1, 1)))
        loops = [e for e in g.edges if e.source == e.range]
        assert {e.id for e in loops} == {"11@1", "22@1"}

    def test_provenance_recovers_traversal_order(self):
        g = lens_graph_coprime(LensParams(2, 5, (1, 2)))
        skew_edges = set()
        for e in g.edges:
            ids = lens_edge_provenance(e.id)
            assert e.id == ".".join(reversed(ids))
            skew_edges.update(ids)
        assert all("@" in s for s in skew_edges)

    def test_admissibility_level_pattern(self):
        # first head at level m_i, inner heads away from 0, final head at 0
        for params in LENS_CASES:
            g = lens_graph_coprime(params)
            for e in g.edges:
                ids = lens_edge_provenance(e.id)
                heads = [int(s.rsplit("@", 1)[1]) for s in ids]
                weight = params.weights[int(e.source) - 1]
                assert heads[0] == weight % params.p
                if len(ids) > 1:
                    assert heads[-1] == 0
                    assert all(h != 0 for h in heads[:-1])

    def test_path_length_bounded(self):
        for params in LENS_CASES:
            bound = params.n * params.p
            g = lens_graph_coprime(params)
            assert all(len(lens_edge_provenance(e.id)) <= bound for e in g.edges)

    def test_gcd_violation_raises(self):
        with pytest.raises(GraphError, match="gcd"):
            lens_graph_coprime(LensParams(2, 4, (2, 1)))

    def test_deterministic(self):
        for params in LENS_CASES:
            assert lens_graph_coprime(params) == lens_graph_coprime(params)


class TestValidator:
    def test_odd_spheres_pass(self):
        for n in (1, 2, 4):
            assert validate_quantum_graph(sphere_odd_graph(n), "sphere-odd").passed

    def test_projective_pass(self):
        for n in (1, 3, 5):
            assert validate_quantum_graph(projective_graph(n), "projective").passed

    def test_lens_cases_pass(self):
        for params in LENS_CASES:
            report = validate_quantum_graph(lens_graph_coprime(params), "lens")
            assert report.passed, [c for c in report.checks if not c.passed]

    def test_even_spheres_pass(self):
        for n in (1, 3, 5):
            assert validate_quantum_graph(sphere_even_graph(n), "sphere-even").passed

    def test_double_loop_fails(self):
        g = Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1")))
        report = validate_quantum_graph(g, "sphere-odd")
        by_name = {c.name: c for c in report.checks}
        assert not by_name["one-loop-per-vertex"].passed

    def test_receiving_loopless_vertex_fails_even_family(self):
        g = Graph(
            ("1", "2"),
            (Edge("11", "1", "1"), Edge("x", "1", "2")),
        )
        report = validate_quantum_graph(g, "sphere-even")
        by_name = {c.name: c for c in report.checks}
        assert not by_name["loopless-are-sources"].passed

    def test_unknown_family_rejected(self):
        with pytest.raises(GraphError, match="unknown family"):
            validate_quantum_graph(sphere_odd_graph(1), "torus")
