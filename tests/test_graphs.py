"""Graph, path, and construction tests."""

import numpy as np
import pytest

from graphlift import (
    Edge,
    Graph,
    GraphError,
    Path,
    compose_paths,
    enumerate_paths,
    is_isomorphic,
    loop_structure,
    maximal_paths,
    opposite,
    power_graph,
    sphere_even_graph,
    sphere_odd_graph,
)

from helpers import relabel_graph, skew_product


def two_vertex_graph() -> Graph:
    return Graph(
        ("1", "2"),
        (Edge("11", "1", "1"), Edge("21", "1", "2"), Edge("22", "2", "2")),
    )


class TestGraphValidation:
    def test_smallest_graph(self):
        g = Graph(("1",), (Edge("11", "1", "1"),))
        assert g.out_edges("1") == g.in_edges("1")

    def test_empty_vertex_list_rejected(self):
        with pytest.raises(GraphError, match="at least one vertex"):
            Graph((), ())

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            Graph(("1", "1"))

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            Graph(("1",), (Edge("a", "1", "1"), Edge("a", "1", "1")))

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown source"):
            Graph(("1", "2"), (Edge("x", "9", "1"),))

    def test_edge_lookup_sorted_by_id(self):
        g = two_vertex_graph()
        assert [e.id for e in g.in_edges("2")] == ["21", "22"]
        assert [e.id for e in g.out_edges("1")] == ["11", "21"]


class TestPaths:
    def test_vertex_path(self):
        g = two_vertex_graph()
        p = Path(g, (), base="2")
        assert p.length == 0 and p.source == "2" and p.range == "2"
        assert p.display == "2"

    def test_vertex_path_needs_base(self):
        with pytest.raises(GraphError, match="base vertex"):
            Path(two_vertex_graph(), ())

    def test_display_reverses_traversal_order(self):
        g = two_vertex_graph()
        p = Path(g, ("11", "21", "22"))
        assert p.display == "22.21.11"
        assert p.source == "1" and p.range == "2"

    def test_non_composable_edges_rejected(self):
        g = two_vertex_graph()
        with pytest.raises(GraphError, match="do not compose"):
            Path(g, ("21", "11"))

    def test_base_must_match_source(self):
        g = two_vertex_graph()
        with pytest.raises(GraphError, match="not the path source"):
            Path(g, ("11",), base="2")

    def test_compose_source_range_law(self):
        g = sphere_odd_graph(3)
        left = Path(g, ("22",))
        right = Path(g, ("21",))
        both = compose_paths(left, right)
        assert both.edges == ("21", "22")
        assert both.source == "1" and both.range == "2"
        assert both.length == left.length + right.length

    def test_compose_rejects_mismatch(self):
        g = sphere_odd_graph(3)
        with pytest.raises(GraphError, match="do not compose"):
            compose_paths(Path(g, ("11",)), Path(g, ("21",)))

    def test_compose_vertex_paths_is_identity(self):
        g = two_vertex_graph()
        v = Path(g, (), base="1")
        assert compose_paths(v, v) == v

    def test_compose_laws_on_random_paths(self):
        g = sphere_odd_graph(3)
        rng = np.random.default_rng(0)
        pool = enumerate_paths(g, 2)
        for _ in range(25):
            mu = pool[rng.integers(len(pool))]
            extensions = [p for p in pool if p.range == mu.source]
            if not extensions:
                continue
            nu = extensions[rng.integers(len(extensions))]
            lam = compose_paths(mu, nu)
            assert lam.length == mu.length + nu.length
            assert lam.source == nu.source and lam.range == mu.range


class TestEnumeration:
    def test_length_zero_by_source(self):
        g = two_vertex_graph()
        assert enumerate_paths(g, 0, source="1") == [Path(g, (), base="1")]

    def test_two_vertex_length_two_from_one(self):
        g = two_vertex_graph()
        got = [p.display for p in enumerate_paths(g, 2, source="1")]
        assert got == ["11.11", "21.11", "22.21"]

    def test_three_vertex_length_one_into_one(self):
        g = sphere_odd_graph(3)
        assert [p.display for p in enumerate_paths(g, 1, range="1")] == ["11"]

    def test_count_matches_adjacency_power(self):
        g = sphere_odd_graph(3)
        adj = np.zeros((3, 3))
        for e in g.edges:
            adj[g.vertex_index[e.source], g.vertex_index[e.range]] += 1
        for k in range(4):
            assert len(enumerate_paths(g, k)) == int(np.linalg.matrix_power(adj, k).sum())


class TestMaximalPaths:
    def test_level_zero_is_vertex_path(self):
        g = sphere_odd_graph(2)
        for v in g.vertices:
            assert maximal_paths(g, v, 0) == [Path(g, (), base=v)]

    def test_source_only_vertex_stays_short(self):
        g = sphere_even_graph(3)
        assert maximal_paths(g, "4", 2) == [Path(g, (), base="4")]

    def test_even_sphere_receiving_vertex(self):
        g = sphere_even_graph(3)
        got = {p.display for p in maximal_paths(g, "1", 1)}
        assert got == {"11", "14", "15"}

    def test_every_full_length_path_appears_once(self):
        g = sphere_odd_graph(3)
        for v in g.vertices:
            for m in range(4):
                got = maximal_paths(g, v, m)
                assert len(set(got)) == len(got)
                full = [p for p in enumerate_paths(g, m, range=v)]
                assert [p for p in got if p.length == m] == full

    def test_shorter_members_are_unextendable(self):
        g = sphere_even_graph(2)
        for v in g.vertices:
            for p in maximal_paths(g, v, 3):
                assert p.length == 3 or not g.in_edges(p.source)


class TestLoopStructure:
    def test_one_loop_per_vertex_acyclic(self):
        report = loop_structure(sphere_odd_graph(3))
        assert report.loops_per_vertex == {"1": 1, "2": 1, "3": 1}
        assert report.loops_removed_acyclic and report.cycle is None

    def test_two_cycle_detected(self):
        g = Graph(("1", "2"), (Edge("a", "1", "2"), Edge("b", "2", "1")))
        report = loop_structure(g)
        assert not report.loops_removed_acyclic
        assert set(report.cycle) <= {"1", "2"} and len(report.cycle) >= 2

    def test_even_sphere_counts(self):
        report = loop_structure(sphere_even_graph(3))
        assert report.loops_per_vertex == {"1": 1, "2": 1, "3": 1, "4": 0, "5": 0}
        assert report.loops_removed_acyclic


class TestOpposite:
    def test_loop_fixed(self):
        g = Graph(("1",), (Edge("11", "1", "1"),))
        assert opposite(g) == g

    def test_involution(self):
        g = sphere_even_graph(2)
        assert opposite(opposite(g)) == g

    def test_ids_preserved_endpoints_swapped(self):
        g = two_vertex_graph()
        o = opposite(g)
        assert o.edge_by_id["21"].source == "2" and o.edge_by_id["21"].range == "1"

    def test_odd_sphere_self_opposite(self):
        g = sphere_odd_graph(3)
        found = is_isomorphic(g, opposite(g))
        assert found == {"1": "3", "2": "2", "3": "1"}


class TestPowerGraph:
    def test_single_loop_squares_to_single_loop(self):
        g = Graph(("1",), (Edge("11", "1", "1"),))
        squared = power_graph(g, 2)
        assert len(squared.edges) == 1
        assert squared.edges[0].id == "11.11"

    def test_edge_count_matches_path_count(self):
        g = sphere_odd_graph(3)
        for k in (1, 2, 3):
            assert len(power_graph(g, k).edges) == len(enumerate_paths(g, k))

    def test_three_vertex_square_has_ten_edges(self):
        assert len(power_graph(sphere_odd_graph(3), 2).edges) == 10

    def test_power_one_isomorphic(self):
        g = sphere_odd_graph(2)
        assert is_isomorphic(power_graph(g, 1), g) is not None

    def test_power_zero_rejected(self):
        with pytest.raises(GraphError, match=">= 1"):
            power_graph(sphere_odd_graph(1), 0)


class TestSkewProduct:
    def test_counts_scale_by_p(self):
        g = sphere_odd_graph(2)
        s = skew_product(g, 3, {"1": 1, "2": 1})
        assert len(s.vertices) == 3 * len(g.vertices)
        assert len(s.edges) == 3 * len(g.edges)

    def test_source_shifts_by_weight(self):
        g = sphere_odd_graph(2)
        s = skew_product(g, 3, {"1": 1, "2": 1})
        e = s.edge_by_id["21@0"]
        assert e.source == "1@2" and e.range == "2@0"

    def test_zero_weights_give_disjoint_copies(self):
        g = sphere_odd_graph(2)
        s = skew_product(g, 3, {"1": 0, "2": 0})
        for e in s.edges:
            assert e.source.rsplit("@", 1)[1] == e.range.rsplit("@", 1)[1]

    def test_forgetting_levels_is_a_morphism(self):
        g = sphere_odd_graph(2)
        s = skew_product(g, 4, {"1": 1, "2": 3})
        for e in s.edges:
            base = g.edge_by_id[e.id.rsplit("@", 1)[0]]
            assert e.source.rsplit("@", 1)[0] == base.source
            assert e.range.rsplit("@", 1)[0] == base.range

    def test_missing_weight_rejected(self):
        with pytest.raises(GraphError, match="missing weights"):
            skew_product(sphere_odd_graph(2), 3, {"1": 1})

    def test_small_p_rejected(self):
        with pytest.raises(GraphError, match=">= 2"):
            skew_product(sphere_odd_graph(1), 1, {"1": 1})


class TestIsomorphism:
    def test_identity_map_on_self(self):
        g = sphere_odd_graph(3)
        assert is_isomorphic(g, g) == {v: v for v in g.vertices}

    def test_vertex_count_mismatch(self):
        assert is_isomorphic(sphere_odd_graph(3), sphere_odd_graph(1)) is None

    def test_relabeling_found(self):
        g = sphere_even_graph(2)
        mapping = {"1": "a", "2": "b", "3": "c", "4": "d"}
        assert is_isomorphic(g, relabel_graph(g, mapping)) == mapping

    def test_multiplicity_difference_rejected(self):
        g1 = Graph(("1", "2"), (Edge("a", "1", "2"), Edge("b", "1", "2")))
        g2 = Graph(("1", "2"), (Edge("a", "1", "2"), Edge("b", "2", "1")))
        assert is_isomorphic(g1, g2) is None

    def test_brute_force_bound(self):
        big = Graph(tuple(str(i) for i in range(10)))
        with pytest.raises(GraphError, match="limited"):
            is_isomorphic(big, big)
