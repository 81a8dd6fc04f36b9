"""Graph, path, and construction tests."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlift import (
    CodecError,
    Edge,
    Graph,
    GraphError,
    Path,
    graph_from_dict,
    graph_to_dict,
    is_isomorphic,
    loop_structure,
    maximal_paths,
    opposite,
    sphere_even_graph,
    sphere_odd_graph,
)

from helpers import (
    ReferenceEdge,
    ReferenceGraph,
    compose_paths,
    reference_enumerate_paths,
    reference_loop_structure,
    reference_maximal_paths,
    reference_power_graph,
    relabel_graph,
    skew_product,
    small_multigraphs,
    supported_graphs,
)


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


@st.composite
def graph_inputs(draw):
    """Vertex ids and (id, source, range) edge triples for `Graph`: those of
    a `small_multigraphs` draw with up to three faults drawn in, so several
    can meet in one graph: a bad or repeated vertex id, a bad or repeated
    edge id, an unknown source or range, or no vertex at all."""
    g = draw(small_multigraphs())
    vertices = list(g.vertices)
    triples = [[e.id, e.source, e.range] for e in g.edges]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["vertex", "vertex", "id", "id", "end", "end", "end",
                                     "none"]))
        if kind == "vertex" and vertices:
            at = draw(st.integers(0, len(vertices) - 1))
            vertices[at] = draw(st.sampled_from(["", 3, None, []] + vertices))
        elif kind == "none":
            vertices = []
        elif kind != "vertex" and triples:
            edge = draw(st.sampled_from(triples))
            if kind == "id":
                edge[0] = draw(st.sampled_from(["", 5, None, []] + [t[0] for t in triples]))
            else:
                edge[draw(st.integers(1, 2))] = draw(st.sampled_from(["", "zz", 4, None]))
    return vertices, [tuple(t) for t in triples]


def _built(make):
    """What make() returns, or the text of the GraphError it raises."""
    try:
        return make()
    except GraphError as exc:
        return str(exc)


def _fields(edges) -> list[tuple]:
    return [(e.id, e.source, e.range) for e in edges]


class TestRepresentation:
    """`Graph` stores index arrays; its validation, `Edge` views, equality
    and loop structure agree with the edge-tuple graph it replaced."""

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(graph_inputs(), st.randoms(use_true_random=False))
    def test_matches_the_edge_tuple_oracle(self, drawn, rnd):
        vertices, triples = drawn
        got = _built(lambda: Graph(vertices, [Edge(*t) for t in triples]))
        want = _built(lambda: ReferenceGraph(vertices, [ReferenceEdge(*t) for t in triples]))
        if isinstance(want, str):
            assert got == want
            if all(isinstance(x, str) for t in [vertices, *triples] for x in t):
                doc = {"vertices": vertices, "edges": [dict(zip(("id", "source", "range"), t))
                                                       for t in triples]}
                with pytest.raises(CodecError) as caught:
                    graph_from_dict(doc)
                assert str(caught.value) == f"/: {want}"
            return
        assert got.vertices == want.vertices
        assert _fields(got.edges) == _fields(want.edges)
        assert ({k: _fields([e]) for k, e in got.edge_by_id.items()}
                == {k: _fields([e]) for k, e in want.edge_by_id.items()})
        for v in want.vertices:
            assert _fields(got.out_edges(v)) == _fields(want.out_edges(v))
            assert _fields(got.in_edges(v)) == _fields(want.in_edges(v))
        report, oracle = loop_structure(got), reference_loop_structure(want)
        assert report.loops_per_vertex == oracle.loops_per_vertex
        assert report.loops_removed_acyclic == oracle.loops_removed_acyclic
        if report.cycle is not None:  # a closed cycle through distinct vertices
            cycle = report.cycle
            assert cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1 >= 2
            assert set(zip(cycle, cycle[1:])) <= {(e.source, e.range) for e in want.edges}
        # graphs built from arrays and from edges compare and hash alike
        for twin in (graph_from_dict(graph_to_dict(got)), opposite(opposite(got))):
            assert twin == got and hash(twin) == hash(got)
        shuffled = list(triples)
        rnd.shuffle(shuffled)
        for other, reference in (
                (Graph(vertices, [Edge(*t) for t in shuffled]),
                 ReferenceGraph(vertices, [ReferenceEdge(*t) for t in shuffled])),
                (opposite(got), ReferenceGraph(vertices, [ReferenceEdge(i, r, s)
                                                          for i, s, r in triples]))):
            assert (other == got) == (reference == want)
            assert other != got or hash(other) == hash(got)

    def test_immutable(self):
        g = two_vertex_graph()
        for name in ("vertices", "edges", "_ids", "_source", "_range"):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, ())
        with pytest.raises(FrozenInstanceError):
            del g.vertices


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

    def test_extend_appends_at_the_range_end(self):
        g = two_vertex_graph()
        p = Path(g, (), base="1").extend("11").extend("21").extend("22")
        assert p == Path(g, ("11", "21", "22"))
        assert hash(p) == hash(Path(g, ("11", "21", "22")))
        assert p.source == "1" and p.range == "2"

    def test_extend_checks_the_new_edge(self):
        g = two_vertex_graph()
        with pytest.raises(GraphError, match="unknown edge"):
            Path(g, ("11",)).extend("zz")
        with pytest.raises(GraphError, match="does not compose"):
            Path(g, ("21",)).extend("11")
        with pytest.raises(GraphError, match="does not compose"):
            Path(g, (), base="2").extend("21")

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
        pool = reference_enumerate_paths(g, 2)
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
        assert reference_enumerate_paths(g, 0, source="1") == [Path(g, (), base="1")]

    def test_two_vertex_length_two_from_one(self):
        g = two_vertex_graph()
        got = [p.display for p in reference_enumerate_paths(g, 2, source="1")]
        assert got == ["11.11", "21.11", "22.21"]

    def test_three_vertex_length_one_into_one(self):
        g = sphere_odd_graph(3)
        assert [p.display for p in reference_enumerate_paths(g, 1, range="1")] == ["11"]

    def test_count_matches_adjacency_power(self):
        g = sphere_odd_graph(3)
        adj = np.zeros((3, 3))
        for e in g.edges:
            adj[g.vertex_index[e.source], g.vertex_index[e.range]] += 1
        for k in range(4):
            assert len(reference_enumerate_paths(g, k)) == int(np.linalg.matrix_power(adj, k).sum())


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
                full = reference_enumerate_paths(g, m, range=v)
                assert [p for p in got if p.length == m] == full

    def test_shorter_members_are_unextendable(self):
        g = sphere_even_graph(2)
        for v in g.vertices:
            for p in maximal_paths(g, v, 3):
                assert p.length == 3 or not g.in_edges(p.source)


class TestLevelGrowth:
    """`maximal_paths` grows paths one level at a time, so it agrees with the
    recursive walker and has no recursion limit."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.one_of(supported_graphs(), small_multigraphs()), st.integers(0, 5))
    def test_match_the_recursive_walkers(self, g, length):
        for v in g.vertices:
            assert maximal_paths(g, v, length) == reference_maximal_paths(g, v, length)

    def test_levels_above_the_recursion_limit(self):
        # one path per level, one edge longer than the one below
        g = sphere_odd_graph(1)
        path = Path(g, ("11",) * 1100)
        assert maximal_paths(g, "1", 1100) == [path]


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
        squared = reference_power_graph(g, 2)
        assert len(squared.edges) == 1
        assert squared.edges[0].id == "11.11"

    def test_edge_count_matches_path_count(self):
        # edges from u to v count the length-k paths from u to v: (A^k)[u, v]
        g = sphere_odd_graph(3)
        adj = np.zeros((3, 3))
        for e in g.edges:
            adj[g.vertex_index[e.source], g.vertex_index[e.range]] += 1
        for k in (1, 2, 3):
            counts = np.zeros((3, 3))
            for e in reference_power_graph(g, k).edges:
                counts[g.vertex_index[e.source], g.vertex_index[e.range]] += 1
            assert np.array_equal(counts, np.linalg.matrix_power(adj, k))

    def test_three_vertex_square_has_ten_edges(self):
        assert len(reference_power_graph(sphere_odd_graph(3), 2).edges) == 10

    def test_power_one_isomorphic(self):
        g = sphere_odd_graph(2)
        assert is_isomorphic(reference_power_graph(g, 1), g) is not None


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
