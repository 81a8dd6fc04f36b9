"""Spectrum classification and representative modules."""

import cmath
from collections import Counter

import pytest

from graphlift import (
    LOOP_GRAPH,
    LOOP_GRAPH_WITH_SOURCES,
    UNSUPPORTED,
    Edge,
    Graph,
    GraphError,
    LensParams,
    SpectrumError,
    check_hypotheses,
    classify,
    is_indecomposable,
    is_irreducible,
    is_isomorphic,
    lens_graph_coprime,
    projective_graph,
    representative_module,
    sphere_even_graph,
    sphere_odd_graph,
    validate_module,
)
from graphlift import cli, io, spectrum

from helpers import one_dim_components, relabel_graph

LENS_CASES = (
    LensParams(2, 3, (1, 1)),
    LensParams(2, 5, (1, 2)),
    LensParams(3, 4, (1, 3, 1)),
)


def two_loop_graph() -> Graph:
    return Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1")))


def receiving_sink_graph() -> Graph:
    return Graph(("1", "2"), (Edge("11", "1", "1"), Edge("21", "1", "2")))


def bare_cycle_graph() -> Graph:
    return Graph(("1", "2"), (Edge("a", "1", "2"), Edge("b", "2", "1")))


class TestHypotheses:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_odd_spheres_are_loop_graphs(self, n):
        report = check_hypotheses(sphere_odd_graph(n))
        assert report.verdict == LOOP_GRAPH
        assert report.diagnostics == ()
        assert not report.by_analogy

    @pytest.mark.parametrize("n", range(1, 13))
    def test_even_spheres_have_recognized_sources(self, n):
        report = check_hypotheses(sphere_even_graph(n))
        assert report.verdict == LOOP_GRAPH_WITH_SOURCES
        assert not report.by_analogy

    @pytest.mark.parametrize("n", range(1, 6))
    def test_projective_graphs_are_loop_graphs(self, n):
        assert check_hypotheses(projective_graph(n)).verdict == LOOP_GRAPH

    @pytest.mark.parametrize("params", LENS_CASES, ids=str)
    def test_lens_graphs_are_loop_graphs(self, params):
        report = check_hypotheses(lens_graph_coprime(params))
        assert report.verdict == LOOP_GRAPH

    def test_double_loop_diagnosed(self):
        report = check_hypotheses(two_loop_graph())
        assert report.verdict == UNSUPPORTED
        assert any("more than one loop" in d for d in report.diagnostics)

    def test_receiving_sink_diagnosed(self):
        report = check_hypotheses(receiving_sink_graph())
        assert report.verdict == UNSUPPORTED
        assert any("loopless vertices receiving" in d for d in report.diagnostics)

    def test_bare_cycle_diagnosed(self):
        report = check_hypotheses(bare_cycle_graph())
        assert report.verdict == UNSUPPORTED
        assert any("cycle through distinct vertices" in d
                   for d in report.diagnostics)

    def test_unrecognized_source_shape_flagged_as_analogy(self):
        g = Graph(
            ("1", "2", "9"),
            (
                Edge("11", "1", "1"),
                Edge("21", "1", "2"),
                Edge("22", "2", "2"),
                Edge("19", "9", "1"),
            ),
        )
        report = check_hypotheses(g)
        assert report.verdict == LOOP_GRAPH_WITH_SOURCES
        assert report.by_analogy


def even_sphere_mutations(n: int) -> dict[str, Graph]:
    """Supported graphs one edit away from sphere_even_graph(n)."""
    g = sphere_even_graph(n)
    src = next(e for e in g.edges if e.source == str(n + 1))
    others = tuple(e for e in g.edges if e != src)
    graphs = {
        "drop-source-edge": Graph(g.vertices, others),
        "duplicate-source-edge": Graph(
            g.vertices, g.edges + (Edge("dup", src.source, src.range),)
        ),
    }
    if n >= 2:
        inner = next(e for e in g.edges if e.source != e.range and e.source != src.source)
        graphs["drop-inner-edge"] = Graph(g.vertices, tuple(e for e in g.edges if e != inner))
        graphs["duplicate-inner-edge"] = Graph(
            g.vertices, g.edges + (Edge("dup", inner.source, inner.range),)
        )
        retarget = str(n) if src.range == "1" else "1"
        graphs["retarget-source-edge"] = Graph(
            g.vertices, others + (Edge(src.id, src.source, retarget),)
        )
    return graphs


class TestEvenSphereShape:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_isomorphism_search_agrees(self, n):
        target = sphere_even_graph(n)
        names = [str(k) for k in range(1, n + 3)]
        mapping = dict(zip(names, reversed(names)))
        shuffled = relabel_graph(target, mapping)
        shuffled = Graph(shuffled.vertices[::-1], shuffled.edges[::-1])
        cases = {"identity": target, "relabeled": shuffled, **even_sphere_mutations(n)}
        for name, g in cases.items():
            report = check_hypotheses(g)
            assert report.verdict == LOOP_GRAPH_WITH_SOURCES, name
            assert report.by_analogy == (is_isomorphic(g, target) is None), name

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_one_edit_stays_by_analogy(self, n):
        mutations = even_sphere_mutations(n)
        assert len(mutations) == (2 if n == 1 else 5)
        for name, g in mutations.items():
            report = check_hypotheses(g)
            assert report.verdict == LOOP_GRAPH_WITH_SOURCES, name
            assert report.by_analogy, name


class TestClassify:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_odd_sphere_components(self, n):
        desc = classify(sphere_odd_graph(n))
        assert desc.class_tag == LOOP_GRAPH
        assert desc.circles == tuple(str(i) for i in range(1, n + 1))
        assert desc.points == ()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_even_sphere_components(self, n):
        desc = classify(sphere_even_graph(n))
        assert desc.class_tag == LOOP_GRAPH_WITH_SOURCES
        assert desc.circles == tuple(str(i) for i in range(1, n + 1))
        assert desc.points == (str(n + 1), str(n + 2))

    def test_projective_components(self):
        desc = classify(projective_graph(3))
        assert desc.circles == ("1", "2", "3")
        assert desc.points == ()

    @pytest.mark.parametrize("params", LENS_CASES, ids=str)
    def test_lens_components(self, params):
        g = lens_graph_coprime(params)
        desc = classify(g)
        assert len(desc.circles) == params.n
        assert desc.points == ()

    def test_unsupported_graph_raises_with_reasons(self):
        with pytest.raises(SpectrumError, match="more than one loop"):
            classify(two_loop_graph())

    def test_relabeling_moves_the_components_along(self):
        g = sphere_odd_graph(3)
        mapping = {"1": "c", "2": "a", "3": "b"}
        desc = classify(relabel_graph(g, mapping))
        assert set(desc.circles) == {"a", "b", "c"}


class TestOneDimCompleteness:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_odd_spheres_match_brute_force(self, n):
        g = sphere_odd_graph(n)
        desc = classify(g)
        assert (desc.circles, desc.points) == one_dim_components(g)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_even_spheres_match_brute_force(self, n):
        g = sphere_even_graph(n)
        desc = classify(g)
        assert (desc.circles, desc.points) == one_dim_components(g)

    @pytest.mark.parametrize("params", LENS_CASES, ids=str)
    def test_lens_graphs_match_brute_force(self, params):
        g = lens_graph_coprime(params)
        desc = classify(g)
        assert (desc.circles, desc.points) == one_dim_components(g)


class TestRepresentatives:
    def test_circle_representatives_are_irreducible(self):
        g = sphere_odd_graph(3)
        for v in classify(g).circles:
            m = representative_module(g, v, cmath.exp(0.7j))
            assert validate_module(m).passed
            assert is_irreducible(m)
            assert is_indecomposable(m)

    def test_point_representatives_are_irreducible(self):
        g = sphere_even_graph(2)
        for v in classify(g).points:
            m = representative_module(g, v)
            assert validate_module(m).passed
            assert is_irreducible(m)

    def test_phase_required_on_circles(self):
        g = sphere_even_graph(2)
        with pytest.raises(SpectrumError, match="not an isolated point"):
            representative_module(g, "1")

    def test_phase_refused_on_points(self):
        g = sphere_even_graph(2)
        with pytest.raises(SpectrumError, match="does not carry a circle"):
            representative_module(g, "4", 1j)

    def test_unsupported_graph_refused(self):
        with pytest.raises(SpectrumError):
            representative_module(two_loop_graph(), "1", 1j)

    @pytest.mark.parametrize("z", [None, 1j])
    def test_unknown_vertex_named(self, z):
        with pytest.raises(GraphError, match="unknown vertex '9'"):
            representative_module(sphere_even_graph(2), "9", z)

    def test_messages_say_what_the_vertex_is(self):
        g = sphere_even_graph(2)
        with pytest.raises(SpectrumError, match="carries a circle and needs a phase"):
            representative_module(g, "1")
        with pytest.raises(SpectrumError, match="is an isolated point and takes no phase"):
            representative_module(g, "4", 1j)


class TestOnePass:
    """Each classification computes the loop structure and the even-sphere
    certificate once."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = Counter()
        for name in ("loop_structure", "_even_sphere_shaped"):
            def counted(*args, _fn=getattr(spectrum, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(spectrum, name, counted)
        return counts

    def test_classify(self, counts):
        assert classify(sphere_even_graph(3)).by_analogy is False
        assert counts == {"loop_structure": 1, "_even_sphere_shaped": 1}

    @pytest.mark.parametrize("args", [("classify", "{}"), ("classify", "{}", "--format", "json"),
                                      ("spectrum", "module", "{}", "--vertex", "4")])
    def test_cli(self, counts, tmp_path, capsys, args):
        path = str(tmp_path / "g.json")
        g = sphere_even_graph(3)  # less one source edge: classified by analogy
        io.write_json(path, io.graph_to_dict(Graph(g.vertices, g.edges[:-1])))
        assert cli.run([a.format(path) for a in args]) == 0
        assert counts == {"loop_structure": 1, "_even_sphere_shaped": 1}
        if "json" in args:
            assert '"by_analogy": true' in capsys.readouterr().out
