"""Truncated lifts: bases, generators, relations, words, functoriality."""

import cmath
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlift import (
    CkReport,
    Edge,
    Graph,
    GraphError,
    LensParams,
    LiftError,
    ModuleError,
    LiftVector,
    Path,
    PythagoreanModule,
    TruncatedLift,
    ck_residuals,
    direct_sum,
    embed_vector,
    generator_matrices,
    intertwiner_space,
    isolated_module,
    lens_graph_coprime,
    lift,
    lift_intertwiner,
    loop_eigenvalue,
    one_dim_module,
    opposite,
    projective_graph,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
    validate_module,
    word_operator,
)
from graphlift import lifting
from graphlift.lifting import MAX_LEVEL, PathLevel, _act

from helpers import (
    compose_paths,
    dense_ck_residuals,
    expand_class,
    overflow_module,
    path_operator,
    perturb_edge,
    random_feasible_dims,
    reference_basis,
    reference_edge_targets,
    reference_embed_map,
    reference_gram_residual,
    reference_levels,
    small_multigraphs,
    supported_graphs,
    unfed_fiber_module,
)

Z8 = cmath.exp(2j * cmath.pi / 8)


def phase_lift(vertex: str, z: complex, level: int, n: int = 2):
    g = sphere_odd_graph(n)
    return lift(one_dim_module(g, vertex, z), level)


class TestDimensions:
    @pytest.mark.parametrize("m", range(6))
    def test_first_vertex_phase_module_grows_linearly(self, m):
        assert phase_lift("1", Z8, m).dimension == m + 1

    @pytest.mark.parametrize("m", range(4))
    def test_top_vertex_phase_module_stays_flat(self, m):
        assert phase_lift("2", Z8, m).dimension == 1

    def test_direct_sum_dimensions_add(self):
        g = sphere_odd_graph(2)
        s = direct_sum(one_dim_module(g, "1", Z8), one_dim_module(g, "2", -1.0))
        t = lift(s, 3)
        assert t.dimension == (3 + 1) + 1

    def test_level_zero_matches_module_total(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 1, "3": 3}, 0)
        assert lift(m, 2).dimension_at(0) == m.total_dim

    def test_isolated_source_counts_paths_out(self):
        t = lift(isolated_module(sphere_even_graph(3), "4"), 2)
        assert [t.dimension_at(k) for k in range(4)] == [1, 4, 10, 20]

    def test_negative_level_rejected(self):
        g = sphere_odd_graph(1)
        with pytest.raises(LiftError, match="nonnegative"):
            lift(one_dim_module(g, "1", 1.0), -1)


class TestLevelCap:
    def test_levels_above_the_cap_are_refused(self):
        m = one_dim_module(sphere_odd_graph(3), "3", 1j)
        assert lift(m, MAX_LEVEL).level == MAX_LEVEL  # levels are built on demand
        for level in (MAX_LEVEL + 1, 10**11):
            with pytest.raises(LiftError, match=f"above MAX_LEVEL={MAX_LEVEL}"):
                lift(m, level)


class TestPathBudget:
    """A lift counts the paths and the dimension of every level it holds
    before it grows any, and refuses the first level that would take the
    paths held past its budget or whose dimension passes the limit."""

    @staticmethod
    def two_loops() -> PythagoreanModule:
        g = Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1")))
        return PythagoreanModule(g, {"1": 1}, {"a": np.array([[0.6]]),
                                               "b": np.array([[0.8]])})

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.one_of(supported_graphs(), small_multigraphs()), st.integers(0, 2**32 - 1))
    def test_count_is_exact(self, graph, seed):
        dims = random_feasible_dims(graph, np.random.default_rng(seed), hi=2)
        module = random_module(graph, dims, seed)
        levels = reference_levels(module, 5)
        t = lift(module, 4, validate=False)
        assert t._sizes() == ([level.order.size for level in levels],
                              [level.dimension for level in levels])
        t.paths_at(0)  # grows every level, each where the counts put it
        assert np.diff(t._starts).tolist() == [level.order.size for level in levels]

    def test_budget_is_inclusive(self, monkeypatch):
        # levels 0..3 hold 1 + 2 + 4 + 8 paths, and level 4 16 more
        monkeypatch.setattr(lifting, "_LIFT_BYTES", 15 * lifting._PATH_BYTES)
        assert lift(self.two_loops(), 2).dimension_at(3) == 8
        t = lift(self.two_loops(), 3)
        with pytest.raises(LiftError) as caught:
            t.dimension_at(0)
        assert str(caught.value) == (
            "level 4 would bring the lift to 31 paths, 4216 bytes at 136 bytes a path, "
            "more than the 2040 bytes a lift may hold")

    def test_refusal_grows_no_level(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a level was grown")

        monkeypatch.setattr(TruncatedLift, "_grow", refuse)
        t = lift(self.two_loops(), 40)
        for k in (0, 41):  # the first read refuses, and so does every later one
            with pytest.raises(LiftError) as caught:
                t.paths_at(k)
            assert str(caught.value) == (
                "level 21 would bring the lift to 4194303 paths, 570425208 bytes at "
                "136 bytes a path, more than the 536870912 bytes a lift may hold")
        assert t._trie is None

    def test_levels_are_refused_in_order(self, monkeypatch):
        # level 2 holds 4 paths of dimension 4 and would bring the lift to 7
        # paths; a limit on either refuses level 2 with its own message
        monkeypatch.setattr(lifting, "_MAX_DIMENSION", 3)
        monkeypatch.setattr(lifting, "_LIFT_BYTES", 6 * lifting._PATH_BYTES)
        with pytest.raises(LiftError, match="^level 2 would bring the lift to 7 paths"):
            lift(self.two_loops(), 5).paths_at(0)
        monkeypatch.setattr(lifting, "_LIFT_BYTES", 7 * lifting._PATH_BYTES)
        with pytest.raises(LiftError) as caught:
            lift(self.two_loops(), 5).paths_at(0)
        assert str(caught.value) == (
            "level 2 has dimension 4, more than the 3 a lift level may hold")


class TestTrieOracle:
    """Every field of every level of the all-level store is bitwise the one
    the per-level builder gives (`reference_levels`)."""

    @staticmethod
    def check(module: PythagoreanModule, level: int):
        t = lift(module, level, validate=False)
        want = reference_levels(module, level + 1)
        for k, expected in enumerate(want):
            got = t.paths_at(k)
            for name, a, b in zip(PathLevel._fields, got, expected):
                if name == "dimension":
                    assert type(a) is int and a == b, (k, name)
                else:
                    assert a.dtype == b.dtype and np.array_equal(a, b), (k, name)
                    assert not a.flags.writeable, (k, name)
        assert len(t._starts) == len(want) + 1

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(graph=st.one_of(supported_graphs(), small_multigraphs()),
           level=st.integers(0, 6), data=st.data())
    def test_levels_match_the_per_level_builder(self, graph, level, data):
        dims = {v: data.draw(st.integers(0, 2)) for v in graph.vertices}
        module = PythagoreanModule(graph, dims, {
            e.id: np.ones((dims[e.source], dims[e.range])) for e in graph.edges})
        self.check(module, level)

    @pytest.mark.parametrize("g, top", [
        (sphere_even_graph(2), 40),  # two vertices receive no edge
        (sphere_odd_graph(3), 40),
        (lens_graph_coprime(LensParams(3, 4, (1, 3, 1))), 12),
    ])
    def test_deep_levels(self, g, top):
        self.check(random_module(g, {v: 1 for v in g.vertices}, 3), top)


class TestBasis:
    def test_level_two_paths_in_display_order(self):
        t = phase_lift("1", Z8, 2)
        assert [p.display for p, _ in t.basis] == ["11.11", "21.11", "22.21"]

    def test_entries_distinct_and_positive_dimensional(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 0, "3": 1}, 3)
        t = lift(m, 2)
        for k in range(4):
            entries = t.basis_at(k)
            keys = {(p.edges, p.base, b) for p, b in entries}
            assert len(keys) == len(entries)
            assert all(m.dims[p.source] > 0 for p, _ in entries)

    def test_fibers_contiguous_within_path(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 3, "2": 1}, 1)
        t = lift(m, 1)
        fibers = [b for _, b in t.basis_at(0)]
        assert fibers == [0, 1, 2, 0]

    def test_top_level_is_materialized(self):
        t = phase_lift("1", Z8, 1)
        assert t.dimension_at(2) == 3
        with pytest.raises(LiftError, match="outside"):
            t.basis_at(3)

    def test_levels_above_the_recursion_limit(self):
        # one path per level, each built from the one below
        t = lift(one_dim_module(sphere_odd_graph(1), "1", 1j), 1100)
        assert t.basis_at(1100) == ((Path(t.module.graph, ("11",) * 1100), 0),)

    def test_deep_basis_keeps_one_level(self):
        # the paths of every level below were kept, 2000^2 / 2 edge ids in
        # all: 18.8 MiB; only the level below is kept now: 3.1 MiB
        m = one_dim_module(sphere_odd_graph(1), "1", 1j)
        tracemalloc.start()
        try:
            basis = lift(m, 2000).basis_at(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert basis == ((Path(m.graph, ("11",) * 2000), 0),)
        assert peak < 6 * 2**20

    def test_basis_levels_in_any_order(self):
        t = lift(random_module(sphere_odd_graph(3), {"1": 2, "2": 1, "3": 1}, 4), 4)
        fresh = [lift(t.module, 4).basis_at(k) for k in range(6)]
        for k in (5, 2, 2, 0, 4, 1, 3):
            assert t.basis_at(k) == fresh[k], k


class TestEmbedding:
    def test_single_loop_embeds_by_phase(self):
        g = sphere_odd_graph(1)
        t = lift(one_dim_module(g, "1", Z8), 2)
        assert np.allclose(t.embed_matrix(0), [[Z8]])

    def test_sourceless_entries_fixed(self):
        t = lift(isolated_module(sphere_even_graph(3), "4"), 1)
        emb = t.embed_matrix(0)
        row = [i for i, (p, _) in enumerate(t.basis_at(1)) if p.length == 0]
        assert emb[row[0], 0] == 1.0
        assert np.linalg.norm(emb) == 1.0

    def test_embedding_is_isometric(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 2, "3": 1}, 8)
        t = lift(m, 2)
        rng = np.random.default_rng(0)
        for k in range(3):
            d = t.dimension_at(k)
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            lv = LiftVector(t, k, vec)
            assert embed_vector(lv).norm == pytest.approx(lv.norm, abs=1e-12)

    def test_embed_vector_matches_dense_matrix(self):
        g = sphere_even_graph(2)
        m = random_module(g, {"1": 2, "2": 1, "3": 1, "4": 2}, 6)
        t = lift(m, 3)
        rng = np.random.default_rng(1)
        for k in range(4):
            d = t.dimension_at(k)
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            got = embed_vector(LiftVector(t, k, vec)).coeffs
            assert np.allclose(got, t.embed_matrix(k) @ vec, rtol=0, atol=1e-14)

    def test_embedding_commutes_with_edges(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 4)
        t = lift(m, 3)
        for e in g.edges:
            for k in range(3):
                upper = t.embed_matrix(k + 1) @ t.edge_matrix(e.id, k)
                lower = t.edge_matrix(e.id, k + 1) @ t.embed_matrix(k)
                assert np.allclose(upper, lower, atol=1e-12)

    def test_no_embedding_past_top(self):
        t = phase_lift("1", Z8, 1)
        with pytest.raises(LiftError, match="outside"):
            t.embed_matrix(2)


class TestReduce:
    def test_level_zero_identity(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 6)
        t = lift(m, 2)
        out = t.reduce_class("1", [0.5, -1j], level=0)
        assert np.allclose(out.coeffs[:2], [0.5, -1j])
        assert np.allclose(out.coeffs[2:], 0)

    def test_phase_vertex_class_accumulates_phase(self):
        for m in range(1, 5):
            t = phase_lift("1", Z8, m)
            out = t.reduce_class("1", [1.0], m)
            ref = t._offset(m, Path(t.module.graph, ("11",) * m, base="1"))
            assert out.coeffs[ref] == pytest.approx(Z8**m)
            assert out.norm == pytest.approx(1.0, abs=1e-12)

    def test_reduction_preserves_norm(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 1, "3": 2}, 12)
        t = lift(m, 3)
        xi = np.array([0.6, 0.8j])
        out = t.reduce_class("1", xi, 3)
        assert out.norm == pytest.approx(1.0, abs=1e-12)

    def test_class_of_path_pins_its_fiber(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 9)
        t = lift(m, 2)
        p = Path(g, ("21", "22"))
        xi = np.array([0.25, -1j])
        out = t.reduce_class(p, xi, 2)
        at = t._offset(2, p)
        assert np.array_equal(out.coeffs[at : at + 2], xi)
        assert out.norm == pytest.approx(np.linalg.norm(xi))

    def test_matches_adjoint_pairing(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 1, "3": 2}, 5)
        t = lift(m, 4)
        lam = Path(g, ("21",))
        nu = Path(g, ("11",))
        xi = np.array([0.3 + 0.1j, -0.7j])
        eta = np.array([0.2 - 0.5j, 0.4])
        want = np.vdot(path_operator(m, nu) @ xi, eta)
        for level in (2, 3):
            got = np.vdot(
                t.reduce_class(lam, xi, level).coeffs,
                t.reduce_class(compose_paths(lam, nu), eta, level).coeffs,
            )
            assert got == pytest.approx(want, abs=1e-10)

    def test_level_below_path_length_rejected(self):
        t = phase_lift("1", Z8, 3)
        with pytest.raises(LiftError, match="below path length"):
            t.reduce_class(Path(t.module.graph, ("11", "11")), [1.0], 1)

    def test_zero_fiber_rejected(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match="zero-dimensional"):
            t.reduce_class("2", [], 1)

    def test_offset_of_a_path_outside_the_basis_rejected(self):
        # W_2 of the even 2-sphere holds the length-0 paths at its roots 3 and
        # 4, and no short path at 1, which receives edges
        g = sphere_even_graph(2)
        t = lift(random_module(g, {"1": 1, "2": 1, "3": 1, "4": 0}, 3), 2)
        assert t.basis_at(2)[t._offset(2, Path(g, (), base="3"))] == (Path(g, (), base="3"), 0)
        for k, path in [(2, Path(g, (), base="1")), (2, Path(g, ("21",))),
                        (2, Path(g, (), base="4")), (1, Path(g, ("11", "11")))]:
            with pytest.raises(LiftError, match="is not a basis path of level"):
                t._offset(k, path)


class TestGenerators:
    def test_edge_matrices_are_exact_binary_isometries(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 1, "3": 2}, 7)
        t = lift(m, 2)
        gens = generator_matrices(t)
        for e in g.edges:
            mat = gens.edges[e.id]
            assert set(np.unique(mat)) <= {0.0, 1.0}
            assert np.array_equal(mat.T @ mat, gens.projections[e.source])

    def test_projections_resolve_identity(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 1, "2": 2, "3": 1}, 2)
        t = lift(m, 2)
        for k in range(4):
            total = sum(t.projection_matrix(v, k) for v in g.vertices)
            assert np.array_equal(total, np.eye(t.dimension_at(k)))

    def test_single_loop_generator_is_one(self):
        g = sphere_odd_graph(1)
        t = lift(one_dim_module(g, "1", Z8), 2)
        for k in range(3):
            assert np.array_equal(t.edge_matrix("11", k), [[1.0]])

    def test_unreachable_edges_give_zero_matrices(self):
        t = phase_lift("2", Z8, 2)
        gens = generator_matrices(t)
        assert not gens.edges["11"].any()
        assert not gens.edges["21"].any()
        assert np.array_equal(gens.edges["22"], [[1.0]])
        assert not gens.projections["1"].any()

    def test_edge_maps_refuse_unknown_edges_and_levels(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match="unknown edge 'zz'"):
            t.edge_images("zz", 0)
        with pytest.raises(LiftError, match="level 3 outside 0..2"):
            t.edge_images("11", 3)

    def test_blocks_tile_each_level_in_vertex_order(self):
        g = sphere_odd_graph(3)
        t = lift(random_module(g, {"1": 2, "2": 0, "3": 1}, 4), 2)
        for k in range(4):
            blocks = [t.block(v, k) for v in g.vertices]
            assert blocks[0].start == 0 and blocks[-1].stop == t.dimension_at(k)
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            for v, b in zip(g.vertices, blocks):
                ranges = {p.range for p, _ in t.basis_at(k)[b]}
                assert ranges <= {v}, (k, v)
        assert t.block("2", 0) == slice(2, 2)

    def test_block_refuses_unknown_vertices_and_levels(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(GraphError, match="unknown vertex '9'"):
            t.block("9", 0)
        with pytest.raises(LiftError, match="level 4 outside 0..3"):
            t.block("1", 4)

    def test_vertex_sums_close_on_receiving_vertices(self):
        g = sphere_even_graph(2)
        m = random_module(g, {"1": 1, "2": 2, "3": 1, "4": 2}, 3)
        t = lift(m, 2)
        report = ck_residuals(t)
        assert set(report.vertex_sum) == {"1", "2"}
        assert all(r == 0.0 for r in report.vertex_sum.values())


class TestRelationReport:
    def test_valid_module_passes_tight(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 2, "3": 1}, 17)
        report = ck_residuals(lift(m, 3))
        assert isinstance(report, CkReport)
        assert report.passed(1e-11)
        assert set(report.embed_isometry) == {0, 1, 2, 3}

    def test_combinatorial_relations_do_not_see_the_module(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 1)
        bad = perturb_edge(m, "21", 1e-2)
        report = ck_residuals(lift(bad, 2, validate=False))
        assert report.projector_orthogonality == 0.0
        assert report.projector_completeness == 0.0
        assert all(r == 0.0 for r in report.edge_isometry.values())
        assert all(r == 0.0 for r in report.vertex_sum.values())

    def test_perturbation_shows_up_in_embedding_residual(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 1)
        bad = perturb_edge(m, "21", 1e-2)
        assert not validate_module(bad).passed
        report = ck_residuals(lift(bad, 2, validate=False))
        assert report.max_residual >= 1e-3
        assert not report.passed()

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_passed_refuses_a_bad_tolerance(self, tol):
        report = ck_residuals(phase_lift("1", Z8, 2, n=3))
        assert report.passed(1e-9)
        with pytest.raises(ModuleError, match="positive finite"):
            report.passed(tol)

    def test_embedding_with_no_entry_reads_the_relation_residual(self):
        # W_1 is empty, so the level-0 embedding has no entry and M*M - I is
        # -I on the two dimensions of W_0
        m = unfed_fiber_module()
        trunc = lift(m, 2, validate=False)
        assert trunc.embed_map(0).rows.size == 0
        residual = ck_residuals(trunc).embed_isometry[0]
        assert residual == validate_module(m).residuals["v"] == np.sqrt(2)

    def test_invalid_module_blocked_unless_opted_out(self):
        g = sphere_odd_graph(2)
        bad = perturb_edge(random_module(g, {"1": 1, "2": 1}, 4), "11", 1e-2)
        with pytest.raises(LiftError, match="fails validation"):
            lift(bad, 1)
        assert lift(bad, 1, validate=False).dimension > 0


def _residual_table(report: CkReport) -> dict:
    table = {"orthogonality": report.projector_orthogonality,
             "completeness": report.projector_completeness}
    for name in ("edge_isometry", "vertex_sum", "embed_isometry"):
        table.update({(name, key): r for key, r in getattr(report, name).items()})
    return table


PARITY_GRAPHS = {
    "odd2": lambda: sphere_odd_graph(2),
    "odd3": lambda: sphere_odd_graph(3),
    "odd4": lambda: sphere_odd_graph(4),
    "even2": lambda: sphere_even_graph(2),
    "lens2-3": lambda: lens_graph_coprime(LensParams(2, 3, (1, 1))),
}


def _parity_modules(name: str):
    """A valid module with every fiber nonzero, a valid one with a zero
    fiber, and the first of them perturbed off the defining relation."""
    g = PARITY_GRAPHS[name]()
    rng = np.random.default_rng(sorted(PARITY_GRAPHS).index(name))
    full = zero = None
    while full is None or zero is None:
        dims = random_feasible_dims(g, rng, hi=2)
        if 0 in dims.values():
            zero = zero or dims
        else:
            full = full or dims
    valid = random_module(g, full, 11)
    live = next(e.id for e in g.edges if valid.ops[e.id].size)
    return {"valid": valid, "zero fiber": random_module(g, zero, 12),
            "perturbed": perturb_edge(valid, live, 1e-3)}


class TestSparseRelations:
    @pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
    def test_matches_dense_reference(self, name):
        for kind, module in _parity_modules(name).items():
            for level in range(6):
                trunc = lift(module, level, validate=False)
                got = _residual_table(ck_residuals(trunc))
                want = _residual_table(dense_ck_residuals(trunc))
                assert got.keys() == want.keys()
                for key, r in want.items():
                    assert got[key] == pytest.approx(r, abs=1e-12), (kind, level, key)
                if kind == "perturbed":
                    assert min(max(got.values()), max(want.values())) > 1e-9
                else:
                    assert max(got.values()) <= 1e-9

    def test_check_forms_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix materialized")

        for method in ("edge_matrix", "projection_matrix", "embed_matrix"):
            monkeypatch.setattr(TruncatedLift, method, refuse)
        g = sphere_odd_graph(3)
        report = ck_residuals(lift(random_module(g, {"1": 2, "2": 1, "3": 2}, 5), 4))
        assert report.passed(1e-11)
        assert set(report.embed_isometry) == set(range(5))

    @staticmethod
    def _corrupt(monkeypatch, t, edge_id, k, change):
        """Make `t.edge_images(edge_id, k)` read a changed copy of the stored
        segment."""
        images = t.edge_images(edge_id, k).copy()
        change(images)
        stored = t.edge_images
        monkeypatch.setattr(t, "edge_images", lambda e, j: (
            images if (e, j) == (edge_id, k) else stored(e, j)))

    def test_colliding_targets_are_seen(self, monkeypatch):
        g = sphere_odd_graph(2)
        t = lift(random_module(g, {"1": 2, "2": 1}, 2), 2)

        def collide(images):
            images[1] = images[0]  # two columns onto one row

        self._corrupt(monkeypatch, t, "21", 2, collide)
        report = ck_residuals(t)
        # E*E gains the pair (c0, c1) both ways; E E* counts the row twice
        # and leaves the row it no longer hits empty
        assert report.edge_isometry["21"] == pytest.approx(np.sqrt(2))
        assert report.vertex_sum["2"] == pytest.approx(np.sqrt(2))
        assert report.edge_isometry["11"] == 0.0
        assert not report.passed()

    def test_stray_image_is_charged_to_its_receiving_vertex(self, monkeypatch):
        g = sphere_odd_graph(2)
        t = lift(random_module(g, {"1": 2, "2": 1}, 2), 2)
        clean = ck_residuals(t)
        into_1 = t.block("1", 3)
        assert into_1.stop > into_1.start

        def stray(images):  # one image of 22, an edge into 2, lands in 1's block
            images[0] = into_1.start

        self._corrupt(monkeypatch, t, "22", 2, stray)
        report = ck_residuals(t)
        # the row outside 2's block counts 1^2, the row left empty inside it 1
        assert report.vertex_sum["2"] == pytest.approx(np.sqrt(2))
        assert report.vertex_sum["1"] == clean.vertex_sum["1"] == 0.0
        assert report.edge_isometry["22"] == 0.0
        assert not report.passed()

    def test_wide_lens_gram_memory(self):
        # level 5 of dimension 81920: expanding each embedding and sorting
        # its pairs of entries peaked at 87.5 MiB; per-path slots at 33 MiB
        g = lens_graph_coprime(LensParams(5, 5, (1, 1, 1, 1, 1)))
        m = random_module(g, {v: 2 for v in g.vertices}, 1)
        tracemalloc.start()
        try:
            report = ck_residuals(lift(m, 5, validate=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert report.max_residual <= 1e-9

    def test_wide_graph_memory(self):
        # 220 edges, level 4 of dimension 35762: a -1-padded row per edge and
        # level peaked at 108.7 MiB, the images of each source block at 48.6
        # MiB, so the bound sits between the two
        g = lens_graph_coprime(LensParams(5, 5, (1, 1, 1, 1, 1)))
        m = random_module(g, {v: 2 for v in g.vertices}, 1)
        tracemalloc.start()
        try:
            report = ck_residuals(lift(m, 4, validate=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 72 * 2**20
        assert report.max_residual <= 1e-9


def _relation_gram(trunc: TruncatedLift, k: int) -> float:
    """The Gram block of a level-k path mu is the module's relation at
    source(mu) less the identity, so the level-k residual is sqrt of the sum
    over those paths of r_source(mu)^2, r from `validate_module`."""
    report = validate_module(trunc.module)
    r = np.array([report.residuals.get(v, 0.0) for v in trunc.module.graph.vertices])
    return float(np.sqrt(np.sum(r[trunc.paths_at(k).source] ** 2)))


def _mixed_even_sphere(dims):
    g = sphere_even_graph(2)  # "3" and "4" receive nothing: identity blocks
    return random_module(g, dict(zip(g.vertices, dims)), 5)


GRAM_CASES = {
    "unfed fiber": unfed_fiber_module,
    "even sphere": lambda: _mixed_even_sphere((2, 3, 1, 2)),
    "even sphere, zero fiber": lambda: _mixed_even_sphere((1, 2, 0, 3)),
    "even sphere, perturbed": lambda: perturb_edge(_mixed_even_sphere((2, 3, 1, 2)), "14", 1e-3),
    "odd sphere, perturbed": lambda: perturb_edge(
        random_module(sphere_odd_graph(3), {"1": 2, "2": 1, "3": 2}, 6), "22", 1e-2),
}


class TestGramFromPlacement:
    """The embedding Gram residual of `ck_residuals`, read off the block
    placement, against the expanded embedding and the module relation."""

    @staticmethod
    def _check(module):
        t = lift(module, 4, validate=False)
        report = ck_residuals(t)
        for k in range(5):
            assert report.embed_isometry[k] == reference_gram_residual(t.embed_map(k)), k
            assert report.embed_isometry[k] == pytest.approx(_relation_gram(t, k),
                                                             rel=0, abs=1e-12), k

    @pytest.mark.parametrize("name", sorted(GRAM_CASES))
    def test_named_modules(self, name):
        self._check(GRAM_CASES[name]())

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph=supported_graphs(), seed=st.integers(0, 2**16))
    def test_random_modules(self, graph, seed):
        dims = random_feasible_dims(graph, np.random.default_rng(seed), hi=3)
        module = random_module(graph, dims, seed)
        self._check(module)
        live = [e.id for e in graph.edges if module.ops[e.id].size]
        if live:
            self._check(perturb_edge(module, live[seed % len(live)], 1e-3))

    def test_check_expands_no_embedding(self, monkeypatch):
        module = GRAM_CASES["even sphere, perturbed"]()
        t = lift(module, 3, validate=False)
        want = [reference_gram_residual(t.embed_map(k)) for k in range(4)]

        def refuse(*args, **kwargs):
            raise AssertionError("embedding expanded")

        monkeypatch.setattr(TruncatedLift, "embed_map", refuse)
        report = ck_residuals(lift(module, 3, validate=False))
        assert [report.embed_isometry[k] for k in range(4)] == want


_RUN_GRAPHS = st.one_of(
    supported_graphs(),
    st.sampled_from([LensParams(2, 3, (1, 1)), LensParams(3, 4, (1, 1, 3))]).map(
        lens_graph_coprime),
)


def _run_spans(monkeypatch) -> list[tuple[int, int]]:
    """The (first, stop) level span of every Gram run from now on."""
    spans = []
    gram_run = TruncatedLift._gram_run
    monkeypatch.setattr(TruncatedLift, "_gram_run",
                        lambda t, first, stop: spans.append((first, stop))
                        or gram_run(t, first, stop))
    return spans


class TestGramRuns:
    """`ck_residuals` takes the embedding Gram of consecutive levels in runs
    under a term budget; each level's residual is bitwise the one the
    expanded embedding of that level alone gives."""

    @pytest.mark.parametrize("budget", [lifting._GRAM_TERMS_PER_RUN, 1, 64])
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(graph=_RUN_GRAPHS, level=st.integers(0, 6), seed=st.integers(0, 2**16),
           kind=st.sampled_from(["valid", "perturbed", "any fibers"]), data=st.data())
    def test_runs_match_the_one_level_reference(self, budget, graph, level, seed, kind, data):
        rng = np.random.default_rng(seed)
        if kind == "any fibers":  # a level may then have no row that reads a lower path
            dims = {v: data.draw(st.integers(0, 3)) for v in graph.vertices}
            module = PythagoreanModule(graph, dims, {
                e.id: rng.standard_normal((dims[e.source], dims[e.range], 2)) @ [1, 1j]
                for e in graph.edges})
        else:
            module = random_module(graph, random_feasible_dims(graph, rng, hi=3), seed)
            live = [e.id for e in graph.edges if module.ops[e.id].size]
            if kind == "perturbed" and live:
                module = perturb_edge(module, live[seed % len(live)], 1e-3)
        t = lift(module, level, validate=False)
        with mock.patch.object(lifting, "_GRAM_TERMS_PER_RUN", budget):
            report = ck_residuals(t)
        assert list(report.embed_isometry) == list(range(level + 1))
        for k in range(level + 1):
            assert report.embed_isometry[k] == reference_gram_residual(t.embed_map(k)), k

    @pytest.mark.parametrize("budget, spans", [
        (None, [(0, 5)]),  # every level in one run
        (20, [(0, 2), (2, 4), (4, 5)]),  # two levels of 8 terms per run
        (5, [(k, k + 1) for k in range(5)]),  # 8 terms each: every level alone
    ])
    def test_levels_run_together_within_the_budget(self, monkeypatch, budget, spans):
        # one vertex with a loop and fiber 2: one row per level, 8 terms a row
        module = random_module(sphere_odd_graph(1), {"1": 2}, 3)
        if budget is not None:
            monkeypatch.setattr(lifting, "_GRAM_TERMS_PER_RUN", budget)
        got = _run_spans(monkeypatch)
        t = lift(module, 4, validate=False)
        report = ck_residuals(t)
        assert got == spans
        assert [report.embed_isometry[k] for k in range(5)] == [
            reference_gram_residual(t.embed_map(k)) for k in range(5)]

    @pytest.mark.parametrize("module, level, want", [
        (unfed_fiber_module(), 2, {0: np.sqrt(2), 1: 0.0, 2: 0.0}),
        (PythagoreanModule(Graph(("v",), ()), {"v": 0}, {}), 1, {0: 0.0, 1: 0.0}),
    ])
    def test_run_without_terms_gives_float_slots(self, monkeypatch, module, level, want):
        # no level of these lifts has a row that reads a lower path
        got = _run_spans(monkeypatch)
        report = ck_residuals(lift(module, level, validate=False))
        assert got == [(0, level + 1)]
        assert report.embed_isometry == want

    def test_thin_lift_at_the_level_cap(self):
        t = lift(one_dim_module(sphere_odd_graph(1), "1", 1j), MAX_LEVEL, validate=False)
        assert ck_residuals(t).embed_isometry == dict.fromkeys(range(MAX_LEVEL + 1), 0.0)


class TestWords:
    def test_vertex_word_is_projection(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 1, "2": 1}, 0)
        t = lift(m, 2)
        out = word_operator(t, ["1"], 1)
        assert np.array_equal(out.matrix, t.projection_matrix("1", 1))
        assert (out.source_level, out.target_level) == (1, 1)

    def test_adjoint_pair_is_source_projection(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 0)
        t = lift(m, 3)
        out = word_operator(t, ["21*", "21"], 1)
        assert np.allclose(out.matrix, t.projection_matrix("1", 1))

    @pytest.mark.parametrize("vertex,k", [("1", 1), ("2", 3), ("3", 5)])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_loop_word_scales_reduced_classes(self, vertex, k, m):
        g = sphere_odd_graph(3)
        z = cmath.exp(2j * cmath.pi * k / 8)
        t = lift(one_dim_module(g, vertex, z), m)
        loop = vertex * 2
        low = t.reduce_class(vertex, [1.0], m - 1)
        high = t.reduce_class(vertex, [1.0], m)
        out = word_operator(t, [loop], m - 1)
        assert np.allclose(out.matrix @ low.coeffs, np.conj(z) * high.coeffs,
                           atol=1e-12)
        assert out.target_level == m

    def test_level_underflow_rejected(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match="underflow"):
            word_operator(t, ["11*"], 0)

    def test_level_overflow_rejected(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match="overflow"):
            word_operator(t, ["11"], 2)

    def test_unknown_symbol_rejected(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match="unknown symbol"):
            word_operator(t, ["zz"], 1)

    @pytest.mark.parametrize("word,start", [
        (["21"], 0), (["21*"], 1), (["2", "21", "11*", "11", "1"], 1),
        (["22*", "21", "1", "11*", "21*", "22"], 2), (["11", "22", "21*"], 2),
    ])
    def test_word_equals_dense_product(self, word, start):
        g = sphere_odd_graph(2)
        t = lift(random_module(g, {"1": 2, "2": 1}, 3), 3)
        mat = np.eye(t.dimension_at(start))
        k = start
        for token in reversed(word):
            if token.endswith("*"):
                mat = t.edge_matrix(token[:-1], k - 1).T @ mat
                k -= 1
            elif token in g.edge_by_id:
                mat = t.edge_matrix(token, k) @ mat
                k += 1
            else:
                mat = t.projection_matrix(token, k) @ mat
        out = word_operator(t, word, start)
        assert out.target_level == k
        assert np.array_equal(out.matrix, mat)

    def test_mixed_word_tracks_levels(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 3)
        t = lift(m, 2)
        out = word_operator(t, ["2", "21", "11*", "11", "1"], 1)
        assert (out.source_level, out.target_level) == (1, 2)
        direct = (
            t.projection_matrix("2", 2)
            @ t.edge_matrix("21", 1)
            @ t.edge_matrix("11", 1).T
            @ t.edge_matrix("11", 1)
            @ t.projection_matrix("1", 1)
        )
        assert np.allclose(out.matrix, direct)


def _random_word(g: Graph, rng, start: int, top: int) -> list[str]:
    """A word of up to 8 symbols whose levels stay within 0..top from start,
    listed rightmost (first applied) last."""
    word, k = [], start
    for _ in range(rng.integers(1, 9)):
        choices = list(g.vertices)
        if k < top:
            choices += [e.id for e in g.edges]
        if k > 0:
            choices += [e.id + "*" for e in g.edges]
        token = choices[rng.integers(len(choices))]
        k += 1 if token in g.edge_by_id else -1 if token.endswith("*") else 0
        word.insert(0, token)
    return word


class TestActOnVectors:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_word_operator(self, seed):
        rng = np.random.default_rng(seed)
        g = [sphere_odd_graph(2), sphere_even_graph(2), projective_graph(2)][seed % 3]
        t = lift(random_module(g, random_feasible_dims(g, rng), seed), 3)
        for _ in range(10):
            start = int(rng.integers(0, 4))
            word = _random_word(g, rng, start, 3)
            x = rng.standard_normal(t.dimension_at(start)) + 1j * rng.standard_normal(
                t.dimension_at(start))
            y, k = x, start
            for token in reversed(word):
                y, k = _act(t, token, y, k)
            out = word_operator(t, word, start)
            assert k == out.target_level
            assert np.allclose(y, out.matrix @ x)


class TestLoopEigenvalue:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_phase_modules_give_the_conjugate_phase(self, level):
        g = sphere_odd_graph(3)
        for v in g.vertices:
            for k in range(1, 8):
                z = cmath.exp(2j * cmath.pi * k / 8)
                t = lift(one_dim_module(g, v, z), level)
                value, residual = loop_eigenvalue(t, v)
                assert value == pytest.approx(z.conjugate(), abs=1e-15)
                assert residual <= 1e-15  # zero but for the quotient's rounding

    def test_loopless_vertex_refused(self):
        t = lift(isolated_module(sphere_even_graph(2), "3"), 2)
        with pytest.raises(LiftError, match="carries 0 loops"):
            loop_eigenvalue(t, "3")

    def test_unknown_vertex_refused(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            loop_eigenvalue(phase_lift("1", Z8, 2), "9")

    def test_zero_fiber_refused(self):
        with pytest.raises(LiftError, match="fiber at '2' is zero-dimensional"):
            loop_eigenvalue(phase_lift("1", Z8, 2), "2")

    def test_class_reducing_to_zero_refused(self):
        graph = Graph(("1",), (Edge("11", "1", "1"),))
        m = PythagoreanModule(graph, {"1": 1}, {"11": np.zeros((1, 1))})
        with pytest.raises(LiftError, match="the class at '1' reduces to zero"):
            loop_eigenvalue(lift(m, 1, validate=False), "1")

    def test_level_zero_lift_refused(self):
        with pytest.raises(LiftError, match="level at least 1"):
            loop_eigenvalue(phase_lift("1", Z8, 0), "1")


class TestFunctoriality:
    def test_identity_lifts_to_identity(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 5)
        t = lift(m, 2)
        theta = {v: np.eye(m.dims[v]) for v in g.vertices}
        assert np.array_equal(lift_intertwiner(theta, t, t).toarray(), np.eye(t.dimension))

    def test_lifted_map_commutes_with_generators(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 1, "2": 1}, 1)
        b = random_module(g, {"1": 2, "2": 1}, 2)
        s = direct_sum(a, b)
        ts = lift(s, 3)
        theta = {
            v: np.eye(s.dims[v], dtype=complex) * (1.5 - 0.5j) for v in g.vertices
        }
        for k in range(3):
            low = lift_intertwiner(theta, ts, ts, level=k).toarray()
            high = lift_intertwiner(theta, ts, ts, level=k + 1).toarray()
            for e in g.edges:
                mat = ts.edge_matrix(e.id, k)
                assert np.allclose(high @ mat, mat @ low, atol=1e-12)
            emb = ts.embed_matrix(k)
            assert np.allclose(high @ emb, emb @ low, atol=1e-12)

    def test_cross_module_map_between_isomorphic_summands(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 2, "2": 1}, 30)
        ta = lift(a, 2)
        theta = {v: 2.0 * np.eye(a.dims[v]) for v in g.vertices}
        mat = lift_intertwiner(theta, ta, ta).toarray()
        assert np.allclose(mat, 2.0 * np.eye(ta.dimension))

    def test_zero_map_lifts_to_zero(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 1, "2": 1}, 1)
        b = random_module(g, {"1": 2, "2": 2}, 2)
        theta = {v: np.zeros((b.dims[v], a.dims[v])) for v in g.vertices}
        mat = lift_intertwiner(theta, lift(a, 2), lift(b, 2)).toarray()
        assert not mat.any()

    def test_non_intertwiner_rejected(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 1, "2": 1}, 1)
        b = random_module(g, {"1": 1, "2": 1}, 2)
        theta = {v: np.eye(1) for v in g.vertices}
        with pytest.raises(LiftError, match="not an intertwiner"):
            lift_intertwiner(theta, lift(a, 2), lift(b, 2))

    @pytest.mark.parametrize("graph", [sphere_odd_graph(3), sphere_even_graph(2)])
    def test_summand_maps_across_zero_fibers(self, graph):
        """Inclusion of a summand with zero fibers into the sum, and the
        projection back: the two lifts keep different paths."""
        dims_a = {v: int(i % 2 == 0) for i, v in enumerate(graph.vertices)}
        a = random_module(graph, dims_a, 3)
        s = direct_sum(a, random_module(graph, {v: 1 for v in graph.vertices}, 4))
        into = {v: np.eye(s.dims[v], a.dims[v]) for v in graph.vertices}
        back = {v: np.eye(a.dims[v], s.dims[v]) for v in graph.vertices}
        for m in range(4):
            ta, ts = lift(a, m), lift(s, m)
            for theta, source, target in ((into, ta, ts), (back, ts, ta)):
                got = lift_intertwiner(theta, source, target).toarray()
                rows = {}
                for i, (p, _) in enumerate(target.basis_at(m)):
                    rows.setdefault((p.edges, p.base), i)
                want = np.zeros_like(got)
                for col, (p, b) in enumerate(source.basis_at(m)):
                    row0 = rows.get((p.edges, p.base))
                    if row0 is not None:
                        block = theta[p.source][:, b]
                        want[row0 : row0 + block.size, col] = block
                assert np.array_equal(got, want), m

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_rejected(self, bad):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match="vertex '1': operator has non-finite"):
            lift_intertwiner({"1": [[bad]]}, t, t)

    def test_block_shape_names_vertex(self):
        t = phase_lift("1", Z8, 2)
        with pytest.raises(LiftError, match=r"vertex '1': operator shape \(2, 2\)"):
            lift_intertwiner({"1": np.eye(2)}, t, t)

    @pytest.mark.parametrize("key", ["9", 1])
    def test_unknown_vertex_key_rejected(self, key):
        t = lift(one_dim_module(sphere_odd_graph(2), "1", 1j), 2)
        with pytest.raises(LiftError, match=rf"theta names unknown vertices \[{key!r}\]"):
            lift_intertwiner({key: [[1.0]]}, t, t)

    def test_level_mismatch_rejected(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 1, "2": 1}, 1)
        theta = {v: np.eye(1) for v in g.vertices}
        with pytest.raises(LiftError, match="different levels"):
            lift_intertwiner(theta, lift(a, 1), lift(a, 2))


    def test_wide_lens_identity_stays_sparse(self):
        # a dense 12,700 x 12,700 complex matrix would take about 2.6 GB
        g = lens_graph_coprime(LensParams(5, 5, (1, 1, 1, 1, 1)))
        m = random_module(g, {v: 2 for v in g.vertices}, 1)
        t = lift(m, 3)
        x = np.random.default_rng(0).standard_normal(t.dimension) + 0j
        theta = {v: np.eye(2) for v in g.vertices}
        tracemalloc.start()
        try:
            got = lift_intertwiner(theta, t, t).apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.dimension == 12_700
        assert peak < 16 * 2**20
        assert np.array_equal(got, x)


def _random_intertwiner(space, rng) -> dict:
    coeff = rng.standard_normal(space.dimension) + 1j * rng.standard_normal(space.dimension)
    return {v: sum(c * b[v] for c, b in zip(coeff, space.basis))
            for v in space.source.graph.vertices}


def _scatter(trunc, edge_id: str, k: int, x: np.ndarray) -> np.ndarray:
    """E_e x for x in W_k, through the stored edge images."""
    out = np.zeros(trunc.dimension_at(k + 1), dtype=np.complex128)
    source = trunc.module.graph.edge_by_id[edge_id].source
    np.add.at(out, trunc.edge_images(edge_id, k), x[trunc.block(source, k)])
    return out


class TestFunctorLaws:
    """The lift as a functor on random modules over supported graphs."""

    @staticmethod
    def _module(graph, seed):
        dims = random_feasible_dims(graph, np.random.default_rng(seed), hi=2)
        return random_module(graph, dims, seed)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph=supported_graphs(), seed=st.integers(0, 2**16), level=st.integers(0, 3))
    def test_identity_lifts_to_identity(self, graph, seed, level):
        module = self._module(graph, seed)
        t = lift(module, level)
        theta = {v: np.eye(module.dims[v]) for v in graph.vertices}
        rng = np.random.default_rng(seed)
        for k in range(level + 2):
            got = lift_intertwiner(theta, t, t, level=k)
            n = t.dimension_at(k)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert got.shape == (n, n)
            assert np.array_equal(got.apply(x), x), k

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph=supported_graphs(), seed=st.integers(0, 2**16), level=st.integers(0, 3))
    def test_composition_and_commutation(self, graph, seed, level):
        a = self._module(graph, seed)
        s = direct_sum(a, a)
        rng = np.random.default_rng(seed)
        space = intertwiner_space(s, s)
        psi, theta = _random_intertwiner(space, rng), _random_intertwiner(space, rng)
        both = {v: psi[v] @ theta[v] for v in graph.vertices}
        t = lift(s, level)
        lifted = [lift_intertwiner(theta, t, t, level=k) for k in range(level + 2)]
        for k in range(level + 2):
            n = t.dimension_at(k)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            up = lifted[k].apply(x)
            got = lift_intertwiner(both, t, t, level=k).apply(x)
            assert np.allclose(got, lift_intertwiner(psi, t, t, level=k).apply(up),
                               rtol=0, atol=1e-10), k
            if k > level:
                continue
            for e in graph.edges:
                assert np.allclose(lifted[k + 1].apply(_scatter(t, e.id, k, x)),
                                   _scatter(t, e.id, k, up), rtol=0, atol=1e-10), (k, e.id)
            emb = t.embed_map(k)
            assert np.allclose(lifted[k + 1].apply(emb.apply(x)), emb.apply(up),
                               rtol=0, atol=1e-10), k

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph=supported_graphs(), seed=st.integers(0, 2**16), level=st.integers(0, 3))
    def test_validity_is_embedding_isometry(self, graph, seed, level):
        module = self._module(graph, seed)
        live = [e.id for e in graph.edges if module.dims[e.source] and module.dims[e.range]]
        cases = [(module, True)]
        if live:
            cases.append((perturb_edge(module, live[seed % len(live)], 1e-3), False))
        for m, valid in cases:
            report = ck_residuals(lift(m, level, validate=False))
            assert validate_module(m).passed == valid
            assert all(r <= 1e-9 for r in report.embed_isometry.values()) == valid

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(graph=supported_graphs())
    def test_opposite_is_an_involution(self, graph):
        assert opposite(opposite(graph)) == graph


class TestAdditivity:
    def _split_columns(self, total, first):
        left, right = [], []
        for i, (p, b) in enumerate(total):
            if b < first.dims[p.source]:
                left.append(i)
            else:
                right.append(i)
        return np.array(left, dtype=int), np.array(right, dtype=int)

    def test_sum_lift_splits_into_blocks(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 2, "2": 1}, 40)
        b = random_module(g, {"1": 1, "2": 1}, 41)
        level = 2
        ts, ta, tb = lift(direct_sum(a, b), level), lift(a, level), lift(b, level)
        for k in range(level + 1):
            assert ts.dimension_at(k) == ta.dimension_at(k) + tb.dimension_at(k)
        rows_a, rows_b = self._split_columns(ts.basis_at(level + 1), a)
        cols_a, cols_b = self._split_columns(ts.basis_at(level), a)
        for e in g.edges:
            mat = ts.edge_matrix(e.id, level)
            assert np.array_equal(mat[np.ix_(rows_a, cols_a)],
                                  ta.edge_matrix(e.id, level))
            assert np.array_equal(mat[np.ix_(rows_b, cols_b)],
                                  tb.edge_matrix(e.id, level))
            assert not mat[np.ix_(rows_a, cols_b)].any()
            assert not mat[np.ix_(rows_b, cols_a)].any()

    def test_sum_embedding_splits_too(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 1, "2": 1}, 42)
        b = random_module(g, {"1": 2, "2": 0}, 43)
        ts, ta, tb = lift(direct_sum(a, b), 1), lift(a, 1), lift(b, 1)
        rows_a, rows_b = self._split_columns(ts.basis_at(2), a)
        cols_a, cols_b = self._split_columns(ts.basis_at(1), a)
        emb = ts.embed_matrix(1)
        assert np.allclose(emb[np.ix_(rows_a, cols_a)], ta.embed_matrix(1))
        assert np.allclose(emb[np.ix_(rows_b, cols_b)], tb.embed_matrix(1))
        assert not emb[np.ix_(rows_a, cols_b)].any()


class TestReduceThroughEmbeddings:
    @pytest.mark.parametrize("name", sorted(PARITY_GRAPHS))
    def test_equals_iterated_embeddings(self, name):
        modules = _parity_modules(name)
        rng = np.random.default_rng(7)
        for kind in ("valid", "zero fiber"):
            t = lift(modules[kind], 4)
            for length in range(5):
                for p, b in t.basis_at(length):
                    if b or p.length != length:
                        continue
                    d = t.module.dims[p.source]
                    xi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                    x = t.reduce_class(p, xi, length)
                    for m in range(length, 5):
                        got = t.reduce_class(p, xi, m).coeffs
                        assert np.array_equal(got, x.coeffs), (kind, p.display, m)
                        assert np.allclose(got, expand_class(t, p, xi, m),
                                           rtol=0, atol=1e-12)
                        if m < 4:
                            x = embed_vector(x)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_nan_is_not_dropped(self):
        report = ck_residuals(lift(overflow_module(), 2, validate=False))
        assert report.edge_isometry["11"] == 0.0  # a clean residual comes first
        assert np.isnan(report.max_residual)
        assert not report.passed()


TRIE_FAMILIES = (
    lambda: sphere_odd_graph(1),
    lambda: sphere_odd_graph(3),
    lambda: sphere_odd_graph(4),
    lambda: sphere_even_graph(1),
    lambda: sphere_even_graph(3),
    lambda: projective_graph(3),
    lambda: lens_graph_coprime(LensParams(2, 3, (1, 1))),
    lambda: lens_graph_coprime(LensParams(3, 4, (1, 3, 1))),
)


class TestTrieAgainstOracle:
    """The path trie against the DFS-based builders in `helpers`."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=st.one_of(
               st.tuples(st.one_of(st.sampled_from(TRIE_FAMILIES).map(lambda make: make()),
                                   supported_graphs()), st.integers(0, 5)),
               st.tuples(small_multigraphs(), st.integers(0, 4))),
           seed=st.integers(0, 2**16))
    def test_matches_reference_builders(self, case, seed):
        graph, level = case
        dims = random_feasible_dims(graph, np.random.default_rng(seed), hi=2)
        module = random_module(graph, dims, seed)
        t = lift(module, level, validate=False)
        seqs: list[tuple[int, ...]] = []
        for k in range(level + 2):
            seqs = self.check_fields(t, k, seqs)
            entries, index = reference_basis(module, k)
            assert t.basis_at(k) == tuple(entries)
            assert t.dimension_at(k) == len(entries)
            for (edges, base), at in index.items():
                assert t._offset(k, Path(graph, edges, base=base)) == at
            if k > level:
                continue
            for eid, want in reference_edge_targets(module, k).items():
                # the edge maps its source block and sends the rest to zero
                block = t.block(graph.edge_by_id[eid].source, k)
                assert (want[: block.start] == -1).all(), (k, eid)
                assert (want[block.stop :] == -1).all(), (k, eid)
                images = t.edge_images(eid, k)
                assert not images.flags.writeable
                assert np.array_equal(images, want[block]), (k, eid)
            emb = t.embed_map(k)
            rows, cols, vals = reference_embed_map(module, k)
            assert np.array_equal(emb.rows, rows)
            assert np.array_equal(emb.cols, cols)
            assert np.array_equal(emb.vals, vals)

    @staticmethod
    def check_fields(t: TruncatedLift, k: int, seqs: list[tuple[int, ...]]):
        """Assert every `PathLevel` field of level k against the edge
        sequence of each path, rebuilt from `parent` and `edge` on the
        sequences of level k-1; return the sequences of level k."""
        g = t.module.graph
        vid = g.vertex_index
        source = [vid[e.source] for e in g.edges]
        target = [vid[e.range] for e in g.edges]
        level = t.paths_at(k)
        parent, edge = level.parent.tolist(), level.edge.tolist()
        assert all((p < 0) == (e < 0) for p, e in zip(parent, edge)), k
        seqs = [() if p < 0 else seqs[p] + (e,) for p, e in zip(parent, edge)]
        for i, seq in enumerate(seqs):
            assert all(target[a] == source[b] for a, b in zip(seq, seq[1:])), (k, i)
            assert level.head[i] == (seq[0] if seq else -1), (k, i)
            assert level.length[i] == len(seq), (k, i)
            if seq:
                assert level.source[i] == source[seq[0]], (k, i)
                assert level.range[i] == target[seq[-1]], (k, i)
            else:  # at every live vertex at level 0, above where no edge arrives
                assert level.source[i] == level.range[i], (k, i)
                assert k == 0 or not g.in_edges(g.vertices[level.range[i]]), (k, i)
        if k <= t.level:  # the children of each path, one level up
            up = t.paths_at(k + 1)
            child = {(p, e): j for j, (p, e) in enumerate(zip(up.parent.tolist(),
                                                              up.edge.tolist())) if p >= 0}
            assert len(child) == sum(len(g.out_edges(g.vertices[v]))
                                     for v in level.range.tolist()), k
            for i, v in enumerate(level.range.tolist()):
                out = sorted(g.out_edges(g.vertices[v]), key=lambda e: e.id)
                for r, e in enumerate(out):
                    assert child[i, t._edge_index[e.id]] == level.first[i] + r, (k, i, e.id)
        return seqs

    @pytest.mark.parametrize("g, top", [
        (sphere_even_graph(2), 40),  # two vertices receive no edge
        (sphere_odd_graph(3), 40),
        (lens_graph_coprime(LensParams(3, 4, (1, 3, 1))), 12),
    ])
    def test_deep_levels_follow_traversal_order(self, g, top):
        # basis order checked directly, far past the oracle's levels: range,
        # then the sequence of edge ranks, a path before its extensions
        module = random_module(g, {v: 1 for v in g.vertices}, 3)
        t = lift(module, top, validate=False)
        rank = {eid: r for r, eid in enumerate(sorted(g.edge_by_id))}
        rootless = all(g.in_edges(v) for v in g.vertices)
        seqs: list[tuple] = []
        for k in range(top + 1):
            level = t.paths_at(k)
            seqs = [() if p < 0 else seqs[p] + (rank[g.edges[e].id],)
                    for p, e in zip(level.parent.tolist(), level.edge.tolist())]
            want = sorted(range(len(seqs)), key=lambda i: (level.range[i], seqs[i]))
            assert level.order.tolist() == want, k
            if rootless and k >= 2:  # stored in traversal order
                assert seqs == sorted(seqs), k
                assert np.array_equal(level.order, level.range.argsort(kind="stable")), k

    def test_deep_trie_builds_quickly(self):
        # each level is ordered from the one below, so the work per path
        # does not grow with the level
        start = time.perf_counter()
        t = lift(one_dim_module(sphere_odd_graph(3), "1", 1j), 200)
        assert t.dimension_at(201) == 202 * 203 // 2
        assert time.perf_counter() - start < 1.0
