"""Module construction, validation, and structure analysis."""

import cmath

import numpy as np
import pytest

from graphlift import (
    EQUIVALENT,
    INEQUIVALENT,
    Edge,
    Graph,
    ModuleError,
    Path,
    PythagoreanModule,
    are_equivalent,
    direct_sum,
    intertwiner_space,
    is_indecomposable,
    is_irreducible,
    isolated_module,
    one_dim_module,
    path_operator,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
    validate_module,
)

from helpers import (
    dense_commutant_dim,
    orbit_span_dim,
    overflow_module,
    perturb_edge,
    random_feasible_dims,
)


def loop_only_graph() -> Graph:
    return Graph(("1",), (Edge("11", "1", "1"),))


def unitary_conjugate(module: PythagoreanModule, seed: int) -> PythagoreanModule:
    """Equivalent copy: conjugate every operator by graded random unitaries."""
    rng = np.random.default_rng(seed)
    us = {}
    for v in module.graph.vertices:
        d = module.dims[v]
        sample = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        us[v] = np.linalg.qr(sample)[0] if d else np.zeros((0, 0))
    ops = {
        e.id: us[e.source] @ module.ops[e.id] @ us[e.range].conj().T
        for e in module.graph.edges
    }
    return PythagoreanModule(module.graph, module.dims, ops)


class TestConstruction:
    def test_shape_mismatch_names_edge(self):
        g = sphere_odd_graph(2)
        ops = {"11": np.eye(1), "21": np.zeros((2, 2)), "22": np.eye(1)}
        with pytest.raises(ModuleError, match="'21'"):
            PythagoreanModule(g, {"1": 1, "2": 1}, ops)

    def test_missing_operator_rejected(self):
        g = sphere_odd_graph(2)
        with pytest.raises(ModuleError, match="missing operator"):
            PythagoreanModule(g, {"1": 1, "2": 1}, {"11": np.eye(1)})

    def test_unknown_edge_rejected(self):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="unknown edges"):
            PythagoreanModule(g, {"1": 1}, {"11": np.eye(1), "xx": np.eye(1)})

    def test_unknown_vertex_rejected(self):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="unknown vertices"):
            PythagoreanModule(g, {"9": 1}, {"11": np.eye(1)})

    def test_negative_dim_rejected(self):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="negative"):
            PythagoreanModule(g, {"1": -1}, {"11": np.zeros((0, 0))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_operator_names_edge(self, bad):
        g = sphere_odd_graph(2)
        ops = {"11": np.eye(1), "21": np.array([[bad]]), "22": np.eye(1)}
        with pytest.raises(ModuleError, match="'21': operator has non-finite"):
            PythagoreanModule(g, {"1": 1, "2": 1}, ops)

    def test_empty_operators_normalized(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "1", 1j)
        assert m.ops["21"].shape == (1, 0)
        assert m.ops["22"].shape == (0, 0)

    def test_offsets_walk_vertex_order(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 0, "3": 3}, 0)
        assert m.offsets == {"1": 0, "2": 2, "3": 2}
        assert m.total_dim == 5


class TestValidation:
    def test_phase_module_residual_zero(self):
        g = sphere_odd_graph(2)
        report = validate_module(one_dim_module(g, "1", 1j))
        assert report.residuals["1"] == 0.0
        assert "2" in report.exempt  # zero fiber there
        assert report.passed

    def test_random_modules_pass_tightly(self):
        g = sphere_odd_graph(2)
        report = validate_module(random_module(g, {"1": 2, "2": 1}, 7))
        assert report.max_residual <= 1e-12

    def test_doubled_edge_fails(self):
        g = loop_only_graph()
        m = PythagoreanModule(g, {"1": 2}, {"11": 2 * np.linalg.qr(np.eye(2))[0]})
        report = validate_module(m)
        assert not report.passed
        assert report.residuals["1"] == pytest.approx(3 * np.sqrt(2), rel=1e-12)

    def test_sources_exempt(self):
        g = sphere_even_graph(2)
        m = random_module(g, {"1": 1, "2": 1, "3": 1, "4": 1}, 3)
        report = validate_module(m)
        assert "3" in report.exempt and "4" in report.exempt

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_nan_is_not_dropped(self):
        report = validate_module(overflow_module())
        assert list(report.residuals) == ["1", "2"]
        assert report.residuals["1"] == 0.0 and np.isnan(report.residuals["2"])
        assert np.isnan(report.max_residual)
        assert not report.passed

    def test_tolerance_must_be_positive(self):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="positive"):
            validate_module(one_dim_module(g, "1", 1.0), tol=0.0)


class TestOneDimModules:
    def test_phase_module_layout(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "1", 1j)
        assert m.dims == {"1": 1, "2": 0}
        assert m.ops["11"][0, 0] == 1j

    def test_second_vertex(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "2", 1.0)
        assert m.dims == {"1": 0, "2": 1}
        assert m.ops["22"][0, 0] == 1.0

    def test_even_sphere_interior_vertex(self):
        g = sphere_even_graph(3)
        m = one_dim_module(g, "3", cmath.exp(2j * cmath.pi / 5))
        assert validate_module(m).passed

    def test_modulus_enforced(self):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="modulus 1"):
            one_dim_module(g, "1", 0.5)

    def test_loopless_vertex_rejected(self):
        g = sphere_even_graph(2)
        with pytest.raises(ModuleError, match="loops"):
            one_dim_module(g, "4", 1.0)

    def test_isolated_module_at_sources(self):
        g = sphere_even_graph(3)
        for v in ("4", "5"):
            m = isolated_module(g, v)
            assert m.total_dim == 1 and validate_module(m).passed

    def test_isolated_module_needs_a_source(self):
        g = sphere_odd_graph(2)
        with pytest.raises(ModuleError, match="receives edges"):
            isolated_module(g, "2")


class TestDirectSum:
    def test_dims_add(self):
        g = sphere_odd_graph(2)
        s = direct_sum(one_dim_module(g, "1", 1j), one_dim_module(g, "2", -1.0))
        assert s.dims == {"1": 1, "2": 1}

    def test_valid_plus_valid_is_valid(self):
        g = sphere_odd_graph(3)
        a = random_module(g, {"1": 2, "2": 1, "3": 1}, 1)
        b = random_module(g, {"1": 1, "2": 2, "3": 1}, 2)
        assert validate_module(direct_sum(a, b)).passed

    def test_blocks_land_in_place(self):
        g = loop_only_graph()
        a = one_dim_module(g, "1", 1j)
        b = one_dim_module(g, "1", -1j)
        s = direct_sum(a, b)
        assert np.array_equal(s.ops["11"], np.diag([1j, -1j]))

    def test_zero_summand_is_neutral(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 1, "2": 2}, 5)
        zero = PythagoreanModule(
            g, {}, {e.id: np.zeros((0, 0)) for e in g.edges}
        )
        s = direct_sum(a, zero)
        assert s.dims == a.dims
        assert all(np.array_equal(s.ops[k], a.ops[k]) for k in a.ops)

    def test_graph_mismatch_rejected(self):
        with pytest.raises(ModuleError, match="different graphs"):
            direct_sum(
                one_dim_module(sphere_odd_graph(1), "1", 1.0),
                one_dim_module(sphere_odd_graph(2), "1", 1.0),
            )


class TestRandomModule:
    def test_deterministic_in_seed(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 2, "2": 1}, 7)
        b = random_module(g, {"1": 2, "2": 1}, 7)
        assert all(np.array_equal(a.ops[k], b.ops[k]) for k in a.ops)

    def test_seed_changes_output(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 2, "2": 1}, 7)
        b = random_module(g, {"1": 2, "2": 1}, 8)
        assert not np.allclose(a.ops["11"], b.ops["11"])

    def test_square_case_is_unitary(self):
        m = random_module(loop_only_graph(), {"1": 2}, 0)
        u = m.ops["11"]
        assert np.allclose(u.conj().T @ u, np.eye(2))
        assert np.allclose(u @ u.conj().T, np.eye(2))

    def test_infeasible_isometry_rejected(self):
        g = Graph(("1", "2"), (Edge("a", "1", "2"),))
        with pytest.raises(ModuleError, match="no isometry"):
            random_module(g, {"1": 1, "2": 3}, 0)

    def test_zero_dim_targets_allowed(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 0}, 1)
        assert m.ops["21"].shape == (2, 0)


class TestPathOperator:
    def test_vertex_path_is_identity(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 2, "2": 1}, 4)
        assert np.array_equal(path_operator(m, Path(g, (), base="1")), np.eye(2))

    def test_loop_power_is_scalar_power(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "1", 1j)
        cube = path_operator(m, Path(g, ("11", "11", "11")))
        assert cube.shape == (1, 1) and cube[0, 0] == pytest.approx(-1j)

    def test_zero_dimensional_leg(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "1", 1j)
        op = path_operator(m, Path(g, ("21", "22")))
        assert op.shape == (1, 0)

    def test_contravariance_on_random_paths(self):
        from graphlift import compose_paths, enumerate_paths

        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 1, "3": 2}, 9)
        rng = np.random.default_rng(2)
        pool = enumerate_paths(g, 2)
        for _ in range(20):
            lam = pool[rng.integers(len(pool))]
            fits = [p for p in pool if p.range == lam.source]
            if not fits:
                continue
            mu = fits[rng.integers(len(fits))]
            lhs = path_operator(m, compose_paths(lam, mu))
            rhs = path_operator(m, mu) @ path_operator(m, lam)
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestIntertwiners:
    def test_self_hom_of_phase_module(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "1", 1j)
        assert intertwiner_space(m, m).dimension == 1

    def test_distinct_phases_have_no_maps(self):
        g = sphere_odd_graph(2)
        a = one_dim_module(g, "1", 1j)
        b = one_dim_module(g, "1", cmath.exp(0.3j))
        assert intertwiner_space(a, b).dimension == 0

    def test_distinct_vertices_have_no_maps(self):
        g = sphere_odd_graph(2)
        a = one_dim_module(g, "1", 1j)
        b = one_dim_module(g, "2", 1j)
        assert intertwiner_space(a, b).dimension == 0

    def test_basis_elements_intertwine(self):
        g = sphere_odd_graph(2)
        a = random_module(g, {"1": 2, "2": 1}, 3)
        s = direct_sum(a, a)
        space = intertwiner_space(s, s)
        assert space.dimension >= 4  # 2x2 matrices over the endomorphism field
        for theta in space.basis:
            for e in g.edges:
                lhs = theta[e.source] @ s.ops[e.id]
                rhs = s.ops[e.id] @ theta[e.range]
                assert np.allclose(lhs, rhs, atol=1e-9)

    def test_equal_sum_endomorphisms(self):
        g = sphere_odd_graph(2)
        a = one_dim_module(g, "1", 1j)
        b = one_dim_module(g, "2", 1j)
        assert intertwiner_space(direct_sum(a, a), direct_sum(a, a)).dimension == 4
        assert intertwiner_space(direct_sum(a, b), direct_sum(a, b)).dimension == 2


class TestStructure:
    def test_one_dim_modules_irreducible(self):
        g = sphere_even_graph(2)
        assert is_irreducible(one_dim_module(g, "1", 1j))
        assert is_irreducible(isolated_module(g, "3"))

    def test_direct_sum_reducible(self):
        g = sphere_odd_graph(2)
        s = direct_sum(one_dim_module(g, "1", 1j), one_dim_module(g, "1", -1j))
        assert not is_irreducible(s)
        assert not is_indecomposable(s)

    def test_diagonal_loop_module_splits(self):
        m = PythagoreanModule(
            loop_only_graph(), {"1": 2}, {"11": np.diag([1.0, -1.0])}
        )
        assert not is_irreducible(m)
        assert not is_indecomposable(m)

    def test_single_unitary_loop_is_commutative(self):
        # One normal generator spans a commutative algebra: never
        # irreducible once the fiber has dimension two or more.
        m = random_module(loop_only_graph(), {"1": 3}, 11)
        assert not is_irreducible(m)

    def test_two_loops_make_generic_fiber_irreducible(self):
        g = Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1")))
        m = random_module(g, {"1": 2}, 11)
        assert is_irreducible(m)
        assert is_indecomposable(m)

    def test_zero_module_has_no_verdict(self):
        g = loop_only_graph()
        zero = PythagoreanModule(g, {}, {"11": np.zeros((0, 0))})
        with pytest.raises(ModuleError):
            is_irreducible(zero)
        with pytest.raises(ModuleError):
            is_indecomposable(zero)


def _oracle_cases() -> list[tuple[str, PythagoreanModule]]:
    """Small modules meeting both verdicts: seeded randoms (total dim <= 6),
    phase-module sums, sums of randoms, and unitary conjugates of both."""
    graphs = {
        "loop": loop_only_graph(),
        "two-loop": Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1"))),
        "odd2": sphere_odd_graph(2),
        "odd3": sphere_odd_graph(3),
        "even2": sphere_even_graph(2),
    }
    rng = np.random.default_rng(31)
    cases = []
    for name, g in graphs.items():
        for k in range(4):
            dims = random_feasible_dims(g, rng, hi=2)
            while sum(dims.values()) > 6:
                dims = random_feasible_dims(g, rng, hi=2)
            m = random_module(g, dims, 100 + k)
            cases.append((f"{name}-random{k}", m))
            cases.append((f"{name}-conjugate{k}", unitary_conjugate(m, 200 + k)))
        small = random_module(g, {v: 1 for v in g.vertices if g.in_edges(v)}, 7)
        pair = direct_sum(small, random_module(g, small.dims, 8))
        cases.append((f"{name}-random-sum", pair))
        cases.append((f"{name}-random-sum-conjugate", unitary_conjugate(pair, 9)))
    g = sphere_odd_graph(2)
    z = cmath.exp(0.7j)
    phases = {
        "same": (one_dim_module(g, "1", z), one_dim_module(g, "1", z)),
        "distinct": (one_dim_module(g, "1", z), one_dim_module(g, "1", -z)),
        "vertices": (one_dim_module(g, "1", z), one_dim_module(g, "2", z)),
    }
    for name, (a, b) in phases.items():
        cases.append((f"phase-sum-{name}", direct_sum(a, b)))
        cases.append((f"phase-sum-{name}-conjugate", unitary_conjugate(direct_sum(a, b), 5)))
    return cases


ORACLE_CASES = _oracle_cases()


class TestStructureOracles:
    @pytest.mark.parametrize("module", [m for _, m in ORACLE_CASES],
                             ids=[name for name, _ in ORACLE_CASES])
    def test_indecomposable_matches_dense_commutant(self, module):
        assert is_indecomposable(module) == (dense_commutant_dim(module) == 1)

    @pytest.mark.parametrize("module", [m for _, m in ORACLE_CASES],
                             ids=[name for name, _ in ORACLE_CASES])
    def test_algebra_dimension_matches_gram_schmidt(self, module):
        from graphlift.modules import _algebra_dimension, _global_generators

        d = module.total_dim
        got = _algebra_dimension(_global_generators(module), d)
        assert got == orbit_span_dim(module, np.eye(d))

    def test_conjugated_scalar_sum_still_splits(self):
        # Conjugating a (+) a leaves only roundoff in the commutation system;
        # that must not count as rank.
        g = sphere_odd_graph(2)
        s = direct_sum(*[one_dim_module(g, "1", cmath.exp(0.7j))] * 2)
        c = unitary_conjugate(s, 5)
        assert not is_indecomposable(c)
        assert intertwiner_space(c, c).dimension == 4
        assert are_equivalent(s, c).verdict == EQUIVALENT

    def test_cases_meet_both_verdicts(self):
        verdicts = {is_indecomposable(m) for _, m in ORACLE_CASES}
        assert verdicts == {True, False}

    def test_total_dim_24(self):
        # The full-space commutant system here would need a ~4 GB SVD factor.
        g = sphere_odd_graph(4)
        assert is_indecomposable(random_module(g, {v: 6 for v in g.vertices}, 41))
        threes = {v: 3 for v in g.vertices}
        pair = direct_sum(random_module(g, threes, 42), random_module(g, threes, 43))
        assert not is_indecomposable(pair)


class TestEquivalence:
    def test_module_equivalent_to_itself(self):
        g = sphere_odd_graph(2)
        m = one_dim_module(g, "1", 1j)
        result = are_equivalent(m, m)
        assert result.verdict == EQUIVALENT
        assert abs(result.certificate["1"][0, 0]) > 0

    def test_distinct_phases_inequivalent(self):
        g = sphere_odd_graph(2)
        a = one_dim_module(g, "1", 1j)
        b = one_dim_module(g, "1", -1j)
        assert are_equivalent(a, b).verdict == INEQUIVALENT

    def test_distinct_vertices_inequivalent(self):
        g = sphere_odd_graph(2)
        a = one_dim_module(g, "1", 1j)
        b = one_dim_module(g, "2", 1j)
        assert are_equivalent(a, b).verdict == INEQUIVALENT

    def test_unitary_conjugate_equivalent_with_certificate(self):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 2, "3": 1}, 21)
        other = unitary_conjugate(m, 22)
        result = are_equivalent(m, other)
        assert result.verdict == EQUIVALENT
        theta = result.certificate
        for e in g.edges:
            lhs = theta[e.source] @ m.ops[e.id]
            rhs = other.ops[e.id] @ theta[e.range]
            assert np.allclose(lhs, rhs, atol=1e-8)
        for v in g.vertices:
            if m.dims[v]:
                assert np.linalg.matrix_rank(theta[v]) == m.dims[v]

    def test_zero_modules_equivalent(self):
        g = loop_only_graph()
        zero = PythagoreanModule(g, {}, {"11": np.zeros((0, 0))})
        assert are_equivalent(zero, zero).verdict == EQUIVALENT

    def test_perturbation_is_detected_by_validation_not_equivalence(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": 1, "2": 1}, 2)
        bad = perturb_edge(m, "21", 1e-2)
        assert validate_module(m).passed
        assert not validate_module(bad).passed
