"""Module construction, validation, and structure analysis."""

import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlift import (
    EQUIVALENT,
    INEQUIVALENT,
    Edge,
    Graph,
    LensParams,
    ModuleError,
    Path,
    PythagoreanModule,
    are_equivalent,
    direct_sum,
    intertwiner_space,
    is_indecomposable,
    is_irreducible,
    isolated_module,
    lens_graph_coprime,
    one_dim_module,
    projective_graph,
    random_module,
    sphere_even_graph,
    sphere_odd_graph,
    validate_module,
)

from graphlift import modules
from helpers import (
    compose_paths,
    dense_commutant_dim,
    dense_generators,
    kron_graded_nullspace,
    kron_graded_system,
    orbit_span_dim,
    overflow_module,
    path_operator,
    perturb_edge,
    random_feasible_dims,
    reference_edge_operators,
    reference_enumerate_paths,
    small_multigraphs,
    supported_graphs,
)


def loop_only_graph() -> Graph:
    return Graph(("1",), (Edge("11", "1", "1"),))


def two_loop_graph() -> Graph:
    return Graph(("1",), (Edge("a", "1", "1"), Edge("b", "1", "1")))


def two_vertex_graph() -> Graph:
    """Strongly connected: a loop at each vertex plus an edge each way."""
    return Graph(("a", "b"), (Edge("aa", "a", "a"), Edge("ab", "a", "b"),
                              Edge("ba", "b", "a"), Edge("bb", "b", "b")))


def three_cycle_graph() -> Graph:
    """Strongly connected: the cycle a -> b -> c -> a plus a loop at each."""
    return Graph(("a", "b", "c"), (
        Edge("aa", "a", "a"), Edge("ab", "a", "b"), Edge("bb", "b", "b"),
        Edge("bc", "b", "c"), Edge("cc", "c", "c"), Edge("ca", "c", "a"),
    ))


def dense_irreducible(module: PythagoreanModule) -> bool:
    """Reference verdict: the orbit of the identity is all of M_d."""
    d = module.total_dim
    return orbit_span_dim(module, np.eye(d)) == d * d


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


@st.composite
def _equivalence_pairs(draw):
    """(m1, m2, whether m2 is a unitary conjugate of m1) on a supported
    graph: a random module a against a conjugate, a + a against a conjugate,
    or a + b against a + c, for random modules a, b, c of the same fibers."""
    graph = draw(supported_graphs())
    seed = draw(st.integers(0, 2**16))
    dims = random_feasible_dims(graph, np.random.default_rng(seed), hi=2)
    a, b, c = (random_module(graph, dims, seed + i) for i in range(3))
    kind = draw(st.sampled_from(("conjugate", "repeated", "shared")))
    if kind == "conjugate":
        return a, unitary_conjugate(a, seed), True
    if kind == "repeated":
        s = direct_sum(a, a)
        return s, unitary_conjugate(s, seed), True
    return direct_sum(a, b), direct_sum(a, c), False


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

    def test_unknown_vertices_of_mixed_types_rejected(self):
        with pytest.raises(ModuleError) as err:
            PythagoreanModule(sphere_odd_graph(2), {1: 1, "9": 1}, {})
        assert str(err.value) == "dims name unknown vertices ['9', 1]"

    def test_unknown_edges_of_mixed_types_rejected(self):
        ops = {"11": np.eye(1), 1: np.eye(1), "zz": np.eye(1)}
        with pytest.raises(ModuleError) as err:
            PythagoreanModule(loop_only_graph(), {"1": 1}, ops)
        assert str(err.value) == "ops name unknown edges ['zz', 1]"

    def test_negative_dim_rejected(self):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="negative"):
            PythagoreanModule(g, {"1": -1}, {"11": np.zeros((0, 0))})

    @pytest.mark.parametrize("bad", [1.9, 1.0, False, np.float32(1.0)])
    def test_non_integer_dim_names_vertex(self, bad):
        with pytest.raises(ModuleError, match="dimension at vertex '1' must be a "
                                              "nonnegative integer"):
            PythagoreanModule(loop_only_graph(), {"1": bad}, {"11": np.eye(1)})

    def test_numpy_integer_dim_accepted(self):
        m = PythagoreanModule(loop_only_graph(), {"1": np.int64(1)}, {"11": np.eye(1)})
        assert m.dims == {"1": 1} and type(m.dims["1"]) is int

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
        projections = dense_generators(m)[:2]  # at "1" and "3"; "2" has none
        blocks = [np.flatnonzero(np.diag(p)).tolist() for p in projections]
        assert blocks == [[0, 1], [2, 3, 4]]
        assert m.total_dim == 5


def _fault(kind: str, a: np.ndarray):
    """Operator `a` changed by one kind of fault, or left valid in another
    form; None stands for a missing operator."""
    if kind in ("nan", "inf"):
        bad = np.array(a, dtype=np.complex128)
        bad.reshape(-1)[:1] = np.nan if kind == "nan" else complex(0, -np.inf)
        return bad if bad.size else np.array([[np.nan]])
    return {
        "missing": None,
        "shape": np.zeros((a.shape[0] + 1, a.shape[1])),
        "ragged": [[1.0], [1.0, 2.0]],
        "text": [["x"]],
        "scalar": 1.0,
        "list": a.tolist(),
        "real": a.real.copy(),
        "empty": [],
    }[kind]


def _operator_outcome(build):
    """The operators `build` returns, as bytes per edge, or its error."""
    try:
        ops = build()
    except Exception as exc:  # the one-pass check must raise what the walk does
        return type(exc), str(exc)
    return [(eid, a.dtype, a.shape, a.tobytes()) for eid, a in ops.items()]


class TestOperatorCheck:
    """The one-pass operator check of `PythagoreanModule` against the
    per-edge walk: the same operators, or the same error at the same edge."""

    @given(data=st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_walk(self, data):
        g = data.draw(small_multigraphs())
        dims = {v: data.draw(st.integers(0, 2)) for v in g.vertices}
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        ops = {}
        for e in g.edges:
            shape = (dims[e.source], dims[e.range])
            ops[e.id] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kinds = ("nan", "inf", "missing", "shape", "ragged", "text", "scalar",
                 "list", "real", "empty")
        for _ in range(data.draw(st.integers(0, 2)) if g.edges else 0):
            eid = data.draw(st.sampled_from([e.id for e in g.edges]))
            if isinstance(ops.get(eid), np.ndarray):
                ops[eid] = _fault(data.draw(st.sampled_from(kinds)), ops[eid])
        ops = {eid: a for eid, a in ops.items() if a is not None}
        got = _operator_outcome(lambda: PythagoreanModule(g, dims, ops).ops)
        want = _operator_outcome(lambda: reference_edge_operators(g, dims, ops))
        assert got == want

    @pytest.mark.parametrize("later", [np.zeros((2, 1)), [[1.0], [1.0, 2.0]], [["x"]]],
                             ids=["shape", "ragged", "text"])
    def test_first_of_two_bad_edges_named(self, later):
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 1, "2": 1, "3": 1}, 0)
        ops = dict(m.ops, **{"21": later, "11": np.array([[np.inf]]),
                             "33": np.array([[np.nan]])})
        with pytest.raises(ModuleError) as err:
            PythagoreanModule(g, m.dims, ops)
        assert str(err.value) == "edge '11': operator has non-finite entries"

    def test_valid_arrays_kept(self):
        m = random_module(sphere_odd_graph(3), {"1": 2, "2": 1, "3": 2}, 4)
        again = PythagoreanModule(m.graph, m.dims, m.ops)
        assert all(again.ops[eid] is a for eid, a in m.ops.items() if a.size)


class TestVerdictSizeLimit:
    """A verdict whose dense arrays would pass `_MAX_ENTRIES` is refused
    before it allocates; one at the limit runs."""

    @staticmethod
    def edgeless(d: int) -> PythagoreanModule:
        return PythagoreanModule(Graph(("v",), ()), {"v": d}, {})

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(modules, "_MAX_ENTRIES", 16)  # fiber 2: 2**4 entries
        m = self.edgeless(2)
        assert intertwiner_space(m, m).dimension == 4
        assert is_irreducible(m) is False
        assert is_indecomposable(m) is False
        assert are_equivalent(m, m).verdict == EQUIVALENT

    @pytest.mark.parametrize("verdict", [
        lambda m: intertwiner_space(m, m),
        is_irreducible,
        is_indecomposable,
        lambda m: are_equivalent(m, m),
    ])
    def test_over_limit_refused(self, monkeypatch, verdict):
        monkeypatch.setattr(modules, "_MAX_ENTRIES", 16)
        with pytest.raises(ModuleError, match="needs 81 complex entries, more than "
                                              "the 16 a module verdict may hold"):
            verdict(self.edgeless(3))

    def test_fiber_of_a_trillion(self):
        m = self.edgeless(10**12)
        with pytest.raises(ModuleError, match=f"in {10**24} unknowns needs"):
            is_indecomposable(m)


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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        g = loop_only_graph()
        with pytest.raises(ModuleError, match="positive finite"):
            validate_module(one_dim_module(g, "1", 1.0), tol=tol)


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

    @pytest.mark.parametrize("z", [complex("nan"), complex("nanj"), complex("nan+nanj")])
    def test_nan_modulus_refused(self, z):
        """A NaN phase fails the modulus test, not the operator check."""
        with pytest.raises(ModuleError) as info:
            one_dim_module(sphere_odd_graph(2), "1", z)
        assert str(info.value) == "loop scalar must have modulus 1, got |z| = nan"

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

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, None, "3"])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ModuleError, match="seed must be a nonnegative integer"):
            random_module(sphere_odd_graph(2), {"1": 1, "2": 1}, seed)

    def test_numpy_integers_accepted(self):
        g = sphere_odd_graph(2)
        m = random_module(g, {"1": np.int64(2), "2": np.int32(1)}, np.uint8(7))
        assert m.dims == {"1": 2, "2": 1}
        assert all(type(d) is int for d in m.dims.values())
        ref = random_module(g, {"1": 2, "2": 1}, 7)
        assert all(np.array_equal(m.ops[k], ref.ops[k]) for k in m.ops)

    @pytest.mark.parametrize("bad", [1.7, 2.0, True, np.float64(1.0), "1"])
    def test_non_integer_dim_names_vertex(self, bad):
        with pytest.raises(ModuleError, match="dimension at vertex '1' must be a "
                                              "nonnegative integer"):
            random_module(sphere_odd_graph(2), {"1": bad, "2": 1}, 0)

    def test_unknown_vertex_reads_as_in_the_constructor(self):
        g = sphere_odd_graph(2)
        with pytest.raises(ModuleError) as made:
            PythagoreanModule(g, {"9": 1, "1": 1}, {})
        with pytest.raises(ModuleError) as drawn:
            random_module(g, {"9": 1, "1": 1}, 0)
        assert str(drawn.value) == str(made.value) == "dims name unknown vertices ['9']"

    def test_unknown_vertices_of_mixed_types_drawn(self):
        with pytest.raises(ModuleError) as err:
            random_module(sphere_odd_graph(2), {1: 1, "9": 1}, 0)
        assert str(err.value) == "dims name unknown vertices ['9', 1]"


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
        g = sphere_odd_graph(3)
        m = random_module(g, {"1": 2, "2": 1, "3": 2}, 9)
        rng = np.random.default_rng(2)
        pool = reference_enumerate_paths(g, 2)
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
        g = two_loop_graph()
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
        "two-loop": two_loop_graph(),
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
        # The block dimensions add up to the dimension of the whole algebra,
        # and the verdict is irreducible exactly when that is all of M_d.
        d = module.total_dim
        got = sum(
            sum(modules._column_blocks(module, v).values())
            for v in module.graph.vertices if module.dims[v]
        )
        assert got == orbit_span_dim(module, np.eye(d))
        assert is_irreducible(module) == (got == d * d)

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


def _strongly_connected_cases() -> list[tuple[str, PythagoreanModule]]:
    """Seeded randoms at total dim <= 6 on the two strongly connected graphs,
    with sums and unitary conjugates, and supports on a single vertex."""
    cases = []
    for name, g, fibers in [
        ("two-vertex", two_vertex_graph(),
         [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (4, 2), (2, 0), (0, 1)]),
        ("three-cycle", three_cycle_graph(),
         [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 0, 0), (1, 0, 1)]),
    ]:
        for k, fiber in enumerate(fibers):
            m = random_module(g, dict(zip(g.vertices, fiber)), 300 + k)
            cases.append((f"{name}-{''.join(map(str, fiber))}", m))
        ones = {v: 1 for v in g.vertices}
        pair = direct_sum(random_module(g, ones, 1), random_module(g, ones, 2))
        cases.append((f"{name}-random-sum", pair))
        cases.append((f"{name}-random-sum-conjugate", unitary_conjugate(pair, 3)))
        m = random_module(g, {v: 2 for v in g.vertices}, 4)
        cases.append((f"{name}-conjugate", unitary_conjugate(m, 5)))
    return cases


STRONGLY_CONNECTED_CASES = _strongly_connected_cases()


class TestStronglyConnected:
    """Graphs whose support is strongly connected, where only the block
    closure, not the structural certificate, can decide the verdict."""

    @pytest.mark.parametrize("module", [m for _, m in STRONGLY_CONNECTED_CASES],
                             ids=[name for name, _ in STRONGLY_CONNECTED_CASES])
    def test_matches_dense_oracle(self, module):
        assert module.total_dim <= 6
        assert is_irreducible(module) == dense_irreducible(module)
        assert is_indecomposable(module) == (dense_commutant_dim(module) == 1)

    def test_cases_meet_both_verdicts(self):
        verdicts = {is_irreducible(m) for _, m in STRONGLY_CONNECTED_CASES}
        assert verdicts == {True, False}

    def test_zero_edge_breaks_the_closure(self):
        # ab is the only edge with source a and range b; zeroed, it leaves
        # the graph strongly connected but the block B(a, b) empty.
        g = two_vertex_graph()
        m = random_module(g, {"a": 2, "b": 2}, 6)
        assert is_irreducible(m)
        ops = dict(m.ops)
        ops["ab"] = np.zeros((2, 2))
        cut = PythagoreanModule(g, m.dims, ops)
        assert modules._column_blocks(cut, "b")["a"] == 0
        assert not is_irreducible(cut)
        assert not dense_irreducible(cut)

    def test_total_dim_32(self):
        # A span closure on the whole d x d algebra took about 11 s and
        # 184 MB here; the per-block closure works in vectors of length 256.
        g = two_vertex_graph()
        m = random_module(g, {"a": 16, "b": 16}, 7)
        tracemalloc.start()
        try:
            assert is_irreducible(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("graph, dims", [
        (sphere_odd_graph(4), {v: 8 for v in "1234"}),
        (sphere_even_graph(2), {"1": 1, "2": 0, "3": 1, "4": 1}),
        # c reaches a, but a reaches c only through b, whose fiber is zero
        (three_cycle_graph(), {"a": 1, "b": 0, "c": 1}),
    ], ids=["odd4-total32", "even2-dag", "three-cycle-cut"])
    def test_structure_settles_without_closure(self, graph, dims, monkeypatch):
        def closure(*_):
            raise AssertionError("the structural certificate should decide")

        monkeypatch.setattr(modules, "_column_blocks", closure)
        assert not is_irreducible(random_module(graph, dims, 8))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(graph=supported_graphs(), seed=st.integers(0, 2**16))
    def test_loop_plus_dag_support_on_two_vertices_is_reducible(self, graph, seed):
        rng = np.random.default_rng(seed)
        dims = random_feasible_dims(graph, rng, hi=2)
        while sum(dims.values()) > 6:
            dims = random_feasible_dims(graph, rng, hi=2)
        module = random_module(graph, dims, seed)
        verdict = is_irreducible(module)
        if sum(1 for d in dims.values() if d) >= 2:
            assert not verdict
        assert verdict == dense_irreducible(module)


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

    def test_singular_draw_with_unequal_dimension_counts_is_inequivalent(self, monkeypatch):
        # Hom(a + b, a + c) and Hom(a + c, a + b) are both spanned by the map
        # a -> a, so the one draw is singular and neither space is zero; but
        # End(a + b) and End(a + c) are 2-dimensional, which no pair of
        # equivalent modules allows.
        g = sphere_odd_graph(1)
        a, b, c = (one_dim_module(g, "1", cmath.exp(t * 1j)) for t in (0.3, 1.1, 2.0))
        left, right = direct_sum(a, b), direct_sum(a, c)
        pairs = ((left, right), (right, left), (left, left), (right, right))
        assert [intertwiner_space(x, y).dimension for x, y in pairs] == [1, 1, 2, 2]
        decisions = []
        invertible = modules._graded_invertible
        monkeypatch.setattr(modules, "_graded_invertible",
                            lambda theta, dims: decisions.append(invertible(theta, dims))
                            or decisions[-1])
        result = are_equivalent(left, right)
        assert decisions == [False]
        assert result.verdict == INEQUIVALENT
        assert result.certificate is None

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=_equivalence_pairs())
    def test_certificates_intertwine_and_conjugates_are_never_inequivalent(self, case):
        m1, m2, conjugate = case
        result = are_equivalent(m1, m2)
        if conjugate:
            assert result.verdict != INEQUIVALENT
        if result.verdict != EQUIVALENT:
            assert result.certificate is None
            return
        theta = result.certificate
        for e in m1.graph.edges:
            gap = theta[e.source] @ m1.ops[e.id] - m2.ops[e.id] @ theta[e.range]
            assert np.linalg.norm(gap) <= 1e-8
        assert modules._graded_invertible(theta, m1.dims)


# entries whose products with 0.0 and 1.0 carry signed zeros and extremes
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 1e-300, -1e300, 3.0e7])


@st.composite
def _relation_sets(draw):
    """A graph with up to 3 vertices, fibers 0..3 on each side (so zero
    fibers and rectangular blocks), and up to 12 relations whose head and
    tail are drawn independently, loops (head == tail) included, so one
    block shape often holds many relations."""
    n = draw(st.integers(1, 3))
    graph = Graph(tuple(f"v{i}" for i in range(n)), ())
    dims_s = {v: draw(st.integers(0, 3)) for v in graph.vertices}
    dims_t = {v: draw(st.integers(0, 3)) for v in graph.vertices}

    def block(rows, cols):
        re = draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))
        im = draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols))
        return (np.array(re) + 1j * np.array(im)).reshape(rows, cols)

    relations = []
    for _ in range(draw(st.integers(0, 12))):
        head = draw(st.sampled_from(graph.vertices))
        tail = draw(st.sampled_from(graph.vertices))
        relations.append((head, tail, block(dims_s[head], dims_s[tail]),
                          block(dims_t[head], dims_t[tail])))
    return graph, dims_s, dims_t, relations


def _pinned_cases() -> list[tuple[str, PythagoreanModule, PythagoreanModule]]:
    """(name, module, unitary conjugate) over four families, fiber d at every
    vertex with d in 1..3, two seeds each; then mixed fibers in 0..3 from
    `random_feasible_dims` on three of the families, two seeds each, so one
    system holds relations of several block shapes."""
    graphs = {
        "odd3": sphere_odd_graph(3),
        "even2": sphere_even_graph(2),
        "proj2": projective_graph(2),
        "lens2": lens_graph_coprime(LensParams(2, 3, (1, 1))),
    }
    cases = []
    for name, g in graphs.items():
        for d in (1, 2, 3):
            for seed in (1, 2):
                m = random_module(g, {v: d for v in g.vertices}, seed)
                cases.append((f"{name}-d{d}-seed{seed}", m, unitary_conjugate(m, 50 + seed)))
    for name in ("odd3", "even2", "lens2"):
        for seed in (1, 2):
            g = graphs[name]
            m = random_module(g, random_feasible_dims(g, np.random.default_rng(seed)), seed)
            cases.append((f"{name}-mixed-seed{seed}", m, unitary_conjugate(m, 60 + seed)))
    return cases


PINNED_CASES = _pinned_cases()


def _all_bytes(result) -> list:
    """Every array of a verdict run, as bytes, plus the plain values."""
    space, indecomposable, equivalence = result
    return ([{v: b.tobytes() for v, b in theta.items()} for theta in space.basis]
            + [indecomposable, equivalence.verdict]
            + [{v: t.tobytes() for v, t in (equivalence.certificate or {}).items()}])


def _assembled_system(graph, dims_s, dims_t, relations) -> np.ndarray:
    """The system `_graded_nullspace` hands to `_nullspace`."""
    seen = []
    original = modules._nullspace
    modules._nullspace = lambda system: seen.append(system) or original(system)
    try:
        modules._graded_nullspace(graph, dims_s, dims_t, relations)
    finally:
        modules._nullspace = original
    (system,) = seen
    return system


class TestGradedSystemOracle:
    """The graded system is bitwise the one the np.kron/np.vstack assembly
    (`helpers.kron_graded_system`) gives, and so is everything solved from it."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_relation_sets())
    def test_system_is_bitwise_the_kron_assembly(self, case):
        graph, dims_s, dims_t, relations = case
        system = _assembled_system(graph, dims_s, dims_t, relations)
        expected, expected_span = kron_graded_system(graph, dims_s, dims_t, relations)
        assert system.dtype == expected.dtype
        assert system.shape == expected.shape
        assert system.tobytes() == expected.tobytes()
        null, span = modules._graded_nullspace(graph, dims_s, dims_t, relations)
        assert span == expected_span
        assert null.tobytes() == modules._nullspace(expected).tobytes()

    @pytest.mark.parametrize("name,module,conjugate", PINNED_CASES,
                             ids=[name for name, _, _ in PINNED_CASES])
    def test_verdicts_are_bitwise_the_oracles(self, name, module, conjugate, monkeypatch):
        def run():
            return (intertwiner_space(module, conjugate), is_indecomposable(module),
                    are_equivalent(module, conjugate))

        result = run()
        monkeypatch.setattr(modules, "_graded_nullspace", kron_graded_nullspace)
        assert _all_bytes(result) == _all_bytes(run())
        assert result[0].dimension >= 1
        assert result[2].verdict == EQUIVALENT

    def test_mixed_cases_hold_zero_fibers_and_several_block_shapes(self):
        mixed = [m for name, m, _ in PINNED_CASES if "-mixed-" in name]
        assert len(mixed) == 6
        assert any(0 in m.dims.values() for m in mixed)
        for m in mixed:
            shapes = {(m.dims[e.source], m.dims[e.range]) for e in m.graph.edges
                      if m.dims[e.source] * m.dims[e.range]}
            assert len(shapes) >= 2

    def test_loop_terms_sharing_entries_are_bitwise_the_kron_assembly(self):
        # each loop relation's two terms meet at row (i, j), column (i, j); a
        # term written by assignment instead of a read-modify-write loses one
        rng = np.random.default_rng(3)
        entries = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 1e-300, -1e300])

        def block(d):
            return rng.choice(entries, (d, d)) + 1j * rng.choice(entries, (d, d))

        one = two_loop_graph()
        a, b = block(3), block(3)
        cases = [(one, {"1": 3}, [("1", "1", a, b), ("1", "1", b, a),
                                  ("1", "1", a, a), ("1", "1", b.conj().T, b.conj().T)])]
        # two block shapes, (3, 3, 3, 3) and (2, 2, 2, 2), taking turns
        two = Graph(("1", "2"), ())
        c = block(2)
        cases.append((two, {"1": 3, "2": 2}, [("1", "1", a, b), ("2", "2", c, c),
                                              ("1", "1", b, a), ("2", "2", c.T, c),
                                              ("1", "1", a, a)]))
        for graph, dims, relations in cases:
            system = _assembled_system(graph, dims, dims, relations)
            expected, _ = kron_graded_system(graph, dims, dims, relations)
            assert system.shape == expected.shape
            assert system.tobytes() == expected.tobytes()
