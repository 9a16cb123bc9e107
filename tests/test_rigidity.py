"""Rigidity matrices, nullspaces, pinning, and the corank bookkeeping."""

import numpy as np
import pytest
import sympy

from tensegrity import (Configuration, FrameworkError, FrameworkGraph,
                        build_constraints, evaluate_members, incidence_matrix, jacobian_at,
                        laplacian_eigenpairs, load_fixture, numerical_nullspace,
                        nullspace_decomposition, pin_moving_frame,
                        rigid_motion_basis, rigidity_and_incidence,
                        rigidity_report)
from tensegrity.framework import FIXTURE_NAMES, member_polynomials, squared_lengths
from tensegrity.continuation import MultiPoly, PolySystem, free_coordinate_positions
from tensegrity.ideals import SLINGSHOT_PINNED, SLINGSHOT_VARIABLES
from tensegrity.rigidity import (GENERIC_TRIALS, RANK_REL_TOL, free_coordinate_mask,
                                 random_configuration, symbolic_rigidity_matrix)
from tensegrity.symbolic import RationalPoly

from conftest import random_framework


def test_length_scaling_relates_rigidity_matrix_to_jacobian(prism):
    graph, p, sys_ = prism
    mats, _ = rigidity_and_incidence(sys_, p)
    gap = mats.edge_lengths @ mats.rigidity - 0.5 * mats.jacobian
    assert np.max(np.abs(gap)) <= 1e-12

    rng = np.random.default_rng(2)
    for _ in range(20):
        _, q, s = random_framework(rng)
        m, _ = rigidity_and_incidence(s, q)
        gap = m.edge_lengths @ m.rigidity - 0.5 * m.jacobian
        assert np.max(np.abs(gap)) <= 1e-12


def _coordinate_matrix(graph, variable):
    """Every coordinate free: node i's axis k is variable number i * d + k."""
    return [[variable(i * graph.d + k) for k in range(graph.d)] for i in range(graph.n)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_symbolic_rigidity_matrix_is_half_the_member_jacobian(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(8):
        graph, _, sys_ = random_framework(rng, d=d)
        names = [f"x{i}_{k}" for i in range(graph.n) for k in range(d)]
        coords = _coordinate_matrix(graph, lambda v: RationalPoly.variable(names, v))
        matrix = symbolic_rigidity_matrix(graph, coords)
        members = member_polynomials(sys_, coords)
        assert len(matrix) == len(members) == graph.m
        for g, row in zip(members, matrix):
            assert len(row) == graph.n * d
            for c, entry in enumerate(row):
                assert g.diff(c) == entry * 2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_builders_agree_with_the_numeric_members_at_points(d):
    rng = np.random.default_rng(50 + d)
    for _ in range(8):
        graph, _, sys_ = random_framework(rng, d=d)
        nvars = graph.n * d
        coords = _coordinate_matrix(graph, lambda v: MultiPoly.variable(nvars, v))
        members = PolySystem(member_polynomials(sys_, coords))
        entries = PolySystem([e for row in symbolic_rigidity_matrix(graph, coords)
                              for e in row])
        for _ in range(3):
            x = random_configuration(graph, rng)
            point = x.coords.reshape(-1).astype(complex)
            gap = members.evaluate(point) - (squared_lengths(graph, x) - sys_.rest_sq_lengths)
            assert np.max(np.abs(gap)) <= 1e-12
            half = entries.evaluate(point).reshape(graph.m, nvars)
            assert np.max(np.abs(half - jacobian_at(sys_, x) / 2)) <= 1e-15


def test_the_builders_reject_a_coordinate_matrix_of_the_wrong_shape(prism):
    graph, _, sys_ = prism
    x = MultiPoly.variable(1, 0)
    good = [[x] * graph.d for _ in range(graph.n)]
    for bad in (good[1:], good + [[x] * graph.d], [row[1:] for row in good],
                good[:-1] + [[x] * (graph.d + 1)], [x] * graph.n, None):
        with pytest.raises(FrameworkError, match="coordinate matrix"):
            member_polynomials(sys_, bad)
        with pytest.raises(FrameworkError, match="coordinate matrix"):
            symbolic_rigidity_matrix(graph, bad)


def test_rigidity_matrix_and_jacobian_share_nullspace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, q, s = random_framework(rng)
        mats, _ = rigidity_and_incidence(s, q)
        na = numerical_nullspace(mats.rigidity)
        ng = numerical_nullspace(mats.jacobian)
        assert na.shape == ng.shape
        # equal subspaces: each basis is fixed by the other's projector
        assert np.max(np.abs(na - ng @ (ng.T @ na))) <= 1e-10
        assert np.max(np.abs(ng - na @ (na.T @ ng))) <= 1e-10


def test_rigid_motions_are_null_vectors():
    rng = np.random.default_rng(4)
    for _ in range(100):
        _, q, s = random_framework(rng)
        dg = jacobian_at(s, q)
        R = rigid_motion_basis(q)
        assert np.max(np.abs(dg @ R)) <= 1e-8 * max(np.linalg.norm(dg), 1.0)


def test_rigid_motion_dimension_for_full_span():
    rng = np.random.default_rng(9)
    for d in (1, 2, 3):
        _, q, _ = random_framework(rng, n=d + 3, d=d)
        assert rigid_motion_basis(q).shape[1] == d * (d + 1) // 2


def test_generic_corank_agrees_across_trials(prism):
    graph, p, sys_ = prism
    rng = np.random.default_rng(8)
    coranks = set()
    for _ in range(5):
        q = Configuration(rng.uniform(-1, 1, size=(graph.n, graph.d)))
        coranks.add(numerical_nullspace(jacobian_at(sys_, q)).shape[1])
    assert coranks == {6}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_generic_corank_is_the_least_nullspace_dimension_of_the_trials(name):
    graph, p, sys_ = load_fixture(name)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        coranks = [numerical_nullspace(jacobian_at(sys_, random_configuration(graph, rng)))
                   .shape[1] for _ in range(GENERIC_TRIALS)]
        assert rigidity_report(sys_, p, seed=seed).generic_corank == min(coranks)


def test_numerical_nullspace_matches_exact_rank():
    rng = np.random.default_rng(13)
    for _ in range(25):
        rows, cols = rng.integers(2, 7, size=2)
        M = rng.integers(-4, 5, size=(rows, cols)).astype(float)
        exact_rank = sympy.Matrix(M.astype(int)).rank()
        null = numerical_nullspace(M)
        assert null.shape[1] == cols - exact_rank
        if null.size:
            assert np.max(np.abs(M @ null)) <= 1e-10 * max(np.abs(M).max(), 1.0)
            assert np.allclose(null.T @ null, np.eye(null.shape[1]), atol=1e-12)


def test_prism_coranks(prism):
    graph, p, sys_ = prism
    report = rigidity_report(sys_, p, seed=0)
    assert report.generic_corank == 6
    assert report.corank_at_p == 7
    assert report.rigid_motion_dim == 6
    assert report.verdict == "not_infinitesimally_rigid"
    assert report.full_span


def test_flex_complement_is_orthogonal(prism):
    graph, p, sys_ = prism
    dec = nullspace_decomposition(sys_, p)
    assert dec.rigid_motions.shape[1] == 6
    assert dec.flexes.shape[1] == 1
    assert np.max(np.abs(dec.rigid_motions.T @ dec.flexes)) <= 1e-10
    dg = jacobian_at(sys_, p)
    assert np.max(np.abs(dg @ dec.flexes)) <= 1e-8 * np.linalg.norm(dg)


def test_rank_gap_clears_the_tolerance_on_the_fixtures():
    # no fixture's rank decision is a near-tie: below the cut lies rounding
    # noise or nothing at all (gap inf)
    for name in FIXTURE_NAMES:
        _, p, sys_ = load_fixture(name)
        dec = nullspace_decomposition(sys_, p)
        assert dec.rank_gap > 1.0 / RANK_REL_TOL
        s = np.linalg.svd(jacobian_at(sys_, p))[1]
        r = sys_.m - dec.self_stresses.shape[1]
        assert dec.rank_gap == (s[r - 1] / s[r] if r < s.size else np.inf)


def test_pinning_preserves_residuals_and_is_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(30):
        graph, q, s = random_framework(rng)
        if graph.n < graph.d:
            continue
        pinned = pin_moving_frame(q)
        r0, _ = evaluate_members(s, q)
        r1, _ = evaluate_members(s, pinned)
        assert np.max(np.abs(r1 - r0)) <= 1e-12 * max(1.0, np.abs(r0).max())
        again = pin_moving_frame(pinned)
        assert np.array_equal(again.coords, pinned.coords)


def test_pinning_zero_pattern():
    rng = np.random.default_rng(19)
    q = Configuration(rng.uniform(-1, 1, size=(5, 3)))
    pinned = pin_moving_frame(q)
    for i in range(3):
        assert np.all(pinned.coords[i, i:] == 0.0)
    assert pinned.coords[1, 0] > 0.0


def test_the_free_coordinate_mask_is_the_exact_slingshot_pinning():
    """The numeric pinning frees the variables of the exact slingshot ideals,
    in their order, and fixes the coordinates they set to zero."""
    mask = free_coordinate_mask(5, 2)
    names = np.array([[f"x{i}{k}" for k in (1, 2)] for i in range(1, 6)])
    assert tuple(names[mask]) == SLINGSHOT_VARIABLES
    assert set(names[~mask]) == set(SLINGSHOT_PINNED)
    assert set(SLINGSHOT_PINNED.values()) == {0}
    assert free_coordinate_positions(5, 2) == [tuple(pos) for pos in np.argwhere(mask).tolist()]


@pytest.mark.parametrize("n, d", [(1, 1), (3, 1), (2, 2), (3, 2), (5, 2),
                                  (3, 3), (4, 3), (6, 3), (5, 4)])
def test_pinning_is_zero_exactly_off_the_free_coordinate_mask(n, d):
    mask = free_coordinate_mask(n, d)
    assert mask.shape == (n, d)
    assert mask.sum() == n * d - min(n, d) * (2 * d - min(n, d) + 1) // 2
    rng = np.random.default_rng(n * 10 + d)
    for _ in range(5):
        pinned = pin_moving_frame(Configuration(rng.uniform(-1, 1, size=(n, d)))).coords
        off = pinned[~mask]
        assert np.all(off == 0.0) and not np.any(np.signbit(off))
        assert np.all(pinned[mask] != 0.0)


def test_pinning_rejects_degenerate_leading_nodes():
    flat = Configuration([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(FrameworkError):
        pin_moving_frame(flat)
    with pytest.raises(FrameworkError, match="need at least d=3 nodes"):
        pin_moving_frame(Configuration([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_coincident_endpoints_are_degenerate_members():
    graph = FrameworkGraph(n=2, d=3, members=((1, 2, "bar"),))
    sys_ = build_constraints(graph, Configuration([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(FrameworkError, match=r"degenerate members .*\[\(1, 2\)\]"):
        rigidity_and_incidence(sys_, Configuration(np.zeros((2, 3))))


def test_degenerate_embedding_reports_actual_rigid_dimension():
    rng = np.random.default_rng(21)
    graph, _, _ = random_framework(rng, n=4, d=2)
    line = Configuration(np.column_stack([np.arange(4.0), np.zeros(4)]))
    sys_ = build_constraints(graph, line)
    report = rigidity_report(sys_, line, seed=1)
    assert not report.full_span
    # collinear in the plane: 2 translations + 1 rotation
    assert report.rigid_motion_dim == 3


def test_stiffness_form_is_psd():
    rng = np.random.default_rng(29)
    for _ in range(30):
        _, q, s = random_framework(rng)
        mats, _ = rigidity_and_incidence(s, q)
        c = rng.uniform(0.0, 2.0, size=s.m)
        K = mats.rigidity.T @ (c[:, None] * mats.rigidity)
        assert np.max(np.abs(K - K.T)) <= 1e-12
        assert np.linalg.eigvalsh(K).min() >= -1e-10


def test_laplacian_is_psd_with_ones_kernel():
    rng = np.random.default_rng(31)
    for _ in range(20):
        graph, _, _ = random_framework(rng)
        c = rng.uniform(0.1, 3.0, size=graph.m)
        values, vectors = laplacian_eigenpairs(graph, c)
        assert values.min() >= -1e-10
        inc = incidence_matrix(graph)
        ones = np.ones(graph.n)
        assert np.max(np.abs(inc @ ones)) <= 1e-12
        lap = inc.T @ (c[:, None] * inc)
        assert np.max(np.abs(lap @ ones)) <= 1e-10


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0,
                                 pytest.param(10 ** 400, id="10**400"), "a"])
def test_conductances_are_positive_and_finite(bad):
    graph, _, _ = load_fixture("hinge")
    c = [1.0] * graph.m
    c[1] = bad
    with pytest.raises(FrameworkError, match="finite|positive"):
        laplacian_eigenpairs(graph, c)
    with pytest.raises(FrameworkError, match=f"expected {graph.m} conductances"):
        laplacian_eigenpairs(graph, np.ones(graph.m + 1))


def test_incidence_sign_convention(prism):
    graph, _, _ = prism
    inc = incidence_matrix(graph)
    for k, (i, j, _) in enumerate(graph.members):
        assert inc[k, i - 1] == -1.0
        assert inc[k, j - 1] == 1.0
        assert np.count_nonzero(inc[k]) == 2
