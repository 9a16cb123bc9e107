"""End-to-end acceptance checks, one test per required behavior.

Run with -v to get one pass/fail line per criterion.  The long 3-prism
epsilon search is opt-in: set TENSEGRITY_STRETCH=1 (it tracks 2^27 paths).
"""

import os
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy

from tensegrity import (Configuration, MultiPoly, PolySystem,
                        build_constraints, deform_framework,
                        epsilon_rigidity_check, evaluate_members, jacobian_at,
                        laplacian_eigenpairs, load_fixture,
                        normal_form_reduce, numerical_nullspace,
                        nullspace_decomposition, pin_moving_frame,
                        pinned_member_system, prestress_certificate,
                        rigidity_and_incidence, self_stress_basis,
                        solve_total_degree, stress_matrix,
                        verify_containment)
from tensegrity.symbolic import (RationalPoly, buchberger, ring_variables,
                                 s_polynomial, symbolic_minors)
from tensegrity.ideals import (adjacent_minor_primes, adjacent_minors,
                               slingshot_displayed_minor, slingshot_equations,
                               slingshot_minors, slingshot_primes)

from conftest import random_framework

PRINTED_FLEX = np.array([0.000, 1.58, 0.263, -1.37, -0.789, 0.263,
                         1.37, -0.789, 0.263, -0.789, 1.37, -0.263,
                         -0.789, -1.37, -0.263, 1.58, 0.000, -0.263])

PRINTED_STRESS = np.array([1.00, 1.00, -1.73, 1.73, 1.00, -1.73,
                           1.73, 1.73, -1.73, 1.00, 1.00, 1.00])

PINNED_PRISM = np.array([
    [0.0, 0.0, 0.0],
    [1.7320508075688772, 0.0, 0.0],
    [0.8660254037844388, -1.5, 0.0],
    [1.3660254037844386, -1.3660254037844386, 3.0],
    [-0.1339745962155613, -0.5, 3.0],
    [1.3660254037844388, 0.3660254037844386, 3.0],
])


def _univariate(coeffs):
    return PolySystem([MultiPoly.from_univariate(np.asarray(coeffs, dtype=complex))])


def _pinned_system(name):
    graph, p, sys_ = load_fixture(name)
    pp = pin_moving_frame(p)
    return graph, pp, build_constraints(graph, pp,
                                        rest_sq_lengths=sys_.rest_sq_lengths)


def test_criterion_01_prism_coranks():
    t0 = time.perf_counter()
    graph, p, sys_ = load_fixture("3prism")
    rng = np.random.default_rng(0)
    coranks = []
    for _ in range(3):
        q = Configuration(rng.uniform(-1, 1, size=(graph.n, graph.d)))
        coranks.append(numerical_nullspace(jacobian_at(sys_, q)).shape[1])
    assert coranks == [6, 6, 6]
    assert numerical_nullspace(jacobian_at(sys_, p)).shape[1] == 7
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_length_scaling_identity():
    graph, p, sys_ = load_fixture("3prism")
    mats, _ = rigidity_and_incidence(sys_, p)
    gap = mats.edge_lengths @ mats.rigidity - 0.5 * mats.jacobian
    assert np.max(np.abs(gap)) <= 1e-12
    rng = np.random.default_rng(1)
    for _ in range(20):
        _, q, s = random_framework(rng)
        m, _ = rigidity_and_incidence(s, q)
        gap = m.edge_lengths @ m.rigidity - 0.5 * m.jacobian
        assert np.max(np.abs(gap)) <= 1e-12


def test_criterion_03_flex_recovery():
    graph, p, sys_ = load_fixture("3prism")
    dec = nullspace_decomposition(sys_, p)
    assert dec.flexes.shape[1] == 1
    flex = dec.flexes[:, 0]
    flex = flex * (1.58 / np.max(np.abs(flex)))
    err = min(np.max(np.abs(sign * flex - PRINTED_FLEX))
              for sign in (1.0, -1.0))
    assert err <= 1e-2


def test_criterion_04_self_stress_table():
    graph, p, sys_ = load_fixture("3prism")
    basis = self_stress_basis(nullspace_decomposition(sys_, p))
    assert len(basis) == 1
    w = basis[0] / basis[0][0]
    assert np.max(np.abs(w - PRINTED_STRESS)) <= 1e-2


@pytest.mark.xfail(
    strict=True,
    reason="the three-digit rounded flex and stress evaluate to 89.8896, "
           "outside the quoted 89.569 +/- 0.05; the quoted value belongs to "
           "the unrounded data")
def test_criterion_04_printed_quadratic_form():
    graph, _, _ = load_fixture("3prism")
    omega = stress_matrix(graph, PRINTED_STRESS)
    value = PRINTED_FLEX @ omega @ PRINTED_FLEX
    assert abs(value - 89.56922) <= 0.05


def test_criterion_05_prestress_certificates():
    graph, p, sys_ = load_fixture("3prism")
    t0 = time.perf_counter()
    cert = prestress_certificate(sys_, p)
    assert time.perf_counter() - t0 < 1.0
    assert cert.verdict == "found"
    assert cert.min_eigenvalue > 1.0

    rng = np.random.default_rng(2)
    q = Configuration(rng.uniform(-1, 1, size=(graph.n, graph.d)))
    t0 = time.perf_counter()
    cert = prestress_certificate(build_constraints(graph, q), q)
    assert time.perf_counter() - t0 < 1.0
    assert cert.verdict == "infinitesimally_rigid"

    sq_graph, sq_p, sq_sys = load_fixture("square")
    t0 = time.perf_counter()
    cert = prestress_certificate(sq_sys, sq_p)
    assert time.perf_counter() - t0 < 1.0
    assert cert.verdict == "no_self_stress"


def test_criterion_06_molecule_eigenpairs():
    graph, _, _ = load_fixture("molecule")
    values, vectors = laplacian_eigenpairs(graph, np.ones(graph.m))
    assert np.max(np.abs(values - np.array([0.0, 1.0, 3.0]))) <= 1e-10
    expected = [np.array([1.0, 1.0, 1.0]),
                np.array([1.0, 0.0, -1.0]),
                np.array([-1.0, 2.0, -1.0])]
    for k, target in enumerate(expected):
        v = vectors[:, k]
        v = v * (target @ v) / (v @ v)  # best scale onto the target
        assert np.max(np.abs(v - target)) <= 1e-10


def test_criterion_07_homotopy_cubics():
    t0 = time.perf_counter()
    res = solve_total_degree(_univariate([1, -7, 17, -15]), seed=0)
    assert sum(r.status == "converged" for r in res) == 3
    found = [r.endpoint[0] for r in res]
    for root in (3.0, 2.0 + 1.0j, 2.0 - 1.0j):
        assert min(abs(z - root) for z in found) <= 1e-8

    res = solve_total_degree(_univariate([1, -5, -7, 51]), seed=0)
    assert sum(r.status == "converged" for r in res) == 3
    found = [r.endpoint[0] for r in res]
    for root in (-3.0, 4.0 + 1.0j, 4.0 - 1.0j):
        assert min(abs(z - root) for z in found) <= 1e-8

    product = PolySystem([MultiPoly(2, {(2, 0): 1.0, (0, 0): -1.0}),
                          MultiPoly(2, {(0, 2): 1.0, (0, 0): -4.0})])
    res = solve_total_degree(product, seed=0)
    assert len(res) == 4
    assert all(r.status == "converged" for r in res)
    assert all(r.max_imag <= 1e-8 for r in res)
    pts = sorted((round(r.endpoint[0].real, 8), round(r.endpoint[1].real, 8))
                 for r in res)
    assert pts == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]
    assert time.perf_counter() - t0 < 1.0


def test_criterion_08_moving_frame():
    _, p, _ = load_fixture("3prism")
    pinned = pin_moving_frame(p)
    assert np.max(np.abs(pinned.coords - PINNED_PRISM)) <= 1e-12


def test_criterion_09_deformation_exploration():
    t0 = time.perf_counter()
    graph, pp, sysp = _pinned_system("3prism")
    members, free, values = pinned_member_system(sysp, pp)
    J = members.jacobian(values.astype(complex)).real
    flex = numerical_nullspace(J)[:, 0]

    witnessed = {"above": 0, "below": 0}
    for attempt in range(50):
        direction = flex if attempt % 2 == 0 else -flex
        steps = deform_framework(sysp, pp, direction=direction, epsilon=0.05,
                                 steps=1, seed=attempt)
        step = steps[-1]
        if step.result.status not in ("converged", "no_real_solution"):
            continue
        if not (1e-8 < step.member_residual < 1e-1):
            continue
        disp = (step.point.real - pp.coords).reshape(-1)
        disp_free = np.array([disp[i * graph.d + k] for i, k in free])
        cos = abs(disp_free @ flex) / np.linalg.norm(disp_free)
        if cos <= 0.9:
            continue
        z = step.point.real[3:, 2]
        if np.all(z > 3.0):
            witnessed["above"] += 1
        elif np.all(z < 3.0):
            witnessed["below"] += 1
    assert witnessed["above"] >= 1
    assert witnessed["below"] >= 1
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_epsilon_local_rigidity():
    _, tri_p, tri_sys = _pinned_system("triangle")
    t0 = time.perf_counter()
    result = epsilon_rigidity_check(tri_sys, tri_p, epsilon=0.1, seed=0)
    assert time.perf_counter() - t0 < 30.0
    assert result.verdict == "epsilon_locally_rigid"

    _, hinge_p, hinge_sys = _pinned_system("hinge")
    t0 = time.perf_counter()
    result = epsilon_rigidity_check(hinge_sys, hinge_p, epsilon=0.1, seed=0)
    assert time.perf_counter() - t0 < 30.0
    assert result.verdict == "deformation_found"
    assert result.witnesses
    for witness in result.witnesses:
        residual, _ = evaluate_members(hinge_sys, witness)
        assert np.max(np.abs(residual)) <= 1e-8
        assert abs(np.linalg.norm(witness.coords - hinge_p.coords) - 0.1) <= 1e-6


@pytest.mark.stretch
@pytest.mark.skipif(not os.environ.get("TENSEGRITY_STRETCH"),
                    reason="2^27 paths; set TENSEGRITY_STRETCH=1 to run")
def test_criterion_10_prism_stretch():
    _, pp, sysp = _pinned_system("3prism")
    result = epsilon_rigidity_check(sysp, pp, epsilon=0.1, seed=0,
                                    budget=2 ** 28)
    assert result.verdict in ("deformation_found", "epsilon_locally_rigid",
                              "inconclusive")


def test_criterion_11_symbolic_slingshot():
    t0 = time.perf_counter()
    minors = slingshot_minors()
    assert len(minors) == 120
    nonzero = [m for m in minors if not m.is_zero()]
    assert len(nonzero) == 95

    shown = slingshot_displayed_minor()
    assert any(m == shown or m == -shown for m in nonzero)

    equations = slingshot_equations()
    assert len(equations) == 102
    primes = slingshot_primes()
    assert len(primes) == 8
    for prime in primes:
        assert verify_containment(equations, prime).contained

    adjacent = adjacent_minors()
    assert len(adjacent) == 4
    for prime in adjacent_minor_primes():
        assert verify_containment(adjacent, prime).contained
    assert time.perf_counter() - t0 < 60.0


def test_criterion_12_property_suites():
    # nullspace residuals
    rng = np.random.default_rng(12)
    for _ in range(20):
        _, q, s = random_framework(rng)
        dg = jacobian_at(s, q)
        null = numerical_nullspace(dg)
        if null.size:
            assert np.max(np.abs(dg @ null)) <= 1e-8 * max(np.linalg.norm(dg), 1.0)

    # PSD: stiffness forms and Laplacians
    for _ in range(20):
        graph, q, s = random_framework(rng)
        mats, _ = rigidity_and_incidence(s, q)
        c = rng.uniform(0.0, 2.0, size=s.m)
        K = mats.rigidity.T @ (c[:, None] * mats.rigidity)
        assert np.linalg.eigvalsh(K).min() >= -1e-10
        values, _ = laplacian_eigenpairs(graph, c + 0.1)
        assert values.min() >= -1e-10

    # Buchberger closure: every S-polynomial of the basis reduces to zero
    variables = ("x", "y", "z")
    gens = [RationalPoly.parse(s, variables) for s in
            ("x^2 - y", "y^2 - z", "x*z - y^2 + x")]
    basis = buchberger(gens, order="degrevlex")
    polys = list(basis.generators)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s_ij = s_polynomial(polys[i], polys[j], "degrevlex")
            assert normal_form_reduce(s_ij, polys, "degrevlex").is_zero()

    # symbolic minors agree with numeric determinants at rational points
    pyrng = random.Random(12)
    names = tuple(f"t{i}{j}" for i in range(3) for j in range(3))
    ring = dict(zip(names, ring_variables(names)))
    matrix = [[ring[f"t{i}{j}"] for j in range(3)] for i in range(3)]
    minors = symbolic_minors(matrix, 2)
    for _ in range(5):
        point = {v: Fraction(pyrng.randint(-9, 9), pyrng.randint(1, 7))
                 for v in names}
        values = [point[v] for v in names]
        numeric = sympy.Matrix(3, 3, lambda i, j: sympy.Rational(
            point[f"t{i}{j}"].numerator, point[f"t{i}{j}"].denominator))
        k = 0
        for rows in combinations(range(3), 2):
            for cols in combinations(range(3), 2):
                det = numeric[list(rows), list(cols)].det()
                val = minors[k].evaluate(values)
                assert sympy.Rational(val.numerator, val.denominator) == det
                k += 1
