"""Path tracking: start systems, correctors, deformation, epsilon checks."""

import itertools
import multiprocessing
import os

import numpy as np
import pytest

from tensegrity import (ContinuationError, FrameworkError, Homotopy,
                        MultiPoly, PathBudgetError, PolySystem,
                        deform_framework, epsilon_rigidity_check, load_fixture,
                        numerical_nullspace, pin_moving_frame,
                        pinned_member_system, solve_total_degree, track_path,
                        track_paths)
from tensegrity import continuation
from tensegrity.framework import build_constraints
from tensegrity.symbolic import RationalPoly


def _close_multisets(found, expected, tol):
    """Greedy min-distance pairing; order-independent root comparison."""
    pool = list(found)
    for z in expected:
        if not pool:
            return False
        k = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        if abs(pool[k] - z) > tol:
            return False
        pool.pop(k)
    return not pool


def _univariate(coeffs):
    return PolySystem([MultiPoly.from_univariate(np.asarray(coeffs, dtype=complex))])


def test_multipoly_arithmetic_matches_pointwise_evaluation():
    rng = np.random.default_rng(61)
    for _ in range(50):
        nvars = int(rng.integers(1, 4))
        def rand_poly():
            terms = {}
            for _ in range(int(rng.integers(1, 5))):
                e = tuple(int(v) for v in rng.integers(0, 3, size=nvars))
                terms[e] = complex(rng.normal(), rng.normal())
            return MultiPoly(nvars, terms)
        a, b = rand_poly(), rand_poly()
        x = rng.normal(size=nvars) + 1j * rng.normal(size=nvars)
        value = lambda p: complex(PolySystem([p]).evaluate(x)[0])
        fa, fb = value(a), value(b)
        assert value(a + b) == pytest.approx(fa + fb, rel=1e-12, abs=1e-12)
        assert value(a - b) == pytest.approx(fa - fb, rel=1e-12, abs=1e-12)
        assert value(a * b) == pytest.approx(fa * fb, rel=1e-11, abs=1e-11)
        assert value(a ** 2) == pytest.approx(fa * fa, rel=1e-11, abs=1e-11)


def test_multipoly_derivative_of_monomial():
    # d/dx0 (x0^3 x1) = 3 x0^2 x1
    p = MultiPoly(2, {(3, 1): 2.0 + 0j})
    dp = p.diff(0)
    assert dp.terms == {(2, 1): 6.0 + 0j}
    assert p.diff(1).terms == {(3, 0): 2.0 + 0j}


def test_system_jacobian_matches_finite_differences():
    rng = np.random.default_rng(67)
    polys = [MultiPoly(2, {(2, 0): 1.0, (0, 1): -3.0, (1, 1): 2.0}),
             MultiPoly(2, {(0, 2): 1.0, (1, 0): 5.0})]
    system = PolySystem(polys)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    J = system.jacobian(x)
    h = 1e-7
    for k in range(2):
        e = np.zeros(2, dtype=complex)
        e[k] = h
        fd = (system.evaluate(x + e) - system.evaluate(x - e)) / (2 * h)
        assert np.max(np.abs(J[:, k] - fd)) <= 1e-5


def test_cubic_root_multisets():
    res = solve_total_degree(_univariate([1, -7, 17, -15]), seed=0)
    assert all(r.status == "converged" for r in res)
    assert _close_multisets([r.endpoint[0] for r in res], [3, 2 + 1j, 2 - 1j], 1e-8)

    res = solve_total_degree(_univariate([1, -5, -7, 51]), seed=0)
    assert all(r.status == "converged" for r in res)
    assert _close_multisets([r.endpoint[0] for r in res], [-3, 4 + 1j, 4 - 1j], 1e-8)


def test_random_univariate_agrees_with_companion_roots():
    rng = np.random.default_rng(71)
    for _ in range(10):
        deg = int(rng.integers(2, 9))
        # sample well-separated roots so every root is simple
        while True:
            roots = rng.uniform(-2, 2, size=deg) + 1j * rng.uniform(-2, 2, size=deg)
            if min(abs(a - b) for i, a in enumerate(roots)
                   for b in roots[i + 1:]) > 0.2:
                break
        coeffs = np.poly(roots)
        res = solve_total_degree(_univariate(coeffs), seed=1)
        assert all(r.status == "converged" for r in res)
        oracle = np.roots(coeffs)
        assert _close_multisets([r.endpoint[0] for r in res], oracle, 1e-8)


def test_two_variable_product_system():
    f = PolySystem([MultiPoly(2, {(2, 0): 1.0, (0, 0): -1.0}),
                    MultiPoly(2, {(0, 2): 1.0, (0, 0): -4.0})])
    res = solve_total_degree(f, seed=2)
    assert len(res) == 4
    assert all(r.status == "converged" for r in res)
    pts = sorted((round(r.endpoint[0].real, 6), round(r.endpoint[1].real, 6))
                 for r in res)
    assert pts == [(-1.0, -2.0), (-1.0, 2.0), (1.0, -2.0), (1.0, 2.0)]
    assert all(r.max_imag <= 1e-8 for r in res)


def test_converged_residual_bound():
    f = _univariate([1, 0, 0, -8])
    for r in solve_total_degree(f, seed=3):
        assert r.status == "converged"
        norm = np.linalg.norm(r.endpoint)
        assert r.residual <= 1e-8 * (1.0 + norm ** 3)


def test_tracking_is_deterministic_given_seed():
    f = _univariate([1, -1, 0, 2, -5])
    first = solve_total_degree(f, seed=9)
    second = solve_total_degree(f, seed=9)
    for a, b in zip(first, second):
        assert np.array_equal(a.endpoint, b.endpoint)
        assert a.steps == b.steps


def test_gamma_redraw_preserves_endpoint_multiset():
    f = _univariate([1, -1, 0, 2, -5])
    ends1 = [r.endpoint[0] for r in solve_total_degree(f, seed=4)]
    ends2 = [r.endpoint[0] for r in solve_total_degree(f, seed=5)]
    assert _close_multisets(ends1, ends2, 1e-6)


def test_path_budget_is_enforced():
    f = PolySystem([MultiPoly(2, {(2, 0): 1.0, (0, 0): -1.0}),
                    MultiPoly(2, {(0, 2): 1.0, (0, 0): -4.0})])
    with pytest.raises(PathBudgetError):
        solve_total_degree(f, seed=0, budget=3)
    assert len(solve_total_degree(f, seed=0, budget=4)) == 4


@pytest.mark.parametrize("budget", [2.5, True, "5", -1])
def test_a_path_budget_is_a_nonnegative_integer(budget):
    f = PolySystem([MultiPoly(1, {(2,): 1.0, (0,): -1.0})])
    with pytest.raises(ContinuationError, match="budget must be an integer"):
        solve_total_degree(f, seed=0, budget=budget)


@pytest.mark.parametrize("check, kwargs, error", [
    (deform_framework, {"steps": 1.5}, FrameworkError),
    (deform_framework, {"steps": True}, FrameworkError),
    (deform_framework, {"steps": 0}, FrameworkError),
    (deform_framework, {"epsilon": True}, FrameworkError),
    (deform_framework, {"epsilon": np.True_}, FrameworkError),
    (epsilon_rigidity_check, {"epsilon": True}, FrameworkError),
    (epsilon_rigidity_check, {"epsilon": np.True_}, FrameworkError),
    (epsilon_rigidity_check, {"epsilon": 0.1, "budget": 1e6}, ContinuationError),
    (epsilon_rigidity_check, {"epsilon": 0.1, "budget": True}, ContinuationError)])
def test_a_bool_or_a_fraction_is_not_taken_for_a_count_or_an_epsilon(check, kwargs, error):
    """True would run one push, or search at epsilon = 1, and a float budget
    would pass as a bound."""
    graph, p, sys_ = load_fixture("hinge")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    with pytest.raises(error, match="must be"):
        check(sysp, pp, seed=0, **kwargs)


def test_homotopy_validates_inputs():
    f = _univariate([1, 0, -2])
    g = _univariate([1, 0, -1])
    with pytest.raises(ContinuationError):
        Homotopy(target=f, start=g, gamma=2.0)  # not on the unit circle
    with pytest.raises(ContinuationError):
        Homotopy(target=f, start=g, gamma=complex("nan"))
    h = Homotopy(target=f, start=g, gamma=1.0)
    with pytest.raises(ContinuationError):
        # start point does not satisfy the start system
        track_path(h, np.array([5.0 + 0j]))
    # nor does NaN, alone or inside a batch
    nan = np.array([np.nan + 0j])
    with pytest.raises(ContinuationError, match="residual nan"):
        track_path(h, nan)
    with pytest.raises(ContinuationError, match="residual nan"):
        track_paths(h, [np.array([1.0 + 0j]), nan, np.array([-1.0 + 0j])])


def test_a_system_of_other_polynomials_is_rejected():
    x = RationalPoly.parse("x^2 - 1", ["x"])
    with pytest.raises(ContinuationError, match="MultiPoly"):
        PolySystem([x])
    with pytest.raises(ContinuationError, match="MultiPoly"):
        Homotopy(target=[x], start=[x])


def test_points_of_the_wrong_length_are_rejected():
    f, g = _dense_system((2, 2), 41), _dense_system((2, 2), 42)
    h = Homotopy(target=f, start=g, gamma=complex(np.exp(0.4j)))
    calls = (f.evaluate, f.jacobian, f.evaluate_and_jacobian,
             lambda z: h.evaluate(z, np.full(np.shape(z)[:-1], 0.5)))
    # a point, a batch and a scalar that do not have 2 coordinates
    for x in (np.ones(1), np.ones(3), np.ones((4, 1)), np.ones((4, 3)), np.array(1.0)):
        for call in calls:
            with pytest.raises(ContinuationError, match="needs 2 coordinates"):
                call(x)
    good = np.ones(2, dtype=complex)
    for starts in ([np.ones(1)], [np.ones(3)] * 2, [good, np.ones(1), good]):
        with pytest.raises(ContinuationError, match="needs 2 coordinates"):
            track_paths(h, starts)


def test_non_square_system_rejected():
    f = PolySystem([MultiPoly(2, {(1, 0): 1.0})])
    with pytest.raises(ContinuationError):
        solve_total_degree(f, seed=0)


def test_a_system_without_variables_is_refused():
    for polys in ([MultiPoly(0, {})], [MultiPoly(0, {(): 2.0}), MultiPoly(0, {})]):
        with pytest.raises(ContinuationError, match="at least one variable"):
            PolySystem(polys)
        with pytest.raises(ContinuationError, match="at least one variable"):
            solve_total_degree(polys, seed=0)


def test_pinned_member_system_prism(prism):
    graph, p, sys_ = prism
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    members, free, values = pinned_member_system(sysp, pp)
    assert len(free) == graph.n * graph.d - 6
    assert len(members) == graph.m
    # residuals vanish at the pinned embedding, and the reduced Jacobian
    # keeps exactly the one flex
    res = members.evaluate(values.astype(complex))
    assert np.max(np.abs(res)) <= 1e-12
    J = members.jacobian(values.astype(complex)).real
    assert numerical_nullspace(J).shape[1] == 1


def test_deform_zero_offset_returns_input_exactly(prism):
    graph, p, sys_ = prism
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    steps = deform_framework(sysp, pp, epsilon=0.0, steps=1, seed=0)
    assert steps[0].result.status == "converged"
    assert np.array_equal(steps[0].point, pp.coords.astype(complex))


def test_deform_moves_along_the_flex(prism):
    graph, p, sys_ = prism
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    steps = deform_framework(sysp, pp, epsilon=0.05, steps=1, seed=0)
    assert len(steps) == 1
    step = steps[0]
    assert step.result.status in ("converged", "no_real_solution")
    assert 1e-8 < step.member_residual < 1e-1
    disp = (step.point.real - pp.coords).reshape(-1)
    members, free, _ = pinned_member_system(sysp, pp)
    J = members.jacobian(pp.coords.reshape(-1)[
        [i * graph.d + k for i, k in free]].astype(complex)).real
    flex = numerical_nullspace(J)[:, 0]
    disp_free = np.array([disp[i * graph.d + k] for i, k in free])
    cos = abs(disp_free @ flex) / np.linalg.norm(disp_free)
    assert cos > 0.9


def test_deform_requires_a_flex():
    graph, p, sys_ = load_fixture("triangle")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    with pytest.raises(FrameworkError):
        deform_framework(sysp, pp, epsilon=0.05, steps=1, seed=0)


def test_epsilon_check_refuses_over_budget(prism):
    graph, p, sys_ = prism
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    with pytest.raises(PathBudgetError):
        epsilon_rigidity_check(sysp, pp, epsilon=0.1, seed=0, budget=1000)


@pytest.mark.parametrize("epsilon", [1e200, 1.4e154, 10 ** 200, 1e-162, 1e-200])
def test_an_epsilon_whose_square_is_not_a_positive_float_is_rejected(epsilon, prism):
    """Above about 1.3e154 the square of epsilon overflows and below about
    1.6e-162 it is 0; either is refused before anything is built."""
    graph, p, sys_ = prism
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    with pytest.raises(FrameworkError, match="positive finite square"):
        epsilon_rigidity_check(sysp, pp, epsilon=epsilon, seed=0)


@pytest.mark.parametrize("epsilon", [1.3e154, 1e-161])
def test_an_epsilon_whose_square_is_a_positive_float_is_accepted(epsilon, monkeypatch):
    graph, p, sys_ = load_fixture("triangle")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    h, starts = _tracked(lambda: epsilon_rigidity_check(sysp, pp, epsilon=epsilon, seed=0),
                         monkeypatch)
    assert len(starts) == np.prod(h.target.degrees) == 512


def test_deform_rejects_unknown_direction():
    graph, p, sys_ = load_fixture("hinge")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    with pytest.raises(FrameworkError, match="flex"):
        deform_framework(sysp, pp, direction="random", epsilon=0.05, seed=0)


def test_deform_reports_an_anchor_that_does_not_settle():
    """Square with member (1, 2)'s rest squared length x4: p is far from the
    first push's start system, so the settle fails and the walk ends there,
    with the residual of the settled anchor on the start system and its
    reality flag read from its imaginary part, as on every other step."""
    graph, p, sys_ = load_fixture("square")
    pp = pin_moving_frame(p)
    rest = sys_.rest_sq_lengths * np.array([4.0, 1.0, 1.0, 1.0])
    sysp = build_constraints(graph, pp, rest_sq_lengths=rest)
    steps = deform_framework(sysp, pp, epsilon=0.05, steps=1, seed=0)
    assert len(steps) == 1
    step = steps[0]
    assert step.result.status == "settle_failed"
    assert step.result.steps == 0
    assert step.result.max_imag <= continuation.TAU_IMAG
    assert step.real is True
    assert np.isnan(step.member_residual)
    assert step.result.residual == 1.569842129607382


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_deform_rejects_a_non_finite_direction(bad):
    graph, p, sys_ = load_fixture("hinge")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    direction = np.ones(graph.n * graph.d)
    direction[-1] = bad
    with pytest.raises(FrameworkError, match="finite"):
        deform_framework(sysp, pp, direction=direction, epsilon=0.05, seed=0)


# ---------------------------------------------------------------------------
# lockstep tracking: a batch gives every path bit for bit the result it gets
# when tracked alone


def _dense_system(degrees, seed):
    rng = np.random.default_rng(seed)
    n = len(degrees)
    polys = []
    for d in degrees:
        terms = {e: complex(rng.normal(), rng.normal())
                 for e in itertools.product(range(d + 1), repeat=n) if sum(e) <= d}
        polys.append(MultiPoly(n, terms))
    return PolySystem(polys)


def _assert_same_result(a, b):
    """Two results bit for bit: endpoint bytes, reported fields, work
    counters and trajectories."""
    assert a.endpoint.tobytes() == b.endpoint.tobytes()
    assert (a.status, a.steps) == (b.status, b.steps)
    assert (a.newton_updates, a.rejected_steps) == (b.newton_updates, b.rejected_steps)
    assert 0 <= a.rejected_steps <= a.steps and a.newton_updates >= 0
    assert (repr(a.residual), repr(a.max_imag)) == (repr(b.residual), repr(b.max_imag))
    assert len(a.trajectory) == len(b.trajectory)
    for (ta, xa), (tb, xb) in zip(a.trajectory, b.trajectory):
        assert ta == tb and np.array_equal(xa, xb)


LOCKSTEP_SYSTEMS = {
    "cubic": _univariate([1, -7, 17, -15]),
    # both quadratics share the leading form x^2, so two of the four paths
    # go to infinity
    "paths_at_infinity": PolySystem([
        MultiPoly(2, {(2, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0}),
        MultiPoly(2, {(2, 0): 1.0, (0, 1): -1.0, (0, 0): 1.0})]),
    # no finite solution: every path diverges
    "inconsistent": PolySystem([
        MultiPoly(2, {(2, 0): 1.0, (0, 1): -1.0}),
        MultiPoly(2, {(2, 0): 1.0, (0, 1): -1.0, (0, 0): 1.0})]),
    "dense_222": _dense_system((2, 2, 2), 5),
}


def _solve_matching_single_paths(f, monkeypatch):
    """Solve f in lockstep and check every path against tracking it alone."""
    calls = []
    real = continuation.track_paths

    def spy(h, starts, record=False):
        starts = [np.array(x0) for x0 in starts]
        calls.append((h, starts))
        return real(h, starts, record)

    monkeypatch.setattr(continuation, "track_paths", spy)
    batch = solve_total_degree(f, seed=3, record=True)
    monkeypatch.setattr(continuation, "track_paths", real)
    (h, starts), = calls
    assert len(batch) == len(starts) == np.prod(h.target.degrees)
    for res, x0 in zip(batch, starts):
        _assert_same_result(res, track_path(h, x0, record=True))
    return batch


def _small_batches(monkeypatch, rows):
    """Lockstep batches of `rows` rows: with no term budget, BLOCK_PATHS is
    the batch size."""
    monkeypatch.setattr(continuation, "BLOCK_PATHS", rows)
    monkeypatch.setattr(continuation, "BATCH_TERMS", 0)


def _tracked(run, monkeypatch):
    """The homotopy and the start points of the one track_paths call that
    run() makes, which here tracks nothing."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(continuation, "track_paths",
                      lambda h, starts, record=False: calls.append((h, list(starts))) or [])
        run()
    (h, starts), = calls
    return h, starts


@pytest.mark.parametrize("name", sorted(LOCKSTEP_SYSTEMS))
def test_lockstep_solve_matches_single_path_tracking(name, monkeypatch):
    # a small batch, so that ended paths hand their rows to new starts
    _small_batches(monkeypatch, 3)
    batch = _solve_matching_single_paths(LOCKSTEP_SYSTEMS[name], monkeypatch)
    if name == "inconsistent":
        assert {r.status for r in batch} == {"diverged"}
    if name == "paths_at_infinity":
        assert {r.status for r in batch} >= {"converged", "step_underflow"}


@pytest.mark.parametrize("nvars,deg,single_term", [(1, 3, False), (1, 3, True),
                                                   (2, 2, False), (3, 4, False),
                                                   (4, 2, True)])
def test_batched_evaluation_rows_match_single_points(nvars, deg, single_term):
    rng = np.random.default_rng(83 + nvars)
    f = _dense_system((deg,) * nvars, 7 + deg)
    if single_term:
        f = PolySystem([MultiPoly(nvars, {(deg,) + (0,) * (nvars - 1): 2.0 - 1j})
                        for _ in range(nvars)])
    g = _dense_system((deg,) * nvars, 11)
    h = Homotopy(target=f, start=g, gamma=complex(np.exp(0.7j)))
    X = rng.normal(size=(5, nvars)) + 1j * rng.normal(size=(5, nvars))
    t = rng.uniform(size=5)
    values, jacobians = f.evaluate(X), f.jacobian(X)
    homotopy = h.evaluate(X, t)  # h, dh/dx and dh/dt
    assert values.shape == (5, nvars) and jacobians.shape == (5, nvars, nvars)
    assert [a.shape for a in homotopy] == [(5, nvars), (5, nvars, nvars), (5, nvars)]
    for k in range(5):
        assert np.array_equal(values[k], f.evaluate(X[k]))
        assert np.array_equal(jacobians[k], f.jacobian(X[k]))
        for rows, single in zip(homotopy, h.evaluate(X[k], float(t[k])), strict=True):
            assert np.array_equal(rows[k], single)
    # the layout of the batch does not change a bit
    wide = np.zeros((5, 2 * nvars), dtype=complex)
    wide[:, ::2] = X
    for Y in (np.asfortranarray(X), wide[:, ::2]):
        both = f.evaluate_and_jacobian(Y)
        assert np.array_equal(f.evaluate(Y), values)
        assert np.array_equal(f.jacobian(Y), jacobians)
        assert np.array_equal(both[0], values) and np.array_equal(both[1], jacobians)
        for laid_out, rows in zip(h.evaluate(Y, t), homotopy, strict=True):
            assert np.array_equal(laid_out, rows)


def test_homotopy_evaluation_is_the_formula_on_target_and_start():
    f, g = _dense_system((3, 2), 21), _dense_system((2, 2), 22)
    gamma = complex(np.exp(1.3j))
    h = Homotopy(target=f, start=g, gamma=gamma)
    rng = np.random.default_rng(23)
    X = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
    t = rng.uniform(size=6)
    for x, s in ((X, t), (X[4], t[4])):
        (F, dF), (G, dG) = f.evaluate_and_jacobian(x), g.evaluate_and_jacobian(x)
        value, dh_dx, dh_dt = h.evaluate(x, s)
        s = np.asarray(s)[..., None]  # t over a point's values
        assert np.array_equal(value, (1.0 - s) * F + gamma * s * G)
        s = s[..., None]  # and over its Jacobian
        assert np.array_equal(dh_dx, (1.0 - s) * dF + gamma * s * dG)
        assert np.array_equal(dh_dt, gamma * G - F)


@pytest.mark.parametrize("end", [0, 1])
def test_newton_on_an_end_is_newton_on_that_system_alone(end):
    f, g = _dense_system((3, 2), 21), _dense_system((2, 2), 22)
    h = Homotopy(target=f, start=g, gamma=complex(np.exp(1.3j)))
    alone = (f, g)[end]
    rng = np.random.default_rng(24)
    X = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    tol = np.full(8, 1e-10)
    got = continuation._newton(h.end(end), X, tol, 6)
    want = continuation._newton(lambda z, _: alone.evaluate_and_jacobian(z), X, tol, 6)
    assert want[1].any()  # some rows converge
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


def test_results_do_not_depend_on_the_memory_layout_of_a_batch():
    # np.linalg.norm(axis=1) sums a row that is not C-ordered in another
    # order, so a Fortran-ordered batch or a transposed view of the same
    # points must still get the bits of the C-ordered batch
    graph, p, sys_ = load_fixture("hinge")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    members, _, p_free = pinned_member_system(sysp, pp)
    n = p_free.size
    sphere = MultiPoly.constant(n, -0.01)
    for i in range(n):
        diff = MultiPoly.variable(n, i) - MultiPoly.constant(n, p_free[i])
        sphere = sphere + diff * diff
    square = PolySystem(list(members.polys) + [sphere])  # hinge: 3 x 3
    rng = np.random.default_rng(29)
    X = p_free + 0.1 * (rng.normal(size=(40, n)) + 1j * rng.normal(size=(40, n)))
    start = PolySystem([MultiPoly.variable(n, i) ** 2 - MultiPoly.constant(n, 1.0)
                        for i in range(n)])
    h = Homotopy(target=square, start=start, gamma=complex(np.exp(0.9j)))
    starts = np.array(list(itertools.product((1.0, -1.0), repeat=n)) * 5, dtype=complex)

    def run(points, starts):
        return (continuation._newton(lambda z, _: square.evaluate_and_jacobian(z),
                                     points, np.full(len(points), 1e-12), 6),
                continuation._polish_real(square, points.real),
                track_paths(h, starts))

    (x, ok, updates), (polished, worst), tracked = run(X, starts)
    assert X.flags.c_contiguous and ok.any() and (worst <= 1e-12).any()
    assert [r.status for r in tracked].count("converged") > 0
    for layout in (np.asfortranarray, lambda a: a.T.copy().T):
        laid_out = layout(X)
        assert not laid_out.flags.c_contiguous
        (x2, ok2, updates2), (polished2, worst2), tracked2 = run(laid_out, layout(starts))
        assert x2.tobytes() == x.tobytes()
        assert np.array_equal(ok2, ok) and np.array_equal(updates2, updates)
        assert np.ascontiguousarray(polished2).tobytes() == polished.tobytes()
        assert worst2.tobytes() == worst.tobytes()
        for a, b in zip(tracked2, tracked, strict=True):
            assert a.endpoint.tobytes() == b.endpoint.tobytes()
            assert (a.status, repr(a.residual), a.steps, a.newton_updates,
                    a.rejected_steps) == (b.status, repr(b.residual), b.steps,
                                          b.newton_updates, b.rejected_steps)


def _record_evaluators(monkeypatch):
    """Record every system whose term set is built, every one evaluated
    (once per call) and every homotopy tracked, with the number of
    evaluations made before it was tracked."""
    built, evaluated, tracked = [], [], []
    build_terms, evaluate = PolySystem._build, PolySystem._sums
    track = continuation.track_paths

    def build(self):
        built.append(self)
        build_terms(self)

    def evaluate_recorded(self, x):
        evaluated.append(self)
        return evaluate(self, x)

    def track_recorded(h, starts, record=False):
        tracked.append((h, len(evaluated)))
        return track(h, starts, record)

    monkeypatch.setattr(PolySystem, "_build", build)
    monkeypatch.setattr(PolySystem, "_sums", evaluate_recorded)
    monkeypatch.setattr(continuation, "track_paths", track_recorded)
    return built, evaluated, tracked


def test_a_solve_evaluates_only_its_homotopy(monkeypatch):
    built, evaluated, tracked = _record_evaluators(monkeypatch)
    f = PolySystem([MultiPoly(2, {(2, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),
                    MultiPoly(2, {(1, 1): 1.0, (0, 2): 2.0, (0, 0): -4.0})])
    res = solve_total_degree(f, seed=2)
    assert [r.status for r in res] == ["converged"] * 4
    (h, _), = tracked
    # the step loop, the endgame polish and the final residuals read the
    # one stacked system; the target alone is never evaluated
    assert built == [h._both]
    assert set(evaluated) == {h._both}


def test_a_deform_push_evaluates_only_its_homotopy(monkeypatch):
    graph, p, sys_ = load_fixture("square")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    built, evaluated, tracked = _record_evaluators(monkeypatch)
    steps = deform_framework(sysp, pp, steps=3, seed=5)
    assert len(steps) == 3
    # the member system, for the flex and the member residuals, and one
    # stacked system per push
    assert len(built) == 4
    stacked = [h._both for h, _ in tracked]
    assert stacked == built[1:]
    # the flex, then per push its settle and tracking, then its member residual
    runs = [e for k, e in enumerate(evaluated) if k == 0 or e is not evaluated[k - 1]]
    members = built[0]
    assert runs == [members] + [e for b in stacked for e in (b, members)]
    for (h, before) in tracked:
        assert evaluated[before - 1] is h._both  # the settle


def test_batch_with_a_start_point_off_the_start_system_raises():
    f = _univariate([1, 0, 0, -2])
    g = _univariate([1, 0, 0, -1])
    h = Homotopy(target=f, start=g, gamma=1.0)
    roots = [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]
    track_paths(h, roots)
    with pytest.raises(ContinuationError, match="start point"):
        track_paths(h, roots[:2] + [np.array([0.5 + 0j])] + roots[2:])


def test_singular_path_leaves_the_rest_of_its_batch_unchanged():
    # start system x^2 (x - 1): its Jacobian vanishes exactly at the double
    # root 0, so the path from 0 fails every predictor and corrector solve
    f = _univariate([1, 0, 0, -2])
    g = _univariate([1, -1, 0, 0])
    h = Homotopy(target=f, start=g, gamma=complex(np.exp(0.3j)))
    starts = [np.array([1.0 + 0j]), np.array([0j]), np.array([1.0 + 0j])]
    batch = track_paths(h, starts, record=True)
    assert batch[1].status == "step_underflow" and batch[1].steps > 1
    assert batch[0].status == "converged"
    for res, x0 in zip(batch, starts):
        _assert_same_result(res, track_path(h, x0, record=True))


def test_step_cap_ends_every_path_as_step_underflow(monkeypatch):
    _small_batches(monkeypatch, 2)
    monkeypatch.setattr(continuation, "MAX_STEPS", 3)
    batch = _solve_matching_single_paths(LOCKSTEP_SYSTEMS["cubic"], monkeypatch)
    assert [(r.status, r.steps) for r in batch] == [("step_underflow", 3)] * 3
    # short of T_CUTOFF a path is step_underflow even where it solves the target
    g = _univariate([1, 0, -1])
    res = track_path(Homotopy(target=g, start=g, gamma=1.0), np.array([1.0 + 0j]))
    assert (res.status, res.steps, res.residual) == ("step_underflow", 3, 0.0)


# ---------------------------------------------------------------------------
# the refilled batch: new starts take the rows of ended paths


def _quintic():
    """The 75-path system of tools/write_reports.py."""
    return PolySystem([
        MultiPoly(3, {(5, 0, 0): 1, (1, 1, 0): -2, (0, 0, 2): 1 / 3, (0, 0, 0): -1}),
        MultiPoly(3, {(0, 5, 0): 1, (1, 0, 1): 3 / 2, (0, 1, 0): -1, (0, 0, 0): 2}),
        MultiPoly(3, {(0, 0, 3): 1, (1, 1, 1): -1, (1, 0, 0): 1 / 5,
                      (0, 0, 0): -3 / 4})])


def _count_batches(monkeypatch):
    """Patch the tracker to record the rows of each step's corrector with
    the starts taken by then, and the rows of every evaluator call.  Returns
    the lists and a wrapper that counts the starts taken from an iterable."""
    taken, stepped, evaluated = [0], [], []
    real_newton, real_evaluate = continuation._newton, PolySystem._sums

    def counted(starts):
        for x0 in starts:
            taken[0] += 1
            yield x0

    def newton(system, x, tol, max_iter):
        # the endgame polish calls _newton with POLISH_STEPS
        if max_iter == continuation.MAX_NEWTON:
            stepped.append((len(x), taken[0]))
        return real_newton(system, x, tol, max_iter)

    def evaluate(self, x):
        evaluated.append(np.asarray(x).reshape(-1, np.shape(x)[-1]).shape[0])
        return real_evaluate(self, x)

    monkeypatch.setattr(continuation, "_newton", newton)
    monkeypatch.setattr(PolySystem, "_sums", evaluate)
    return stepped, evaluated, counted


@pytest.mark.parametrize("name", ["dense_222", "quintic"])
def test_refilled_batch_stays_full_and_bounds_the_evaluator(name, monkeypatch):
    f = LOCKSTEP_SYSTEMS["dense_222"] if name == "dense_222" else _quintic()
    # a term budget of 4 rows of the evaluator's terms makes batches of 4
    h, _ = _tracked(lambda: solve_total_degree(f, seed=3), monkeypatch)
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 1)
    monkeypatch.setattr(continuation, "BATCH_TERMS", 4 * h._both.terms)
    assert continuation._batch_rows(h) == 4
    # one core, so that every path runs in this process, where it is counted
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    _solve_matching_single_paths(f, monkeypatch)

    # solve again, counting the starts taken when each step's corrector runs
    total = int(np.prod(f.degrees))
    stepped, evaluated, counted = _count_batches(monkeypatch)
    real_track = continuation.track_paths
    monkeypatch.setattr(continuation, "track_paths",
                        lambda h, starts, record=False:
                        real_track(h, counted(starts), record))
    assert len(solve_total_degree(f, seed=3)) == total
    while_starts_remain = [rows for rows, k in stepped if k < total]
    assert len(while_starts_remain) > 1
    assert set(while_starts_remain) == {4}
    assert max(evaluated) == 4


@pytest.mark.parametrize("name", ["small_budget", "many_terms"])
def test_no_evaluator_call_exceeds_the_batch_rule(name, monkeypatch):
    if name == "small_budget":
        # the quintic's batch is cut from all 75 paths to 10 by the budget
        h, starts = _tracked(lambda: solve_total_degree(_quintic(), seed=3), monkeypatch)
        terms = h._both.terms
        monkeypatch.setattr(continuation, "BLOCK_PATHS", 4)
        monkeypatch.setattr(continuation, "BATCH_TERMS", 11 * terms - 1)
        rows = 10
    else:
        # past BATCH_TERMS / BLOCK_PATHS = 1,024 terms, batches keep BLOCK_PATHS rows
        h, starts = _tracked(lambda: solve_total_degree(_dense_system((5,) * 4, 5), seed=3),
                             monkeypatch)
        terms = h._both.terms
        assert terms > continuation.BATCH_TERMS // continuation.BLOCK_PATHS
        starts, rows = starts[:80], continuation.BLOCK_PATHS
    assert continuation._batch_rows(h) == rows
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    stepped, evaluated, counted = _count_batches(monkeypatch)
    assert len(track_paths(h, counted(starts))) == len(starts)
    while_starts_remain = [size for size, k in stepped if k < len(starts)]
    assert len(while_starts_remain) > 1
    assert set(while_starts_remain) == {rows}
    assert max(evaluated) == rows


@pytest.mark.parametrize("name", ["epscheck_triangle", "quintic"])
def test_results_do_not_depend_on_the_batch_rows(name, monkeypatch):
    if name == "quintic":
        h, starts = _tracked(lambda: solve_total_degree(_quintic(), seed=3), monkeypatch)
    else:
        h, starts = _tracked(_epscheck_triangle, monkeypatch)
        assert len(starts) == 512 and continuation._batch_rows(h) == 368
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    default = track_paths(h, starts)
    # the 4-row batches track every fourth start of the 512 to keep the
    # test short; a path's result does not depend on the other starts
    every = 4 if len(starts) > 100 else 1
    for rows, subset in ((64, 1), (4, every)):
        _small_batches(monkeypatch, rows)
        for a, b in zip(track_paths(h, starts[::subset]), default[::subset], strict=True):
            _assert_same_result(a, b)
    assert {r.status for r in default} >= {"converged"}


# ---------------------------------------------------------------------------
# more starts than one batch are shared out over forked processes


def _forks(monkeypatch):
    """Patch track_paths's forked split to record that it ran."""
    calls = []
    real = continuation._track_forked

    def forked(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(continuation, "_track_forked", forked)
    return calls


@pytest.mark.parametrize("cores", [2, 3])
def test_forked_shares_give_the_results_of_one_process(cores, monkeypatch):
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 4)
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    alone = solve_total_degree(_quintic(), seed=3, record=True)
    monkeypatch.setattr(continuation, "_usable_cores", lambda: cores)
    forks = _forks(monkeypatch)
    shared = solve_total_degree(_quintic(), seed=3, record=True)
    assert forks == [cores]
    assert len(shared) == len(alone) == 75
    # the work counters come back through the pipe with the rest
    for a, b in zip(shared, alone):
        _assert_same_result(a, b)
    assert all(r.newton_updates > 0 for r in shared)
    assert any(r.rejected_steps > 0 for r in shared)


def test_no_more_processes_than_batches_of_starts(monkeypatch):
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 4)
    h, roots = _cube_roots()
    starts = roots * 3
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    alone = track_paths(h, starts, record=True)
    # 9 starts make 3 batches of at most 4, so 3 of the 8 cores track them
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 8)
    forks = _forks(monkeypatch)
    forked, real_fork = [], os.fork

    def counted_fork():
        if len(forked) == 2:
            raise AssertionError("a third fork")
        forked.append(True)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    shared = track_paths(h, starts, record=True)
    assert forks == [3] and len(forked) == 2
    for a, b in zip(shared, alone, strict=True):
        _assert_same_result(a, b)


def _cube_roots():
    """The homotopy from x^3 = 1 to x^3 = 2, and the cube roots of 1."""
    h = Homotopy(target=_univariate([1, 0, 0, -2]), start=_univariate([1, 0, 0, -1]))
    return h, [np.array([np.exp(2j * np.pi * k / 3)]) for k in range(3)]


@pytest.mark.parametrize("share", ["caller", "forked"])
def test_a_bad_start_in_either_share_raises_and_no_process_remains(share, monkeypatch):
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 2)
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 2)
    forks = _forks(monkeypatch)
    h, roots = _cube_roots()
    # start 0 opens the caller's share and start 1 the forked process's;
    # either share still has 60 good paths to track when the other raises
    starts = roots * 40
    starts.insert(0 if share == "caller" else 1, np.array([0.5 + 0j]))
    with pytest.raises(ContinuationError, match="start point"):
        track_paths(h, starts)
    assert forks == [2]
    assert multiprocessing.active_children() == []


def test_a_forked_process_that_ends_without_results_raises(monkeypatch):
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 2)
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 2)
    monkeypatch.setattr(continuation, "_track_share", lambda *args: os._exit(3))
    h, roots = _cube_roots()
    with pytest.raises(ContinuationError, match="exit code 3"):
        track_paths(h, roots + roots)
    assert multiprocessing.active_children() == []


def test_the_serial_path_does_not_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 4)
    f = LOCKSTEP_SYSTEMS["dense_222"]
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    assert len(solve_total_degree(f, seed=3)) == 8
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 8)
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 2)
    assert len(solve_total_degree(f, seed=3)) == 8
    # and the split does fork
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 7)
    with pytest.raises(AssertionError, match="forked"):
        solve_total_degree(f, seed=3)


def test_a_daemonic_caller_tracks_every_path_itself(monkeypatch):
    monkeypatch.setattr(continuation, "BLOCK_PATHS", 4)
    f = LOCKSTEP_SYSTEMS["dense_222"]
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 1)
    alone = solve_total_degree(f, seed=3)
    monkeypatch.setattr(continuation, "_usable_cores", lambda: 2)
    # a pool worker is daemonic and may not start processes of its own
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply(solve_total_degree, (f,), {"seed": 3})
    for a, b in zip(pooled, alone, strict=True):
        _assert_same_result(a, b)


# ---------------------------------------------------------------------------
# the prefix-product kernel gives the bits of a gather-and-reduce over all
# variables


class _GatherReduce:
    """The evaluator before prefix products: a (P, U, n) gather of power
    table entries, one for every variable of every distinct monomial, and
    one product over the variables, left to right.  The reference for
    PolySystem's evaluation."""

    def __init__(self, polys, nvars, nrows, rows):
        self.nrows = nrows
        self.coeffs = np.array([[c for p in polys for c in p.terms.values()]],
                               dtype=complex)
        rows = np.repeat(np.asarray(rows, dtype=np.int64),
                         [len(p.terms) for p in polys])
        self.bins = (2 * rows[:, None] + np.arange(2)).ravel()
        unique = {}
        self.inverse = np.array([unique.setdefault(e, len(unique))
                                 for p in polys for e in p.terms], dtype=np.int64)
        E = np.array(list(unique), dtype=np.int64).reshape(len(unique), nvars)
        self.max_exp = int(E.max(initial=0))
        self.gather = E * nvars + np.arange(nvars)

    def evaluate(self, X):
        sums = self.parts(X).reshape(-1)
        return (sums[0::2] + 1j * sums[1::2]).reshape(len(X), self.nrows)

    def parts(self, X):
        """The bincount sums of the real and of the imaginary parts of each
        row's terms, as a (P, nrows, 2) float array."""
        P, n = X.shape
        K = self.max_exp + 1
        table = np.empty((K, P, n), dtype=complex)
        table[0] = 1.0
        for k in range(1, K):
            np.multiply(table[k - 1], X, out=table[k])
        table = table.transpose(1, 0, 2).reshape(P, K * n)
        factors = table.take(self.gather, axis=1)
        mono = factors[:, :, 0]
        for j in range(1, n):
            mono = mono * factors[:, :, j]
        vals = self.coeffs * mono.take(self.inverse, axis=1)
        bins = (self.bins + 2 * self.nrows * np.arange(P)[:, None]).ravel()
        sums = np.bincount(bins, weights=vals.view(np.float64).ravel(),
                           minlength=2 * P * self.nrows)
        return sums.reshape(P, self.nrows, 2)


def _kernel_points(rng, P, n):
    """Points mixing generic entries at magnitudes 1e-8, 1 and 1e8 with
    roots of unity and exact zeros."""
    scale = rng.choice([1e-8, 1.0, 1e8], size=(P, n))
    X = scale * (rng.normal(size=(P, n)) + 1j * rng.normal(size=(P, n)))
    unity = np.exp(2j * np.pi * rng.integers(0, 12, size=(P, n)) / 12)
    kind = rng.integers(0, 4, size=(P, n))
    X[kind == 1] = unity[kind == 1]
    X[kind == 2] = 0.0
    X[kind == 3] = rng.choice([1.0, -1.0, 1j, -1j], size=np.count_nonzero(kind == 3))
    return X


def _references(f):
    """_GatherReduce of the values and of the flattened Jacobian of f."""
    m, n = len(f), f.nvars
    diffs = [p.diff(j) for p in f.polys for j in range(n)]
    return (_GatherReduce(f.polys, n, m, range(m)),
            _GatherReduce(diffs, n, m * n, range(m * n)))


def _epscheck_triangle():
    """epscheck triangle at epsilon 0.1 and seed 0."""
    graph, p, sys_ = load_fixture("triangle")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    return epsilon_rigidity_check(sysp, pp, epsilon=0.1, seed=0)


def _epscheck_homotopy(monkeypatch):
    return _tracked(_epscheck_triangle, monkeypatch)[0]._both


def _mixed_rows(n, seed):
    """A single-term row, a constant-only row, a zero row and a dense row."""
    rng = np.random.default_rng(seed)
    single = tuple(int(e) for e in rng.integers(0, 4, size=n))
    return PolySystem([MultiPoly(n, {single: complex(rng.normal(), rng.normal())}),
                       MultiPoly(n, {(0,) * n: -2.5 + 0.5j}),
                       MultiPoly(n, {}),
                       _dense_system((3,), seed).polys[0].lift(n)])


KERNEL_SYSTEMS = {
    **{f"dense_{n}vars_deg{d}": (lambda n=n, d=d: _dense_system((d,) * n, 10 * n + d))
       for n, d in [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1), (6, 2), (3, 5)]},
    "mixed_rows_1var": lambda: _mixed_rows(1, 3),
    "mixed_rows_4vars": lambda: _mixed_rows(4, 4),
    "single_terms": lambda: PolySystem(
        [MultiPoly(3, {(2, 0, 3): 1.5 - 2j}), MultiPoly(3, {(1, 1, 1): 1j}),
         MultiPoly(3, {(0, 4, 0): -1.0})]),
}


@pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS) + ["epscheck"])
def test_prefix_products_match_the_gather_and_reduce_bit_for_bit(name, monkeypatch):
    f = (_epscheck_homotopy(monkeypatch) if name == "epscheck"
         else KERNEL_SYSTEMS[name]())
    m, n = len(f), f.nvars
    values, jacobian = _references(f)
    rng = np.random.default_rng(97)
    for P in (1, 3, 64, 65):
        X = _kernel_points(rng, P, n)
        expected = (values.evaluate(X).view(np.float64),
                    jacobian.evaluate(X).reshape(P, m, n).view(np.float64))
        for k in (slice(None), 0, P - 1):
            got = (f.evaluate(X[k]), f.jacobian(X[k])) + f.evaluate_and_jacobian(X[k])
            for out, want in zip(got, expected * 2):
                assert np.array_equal(out.view(np.float64), want[k], equal_nan=True)


def test_a_non_finite_imaginary_sum_keeps_its_real_sum():
    """The one change from the sums[0::2] + 1j * sums[1::2] assembly of
    _GatherReduce: where an imaginary sum is inf or NaN, 0 * inf made the
    real part NaN there, and the complex view keeps the real sum."""
    big = 1 + 1e308j
    f = PolySystem([MultiPoly(3, {(1, 0, 0): big, (0, 1, 0): big}),
                    MultiPoly(3, {(1, 0, 0): big, (0, 1, 0): big,
                                  (0, 0, 1): big.conjugate()}),
                    MultiPoly(3, {(1, 1, 1): 2.0 - 1j})])
    # the terms of row 0 are 1 + 1e308j twice, so its imaginary sum is inf;
    # row 1 adds 2 - inf j, so its imaginary sum is NaN
    X = np.array([[1.0, 1.0, 2.0]], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        values, jac = f.evaluate(X), f.jacobian(X)
        both = f.evaluate_and_jacobian(X)
        old = _references(f)[0].evaluate(X)
    assert values[0, 0].real == 2.0 and values[0, 0].imag == np.inf
    assert values[0, 1].real == 4.0 and np.isnan(values[0, 1].imag)
    assert np.isnan(old[0, 0].real) and np.isnan(old[0, 1].real)
    assert values[0, 2] == old[0, 2] == 4.0 - 2.0j
    assert np.array_equal(both[0], values, equal_nan=True)
    assert np.array_equal(both[1], jac, equal_nan=True)


def _scatter_reference(f, X):
    """The bincount parts of every row of f's evaluator, values then
    Jacobian, at the (P, n) batch X: a (P, rows, 2) float array."""
    values, jacobian = _references(f)
    return np.concatenate([values.parts(X), jacobian.parts(X)], axis=1)


SCATTER_CASES = {
    # at the origin every term of the first row is -0.0 + 0j and every term
    # of the second is 0 - 0.0j, so a sum from the first term would keep a
    # -0.0 that bincount, which starts from +0.0, never gives
    "zero_sums": lambda: (
        PolySystem([MultiPoly(2, {(1, 0): -1.0, (0, 1): -2.0}),
                    MultiPoly(2, {(1, 1): -1.0 - 1.0j, (2, 0): -3.0 - 1.0j})]),
        np.array([[0j, 0j], [complex(-0.0, -0.0)] * 2, [0j, complex(-0.0, 0.0)]])),
    # row 0 sums its imaginary parts to inf and row 1 to NaN (see
    # test_a_non_finite_imaginary_sum_keeps_its_real_sum)
    "non_finite_imaginary": lambda: (
        PolySystem([MultiPoly(3, {(1, 0, 0): 1 + 1e308j, (0, 1, 0): 1 + 1e308j}),
                    MultiPoly(3, {(1, 0, 0): 1 + 1e308j, (0, 1, 0): 1 + 1e308j,
                                  (0, 0, 1): 1 - 1e308j})]),
        np.array([[1.0, 1.0, 2.0]], dtype=complex)),
    "no_points": lambda: (_dense_system((3, 2, 2), 41), np.zeros((0, 3), dtype=complex)),
    "one_point": lambda: (_dense_system((3, 2, 2), 42),
                          _kernel_points(np.random.default_rng(43), 1, 3)),
    "one_dimensional_point": lambda: (_dense_system((3, 2, 2), 44),
                                      _kernel_points(np.random.default_rng(45), 1, 3)[0]),
}


@pytest.mark.parametrize("name", sorted(SCATTER_CASES))
def test_the_complex_scatter_gives_the_bincount_parts_bit_for_bit(name):
    """Each row's real and imaginary sums are the bincount sums of its
    terms' parts, signs of zeros and non-finite values included, and the
    sums keep the shape of the points."""
    f, X = SCATTER_CASES[name]()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _scatter_reference(f, X.reshape(-1, f.nvars))
        got = f._sums(X)
    assert got.shape == X.shape[:-1] + (want.shape[1],)
    assert got.view(np.float64).tobytes() == want.tobytes()
    parts = got.view(np.float64)
    assert not np.signbit(parts[parts == 0.0]).any()
    if name == "non_finite_imaginary":
        assert parts[0, :2].tolist() == [2.0, np.inf]
        assert parts[0, 2] == 4.0 and np.isnan(parts[0, 3])


def test_a_call_leaves_every_earlier_output_unchanged():
    """The evaluator keeps its product buffer from call to call: it holds one
    point until a batch comes and then max(P, BLOCK_PATHS) points, and no
    output is the buffer or a view of it."""
    f = _dense_system((3, 2, 2), 31)
    rng = np.random.default_rng(32)
    f.evaluate(rng.normal(size=3))
    assert len(f.products) == 1
    f.evaluate(rng.normal(size=(2, 3)))
    assert len(f.products) == continuation.BLOCK_PATHS
    outputs, copies = [], []
    for P in (65, 1, 64):
        X = rng.normal(size=(P, 3)) + 1j * rng.normal(size=(P, 3))
        out = (f.evaluate(X), f.jacobian(X)) + f.evaluate_and_jacobian(X)
        for a in out:
            assert not np.shares_memory(a, f.products)
        # a new evaluator, whose buffer no earlier call has filled
        out += PolySystem(f.polys).evaluate_and_jacobian(X)
        for a, b in zip(out[:2], out[2:4]):
            assert np.array_equal(a, b)
        for a, b in zip(out[:2], out[4:]):
            assert np.array_equal(a, b)
        outputs.append(out)
        copies.append(tuple(a.copy() for a in out))
    assert len(f.products) == 65
    for out, kept in zip(outputs, copies):
        for a, b in zip(out, kept):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("P", [0, 1, 65])
def test_zero_and_constant_systems_have_zero_jacobians(P):
    zero = PolySystem([MultiPoly(2, {}), MultiPoly(2, {})])
    constant = PolySystem([MultiPoly.constant(2, 1.5 - 2j), MultiPoly(2, {(0, 0): -3.0})])
    X = np.random.default_rng(P).normal(size=(P, 2)) + 0j
    for f, c in ((zero, [0.0, 0.0]), (constant, [1.5 - 2j, -3.0])):
        values, jacobian = f.evaluate_and_jacobian(X)
        assert values.shape == (P, 2) and jacobian.shape == (P, 2, 2)
        assert np.array_equal(values, np.broadcast_to(np.array(c, dtype=complex), (P, 2)))
        assert not jacobian.any()
        assert np.array_equal(f.evaluate(X), values)
        assert np.array_equal(f.jacobian(X), jacobian)
        if P:
            assert np.array_equal(f.evaluate(X[0]), values[0])
            assert np.array_equal(f.jacobian(X[-1]), jacobian[-1])


def _reference_polish(target, x):
    """The real polish of one endpoint as it was before batches:
    Gauss-Newton with np.linalg.lstsq steps.  The reference for
    _polish_real."""
    def val_jac(z):
        values, jac = target.evaluate_and_jacobian(z.astype(complex))
        return values.real, jac.real

    prev = np.inf
    r, J = val_jac(x)
    for _ in range(continuation.REAL_POLISH_STEPS):
        worst = np.max(np.abs(r))
        if worst <= 1e-12 or worst >= prev:
            break
        prev = worst
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        x = x - step
        r, J = val_jac(x)
    return x, float(np.max(np.abs(r)))


def _harvest(fixture, seed, monkeypatch):
    """epscheck of a fixture at epsilon 0.1: its result, the real system it
    polished on, the candidates it polished and its free positions."""
    calls = []
    real = continuation._polish_real

    def spy(target, X):
        calls.append((target, X.copy()))
        return real(target, X)

    monkeypatch.setattr(continuation, "_polish_real", spy)
    graph, p, sys_ = load_fixture(fixture)
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    result = epsilon_rigidity_check(sysp, pp, epsilon=0.1, seed=seed)
    (target, X), = calls
    return result, target, X, continuation.free_coordinate_positions(graph.n, graph.d)


@pytest.mark.parametrize("fixture, seed", [("triangle", 0), ("triangle", 5),
                                           ("hinge", 0), ("hinge", 5)])
def test_the_batched_polish_accepts_what_the_loop_per_point_accepts(
        fixture, seed, monkeypatch):
    result, target, X, free = _harvest(fixture, seed, monkeypatch)
    assert len(X) > 100
    kept = X.copy()
    polished, residual = continuation._polish_real(target, X)
    assert X.tobytes() == kept.tobytes()
    seen, expected = set(), []
    for k, x in enumerate(X):
        point, res = _reference_polish(target, x.copy())
        assert (residual[k] <= 1e-10) == (res <= 1e-10)
        if res <= 1e-10:
            assert np.max(np.abs(polished[k] - point)) <= 1e-12
            key = tuple(np.round(point, 6))
            if key not in seen:
                seen.add(key)
                expected.append(point)
        # a row polished alone has the bits it has in the batch
        alone, alone_residual = continuation._polish_real(target, X[k:k + 1])
        assert alone.tobytes() == polished[k:k + 1].tobytes()
        assert repr(alone_residual[0]) == repr(residual[k])
    got = [np.array([w.coords[i, j] for i, j in free]) for w in result.witnesses]
    assert len(got) == len(expected) == (2 if fixture == "hinge" else 0)
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_each_row_of_the_polish_stops_by_its_own_rule():
    # x^2: a root, which takes no step; 2^-10, which halves to 2^-20 in
    # 10 steps, where x^2 = 2^-40 <= 1e-12; and 1e10, which halves at each
    # of the REAL_POLISH_STEPS = 50 steps and still has x^2 = 7.9e-11
    square = PolySystem([MultiPoly(1, {(2,): 1.0})])
    # x^2 + 1, which has no real root: at 0 the Jacobian is 0, so the step
    # is 0 and nothing improves; from 0.5 the step to -0.75 makes the
    # residual worse, and that point is kept; at 1e-310 the step
    # 1 / 2e-310 overflows and is not taken; a NaN row steps on a NaN
    # Jacobian, which is no step either
    shifted = PolySystem([MultiPoly(1, {(2,): 1.0, (0,): 1.0})])
    cases = [(square, [0.0, 2.0 ** -10, 1e10],
              [0.0, 2.0 ** -20, 1e10 * 2.0 ** -50], [0.0, 2.0 ** -40, 1e20 * 2.0 ** -100]),
             (shifted, [0.0, 0.5, 1e-310, np.nan],
              [0.0, -0.75, 1e-310, np.nan], [1.0, 1.5625, 1.0, np.nan])]
    assert continuation.REAL_POLISH_STEPS == 50
    for f, starts, points, residuals in cases:
        X = np.array(starts)[:, None]
        polished, residual = continuation._polish_real(f, X)
        assert np.array_equal(polished[:, 0], points, equal_nan=True)
        assert np.array_equal(residual, residuals, equal_nan=True)
        for k, x in enumerate(X):
            if np.isnan(x[0]):
                # the loop per point handed the NaN Jacobian to lstsq
                with pytest.raises(np.linalg.LinAlgError):
                    _reference_polish(f, x)
                continue
            point, res = _reference_polish(f, x)
            assert point[0] == polished[k, 0] and res == residual[k]
            alone, alone_residual = continuation._polish_real(f, X[k:k + 1])
            assert alone.tobytes() == polished[k:k + 1].tobytes()
            assert repr(alone_residual[0]) == repr(residual[k])
    # no endpoint to polish
    polished, residual = continuation._polish_real(square, np.zeros((0, 1)))
    assert polished.shape == (0, 1) and residual.shape == (0,)


def test_a_nan_polish_residual_is_no_witness(monkeypatch):
    graph, p, sys_ = load_fixture("hinge")
    pp = pin_moving_frame(p)
    sysp = build_constraints(graph, pp, rest_sq_lengths=sys_.rest_sq_lengths)
    polished = []

    def nan_polish(target, X):
        polished.append(X)
        return X, np.full(len(X), np.nan)

    monkeypatch.setattr(continuation, "_polish_real", nan_polish)
    result = epsilon_rigidity_check(sysp, pp, epsilon=0.1, seed=0)
    assert polished
    assert result.witnesses == ()
    assert result.verdict != "deformation_found"
