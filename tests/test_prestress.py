"""Self stresses, stress matrices, and the prestress certificate search."""

import itertools

import numpy as np
import pytest

from tensegrity import (Configuration, FrameworkError, build_constraints,
                        jacobian_at, load_fixture, load_framework,
                        nullspace_decomposition, prestress_certificate,
                        self_stress_basis, stiffness_and_energy, stress_matrix)
from tensegrity import prestress, rigidity
from tensegrity.framework import FIXTURE_NAMES
from tensegrity.rigidity import RANK_REL_TOL

from conftest import random_framework

PRINTED_STRESS = np.array([1.00, 1.00, -1.73, 1.73, 1.00, -1.73,
                           1.73, 1.73, -1.73, 1.00, 1.00, 1.00])
PRINTED_FLEX = np.array([0.000, 1.58, 0.263, -1.37, -0.789, 0.263,
                         1.37, -0.789, 0.263, -0.789, 1.37, -0.263,
                         -0.789, -1.37, -0.263, 1.58, 0.000, -0.263])


def test_stress_basis_is_left_nullspace():
    rng = np.random.default_rng(41)
    frameworks = [load_fixture(name) for name in FIXTURE_NAMES]
    frameworks += [random_framework(rng) for _ in range(40)]
    for _, q, s in frameworks:
        dg = jacobian_at(s, q)
        dec = nullspace_decomposition(s, q)
        basis = self_stress_basis(dec)
        for stress in basis:
            bound = 1e-8 * np.linalg.norm(stress) * np.linalg.norm(dg)
            assert np.max(np.abs(stress @ dg)) <= max(bound, 1e-12)
        # one rank r of dg|_p fixes both nullspaces
        r = np.linalg.matrix_rank(dg, rtol=RANK_REL_TOL)
        assert len(basis) == s.m - r
        assert dec.corank == dg.shape[1] - r


def test_prism_stress_dimension_and_table(prism):
    graph, p, sys_ = prism
    basis = self_stress_basis(nullspace_decomposition(sys_, p))
    assert len(basis) == 1
    w = basis[0] / basis[0][0]
    assert np.max(np.abs(w - PRINTED_STRESS)) <= 1e-2


def test_stress_matrix_annihilates_translations():
    rng = np.random.default_rng(43)
    for _ in range(20):
        graph, q, s = random_framework(rng)
        w = rng.normal(size=graph.m)
        omega = stress_matrix(graph, w)
        for k in range(graph.d):
            t = np.zeros((graph.n, graph.d))
            t[:, k] = 1.0
            assert np.max(np.abs(omega @ t.reshape(-1))) <= 1e-10


def test_stress_norm_is_the_largest_laplacian_eigenvalue():
    # prestress_certificate takes ||Omega_w||_2 from the n x n Laplacian
    rng = np.random.default_rng(53)
    for d in (1, 2, 3):
        for _ in range(10):
            graph, _, _ = random_framework(rng, d=d)
            w = rng.normal(size=graph.m)
            lap = rigidity._weighted_laplacian(graph, w, "stress entries")
            omega = stress_matrix(graph, w)
            assert np.array_equal(np.kron(lap, np.eye(d)), omega)
            norm = np.max(np.abs(np.linalg.eigvalsh(lap)))
            assert norm == pytest.approx(np.linalg.norm(omega, 2), rel=1e-12, abs=0.0)


def test_stress_matrix_is_linear_in_the_stress():
    rng = np.random.default_rng(47)
    graph, _, _ = random_framework(rng, n=5, d=2)
    w1 = rng.normal(size=graph.m)
    w2 = rng.normal(size=graph.m)
    a, b = rng.normal(size=2)
    combined = stress_matrix(graph, a * w1 + b * w2)
    split = a * stress_matrix(graph, w1) + b * stress_matrix(graph, w2)
    assert np.max(np.abs(combined - split)) <= 1e-12


def test_stiffness_identity_and_psd(prism):
    graph, p, sys_ = prism
    rng = np.random.default_rng(53)
    c = rng.uniform(0.0, 1.0, size=graph.m)
    w = rng.normal(size=graph.m)
    K, H = stiffness_and_energy(sys_, p, c, w)
    assert np.max(np.abs(H - (stress_matrix(graph, w) + K))) == 0.0
    assert np.linalg.eigvalsh(K).min() >= -1e-10
    with pytest.raises(FrameworkError):
        stiffness_and_energy(sys_, p, -c - 0.1, w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                 pytest.param(10 ** 400, id="10**400"), "a"])
@pytest.mark.parametrize("call", ["stress_matrix", "material constants", "stresses"])
def test_each_member_value_is_finite(call, bad):
    graph, p, sys_ = load_fixture("hinge")
    spoilt = [1.0] * graph.m
    spoilt[0] = bad
    with pytest.raises(FrameworkError, match="must be finite"):
        if call == "stress_matrix":
            stress_matrix(graph, spoilt)
        elif call == "material constants":
            stiffness_and_energy(sys_, p, spoilt, np.ones(graph.m))
        else:
            stiffness_and_energy(sys_, p, np.ones(graph.m), spoilt)


def test_prism_certificate_found_with_margin(prism):
    graph, p, sys_ = prism
    cert = prestress_certificate(sys_, p)
    assert cert.verdict == "found"
    assert cert.min_eigenvalue > 1.0
    assert cert.min_eigenvalue == pytest.approx(3.370477247161058, abs=1e-9)
    # re-verify the certificate off the search path
    dec = nullspace_decomposition(sys_, p)
    omega = stress_matrix(graph, cert.stress)
    reduced = dec.flexes.T @ omega @ dec.flexes
    assert np.linalg.eigvalsh(reduced).min() > 0.0


def test_certificate_is_scale_invariant(prism):
    graph, p, sys_ = prism
    cert = prestress_certificate(sys_, p)
    dec = nullspace_decomposition(sys_, p)
    reduced = dec.flexes.T @ stress_matrix(graph, cert.stress) @ dec.flexes
    for alpha in (0.5, 2.0, 7.0):
        scaled = dec.flexes.T @ stress_matrix(graph, alpha * cert.stress) @ dec.flexes
        assert np.max(np.abs(scaled - alpha * reduced)) <= 1e-9
        assert (np.linalg.eigvalsh(scaled).min() > 0) == (np.linalg.eigvalsh(reduced).min() > 0)


def test_random_prism_embedding_is_infinitesimally_rigid(prism):
    graph, _, sys_ = prism
    rng = np.random.default_rng(59)
    q = Configuration(rng.uniform(-1, 1, size=(graph.n, graph.d)))
    cert = prestress_certificate(build_constraints(graph, q), q)
    assert cert.verdict == "infinitesimally_rigid"


def test_square_has_no_self_stress():
    graph, p, sys_ = load_fixture("square")
    cert = prestress_certificate(sys_, p)
    assert cert.verdict == "no_self_stress"


# a convex quadrilateral with both diagonals carries one self stress, with
# the sides of one sign and the diagonals of the other; node 5 hangs off
# node 2 by an unstressed member and gives the one flex
PENDANT_QUAD = [[0.0, 0.0], [1.0, 0.0], [1.1, 0.9], [0.1, 1.2], [2.0, 0.4]]
PENDANT_QUAD_MEMBERS = list(itertools.combinations(range(1, 5), 2)) + [(2, 5)]
QUAD_SIDES = {(1, 2), (2, 3), (3, 4), (1, 4)}


def _pendant_quad(sides, diagonals, pendant):
    kinds = [sides if pair in QUAD_SIDES else diagonals
             for pair in PENDANT_QUAD_MEMBERS[:-1]] + [pendant]
    return _framework_with_kinds(kinds)


def _framework_with_kinds(kinds):
    return load_framework({
        "dimension": 2, "nodes": PENDANT_QUAD,
        "members": [{"i": i, "j": j, "kind": kind}
                    for (i, j), kind in zip(PENDANT_QUAD_MEMBERS, kinds)]})


def test_flex_the_stress_does_not_reach_is_not_certified():
    # the pendant node swings freely, so the reduced stress matrix is
    # exactly zero and its computed eigenvalue is rounding noise
    _, p, sys_ = _framework_with_kinds(["bar"] * len(PENDANT_QUAD_MEMBERS))
    cert = prestress_certificate(sys_, p)
    assert abs(cert.min_eigenvalue) <= 1e-12
    assert cert.verdict == "not_found"


def test_tensegrity_partition_signs(prism):
    # the fixture's cables and struts are its members' own kinds: the three
    # diagonals carry the stress -1 and are struts, the other nine cables
    graph, p, sys_ = prism
    cert = prestress_certificate(sys_, p)
    assert cert.verdict == "found"
    assert cert.cables_positive and cert.struts_negative
    assert cert.sign_violations == () and cert.zero_members == ()
    struts = [(i, j) for i, j, kind in graph.members if kind == "strut"]
    assert struts == [(1, 4), (2, 5), (3, 6)]
    for (i, j, kind), wk in zip(graph.members, cert.stress):
        assert wk == pytest.approx(-1.0) if kind == "strut" else wk > 0.0


def _sign_report_by_kind(members, stress):
    """The sign report as one branch per kind: (violations, zero members,
    cables positive, struts negative)."""
    violations, zero_members = [], []
    cables_ok = struts_ok = True
    for (i, j, kind), wk in zip(members, stress):
        if abs(wk) <= prestress.SIGN_MARGIN:
            zero_members.append((i, j))
        if kind == "cable" and wk <= prestress.SIGN_MARGIN:
            violations.append((i, j))
            cables_ok = False
        elif kind == "strut" and wk >= -prestress.SIGN_MARGIN:
            violations.append((i, j))
            struts_ok = False
    return tuple(violations), tuple(zero_members), cables_ok, struts_ok


def _sign_report(cert):
    return (cert.sign_violations, cert.zero_members,
            cert.cables_positive, cert.struts_negative)


def test_cable_sides_and_strut_diagonals_sign_properly():
    for pendant in ("bar", "cable", "strut"):
        _, p, sys_ = _pendant_quad("cable", "strut", pendant)
        cert = prestress_certificate(sys_, p)
        assert cert.self_stress_dim == 1 and cert.reduced.shape == (1, 1)
        # the pendant member carries no stress, so as a cable or a strut it
        # violates its sign
        violations = () if pendant == "bar" else ((2, 5),)
        assert _sign_report(cert) == (violations, ((2, 5),), pendant != "cable",
                                      pendant != "strut")


def test_strut_sides_and_cable_diagonals_violate_every_loaded_member():
    _, p, sys_ = _pendant_quad("strut", "cable", "bar")
    cert = prestress_certificate(sys_, p)
    loaded = tuple(PENDANT_QUAD_MEMBERS[:-1])
    assert _sign_report(cert) == (loaded, ((2, 5),), False, False)


def test_sign_report_matches_the_rule_written_out():
    # every one of the 3^7 kind assignments of the pendant quadrilateral
    stress = None
    for kinds in itertools.product(("bar", "cable", "strut"),
                                   repeat=len(PENDANT_QUAD_MEMBERS)):
        graph, p, sys_ = _framework_with_kinds(kinds)
        cert = prestress_certificate(sys_, p)
        assert _sign_report(cert) == _sign_report_by_kind(graph.members, cert.stress)
        # kinds change only the sign report, never the stress
        if stress is None:
            stress = cert.stress
        assert np.array_equal(cert.stress, stress)


def test_quadratic_form_regression(prism):
    # the 3-digit rounded flex and stress land at 89.8896, not 89.569
    graph, _, _ = prism
    omega = stress_matrix(graph, PRINTED_STRESS)
    value = PRINTED_FLEX @ omega @ PRINTED_FLEX
    assert value == pytest.approx(89.88957920000001, abs=1e-9)


def test_quadratic_form_with_exact_data(prism):
    # sqrt(3) stress entries and the true flex scaled to max sqrt(5/2)
    graph, p, sys_ = prism
    s3 = np.sqrt(3.0)
    w = np.array([1, 1, -s3, s3, 1, -s3, s3, s3, -s3, 1, 1, 1], dtype=float)
    dec = nullspace_decomposition(sys_, p)
    v = dec.flexes[:, 0]
    v = v * (np.sqrt(2.5) / np.max(np.abs(v)))
    value = v @ stress_matrix(graph, w) @ v
    assert value == pytest.approx(90.0, abs=1e-9)


# lambda_min(cos(th) A + sin(th) B) = min(cos(th), cos(th - 120 deg)): it
# peaks at 1/2 at 60 deg, and 240 deg, where both branches are -1/2, is a
# spurious local maximum on the unit circle
SEARCH_PARTS = [np.diag([1.0, -0.5]), np.diag([0.0, np.sqrt(3.0) / 2.0])]


def _min_eig(parts, a):
    return np.linalg.eigvalsh(sum(ai * Mi for ai, Mi in zip(a, parts)))[0]


def _lambda_min(a):
    return _min_eig(SEARCH_PARTS, a)


def test_multi_stress_search_finds_the_global_maximum():
    a, _ = prestress._max_min_eigenvalue(SEARCH_PARTS)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert _lambda_min(a) == pytest.approx(0.5, abs=1e-9)


def _per_start_search(reduced_parts, rng, starts=20):
    # the multi-start gradient ascent that the convex solve replaced, one
    # start at a time: 20 seeded unit starts, the first best final value wins
    def min_eig_and_gradient(a):
        M = sum(ai * Mi for ai, Mi in zip(a, reduced_parts))
        vals, vecs = np.linalg.eigh(M)
        u = vecs[:, 0]
        return vals[0], np.array([u @ Mi @ u for Mi in reduced_parts])

    k = len(reduced_parts)
    best_val, best_a = -np.inf, None
    for _ in range(starts):
        a = rng.normal(size=k)
        a /= np.linalg.norm(a)
        val, grad = min_eig_and_gradient(a)
        step = 0.5
        for _ in range(200):
            cand = a + step * grad
            norm = np.linalg.norm(cand)
            if norm == 0.0:
                break
            cand /= norm
            cand_val, cand_grad = min_eig_and_gradient(cand)
            if cand_val > val:
                a, val, grad = cand, cand_val, cand_grad
                step = min(step * 1.5, 2.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        if val > best_val:
            best_val, best_a = val, a
    return best_a


def _lockstep_search(parts, rng, starts=20):
    # _per_start_search with all starts stacked, one eigh per step for the
    # live starts; the same draws and, bit for bit, the same result
    def min_eigs_and_gradients(A):
        vals, vecs = np.linalg.eigh(sum(c[:, None, None] * R for c, R in zip(A.T, parts)))
        U = vecs[:, :, 0]
        # this matmul form gives each row bit for bit u @ R @ u; einsum does not
        grad = np.stack([((U[:, None, :] @ R) @ U[:, :, None])[:, 0, 0] for R in parts],
                        axis=1)
        return vals[:, 0], grad

    def row_norms(A):
        return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])

    a = np.array([rng.normal(size=len(parts)) for _ in range(starts)])
    a /= row_norms(a)[:, None]
    val, grad = min_eigs_and_gradients(a)
    final_val, final_a = np.empty_like(val), np.empty_like(a)
    # live starts, compacted as they end
    idx, step = np.arange(starts), np.full(starts, 0.5)
    for _ in range(200):
        cand = a + step[:, None] * grad
        norm = row_norms(cand)
        moved = norm != 0.0  # a zero candidate ends its start
        cand /= np.where(moved, norm, 1.0)[:, None]
        cand_val, cand_grad = min_eigs_and_gradients(cand)
        better = moved & (cand_val > val)
        a[better], val[better], grad[better] = cand[better], cand_val[better], cand_grad[better]
        step = np.where(better, np.minimum(step * 1.5, 2.0), step * 0.5)
        keep = moved & (better | (step >= 1e-12))
        if not keep.all():
            final_val[idx[~keep]], final_a[idx[~keep]] = val[~keep], a[~keep]
            idx, a, val, grad, step = idx[keep], a[keep], val[keep], grad[keep], step[keep]
            if not idx.size:
                break
    final_val[idx], final_a[idx] = val, a
    return final_a[np.argmax(final_val)]


def test_solve_never_falls_below_the_per_start_search():
    # with a positive combination the solve is within 1e-9 of the former
    # search or above it; without one it reports e_1, the search a unit a
    # whose lambda_min is at most 0
    positive, ahead = 0, 0
    for seed in range(180):
        rng = np.random.default_rng(seed)
        k, f = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        B = rng.normal(size=(k, f, f))
        parts = list(B + B.transpose(0, 2, 1))
        a, _ = prestress._max_min_eigenvalue(parts)
        solved = max(_min_eig(parts, a), 0.0)
        searched = max(_min_eig(parts, _lockstep_search(parts, np.random.default_rng(0))), 0.0)
        assert solved >= searched - 1e-9
        positive += solved > 0.0
        ahead += solved > searched + 1e-3
    assert positive == 40 and ahead == 13


@pytest.mark.parametrize("starts", [20, 3])
@pytest.mark.parametrize("k, f", [(2, 1), (3, 6), (6, 18)])
def test_lockstep_search_matches_the_per_start_loop(k, f, starts):
    # the parts and start seeds on which the lockstep search was once checked
    # against this loop: the convex solve that replaced it reaches the loop's
    # value or more, and its dual Y closes the gap to the optimum, which is
    # positive for (2, 1) and not for the other two
    rng = np.random.default_rng([k, f])
    B = rng.normal(size=(k, f, f))
    parts = list(B + B.transpose(0, 2, 1))
    a, Y = prestress._max_min_eigenvalue(parts)
    solved = max(_min_eig(parts, a), 0.0)
    per_start = _per_start_search(parts, np.random.default_rng(k * f), starts)
    assert np.array_equal(_lockstep_search(parts, np.random.default_rng(k * f), starts),
                          per_start)
    searched = _min_eig(parts, per_start)
    assert solved >= max(searched, 0.0) - 1e-9
    assert (solved > 0.0) == ((k, f) == (2, 1))
    assert np.linalg.eigvalsh(Y)[0] >= 0.0
    bound = np.linalg.norm([np.trace(Y @ P) for P in parts]) / np.trace(Y)
    assert 0.0 <= bound - solved <= 1e-6 * max(solved, 1.0)


def _complete(nodes):
    return [{"i": i, "j": j} for i, j in itertools.combinations(nodes, 2)]


# three self stresses on the planar K5; node 6 swings on one bar from node 2
K5_PENDANT = {"dimension": 2,
              "nodes": [[0.0, 0.0], [1.0, 0.1], [1.3, 0.9], [0.4, 1.4],
                        [-0.3, 0.8], [2.2, 0.3]],
              "members": _complete(range(1, 6)) + [{"i": 2, "j": 6}]}

# five collinear nodes in 3-space, all pairs joined: 6 self stresses, found
COLLINEAR5 = {"dimension": 3,
              "nodes": [[x, 0.0, 0.0] for x in (0.0, 1.0, 2.5, 4.0, 4.75)],
              "members": _complete(range(1, 6))}


def _clustered_framework(rng):
    # a complete graph on the first d + 3 nodes carries the self stresses;
    # each later node hangs off d earlier nodes (braced) or one (swinging),
    # and the last always swings, so the flexes live off the cluster
    d = int(rng.integers(2, 4))
    cluster, n = d + 3, d + 3 + int(rng.integers(1, 5))
    members = _complete(range(1, cluster + 1))
    for v in range(cluster + 1, n + 1):
        ties = 1 if v == n or rng.random() < 0.5 else d
        members += [{"i": int(u), "j": v}
                    for u in sorted(rng.choice(np.arange(1, v), ties, replace=False))]
    nodes = rng.uniform(-1.0, 1.0, size=(n, d)).tolist()
    return load_framework({"dimension": d, "nodes": nodes, "members": members})


def _spy_on_the_bound(monkeypatch):
    fired = []
    bound = prestress._no_stress_reaches_the_flexes

    def spy(*args):
        fired.append(bound(*args))
        return fired[-1]

    monkeypatch.setattr(prestress, "_no_stress_reaches_the_flexes", spy)
    return fired


def test_stresses_that_miss_the_flex_skip_the_search(monkeypatch):
    def search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(prestress, "_max_min_eigenvalue", search)
    _, p, sys_ = load_framework(K5_PENDANT)
    cert = prestress_certificate(sys_, p)
    assert cert.verdict == "not_found"
    assert cert.self_stress_dim == 3
    assert np.array_equal(cert.coefficients, [1.0, 0.0, 0.0])
    first = self_stress_basis(nullspace_decomposition(sys_, p))[0]
    assert np.array_equal(cert.stress, first)
    assert np.array_equal(cert.reduced_eigenvalues, np.linalg.eigvalsh(cert.reduced))


def test_skipped_searches_would_not_have_found_a_stress(monkeypatch):
    rng = np.random.default_rng(61)
    frameworks = [_clustered_framework(rng) for _ in range(30)]
    fired = _spy_on_the_bound(monkeypatch)
    skipped = [prestress_certificate(s, q) for _, q, s in frameworks]
    assert fired == [True] * 30
    assert {c.self_stress_dim for c in skipped} == {3}
    # the old path: search (or sign choice) and re-verification
    monkeypatch.setattr(prestress, "_no_stress_reaches_the_flexes",
                        lambda *args: False)
    for (_, q, s), cert in zip(frameworks, skipped):
        assert cert.verdict == "not_found"
        assert prestress_certificate(s, q).verdict == "not_found"


@pytest.mark.parametrize("tol_rel", [RANK_REL_TOL, 0.1])
@pytest.mark.parametrize("name, min_eigenvalue", [
    ("3prism", 3.370477247161058), ("slingshot", 0.625),
    ("collinear5", 1.892643309627531)])
def test_stresses_that_reach_the_flexes_still_search(monkeypatch, name,
                                                     min_eigenvalue, tol_rel):
    # at tol_rel 0.1 the bound's two sides are within a factor 300 on 3prism,
    # so a bound loosened by that much would skip a certificate that exists
    _, p, sys_ = (load_framework(COLLINEAR5) if name == "collinear5"
                  else load_fixture(name))
    fired = _spy_on_the_bound(monkeypatch)
    cert = prestress_certificate(sys_, p, tol_rel=tol_rel)
    assert fired == [False]
    assert cert.verdict == "found"
    assert cert.min_eigenvalue == pytest.approx(min_eigenvalue, abs=1e-9)


def test_dual_matrix_bounds_the_collinear5_optimum():
    # lambda_min(sum a_i P_i) <= tr(Y sum a_i P_i) <= |(tr Y P_i)_i| for every
    # unit a and every PSD Y of trace 1, so Y proves a* optimal up to the gap
    _, p, sys_ = load_framework(COLLINEAR5)
    dec = nullspace_decomposition(sys_, p)
    parts = [dec.flexes.T @ stress_matrix(sys_.graph, w) @ dec.flexes
             for w in self_stress_basis(dec)]
    a, Y = prestress._max_min_eigenvalue(parts)
    assert np.linalg.eigvalsh(Y)[0] >= 0.0
    assert np.trace(Y) == pytest.approx(1.0, abs=1e-3)
    bound = np.linalg.norm([np.trace(Y @ P) for P in parts]) / np.trace(Y)
    achieved = _min_eig(parts, a)
    assert 0.0 <= bound - achieved <= 1e-6 * achieved
