"""The member arrays of FrameworkGraph against the per-member loops they
replace, bit for bit, signs of zeros included."""

import dataclasses
import warnings

import numpy as np
import pytest

from tensegrity import (Configuration, FrameworkGraph, build_constraints,
                        evaluate_members, incidence_matrix, jacobian_at,
                        prestress_certificate)
from tensegrity import framework, prestress
from tensegrity.framework import FEASIBILITY_TOL, KIND_SIGN, squared_lengths
from tensegrity.prestress import SIGN_MARGIN

from conftest import random_framework

KINDS = ("bar", "cable", "strut")


# the per-member loops, as they were written before the member arrays


def _squared_lengths_loop(graph, coords):
    diffs = np.array([coords[i - 1] - coords[j - 1] for i, j, _ in graph.members])
    return np.einsum("ij,ij->i", diffs, diffs)


def _jacobian_loop(graph, coords):
    d = graph.d
    dg = np.zeros((graph.m, graph.n * d))
    for k, (i, j, _) in enumerate(graph.members):
        diff = 2.0 * (coords[i - 1] - coords[j - 1])
        dg[k, (i - 1) * d:i * d] = diff
        dg[k, (j - 1) * d:j * d] = -diff
    return dg


def _incidence_loop(graph):
    inc = np.zeros((graph.m, graph.n))
    for k, (i, j, _) in enumerate(graph.members):
        inc[k, i - 1] = -1.0
        inc[k, j - 1] = 1.0
    return inc


def _feasible_loop(graph, residuals):
    signs = [KIND_SIGN[kind] for _, _, kind in graph.members]
    return np.array([(s * g if s else abs(g)) <= FEASIBILITY_TOL
                     for g, s in zip(residuals, signs)], dtype=bool)


def _sign_report_loop(graph, stress):
    violations = []
    zero_members = []
    cables_ok = True
    struts_ok = True
    for (i, j, kind), wk in zip(graph.members, stress):
        if abs(wk) <= SIGN_MARGIN:
            zero_members.append((i, j))
        s = KIND_SIGN[kind]
        if s and s * wk <= SIGN_MARGIN:
            violations.append((i, j))
            cables_ok &= s < 0
            struts_ok &= s > 0
    return cables_ok, struts_ok, tuple(violations), tuple(zero_members)


def _frameworks(seed, count):
    """Seeded random frameworks of mixed kinds.  Half of them take their
    coordinates from a few values, -0.0 among them, so that many member
    differences are zeros of either sign."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        graph, p, sys_ = random_framework(rng, kinds=KINDS)
        if t % 2:
            coords = rng.choice([-1.0, -0.0, 0.0, 0.5], size=(graph.n, graph.d))
            p = Configuration(coords)
            sys_ = build_constraints(graph, p, rest_sq_lengths=np.ones(graph.m))
        yield graph, p, sys_


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_the_member_arrays_match_the_members():
    for graph, _, _ in _frameworks(0, 20):
        assert graph.heads.tolist() == [i - 1 for i, _, _ in graph.members]
        assert graph.tails.tolist() == [j - 1 for _, j, _ in graph.members]
        assert graph.signs.tolist() == [KIND_SIGN[k] for _, _, k in graph.members]
        for a in (graph.heads, graph.tails, graph.signs):
            assert not a.flags.writeable
    empty = FrameworkGraph(3, 2, ())
    assert empty.heads.shape == empty.tails.shape == empty.signs.shape == (0,)


def test_the_member_arrays_are_not_fields():
    graph = FrameworkGraph(3, 2, ((1, 2, "cable"), (2, 3, "strut")))
    assert [f.name for f in dataclasses.fields(graph)] == ["n", "d", "members"]
    twin = FrameworkGraph(3, 2, ((1, 2, "cable"), (2, 3, "strut")))
    assert graph == twin and hash(graph) == hash(twin)
    assert repr(graph) == "FrameworkGraph(n=3, d=2, members=((1, 2, 'cable'), (2, 3, 'strut')))"
    assert dataclasses.replace(graph, n=4).heads.tolist() == [0, 1]


def test_numpy_integer_node_indices_are_accepted():
    graph = FrameworkGraph(3, 2, ((np.int64(1), np.int32(3), "bar"),))
    assert graph.heads.tolist() == [0] and graph.tails.tolist() == [2]


def test_geometry_matches_the_per_member_loops_bit_for_bit():
    for graph, p, sys_ in _frameworks(1, 40):
        coords = p.coords
        assert _same_bits(squared_lengths(graph, p), _squared_lengths_loop(graph, coords))
        assert _same_bits(jacobian_at(sys_, p), _jacobian_loop(graph, coords))
        assert _same_bits(incidence_matrix(graph), _incidence_loop(graph))
        residuals, feasible = evaluate_members(sys_, p)
        assert _same_bits(residuals, _squared_lengths_loop(graph, coords)
                          - sys_.rest_sq_lengths)
        assert _same_bits(feasible, _feasible_loop(graph, residuals))


def test_the_zero_differences_keep_their_signs():
    """The reference frameworks do hold -0.0 entries, so the comparison
    above sees the sign of a zero."""
    negative_zeros = 0
    for graph, p, sys_ in _frameworks(1, 40):
        dg = jacobian_at(sys_, p)
        negative_zeros += np.count_nonzero((dg == 0.0) & np.signbit(dg))
    assert negative_zeros > 0


@pytest.mark.parametrize("kinds", [("bar",), ("cable",), ("strut",), KINDS])
def test_non_finite_residuals_give_the_old_flags_without_a_warning(monkeypatch, kinds):
    values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
                       FEASIBILITY_TOL, -FEASIBILITY_TOL, 2e-9, -2e-9, 5.0])
    rng = np.random.default_rng(7)
    for _ in range(10):
        graph, p, sys_ = random_framework(rng, n=6, kinds=kinds)
        squared = rng.choice(values, size=graph.m) + sys_.rest_sq_lengths
        residuals = squared - sys_.rest_sq_lengths
        expected = _feasible_loop(graph, residuals)
        with monkeypatch.context() as patch, warnings.catch_warnings():
            patch.setattr(framework, "squared_lengths", lambda g, x: squared.copy())
            warnings.simplefilter("error")
            got_residuals, feasible = evaluate_members(sys_, p)
        assert _same_bits(got_residuals, residuals)
        assert _same_bits(feasible, expected)


def _check_sign_report(graph, cert):
    cables_ok, struts_ok, violations, zero_members = _sign_report_loop(graph, cert.stress)
    assert cert.cables_positive is cables_ok
    assert cert.struts_negative is struts_ok
    assert cert.sign_violations == violations
    assert cert.zero_members == zero_members
    for ends in cert.sign_violations + cert.zero_members:
        assert all(type(v) is int for v in ends)


def _stressed_and_flexible(rng):
    """A random framework of mixed kinds with self stresses and flexes: a
    braced core of c nodes, with more members than 2c - 3 in the plane or
    3c - 6 in space, and one or two pendant nodes, each hung by fewer
    members than d."""
    d = int(rng.integers(2, 4))
    c = int(rng.integers(d + 2, d + 4))
    pairs = [(i, j) for i in range(1, c + 1) for j in range(i + 1, c + 1)]
    least = d * c - d * (d + 1) // 2 + 1
    chosen = rng.choice(len(pairs), size=int(rng.integers(least, len(pairs) + 1)),
                        replace=False)
    ends = [pairs[k] for k in sorted(chosen)]
    n = c + int(rng.integers(1, 3))
    for node in range(c + 1, n + 1):
        hubs = rng.choice(c, size=int(rng.integers(1, d)), replace=False)
        ends += [(int(h) + 1, node) for h in sorted(hubs)]
    graph = FrameworkGraph(n, d, tuple((i, j, str(rng.choice(KINDS))) for i, j in ends))
    p = Configuration(rng.uniform(-1.0, 1.0, size=(n, d)))
    return graph, p, build_constraints(graph, p)


def test_the_sign_report_matches_the_per_member_loop():
    rng = np.random.default_rng(3)
    for _ in range(30):
        graph, p, sys_ = _stressed_and_flexible(rng)
        cert = prestress_certificate(sys_, p)
        assert cert.stress is not None
        _check_sign_report(graph, cert)


def test_the_sign_report_of_a_stress_with_zeros_and_margin_entries(monkeypatch):
    """A crafted stress with zeros of either sign and entries at the margin:
    each member kind meets each of them.  The 27 members on 12 nodes in
    3-space leave flexes, so the certificate reaches the sign report."""
    entries = [0.0, -0.0, SIGN_MARGIN, -SIGN_MARGIN, 2e-9, -2e-9, 1.0, -1.0, 0.5]
    n = 12
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)][:3 * len(entries)]
    members = tuple((i, j, KINDS[k % 3]) for k, (i, j) in enumerate(pairs))
    graph = FrameworkGraph(n, 3, members)
    rng = np.random.default_rng(11)
    p = Configuration(rng.uniform(-1.0, 1.0, size=(n, 3)))
    sys_ = build_constraints(graph, p)
    w = np.array([entries[k // 3] for k in range(graph.m)])
    monkeypatch.setattr(prestress, "self_stress_basis", lambda decomp: [w])
    cert = prestress_certificate(sys_, p)
    assert cert.stress is not None
    _check_sign_report(graph, cert)
    assert cert.sign_violations and cert.zero_members
