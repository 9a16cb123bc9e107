"""Framework ingestion and member-constraint evaluation."""

import json

import numpy as np
import pytest

from tensegrity import (Configuration, FrameworkError, FrameworkGraph,
                        MemberConstraintSystem, build_constraints,
                        evaluate_members, load_fixture, load_framework)
from tensegrity.framework import FIXTURE_NAMES, squared_lengths

from conftest import random_framework, random_rigid_motion


def test_member_validation():
    with pytest.raises(FrameworkError):
        FrameworkGraph(n=3, d=2, members=((1, 1, "bar"),))
    with pytest.raises(FrameworkError):
        FrameworkGraph(n=3, d=2, members=((2, 1, "bar"),))
    with pytest.raises(FrameworkError):
        FrameworkGraph(n=3, d=2, members=((1, 4, "bar"),))
    with pytest.raises(FrameworkError):
        FrameworkGraph(n=3, d=2, members=((1, 2, "bar"), (1, 2, "cable")))
    with pytest.raises(FrameworkError):
        FrameworkGraph(n=3, d=2, members=((1, 2, "rope"),))


def test_rest_lengths_must_be_positive():
    graph = FrameworkGraph(n=2, d=2, members=((1, 2, "bar"),))
    with pytest.raises(FrameworkError):
        MemberConstraintSystem(graph, np.array([0.0]))
    with pytest.raises(FrameworkError):
        build_constraints(graph, Configuration([[0.0, 0.0], [0.0, 0.0]]))


# the packaged triangle, written out so each case can spoil one number
TRIANGLE_DOC = {"dimension": 2,
                "nodes": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]],
                "members": [{"i": 1, "j": 2}, {"i": 1, "j": 3}, {"i": 2, "j": 3}]}


def test_rest_lengths_must_be_finite():
    graph = FrameworkGraph(n=2, d=2, members=((1, 2, "bar"),))
    for bad in (np.inf, np.nan):
        with pytest.raises(FrameworkError, match="finite"):
            MemberConstraintSystem(graph, np.array([bad]))
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    for member in doc["members"]:
        member["rest_sq_length"] = 1.0
    doc["members"][0]["rest_sq_length"] = 1e999
    with pytest.raises(FrameworkError, match="finite"):
        load_framework(doc)


@pytest.mark.parametrize("key, value", [("dimension", 2.7), ("dimension", 2.0),
                                        ("dimension", True), ("i", 1.9),
                                        ("i", True), ("i", "1"), ("j", 2.0)])
def test_document_numbers_must_be_json_integers(key, value):
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    if key == "dimension":
        doc["dimension"] = value
    else:
        doc["members"][0][key] = value
    with pytest.raises(FrameworkError, match="must be an integer"):
        load_framework(doc)


@pytest.mark.parametrize("key, value", [("coordinate", "0"), ("coordinate", True),
                                        ("rest_sq_length", "1"),
                                        ("rest_sq_length", True)])
def test_coordinates_and_rest_lengths_must_be_json_numbers(key, value):
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    if key == "coordinate":
        doc["nodes"][1][1] = value
    else:
        for member in doc["members"]:
            member["rest_sq_length"] = 1.0
        doc["members"][2]["rest_sq_length"] = value
    with pytest.raises(FrameworkError, match="must be a number"):
        load_framework(doc)


def test_configuration_rejects_bad_shapes():
    with pytest.raises(FrameworkError):
        Configuration(np.zeros(6))
    with pytest.raises(FrameworkError):
        Configuration([[0.0, np.nan]])


def test_all_fixtures_load():
    for name in FIXTURE_NAMES:
        graph, p, sys_ = load_fixture(name)
        assert p.coords.shape == (graph.n, graph.d)
        assert sys_.rest_sq_lengths.shape == (graph.m,)


def test_load_framework_round_trip(tmp_path):
    doc = {
        "dimension": 2,
        "nodes": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]],
        "members": [
            {"i": 1, "j": 2, "kind": "bar"},
            {"i": 2, "j": 3, "kind": "cable"},
            {"i": 1, "j": 3, "kind": "strut"},
        ],
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    graph, p, sys_ = load_framework(path)
    assert graph.members == ((1, 2, "bar"), (2, 3, "cable"), (1, 3, "strut"))
    assert np.array_equal(p.coords, np.array(doc["nodes"]))
    # rest lengths default to the embedding's squared lengths
    assert np.allclose(sys_.rest_sq_lengths, [1.0, 1.0, 2.0])


def test_residuals_vanish_at_defining_embedding():
    rng = np.random.default_rng(11)
    for _ in range(20):
        _, p, sys_ = random_framework(rng)
        residuals, feasible = evaluate_members(sys_, p)
        assert np.all(residuals == 0.0)
        assert np.all(feasible)


def test_residuals_invariant_under_rigid_motions():
    rng = np.random.default_rng(23)
    for _ in range(50):
        graph, p, sys_ = random_framework(rng)
        q, t = random_rigid_motion(rng, graph.d)
        moved = Configuration(p.coords @ q.T + t)
        r0, _ = evaluate_members(sys_, p)
        r1, _ = evaluate_members(sys_, moved)
        assert np.max(np.abs(r1 - r0)) <= 1e-10


def test_residual_depends_only_on_member_endpoints():
    rng = np.random.default_rng(5)
    graph, p, sys_ = random_framework(rng, n=6, d=3)
    x = Configuration(rng.uniform(-1, 1, size=(6, 3)))
    base, _ = evaluate_members(sys_, x)
    for k, (i, j, _) in enumerate(graph.members):
        other = next(v for v in range(1, 7) if v not in (i, j))
        bumped = x.coords.copy()
        bumped[other - 1] += rng.normal(size=3)
        r, _ = evaluate_members(sys_, Configuration(bumped))
        assert r[k] == base[k]


def test_cable_and_strut_feasibility_signs():
    graph = FrameworkGraph(n=2, d=1, members=((1, 2, "cable"),))
    sys_ = MemberConstraintSystem(graph, np.array([1.0]))
    # shorter than rest: fine for a cable
    _, ok = evaluate_members(sys_, Configuration([[0.0], [0.5]]))
    assert ok[0]
    _, ok = evaluate_members(sys_, Configuration([[0.0], [2.0]]))
    assert not ok[0]

    strut = MemberConstraintSystem(graph.with_kinds(["strut"]), np.array([1.0]))
    _, ok = evaluate_members(strut, Configuration([[0.0], [2.0]]))
    assert ok[0]
    _, ok = evaluate_members(strut, Configuration([[0.0], [0.5]]))
    assert not ok[0]


def test_squared_lengths_match_direct_formula():
    rng = np.random.default_rng(7)
    graph, p, _ = random_framework(rng, n=5, d=3)
    ell = squared_lengths(graph, p)
    for k, (i, j, _) in enumerate(graph.members):
        diff = p.coords[i - 1] - p.coords[j - 1]
        assert ell[k] == pytest.approx(float(diff @ diff), abs=1e-15)


def test_unknown_fixture_raises():
    with pytest.raises(FrameworkError):
        load_fixture("dodecahedron")
