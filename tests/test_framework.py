"""Framework ingestion and member-constraint evaluation."""

import json

import numpy as np
import pytest

from tensegrity import (Configuration, FrameworkError, FrameworkGraph,
                        MemberConstraintSystem, build_constraints,
                        evaluate_members, load_fixture, load_framework)
from tensegrity.framework import FEASIBILITY_TOL, FIXTURE_NAMES, squared_lengths

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
    with pytest.raises(FrameworkError, match="must be an integer"):
        FrameworkGraph(n=3, d=2, members=((1.5, 2, "bar"),))
    with pytest.raises(FrameworkError, match="must be an integer"):
        FrameworkGraph(n=3, d=2, members=((1, 2.0, "bar"),))
    with pytest.raises(FrameworkError, match="must be an integer"):
        FrameworkGraph(n=3, d=2, members=((True, 2, "bar"),))
    with pytest.raises(FrameworkError, match="must be an integer"):
        FrameworkGraph(n=3, d=2, members=((1, np.True_, "bar"),))
    with pytest.raises(FrameworkError, match="must be an integer"):
        FrameworkGraph(n=3, d=2, members=(("1", 2, "bar"),))
    with pytest.raises(FrameworkError, match="dimension must be an integer"):
        FrameworkGraph(n=3, d=2.0, members=((1, 2, "bar"),))
    with pytest.raises(FrameworkError, match="dimension must be an integer"):
        FrameworkGraph(n=3, d=True, members=((1, 2, "bar"),))
    with pytest.raises(FrameworkError, match="node count must be an integer"):
        FrameworkGraph(n=2.5, d=2, members=((1, 2, "bar"),))
    assert FrameworkGraph(n=np.int64(3), d=2, members=((1, 2, "bar"),)).n == 3


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
    for bad in (np.inf, np.nan, 10 ** 400, "a"):
        with pytest.raises(FrameworkError, match="finite"):
            MemberConstraintSystem(graph, [bad])
        with pytest.raises(FrameworkError, match="finite"):
            build_constraints(graph, Configuration([[0.0, 0.0], [1.0, 0.0]]), [bad])
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    for member in doc["members"]:
        member["rest_sq_length"] = 1.0
    doc["members"][0]["rest_sq_length"] = 1e999
    with pytest.raises(FrameworkError, match="finite"):
        load_framework(doc)


@pytest.mark.parametrize("key, value", [("dimension", 2.7), ("dimension", 2.0),
                                        ("dimension", True), ("i", 1.9),
                                        ("i", True), ("i", "1"), ("j", 2.0),
                                        ("j", False)])
def test_document_numbers_must_be_json_integers(key, value):
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    if key == "dimension":
        doc["dimension"] = value
    else:
        doc["members"][0][key] = value
    with pytest.raises(FrameworkError, match="must be an integer"):
        load_framework(doc)


@pytest.mark.parametrize("key, value", [("coordinate", "0"), ("coordinate", True),
                                        ("coordinate", None), ("rest_sq_length", "1"),
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


def _spoilt_triangle(key, value):
    """TRIANGLE_DOC with node 2's y or member (1, 3)'s `key` set to value,
    or that key deleted when value is KeyError."""
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    if key == "coordinate":
        doc["nodes"][1][1] = value
    elif value is KeyError:
        del doc["members"][1][key]
    else:
        doc["members"][1][key] = value
    return doc


@pytest.mark.parametrize("key, value, message", [
    ("coordinate", True, "coordinate of node 2 must be a number, got True"),
    ("coordinate", "0", "coordinate of node 2 must be a number, got '0'"),
    ("coordinate", None, "coordinate of node 2 must be a number, got None"),
    ("i", 1.5, "'i' of member {'i': 1.5, 'j': 3} must be an integer, got 1.5"),
    ("j", True, "'j' of member {'i': 1, 'j': True} must be an integer, got True"),
    ("Kind", "cable", "unknown key 'Kind' in member {'i': 1, 'j': 3, 'Kind': 'cable'}; "
                      "allowed keys are 'i', 'j', 'kind', 'rest_sq_length'"),
    ("j", KeyError, "bad member entry {'i': 1}"),
    # a JSON integer too large for a float, which float() would raise on
    pytest.param("coordinate", 10 ** 400, "coordinate of node 2 is too large for a float",
                 id="coordinate-10**400"),
    pytest.param("rest_sq_length", 10 ** 400,
                 f"rest_sq_length of member {{'i': 1, 'j': 3, 'rest_sq_length': {10 ** 400}}}"
                 " is too large for a float", id="rest_sq_length-10**400")])
def test_rejections_keep_their_messages(key, value, message):
    # well-formed documents skip the per-entry checks, which alone word these
    with pytest.raises(FrameworkError) as info:
        load_framework(_spoilt_triangle(key, value))
    assert str(info.value) == message


def test_numpy_numbers_in_a_dict_document_still_load():
    doc = json.loads(json.dumps(TRIANGLE_DOC))
    doc["nodes"] = [[np.float64(v) for v in row] for row in doc["nodes"]]
    for member in doc["members"]:
        member["i"], member["j"] = np.int64(member["i"]), np.int64(member["j"])
        member["rest_sq_length"] = np.float64(1.0)
    graph, p, sys_ = load_framework(doc)
    plain, p0, _ = load_framework(TRIANGLE_DOC)
    assert graph == plain and graph.members == ((1, 2, "bar"), (1, 3, "bar"), (2, 3, "bar"))
    assert p.coords.tobytes() == p0.coords.tobytes()
    assert sys_.rest_sq_lengths.tolist() == [1.0, 1.0, 1.0]


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
    for kind in ("rope", ["bar"]):
        doc["members"][1]["kind"] = kind
        with pytest.raises(FrameworkError, match=r"unknown member kind .* of \(2, 3\)"):
            load_framework(doc)


@pytest.mark.parametrize("where,key", [("document", "Members"),
                                       ("document", "tensegrity-partition"),
                                       ("member", "Kind"), ("member", "rest_length")])
def test_unknown_keys_are_rejected_naming_the_key(where, key):
    doc = {"name": "rod", "dimension": 2, "nodes": [[0.0, 0.0], [1.0, 0.0]],
           "members": [{"i": 1, "j": 2, "kind": "bar", "rest_sq_length": 1.0}]}
    graph, _, _ = load_framework(doc)
    assert graph.members == ((1, 2, "bar"),)
    # a misspelt kind would otherwise load the member as a bar
    (doc if where == "document" else doc["members"][0])[key] = "cable"
    allowed = ("'name', 'dimension', 'nodes', 'members'" if where == "document"
               else "'i', 'j', 'kind', 'rest_sq_length'")
    with pytest.raises(FrameworkError) as info:
        load_framework(doc)
    assert str(info.value).startswith(f"unknown key {key!r} in ")
    assert str(info.value).endswith(f"allowed keys are {allowed}")


def test_reversed_member_is_rejected_with_the_index_rule():
    doc = {"dimension": 2, "nodes": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
           "members": [{"i": 1, "j": 2}, {"i": 4, "j": 1}]}
    with pytest.raises(FrameworkError, match=r"member \(4, 1\) must have "
                                             r"1 <= i < j <= n with n=4"):
        load_framework(doc)


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


def _feasible_by_kind(kind, g):
    """The member feasibility rule as one branch per kind."""
    if kind == "bar":
        return abs(g) <= FEASIBILITY_TOL
    if kind == "cable":
        return g <= FEASIBILITY_TOL
    return g >= -FEASIBILITY_TOL


def test_cable_and_strut_feasibility_signs():
    # node 1 at 0 and nodes 2.. at lengths below, at and above rest 1,
    # including squared lengths just inside and just outside the slack
    lengths = [0.5, np.sqrt(1 - 2e-9), np.sqrt(1 - 0.5e-9), 1.0,
               np.sqrt(1 + 0.5e-9), np.sqrt(1 + 2e-9), 2.0]
    coords = [[0.0]] + [[x] for x in lengths]
    expected = {"bar": [False, False, True, True, True, False, False],
                "cable": [True, True, True, True, True, False, False],
                "strut": [False, False, True, True, True, True, True]}
    for kind, want in expected.items():
        members = tuple((1, k, kind) for k in range(2, len(coords) + 1))
        graph = FrameworkGraph(n=len(coords), d=1, members=members)
        sys_ = MemberConstraintSystem(graph, np.ones(graph.m))
        residuals, feasible = evaluate_members(sys_, Configuration(coords))
        assert feasible.tolist() == want
        assert want == [_feasible_by_kind(kind, g) for g in residuals]

    # mixed kinds keep the member order
    rng = np.random.default_rng(31)
    for _ in range(20):
        graph, p, _ = random_framework(rng, kinds=("bar", "cable", "strut"))
        sys_ = MemberConstraintSystem(graph, rng.uniform(0.5, 2.0, size=graph.m))
        residuals, feasible = evaluate_members(sys_, p)
        assert feasible.tolist() == [_feasible_by_kind(kind, g) for (_, _, kind), g
                                     in zip(graph.members, residuals)]


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
