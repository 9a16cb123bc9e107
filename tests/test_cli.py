"""Exit codes, report stability, and SVG structure of the batch CLI."""

import json
import sys
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest

from tensegrity import rigidity
from tensegrity.cli import ISOMETRIC, Scene, _projection, render_svg, run_command
from tensegrity.framework import FIXTURE_NAMES

SVG = "{http://www.w3.org/2000/svg}"


def _read(path):
    return json.loads(path.read_text())


def test_exit_codes(tmp_path):
    assert run_command(["analyze", "3prism", "--out", str(tmp_path)]) == 0
    assert run_command(["analyze", "missing.json", "--out", str(tmp_path)]) == 1
    assert run_command(["frobnicate"]) == 2
    assert run_command([]) == 2
    assert run_command(["--help"]) == 0


def test_analyze_report_values(tmp_path):
    run_command(["analyze", "3prism", "--out", str(tmp_path)])
    doc = _read(tmp_path / "3prism_analyze.json")
    assert doc["generic_corank"] == 6
    assert doc["corank_at_p"] == 7
    assert doc["verdict"] == "not_infinitesimally_rigid"
    assert doc["all_members_feasible"] is True


def test_reports_are_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_command(["analyze", "3prism", "--seed", "5", "--out", str(out)])
        run_command(["flexes", "hinge", "--seed", "5", "--out", str(out)])
        run_command(["deform", "3prism", "--seed", "5", "--steps", "1",
                     "--out", str(out)])
    for name in ("3prism_analyze.json", "hinge_flexes.json",
                 "3prism_deform.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_framework_svg_structure(tmp_path):
    run_command(["flexes", "3prism", "--svg", "--out", str(tmp_path)])
    root = ET.parse(tmp_path / "3prism_flexes.svg").getroot()
    assert len(root.findall(f"{SVG}circle")) == 6
    assert len(root.findall(f"{SVG}line")) == 12
    # six rigid motions plus the single flex
    assert len(root.findall(f"{SVG}g")) == 7


def test_prestress_uses_fixture_partition(tmp_path):
    run_command(["prestress", "3prism", "--out", str(tmp_path)])
    doc = _read(tmp_path / "3prism_prestress.json")
    assert doc["verdict"] == "found"
    assert doc["self_stress_dim"] == 1
    assert doc["partition"].count("bar") == 3
    assert doc["partition"].count("cable") == 9


def test_solve_roots_and_trajectories(tmp_path):
    system = tmp_path / "cubic.json"
    system.write_text(json.dumps({
        "variables": ["x"],
        "equations": ["x^3 - 7*x^2 + 17*x - 15"],
    }))
    assert run_command(["solve", str(system), "--svg", "--seed", "3",
                        "--out", str(tmp_path)]) == 0
    doc = _read(tmp_path / "cubic_solve.json")
    assert doc["paths"] == 3
    roots = sorted((round(r["point_re"][0], 8), round(r["point_im"][0], 8))
                   for r in doc["results"])
    assert roots == [(2.0, -1.0), (2.0, 1.0), (3.0, 0.0)]
    root = ET.parse(tmp_path / "cubic_solve.svg").getroot()
    assert len(root.findall(f"{SVG}polyline")) == 3


def test_solve_rejects_bad_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_command(["solve", str(bad), "--out", str(tmp_path)]) == 1
    missing = tmp_path / "missing.json"
    assert run_command(["solve", str(missing), "--out", str(tmp_path)]) == 1


def test_deform_report(tmp_path):
    assert run_command(["deform", "3prism", "--epsilon", "0.05", "--steps",
                        "2", "--out", str(tmp_path), "--svg"]) == 0
    doc = _read(tmp_path / "3prism_deform.json")
    assert len(doc["steps"]) == 2
    for step in doc["steps"]:
        assert 1e-8 < step["member_residual"] < 1e-1


def test_epscheck_budget_refusal(tmp_path):
    assert run_command(["epscheck", "3prism", "--budget", "1000",
                        "--out", str(tmp_path)]) == 1


def test_verify_ideals_report(tmp_path):
    assert run_command(["verify-ideals", "--out", str(tmp_path)]) == 0
    doc = _read(tmp_path / "reference_verify-ideals.json")
    sling = doc["slingshot"]
    assert sling["minor_count"] == 120
    assert sling["nonzero_minors"] == 95
    assert sling["displayed_minor_found"] is True
    assert sling["equation_count"] == 102
    assert all(r["contained"] for r in sling["containment"])
    assert all(r["contained"] for r in doc["adjacent_minors"]["containment"])


def test_plot_writes_svg(tmp_path):
    assert run_command(["plot", "square", "--out", str(tmp_path)]) == 0
    root = ET.parse(tmp_path / "square_plot.svg").getroot()
    assert len(root.findall(f"{SVG}circle")) == 4
    assert len(root.findall(f"{SVG}line")) == 4


def test_render_svg_projections_and_validation():
    assert np.allclose(_projection(1), [[1.0], [0.0]])
    assert np.allclose(_projection(2), np.eye(2))
    assert np.allclose(_projection(3), ISOMETRIC)
    # the isometric rows are orthonormal and kill the view direction
    assert np.allclose(ISOMETRIC @ ISOMETRIC.T, np.eye(2))
    assert np.allclose(ISOMETRIC @ np.ones(3), 0.0)
    with pytest.raises(ValueError):
        _projection(4)


def test_render_svg_omits_zero_arrows():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    disp = np.zeros((6, 1))
    disp[2] = 0.3  # only node 2 moves
    svg = render_svg(Scene(nodes=nodes, members=((1, 2, "bar"),),
                           displacements=disp))
    root = ET.fromstring(svg)
    groups = root.findall(f"{SVG}g")
    assert len(groups) == 1
    assert len(groups[0].findall(f"{SVG}path")) == 1


def test_flags_are_accepted_only_where_they_act(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run_command(["epscheck", "triangle", "--tol", "1e-3"] + out) == 2
    assert run_command(["prestress", "3prism", "--svg"] + out) == 2
    assert run_command(["flexes", "hinge", "--seed", "5"] + out) == 0


@pytest.mark.parametrize("doc", [[1, 2],
                                 {"variables": ["x"], "equations": [3]}])
def test_solve_rejects_malformed_system(tmp_path, capsys, doc):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc))
    assert run_command(["solve", str(system), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("block", [{"cables": [1]}, {"cables": [[1, 7]]},
                                   {"bars": [[4, 1]]},
                                   {"cables": [[1, 2]], "struts": [[1, 2]]}])
def test_prestress_rejects_bad_partition(tmp_path, capsys, block):
    fixture = resources.files("tensegrity.fixtures").joinpath("3prism.json")
    doc = json.loads(fixture.read_text())
    doc["tensegrity_partition"] = block
    frame = tmp_path / "prism.json"
    frame.write_text(json.dumps(doc))
    assert run_command(["prestress", str(frame), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["analyze", "3prism", "--tol", "-1"],
                                  ["analyze", "3prism", "--tol", "0"],
                                  ["flexes", "square", "--tol", "2"],
                                  ["flexes", "square", "--tol", "nan"],
                                  ["prestress", "3prism", "--tol", "inf"],
                                  ["plot", "hinge", "--tol", "nan"],
                                  ["epscheck", "triangle", "--epsilon", "nan"],
                                  ["epscheck", "triangle", "--epsilon", "inf"],
                                  ["deform", "hinge", "--epsilon", "nan"],
                                  ["deform", "hinge", "--epsilon", "inf"],
                                  ["deform", "hinge", "--steps", "0"],
                                  ["deform", "hinge", "--steps", "-2"],
                                  ["analyze", "3prism", "--seed", "-1"],
                                  ["flexes", "3prism", "--seed", "-1"],
                                  ["prestress", "3prism", "--seed", "-1"],
                                  ["plot", "hinge", "--seed", "-1"],
                                  ["deform", "hinge", "--seed", "-1"],
                                  ["epscheck", "triangle", "--seed", "-1"],
                                  ["verify-ideals", "--seed", "-1"]])
def test_out_of_range_tolerance_or_epsilon_is_rejected(tmp_path, capsys, argv):
    assert run_command(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [["analyze", "3prism"], ["flexes", "3prism"],
                                  ["prestress", "3prism"], ["plot", "hinge"],
                                  ["deform", "hinge"], ["epscheck", "triangle"],
                                  ["verify-ideals"], ["solve", "cubic.json"]])
def test_negative_seed_is_rejected_naming_the_flag(tmp_path, capsys, argv):
    (tmp_path / "cubic.json").write_text(
        json.dumps({"variables": ["x"], "equations": ["x^3 - 2"]}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert run_command(argv + ["--seed", "-1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: --seed ")
    assert list(tmp_path.iterdir()) == [tmp_path / "cubic.json"]


@pytest.mark.parametrize("command, calls", [
    ("analyze", 1 + rigidity.GENERIC_TRIALS), ("flexes", 1),
    ("prestress", 1), ("plot", 1)])
def test_one_jacobian_per_command(tmp_path, monkeypatch, command, calls):
    original = rigidity.jacobian_at
    seen = []

    def counted(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    # the package re-exports jacobian_at, so wrap it under every name
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "tensegrity"
                and getattr(module, "jacobian_at", None) is original):
            monkeypatch.setattr(module, "jacobian_at", counted)
    for fixture in FIXTURE_NAMES:
        seen.clear()
        assert run_command([command, fixture, "--out", str(tmp_path)]) == 0
        assert len(seen) == calls, fixture


def test_solve_rejects_a_zero_denominator(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"variables": ["x"],
                                  "equations": ["x^2 - 1/0"]}))
    assert run_command(["solve", str(system), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero denominator" in err
    assert not (tmp_path / "system_solve.json").exists()


@pytest.mark.parametrize("command", ["analyze", "epscheck"])
def test_infinite_rest_length_is_rejected(tmp_path, capsys, command):
    # 1e999 parses as inf; it used to yield false epscheck witnesses and an
    # analyze report with "member_residual_max": Infinity, which is not JSON
    frame = tmp_path / "triangle.json"
    frame.write_text(
        '{"dimension": 2, "nodes": [[0, 0], [1, 0], [0.5, 0.8660254037844386]],'
        ' "members": [{"i": 1, "j": 2, "rest_sq_length": 1e999},'
        ' {"i": 1, "j": 3, "rest_sq_length": 1.0},'
        ' {"i": 2, "j": 3, "rest_sq_length": 1.0}]}')
    assert run_command([command, str(frame), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == [frame]
