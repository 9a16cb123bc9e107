"""Exit codes, report stability, and SVG structure of the batch CLI."""

import argparse
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from tensegrity import cli, rigidity
from tensegrity.cli import (ARROW_COLORS, ARROW_HEAD, HEIGHT, ISOMETRIC, MARGIN,
                            MEMBER_COLORS, NODE_RADIUS, WIDTH, Scene, _fmt,
                            _projection, render_svg, report_json, run_command)
from tensegrity.framework import FIXTURE_NAMES, load_fixture

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
    # the cable/strut split is the fixture members' own kinds
    graph, _, _ = load_fixture("3prism")
    kinds = [kind for _, _, kind in graph.members]
    assert (kinds.count("cable"), kinds.count("strut")) == (9, 3)
    run_command(["prestress", "3prism", "--out", str(tmp_path)])
    doc = _read(tmp_path / "3prism_prestress.json")
    assert doc["verdict"] == "found"
    assert doc["self_stress_dim"] == 1
    assert doc["cables_positive"] and doc["struts_negative"]
    assert doc["sign_violations"] == [] and doc["zero_members"] == []
    assert "partition" not in doc


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


@pytest.mark.parametrize("member", [(0, 2, "bar"), (1, 4, "bar")])
def test_render_svg_rejects_a_member_outside_the_nodes(member):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=rf"member \({member[0]}, {member[1]}\)"):
        render_svg(Scene(nodes=nodes, members=((1, 2, "bar"), member)))



# the point-at-a-time renderer that render_svg replaced, kept verbatim as
# the reference its output must match byte for byte

def _reference_canvas_map(points):
    """Affine map from scene coordinates to SVG pixels (y flipped)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        lo, hi = np.zeros(2), np.ones(2)
    else:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = min((WIDTH - 2 * MARGIN) / span[0],
                (HEIGHT - 2 * MARGIN) / span[1])
    mid = 0.5 * (lo + hi)

    def to_px(p):
        x = WIDTH / 2 + (p[0] - mid[0]) * scale
        y = HEIGHT / 2 - (p[1] - mid[1]) * scale
        return float(x), float(y)

    return to_px


def _reference_svg(scene: Scene) -> str:
    nodes = np.asarray(scene.nodes, dtype=float)
    n = nodes.shape[0]
    d = nodes.shape[1] if nodes.ndim == 2 and n else 2
    proj = _projection(d) if n else np.eye(2)
    flat = nodes @ proj.T if n else np.zeros((0, 2))

    disp2d = None
    if scene.displacements is not None and n:
        vecs = np.asarray(scene.displacements, dtype=float)
        if vecs.ndim == 1:
            vecs = vecs[:, None]
        if vecs.shape[0] != n * d:
            raise ValueError(f"displacement field must have {n * d} rows")
        # per vector: (n, 2) projected arrows
        disp2d = [vecs[:, k].reshape(n, d) @ proj.T
                  for k in range(vecs.shape[1])]

    extent = [flat]
    if disp2d:
        extent.extend(flat + v for v in disp2d)
    for path in scene.trajectories:
        zs = np.asarray(path, dtype=complex).reshape(-1)
        extent.append(np.column_stack([zs.real, zs.imag]))
    to_px = _reference_canvas_map(np.concatenate(extent))

    root = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": _fmt(WIDTH), "height": _fmt(HEIGHT),
        "viewBox": f"0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}",
    })
    ET.SubElement(root, "rect", {"width": "100%", "height": "100%",
                                 "fill": "#ffffff"})

    for path in scene.trajectories:
        zs = np.asarray(path, dtype=complex).reshape(-1)
        pts = " ".join("%s,%s" % tuple(map(_fmt, to_px((z.real, z.imag))))
                       for z in zs)
        ET.SubElement(root, "polyline", {
            "class": "trajectory", "points": pts, "fill": "none",
            "stroke": "#555555", "stroke-width": "1",
        })

    for (i, j, kind) in scene.members:
        x1, y1 = to_px(flat[i - 1])
        x2, y2 = to_px(flat[j - 1])
        ET.SubElement(root, "line", {
            "class": f"member {kind}",
            "x1": _fmt(x1), "y1": _fmt(y1), "x2": _fmt(x2), "y2": _fmt(y2),
            "stroke": MEMBER_COLORS.get(kind, "#333333"),
            "stroke-width": "2",
            "stroke-dasharray": "6,3" if kind == "strut" else "none",
        })

    if disp2d:
        for k, vec in enumerate(disp2d):
            color = ARROW_COLORS[k % len(ARROW_COLORS)]
            group = ET.SubElement(root, "g", {"class": "arrows",
                                              "data-vector": str(k),
                                              "stroke": color})
            for i in range(n):
                if np.linalg.norm(vec[i]) <= 1e-12:
                    continue
                x1, y1 = to_px(flat[i])
                x2, y2 = to_px(flat[i] + vec[i])
                head = _reference_arrow_head(x1, y1, x2, y2)
                ET.SubElement(group, "path", {
                    "class": "arrow", "fill": "none", "stroke-width": "1.5",
                    "d": f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)} {head}",
                })

    for i in range(n):
        x, y = to_px(flat[i])
        ET.SubElement(root, "circle", {
            "class": "node", "cx": _fmt(x), "cy": _fmt(y),
            "r": _fmt(NODE_RADIUS), "fill": "#000000",
        })

    return ET.tostring(root, encoding="unicode")


def _reference_arrow_head(x1, y1, x2, y2):
    v = np.array([x2 - x1, y2 - y1])
    norm = np.linalg.norm(v)
    if norm <= 1e-12:
        return ""
    u = v / norm
    tip = np.array([x2, y2]) - ARROW_HEAD * u
    side = ARROW_HEAD * 0.5 * np.array([-u[1], u[0]])
    left, right = tip + side, tip - side
    return (f"M {_fmt(left[0])} {_fmt(left[1])} L {_fmt(x2)} {_fmt(y2)} "
            f"L {_fmt(right[0])} {_fmt(right[1])}")


def _reference_scenes():
    rng = np.random.default_rng(7)
    kinds = ("bar", "cable", "strut", 'a"<b')
    scenes = {}
    for d, n in ((1, 4), (2, 6), (3, 9)):
        nodes = rng.normal(size=(n, d))
        members = tuple((i, j, kinds[(i + j) % 4])
                        for i in range(1, n + 1) for j in range(i + 1, n + 1)
                        if (i * j) % 3)
        disp = rng.normal(size=(n * d, 10))
        disp[:d] = 0.0            # node 1 never moves
        disp[d:2 * d, 3] = 0.0    # nor does node 2 in field 3
        disp[:, 5] = 0.0          # field 5 draws no arrow
        scenes[f"d{d}"] = Scene(nodes=nodes, members=members, displacements=disp)
    scenes["vector"] = Scene(nodes=rng.normal(size=(5, 2)),
                             members=((1, 2, "cable"), (2, 5, "strut")),
                             displacements=rng.normal(size=10))
    # 2e-12 scene units, over 1e-12 px in a 1e6-unit-wide drawing: the
    # arrow is drawn, its head is not
    tiny = np.zeros(6)
    tiny[2], tiny[5] = 2e-12, 0.5
    scenes["headless"] = Scene(nodes=np.array([[0.0, 0.0], [1e6, 0.0], [0.0, 7e5]]),
                               members=((1, 2, "bar"),), displacements=tiny)
    paths = tuple(rng.normal(size=k) + 1j * rng.normal(size=k) for k in (1, 2, 7))
    scenes["trajectories"] = Scene(nodes=np.zeros((0, 2)), trajectories=paths)
    scenes["nodes-and-trajectories"] = Scene(nodes=rng.normal(size=(3, 2)),
                                             members=((1, 3, "bar"),),
                                             trajectories=paths)
    scenes["empty"] = Scene(nodes=np.zeros((0, 2)))
    scenes["empty-list"] = Scene(nodes=[])
    return scenes


@pytest.mark.parametrize("name", sorted(_reference_scenes()))
def test_render_svg_matches_the_reference(name):
    scene = _reference_scenes()[name]
    svg = render_svg(scene)
    assert svg == _reference_svg(scene)
    if name == "headless":
        paths = [e.get("d") for e in ET.fromstring(svg).iter(f"{SVG}path")]
        assert len(paths) == 2 and paths[0].endswith(" ") and paths[0].count("L") == 1
        assert paths[1].count("L") == 3
    if name.startswith("d"):
        assert "a&quot;&lt;b" in svg and 'data-vector="5"' in svg


def test_render_svg_escapes_member_kinds_as_elementtree_does():
    kinds = ("a&b", "<strut>", 'say "hi"', "cr\rlf\ntab\t", "&amp;", "caf\u00e9")
    nodes = np.random.default_rng(3).normal(size=(len(kinds) + 1, 2))
    scene = Scene(nodes=nodes, members=tuple((1, k + 2, kind) for k, kind in enumerate(kinds)))
    svg = render_svg(scene)
    assert svg == _reference_svg(scene)
    assert 'class="member cr&#13;lf&#10;tab&#09;"' in svg and "member &amp;amp;" in svg
    assert [e.get("class") for e in ET.fromstring(svg).iter(f"{SVG}line")] == [
        f"member {kind}" for kind in kinds]


def test_the_package_does_not_load_elementtree():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, tensegrity.cli; print(sorted(m for m in sys.modules if m.startswith('xml')))"
    out = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_the_readme_command_line_section_matches_the_subcommand_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([\w-]+)` ", section, flags=re.M) == list(cli._SUBCOMMANDS)
    parsers, = [action.choices for action in cli._build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    assert list(parsers) == list(cli._SUBCOMMANDS)
    takes = {name: {flag for action in parser._actions for flag in action.option_strings}
             for name, parser in parsers.items()}
    assert all({"--seed", "--out"} <= flags for flags in takes.values())
    bullets = re.findall(r"^- `(--[\w-]+)[^`]*`(.*?)(?=\n- |\n\n)", section,
                         flags=re.M | re.S)
    assert [flag for flag, _ in bullets] == ["--tol", "--svg", "--epsilon", "--steps",
                                             "--budget"]
    for flag, text in bullets:
        named = [word for word in re.findall(r"`([\w-]+)`", text) if word in parsers]
        assert named == [name for name, flags in takes.items() if flag in flags], flag
    other = set().union(*takes.values()) - {"-h", "--help", "--seed", "--out"}
    assert other == {flag for flag, _ in bullets}


#: square with member (1, 2)'s rest squared length 4: its deform report
#: carries a NaN member residual
STRAINED_SQUARE = {"dimension": 2,
                   "nodes": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                   "members": [{"i": i, "j": j, "rest_sq_length": rest} for i, j, rest
                               in [(1, 2, 4.0), (1, 4, 1.0), (2, 3, 1.0), (3, 4, 1.0)]]}


def test_report_json_is_json_dumps_on_cli_reports(tmp_path, monkeypatch):
    payloads = []

    class Recorded(cli.CommandOutput):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            payloads.append(self.payload)

    monkeypatch.setattr(cli, "CommandOutput", Recorded)
    (tmp_path / "strained.json").write_text(json.dumps(STRAINED_SQUARE))
    (tmp_path / "cubic.json").write_text(json.dumps(
        {"variables": ["x", "y"], "equations": ["x^3 - 7*x^2 + 17*x - 15", "y^2 - 1/3"]}))
    argvs = [[sub, fx] for fx in FIXTURE_NAMES
             for sub in ("analyze", "flexes", "prestress", "plot")]
    argvs += [["solve", str(tmp_path / "cubic.json")],
              ["deform", "square", "--steps", "2"],
              ["deform", str(tmp_path / "strained.json"), "--steps", "2"],
              ["epscheck", "hinge"], ["verify-ideals"]]
    for argv in argvs:
        assert run_command(argv + ["--out", str(tmp_path / "out")]) == 0, argv
    assert len(payloads) == len(argvs)
    texts = [report_json(payload) for payload in payloads]
    assert texts == [json.dumps(payload, indent=2, sort_keys=True) for payload in payloads]
    assert "NaN" in texts[-3]
    written = (tmp_path / "out" / "strained_deform.json").read_text()
    assert written == texts[-3] + "\n"


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 0.1, 0, -7,
    2 ** 70, True, False, None, [], {}, [[]], [{}], {"a": {}}, {"a": [], "": [[], {}]},
    "", "caf\u00e9 \u2603 \U0001f600", "tab\tnl\n\x00\x1f\x7f \"q\" \\",
    [1.0, 2, 3.5], [0.5, True], [0.5, None], [None, 0.5], [1.5, float("nan")],
    [-float("inf"), 1e300], [0.5, "x"], [0.5, [0.25]], (1.0, -2.0), (), ((0.5,), [1]),
    [np.float64(0.1), 0.2], np.float64(-0.0), {"b": 1, "a": 2.5, "B": [3.0], "\u00e9": 0}])
def test_report_json_is_json_dumps_on_edge_values(value):
    for doc in (value, [value, value], {"k": value, "a": [value, 1.0], "z": {"y": value}}):
        assert report_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1, 2}, np.float32(0.5),
                                   np.zeros(2)])
def test_report_json_refuses_what_json_dumps_refuses(value):
    for doc in (value, [0.5, value], [value, 0.5], {"k": value}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            report_json(doc)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
def test_report_json_refuses_a_key_that_is_not_a_string(key):
    for doc in ({key: 0.5}, {"a": 1, "b": [{key: "x"}]}):
        with pytest.raises(TypeError):
            report_json(doc)


def test_flags_are_accepted_only_where_they_act(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run_command(["epscheck", "triangle", "--tol", "1e-3"] + out) == 2
    assert run_command(["prestress", "3prism", "--svg"] + out) == 2
    assert run_command(["flexes", "hinge", "--seed", "5"] + out) == 0


@pytest.mark.parametrize("doc", [[1, 2],
                                 {"variables": ["x"], "equations": [3]},
                                 # a skipped '*' solved these as 2*x - 4 and x - 2
                                 {"variables": ["x"], "equations": ["x**2 - 4"]},
                                 {"variables": ["x"], "equations": ["*x - 2"]}])
def test_solve_rejects_malformed_system(tmp_path, capsys, doc):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(doc))
    assert run_command(["solve", str(system), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_keys_exit_1_naming_the_key(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(json.dumps({"variables": ["x"], "equations": ["x^2 - 1"],
                                  "equation": ["x - 3"]}))
    assert run_command(["solve", str(system), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: unknown key 'equation' in the system document; "
        "allowed keys are 'variables', 'equations'\n")
    frame = tmp_path / "rod.json"
    frame.write_text(json.dumps({"dimension": 2, "nodes": [[0.0, 0.0], [1.0, 0.0]],
                                 "members": [{"i": 1, "j": 2, "Kind": "cable"}]}))
    assert run_command(["prestress", str(frame), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown key 'Kind' in member ")
    assert not list(tmp_path.glob("*_prestress.json"))


@pytest.mark.parametrize("block", [{"cables": [1]}, {"cables": [[1, 7]]},
                                   {"bars": [[4, 1]]},
                                   {"cables": [[1, 2]], "struts": [[1, 2]]},
                                   {"bars": [[1, 4], [2, 5], [3, 6]], "struts": [],
                                    "cables": [[1, 2], [1, 3], [1, 5], [2, 3], [2, 6],
                                               [3, 4], [4, 5], [4, 6], [5, 6]]}])
def test_prestress_rejects_bad_partition(tmp_path, capsys, block):
    # the retired block is refused whatever it holds: kinds come only from
    # the members, and ignoring it would change the sign report silently
    fixture = resources.files("tensegrity.fixtures").joinpath("3prism.json")
    doc = json.loads(fixture.read_text())
    doc["tensegrity_partition"] = block
    frame = tmp_path / "prism.json"
    frame.write_text(json.dumps(doc))
    assert run_command(["prestress", str(frame), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'kind'" in err


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
                                  ["verify-ideals", "--seed", "-1"],
                                  ["deform", "hinge", "--epsilon", "1e20"],
                                  ["deform", "hinge", "--epsilon", "1e200"]])
def test_out_of_range_tolerance_or_epsilon_is_rejected(tmp_path, capsys, argv):
    assert run_command(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("epsilon", ["1e200", "1e-200"])
def test_an_epsilon_whose_square_is_not_a_positive_float_exits_1(tmp_path, capsys, epsilon):
    """1e200 squared overflows and 1e-200 squared is 0."""
    argv = ["epscheck", "triangle", "--epsilon", epsilon, "--out", str(tmp_path)]
    assert run_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon must have a positive finite square")
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())

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


@pytest.mark.parametrize("command, document", [
    ("solve", {"variables": ["x"], "equations": [f"x^2 - {10 ** 400}"]}),
    ("analyze", {"dimension": 2, "nodes": [[0, 0], [10 ** 400, 0]],
                 "members": [{"i": 1, "j": 2}]}),
    ("analyze", {"dimension": 2, "nodes": [[0, 0], [1, 0]],
                 "members": [{"i": 1, "j": 2, "rest_sq_length": 10 ** 400}]})])
def test_a_number_too_large_for_a_float_exits_1(tmp_path, capsys, command, document):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(document))
    assert run_command([command, str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not list(tmp_path.glob("big_*"))


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


def test_string_coordinates_are_rejected(tmp_path, capsys):
    frame = tmp_path / "triangle.json"
    frame.write_text(
        '{"dimension": 2, "nodes": [["0", "0"], [true, "0"], [0.5, 0.8660254037844386]],'
        ' "members": [{"i": 1, "j": 2}, {"i": 1, "j": 3}, {"i": 2, "j": 3}]}')
    assert run_command(["analyze", str(frame), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a number" in err
    assert list(tmp_path.iterdir()) == [frame]
