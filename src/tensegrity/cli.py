"""Batch command line and SVG rendering.

Subcommands: analyze, flexes, prestress, solve, deform, epscheck,
verify-ideals, plot.  Each writes a JSON report (byte-stable for a fixed
seed and input) and optionally an SVG; exit codes are 0 for success, 1 for
domain errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .continuation import (DEFAULT_PATH_BUDGET, ContinuationError, MultiPoly,
                           PolySystem, deform_framework,
                           epsilon_rigidity_check, solve_total_degree)
from .framework import (FIXTURE_NAMES, FrameworkError, _known_keys, evaluate_members,
                        load_fixture, load_framework)
from .ideals import (adjacent_minors, adjacent_minor_primes,
                     slingshot_displayed_minor, slingshot_member_constraints,
                     slingshot_minors, slingshot_primes)
from .prestress import prestress_certificate
from .rigidity import (RANK_REL_TOL, nullspace_decomposition, pin_moving_frame,
                       rigidity_report)
from .symbolic import RationalPoly, _natural, verify_containment

#: member stroke colors by kind
MEMBER_COLORS = {"bar": "#333333", "cable": "#1f77b4", "strut": "#d62728"}

#: one color per displacement basis vector, cycled
ARROW_COLORS = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a",
                "#66a61e", "#e6ab02", "#a6761d", "#666666")

#: isometric projection for d = 3, viewing along (1, 1, 1)/sqrt(3)
ISOMETRIC = np.array([
    [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0],
    [1.0 / np.sqrt(6.0), 1.0 / np.sqrt(6.0), -2.0 / np.sqrt(6.0)],
])

#: canvas size, margin around the drawing and node radius, in pixels
WIDTH, HEIGHT, MARGIN, NODE_RADIUS = 640.0, 480.0, 48.0, 4.0

#: side of an arrow head, in pixels
ARROW_HEAD = 6.0


def _projection(d: int) -> np.ndarray:
    """2 x d map onto the canvas: identity for d <= 2, the fixed isometric
    map for d = 3."""
    if d == 1:
        return np.array([[1.0], [0.0]])
    if d == 2:
        return np.eye(2)
    if d == 3:
        return ISOMETRIC
    raise ValueError(f"cannot draw a dimension {d} scene")


@dataclass(frozen=True)
class Scene:
    """What to draw: node coordinates, members, and optionally a matrix of
    displacement vectors (n*d rows, one column per vector) or a set of
    complex root trajectories."""

    nodes: np.ndarray
    members: tuple = ()
    displacements: np.ndarray | None = None
    trajectories: tuple = ()


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _escape_attrib(text: str) -> str:
    """Attribute text escaped as ElementTree escapes it."""
    for char, entity in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"),
                         ("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#09;")):
        text = text.replace(char, entity)
    return text


def render_svg(scene: Scene) -> str:
    """Draw a scene as an SVG document string.

    Nodes become circles, members lines styled by kind, each displacement
    basis vector one group of arrows (zero-length arrows omitted), and each
    trajectory a polyline through the complex plane.  One affine map, fitted
    to the nodes, the arrow tips and the trajectory points, takes scene
    coordinates to pixels (y flipped).
    """
    nodes = np.asarray(scene.nodes, dtype=float)
    n = nodes.shape[0]
    d = nodes.shape[1] if nodes.ndim == 2 and n else 2
    proj = _projection(d) if n else np.eye(2)
    flat = nodes @ proj.T if n else np.zeros((0, 2))

    fields = []
    if scene.displacements is not None and n:
        vecs = np.asarray(scene.displacements, dtype=float)
        if vecs.ndim == 1:
            vecs = vecs[:, None]
        if vecs.shape[0] != n * d:
            raise ValueError(f"displacement field must have {n * d} rows")
        # per vector: (n, 2) projected arrows
        fields = [vecs[:, k].reshape(n, d) @ proj.T
                  for k in range(vecs.shape[1])]
    curves = [np.column_stack([zs.real, zs.imag]) for zs in
              (np.asarray(path, dtype=complex).reshape(-1) for path in scene.trajectories)]

    parts = [flat] + [flat + v for v in fields] + curves
    pts = np.concatenate(parts)
    if pts.size == 0:
        lo, hi = np.zeros(2), np.ones(2)
    else:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    scale = min((WIDTH - 2 * MARGIN) / span[0],
                (HEIGHT - 2 * MARGIN) / span[1])
    mid = 0.5 * (lo + hi)
    px = np.column_stack([WIDTH / 2 + (pts[:, 0] - mid[0]) * scale,
                          HEIGHT / 2 - (pts[:, 1] - mid[1]) * scale])
    node_px, *rest = np.split(px, np.cumsum([len(a) for a in parts])[:-1])
    tips_px, curves_px = rest[:len(fields)], rest[len(fields):]
    node_xy = node_px.tolist()

    # element and attribute order, spacing, escaping and self-closing tags
    # are ElementTree.tostring's, so the bytes match its output
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
           f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">'
           '<rect width="100%" height="100%" fill="#ffffff" />']

    for curve in curves_px:
        points = " ".join(f"{x:.3f},{y:.3f}" for x, y in curve.tolist())
        out.append(f'<polyline class="trajectory" points="{points}" fill="none" '
                   'stroke="#555555" stroke-width="1" />')

    for (i, j, kind) in scene.members:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"member ({i}, {j}) names a node outside 1..{n}")
        (x1, y1), (x2, y2) = node_xy[i - 1], node_xy[j - 1]
        out.append(f'<line class="{_escape_attrib(f"member {kind}")}" '
                   f'x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
                   f'stroke="{MEMBER_COLORS.get(kind, "#333333")}" stroke-width="2" '
                   f'stroke-dasharray="{"6,3" if kind == "strut" else "none"}" />')

    # "M tail L tip " and the head "M left L tip L right", as _fmt writes
    shaft = ('<path class="arrow" fill="none" stroke-width="1.5" '
             'd="M {:.3f} {:.3f} L {:.3f} {:.3f} ')
    arrow = shaft + 'M {:.3f} {:.3f} L {:.3f} {:.3f} L {:.3f} {:.3f}" />'
    shaft += '" />'
    for k, (vec, tip_px) in enumerate(zip(fields, tips_px)):
        group = (f'<g class="arrows" data-vector="{k}" '
                 f'stroke="{ARROW_COLORS[k % len(ARROW_COLORS)]}"')
        # arrows up to 1e-12 long are omitted, and heads of arrows up to
        # 1e-12 px long (their direction u is then not needed)
        drawn = ~(np.linalg.norm(vec, axis=1) <= 1e-12)
        if not drawn.any():
            out.append(group + " />")
            continue
        tail, tip = node_px[drawn], tip_px[drawn]
        length = np.linalg.norm(tip - tail, axis=1)
        headed = ~(length <= 1e-12)
        u = (tip - tail) / np.where(headed, length, 1.0)[:, None]
        back = tip - ARROW_HEAD * u
        side = ARROW_HEAD * 0.5 * np.column_stack([-u[:, 1], u[:, 0]])
        rows = np.column_stack([tail, tip, back + side, tip, back - side])
        out.append(group + ">")
        out.extend((arrow if head else shaft).format(*row)
                   for row, head in zip(rows.tolist(), headed.tolist()))
        out.append("</g>")

    out.extend(f'<circle class="node" cx="{x:.3f}" cy="{y:.3f}" '
               f'r="{_fmt(NODE_RADIUS)}" fill="#000000" />' for x, y in node_xy)
    out.append("</svg>")
    return "".join(out)


def report_json(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, with
    `indent` the newline and indentation of its own level.

    Dicts need str keys.  A list of finite floats, most of a report's bytes,
    is one join; anything json.dumps refuses (a numpy integer or bool, a
    set) raises TypeError here too.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        # every NaN writes as 'nan'; no finite float's repr has an 'n'
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            text = sep.join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            text = "n"
        if "n" in text:  # not all floats, or not all finite
            text = sep.join([report_json(v, inner) for v in value])
        return "[" + inner + text + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
        return "{" + inner + sep.join(
            [encode_basestring_ascii(key) + ": " + report_json(value[key], inner)
             for key in sorted(value)]) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# subcommand pipelines


@dataclass
class CommandOutput:
    stem: str
    payload: dict
    svg: str | None = None
    ok: bool = True
    summary: str = ""


def _load_input(text: str):
    path = Path(text)
    if path.exists():
        graph, p, sys_ = load_framework(path)
        return graph, p, sys_, path.stem
    if text in FIXTURE_NAMES:
        graph, p, sys_ = load_fixture(text)
        return graph, p, sys_, text
    raise FrameworkError(f"no framework file or fixture named {text!r}")


def _scene(graph, p, displacements=None) -> Scene:
    return Scene(nodes=p.coords, members=graph.members,
                 displacements=displacements)


def _cmd_analyze(args) -> CommandOutput:
    graph, p, sys_, stem = _load_input(args.framework)
    report = rigidity_report(sys_, p, tol_rel=args.tol, seed=args.seed)
    residuals, feasible = evaluate_members(sys_, p)
    payload = {
        "input": stem,
        "nodes": graph.n, "dimension": graph.d, "members": graph.m,
        **report.to_json_dict(),
        "member_residual_max": float(np.max(np.abs(residuals))),
        "all_members_feasible": bool(np.all(feasible)),
    }
    svg = render_svg(_scene(graph, p)) if args.svg else None
    return CommandOutput(stem, payload, svg,
                         summary=f"verdict: {report.verdict}")


def _cmd_flexes(args) -> CommandOutput:
    graph, p, sys_, stem = _load_input(args.framework)
    dec = nullspace_decomposition(sys_, p, tol_rel=args.tol)
    payload = {
        "input": stem,
        "rigid_motion_dim": int(dec.rigid_motions.shape[1]),
        "flex_dim": int(dec.flexes.shape[1]),
        "corank": dec.corank,
        "tolerance": dec.tol,
        "rigid_motions": dec.rigid_motions.T.tolist(),
        "flexes": dec.flexes.T.tolist(),
    }
    svg = None
    if args.svg:
        basis = np.hstack([dec.rigid_motions, dec.flexes])
        svg = render_svg(_scene(graph, p, basis if basis.size else None))
    return CommandOutput(stem, payload, svg,
                         summary=f"flexes: {dec.flexes.shape[1]}")


def _cmd_prestress(args) -> CommandOutput:
    _, p, sys_, stem = _load_input(args.framework)
    cert = prestress_certificate(sys_, p, tol_rel=args.tol)
    payload = {"input": stem, **cert.to_json_dict()}
    return CommandOutput(stem, payload, summary=f"verdict: {cert.verdict}")


def _read_system(path: Path):
    doc = json.loads(path.read_text())
    if isinstance(doc, dict):
        _known_keys(doc, ("variables", "equations"), "the system document")
    for key in ("variables", "equations"):
        value = doc.get(key) if isinstance(doc, dict) else None
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise ContinuationError(f"system needs '{key}': a list of strings")
    names = tuple(doc["variables"])
    polys = [MultiPoly(len(names), RationalPoly.parse(text, names).terms)
             for text in doc["equations"]]
    return names, PolySystem(polys)


def _cmd_solve(args) -> CommandOutput:
    path = Path(args.system)
    names, system = _read_system(path)
    results = solve_total_degree(system, seed=args.seed,
                                 budget=args.budget, record=args.svg)
    payload = {
        "input": path.stem,
        "variables": list(names),
        "degrees": system.degrees,
        "paths": len(results),
        "results": [{
            "status": r.status,
            "residual": float(r.residual),
            "max_imag": float(r.max_imag),
            "steps": r.steps,
            "point_re": r.endpoint.real.tolist(),
            "point_im": r.endpoint.imag.tolist(),
        } for r in results],
    }
    svg = None
    if args.svg:
        paths = tuple(np.array([x[0] for _, x in r.trajectory])
                      for r in results if r.trajectory)
        svg = render_svg(Scene(nodes=np.zeros((0, 2)), trajectories=paths))
    converged = sum(r.status == "converged" for r in results)
    return CommandOutput(path.stem, payload,
                         svg, summary=f"converged {converged}/{len(results)}")


def _cmd_deform(args) -> CommandOutput:
    graph, p, sys_, stem = _load_input(args.framework)
    pp = pin_moving_frame(p)  # a rigid motion: the loaded rest lengths still hold
    steps = deform_framework(sys_, pp, direction="flex",
                             epsilon=args.epsilon, steps=args.steps,
                             seed=args.seed)
    payload = {
        "input": stem,
        "epsilon": args.epsilon,
        "requested_steps": args.steps,
        "steps": [{
            "status": s.result.status,
            "real_within_tau": bool(s.real),
            "member_residual": float(s.member_residual),
            "max_imag": float(s.result.max_imag),
            "point_re": s.point.real.tolist(),
            "point_im": s.point.imag.tolist(),
        } for s in steps],
    }
    svg = None
    if args.svg and steps:
        delta = steps[-1].point.real - pp.coords
        svg = render_svg(_scene(graph, pp, delta.reshape(-1, 1)))
    last = steps[-1].result.status if steps else "none"
    return CommandOutput(stem, payload, svg, summary=f"last status: {last}")


def _cmd_epscheck(args) -> CommandOutput:
    _, p, sys_, stem = _load_input(args.framework)
    out = epsilon_rigidity_check(sys_, pin_moving_frame(p), epsilon=args.epsilon,
                                 seed=args.seed, budget=args.budget)
    payload = {"input": stem, "epsilon": args.epsilon, **out.to_json_dict()}
    return CommandOutput(stem, payload, summary=f"verdict: {out.verdict}")


def _containment_rows(gens, primes):
    rows = []
    ok = True
    for k, prime in enumerate(primes, start=1):
        rep = verify_containment(gens, prime)
        ok &= rep.contained
        worst = rep.worst_remainder
        rows.append({"prime": k, "contained": rep.contained,
                     "worst_remainder": str(worst) if worst else None})
    return rows, ok


def _cmd_verify_ideals(args) -> CommandOutput:
    adj_rows, adj_ok = _containment_rows(adjacent_minors(),
                                         adjacent_minor_primes())
    minors = slingshot_minors()
    nonzero = [m for m in minors if not m.is_zero()]
    shown = slingshot_displayed_minor()
    found = any(m == shown or m == -shown for m in nonzero)
    eqs = slingshot_member_constraints() + nonzero
    sling_rows, sling_ok = _containment_rows(eqs, slingshot_primes())
    payload = {
        "adjacent_minors": {"generators": 4, "containment": adj_rows},
        "slingshot": {
            "minor_count": len(minors),
            "nonzero_minors": len(nonzero),
            "distinct_nonzero": len(set(nonzero)),
            "displayed_minor_found": bool(found),
            "equation_count": len(eqs),
            "containment": sling_rows,
        },
    }
    ok = adj_ok and sling_ok and found and len(eqs) == 102
    return CommandOutput("reference", payload, ok=ok,
                         summary="all containments hold" if ok
                         else "containment FAILED")


def _cmd_plot(args) -> CommandOutput:
    graph, p, sys_, stem = _load_input(args.framework)
    dec = nullspace_decomposition(sys_, p, tol_rel=args.tol)
    disp = dec.flexes if dec.flexes.size else None
    svg = render_svg(_scene(graph, p, disp))
    payload = {"input": stem, "nodes": graph.n, "members": graph.m,
               "flex_arrows": int(0 if disp is None else disp.shape[1])}
    return CommandOutput(stem, payload, svg,
                         summary=f"{graph.n} nodes, {graph.m} members")


#: every subcommand once, in the order of --help: its help, runner, input (a
#: framework, a system file or none) and its flags after --seed in order, a
#: "--epsilon=0.05" giving a flag this subcommand's default
_SUBCOMMANDS = {
    "analyze": ("ranks, coranks, rigidity verdict", _cmd_analyze, "framework",
                "--tol --out --svg"),
    "flexes": ("rigid motions and flex basis", _cmd_flexes, "framework",
               "--tol --out --svg"),
    "prestress": ("prestress rigidity certificate", _cmd_prestress, "framework",
                  "--tol --out"),
    "solve": ("solve a polynomial system", _cmd_solve, "system", "--budget --out --svg"),
    "deform": ("hyperplane deformation walk", _cmd_deform, "framework",
               "--epsilon=0.05 --steps --out --svg"),
    "epscheck": ("epsilon-local rigidity search", _cmd_epscheck, "framework",
                 "--epsilon=0.1 --budget --out"),
    "verify-ideals": ("check the reference ideal containments", _cmd_verify_ideals,
                      None, "--out"),
    "plot": ("render a framework to SVG", _cmd_plot, "framework", "--tol --out --svg"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensegrity",
        description="rigidity analysis of bar and tensegrity frameworks")
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = {"framework": "framework JSON file or fixture name",
              "system": "JSON file with variables and equations"}
    flags = {
        "--tol": dict(type=float, default=RANK_REL_TOL, help="relative rank tolerance"),
        "--epsilon": dict(type=float, help="offset / ball radius"),
        "--steps": dict(type=int, default=3, help="number of hyperplane pushes"),
        "--budget": dict(type=int, default=DEFAULT_PATH_BUDGET,
                         help="maximum number of tracked paths"),
        "--out": dict(default=".", help="output directory"),
        "--svg": dict(action="store_true", help="also write an SVG rendering"),
    }
    for name, (help_text, run, source, names) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if source:
            sp.add_argument(source, help=inputs[source])
        sp.add_argument("--seed", type=int, default=0, help="RNG seed")
        for flag, _, default in (item.partition("=") for item in names.split()):
            options = flags[flag]
            if default:
                options = {**options, "default": options["type"](default)}
            sp.add_argument(flag, **options)
        sp.set_defaults(func=run)
    return parser


def run_command(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)

    try:
        _natural(args.seed, ValueError, "--seed")
        out = args.func(args)
    except (ValueError, OSError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{out.stem}_{args.command}.json"
    report_path.write_text(report_json(out.payload) + "\n")
    print(f"wrote {report_path}")
    if out.svg is not None:
        svg_path = out_dir / f"{out.stem}_{args.command}.svg"
        svg_path.write_text(out.svg)
        print(f"wrote {svg_path}")
    if out.summary:
        print(out.summary)
    return 0 if out.ok else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
