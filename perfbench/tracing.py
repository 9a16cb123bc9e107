"""Span tracing from outside the program, and the per-layer metrics.

`Tracer.install()` replaces each traced callable at every name a
`tensegrity` module looks it up by (the CLI imports its library functions
by name, so patching the defining module alone would miss its calls), and
the listed methods on their classes.  Each call records a span: name id,
start, end, parent span and command id, appended to flat arrays kept in
memory; `save()` writes them out at the end of a run.  Private helpers
(`_newton`, `_polish_real`, ...) are not wrapped, so their cost is self
time of the nearest traced caller.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute) of every traced callable; a dotted attribute is a
#: method.  The layer is the module's short name.
TRACED = (
    ("tensegrity.cli", "run_command"),
    ("tensegrity.cli", "render_svg"),
    ("tensegrity.framework", "load_fixture"),
    ("tensegrity.framework", "load_framework"),
    ("tensegrity.rigidity", "rigidity_report"),
    ("tensegrity.rigidity", "nullspace_decomposition"),
    ("tensegrity.rigidity", "jacobian_at"),
    ("tensegrity.prestress", "prestress_certificate"),
    ("tensegrity.prestress", "self_stress_basis"),
    ("tensegrity.continuation", "epsilon_rigidity_check"),
    ("tensegrity.continuation", "deform_framework"),
    ("tensegrity.continuation", "solve_total_degree"),
    ("tensegrity.continuation", "track_path"),
    ("tensegrity.continuation", "PolySystem.evaluate"),
    ("tensegrity.continuation", "PolySystem.jacobian"),
    ("tensegrity.ideals", "adjacent_minors"),
    ("tensegrity.ideals", "adjacent_minor_primes"),
    ("tensegrity.ideals", "slingshot_member_constraints"),
    ("tensegrity.ideals", "slingshot_minors"),
    ("tensegrity.ideals", "slingshot_primes"),
    ("tensegrity.ideals", "slingshot_displayed_minor"),
    ("tensegrity.symbolic", "verify_containment"),
    ("tensegrity.symbolic", "buchberger"),
    ("tensegrity.symbolic", "normal_form_reduce"),
    ("tensegrity.symbolic", "symbolic_minors"),
    ("tensegrity.symbolic", "RationalPoly.__init__"),
)

LAYERS = ("cli", "framework", "rigidity", "prestress", "continuation",
          "ideals", "symbolic")

#: subcommands with a per-pass time metric, present in every traced result
SUBCOMMANDS = ("epscheck", "deform", "solve", "verify-ideals", "analyze",
               "flexes", "prestress", "plot")

FAR = 1e3  # a converged endpoint beyond this norm is counted converged_far


class Tracer:
    def __init__(self):
        self.names = [f"{mod.rsplit('.', 1)[1]}.{attr}" for mod, attr in TRACED]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.stack = [-1]
        self.cmd_id = -1
        self.paths = []        # (status, steps, endpoint norm) per track_path
        self.relabelled = 0    # deform steps turned converged -> no_real_solution
        self.eps = []          # (total, converged, diverged, witnesses)
        self.basis_sizes = []  # generators per Groebner basis
        self._undo = []

    # -- wrapping -----------------------------------------------------

    def _wrap(self, nid, fn, observe):
        start, end, name, parent, cmd, stack = (
            self.start, self.end, self.name, self.parent, self.cmd, self.stack)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(nid)
            parent.append(stack[-1])
            cmd.append(tracer.cmd_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if observe is not None:
                observe(out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _observers(self):
        def track(res):
            self.paths.append((res.status, res.steps, float(np.linalg.norm(res.endpoint))))

        def deform(steps):
            self.relabelled += sum(s.result.status == "no_real_solution" for s in steps)

        def eps(res):
            self.eps.append((res.paths_total, res.paths_converged,
                             res.paths_diverged, len(res.witnesses)))

        def groebner(gb):
            self.basis_sizes.append(len(gb.generators))
        return {"track_path": track, "deform_framework": deform,
                "epsilon_rigidity_check": eps, "buchberger": groebner}

    def install(self):
        observers = self._observers()
        modules = [m for k, m in sys.modules.items()
                   if k == "tensegrity" or k.startswith("tensegrity.")]
        for nid, (modname, attr) in enumerate(TRACED):
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[meth]
                wrapped = self._wrap(nid, fn, None)
                setattr(owner, meth, wrapped)
                self._undo.append((owner, meth, fn))
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(nid, fn, observers.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- output -------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cmd": np.frombuffer(self.cmd, dtype=np.int32).copy(),
        }

    def save(self, path, commands):
        """Write the spans, the name table and the argv of each command id
        to one compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names),
                            commands=np.array([" ".join(c) for c in commands]),
                            **self.arrays())


def layer_metrics(tracer: Tracer, passes: int, traced_pass_s: float,
                  cmd_subs: list) -> dict:
    """Per-layer metrics of a traced run, normalised per pass.
    `traced_pass_s` is the mean wall time of a traced pass; `cmd_subs` maps
    command id to its subcommand.  The caller adds trace.overhead_frac."""
    a = tracer.arrays()
    names = tracer.names
    nid = {n: k for k, n in enumerate(names)}
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size) if dur.size else dur
    self_t = dur - child
    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names])
    span_layer = layer_of[a["name"]] if dur.size else np.zeros(0, dtype=int)

    def spans(short):
        return a["name"] == nid[short]

    def total(short):
        return float(dur[spans(short)].sum()) / passes

    def calls(short):
        return float(np.count_nonzero(spans(short))) / passes

    def outside(short, child_short):
        """Duration of `short` spans minus their direct `child_short` children."""
        mask = spans(short)
        kids = spans(child_short) & has_parent
        kids &= np.isin(parent, np.nonzero(mask)[0])
        return (float(dur[mask].sum()) - float(dur[kids].sum())) / passes

    m = {}
    track = dur[spans("continuation.track_path")]
    m["continuation.track_path.calls"] = track.size / passes
    m["continuation.track_path.us_p50"] = float(np.percentile(track, 50)) * 1e6 if track.size else 0.0
    m["continuation.track_path.us_p90"] = float(np.percentile(track, 90)) * 1e6 if track.size else 0.0
    steps = [s for _, s, _ in tracer.paths]
    m["continuation.track_path.steps_mean"] = float(np.mean(steps)) if steps else 0.0
    for short, key in (("continuation.PolySystem.evaluate", "evaluate"),
                       ("continuation.PolySystem.jacobian", "jacobian")):
        d = dur[spans(short)]
        m[f"continuation.{key}.calls"] = d.size / passes
        m[f"continuation.{key}.us"] = float(d.mean()) * 1e6 if d.size else 0.0
    evals = m["continuation.evaluate.calls"] + m["continuation.jacobian.calls"]
    m["continuation.evals_per_path"] = evals / m["continuation.track_path.calls"] \
        if track.size else 0.0
    # evaluator self time inside tracking, over tracking time
    in_track = np.isin(parent, np.nonzero(spans("continuation.track_path"))[0]) & has_parent
    evaluator = spans("continuation.PolySystem.evaluate") | spans("continuation.PolySystem.jacobian")
    m["continuation.eval_share"] = float(self_t[evaluator & in_track].sum()) / float(track.sum()) \
        if track.size else 0.0

    status = {"converged": 0, "diverged": 0, "step_underflow": 0, "no_real_solution": 0}
    far = 0
    for st, _, norm in tracer.paths:
        status[st] = status.get(st, 0) + 1
        far += st == "converged" and norm > FAR
    status["converged"] -= tracer.relabelled
    status["no_real_solution"] += tracer.relabelled
    for st, count in status.items():
        m[f"continuation.paths.{st}"] = count / passes
    m["continuation.paths.converged_far"] = far / passes
    eps_total = sum(t for t, _, _, _ in tracer.eps)
    m["continuation.resolved_frac"] = (
        sum(c + d for _, c, d, _ in tracer.eps) / eps_total if eps_total else 0.0)
    m["continuation.witnesses"] = sum(w for *_, w in tracer.eps) / passes
    m["continuation.solve_total_degree.s"] = total("continuation.solve_total_degree")
    m["continuation.epsilon_rigidity_check.self_s"] = outside(
        "continuation.epsilon_rigidity_check", "continuation.solve_total_degree")
    m["continuation.deform_framework.self_s"] = outside(
        "continuation.deform_framework", "continuation.track_path")

    m["symbolic.buchberger.calls"] = calls("symbolic.buchberger")
    m["symbolic.buchberger.ms"] = total("symbolic.buchberger") * 1e3
    m["symbolic.buchberger.basis_size"] = (
        float(np.mean(tracer.basis_sizes)) if tracer.basis_sizes else 0.0)
    m["symbolic.normal_form_reduce.calls"] = calls("symbolic.normal_form_reduce")
    m["symbolic.normal_form_reduce.ms"] = total("symbolic.normal_form_reduce") * 1e3
    m["symbolic.symbolic_minors.ms"] = total("symbolic.symbolic_minors") * 1e3
    m["symbolic.verify_containment.ms"] = total("symbolic.verify_containment") * 1e3
    m["symbolic.RationalPoly.constructed"] = calls("symbolic.RationalPoly.__init__")

    m["rigidity.rigidity_report.ms"] = total("rigidity.rigidity_report") * 1e3
    m["rigidity.nullspace_decomposition.ms"] = total("rigidity.nullspace_decomposition") * 1e3
    m["rigidity.jacobian_at.calls"] = calls("rigidity.jacobian_at")
    m["prestress.prestress_certificate.ms"] = total("prestress.prestress_certificate") * 1e3
    m["prestress.self_stress_basis.ms"] = total("prestress.self_stress_basis") * 1e3
    loads = spans("framework.load_fixture") | spans("framework.load_framework")
    top_loads = loads & ~np.isin(parent, np.nonzero(loads)[0])
    m["framework.load.ms"] = float(dur[top_loads].sum()) / passes * 1e3
    m["cli.render_svg.ms"] = total("cli.render_svg") * 1e3
    m["cli.run_command.self_ms"] = float(self_t[spans("cli.run_command")].sum()) / passes * 1e3

    roots = np.nonzero(spans("cli.run_command"))[0]
    for sub in SUBCOMMANDS:
        ids = [k for k, s in enumerate(cmd_subs) if s == sub]
        mask = np.isin(a["cmd"][roots], ids)
        m[f"cli.{sub}.ms"] = float(dur[roots][mask].sum()) / passes * 1e3

    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_ms"] = float(self_t[span_layer == k].sum()) / passes * 1e3
    m["trace.pass_ms"] = traced_pass_s * 1e3
    m["trace.self_cover_frac"] = float(self_t.sum()) / passes / traced_pass_s
    m["trace.spans_per_pass"] = dur.size / passes
    return m
