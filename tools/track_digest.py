"""Write a digest of every path-tracking result of a fixed set of commands.

    python3 tools/track_digest.py OUT_FILE

Runs the subcommands below through `tensegrity.cli.run_command`, from the
sources of the checkout this file sits in, and records every `TrackResult`
that `continuation.track_paths` returns while they run.  OUT_FILE gets one
line per command (its arguments and exit code) and, under it, one line per
result: its index, status, step count, the `repr` of its residual and of
its largest imaginary part, the sha256 of its endpoint's bytes, and its work
counters, Newton updates and rejected steps.  An `epscheck` command also
gets a line for its harvest: the number of endpoints polished on the real
system, the number whose polish residual is at most 1e-10, and the number
and the sha256 of the bytes of the witnesses in its report.  Run it in two
checkouts and compare with `diff`: an empty diff means the two trackers
agree bit for bit on every path of the set and do the same work on it, and
the two ε-checks polish and accept the same number of endpoints and report
the same witnesses bit for bit.  That is the check for a pure refactor,
which must not move a bit nor add an update.  Run it on one
core and on all of them and compare with `cmp`: the counters of paths
tracked in forked processes come back over their pipes, so this covers
those too.  A change to the numerics of the tracker moves the last bits of
most paths; compare its reports with `tools/compare_reports.py` instead.

The exact layer is digested too, after the paths.  Every Groebner basis
that `symbolic.buchberger` returns gets a line with its order, its three
counters (pairs processed, pairs skipped, peak basis size) and the text of
its generators, and every `verify_containment` that the CLI runs gets a
line with the text of its remainders, in order.  Exact arithmetic has no
last bits to move, so any change there shows as a difference.

A `deform` command also gets a line per step of its walk: its status, the
`repr` of its residual and member residual, and the sha256 of its point's
bytes.  A step that ends `settle_failed` tracks no path, so this line is
its only record.

- `epscheck` on triangle and hinge, at seeds 0 and 5;
- `deform --steps 3` on 3prism, square and hinge, and on the strained
  square of `tools/write_reports.py`, whose walk ends `settle_failed`;
- `solve` on the three systems of `tools/write_reports.py`;
- `solve` on `seed34_system1`, `seed45_system2` and `seed102_system8` of
  `tests/test_root_count.py`, each at its own seed: dense systems in three
  and four variables, with a path to infinity and two tracking jumps;
- `verify-ideals`;
- `buchberger` on the slingshot's seven member constraints in lex order
  (496 S-pairs, 15 generators) and in degrevlex order (253 S-pairs, 8
  generators), called directly: unlike every basis of `verify-ideals`,
  each of them grows past its generators before the final reduction;
- the 3-prism's twist family of `tests/test_ideals.py`: the determinant of
  its 9x9 block and that determinant's normal form modulo q^2 - 3 and
  c^2 + s^2 - 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from tensegrity import cli, continuation, symbolic  # noqa: E402
from tensegrity.cli import run_command  # noqa: E402
from tensegrity.ideals import slingshot_member_constraints  # noqa: E402
from test_ideals import twist_normal_form  # noqa: E402
from test_root_count import SYSTEMS as ROOT_COUNT_SYSTEMS  # noqa: E402
from write_reports import SEED, STRAINED_SQUARE, SYSTEMS  # noqa: E402

#: systems of tests/test_root_count.py solved at their own seeds
DENSE = ("seed34_system1", "seed45_system2", "seed102_system8")


def inputs() -> dict:
    """The input documents by file stem."""
    docs = dict(SYSTEMS, strained_square=STRAINED_SQUARE)
    for name in DENSE:
        variables, equations, _, _ = ROOT_COUNT_SYSTEMS[name]
        docs[name] = {"variables": variables, "equations": equations}
    return docs


def commands(input_dir: Path) -> list:
    out = [["epscheck", fx, "--seed", seed]
           for seed in ("0", "5") for fx in ("triangle", "hinge")]
    out += [["deform", fx, "--steps", "3", "--seed", SEED]
            for fx in ("3prism", "square", "hinge", str(input_dir / "strained_square.json"))]
    out += [["solve", str(input_dir / f"{name}.json"), "--seed", SEED]
            for name in SYSTEMS]
    out += [["solve", str(input_dir / f"{name}.json"), "--seed",
             str(ROOT_COUNT_SYSTEMS[name][2])] for name in DENSE]
    out.append(["verify-ideals"])
    return out


def basis_line(basis) -> str:
    return (f"  basis {basis.order} {basis.pairs_processed} "
            f"{basis.pairs_skipped} {basis.peak_basis_size}: "
            + "; ".join(map(str, basis.generators)))


def step_line(k: int, step) -> str:
    point = hashlib.sha256(step.point.tobytes()).hexdigest()
    return (f"  step {k} {step.result.status} {step.result.residual!r} "
            f"{step.member_residual!r} {point}")


def digest(result) -> str:
    endpoint = hashlib.sha256(result.endpoint.tobytes()).hexdigest()
    return (f"{result.status} {result.steps} {result.residual!r} "
            f"{result.max_imag!r} {endpoint} {result.newton_updates} "
            f"{result.rejected_steps}")


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/track_digest.py OUT_FILE", file=sys.stderr)
        return 2
    captured = []
    harvest = []  # per polish call: endpoints polished, residuals at most 1e-10
    checks = []  # per ε-check: its witnesses
    walks = []  # per deformation walk: its steps
    bases = []  # every Groebner basis, in the order they are computed
    containments = []  # every containment report of the CLI
    real = continuation.track_paths
    real_polish = continuation._polish_real
    real_check = cli.epsilon_rigidity_check
    real_deform = cli.deform_framework
    real_buchberger = symbolic.buchberger
    real_containment = cli.verify_containment

    def capture(*args, **kwargs):
        results = real(*args, **kwargs)
        captured.extend(results)
        return results

    def polish(target, x):
        # one endpoint (N,) or a batch (A, N) of them, and a residual for each
        polished, residual = real_polish(target, x)
        harvest.append((len(np.atleast_2d(x)),
                        int(np.count_nonzero(np.asarray(residual) <= 1e-10))))
        return polished, residual

    def check(*args, **kwargs):
        result = real_check(*args, **kwargs)
        checks.append(result.witnesses)
        return result

    def deform(*args, **kwargs):
        steps = real_deform(*args, **kwargs)
        walks.append(steps)
        return steps

    def buchberger(*args, **kwargs):
        basis = real_buchberger(*args, **kwargs)
        bases.append(basis)
        return basis

    def containment(*args, **kwargs):
        report = real_containment(*args, **kwargs)
        containments.append(report)
        return report

    lines = []
    continuation.track_paths = capture
    continuation._polish_real = polish
    cli.epsilon_rigidity_check = check
    cli.deform_framework = deform
    symbolic.buchberger = buchberger
    cli.verify_containment = containment
    try:
        with tempfile.TemporaryDirectory() as tmp:
            input_dir = Path(tmp)
            for name, doc in inputs().items():
                (input_dir / f"{name}.json").write_text(json.dumps(doc))
            for cmd in commands(input_dir):
                captured.clear()
                harvest.clear()
                checks.clear()
                walks.clear()
                bases.clear()
                containments.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = run_command(cmd + ["--out", str(input_dir / "out")])
                # the input directory changes from run to run
                shown = [Path(a).name if a.startswith(tmp) else a for a in cmd]
                lines.append(f"{' '.join(shown)}: exit {code}, {len(captured)} paths")
                lines += [f"  {k} {digest(r)}" for k, r in enumerate(captured)]
                for witnesses in checks:
                    coords = np.array([w.coords for w in witnesses], dtype=float)
                    lines.append(
                        f"  harvest: {sum(h[0] for h in harvest)} polished, "
                        f"{sum(h[1] for h in harvest)} accepted, "
                        f"{len(witnesses)} witnesses "
                        f"{hashlib.sha256(coords.tobytes()).hexdigest()}")
                lines += [step_line(k, step) for steps in walks
                          for k, step in enumerate(steps)]
                lines += map(basis_line, bases)
                lines += ["  remainders: " + " | ".join(map(str, report.remainders))
                          for report in containments]
    finally:
        continuation.track_paths = real
        continuation._polish_real = real_polish
        cli.epsilon_rigidity_check = real_check
        cli.deform_framework = real_deform
        symbolic.buchberger = real_buchberger
        cli.verify_containment = real_containment
    for order in ("lex", "degrevlex"):
        lines.append(f"buchberger on the slingshot member constraints, {order}:")
        lines.append(basis_line(symbolic.buchberger(slingshot_member_constraints(), order)))
    det, normal_form = twist_normal_form()
    lines.append("the 3-prism's twist family:")
    lines.append(f"  determinant: {det}")
    lines.append(f"  normal form: {normal_form}")
    Path(argv[0]).write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
