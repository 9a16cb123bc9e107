"""Write a fixed set of CLI reports into one directory.

    python3 tools/write_reports.py OUT_DIR

Runs the subcommands below through `tensegrity.cli.run_command`, from the
sources of the checkout this file sits in, each writing into OUT_DIR.  Run
it in two checkouts and compare with `diff -r OUT_A OUT_B`: reports are
byte-stable for a fixed seed and input, whatever the core count, so an
empty diff means the two checkouts agree on every report in the set.
`tools/compare_reports.py OUT_A OUT_B` compares them within a tolerance.

- `analyze --svg`, `flexes --svg`, `prestress` and `plot --svg` on all six
  fixtures;
- `deform --steps 3 --svg` on 3prism, square and hinge;
- `deform --steps 3` on a strained square: square with member (1, 2)'s
  rest squared length 4 instead of 1, so the anchor cannot settle onto the
  first push's start system and the walk ends `settle_failed` at step 1;
- `solve --svg` on a cubic, on a system with fractional coefficients, and
  on a 75-path system whose recorded solve refills the lockstep batch;
- `prestress` and `plot --svg` on five collinear nodes in 3-space, all
  pairs joined: 6 self stresses and 6 flexes, so the k >= 2 convex solve
  runs and the plot draws 6 arrow fields in an isometric view;
- `prestress` and `plot --svg` on a planar K5 with a pendant node: its 3
  self stresses live on the K5 and its one flex swings the pendant node, so
  no stress reaches the flex and the solve is skipped;
- `prestress` and `plot --svg` on a mixed-kind tensegrity: a convex
  quadrilateral with cable sides and strut diagonals, whose one self
  stress signs them properly, and a pendant node hung by a cable, which
  carries no stress, so the sign report lists it as a zero member and a
  violation;
- `epscheck` on triangle and hinge, and on triangle again at seed 1,
  whose verdict is `inconclusive` (most of its paths end
  `step_underflow`), written into OUT_DIR/seed1;
- `verify-ideals`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tensegrity.cli import run_command  # noqa: E402
from tensegrity.framework import FIXTURE_NAMES  # noqa: E402

SEED = "5"

SYSTEMS = {
    "cubic": {"variables": ["x"],
              "equations": ["x^3 - 7*x^2 + 17*x - 15"]},
    "fractional": {"variables": ["x", "y"],
                   "equations": ["x^2 + 1/3*y^2 - 2", "x*y - 1/2*x + 3/4"]},
    "quintic": {"variables": ["x", "y", "z"],
                "equations": ["x^5 - 2*x*y + 1/3*z^2 - 1",
                              "y^5 + 3/2*x*z - y + 2",
                              "z^3 - x*y*z + 1/5*x - 3/4"]},
}

FRAMEWORKS = {
    "collinear5": {"dimension": 3,
                   "nodes": [[x, 0.0, 0.0] for x in (0.0, 1.0, 2.5, 4.0, 4.75)],
                   "members": [{"i": i, "j": j}
                               for i in range(1, 6) for j in range(i + 1, 6)]},
    "k5pendant": {"dimension": 2,
                  "nodes": [[0.0, 0.0], [1.0, 0.1], [1.3, 0.9], [0.4, 1.4],
                            [-0.3, 0.8], [2.2, 0.3]],
                  "members": [{"i": i, "j": j}
                              for i in range(1, 6) for j in range(i + 1, 6)]
                             + [{"i": 2, "j": 6}]},
    "quadpendant": {"dimension": 2,
                    "nodes": [[0.0, 0.0], [1.0, 0.0], [1.1, 0.9], [0.1, 1.2],
                              [2.0, 0.4]],
                    "members": [{"i": i, "j": j,
                                 "kind": "strut" if j - i == 2 else "cable"}
                                for i in range(1, 5) for j in range(i + 1, 5)]
                               + [{"i": 2, "j": 5, "kind": "cable"}]},
}

#: square with a rest squared length on every member, member (1, 2)'s x4
STRAINED_SQUARE = {"dimension": 2,
                   "nodes": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                   "members": [{"i": i, "j": j, "rest_sq_length": rest} for i, j, rest
                               in [(1, 2, 4.0), (1, 4, 1.0), (2, 3, 1.0), (3, 4, 1.0)]]}


#: commands run at their own seed, each with its own output subdirectory
#: because a report's name carries only its input and subcommand
OTHER_SEEDS = [(["epscheck", "triangle"], "1")]


def commands(input_dir: Path) -> list:
    out = []
    for fx in FIXTURE_NAMES:
        out += [["analyze", fx, "--svg"], ["flexes", fx, "--svg"],
                ["prestress", fx], ["plot", fx, "--svg"]]
    for fx in ("3prism", "square", "hinge"):
        out.append(["deform", fx, "--steps", "3", "--svg"])
    out.append(["deform", str(input_dir / "strained_square.json"), "--steps", "3"])
    for name in SYSTEMS:
        out.append(["solve", str(input_dir / f"{name}.json"), "--svg"])
    for name in FRAMEWORKS:
        out += [["prestress", str(input_dir / f"{name}.json")],
                ["plot", str(input_dir / f"{name}.json"), "--svg"]]
    for fx in ("triangle", "hinge"):
        out.append(["epscheck", fx])
    out.append(["verify-ideals"])
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/write_reports.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        input_dir = Path(tmp)
        for name, doc in {**SYSTEMS, **FRAMEWORKS,
                          "strained_square": STRAINED_SQUARE}.items():
            (input_dir / f"{name}.json").write_text(json.dumps(doc))
        runs = [(cmd, SEED, out_dir) for cmd in commands(input_dir)]
        runs += [(cmd, seed, out_dir / f"seed{seed}") for cmd, seed in OTHER_SEEDS]
        for cmd, seed, out in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_command(cmd + ["--seed", seed, "--out", str(out)])
            if code != 0:
                failed += 1
                print(f"exit {code}: {' '.join(cmd)}", file=sys.stderr)
    print(f"wrote reports to {out_dir} ({failed} commands failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
