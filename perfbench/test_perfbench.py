"""Tests of the benchmark itself: its checks catch corrupted reports, and
traced runs repeat their exact counts.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import INCOMPLETE, WRONG  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.REPO / "src"))
    import tensegrity.cli as cli
    return cli


def _command(commands, sub, stem):
    return next(k for k, c in enumerate(commands)
                if c.sub == sub and c.report.startswith(stem))


def _run_once(cli, commands, k, work):
    loop = run.Loop(cli, commands, work)
    loop.execute(k)
    return loop, json.loads((work / commands[k].report).read_text())


def test_corrupted_report_counts_as_failure(cli, tmp_path):
    commands = workloads.build("analyze-sweep", 0, tmp_path)
    k = _command(commands, "prestress", "3prism")
    loop, _ = _run_once(cli, commands, k, tmp_path)
    assert (loop.attempted, loop.failed, loop.incomplete) == (1, 0, 0)

    honest = commands[k].check
    commands[k].check = lambda doc, out: honest({**doc, "min_eigenvalue": -1.0}, out)
    loop = run.Loop(cli, commands, tmp_path)
    loop.execute(k)
    assert (loop.attempted, loop.failed, loop.incomplete) == (1, 1, 0)
    assert run._result([loop], {})["correct"] is False


def test_incomplete_report_is_counted_but_not_failed(cli, tmp_path):
    commands = workloads.build("deform-solve", 0, tmp_path)
    k = _command(commands, "solve", "system0")
    commands[k].check = lambda doc, out: [(INCOMPLETE, "path ended step_underflow")]
    loop = run.Loop(cli, commands, tmp_path)
    loop.execute(k)
    assert (loop.attempted, loop.failed, loop.incomplete) == (1, 0, 1)
    assert loop.problems[0]["problems"] == [(INCOMPLETE, "path ended step_underflow")]
    assert run._result([loop], {})["correct"] is True


def test_missing_report_counts_as_failure(cli, tmp_path):
    commands = workloads.build("analyze-sweep", 0, tmp_path)
    k = _command(commands, "analyze", "random00")
    commands[k].report = "nowhere.json"
    loop = run.Loop(cli, commands, tmp_path)
    loop.execute(k)
    assert (loop.failed, loop.incomplete) == (1, 0)


def test_checks_reject_wrong_reports(cli, tmp_path):
    commands = (workloads.build("deform-solve", 4, tmp_path)
                + workloads.build("analyze-sweep", 4, tmp_path))
    for sub, stem, corrupt in [
        ("deform", "hinge", lambda d: d["steps"][0].update(status="step_underflow")),
        ("deform", "square", lambda d: d["steps"][1]["point_re"][3].__setitem__(0, 0.5)),
        ("solve", "system0", lambda d: d["results"][0]["point_re"].__setitem__(0, 3.0)),
        ("analyze", "3prism", lambda d: d.update(corank_at_p=6)),
        ("analyze", "random04", lambda d: d.update(corank_at_p=d["corank_at_p"] + 1)),
        ("flexes", "random02", lambda d: d["flexes"][0].__setitem__(0, 1.0)),
        ("prestress", "random07", lambda d: d["stress"].__setitem__(0, d["stress"][0] + 1)),
    ]:
        k = _command(commands, sub, stem)
        loop, doc = _run_once(cli, commands, k, tmp_path)
        assert loop.failed == 0, loop.problems
        corrupt(doc)
        kinds = {kind for kind, _ in commands[k].check(doc, tmp_path)}
        assert WRONG in kinds, (sub, stem)


def test_solve_check_counts_a_repeated_root_as_missing(cli, tmp_path):
    commands = workloads.build("deform-solve", 4, tmp_path)
    k = _command(commands, "solve", "system1")
    _, doc = _run_once(cli, commands, k, tmp_path)
    doc["results"][1].update(doc["results"][0])
    assert [kind for kind, _ in commands[k].check(doc, tmp_path)] == [INCOMPLETE]
    doc["results"][2]["status"] = "step_underflow"
    assert {kind for kind, _ in commands[k].check(doc, tmp_path)} == {INCOMPLETE}


def test_epscheck_checks_separate_wrong_from_inconclusive():
    triangle, hinge = workloads.build("epscheck", 0, Path("."))
    doc = {"paths_total": 512, "witnesses": [], "verdict": "inconclusive"}
    assert triangle.check(doc, None) == [(INCOMPLETE, "triangle verdict inconclusive")]
    doc["verdict"] = "deformation_found"
    assert triangle.check(doc, None)[0][0] == WRONG
    far = [[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]
    doc = {"paths_total": 512, "witnesses": [far], "verdict": "deformation_found"}
    assert {kind for kind, _ in hinge.check(doc, None)} == {WRONG}


def test_verify_ideals_check_counts_containments():
    (cmd,) = workloads.build("verify-ideals", 0, Path("."))
    rows = [{"contained": True}] * 5
    doc = {"adjacent_minors": {"containment": rows},
           "slingshot": {"containment": [{"contained": True}] * 8,
                         "equation_count": 102, "displayed_minor_found": True}}
    assert cmd.check(doc, None) == []
    doc["slingshot"]["containment"][3] = {"contained": False}
    assert cmd.check(doc, None)[0][0] == WRONG


def _traced_counts(workload, seed):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(argv, cwd=run.REPO, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()
            if k in ("continuation.evaluate.calls", "continuation.jacobian.calls",
                     "continuation.track_path.calls", "symbolic.RationalPoly.constructed",
                     "symbolic.normal_form_reduce.calls", "rigidity.jacobian_at.calls")
            or k.startswith("continuation.paths.")}


@pytest.mark.parametrize("workload", ["deform-solve", "verify-ideals"])
def test_traced_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 7)
    assert first == _traced_counts(workload, 7)
    key = ("continuation.evaluate.calls" if workload == "deform-solve"
           else "symbolic.RationalPoly.constructed")
    assert first[key] > 0
