import copy
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_reports", Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)

REPORTS = {
    "triangle_epscheck.json": {"epsilon": 0.1, "input": "triangle",
                               "paths_converged": 221, "paths_total": 512,
                               "verdict": "deformation_found",
                               "witnesses": [[[0.0, 0.0], [1.0000000000000064, 0.0],
                                              [0.5, 0.8660254037844386]]]},
    "seed1/cubic_solve.json": {"paths": 1,
                               "results": [{"point_re": [3.0], "point_im": [0.0],
                                            "residual": 4.4e-16, "status": "converged",
                                            "steps": 24}]},
}


def _write(root: Path, reports: dict) -> Path:
    for name, doc in reports.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(json.dumps(doc))
    return root


def _run(tmp_path, edit, capsys) -> tuple:
    """Exit code and output of comparing REPORTS with an edited copy."""
    changed = copy.deepcopy(REPORTS)
    edit(changed)
    a = _write(tmp_path / "a", REPORTS)
    b = _write(tmp_path / "b", changed)
    (a / "triangle_epscheck.svg").write_text("<svg/>")
    (b / "triangle_epscheck.svg").write_text("<svg>other</svg>")
    code = compare_reports.main([str(a), str(b)])
    return code, capsys.readouterr().out


def _perturb(reports):
    reports["triangle_epscheck.json"]["witnesses"][0][1][0] *= 1 + 1e-12
    reports["seed1/cubic_solve.json"]["results"][0]["residual"] *= 1 + 1e-12


def test_a_rounding_perturbation_passes(tmp_path, capsys):
    code, out = _run(tmp_path, _perturb, capsys)
    assert code == 0 and "0 failing differences, 0 integer changes" in out


def test_a_changed_path_count_passes_and_is_printed(tmp_path, capsys):
    def edit(reports):
        reports["triangle_epscheck.json"]["paths_converged"] = 220
    code, out = _run(tmp_path, edit, capsys)
    assert code == 0
    assert "changed: triangle_epscheck.json.paths_converged: 221 -> 220" in out


@pytest.mark.parametrize("what", ["verdict", "status", "float", "witness_count",
                                  "missing_file", "extra_key"])
def test_a_real_difference_fails(what, tmp_path, capsys):
    def edit(reports):
        eps, cubic = reports["triangle_epscheck.json"], reports["seed1/cubic_solve.json"]
        if what == "verdict":
            eps["verdict"] = "inconclusive"
        elif what == "status":
            cubic["results"][0]["status"] = "step_underflow"
        elif what == "float":
            cubic["results"][0]["point_re"][0] += 1e-6
        elif what == "witness_count":
            eps["witnesses"].append(eps["witnesses"][0])
        elif what == "missing_file":
            del reports["seed1/cubic_solve.json"]
        else:
            eps["paths_diverged"] = 0
    code, out = _run(tmp_path, edit, capsys)
    assert code == 1 and "FAIL: " in out
