"""The demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_rigidity_basics.py",
                                  "02_self_stress_and_prestress.py",
                                  "03_homotopy_solving.py",
                                  "04_deforming_the_prism.py",
                                  "05_epsilon_rigidity.py",
                                  "06_exact_verification.py"])
def test_demo_exits_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # tier 1's warning policy: the demos run as subprocesses, which the
    # pytest filters do not reach
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::RuntimeWarning",
                           "-W", "error::ResourceWarning", "-W", "error::DeprecationWarning",
                           "-W", "error::PendingDeprecationWarning", str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
