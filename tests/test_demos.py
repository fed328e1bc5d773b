"""Every demo script runs to completion against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# demo 05 repeats the finite-difference gradcheck of acceptance criterion 3
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py")
               if path.name != "05_gradient_verification.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=600)
    assert result.returncode == 0, result.stderr


def test_desk_run_ini_loads():
    """The shipped example config stays within the accepted keys."""
    from cscoref.pipeline import load_run_config

    config = load_run_config(ROOT / "demos" / "desk_run.ini")
    assert config.train.mode == "intra"
    assert set(config.commonsense.fixtures) == {"train", "dev", "test"}
    assert config.eval_options.unit == "topic"
