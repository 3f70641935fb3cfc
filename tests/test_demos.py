"""The quick demos run to completion in a fresh interpreter.

Demo 01 is the only one that checkpoints and restores a detector.  Demo
02 runs 400 replications in lockstep batches, about 2.5 seconds.  Demo 03
takes several seconds and stays a manual check.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_monitor_streams", "02_replication_study",
                                  "04_joint_change_detection", "05_exact_optimality_checks"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
