"""The README walkthroughs in ``demos/`` still run against the current API.

Each demo runs as its own subprocess, with ``src`` on the import path, and must
exit 0. ``05_long_range_dependencies.py`` is left out: it trains several
models and takes minutes, against a few seconds for 01-04 together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_tensors_and_gradients.py", "02_building_blocks.py",
         "03_synthetic_benchmark.py", "04_train_and_evaluate.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
