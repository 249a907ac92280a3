"""The demos run end to end as scripts. Demo 02 is left out: it only drives
run_training, which the runtime and acceptance tests already cover, and
takes several times as long as the other three together."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_cost_model", "03_quantization_and_cache",
                                  "04_diagnostics_bound"])
def test_demo_exits_0(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
