"""The example scripts run end to end at toy scale."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import folkclass

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv,header", [
    (["run_size_sweep.py", "--resources", "40", "--sizes", "8", "--runs", "1",
      "--epochs", "2"],
     "representation        8"),
    (["run_regime_comparison.py", "--seeds", "1", "--users", "10", "--resources", "5",
      "--pool", "20"],
     "regime               novelty  tags/user  tags/resource"),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_script_exits_cleanly_with_its_header(argv, header):
    src = Path(folkclass.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
