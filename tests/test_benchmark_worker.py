import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["closed-rate", "simulation"])
def test_benchmark_worker_runs_one_clean_round(workload, tmp_path):
    # the benchmark's worker calls the library directly; a refactor that
    # breaks one of those calls would only show as failed operations there
    out = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "worker.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0",
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["rounds"] and result["ids"]
    errors = [(op, o["error"]) for rnd in result["rounds"]
              for op, o in zip(result["ids"], rnd["outputs"], strict=True)
              if "error" in o]
    assert not errors
