"""Smoke test of the benchmark: every workload and output check at tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def test_smoke_runs_every_workload_and_check():
    done = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    assert len(lines) == 3
    declared = [(m["name"], m["unit"]) for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    for line in lines:
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
        assert [(name, m["unit"]) for name, m in line["metrics"].items()] == declared
        assert line["metrics"]["setup.import_s"]["value"] > 0.0
    scan, simulate, predict = (line["metrics"] for line in lines)
    assert scan["dynamics.propagate_exact.calls"]["value"] == 9
    assert scan["analysis.scan_cell.ms_p50"]["value"] > 0.0
    assert simulate["cli.bytes_out"]["value"] > 0
    assert predict["dynamics.propagate_exact.calls"]["value"] == 0
    assert predict["transfer_matrix.quad.calls"]["value"] > 0
