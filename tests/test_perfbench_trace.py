"""The benchmark's per-layer tracing still installs on gbott.

perfbench/tracing.py wraps gbott functions by name; if one is renamed or
removed, installing the tracer fails.  This runs the benchmark's own
traced CLI entry point on a tiny census, so such a break shows here
rather than only when the benchmark runs.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_enumerate_counts_stage_checks(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli", str(trace),
         "--", "enumerate", "--height", "3", "--dims", "1", "--bound", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# towers: 27 emitted: 27" in proc.stdout
    counters = json.loads(trace.read_text())
    assert counters["counts"]["towers_generated"] == 27
    assert counters["calls"]["triviality.stage_check"] > 0
    assert counters["calls"]["cli.main"] == 1
