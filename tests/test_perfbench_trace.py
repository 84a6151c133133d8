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


def _traced_iso(tmp_path, name, target, *args):
    """Counters of a traced `gbott iso` from qtwin_a to `target`, pool
    workers' included."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing

    trace = tmp_path / name
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli", str(trace),
         "--", "iso", str(ROOT / "tests" / "data" / "qtwin_a.tower"),
         str(ROOT / "tests" / "data" / target), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    total = tracing.empty_total()
    tracing.merge(str(trace), total)
    return proc, total


def test_traced_iso_counts_search_layers(tmp_path):
    proc, total = _traced_iso(
        tmp_path, "q.json", "qtwin_b.tower", "--coeff", "q", "--bound", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:3] == ["2 0", "0 1"]
    assert total["calls"]["isosearch.columns"] > 0
    assert total["calls"]["isosearch.rank"] > 0
    # a rational search needs no determinant (full rank implies det != 0);
    # an integral one checks it on every full matrix it reaches, here the
    # identity
    proc, total = _traced_iso(
        tmp_path, "z.json", "qtwin_a.tower", "--coeff", "z", "--bound", "1")
    assert proc.returncode == 0, proc.stderr
    assert total["calls"]["isosearch.det"] > 0


def test_setup_probe_prints_the_kernel(tmp_path):
    """The benchmark's set-up probe imports gbott, loads a workload's
    inputs and prints `gbott.kernel_backend`."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    manifest = tmp_path / "census.json"
    manifest.write_text(json.dumps(workloads.build("census", 1)))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup", str(manifest)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "py\n"
