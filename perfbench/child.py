"""Fresh-interpreter entry points that call gbott for the benchmark.

    child.py setup MANIFEST                 import gbott, load the inputs
    child.py cli   TRACE -- ARGS...         gbott's CLI, traced into TRACE
    child.py sweep MANIFEST OUT TRACE SECONDS OP_TIMEOUT
                                            z_trivial_oracle in whole rounds

gbott is imported from the src/ directory next to this one, never from
an installed copy.  TRACE is "-" for an untraced call.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class OperationTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OperationTimeout


def load_inputs(manifest: dict):
    """What a user of the workload loads before the first call."""
    import gbott

    if manifest["workload"] == "census":
        c = manifest["census"]
        return gbott.EnumerationConfig(c["height"], tuple(c["dims"]), c["bound"])
    if manifest["workload"] == "oracle-sweep":
        c = manifest["census"]
        towers = list(gbott.enumerate_towers(c["height"], tuple(c["dims"]), c["bound"]))
        random.Random(f"sweep:{manifest['seed']}").shuffle(towers)
        return towers
    return [
        (gbott.load_tower(op["source"]), gbott.load_tower(op["target"]))
        for op in manifest["ops"]
    ]


def sweep(towers, manifest: dict, out_path: str, seconds: float, op_timeout: float):
    """Decide every tower with the brute-force oracle, in whole rounds,
    until `seconds` have passed; one call at a time."""
    from gbott import z_trivial_oracle

    bound = manifest["oracle_bound"]
    signal.signal(signal.SIGALRM, _alarm)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        answers, times, cpu = [], [], []
        for t in towers:
            t0, c0 = time.perf_counter(), time.process_time()
            signal.setitimer(signal.ITIMER_REAL, op_timeout)
            try:
                answers.append(z_trivial_oracle(t, bound=bound))
            except OperationTimeout:
                answers.append(None)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
        rounds.append({"answers": answers, "times": times, "cpu": cpu})
    # the towers as (dims, twists), so that the answers can be checked
    specs = [
        ([s.fiber_dim for s in t.stages], [s.coeffs for s in t.stages]) for t in towers
    ]
    with open(out_path, "w") as fh:
        json.dump({"towers": specs, "rounds": rounds}, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        trace_path, rest = argv[1], argv[3:]
        if trace_path != "-":
            import tracing

            tracing.install(trace_path)
        from gbott import cli

        return cli.main(rest)
    manifest = json.loads(Path(argv[1]).read_text())
    if mode == "setup":
        import gbott

        load_inputs(manifest)
        print(gbott.kernel_backend)
        return 0
    if mode == "sweep":
        out_path, trace_path, seconds, op_timeout = argv[2:6]
        towers = load_inputs(manifest)  # untraced: loaded once per run
        if trace_path != "-":
            import tracing

            tracing.install(trace_path)
        sweep(towers, manifest, out_path, float(seconds), float(op_timeout))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
