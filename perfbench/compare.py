#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and say whether they
agree within the bounds in BENCHMARK.json.

    python3 perfbench/compare.py

Every run lasts BENCHMARK.json's run_seconds.  Set A uses seeds 1..10
and set B seeds 11..20; their runs alternate.  For every workload and
end-to-end metric it prints both medians and each set's spread, the
distance between the first and third quartiles as a share of the
median.  The sets agree when every spread is within the metric's bound,
the medians of A and B differ by no more than the bound (as a share of
A's), every run is correct, and both sets fail the same share of
operations.  Exit code 0 means they agree.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    agree = True
    report = {}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(RUNS):
            for name, offset in (("A", 1), ("B", 1 + RUNS)):
                sets[name].append(run_once(workload, offset + i, bench["run_seconds"]))
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                  for k, v in sets.items()}
        correct = all(r["correct"] for v in sets.values() for r in v)
        print(f"{workload}: correct={correct} failed share A={shares['A']:.4g} B={shares['B']:.4g}")
        agree &= correct and shares["A"] == shares["B"]
        rows = report[workload] = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {k: [r["metrics"][name]["value"] for r in v] for k, v in sets.items()}
            med = {k: statistics.median(v) for k, v in values.items()}
            spr = {k: spread(v) for k, v in values.items()}
            diff = (med["B"] - med["A"]) / med["A"]
            ok = abs(diff) <= bound and max(spr.values()) <= bound
            agree &= ok
            pooled = spread(values["A"] + values["B"])
            rows[name] = {"values": values, "median": med, "spread": spr,
                          "pooled_spread": pooled, "diff": diff, "bound": bound, "ok": ok}
            print(f"  {name:14s} median A {med['A']:.5g} B {med['B']:.5g} "
                  f"{metric['unit']:9s} spread A {spr['A']:.3f} B {spr['B']:.3f} "
                  f"all {pooled:.3f}; B - A {diff:+.3f}; bound {bound} "
                  f"{'ok' if ok else 'DISAGREE'}")
    out = ROOT / ".perfbench_out" / "compare.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print("agree" if agree else "disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
