#!/usr/bin/env python3
"""Benchmark of gbott: run one workload, check every answer, print metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 15 --trace 0

Workloads (see README.md): census, iso-witness, iso-exhaust,
oracle-sweep.  The load is closed-loop: one gbott call at a time, each
in a fresh interpreter started by this process (oracle-sweep: one
interpreter making the calls back to back).  Whole rounds of the
workload's operations run until --seconds have passed.  Every answer is
then checked by computations made apart from gbott (checks.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a run with tracing.py's wrappers installed.  The last line
of standard output is one JSON object; the line before it, starting
with "#", gives the run's environment and details, which are also
written to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD = str(HERE / "child.py")
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

SETUP_PROBES = 11
OP_TIMEOUT = 60.0  # one gbott call; a hang ends here and counts as failed
RUN_BUDGET = 140.0  # no operation starts, or runs on, past this
CENSUS_SAMPLE = 24  # towers re-decided through sympy per census run


class BenchError(Exception):
    pass


@dataclass
class Proc:
    code: int | None  # None: killed at its timeout
    wall: float
    peak_kb: int  # see peak_rss_kb
    cpu: float  # user + system, reaped pool workers included
    out_path: Path | None = None

    @property
    def out(self) -> str:
        # read when checked, after the timed rounds
        return self.out_path.read_text()

    @property
    def err(self) -> str:
        return self.out_path.with_suffix(".err").read_text()


def _end_group(pgid: int):
    """Kill what is left of a child's process group and wait for it."""
    deadline = time.monotonic() + 5.0
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        sig = 0
        time.sleep(0.01)


def steal_s() -> float:
    """The machine's steal time so far (CPU time its host gave to other
    guests), from /proc/stat; 0 where it is not counted.  Recorded on the
    "#" line only, so that a disturbed run can be recognised."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _vmhwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(c) for c in fh.read().split()]
    except OSError:
        return []


def peak_rss_kb(pid: int, stop: threading.Event, out: list):
    """Largest sum, over samples 20 ms apart, of the peak resident sets
    (VmHWM) of a process and its children (pool workers).  Read from
    /proc rather than from wait4's ru_maxrss: a child started by vfork
    and exec inherits its parent's peak there, so this process would
    set a floor under every figure."""
    peak = 0
    while not stop.wait(0.02):
        peak = max(peak, sum(_vmhwm_kb(p) for p in [pid] + _children(pid)))
    out.append(peak)


def run_process(argv, timeout: float, tag: str, work: Path) -> Proc:
    """Run argv in its own session with a hard timeout."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    killed, peak = [], []

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=ENV, cwd=ROOT, start_new_session=True
        )

        def kill():
            killed.append(True)
            _end_group(proc.pid)

        timer = threading.Timer(max(timeout, 0.001), kill)
        timer.start()
        stop = threading.Event()
        monitor = threading.Thread(target=peak_rss_kb, args=(proc.pid, stop, peak))
        monitor.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            stop.set()
            monitor.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _end_group(proc.pid)
    return Proc(
        code=None if killed else proc.returncode,
        wall=wall,
        peak_kb=peak[0],
        cpu=usage.ru_utime + usage.ru_stime,
        out_path=out_path,
    )


class Run:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET
        self.start = None  # of the timed rounds, after set-up
        self.nproc = len(os.sched_getaffinity(0))
        self.workers = min(2, self.nproc)
        self.rounds: list[list] = []  # per round, per operation: Proc | None
        self.errors: list[str] = []
        self.trace_total = tracing.empty_total()

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def more_rounds(self) -> bool:
        if self.start is None:
            self.start = time.perf_counter()
        return not self.rounds or (
            time.perf_counter() - self.start < self.args.seconds and self.time_left() > 0
        )

    def merge_trace(self, path: Path):
        if path.exists():
            tracing.merge(str(path), self.trace_total)

    def cli(self, cli_args: list[str], tag: str) -> Proc | None:
        """One gbott CLI call; None if the run's budget is spent."""
        left = self.time_left()
        if left <= 0:
            return None
        if self.args.trace:
            trace_path = self.work / f"{tag}.trace"
            argv = [PY, CHILD, "cli", str(trace_path), "--", *cli_args]
        else:
            argv = [PY, "-m", "gbott.cli", *cli_args]
        proc = run_process(argv, min(OP_TIMEOUT, left), tag, self.work)
        if self.args.trace:
            self.merge_trace(trace_path)
        return proc


# -- workloads ---------------------------------------------------------------


def census_args(c: dict) -> list[str]:
    return ["enumerate", "--height", str(c["height"]),
            "--dims", ",".join(map(str, c["dims"])), "--bound", str(c["bound"])]


def run_census(run: Run, manifest: dict):
    c = manifest["census"]
    while run.more_rounds():
        run.rounds.append([run.cli(census_args(c), f"census{len(run.rounds)}")])


def check_census(run: Run, manifest: dict) -> int:
    """Check every round's census; returns the towers per census."""
    c = manifest["census"]
    size = checks.census_size(c["height"], c["dims"], c["bound"])
    sample_rng = random.Random(f"census-sample:{run.args.seed}")
    for r, (proc,) in enumerate(run.rounds):
        if proc is None or proc.code != 0:
            continue
        errors = census_errors(proc.out, c, size, sample_rng if r == 0 else None)
        run.errors += [f"census round {r}: {e}" for e in errors]
    return size


def census_errors(text: str, c: dict, size: int, sample_rng) -> list[str]:
    errors = []
    lines = text.splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    summary = [line for line in lines if line.startswith("#")]
    if len(rows) != size:
        errors.append(f"{len(rows)} towers, closed form says {size}")
    if len(set(rows)) != len(rows):
        errors.append("repeated matrix lines")
    hist: dict[str, int] = {}
    by_q = {0: [], 1: []}
    for line in rows:
        body, _, flag_text = line.partition("  ")
        try:
            flags = dict(f.split("=") for f in flag_text.split())
            q, z, chern = (int(flags[k]) for k in ("q", "z", "chern"))
            dims, twists = checks.parse_matrix_line(body)
        except (ValueError, KeyError):
            errors.append(f"unreadable line: {line}")
            continue
        key = f"q={q} z={z} chern={chern}"
        hist[key] = hist.get(key, 0) + 1
        in_space = (
            len(dims) == c["height"]
            and set(dims) <= set(c["dims"])
            and all(abs(a) <= c["bound"] for rows_ in twists for row in rows_ for a in row)
        )
        if not in_space:
            errors.append(f"tower outside the census space: {body}")
        if (z or chern) and not q:
            errors.append(f"z or chern without q: {line}")
        if z != (q and checks.divisibility(dims, twists)):
            errors.append(f"z disagrees with q and divisibility of c_1: {line}")
        if q and not checks.wide_twist_free(dims, twists):
            errors.append(f"q=1 tower twisted over a wide stage: {line}")
        by_q[q].append((dims, twists))
    expected_summary = [f"# towers: {size} emitted: {size}"] + [
        f"# {key}: {hist[key]}" for key in sorted(hist, reverse=True)
    ]
    if summary != expected_summary:
        errors.append(f"summary lines {summary} do not match the towers")
    if sample_rng is not None:
        half = CENSUS_SAMPLE // 2
        sample = [(1, t) for t in sample_rng.sample(by_q[1], min(half, len(by_q[1])))]
        sample += [(0, t) for t in sample_rng.sample(by_q[0], min(half, len(by_q[0])))]
        for q, t in sample:
            if checks.classify(*t)[0] != bool(q):
                errors.append(f"q={q} but the sympy criterion disagrees: {t}")
    return errors[:20]


def iso_args(op: dict, workers: int) -> list[str]:
    mode = ["--sequential"] if op["witness"] else ["--workers", str(workers)]
    return ["iso", op["source"], op["target"], "--coeff", op["coeff"],
            "--bound", str(op["bound"]), *mode]


def run_iso(run: Run, manifest: dict):
    ops = manifest["ops"]
    while run.more_rounds():
        r = len(run.rounds)
        run.rounds.append(
            [run.cli(iso_args(op, run.workers), f"iso{r}-{i}") for i, op in enumerate(ops)]
        )


def check_iso(run: Run, manifest: dict):
    for op in manifest["ops"]:
        error = workloads.pair_error(op)
        if error:
            run.errors.append(f"input pair {op['source']} -> {op['target']}: {error}")
    verified = {}
    for r, results in enumerate(run.rounds):
        for op, proc in zip(manifest["ops"], results):
            if proc is None or proc.code not in (0, 1):
                continue
            key = (op["source"], op["target"], proc.out)
            if key not in verified:
                verified[key] = iso_error(op, proc)
            if verified[key]:
                run.errors.append(f"iso round {r}, {op['source']}: {verified[key]}")


def iso_error(op: dict, proc: Proc) -> str | None:
    lines = proc.out.splitlines()
    if not op["witness"]:
        # the criterion rules out an isomorphism at every bound
        if proc.code == 1 and lines == [f"none within bound {op['bound']}"]:
            return None
        return f"expected exhaustion, got exit {proc.code}: {lines[:3]}"
    if proc.code != 0 or not lines or not lines[0].startswith("witness"):
        return f"expected a witness within bound {op['bound']}, got exit {proc.code}: {lines[:3]}"
    h = len(op["source_tower"][0])
    try:
        matrix = [[int(x) for x in line.split()] for line in lines[1:1 + h]]
    except ValueError:
        return f"unreadable witness: {lines[1:1 + h]}"
    residues = lines[1 + h:]
    if residues != [f"residue of relation {i}: 0" for i in range(1, h + 1)]:
        return f"residue lines {residues}"
    if any(abs(a) > op["bound"] for row in matrix for a in row):
        return f"witness entries exceed bound {op['bound']}"
    return checks.verify_witness(
        matrix, op["source_tower"], op["target_tower"], op["coeff"] == "z"
    )


def run_sweep(run: Run, manifest: dict, manifest_path: Path):
    out_path = run.work / "sweep.json"
    trace_path = run.work / "sweep.trace"
    argv = [PY, CHILD, "sweep", str(manifest_path), str(out_path),
            str(trace_path) if run.args.trace else "-",
            str(run.args.seconds), str(OP_TIMEOUT)]
    proc = run_process(argv, run.time_left(), "sweep", run.work)
    if proc.code != 0 or not out_path.exists():
        raise BenchError(f"sweep process ended with {proc.code}: {proc.err[-500:]}")
    if run.args.trace:
        run.merge_trace(trace_path)
    out = json.loads(out_path.read_text())
    # an answer rides in Proc.code: 1 for True, 0 for False
    for rnd in out["rounds"]:
        run.rounds.append([
            None if a is None else Proc(int(a), w, proc.peak_kb, c)
            for a, w, c in zip(rnd["answers"], rnd["times"], rnd["cpu"])
        ])
    return [(tuple(dims), tuple(tuple(map(tuple, rows)) for rows in twists))
            for dims, twists in out["towers"]]


def check_sweep(run: Run, manifest: dict, towers: list):
    """The towers gbott enumerated must be the whole space, once each;
    every answer must equal the paper's criterion."""
    c = manifest["census"]
    size = checks.census_size(c["height"], c["dims"], c["bound"])
    in_space = all(
        len(dims) == c["height"] and set(dims) <= set(c["dims"])
        and all(len(rows) == n for n, rows in zip(dims, twists))
        and all(len(row) == i and all(abs(a) <= c["bound"] for a in row)
                for i, rows in enumerate(twists) for row in rows)
        for dims, twists in towers
    )
    if len(towers) != size or len(set(towers)) != size or not in_space:
        run.errors.append(f"oracle towers: {len(towers)}, {len(set(towers))} distinct, "
                          f"all in the space: {in_space}; closed form says {size}")
    expected = [checks.classify(*t)[1] for t in towers]
    for r, results in enumerate(run.rounds):
        for t, want, proc in zip(towers, expected, results):
            if proc is not None and bool(proc.code) != want:
                run.errors.append(f"oracle round {r}: {t} answered {bool(proc.code)}, criterion {want}")


# -- driver ------------------------------------------------------------------


def measure_setup(run: Run, manifest_path: Path) -> tuple[float, str]:
    """Median time of fresh interpreters that import gbott and load the
    workload's inputs."""
    times, backend = [], ""
    for i in range(SETUP_PROBES):
        proc = run_process([PY, CHILD, "setup", str(manifest_path)],
                           min(OP_TIMEOUT, run.time_left()), f"setup{i}", run.work)
        if proc.code != 0:
            raise BenchError(f"setup failed: {proc.err.strip()[-500:]}")
        times.append(proc.wall)
        backend = proc.out.strip()
    return statistics.median(times), backend


def write_inputs(manifest: dict, work: Path) -> Path:
    for i, op in enumerate(manifest.get("ops", [])):
        for side in ("source", "target"):
            path = work / f"pair{i}-{side}.tower"
            path.write_text(workloads.serialize(op[f"{side}_tower"]))
            op[side] = str(path)
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def measure(args) -> dict:
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, work: Path) -> dict:
    run = Run(args, work)
    manifest = workloads.build(args.workload, args.seed)
    manifest_path = write_inputs(manifest, work)
    setup_s, backend = measure_setup(run, manifest_path)

    steal0 = steal_s()
    if args.workload == "census":
        run_census(run, manifest)
    elif args.workload == "oracle-sweep":
        towers = run_sweep(run, manifest, manifest_path)
    else:
        run_iso(run, manifest)
    stolen = steal_s() - steal0

    if args.workload == "census":
        towers_per_op = [check_census(run, manifest)]
    elif args.workload == "oracle-sweep":
        check_sweep(run, manifest, towers)
        towers_per_op = [1] * len(towers)
    else:
        check_iso(run, manifest)
        towers_per_op = [1] * len(manifest["ops"])

    attempted = sum(len(r) for r in run.rounds)
    answers = (0,) if args.workload == "census" else (0, 1)

    def ok(p):
        return p is not None and p.code in answers

    failed = sum(not ok(p) for r in run.rounds for p in r)
    done, round_s = 0, []
    for results in run.rounds:
        finished = [(n, p) for n, p in zip(towers_per_op, results) if ok(p)]
        done += sum(n for n, _ in finished)
        round_s.append(sum(p.wall for _, p in finished))
    if not done:
        raise BenchError("no operation completed")
    procs = [p for r in run.rounds for p in r if p is not None]
    peak_kb = max(p.peak_kb for p in procs)
    details = {"rounds": len(run.rounds), "round_s": round_s,
               "round_cpu_s": [sum(p.cpu for p in r if ok(p)) for r in run.rounds],
               "steal_s": stolen}
    if args.workload.startswith("iso"):
        details["mode"] = "sequential" if args.workload == "iso-witness" else f"--workers {run.workers}"
        details["op_s"] = [
            statistics.median(p.wall for p in col if ok(p)) if any(map(ok, col)) else None
            for col in zip(*run.rounds)
        ]
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "towers_per_s": {"value": done / sum(round_s), "unit": "towers/s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }
    if args.trace:
        metrics = tracing.per_layer(run.trace_total, len(run.rounds))
        details["traced_end_to_end"] = {k: v["value"] for k, v in end_to_end.items()}
    else:
        metrics = end_to_end
    for err in run.errors[:10]:
        print(f"check failed: {err}", file=sys.stderr)
    env = {
        "kernel_backend": backend,
        "python": platform.python_version(),
        "nproc": run.nproc,
    }
    return {
        "info": {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "seconds": args.seconds, "env": env, "details": details},
        "result": {"correct": not run.errors, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gbott" / "__init__.py").is_file():
        print(f"error: no gbott sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1))
    print("# " + json.dumps(report["info"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
