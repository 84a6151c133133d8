"""Per-layer counters and timers for gbott, installed from outside it.

`install(path)` replaces, in every loaded gbott module, the functions
and methods through which gbott's layers call each other by wrappers
that count calls and time them; nothing under src/ changes.  Each
wrapper records a span on a stack, so a layer's self time is its
spans' time minus the time of the wrapped calls made inside them.
Times are inclusive (psubst's time contains the pmul calls it makes),
and a function re-entered while it is already on the stack adds its
time only once.

Pool workers are forked from a traced process and inherit the
wrappers.  Each worker starts from zeroed counters and writes them to
`<path>.w<pid>.<n>` after every chunk of work it finishes, before the
chunk's result reaches the parent; the parent process writes `<path>`
at exit.  `merge(path)` adds all of them up.
"""

from __future__ import annotations

import atexit
import functools
import glob
import json
import os
import sys
import time
from collections import defaultdict

SEARCH = "isosearch.columns"


class Tracer:
    def __init__(self):
        self.dumps = 0
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack: list[list] = []
        self.active = defaultdict(int)

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def span(self, name: str, fn, after=None):
        """Wrap fn as span `name` (its layer is the part before the first
        dot); `after(result, parent)` may count outcomes."""
        layer = name.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.parent()
            frame = [name, 0.0]
            tracer.stack.append(frame)
            tracer.active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.active[name] -= 1
                tracer.calls[name] += 1
                if not tracer.active[name]:
                    tracer.seconds[name] += dt
                tracer.self_s[layer] += dt - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += dt
            if after is not None:
                after(result, parent)
            return result

        return wrapper

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"calls": self.calls, "seconds": self.seconds,
                       "self_s": self.self_s, "counts": self.counts}, fh)


def _replace_everywhere(orig, new):
    """Rebind every gbott module-level name bound to `orig`, so calls
    through `from .x import f` copies are wrapped too."""
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name == "gbott" or name.startswith("gbott."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def install(path: str) -> Tracer:
    from gbott import census, cli, cohomology, isosearch, poly, tower, triviality
    from gbott.backend import kernel

    tr = Tracer()

    def count_column(result, parent):
        if parent == SEARCH:
            tr.counts["columns_tested"] += 1

    def count_pass(result, parent):
        if parent == SEARCH and not result:
            tr.counts["relation_passes"] += 1

    def count_det(result, parent):
        if parent == SEARCH:
            tr.counts["det_checks"] += 1

    def function(module, attr, name, after=None):
        orig = getattr(module, attr)
        _replace_everywhere(orig, tr.span(name, orig, after))

    def method(cls, attr, name):
        setattr(cls, attr, tr.span(name, getattr(cls, attr)))

    # kernel: callers reach it as attributes of the kernel module
    for op, after in (("pmul", None), ("psubst", count_column), ("preduce", count_pass)):
        setattr(kernel, op, tr.span(f"kernel.{op}", getattr(kernel, op), after))

    method(poly.Polynomial, "__mul__", "poly.mul")
    method(cohomology.CohomRing, "__init__", "cohomology.ring_build")
    method(cohomology.CohomRing, "normal_form", "cohomology.normal_form")
    method(tower.TowerSpec, "__init__", "tower.spec")
    method(tower.TowerSpec, "validate", "tower.validate")
    function(tower, "matrix_line", "tower.matrix_line")
    function(tower, "load_tower", "tower.load")
    function(triviality, "full_report", "triviality.full_report")
    function(triviality, "_first_violated_k", "triviality.stage_check")
    function(triviality, "is_total_chern_trivial", "triviality.total_chern")
    function(triviality, "decompose", "triviality.decompose")
    function(isosearch, "search_iso", "isosearch.search")
    function(isosearch, "relation_residues", "isosearch.residues")
    function(isosearch, "_search_columns", SEARCH)
    function(isosearch, "_rank", "isosearch.rank")
    function(isosearch, "_det", "isosearch.det", count_det)
    function(isosearch, "_parallel_search", "isosearch.pool")
    function(cli, "main", "cli.main")

    orig_enum = census.enumerate_towers
    next_tower = tr.span("census.generate", next)

    @functools.wraps(orig_enum)
    def enumerate_towers(*args, **kwargs):
        gen = orig_enum(*args, **kwargs)
        while True:
            try:
                t = next_tower(gen)
            except StopIteration:
                return
            tr.counts["towers_generated"] += 1
            yield t

    _replace_everywhere(orig_enum, enumerate_towers)

    orig_init, orig_chunk = isosearch._init_worker, isosearch._run_chunk
    chunk_span = tr.span("isosearch.chunk", orig_chunk)

    @functools.wraps(orig_init)
    def init_worker(*args):
        tr.reset()
        return orig_init(*args)

    @functools.wraps(orig_chunk)
    def run_chunk(chunk):
        result = chunk_span(chunk)
        tr.dumps += 1
        tr.dump(f"{path}.w{os.getpid()}.{tr.dumps}")
        tr.reset()
        return result

    _replace_everywhere(orig_init, init_worker)
    _replace_everywhere(orig_chunk, run_chunk)

    pid = os.getpid()
    atexit.register(lambda: os.getpid() == pid and tr.dump(path))
    return tr


def empty_total() -> dict:
    return {k: defaultdict(float) for k in ("calls", "seconds", "self_s", "counts")}


def merge(path: str, total: dict) -> None:
    """Add one traced process's counters, and its workers', to `total`."""
    for name in [path] + sorted(glob.glob(glob.escape(path) + ".w*")):
        with open(name) as fh:
            part = json.load(fh)
        for kind, values in part.items():
            for key, value in values.items():
                total[kind][key] += value


# name -> (unit, source); source is ("calls"|"seconds"|"counts", key)
# or ("self_s", layer); every value is per round of the workload
PER_LAYER = {
    "kernel.pmul.calls": ("count", "calls", "kernel.pmul"),
    "kernel.pmul.s": ("s", "seconds", "kernel.pmul"),
    "kernel.psubst.calls": ("count", "calls", "kernel.psubst"),
    "kernel.psubst.s": ("s", "seconds", "kernel.psubst"),
    "kernel.preduce.calls": ("count", "calls", "kernel.preduce"),
    "kernel.preduce.s": ("s", "seconds", "kernel.preduce"),
    "poly.mul.calls": ("count", "calls", "poly.mul"),
    "poly.mul.s": ("s", "seconds", "poly.mul"),
    "cohomology.rings_built": ("count", "calls", "cohomology.ring_build"),
    "cohomology.ring_build_s": ("s", "seconds", "cohomology.ring_build"),
    "cohomology.normal_forms": ("count", "calls", "cohomology.normal_form"),
    "cohomology.normal_form_s": ("s", "seconds", "cohomology.normal_form"),
    "triviality.stages_checked": ("count", "calls", "triviality.stage_check"),
    "triviality.stage_check_s": ("s", "seconds", "triviality.stage_check"),
    "triviality.total_chern_s": ("s", "seconds", "triviality.total_chern"),
    "triviality.decompose_s": ("s", "seconds", "triviality.decompose"),
    "census.towers_generated": ("count", "counts", "towers_generated"),
    "census.generate_s": ("s", "seconds", "census.generate"),
    "tower.specs_built": ("count", "calls", "tower.spec"),
    "tower.validate_s": ("s", "seconds", "tower.validate"),
    "cli.self_s": ("s", "self_s", "cli"),
    "isosearch.searches": ("count", "calls", "isosearch.search"),
    "isosearch.columns_tested": ("count", "counts", "columns_tested"),
    "isosearch.rank_checks": ("count", "calls", "isosearch.rank"),
    "isosearch.rank_s": ("s", "seconds", "isosearch.rank"),
    "isosearch.det_checks": ("count", "counts", "det_checks"),
    "isosearch.pool_s": ("s", "seconds", "isosearch.pool"),
}


def per_layer(total: dict, rounds: int) -> dict[str, dict]:
    """The per-layer metrics of a traced run, as printed by run.py."""
    out = {
        name: {"value": total[kind][key] / rounds, "unit": unit}
        for name, (unit, kind, key) in PER_LAYER.items()
    }
    tested = total["counts"]["columns_tested"]
    search_s = total["seconds"][SEARCH]
    out["isosearch.columns_per_s"] = {
        "value": tested / search_s if search_s else 0.0, "unit": "columns/s"}
    out["isosearch.relation_pass_ratio"] = {
        "value": total["counts"]["relation_passes"] / tested if tested else 0.0,
        "unit": "ratio"}
    return out
