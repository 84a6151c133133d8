"""Command-line front end.

Commands:
    report    <file>            full analysis of one tower
    chern     <file>            stage-bundle Chern classes
    ring      <file>            ring presentation and Poincare ranks
    iso       <fileA> <fileB>   bounded degree-2 isomorphism search
    decompose <file>            reorder a Q-trivial tower, lines first
    enumerate                   census of towers within bounds

Exit codes: 0 success (or witness found), 1 completed but negative
(no witness / not decomposable), 2 input error, 141 stdout closed
early by its reader (as in `gbott enumerate ... | head`).

Each command imports the gbott modules it runs when it starts, so that
a call loads only those: `gbott iso` never loads the census or the
deciders, and `gbott --version` loads no computation module at all.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys

from . import __version__
from ._base import FILTER_KEYS, GENERATOR_NAME, default_names
from .errors import GbottError, PreconditionError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that left

# census lines gathered per write to stdout: enough to make the cost of
# a write small per line, few enough not to show in peak memory
_BATCH_LINES = 512


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


def _load(path: str):
    from .tower import load_tower

    try:
        return load_tower(path)
    except OSError as exc:
        raise GbottError(f"{path}: {exc.strerror or exc}") from exc
    except GbottError as exc:
        raise GbottError(f"{path}: {exc}") from exc


def _names(t, raw: str | None) -> tuple[str, ...]:
    if raw is None:
        return default_names(t.height)
    names = tuple(n.strip() for n in raw.split(","))
    for i, name in enumerate(names):
        if not re.fullmatch(GENERATOR_NAME, name):
            raise GbottError(
                f"--names entry {name!r} is not a generator name"
                " (a letter, then letters, digits or _)"
            )
        if name in names[:i]:
            raise GbottError(f"--names entry {name!r} is given twice")
    if len(names) != t.height:
        raise GbottError(
            f"--names gives {len(names)} names for a height-{t.height} tower"
        )
    return names


def _chern_lines(t, ring, names) -> list[str]:
    lines = ["chern classes:"]
    for cd in ring.chern:
        n = t.dims[cd.stage - 1]
        parts = [
            f"c_{k} = {cd.classes[k].serialize(names)}" for k in range(1, n + 1)
        ]
        lines.append(f"  stage {cd.stage}: " + "; ".join(parts))
    return lines


def cmd_report(args) -> int:
    from .tower import vector_matrix_transpose
    from .triviality import full_report

    t = _load(args.file)
    names = _names(t, args.names)
    report = full_report(t)
    if args.json:
        import json  # here, so that no other command pays for loading it

        payload = report.to_dict()
        payload["dims"] = list(t.dims)
        payload["matrix"] = [list(r) for r in vector_matrix_transpose(t)]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    from .cohomology import CohomRing  # the JSON report prints no ring

    ring = CohomRing(t)
    print(f"tower: height {t.height}, fiber dims {list(t.dims)}")
    print(ring.report(names))
    print("\n".join(_chern_lines(t, ring, names)))
    print(report.to_text(names))
    return EXIT_OK


def cmd_chern(args) -> int:
    from .cohomology import CohomRing

    t = _load(args.file)
    names = _names(t, args.names)
    ring = CohomRing(t)
    print("\n".join(_chern_lines(t, ring, names)))
    return EXIT_OK


def cmd_ring(args) -> int:
    from .cohomology import CohomRing

    t = _load(args.file)
    names = _names(t, args.names)
    print(CohomRing(t).report(names))
    return EXIT_OK


def _at_least_one(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise GbottError(f"{flag} must be >= 1, got {value}")


def cmd_iso(args) -> int:
    from .cohomology import CohomRing
    from .isosearch import relation_residues, search_iso

    _at_least_one("--bound", args.bound)
    _at_least_one("--workers", args.workers)
    t_src = _load(args.fileA)
    t_tgt = _load(args.fileB)
    src = CohomRing(t_src)
    tgt = CohomRing(t_tgt)
    workers = 1 if args.sequential else (args.workers or _default_workers())
    found = search_iso(
        src,
        tgt,
        over_integers=(args.coeff == "z"),
        bound=args.bound,
        workers=workers,
    )
    if found is None:
        print(f"none within bound {args.bound}")
        return EXIT_NEGATIVE
    print("witness (column j is the image of source generator j):")
    print(found.serialize())
    for i, res in enumerate(relation_residues(found, src, tgt), start=1):
        print(f"residue of relation {i}: {res.serialize()}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    from .tower import serialize_tower
    from .triviality import decompose

    t = _load(args.file)
    try:
        dec = decompose(t)
    except PreconditionError:
        print("tower is not Q-trivial; no decomposition")
        return EXIT_NEGATIVE
    print(f"permutation: {' '.join(str(i) for i in dec.permutation.images)}")
    print(f"bott height: {dec.bott_height}")
    print(f"fiber dims over base: {' '.join(str(n) for n in dec.fiber_dims) or '-'}")
    print("reordered tower:")
    print(serialize_tower(dec.reordered), end="")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from . import census as census_mod
    from .tower import stage_line

    dims = []
    for raw in args.dims.split(","):
        try:
            dims.append(int(raw))
        except ValueError:
            raise GbottError(f"--dims entry {raw!r} is not an integer") from None
    config = census_mod.EnumerationConfig(
        height=args.height,
        dims=tuple(dims),
        coeff_bound=args.bound,
        filters=frozenset(args.filter or ()),
    )
    # the line ending of each flag combination the filters let through
    required = tuple(key in config.filters for key in FILTER_KEYS)
    endings = {
        flags: "  q={} z={} chern={}\n".format(*map(int, flags))
        for flags in itertools.product((False, True), repeat=3)
        if all(f or not r for f, r in zip(flags, required))
    }
    h = config.height
    # the stage last seen at each level below the last, its part of the
    # line, and the line's head made of them; the census shares stage
    # objects, so a tower remakes only what changed, and the head is
    # joined again only when the prefix changes
    seen: list = [None] * (h - 1)
    parts = [""] * (h - 1)
    head = ""
    # id(stage) -> (stage, its part of the line), for the stages the
    # census keeps and hands out again under every prefix; the entry
    # holds the stage, so its id is not reused while the entry lives,
    # and the memo starts afresh when it is full at the census's cap
    texts: dict[int, tuple] = {}
    cap = census_mod._MEMO_CAP

    def text(stage, i: int) -> str:
        entry = texts.get(id(stage))
        if entry is None:
            entry = (stage, stage_line(stage, i, h))
            if len(texts) < cap:
                texts[id(stage)] = entry
            else:  # full: start afresh
                texts.clear()
        return entry[1]

    batch: list[str] = []
    combo_counts = dict.fromkeys(itertools.product((False, True), repeat=3), 0)
    towers = census_mod.enumerate_towers(
        config.height, config.dims, config.coeff_bound
    )
    for t, flags in census_mod.classify(towers):
        combo_counts[flags] += 1
        ending = endings.get(flags)
        if ending is None:
            continue
        stages = t.stages
        changed = False
        for k in range(h - 1):
            if stages[k] is not seen[k]:
                seen[k] = stages[k]
                parts[k] = text(stages[k], k + 1)
                changed = True
        if changed:
            head = "".join(part + "/" for part in parts)
        batch.append(head + text(stages[-1], h) + ending)
        if len(batch) == _BATCH_LINES:
            sys.stdout.write("".join(batch))
            batch.clear()
    sys.stdout.write("".join(batch))
    total = sum(combo_counts.values())
    emitted = sum(n for flags, n in combo_counts.items() if flags in endings)
    print(f"# towers: {total} emitted: {emitted}")
    for flags in sorted(combo_counts, reverse=True):
        if combo_counts[flags]:
            q, z, c = (int(f) for f in flags)
            print(f"# q={q} z={z} chern={c}: {combo_counts[flags]}")
    return EXIT_OK


def _default_workers() -> int:
    return min(4, os.cpu_count() or 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbott",
        description="Exact cohomology computations for generalized Bott towers.",
    )
    parser.add_argument(
        "--version", action="version", version=f"gbott {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_names(p):
        p.add_argument(
            "--names",
            help="comma-separated generator names, distinct, each a letter "
            "then letters, digits or _ (default x1,x2,...)",
        )

    p = sub.add_parser("report", help="full analysis of one tower")
    p.add_argument("file")
    add_names(p)
    p.add_argument("--json", action="store_true", help="structured output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("chern", help="stage-bundle Chern classes")
    p.add_argument("file")
    add_names(p)
    p.set_defaults(func=cmd_chern)

    p = sub.add_parser("ring", help="ring presentation and Poincare ranks")
    p.add_argument("file")
    add_names(p)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("iso", help="bounded degree-2 isomorphism search")
    p.add_argument("fileA")
    p.add_argument("fileB")
    p.add_argument("--coeff", choices=("q", "z"), required=True)
    p.add_argument("--bound", type=int, default=10)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--sequential",
        action="store_true",
        help="search in this process; the witness is the same either way",
    )
    mode.add_argument(
        "--workers",
        type=int,
        help="processes for a search that outlasts its in-process start "
        "(default: cpu count, max 4)",
    )
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("decompose", help="reorder a Q-trivial tower, lines first")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("enumerate", help="census of towers within bounds")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--dims", required=True, help="comma-separated fiber dims")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument(
        "--filter",
        action="append",
        choices=FILTER_KEYS,
        help="emit only towers with this flag (repeatable)",
    )
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GbottError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # point stdout at the null device, so that the flush at exit
        # does not fail again on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
