"""Inputs of the benchmark's workloads, made from the seed.

The iso pairs come from fixed catalogues chosen so that each search is
sizeable (tenths of a second to a few seconds on a 2-CPU machine).  The
seed changes the presentation of each pair, not how much work it is:

- every workload: the order of the operations in a round;
- iso pairs: the order of the twist rows inside each stage (the
  relation is the product of the rows' linear forms, so the ring is
  the same);
- iso-exhaust pairs, in addition: a sign change x_k -> -x_k of each
  generator of the twisted tower, with probability 1/2 each.  That maps
  the tower to an integrally isomorphic one and maps the bounded search
  space onto itself, so an exhaustive search does the same work.
  Witness searches stop at the first witness in a fixed entry order, so
  their pairs get no sign changes.

Every pair's expected outcome is confirmed by the paper's criterion
(`pair_error`, through checks.classify), never by gbott.
"""

from __future__ import annotations

import random

import checks

CENSUS = {"height": 3, "dims": [1, 2], "bound": 2}
SWEEP_CENSUS = {"height": 2, "dims": [1, 2, 3], "bound": 2}
# The oracle test searches at bound 6, where one round of the 465 towers
# takes about 40 s, twice a run.  At bound 2 the same towers make shorter
# searches, so per-ring and per-search set-up is a larger share.
SWEEP_ORACLE_BOUND = 2

# (dims, twist rows of stages 2..h, product_is_source, coeff, bound)
WITNESS_PAIRS = [
    ((1, 2, 1), [[(0,), (2,)], [(-2, 0)]], False, "q", 3),
    ((1, 2, 1), [[(3,), (0,)], [(1, 0)]], False, "q", 2),
    ((1, 1, 3), [[(0,)], [(-1, 0), (0, 1), (-1, 1)]], False, "q", 2),
    ((1, 1, 1), [[(-2,)], [(3, 0)]], False, "q", 3),
    ((1, 1, 2), [[(2,)], [(2, 0), (2, 1)]], False, "q", 3),
    ((1, 1, 2), [[(0,)], [(-3, -1), (-3, 1)]], False, "z", 2),
    ((1, 2), [[(1,), (2,)]], True, "z", 1),
    ((1, 3), [[(1,), (2,), (0,)]], False, "q", 4),
]
EXHAUST_PAIRS = [
    ((1, 1, 1), [[(2,)], [(-2, 1)]], False, "q", 2),
    ((1, 1, 1), [[(-2,)], [(-1, 1)]], True, "z", 3),
    ((1, 1, 2), [[(0,)], [(-1, 1), (-1, -2)]], True, "q", 3),
    ((1, 1, 2), [[(-1,)], [(-1, 0), (0, -1)]], False, "z", 3),
    ((1, 2, 1), [[(2,), (-1,)], [(-1, -1)]], True, "q", 3),
    ((2, 1, 1), [[(2,)], [(-2, 2)]], False, "q", 2),
    ((1, 2), [[(0,), (-1,)]], True, "z", 6),
    ((2, 2), [[(-1,), (2,)]], False, "q", 6),
]


def tower(dims, rows_after_first):
    """(dims, twists) with stage 1's n_1 empty rows filled in."""
    return tuple(dims), ((((),) * dims[0]),) + tuple(
        tuple(tuple(r) for r in rows) for rows in rows_after_first
    )


def product(dims):
    return tuple(dims), tuple(
        tuple((0,) * i for _ in range(n)) for i, n in enumerate(dims)
    )


def flip_sign(t, k: int):
    """The tower whose ring is the image of t's under x_k -> -x_k: the
    rows of stage k change sign, and so does column k of later stages."""
    dims, twists = t
    out = []
    for i, rows in enumerate(twists):
        if i == k:
            rows = tuple(tuple(-a for a in row) for row in rows)
        elif i > k:
            rows = tuple(
                tuple(-a if c == k else a for c, a in enumerate(row)) for row in rows
            )
        out.append(rows)
    return dims, tuple(out)


def serialize(t) -> str:
    """gbott's tower file format, written here from its description."""
    dims, twists = t
    lines = []
    for i, (n, rows) in enumerate(zip(dims, twists)):
        lines.append(f"stage n={n}")
        if i:
            lines.extend(" ".join(str(a) for a in row) for row in rows)
    return "\n".join(lines) + "\n"


def iso_ops(catalogue, expect_witness: bool, seed: int, rng_tag: str):
    rng = random.Random(f"{rng_tag}:{seed}")
    ops = []
    for dims, rows, product_is_source, coeff, bound in catalogue:
        t = tower(dims, rows)
        t = t[0], tuple(tuple(rng.sample(r, len(r))) for r in t[1])
        if not expect_witness:
            for k in range(len(dims)):
                if rng.random() < 0.5:
                    t = flip_sign(t, k)
        p = product(dims)
        src, tgt = (p, t) if product_is_source else (t, p)
        ops.append({"source_tower": src, "target_tower": tgt, "tower": t,
                    "product_is_source": product_is_source, "coeff": coeff,
                    "bound": bound, "witness": expect_witness})
    rng.shuffle(ops)
    return ops


def pair_error(op: dict) -> str | None:
    """Why the paper's criterion contradicts the pair's expected outcome,
    or None.  A witness pair must also have an explicit isomorphism
    within its bound, so that "none within bound" is a wrong answer."""
    q, z = checks.classify(*op["tower"])
    iso_exists = z if op["coeff"] == "z" else q
    if iso_exists != op["witness"]:
        return f"criterion says an isomorphism exists: {iso_exists}"
    if op["witness"]:
        known = checks.known_witness(*op["tower"], op["product_is_source"])
        need = max(abs(a) for row in known for a in row)
        if need > op["bound"]:
            return f"the known witness needs bound {need}"
    return None


def build(workload: str, seed: int) -> dict:
    """The manifest of one run: everything the children need."""
    if workload == "census":
        return {"workload": workload, "census": CENSUS}
    if workload == "oracle-sweep":
        # child.py enumerates the towers with gbott and shuffles them
        return {"workload": workload, "census": SWEEP_CENSUS,
                "oracle_bound": SWEEP_ORACLE_BOUND, "seed": seed}
    if workload == "iso-witness":
        return {"workload": workload, "ops": iso_ops(WITNESS_PAIRS, True, seed, "witness")}
    if workload == "iso-exhaust":
        return {"workload": workload, "ops": iso_ops(EXHAUST_PAIRS, False, seed, "exhaust")}
    raise KeyError(workload)


WORKLOADS = ("census", "iso-witness", "iso-exhaust", "oracle-sweep")
