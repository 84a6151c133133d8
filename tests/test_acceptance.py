"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every check is exact; the only tolerances are the stated wall-clock
budgets on criteria 1 and 2.
"""

import itertools
import random
import time

import pytest

from gbott import (
    CohomRing,
    Polynomial,
    cli,
    decompose,
    enumerate_towers,
    is_q_trivial,
    is_total_chern_trivial,
    is_z_trivial,
    poincare_ranks,
    z_trivial_oracle,
)

from conftest import DATA
from oracle_impls import basis_rank_counts, q_trivial_line_oracle
from test_cohomology import random_tower


def report_line(number: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def criterion2_sweep():
    return enumerate_towers(2, (1, 2, 3), 2)


def test_criterion_1_twisted_pair_golden(capsys):
    t0 = time.perf_counter()
    file_a = str(DATA / "qtwin_a.tower")
    file_b = str(DATA / "qtwin_b.tower")

    code = cli.main(["ring", file_a, "--names", "x,y"])
    out_a = capsys.readouterr().out
    ok = code == 0
    rels_a = {l.strip() for l in out_a.splitlines() if l.startswith("  ")}
    ok &= rels_a == {"x^3", "y^4 + x*y^3"}

    code = cli.main(["ring", file_b, "--names", "X,Y"])
    out_b = capsys.readouterr().out
    ok &= code == 0
    rels_b = {l.strip() for l in out_b.splitlines() if l.startswith("  ")}
    ok &= rels_b == {"X^3", "Y^4 + 2*X*Y^3"}

    code = cli.main(["iso", file_a, file_b, "--coeff", "q", "--bound", "2", "--sequential"])
    out_q = capsys.readouterr().out
    ok &= code == 0 and "witness" in out_q
    residue_lines = [l for l in out_q.splitlines() if l.startswith("residue")]
    ok &= len(residue_lines) == 2 and all(l.endswith(": 0") for l in residue_lines)

    code = cli.main(["iso", file_a, file_b, "--coeff", "z", "--bound", "10", "--sequential"])
    out_z = capsys.readouterr().out
    ok &= code == 1 and "none within bound 10" in out_z

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    with capsys.disabled():
        report_line(
            1,
            ok,
            f"twisted-pair presentations, Q-witness, no Z-witness "
            f"({elapsed:.2f}s < 5s)",
        )


def test_criterion_2_rational_triviality_oracle(capsys):
    t0 = time.perf_counter()
    count = 0
    mismatches = 0
    for t in criterion2_sweep():
        count += 1
        if is_q_trivial(t) != q_trivial_line_oracle(t):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    with capsys.disabled():
        report_line(
            2,
            ok,
            f"decider matches degree-2 line oracle on {count} towers, "
            f"{mismatches} mismatches ({elapsed:.1f}s < 120s)",
        )


def test_criterion_3_wide_tower_equivalence(capsys):
    count = 0
    failures = 0
    for h in (1, 2, 3):
        for t in enumerate_towers(h, (2,), 2):
            q = is_q_trivial(t)
            chern = is_total_chern_trivial(t)
            z = is_z_trivial(t)
            untwisted = all(
                all(x == 0 for x in row) for s in t.stages for row in s.coeffs
            )
            count += 1
            if not (q == chern == z == untwisted):
                failures += 1
    ok = failures == 0
    with capsys.disabled():
        report_line(
            3,
            ok,
            f"Q-trivial = Chern-trivial = Z-trivial = untwisted on "
            f"{count} wide towers, {failures} failures",
        )


def test_criterion_4_integral_criterion_vs_brute_force(capsys):
    count = 0
    mismatches = 0
    parity_ok = True
    for t in enumerate_towers(2, (1, 2), 2):
        count += 1
        criterion = is_z_trivial(t)
        oracle = z_trivial_oracle(t, bound=6)
        if criterion != oracle:
            mismatches += 1
        if t.dims == (1, 1):
            a = t.stages[1].coeffs[0][0]
            parity_ok &= criterion == (a % 2 == 0)
    ok = mismatches == 0 and parity_ok
    with capsys.disabled():
        report_line(
            4,
            ok,
            f"divisibility criterion equals bounded search on {count} towers, "
            f"{mismatches} mismatches; line-tower parity split "
            f"{'holds' if parity_ok else 'fails'}",
        )


def test_criterion_5_decomposition_shape(capsys):
    checked = 0
    failures = 0
    for t in criterion2_sweep():
        if not is_q_trivial(t):
            continue
        checked += 1
        dec = decompose(t)
        dims = dec.reordered.dims
        r = dec.bott_height
        shape_ok = all(n == 1 for n in dims[:r]) and all(n > 1 for n in dims[r:])
        for i, stage in enumerate(dec.reordered.stages, start=1):
            for k in range(1, i):
                if dims[k - 1] > 1 and any(row[k - 1] != 0 for row in stage.coeffs):
                    shape_ok = False
        if not shape_ok:
            failures += 1
    ok = failures == 0 and checked > 0
    with capsys.disabled():
        report_line(
            5,
            ok,
            f"all {checked} Q-trivial towers reordered to the "
            f"lines-first zero-block form, {failures} failures",
        )


def test_criterion_6_ring_engine_properties(capsys):
    rng = random.Random(1234)
    failures = 0

    # relation polynomials reduce to zero
    for _ in range(200):
        t = random_tower(rng)
        ring = CohomRing(t)
        if any(not ring.normal_form(rel).is_zero for rel in ring.relations):
            failures += 1

    # normal form idempotent and multiplicative
    for _ in range(200):
        t = random_tower(rng, max_height=3, max_dim=2, bound=2)
        ring = CohomRing(t)
        h = t.height
        def rand_poly():
            return Polynomial(
                h,
                {
                    tuple(rng.randrange(4) for _ in range(h)): rng.randrange(-6, 7)
                    for _ in range(4)
                },
            )
        p, q = rand_poly(), rand_poly()
        nf = ring.normal_form
        if nf(nf(p)) != nf(p) or nf(p * q) != nf(nf(p) * nf(q)):
            failures += 1

    # Poincare ranks match the generating-function coefficients
    for _ in range(100):
        t = random_tower(rng)
        if poincare_ranks(t) != basis_rank_counts(t):
            failures += 1

    # powers with nonzero top coefficient never vanish: 1000 pairs
    for _ in range(1000):
        t = random_tower(rng)
        ring = CohomRing(t)
        i = rng.randrange(1, t.height + 1)
        b = [rng.randrange(-3, 4) for _ in range(t.height)]
        while b[i - 1] == 0:
            b[i - 1] = rng.randrange(-3, 4)
        if ring.is_zero(Polynomial.linear(b) ** t.dims[i - 1]):
            failures += 1

    ok = failures == 0
    with capsys.disabled():
        report_line(
            6,
            ok,
            f"ring-engine property suite (relations, normal form, ranks, "
            f"1000 nonvanishing-power pairs): {failures} failures",
        )


def test_criterion_7_vanishing_powers_confined_to_lines(capsys):
    counterexamples = 0
    vanishing = 0
    for t in criterion2_sweep():
        ring = CohomRing(t)
        h = t.height
        for b in itertools.product(range(-3, 4), repeat=h):
            if all(x == 0 for x in b):
                continue
            m = max(j for j in range(h) if b[j] != 0) + 1
            n = t.dims[m - 1]
            if not ring.is_zero(Polynomial.linear(b) ** (n + 1)):
                continue
            vanishing += 1
            line = list(ring.chern[m - 1].classes[1].linear_coefficients())
            line[m - 1] += n + 1
            parallel = all(
                b[i] * line[j] == b[j] * line[i]
                for i in range(h)
                for j in range(h)
            )
            if not parallel:
                counterexamples += 1
    ok = counterexamples == 0 and vanishing > 0
    with capsys.disabled():
        report_line(
            7,
            ok,
            f"{vanishing} bounded vanishing-power vectors, all on their "
            f"stage's candidate line; {counterexamples} counterexamples",
        )
