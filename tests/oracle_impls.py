"""Independent reference implementations used only to check gbott.

Everything here recomputes results by a different route than the
library: schoolbook term lists instead of dict kernels, normal forms
and multiplication tables by lowest-index rewriting of the relations
instead of tables built stage by stage, relation images by polynomial
substitution instead of table maps, explicit monomial counting instead
of generating-function convolution, the degree-2 line criterion
instead of the per-k Chern identities, those identities decided
through Polynomial products and normal forms instead of the library's
multiplication tables, a census as one flat product of all twist
entries instead of a walk over levels, census lines through the
full block matrix instead of per-stage pieces, Gaussian elimination
over Fraction instead of fraction-free elimination, and an isomorphism
search that runs the relation check on every column of every node
instead of sharing each depth's passing columns.  Keep these decoupled
from the library internals.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from gbott import (
    CohomRing,
    Polynomial,
    StageSpec,
    TowerSpec,
    chern_classes,
    vector_matrix_transpose,
)


def schoolbook_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    """Multiply via explicit term lists and repeated addition."""
    total = Polynomial.zero(p.nvars)
    for e, c in p.terms.items():
        for f, d in q.terms.items():
            exps = tuple(a + b for a, b in zip(e, f))
            total = total + Polynomial(p.nvars, {exps: Fraction(c) * Fraction(d)})
    return total


def binomial_pow(linear_coeffs: tuple[int, int], k: int, nvars: int = 2) -> Polynomial:
    """(a*x1 + b*x2)^k expanded with the binomial theorem."""
    a, b = linear_coeffs
    terms = {}
    for j in range(k + 1):
        coeff = math.comb(k, j) * a**j * b ** (k - j)
        if coeff:
            terms[(j, k - j) + (0,) * (nvars - 2)] = coeff
    return Polynomial(nvars, terms)


def nf_lowest_first(p: Polynomial, ring: CohomRing) -> Polynomial:
    """Normal form rewriting the lowest over-cap generator first, the
    opposite scan order from the library; confluence means the result
    must agree."""
    caps = ring.caps
    h = ring.nvars
    tails = []
    for i in range(1, h + 1):
        n = caps[i - 1]
        lead = [0] * h
        lead[i - 1] = n + 1
        tails.append(Polynomial(h, {tuple(lead): 1}) - ring.relations[i - 1])
    cur = p.extended(h)
    while True:
        target = None
        for e in sorted(cur.terms):
            over = [i for i in range(h) if e[i] > caps[i]]
            if over:
                target = (e, over[0])
                break
        if target is None:
            return cur
        e, i = target
        c = cur.coefficient(e)
        rem = list(e)
        rem[i] -= caps[i] + 1
        monom = Polynomial(h, {tuple(rem): c})
        cur = cur - Polynomial(h, {e: c}) + schoolbook_mul(monom, tails[i])


def _relation(t: TowerSpec, i: int) -> Polynomial:
    """r_i = x_i * prod_j (l_ij + x_i) as a Polynomial product."""
    h = t.height
    xi = Polynomial.variable(i, h)
    rel = xi
    for row in t.stages[i - 1].coeffs:
        rel = rel * (Polynomial.linear(tuple(row) + (0,) * (h - len(row))) + xi)
    return rel


def mult_table_lowest_first(t: TowerSpec) -> tuple:
    """table[i][b] as a dict (basis index -> coefficient): the normal form
    of X_(i+1) * x^basis[b], basis sorted by (degree, exponents), each
    monomial rewritten at its lowest over-cap generator first through
    x_i^(n_i+1) -> x_i^(n_i+1) - r_i, memoised per monomial."""
    h, caps = t.height, t.dims
    tails = []
    for i in range(1, h + 1):
        lead = tuple(caps[i - 1] + 1 if k == i - 1 else 0 for k in range(h))
        tails.append(dict((Polynomial(h, {lead: 1}) - _relation(t, i)).terms))
    memo: dict = {}

    def nf(e):
        if e not in memo:
            over = [i for i in range(h) if e[i] > caps[i]]
            if not over:
                memo[e] = {e: 1}
            else:
                i = over[0]
                rem = e[:i] + (e[i] - caps[i] - 1,) + e[i + 1:]
                out: dict = {}
                for te, tc in tails[i].items():
                    for f, c in nf(tuple(a + b for a, b in zip(rem, te))).items():
                        out[f] = out.get(f, 0) + tc * c
                memo[e] = {f: c for f, c in out.items() if c}
        return memo[e]

    basis = sorted(
        itertools.product(*(range(n + 1) for n in caps)), key=lambda e: (sum(e), e)
    )
    index = {e: b for b, e in enumerate(basis)}
    return tuple(
        tuple(
            {index[f]: c for f, c in nf(e[:i] + (e[i] + 1,) + e[i + 1:]).items()}
            for e in basis
        )
        for i in range(h)
    )


def basis_order_table(ring: CohomRing) -> tuple:
    """The ring's multiplication table in `basis_exponents()` order:
    table[i][b] is X_(i+1) * x^basis[b] as sparse (basis index,
    coefficient) pairs, read off `block_table()`, where index
    sum_k e_k * prod_(j<k) (n_j+1) stands for x^e."""
    index = {e: b for b, e in enumerate(ring.basis_exponents())}
    block = [()]
    for cap in ring.caps:  # block order: x_1 runs fastest
        block = [e + (p,) for p in range(cap + 1) for e in block]
    perm = [index[e] for e in block]
    table = []
    for rows in ring.block_table():
        mapped = [None] * len(rows)
        for b, row in enumerate(rows):
            mapped[perm[b]] = tuple((perm[t], c) for t, c in row)
        table.append(tuple(mapped))
    return tuple(table)


def relation_residues_reference(M, src: CohomRing, tgt: CohomRing) -> list[Polynomial]:
    """Images of the source relations under x_j -> column j of M, each
    expanded as a Polynomial product of the images of its linear factors
    and reduced by `nf_lowest_first` in the target."""
    h = src.nvars
    images = [Polynomial.linear(M.column(j)) for j in range(1, h + 1)]
    out = []
    for j, stage in enumerate(src.tower.stages):
        image = images[j]
        for row in stage.coeffs:
            factor = images[j]
            for m, a in enumerate(row):
                factor = factor + images[m] * a
            image = schoolbook_mul(image, factor)
        out.append(nf_lowest_first(image, tgt))
    return out


def basis_rank_counts(t: TowerSpec) -> tuple[int, ...]:
    """Degree distribution of the monomial basis, counted one monomial
    at a time."""
    counts = [0] * (sum(t.dims) + 1)
    for exps in itertools.product(*(range(n + 1) for n in t.dims)):
        counts[sum(exps)] += 1
    return tuple(counts)


def q_trivial_line_oracle(t: TowerSpec) -> bool:
    """Definitional test for rational triviality: for every stage there
    must be a rational degree-2 class on the stage's admissible line
    whose (n_i+1)-st power vanishes; the candidate lines are spanned by
    (n_i+1) x_i + c_1(xi_i), and those h classes are automatically
    linearly independent (triangular with nonzero diagonal)."""
    ring = CohomRing(t)
    h = t.height
    for i in range(1, h + 1):
        n = t.dims[i - 1]
        c1 = chern_classes(t, i).classes[1]
        line = Polynomial.variable(i, h) * (n + 1) + c1
        if not ring.is_zero(line ** (n + 1)):
            return False
    return True


def stage_chern_classes(t: TowerSpec, stage: int) -> list[Polynomial]:
    """c_0..c_n of a stage bundle as Polynomials: the elementary
    symmetric polynomials of the rows' linear forms, expanded one row at
    a time with Polynomial products."""
    h = t.height
    classes = [Polynomial.one(h)]
    for row in t.stages[stage - 1].coeffs:
        form = Polynomial.linear(tuple(row) + (0,) * (h - len(row)))
        classes = (
            [classes[0]]
            + [classes[k] + classes[k - 1] * form for k in range(1, len(classes))]
            + [classes[-1] * form]
        )
    return classes


def chern_identity_violation(t: TowerSpec, stage: int) -> int | None:
    """First k in 1..n+1 where (n+1)^k c_k != binom(n+1,k) c_1^k, or
    None: each identity decided by reducing the difference to its normal
    form in the tower's ring."""
    ring = CohomRing(t)
    classes = stage_chern_classes(t, stage)
    n = t.dims[stage - 1]
    for k in range(1, n + 2):
        ck = classes[k] if k <= n else Polynomial.zero(t.height)
        if not ring.is_zero((n + 1) ** k * ck - math.comb(n + 1, k) * classes[1] ** k):
            return k
    return None


def total_chern_trivial_reference(t: TowerSpec) -> bool:
    """Every c_k(xi_i), k >= 1, reduces to zero in the tower's ring."""
    ring = CohomRing(t)
    return all(
        ring.is_zero(c)
        for i in range(1, t.height + 1)
        for c in stage_chern_classes(t, i)[1:]
    )


def adjacent_swap_order(dims: tuple[int, ...]) -> list[int]:
    """Stable partition (dims == 1 first) realized by adjacent
    transpositions; returns the old-stage order after bubbling."""
    order = list(range(1, len(dims) + 1))
    changed = True
    while changed:
        changed = False
        for p in range(len(order) - 1):
            left, right = order[p], order[p + 1]
            if dims[left - 1] > 1 and dims[right - 1] == 1:
                order[p], order[p + 1] = right, left
                changed = True
    return order


def enumerate_towers_flat(height: int, dims: tuple[int, ...], coeff_bound: int):
    """The census stream built tower by tower: for each dimension tuple,
    one flat product over all twist entries, cut into stages and rows."""
    dims = tuple(sorted(set(dims)))
    values = range(-coeff_bound, coeff_bound + 1)
    for dim_tuple in itertools.product(dims, repeat=height):
        entry_counts = [n * (i - 1) for i, n in enumerate(dim_tuple, start=1)]
        for flat in itertools.product(values, repeat=sum(entry_counts)):
            stages = []
            pos = 0
            for i, n in enumerate(dim_tuple, start=1):
                rows = []
                for _ in range(n):
                    rows.append(tuple(flat[pos:pos + (i - 1)]))
                    pos += i - 1
                stages.append(StageSpec(n, tuple(rows)))
            yield TowerSpec(tuple(stages))


def matrix_line_via_transpose(t: TowerSpec) -> str:
    """A census line written out from the whole block matrix."""
    return "/".join(" ".join(str(x) for x in row) for row in vector_matrix_transpose(t))


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def fraction_rank(columns: list[tuple], h: int) -> int:
    """Rank of columns of length h by Gaussian elimination over Fraction."""
    m = [[Fraction(col[i]) for col in columns] for i in range(h)]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, h) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, h):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, len(columns)):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


def _times_linear(table, vec: dict, form) -> dict:
    """vec * sum_i form[i] X_(i+1) through a ring's multiplication table."""
    out: dict = {}
    for i, w in enumerate(form):
        for b, c in vec.items():
            for t, tc in table[i][b]:
                out[t] = out.get(t, 0) + c * w * tc
    return {t: c for t, c in out.items() if c}


def search_iso_reference(
    src: CohomRing, tgt: CohomRing, over_integers: bool, bound: int
) -> tuple | None:
    """The bounded isomorphism search node by node, with no memo: at each
    depth every column of the product order (entries 0, 1, -1, 2, ...)
    is tested against the depth's relation, then the rank of the partial
    matrix is checked.  Returns the first witness's matrix, or None."""
    if basis_rank_counts(src.tower) != basis_rank_counts(tgt.tower):
        return None
    h = src.nvars
    values = [0] + [v for a in range(1, bound + 1) for v in (a, -a)]
    table = basis_order_table(tgt)
    columns: list[tuple] = []

    def relation_vanishes(j: int, col: tuple) -> bool:
        vec = _times_linear(table, {0: 1}, col)
        for row in src.tower.stages[j].coeffs:
            off = [sum(a * columns[m][i] for m, a in enumerate(row)) for i in range(h)]
            vec = _times_linear(table, vec, [c + o for c, o in zip(col, off)])
        return not vec

    def rec(j: int):
        if j == h:
            matrix = tuple(tuple(columns[c][r] for c in range(h)) for r in range(h))
            if over_integers and abs(fraction_det(matrix)) != 1:
                return None
            return matrix
        for col in itertools.product(values, repeat=h):
            if over_integers and math.gcd(*col) != 1:
                continue
            if not relation_vanishes(j, col):
                continue
            columns.append(col)
            if fraction_rank(columns, h) == j + 1:
                found = rec(j + 1)
                if found is not None:
                    return found
            columns.pop()
        return None

    return rec(0)
