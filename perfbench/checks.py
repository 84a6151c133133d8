"""Checks of gbott's answers, computed apart from gbott.

Nothing here imports gbott.  Rings are built in sympy from the twist
rows and reduced by a sympy Groebner basis; counts, Chern classes and
determinants are recomputed from their definitions.  The deciding
criterion is the paper's: a tower is Q-trivial iff, at every stage i,

    z_i = (n_i + 1) x_i + c_1(xi_i)   satisfies   z_i^(n_i + 1) = 0,

and Z-trivial iff it is Q-trivial and n_i + 1 divides every
coefficient of c_1(xi_i).  When it holds, x_j -> z_j (scaled to a
primitive vector) is an explicit isomorphism from the product of
projective spaces, which bounds the entries a search needs.

A tower here is a pair (dims, twists): dims[i] is the fiber dimension
of stage i+1 and twists[i] its n_i rows of i integers each.

sympy is imported on first use, after the timed part of a run, so that
the benchmark process stays small while gbott runs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def census_size(height: int, dims, bound: int) -> int:
    """Number of towers of this height, stage dimensions from `dims` and
    twist entries in [-bound, bound]: a stage i of dimension n carries
    n * (i - 1) free entries."""
    width = 2 * bound + 1
    return sum(
        width ** sum(n * i for i, n in enumerate(combo))
        for combo in itertools.product(sorted(set(dims)), repeat=height)
    )


def parse_matrix_line(text: str):
    """(dims, twists) from the block-matrix form printed by `gbott
    enumerate`: one row per line-bundle summand, rows joined by '/'.
    A row of stage i ends in its diagonal 1 at column i, so the last
    nonzero column names the stage and the columns before it are the
    twist row."""
    rows = [tuple(int(x) for x in part.split()) for part in text.split("/")]
    dims, twists = [], []
    for row in rows:
        stage = max(k for k, x in enumerate(row) if x)
        if row[stage] != 1 or stage > len(dims):
            raise ValueError(f"not a tower matrix: {text!r}")
        if stage == len(dims):
            dims.append(0)
            twists.append([])
        dims[stage] += 1
        twists[stage].append(row[:stage])
    return tuple(dims), tuple(tuple(rows) for rows in twists)


def c1_vector(dims, twists, stage: int) -> tuple[int, ...]:
    """Coefficients of c_1 of the stage bundle (0-based stage): the sum
    of its twist rows, padded to the tower's height."""
    h = len(dims)
    out = [0] * h
    for row in twists[stage]:
        for k, a in enumerate(row):
            out[k] += a
    return tuple(out)


def divisibility(dims, twists) -> bool:
    """n_i + 1 divides every coefficient of c_1(xi_i), at every stage."""
    return all(
        all(c % (n + 1) == 0 for c in c1_vector(dims, twists, i))
        for i, n in enumerate(dims)
    )


def wide_twist_free(dims, twists) -> bool:
    """No stage is twisted over a stage of fiber dimension > 1."""
    return all(
        row[k] == 0
        for rows in twists
        for row in rows
        for k in range(len(row))
        if dims[k] > 1
    )


def poincare_ranks(dims) -> tuple[int, ...]:
    """Ranks of the even cohomology, by counting basis monomials
    x^e, 0 <= e_i <= n_i, one degree at a time."""
    counts = [0] * (sum(dims) + 1)
    for e in itertools.product(*(range(n + 1) for n in dims)):
        counts[sum(e)] += 1
    return tuple(counts)


def z_vectors(dims, twists) -> list[tuple[int, ...]]:
    """Primitive integer vector of (n_i + 1) x_i + c_1(xi_i), per stage."""
    out = []
    for i, n in enumerate(dims):
        vec = list(c1_vector(dims, twists, i))
        vec[i] += n + 1
        g = math.gcd(*vec)
        out.append(tuple(v // g for v in vec))
    return out


def known_witness(dims, twists, product_is_source: bool):
    """An explicit isomorphism between the product ring and this
    (Q-trivial) tower's ring, as a matrix whose column j is the image
    of source generator j.  From the product, column j is z_j; towards
    it, the inverse matrix with each row scaled to a primitive integer
    vector (scaling a product generator is an automorphism)."""
    h = len(dims)
    cols = z_vectors(dims, twists)
    forward = [[cols[j][i] for j in range(h)] for i in range(h)]
    if product_is_source:
        return forward
    inv = _inverse(forward)
    out = []
    for row in inv:
        den = math.lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        out.append([x // g for x in ints])
    return out


def _inverse(m):
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


class SympyRing:
    """Q[x_1..x_h] / (r_1..r_h), r_i = x_i * prod_j (x_i + l_ij), with
    membership decided by a lex Groebner basis computed by sympy."""

    def __init__(self, dims, twists):
        import sympy

        self.dims = tuple(dims)
        self.twists = twists
        self.gens = sympy.symbols(f"x1:{len(dims) + 1}")
        self.relations = []
        for i, rows in enumerate(twists):
            rel = self.gens[i]
            for row in rows:
                rel *= self.gens[i] + self.linear(row)
            self.relations.append(rel.expand())
        self.basis = sympy.groebner(
            self.relations, *reversed(self.gens), order="lex", domain="QQ"
        )

    def linear(self, coeffs):
        return sum((a * x for a, x in zip(coeffs, self.gens)), 0)

    def is_zero(self, expr) -> bool:
        return self.basis.reduce(expr.expand())[1] == 0

    def q_trivial(self) -> bool:
        return all(
            self.is_zero(
                ((n + 1) * self.gens[i]
                 + self.linear(c1_vector(self.dims, self.twists, i))) ** (n + 1)
            )
            for i, n in enumerate(self.dims)
        )


def classify(dims, twists) -> tuple[bool, bool]:
    """(Q-trivial, Z-trivial) by the paper's criterion, through sympy."""
    q = SympyRing(dims, twists).q_trivial()
    return q, q and divisibility(dims, twists)


def verify_witness(matrix, src, tgt, over_integers: bool) -> str | None:
    """None if `matrix` (column j = image of source generator j) is a
    degree-2 ring isomorphism from tower `src` to tower `tgt`, else the
    reason it is not.  src and tgt are (dims, twists) pairs."""
    h = len(src[0])
    if len(matrix) != h or any(len(row) != h for row in matrix):
        return f"witness is not {h} x {h}"
    if poincare_ranks(src[0]) != poincare_ranks(tgt[0]):
        return "Poincare ranks differ"
    import sympy

    det = sympy.Matrix(matrix).det()
    if over_integers and abs(det) != 1:
        return f"det {det} is not +-1"
    if det == 0:
        return "det is 0"
    ring = SympyRing(*tgt)
    src_ring = SympyRing(*src)
    images = {
        src_ring.gens[j]: ring.linear([matrix[i][j] for i in range(h)])
        for j in range(h)
    }
    for k, rel in enumerate(src_ring.relations, start=1):
        if not ring.is_zero(rel.xreplace(images)):
            return f"relation {k} does not map to 0"
    return None
