"""Cohomology ring of a tower: presentation, Chern classes, normal form.

For a tower of height h the integral cohomology ring is the quotient of
Z[x_1, ..., x_h] (deg x_i = 2) by the h relations

    r_i = x_i * prod_{j=1..n_i} (l_ij + x_i),
    l_ij = sum_{k<i} a^i_{jk} x_k,

equivalently r_i = x_i^(n_i+1) + c_1(xi_i) x_i^(n_i) + ... + c_n(xi_i) x_i
where c_k(xi_i) is the k-th elementary symmetric polynomial of the l_ij.
The quotient is a free module on the monomials {x^e : 0 <= e_i <= n_i}.

Because c_k(xi_i) only involves x_1..x_(i-1), the ring R_i of the
height-i prefix is a block extension of R_(i-1):

    R_i = R_(i-1)[x_i] / (x_i^(n+1) + c_1 x_i^n + ... + c_n x_i),

free over R_(i-1) on 1, x_i, ..., x_i^n.  Multiplication by each
generator X_k is a fixed linear map on the basis, and the table of these
maps is built one stage at a time (`extend_table`): R_(i-1)'s maps are
copied once per power of x_i, X_i shifts x_i^p to x_i^(p+1), and X_i
wraps x_i^(n+1) round to -(c_1 x_i^n + ... + c_n x_i), the c_k being
sparse vectors of R_(i-1) (`stage_classes`).  No polynomial is
rewritten.  The extension numbers the basis in block order, index
p * rank(R_(i-1)) + b for x_i^p times R_(i-1)'s basis monomial b.
`CohomRing.block_table` folds it over the stages.  Index 0 is the unit,
and whether a product is zero, or two vectors equal, does not depend on
how the basis is numbered; so the search and the ring decisions of
`triviality.full_report` work on block-order tables (of a tower's
prefix, for the latter), and no basis-order table is ever built.

A product of linear forms, such as the image of a relation under a
degree-2 map or a stage's Chern class, is computed by applying one map
per factor (`times_form`).  `CohomRing.normal_form` reads the table too:
the vector of a monomial x^e is that of x^(e - e_m) under X_m, memoised
on the ring.  The polynomial presentation (`relations`, `chern`,
`polynomial`, `normal_form`, `report`, `chern_classes`) is only for
display and for the tests' independent references, so a ring builds it
on first use, and this module loads gbott.poly (with `fractions`) and
the term kernel only then: a ring made only to be searched or decided
never builds it, and a program that only searches or decides never
loads them.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._base import Frozen, _set, default_names
from .errors import DimensionMismatch
from .tower import TowerSpec


class ChernData(Frozen):
    """Chern classes c_0..c_{n_i} of one stage bundle, embedded in the
    full generator set; c_0 = 1 and c_k = 0 for k > n_i by convention."""

    __slots__ = ("stage", "classes")

    def __init__(self, stage: int, classes: tuple[Polynomial, ...]):
        _set(self, "stage", stage)
        _set(self, "classes", classes)

    def total(self) -> Polynomial:
        out = self.classes[0]
        for c in self.classes[1:]:
            out = out + c
        return out

    def c(self, k: int) -> Polynomial:
        """c_k, with the zero convention above the bundle rank."""
        if k < 0:
            raise IndexError("negative Chern index")
        if k < len(self.classes):
            return self.classes[k]
        from .poly import Polynomial

        return Polynomial.zero(self.classes[0].nvars)


def chern_classes(t: TowerSpec, stage: int) -> ChernData:
    """Chern classes of the stage bundle: c_k is the k-th elementary
    symmetric polynomial of the linear forms given by the stage's
    coefficient rows.  Stage 1 sits over a point, so its total class
    is 1."""
    if not 1 <= stage <= t.height:
        raise IndexError(f"stage {stage} out of range 1..{t.height}")
    from .poly import Polynomial

    h = t.height
    classes = [Polynomial.one(h)]  # c_0..c_j of the first j rows
    for row in t.stages[stage - 1].coeffs:
        form = Polynomial.linear(row).extended(h)
        classes = [classes[0]] + [
            classes[k] + classes[k - 1] * form for k in range(1, len(classes))
        ] + [classes[-1] * form]
    return ChernData(stage=stage, classes=tuple(classes))


class CohomRing:
    """Quotient-ring presentation of a tower's cohomology.

    Holds only the tower until asked for more: the basis, the
    multiplication table, the monomial vectors behind `normal_form` and
    the polynomial presentation are each built on first use and kept.
    All are pure functions of the tower, so instances can be shared
    freely across threads or processes.
    """

    def __init__(self, tower: TowerSpec):
        self.tower = tower
        self.nvars = tower.height
        self.caps = tower.dims  # max basis exponent per generator
        self._basis = None
        self._blocks = None

    # -- presentation, built on first use -----------------------------------

    @cached_property
    def chern(self) -> tuple[ChernData, ...]:
        return tuple(chern_classes(self.tower, i) for i in range(1, self.nvars + 1))

    @cached_property
    def relations(self) -> tuple[Polynomial, ...]:
        """r_i = x_i * prod_j (l_ij + x_i), one per stage."""
        from .poly import Polynomial

        out = []
        for i, stage in enumerate(self.tower.stages, start=1):
            rel = xi = Polynomial.variable(i, self.nvars)
            for row in stage.coeffs:
                rel = rel * (Polynomial.linear(row).extended(self.nvars) + xi)
            out.append(rel)
        return tuple(out)

    # -- normal form --------------------------------------------------------

    @cached_property
    def _monomials(self) -> dict:
        """Exponent tuple -> sparse block-order vector, for `_monomial`."""
        return {(0,) * self.nvars: {0: 1}}

    def _monomial(self, e: tuple[int, ...]) -> dict:
        """x^e as a sparse vector in block order: X_m applied to
        x^(e - e_m), m the last generator in e, memoised for every
        exponent on the way down to one already known."""
        vecs = self._monomials
        chain = []
        while e not in vecs:
            m = max(k for k, a in enumerate(e) if a)
            chain.append((e, m))
            e = e[:m] + (e[m] - 1,) + e[m + 1:]
        vec = vecs[e]
        table = self.block_table()
        for e, m in reversed(chain):
            vec = vecs[e] = _apply(table[m], vec)
        return vec

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The unique representative supported on the monomial basis
        {x^e : e_i <= n_i}.  Accepts polynomials in fewer generators and
        embeds them."""
        if p.nvars > self.nvars:
            raise DimensionMismatch(
                f"polynomial has {p.nvars} generators, ring has {self.nvars}"
            )
        if p.nvars < self.nvars:
            p = p.extended(self.nvars)
        acc: dict = {}
        for e, c in p._terms.items():
            for b, v in self._monomial(e).items():
                acc[b] = acc.get(b, 0) + c * v
        return self.polynomial(acc)

    def polynomial(self, vec: dict) -> Polynomial:
        """The polynomial of a sparse vector of this ring in block order
        (a vector of `block_table()`)."""
        from .poly import Polynomial

        exps = self._block_exponents
        return Polynomial._wrap({exps[b]: c for b, c in vec.items() if c}, self.nvars)

    def is_zero(self, p: Polynomial) -> bool:
        """True iff p represents the zero class.  The ring is a free
        module, so for integral p the answer is the same over Z and
        over Q."""
        return not self.normal_form(p)._terms

    # -- structure ----------------------------------------------------------

    def basis_exponents(self) -> tuple[tuple[int, ...], ...]:
        """All basis monomial exponents, sorted by (degree, tuple);
        the count is the total Betti number prod(n_i + 1)."""
        if self._basis is None:
            exps = itertools.product(*(range(c + 1) for c in self.caps))
            self._basis = tuple(sorted(exps, key=lambda e: (sum(e), e)))
        return self._basis

    @cached_property
    def _block_exponents(self) -> list[tuple[int, ...]]:
        """The basis exponents in block order: x_1 runs fastest."""
        block = [()]
        for cap in self.caps:
            block = [e + (p,) for p in range(cap + 1) for e in block]
        return block

    def block_table(self) -> tuple:
        """table[i][b] is X_(i+1) times the basis vector b in block order
        (see the module docstring), as sparse (index, coefficient) pairs,
        as the stage extension builds it; index 0 is the unit.  The
        ring's own computations and the isomorphism search work on this
        table; built on first use and kept on the ring."""
        if self._blocks is None:
            table = ()
            for i, stage in enumerate(self.tower.stages):
                table = extend_table(
                    table, self.caps[:i], stage_classes(table, stage.coeffs)
                )
            self._blocks = table
        return self._blocks

    def poincare_ranks(self) -> tuple[int, ...]:
        return poincare_ranks(self.tower)

    def report(self, names=None) -> str:
        """Text presentation: generators, relations, Poincare ranks."""
        names = tuple(names) if names is not None else default_names(self.nvars)
        lines = [
            "generators: "
            + ", ".join(f"{n} (degree 2)" for n in names)
        ]
        lines.append("relations:")
        for rel in self.relations:
            lines.append(f"  {rel.serialize(names)}")
        ranks = " ".join(str(r) for r in self.poincare_ranks())
        lines.append(f"poincare ranks: {ranks}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CohomRing(dims={self.tower.dims})"


def _apply(rows, vec: dict) -> dict:
    """The map whose table rows are `rows` applied to a sparse vector."""
    out: dict = {}
    for b, c in vec.items():
        for t, tc in rows[b]:
            out[t] = out.get(t, 0) + c * tc
    return {t: c for t, c in out.items() if c}


def times_form(table, vec: dict, form) -> dict:
    """vec * sum_i form[i] X_(i+1) for a sparse basis vector vec (a dict
    basis index -> nonzero coefficient) of the ring whose table is
    `table`; `form` may be shorter than the number of generators."""
    out: dict = {}
    for i, w in enumerate(form):
        if w:
            rows = table[i]
            for b, c in vec.items():
                cw = c * w
                for t, tc in rows[b]:
                    out[t] = out.get(t, 0) + cw * tc
    return {t: c for t, c in out.items() if c}


def _vec_add(u: dict, v: dict) -> dict:
    """u + v for sparse vectors, dropping the entries that cancel."""
    out = dict(u)
    for m, c in v.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def stage_classes(table, rows) -> list[dict]:
    """c_0..c_n of the stage whose twist rows are `rows` (n rows of i-1
    entries), as sparse basis vectors of any ring whose first generators
    are x_1..x_(i-1), given by its table: elementary symmetric functions
    of the rows' linear forms, one table map per row and class."""
    classes = [{0: 1}]  # c_0..c_j of the first j rows
    for row in rows:
        step = [times_form(table, c, row) for c in classes]
        classes = [classes[0]] + [
            _vec_add(classes[k], step[k - 1]) for k in range(1, len(classes))
        ] + [step[-1]]
    return classes


def extend_table(table, caps, classes) -> tuple:
    """The table of R_i in block order, from `table`, that of R_(i-1)
    (generators of fiber dimensions `caps`, block order), and the stage's
    classes c_0..c_n as vectors of R_(i-1) (`stage_classes`).

    Index p * N + b stands for x_i^p x^b, N = rank R_(i-1).  Each map of
    R_(i-1) is copied once per power of x_i; X_i shifts x_i^p to
    x_i^(p+1) for p < n and wraps x_i^(n+1) to -(c_1 x_i^n + ... +
    c_n x_i).  Every other wrap entry is X_m (X_i x_i^n x^(b - e_m)),
    m the first generator in x^b: an earlier map applied to an earlier
    entry of the wrap."""
    n = len(classes) - 1
    size = len(table[0]) if table else 1
    out = []
    for rows in table:
        ext = list(rows)
        for p in range(1, n + 1):
            off = p * size
            ext.extend(tuple((t + off, c) for t, c in row) for row in rows)
        out.append(ext)
    shift = [((b + size, 1),) for b in range(n * size)]
    top = {}
    for k in range(1, n + 1):
        off = (n + 1 - k) * size
        for t, c in classes[k].items():
            top[t + off] = -c
    wrap = [tuple(top.items())]
    for b in range(1, size):
        m, stride = 0, 1  # x^b = X_m x^(b - stride), m its first generator
        while (b // stride) % (caps[m] + 1) == 0:
            stride *= caps[m] + 1
            m += 1
        wrap.append(tuple(_apply(out[m], dict(wrap[b - stride])).items()))
    out.append(shift + wrap)
    return tuple(tuple(rows) for rows in out)


def poincare_ranks(t: TowerSpec) -> tuple[int, ...]:
    """Rank of the degree-2d piece for d = 0..sum(n_i): coefficients of
    prod_i (1 + t + ... + t^(n_i))."""
    ranks = [1]
    for n in t.dims:
        new = [0] * (len(ranks) + n)
        for d, r in enumerate(ranks):
            for k in range(n + 1):
                new[d + k] += r
        ranks = new
    return tuple(ranks)
