"""Cohomology ring of a tower: presentation, Chern classes, normal form.

For a tower of height h the integral cohomology ring is the quotient of
Z[x_1, ..., x_h] (deg x_i = 2) by the h relations

    r_i = x_i * prod_{j=1..n_i} (l_ij + x_i),
    l_ij = sum_{k<i} a^i_{jk} x_k,

equivalently r_i = x_i^(n_i+1) + c_1(xi_i) x_i^(n_i) + ... + c_n(xi_i) x_i
where c_k(xi_i) is the k-th elementary symmetric polynomial of the l_ij.
The quotient is a free module on the monomials {x^e : 0 <= e_i <= n_i},
and because c_k(xi_i) only involves x_1..x_(i-1), the relations form a
triangular rewriting system: eliminating the highest stage index first,
the rewrite x_i^(n_i+1) -> -(c_1 x_i^(n_i) + ... + c_n x_i) terminates
and lands on the unique basis-supported normal form.  No Groebner
machinery is needed.

Because the quotient is a free module on that basis, multiplication by
each generator X_i is a fixed linear map on it.  `CohomRing.mult_table`
holds these maps, built on first use: for each i and each basis monomial
x^b, the normal form of X_i * x^b as sparse (basis index, coefficient)
pairs.  A product of linear forms, such as the image of a relation
under a degree-2 map or a stage's Chern class, is then computed by
applying one such map per factor (`times_form`), with no substitution
and no rewriting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .backend import kernel as _k
from .errors import DimensionMismatch
from .poly import Polynomial, default_names
from .tower import TowerSpec


@dataclass(frozen=True)
class ChernData:
    """Chern classes c_0..c_{n_i} of one stage bundle, embedded in the
    full generator set; c_0 = 1 and c_k = 0 for k > n_i by convention."""

    stage: int
    classes: tuple[Polynomial, ...]

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
        return Polynomial.zero(self.classes[0].nvars)


def chern_classes(t: TowerSpec, stage: int) -> ChernData:
    """Chern classes of the stage bundle: c_k is the k-th elementary
    symmetric polynomial of the linear forms given by the stage's
    coefficient rows.  Stage 1 sits over a point, so its total class
    is 1."""
    if not 1 <= stage <= t.height:
        raise IndexError(f"stage {stage} out of range 1..{t.height}")
    h = t.height
    elementary = [_k.punit(h)]
    for row in t.stages[stage - 1].coeffs:
        form = {}
        for k, a in enumerate(row):
            if a:
                e = [0] * h
                e[k] = 1
                form[tuple(e)] = a
        new = [elementary[0]]
        for k in range(1, len(elementary) + 1):
            prev = elementary[k] if k < len(elementary) else {}
            new.append(_k.padd(prev, _k.pmul(elementary[k - 1], form)))
        elementary = new
    classes = tuple(Polynomial._wrap(d, h) for d in elementary)
    return ChernData(stage=stage, classes=classes)


class CohomRing:
    """Quotient-ring presentation of a tower's cohomology.

    Immutable after construction apart from the lazily built basis and
    multiplication table, which are pure functions of the tower;
    `normal_form` is a pure function of its input, so instances can be
    shared freely across threads or processes.
    """

    def __init__(self, tower: TowerSpec):
        self.tower = tower
        self.nvars = tower.height
        self.caps = tower.dims  # max basis exponent per generator
        self.chern = tuple(
            chern_classes(tower, i) for i in range(1, tower.height + 1)
        )
        relations = []
        tails = []
        for i in range(1, tower.height + 1):
            n = tower.dims[i - 1]
            xi = Polynomial.variable(i, self.nvars)._terms
            rel = dict(xi)
            for row in tower.stages[i - 1].coeffs:
                form = dict(xi)
                for k, a in enumerate(row):
                    if a:
                        e = [0] * self.nvars
                        e[k] = 1
                        form[tuple(e)] = a
                rel = _k.pmul(rel, form)
            relations.append(Polynomial._wrap(rel, self.nvars))
            lead = [0] * self.nvars
            lead[i - 1] = n + 1
            # x_i^(n+1) = r_i - (lower order) => rewrite target is lead - r_i
            tails.append(_k.psub({tuple(lead): 1}, rel))
        self.relations = tuple(relations)
        self._tails = tuple(tails)
        self._basis = None
        self._table = None

    # -- reduction ----------------------------------------------------------

    def _reduce(self, terms: dict) -> dict:
        out = _k.preduce(terms, self.caps, self._tails)
        assert self._supported(out), "normal form left the monomial basis"
        return out

    def _supported(self, terms: dict) -> bool:
        caps = self.caps
        for e in terms:
            for i, cap in enumerate(caps):
                if e[i] > cap:
                    return False
        return True

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
        return Polynomial._wrap(self._reduce(p._terms), self.nvars)

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

    def mult_table(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """table[i][b] is the normal form of X_(i+1) * x^basis[b] as
        sparse (basis index, coefficient) pairs, where basis is
        `basis_exponents()`; h * prod(n_i + 1) entries, built on first
        use and kept on the ring.

        The maps are built in generator order and each takes one normal
        form, that of X_i^(n_i+1); every other entry is a basis
        monomial, a shift of that normal form, or an earlier map applied
        to an earlier entry of the same map."""
        if self._table is None:
            basis = self.basis_exponents()
            index = {e: b for b, e in enumerate(basis)}
            table = []
            for i, cap in enumerate(self.caps):
                lead = (0,) * i + (cap + 1,) + (0,) * (self.nvars - i - 1)
                # normal form of x_i^(cap+1); it involves x_1..x_i only
                top = _k.preduce({lead: 1}, self.caps, self._tails)
                rows = []
                for e in basis:
                    if e[i] < cap:  # X_i * x^e is a basis monomial
                        rows.append(((index[e[:i] + (e[i] + 1,) + e[i + 1:]], 1),))
                        continue
                    k = 0
                    while k < i and not e[k]:
                        k += 1
                    if k == i:
                        # x^e = x_i^cap times generators above i, which
                        # the terms of `top` do not involve
                        rows.append(tuple(
                            (index[m[:i + 1] + e[i + 1:]], c) for m, c in top.items()
                        ))
                        continue
                    # X_i * x^e = X_k * (X_i * x^(e - e_k)): an earlier
                    # row (lower degree) and a map built already
                    below = rows[index[e[:k] + (e[k] - 1,) + e[k + 1:]]]
                    unit = (0,) * k + (1,)
                    rows.append(tuple(times_form(table, dict(below), unit).items()))
                table.append(tuple(rows))
            self._table = tuple(table)
        return self._table

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


def times_form(table, vec: dict, form) -> dict:
    """vec * sum_i form[i] X_(i+1) for a sparse basis vector vec (a dict
    basis index -> nonzero coefficient) of the ring whose `mult_table`
    is `table`; `form` may be shorter than the number of generators."""
    out: dict = {}
    for i, w in enumerate(form):
        if w:
            rows = table[i]
            for b, c in vec.items():
                cw = c * w
                for t, tc in rows[b]:
                    out[t] = out.get(t, 0) + cw * tc
    return {t: c for t, c in out.items() if c}


def build_ring(t: TowerSpec) -> CohomRing:
    return CohomRing(t)


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
