"""Exact multivariate polynomials with rational coefficients.

`Polynomial` wraps the kernel term dicts (see gbott._kernel_py) in an
immutable value type over a fixed number of generators x_1, ..., x_h.
Generators are 1-based to match the usual tower-stage subscripts; each
generator has cohomological degree 2, so a monomial of exponent degree d
represents a class of degree 2d.

Coefficients are exact: int, or Fraction in lowest terms.  There is no
separate integer polynomial type; `is_integral()` reports whether every
coefficient has denominator 1.

Text form: terms are sorted by total degree and then lexicographically
by exponent tuple, joined with " + "/" - ", with unit coefficients and
unit exponents omitted, e.g. "y^4 + x*y^3" or "1/2*x1*x2^2".
"""

from __future__ import annotations

import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from . import _kernel_py as _k
from .errors import DimensionMismatch, PolynomialSyntaxError

Coefficient = int | Fraction


def _term_key(item):
    return (sum(item[0]), item[0])


def _canon_coeff(c) -> Coefficient:
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def default_names(nvars: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, nvars + 1))


class Polynomial:
    """An exact polynomial in a fixed set of generators.

    Instances are immutable after construction and safe to share across
    threads.  Equality is equality of canonical term maps.
    """

    __slots__ = ("_terms", "_nvars")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Coefficient] = ()):
        if nvars < 0:
            raise ValueError("generator count must be non-negative")
        canon: dict[tuple[int, ...], Coefficient] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            e = tuple(exps)
            if len(e) != nvars:
                raise DimensionMismatch(
                    f"monomial {e} has {len(e)} exponents, expected {nvars}"
                )
            if any(x < 0 or not isinstance(x, int) for x in e):
                raise ValueError(f"exponents must be non-negative ints: {e}")
            c = _canon_coeff(coeff)
            s = canon.get(e, 0) + c
            if s:
                canon[e] = s
            elif e in canon:
                del canon[e]
        self._terms = canon
        self._nvars = nvars

    @classmethod
    def _wrap(cls, terms: dict, nvars: int) -> "Polynomial":
        # Fast path for kernel outputs, which are already canonical.
        self = object.__new__(cls)
        self._terms = terms
        self._nvars = nvars
        return self

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._wrap({}, nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls._wrap(_k.punit(nvars), nvars)

    @classmethod
    def constant(cls, value: Coefficient, nvars: int) -> "Polynomial":
        c = _canon_coeff(value)
        return cls._wrap({(0,) * nvars: c} if c else {}, nvars)

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Polynomial":
        """The generator x_index (1-based)."""
        if not 1 <= index <= nvars:
            raise IndexError(f"generator index {index} out of range 1..{nvars}")
        e = [0] * nvars
        e[index - 1] = 1
        return cls._wrap({tuple(e): 1}, nvars)

    @classmethod
    def linear(cls, coeffs: Iterable[Coefficient]) -> "Polynomial":
        """sum_j coeffs[j] * x_(j+1)."""
        coeffs = list(coeffs)
        n = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            c = _canon_coeff(c)
            if c:
                e = [0] * n
                e[j] = 1
                terms[tuple(e)] = c
        return cls._wrap(terms, n)

    # -- accessors ---------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> Mapping[tuple[int, ...], Coefficient]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exponents: Iterable[int]) -> Coefficient:
        return self._terms.get(tuple(exponents), 0)

    def linear_coefficients(self) -> tuple[Coefficient, ...]:
        """Coefficients (b_1, ..., b_h) of the degree-1 part."""
        out = []
        for j in range(self._nvars):
            e = [0] * self._nvars
            e[j] = 1
            out.append(self._terms.get(tuple(e), 0))
        return tuple(out)

    def is_integral(self) -> bool:
        """True iff every coefficient has denominator 1."""
        return all(c.denominator == 1 for c in self._terms.values())

    def total_degree(self) -> int:
        """Largest exponent degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def homogeneous_degree(self) -> int | None:
        """The common exponent degree of all terms, or None if mixed or
        zero.  Cohomological degree is twice this."""
        degs = {sum(e) for e in self._terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def extended(self, nvars: int) -> "Polynomial":
        """The same polynomial viewed in a larger generator set."""
        if nvars < self._nvars:
            raise DimensionMismatch(
                f"cannot shrink from {self._nvars} to {nvars} generators"
            )
        if nvars == self._nvars:
            return self
        pad = (0,) * (nvars - self._nvars)
        return Polynomial._wrap({e + pad: c for e, c in self._terms.items()}, nvars)

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self._nvars != other._nvars:
            raise DimensionMismatch(
                f"operands have {self._nvars} and {other._nvars} generators"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        return Polynomial._wrap(_k.padd(self._terms, other._terms), self._nvars)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        return Polynomial._wrap(_k.psub(self._terms, other._terms), self._nvars)

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(_k.pneg(self._terms), self._nvars)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_dim(other)
            return Polynomial._wrap(_k.pmul(self._terms, other._terms), self._nvars)
        if isinstance(other, (int, Fraction)):
            return Polynomial._wrap(
                _k.pscale(self._terms, _canon_coeff(other)), self._nvars
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("exponent must be non-negative")
        return Polynomial._wrap(_k.ppow(self._terms, k, self._nvars), self._nvars)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._nvars, frozenset(self._terms.items())))

    # -- text form ---------------------------------------------------------

    def serialize(self, names: Iterable[str] | None = None) -> str:
        if not self._terms:
            return "0"
        names = tuple(names) if names is not None else default_names(self._nvars)
        if len(names) != self._nvars:
            raise DimensionMismatch(
                f"{len(names)} names for {self._nvars} generators"
            )
        parts = []
        for e, c in sorted(self._terms.items(), key=_term_key):
            mono = "*".join(
                n if x == 1 else f"{n}^{x}" for n, x in zip(names, e) if x
            )
            neg = c < 0
            a = -c if neg else c
            if mono and a == 1:
                body = mono
            elif mono:
                body = f"{_coeff_str(a)}*{mono}"
            else:
                body = _coeff_str(a)
            parts.append(("-" if neg else "+", body))
        sign0, body0 = parts[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.serialize()

    def __repr__(self) -> str:
        return f"Polynomial({self._nvars}, {self.serialize()!r})"


def _coeff_str(c: Coefficient) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^]))"
)


def parse_polynomial(
    text: str,
    nvars: int | None = None,
    names: Iterable[str] | None = None,
) -> Polynomial:
    """Parse the text form produced by Polynomial.serialize.

    Either `names` (the generator names, in order) or `nvars` (implying
    names x1..xn) must be given.
    """
    if names is not None:
        names = tuple(names)
        if nvars is not None and nvars != len(names):
            raise DimensionMismatch("nvars disagrees with len(names)")
        nvars = len(names)
    elif nvars is not None:
        names = default_names(nvars)
    else:
        raise TypeError("parse_polynomial needs nvars or names")
    index = {n: i for i, n in enumerate(names)}

    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise PolynomialSyntaxError(
                    f"unexpected character {text[pos:].strip()[0]!r} at offset {pos}"
                )
            break
        tokens.append(m)
        pos = m.end()

    terms: dict[tuple[int, ...], Coefficient] = {}
    i = 0
    n_tok = len(tokens)

    def peek_op():
        if i < n_tok and tokens[i].lastgroup == "op":
            return tokens[i].group("op")
        return None

    first = True
    while i < n_tok:
        sign = 1
        op = peek_op()
        if op in ("+", "-"):
            if op == "-":
                sign = -1
            i += 1
        elif not first:
            raise PolynomialSyntaxError("expected '+' or '-' between terms")
        first = False

        coeff: Coefficient = sign
        exps = [0] * nvars
        expect_factor = True
        while expect_factor:
            if i >= n_tok:
                raise PolynomialSyntaxError("unexpected end of input in term")
            tok = tokens[i]
            if tok.lastgroup == "int":
                num = int(tok.group("int"))
                i += 1
                if peek_op() == "/":
                    i += 1
                    if i >= n_tok or tokens[i].lastgroup != "int":
                        raise PolynomialSyntaxError("expected integer denominator")
                    den = int(tokens[i].group("int"))
                    i += 1
                    if den == 0:
                        raise PolynomialSyntaxError("zero denominator")
                    coeff = coeff * Fraction(num, den)
                else:
                    coeff = coeff * num
            elif tok.lastgroup == "name":
                name = tok.group("name")
                if name not in index:
                    raise PolynomialSyntaxError(f"unknown generator {name!r}")
                i += 1
                power = 1
                if peek_op() == "^":
                    i += 1
                    if i >= n_tok or tokens[i].lastgroup != "int":
                        raise PolynomialSyntaxError("expected integer exponent")
                    power = int(tokens[i].group("int"))
                    i += 1
                exps[index[name]] += power
            else:
                raise PolynomialSyntaxError(
                    f"unexpected {tok.group('op')!r} in term"
                )
            if peek_op() == "*":
                i += 1
                expect_factor = True
            else:
                expect_factor = False

        e = tuple(exps)
        c = _canon_coeff(coeff)
        s = terms.get(e, 0) + c
        if s:
            terms[e] = s
        elif e in terms:
            del terms[e]

    return Polynomial._wrap(terms, nvars)
