"""Invariants of the pure-Python polynomial kernel."""

import random
from fractions import Fraction

from gbott import CohomRing, Polynomial, StageSpec, TowerSpec
from gbott import _kernel_py as kernel


def random_poly(rng, nvars, max_terms=6, max_exp=3, rational=False):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = tuple(rng.randrange(max_exp + 1) for _ in range(nvars))
        c = rng.randrange(-9, 10)
        if rational and rng.random() < 0.5:
            c = Fraction(c, rng.randrange(1, 7))
        if c:
            terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}


def test_arithmetic_identities_on_random_inputs():
    rng = random.Random(20240811)
    for _ in range(200):
        nvars = rng.randrange(1, 4)
        a = random_poly(rng, nvars, rational=True)
        b = random_poly(rng, nvars, rational=True)
        c = random_poly(rng, nvars, rational=True)
        assert kernel.psub(kernel.padd(a, b), b) == a
        assert kernel.padd(a, kernel.pneg(a)) == {}
        assert kernel.pscale(a, -1) == kernel.pneg(a)
        assert kernel.pmul(a, b) == kernel.pmul(b, a)
        assert kernel.pmul(a, kernel.padd(b, c)) == kernel.padd(
            kernel.pmul(a, b), kernel.pmul(a, c)
        )
        k = rng.randrange(1, 4)
        assert kernel.ppow(a, k, nvars) == kernel.pmul(kernel.ppow(a, k - 1, nvars), a)


def test_reduction_agrees_with_the_table_normal_form():
    """Rewriting x2^4 -> -x1*x2^3 and x1^3 -> 0 lands on the normal form
    that the twisted pair's ring computes through its table."""
    rng = random.Random(7)
    caps = (2, 3)
    tails = ({}, {(1, 3): -1})
    ring = CohomRing(TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (1,))))))
    for _ in range(100):
        p = random_poly(rng, 2, max_terms=8, max_exp=6)
        out = kernel.preduce(p, caps, tails)
        assert all(e[i] <= caps[i] for e in out for i in range(2))
        assert kernel.preduce(out, caps, tails) == out
        assert out == dict(ring.normal_form(Polynomial(2, p)).terms)


def test_substitution_expands_each_term():
    rng = random.Random(99)
    for _ in range(100):
        p = random_poly(rng, 2, max_terms=5, max_exp=4)
        images = [random_poly(rng, 2, max_terms=2, max_exp=1) for _ in range(2)]
        expected = {}
        for e, c in p.items():
            term = kernel.pscale(kernel.ppow(images[0], e[0], 2), c)
            term = kernel.pmul(term, kernel.ppow(images[1], e[1], 2))
            expected = kernel.padd(expected, term)
        assert kernel.psubst(p, images, 2) == expected


def test_no_zero_coefficients_survive():
    out = kernel.padd({(1,): 2}, {(1,): -2})
    assert out == {}
    out = kernel.pmul({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1})
    assert out == {(2,): 1, (0,): -1}
