"""Pure-Python kernels for exact sparse polynomial arithmetic.

A polynomial is a plain dict mapping exponent tuples to nonzero rational
coefficients:

    {(e_1, ..., e_h): c, ...}

where each exponent is a non-negative int and c is either an int or a
``fractions.Fraction`` in lowest terms.  Integer-valued coefficients are
stored as plain ints so the common all-integer computations stay on
CPython's fast integer path; a Fraction appears only when a denominator
is genuinely needed.  The two kinds mix freely: int and Fraction compare
and hash consistently, so dict equality is canonical-form equality and
no function here ever needs to care which kind it is holding.

The zero polynomial is the empty dict.  No stored coefficient is ever
zero; every function below preserves that.

`preduce` (triangular rewriting) and `psubst` (substitution) are no
longer on any library path: rings multiply through their tables (see
gbott.cohomology).  They stay here as the reference routes the tests and
the benchmark's per-layer counters read.
"""


def punit(nvars):
    """The constant polynomial 1 in `nvars` generators."""
    return {(0,) * nvars: 1}


def padd(a, b):
    """a + b."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def psub(a, b):
    """a - b."""
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def pneg(a):
    """-a."""
    return {e: -c for e, c in a.items()}


def pscale(a, c):
    """c * a for a scalar c (exact; c may be int or Fraction)."""
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def pmul(a, b):
    """a * b by distributing over all term pairs."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def ppow(a, k, nvars):
    """a ** k by repeated multiplication; k must be >= 0, a**0 = 1."""
    if k < 0:
        raise ValueError("exponent must be non-negative")
    out = punit(nvars)
    for _ in range(k):
        out = pmul(out, a)
    return out


def preduce(p, caps, tails):
    """Normal form of p under the triangular rewrites
    x_i^(caps[i]+1) -> tails[i].

    tails[i] may only involve generators with index <= i and has
    x_i-exponents <= caps[i], so rewriting x_i strictly lowers the
    x_i-exponent while leaving all higher indices untouched; processing
    indices from high to low therefore terminates with every exponent
    within its cap.
    """
    cur = dict(p)
    for i in range(len(caps) - 1, -1, -1):
        cap = caps[i]
        tail = tails[i]
        step = cap + 1
        pending = [e for e in cur if e[i] > cap]
        while pending:
            e = pending.pop()
            c = cur.pop(e, 0)
            if not c:
                # already cancelled or merged away by an earlier rewrite
                continue
            rem = e[:i] + (e[i] - step,) + e[i + 1:]
            for te, tc in tail.items():
                ne = tuple(x + y for x, y in zip(rem, te))
                s = cur.get(ne, 0) + c * tc
                if s:
                    cur[ne] = s
                    if ne[i] > cap:
                        pending.append(ne)
                else:
                    cur.pop(ne, None)
    return cur


def psubst(p, images, nvars_out):
    """Substitute generator j -> images[j] (a polynomial dict over
    `nvars_out` generators) into p.  Powers of each image are cached per
    call, so repeated exponents cost one multiplication each.
    """
    unit = (0,) * nvars_out
    caches = [{1: img} for img in images]
    out = {}
    for e, c in p.items():
        term = {unit: c}
        for j, ej in enumerate(e):
            if not ej:
                continue
            term = pmul(term, _power(images[j], ej, caches[j], nvars_out))
            if not term:
                break
        for ne, nc in term.items():
            s = out.get(ne, 0) + nc
            if s:
                out[ne] = s
            elif ne in out:
                del out[ne]
    return out


def _power(base, k, cache, nvars):
    got = cache.get(k)
    if got is not None:
        return got
    if k == 0:
        r = {(0,) * nvars: 1}
    else:
        r = pmul(_power(base, k - 1, cache, nvars), base)
    cache[k] = r
    return r
