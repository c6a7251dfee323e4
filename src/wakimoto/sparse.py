"""Sparse exact vectors: {key: coefficient} dicts that hold no zero entry.

Mode monomials, PBW monomials, polynomials, Weyl-algebra terms and Fock
vectors are all added, scaled and pruned here.  Coefficients keep the type
they are given (int or Fraction).
"""


def add_into(out, src, scale=1):
    """In-place out += scale * src, pruning zeros."""
    if scale == 1:
        for m, c in src.items():
            v = out.get(m)
            v = c if v is None else v + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
    else:
        for m, c in src.items():
            sc = scale * c
            v = out.get(m)
            v = sc if v is None else v + sc
            if v:
                out[m] = v
            elif m in out:
                del out[m]


def add_term(out, key, c):
    """In-place out[key] += c, pruning a zero."""
    v = out.get(key)
    v = c if v is None else v + c
    if v:
        out[key] = v
    elif key in out:
        del out[key]


def added(a, b, scale=1):
    """a + scale * b as a new dict."""
    out = dict(a)
    add_into(out, b, scale)
    return out


def scaled(a, c):
    """c * a as a new dict."""
    return {m: c * x for m, x in a.items()} if c else {}


def add_nested(out, key, p, scale=1):
    """In-place out[key] += scale * p for a dict whose values are sparse
    vectors.  The inner dict is copied before adding, so a vector that two
    dicts share is never changed through either."""
    inner = dict(out.get(key, ()))
    add_into(inner, p, scale)
    if inner:
        out[key] = inner
    elif key in out:
        del out[key]
