"""Sums and products of {key: coefficient} dicts over integer numerators and packed int
keys, for `ClosedForm` (keys `Mono`) and `TruncSeries` (exponent tuples), which pass in
their `Keys` and `ratio`: a numerator over a denominator, in their scalar type."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm


class Keys(dict):
    """A packing of keys into ints that add as the keys multiply (Kronecker substitution), as a
    table both ways.  A subclass gives `pack(key)`, which raises OverflowError unless the key
    fits as a factor, and `unpack(int)`; a decoded key is checked when it comes back as one."""
    __hash__, __eq__ = object.__hash__, object.__eq__

    def __missing__(self, x):
        self[x] = y = self.unpack(x) if type(x) is int else self.pack(x)
        if type(x) is not int:
            self[y] = x
        return y


def times(c, k: int):
    """c * k for an int k that c's denominator divides: an int when c is rational."""
    return c.numerator * (k // c.denominator) if type(c) is Fraction else c * k


def acc(out: dict, key, c) -> None:
    """out[key] += c, dropped when it cancels."""
    if c:
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)


def power(base, n: int, one):
    """base ** n for an int n >= 0, by repeated squaring from `one` while n has bits left."""
    out = one
    while n:
        if n & 1:
            out = out * base
        if n := n >> 1:
            base = base * base
    return out


def view(form, attr: str, depth=None, keys: Keys | None = None, raw: bool = False) -> tuple:
    """(D, [(key, c * D)], depths) of the form's dict `attr`, D the lcm of its denominators
    (raw: c over D = 1), sorted by an additive `depth` of its keys and with the keys packed
    by `keys`, each if given; cached in the form's `_view`."""
    if (views := getattr(form, "_view", None)) is None:
        object.__setattr__(form, "_view", views := {})
    out = views.get((depth, keys, raw))
    if out is None:
        terms = getattr(form, attr)
        d = 1 if raw else lcm(*[c.denominator for c in terms.values() if type(c) is Fraction])
        items = sorted(terms.items(), key=lambda t: depth(t[0])) if depth else terms.items()
        out = views[(depth, keys, raw)] = (
            d, [(k if keys is None else keys[k], c if raw else times(c, d)) for k, c in items],
            depth and [depth(k) for k, _ in items])
    return out


def sum_of_products(work: list, keys: Keys, ratio, cut=None) -> dict:
    """The sum of scale * f * g over work = [(scale, f's view, g's view)], packed by `keys`, as
    {key: ratio(num, den)}, den the lcm of all denominators.  A `cut` (g's view in depth order)
    keeps the pairs of depth <= cut.cap; a left view in depth order stops at its first term
    with none, and one with no depths takes `cut.depth` of its packed keys."""
    den = lcm(*(v1[0] * v2[0] * getattr(scale, "denominator", 1) for scale, v1, v2 in work))
    out: dict = {}
    for scale, (d1, left, depths1), (d2, right, depths2) in work:
        k = times(scale, den // (d1 * d2))
        for i, (m1, c1) in enumerate(left):
            part = right if cut is None else right[:bisect_right(
                depths2, cut.cap - (depths1[i] if depths1 else cut.depth(m1)))]
            if depths1 and not part:
                break
            c1 *= k
            for m2, c2 in part:
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
    return {keys[m]: ratio(c, den) for m, c in out.items() if c}


def scaled_sum(pairs, attr: str, keys: Keys, ratio) -> dict:
    """The sum of scale * f over (scale, f) pairs, f's dict its attribute `attr`: the others
    add their views, packed by `keys`, into a copy of the first summand if its scale is 1."""
    (scale, first), *rest = pairs
    out = dict(getattr(first, attr)) if scale == 1 else {}
    if scale != 1:
        rest.insert(0, (scale, first))
    work = [(s, view(f, attr, None, keys)) for s, f in rest if s and getattr(f, attr)]
    den = lcm(*(v[0] * getattr(s, "denominator", 1) for s, v in work))
    sums: dict = {}
    for s, (d, items, _) in work:
        k = times(s, den // d)
        for key, c in items:
            acc(sums, key, c * k)
    for key, c in sums.items():
        key = keys[key]
        c0 = out.get(key, 0)
        q = getattr(c0, "denominator", 1)   # fold c0 in, over den times its denominator
        if c := ratio(c * q + times(c0, den * q), den * q):
            out[key] = c
        else:
            del out[key]
    return out
