"""Truncated univariate formal power series over a coefficient domain.

A *domain* is any object exposing the kernel protocol used by
:class:`germ.fields.Field`: attributes ``p`` (the characteristic), ``zero``,
``one`` and ``vector``, methods ``add, sub, neg, mul, inv, frob,
frob_root, from_int, is_zero, is_zero_to_prec``, ``dot(pairs)``, the sum
of x*y over the (x, y) pairs, added left to right with exact zeros
skipped, and ``additive_roots(terms, q)``, the solutions z of
sum(c * z**(p**s)) = q for (s, c) in ``terms``, which raises when the
domain holds none; and three vector kernels: ``conv(a, b, n)``, the
first n+1 coefficients of the product, ``add_shifted(lo, hi, off, n)``,
the first n coefficients of lo + x**off * hi, and ``compose(outer, inner,
og, t)``, the first t+1 coefficients of outer(inner) for an inner series
of order og >= 1.  Each vector kernel takes any sequences of
coefficients and returns a new vector of the domain's one type,
``vector``, writing into no argument; a caller converts with
``vector(coeffs)`` only a vector it keeps across kernel calls, where that
saves a conversion per call.  Every series product goes through ``conv``
and every composition through the domain's ``compose``; the engine's
chain sums are ``dot`` calls.  Over an exact field the order of a sum is
free; over the t-adic domain ``conv`` and ``dot`` add each output's terms
left to right, each partial sum exactly ``add(acc, mul(x, y))``, because
the order fixes the precision of the result.  ``is_zero_to_prec`` is the
test comparisons use: true for a value that cannot be told from zero at
its precision (over a finite field, the same as ``is_zero``).  Finite
fields store coefficients as int codes; the analytic module supplies a
t-adic domain with object coefficients.

Truncation is pessimistic: ``trunc`` is the last exponent whose coefficient
is fully determined by trusted inputs, and every operation recomputes it
from the operands.
"""

from __future__ import annotations

import math

from .errors import (
    CompositionWithUnit,
    IncompatibleFields,
    NonUnitReciprocal,
    PadicObstruction,
    ValidationError,
    ZeroToPrecision,
)


def nu_p(p, n):
    """p-adic valuation of an integer; infinity for 0."""
    if n == 0:
        return math.inf
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# operands share one coefficient domain object; no embedding is attempted
def _same_dom(a, b):
    if b.dom is not a.dom:
        raise IncompatibleFields(
            f"series over different domains: {a.dom!r} and {b.dom!r}")


class Series:
    """Coefficients c_0..c_trunc over a domain; c_n for n > trunc is unknown."""

    __slots__ = ("dom", "coeffs", "trunc")

    def __init__(self, dom, coeffs, trunc=None):
        if trunc is None:
            trunc = len(coeffs) - 1
        if len(coeffs) < trunc + 1:
            coeffs = list(coeffs) + [dom.zero] * (trunc + 1 - len(coeffs))
        elif len(coeffs) > trunc + 1:
            coeffs = list(coeffs)[: trunc + 1]
        self.dom = dom
        self.coeffs = list(coeffs)
        self.trunc = trunc

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, dom, trunc):
        return cls(dom, [dom.zero] * (trunc + 1), trunc)

    @classmethod
    def const(cls, dom, value, trunc):
        s = cls.zeros(dom, trunc)
        s.coeffs[0] = value
        return s

    @classmethod
    def one(cls, dom, trunc):
        return cls.const(dom, dom.one, trunc)

    @classmethod
    def monomial(cls, dom, coeff, n, trunc):
        s = cls.zeros(dom, trunc)
        if n <= trunc:
            s.coeffs[n] = coeff
        return s

    @classmethod
    def identity(cls, dom, trunc):
        return cls.monomial(dom, dom.one, 1, trunc)

    @classmethod
    def from_ints(cls, dom, ints, trunc=None):
        return cls(dom, [dom.from_int(n) for n in ints], trunc)

    def copy(self):
        return Series(self.dom, list(self.coeffs), self.trunc)

    # -- basic queries ---------------------------------------------------------

    def coeff(self, n):
        """c_n, or exact zero beyond the stored range (caller must respect trunc)."""
        return self.coeffs[n] if n < len(self.coeffs) else self.dom.zero

    def ord_floor(self):
        """Index of the first nonzero stored coefficient, or trunc+1 if none.

        Always a valid lower bound for the true order of vanishing."""
        for i, c in enumerate(self.coeffs):
            if not self.dom.is_zero(c):
                return i
        return self.trunc + 1

    def ord(self):
        o = self.ord_floor()
        if o > self.trunc:
            raise ZeroToPrecision(
                f"all coefficients vanish to truncation {self.trunc}")
        return o

    def is_zero_to_prec(self):
        return self.ord_floor() > self.trunc

    def truncate(self, trunc):
        if trunc >= self.trunc:
            return self
        return Series(self.dom, self.coeffs[: trunc + 1], trunc)

    def extended(self, trunc):
        """Declare coefficients up to ``trunc`` exact (polynomial semantics)."""
        if trunc <= self.trunc:
            return self
        return Series(self.dom,
                      self.coeffs + [self.dom.zero] * (trunc - self.trunc),
                      trunc)

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        _same_dom(self, other)
        t = min(self.trunc, other.trunc)
        add = self.dom.add
        return Series(self.dom,
                      [add(a, b) for a, b in
                       zip(self.coeffs[: t + 1], other.coeffs[: t + 1])], t)

    def __sub__(self, other):
        _same_dom(self, other)
        t = min(self.trunc, other.trunc)
        sub = self.dom.sub
        return Series(self.dom,
                      [sub(a, b) for a, b in
                       zip(self.coeffs[: t + 1], other.coeffs[: t + 1])], t)

    def __neg__(self):
        neg = self.dom.neg
        return Series(self.dom, [neg(a) for a in self.coeffs], self.trunc)

    def mul(self, other, trunc=None):
        _same_dom(self, other)
        dom = self.dom
        o1, o2 = self.ord_floor(), other.ord_floor()
        t = min(self.trunc + o2, other.trunc + o1)
        if trunc is not None:
            t = min(t, trunc)
        if o1 + o2 > t:
            return Series.zeros(dom, t)
        # the kernel sees no leading zeros: a high power's order would
        # otherwise cost a packing pass over zeros on every product
        out = dom.conv(self.coeffs[o1:], other.coeffs[o2:], t - o1 - o2)
        return Series(dom, [dom.zero] * (o1 + o2) + list(out), t)

    def __mul__(self, other):
        return self.mul(other)

    def scale(self, c):
        mul = self.dom.mul
        return Series(self.dom, [mul(c, a) for a in self.coeffs], self.trunc)

    def shift(self, s):
        """Multiply by x**s."""
        dom = self.dom
        return Series(dom, [dom.zero] * s + self.coeffs, self.trunc + s)

    def reciprocal(self, trunc=None):
        dom = self.dom
        if dom.is_zero(self.coeffs[0]):
            raise NonUnitReciprocal("constant term is zero")
        t = self.trunc if trunc is None else min(trunc, self.trunc)
        inv0 = dom.inv(self.coeffs[0])
        out = [dom.zero] * (t + 1)
        out[0] = inv0
        sub, mul, zero = dom.sub, dom.mul, dom.is_zero
        for n in range(1, t + 1):
            acc = dom.zero
            for j in range(1, min(n, len(self.coeffs) - 1) + 1):
                c = self.coeffs[j]
                if not zero(c):
                    acc = dom.add(acc, mul(c, out[n - j]))
            out[n] = dom.neg(mul(inv0, acc))
        return Series(dom, out, t)

    def pow_int(self, h, trunc=None):
        """f**h for h >= 0, split along base-p digits of h: in characteristic p
        the factor f**(p**s) is an exact coefficientwise Frobenius dilation."""
        dom = self.dom
        if h < 0:
            raise ValidationError("negative power")
        t = self.trunc if trunc is None else trunc
        if h == 0:
            return Series.one(dom, t)
        p = dom.p
        result = None
        base = self.truncate(t)
        while h:
            h, c = divmod(h, p)
            if c:
                if base.is_zero_to_prec():
                    # a factor of order > t forces the product beyond trunc
                    return Series.zeros(dom, t)
                piece = base
                for _ in range(c - 1):
                    piece = piece.mul(base, trunc=t)
                result = piece if result is None else \
                    result.mul(piece, trunc=t)
            if h:
                base = base.frob_dilate().truncate(t)
        return result

    def frob_dilate(self):
        """f(x)**p = (Tf)(x**p): coefficientwise Frobenius plus dilation."""
        dom = self.dom
        p = dom.p
        t = self.trunc * p + p - 1
        out = [dom.zero] * (t + 1)
        frob = dom.frob
        for n, c in enumerate(self.coeffs):
            if not dom.is_zero(c):
                out[n * p] = frob(c, 1)
        return Series(dom, out, t)

    def compose(self, inner, trunc=None):
        """self(inner); needs ord(inner) >= 1."""
        _same_dom(self, inner)
        og = inner.ord_floor()
        if og < 1:
            raise CompositionWithUnit("inner series must vanish at 0")
        # t comes from the truncations, not from the outer's last nonzero
        t = min(inner.trunc, (self.trunc + 1) * og - 1)
        if trunc is not None:
            t = min(t, trunc)
        return Series(self.dom,
                      self.dom.compose(self.coeffs, inner.coeffs, og, t), t)

    def __call__(self, inner):
        return self.compose(inner)

    # -- characteristic-p specials ----------------------------------------------

    def twist(self, m=1):
        """Coefficientwise Frobenius x -> x**(p**m); the T operator for m = 1."""
        dom = self.dom
        frob = dom.frob
        return Series(dom, [frob(c, m) for c in self.coeffs], self.trunc)

    def untwist(self, m=1):
        """Coefficientwise p**m-th roots (inverse of twist)."""
        dom = self.dom
        froot = dom.frob_root
        return Series(dom, [froot(c, m) for c in self.coeffs], self.trunc)

    # -- misc --------------------------------------------------------------------

    def agree_order(self, other):
        """Smallest index where the two series provably disagree, or None up to
        the common truncation.  Differences that vanish to the coefficient
        precision cannot witness a disagreement."""
        _same_dom(self, other)
        dom = self.dom
        vanishes = dom.is_zero_to_prec
        t = min(self.trunc, other.trunc)
        for n in range(t + 1):
            a, b = self.coeff(n), other.coeff(n)
            if not vanishes(dom.sub(a, b)):
                return n
        return None

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.dom is other.dom and self.trunc == other.trunc and
                self.agree_order(other) is None)

    def __repr__(self):
        shown = []
        for n, c in enumerate(self.coeffs):
            if not self.dom.is_zero(c):
                shown.append(f"{c!r}*x^{n}")
            if len(shown) >= 6:
                shown.append("...")
                break
        body = " + ".join(shown) if shown else "0"
        return f"<Series {body} (+O(x^{self.trunc + 1}))>"


def split_frobenius(f):
    """Write f = g(x**(p**m)) with m maximal; returns (g, m).

    m is the minimum p-adic valuation over the support; g is a pure
    reindexing, so recomposing g(x**(p**m)) reproduces f exactly.
    """
    dom = f.dom
    p = dom.p
    if f.is_zero_to_prec():
        raise ZeroToPrecision("cannot split a series that vanishes to precision")
    m = math.inf
    for n, c in enumerate(f.coeffs):
        if not dom.is_zero(c):
            v = nu_p(p, n)
            if v < m:
                m = v
            if m == 0:
                break
    m = int(m)
    step = p ** m
    g = [f.coeffs[i] for i in range(0, len(f.coeffs), step)]
    return Series(dom, g, f.trunc // step), m


def binomial_coeffs(dom, a, b, count):
    """The first ``count`` characteristic-p binomial coefficients C(a/b, n).

    Computed by the product formula with incremental p-valuation bookkeeping:
    p-parts are cancelled before any reduction mod p, so nothing ever divides
    by a multiple of p.  Requires nu_p(a) >= nu_p(b).
    """
    p = dom.p
    if b == 0:
        raise ZeroDivisionError("binomial exponent denominator is zero")
    if b < 0:
        a, b = -a, -b
    if a != 0:
        va, vb = nu_p(p, a), nu_p(p, b)
        if va < vb:
            raise PadicObstruction(
                f"nu_p({a}) = {va} < nu_p({b}) = {vb}")
        a //= p ** vb
        b //= p ** vb
    out = [dom.one]
    val, unit = 0, 1  # running C(a/b, n) = p**val * unit with unit coprime to p
    binv = pow(b % p, p - 2, p)
    for n in range(1, count):
        num = a - (n - 1) * b
        if num == 0:
            out.extend([dom.zero] * (count - n))
            break
        vn, un = 0, abs(num)
        while un % p == 0:
            un //= p
            vn += 1
        if num < 0:
            un = -un
        vd, ud = 0, n
        while ud % p == 0:
            ud //= p
            vd += 1
        val += vn - vd
        unit = unit * un * pow(ud, p - 2, p) * binv % p
        if val < 0:
            raise PadicObstruction("binomial coefficient not p-integral")
        out.append(dom.zero if val > 0 else dom.from_int(unit))
    return out[:count]


def binomial_pow(u, a, b):
    """u**(a/b) for a unit series with u(0) = 1; well defined when
    nu_p(a) >= nu_p(b).  Raising the result to the b-th power recovers u**a
    to truncation.  ``u`` may be a Series or a multidim.MultiSeries: the
    loop reads only ``dom``, ``trunc``, ``pow_int``, ``ord_floor``, ``mul``,
    ``scale`` and the ring operators, which both classes share."""
    dom = u.dom
    t = u.trunc
    out = u.pow_int(0)
    w = u - out
    ow = w.ord_floor()
    if ow < 1:
        raise ValidationError("binomial_pow needs u(0) = 1")
    coeffs = binomial_coeffs(dom, a, b, t + 1)
    acc = None
    for n in range(1, t + 1):
        if n * ow > t:
            break
        acc = w if acc is None else acc.mul(w, trunc=t)
        c = coeffs[n]
        if not dom.is_zero(c):
            out = out + acc.scale(c)
    return out


def revert(f):
    """Compositional inverse of f with ord(f) = 1; g(f) = x to truncation."""
    dom = f.dom
    t = f.trunc
    if f.ord() != 1:
        raise ValidationError("reversion needs order of vanishing exactly 1")
    inv1 = dom.inv(f.coeffs[1])
    g = [dom.zero, inv1]
    powers = [None, f]
    for n in range(2, t + 1):
        powers.append(powers[-1].mul(f, trunc=t))
        acc = dom.zero
        for l in range(1, n):
            cl = g[l]
            if not dom.is_zero(cl):
                acc = dom.add(acc, dom.mul(cl, powers[l].coeff(n)))
        # [f^n]_n = f_1^n is invertible
        g.append(dom.mul(dom.neg(acc), dom.inv(powers[n].coeff(n))))
    return Series(dom, g, t)


class Germ1D:
    """A superattracting germ: x-series with zero constant term, ord >= 2."""

    __slots__ = ("dom", "series")

    def __init__(self, dom, series):
        if not dom.is_zero(series.coeff(0)):
            raise ValidationError("germ must fix 0")
        o = series.ord()  # raises ZeroToPrecision when undetectable
        if o < 2:
            raise ValidationError(
                f"not superattracting: order of vanishing {o}")
        self.dom = dom
        self.series = series

    def split(self):
        """(g, m) with f = g(x**(p**m)) and g' not identically zero."""
        return split_frobenius(self.series)

    @property
    def trunc(self):
        return self.series.trunc

    def __repr__(self):
        return f"<Germ1D ord={self.series.ord_floor()} trunc={self.trunc}>"
