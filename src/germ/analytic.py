"""t-adic coefficient arithmetic and the quantitative convergence certificate.

Scalars are truncated Laurent series over F_{p^k}: a valuation, a unit digit
vector, and a count of trusted digits (None = exact: all further digits are
zero).  The norm is never materialized; |x| = rho^val for a formal
rho in (0,1), so every norm comparison is a valuation comparison.

The certificate machinery turns the growth constants (s_0, eta, c, delta_h,
c_n) into exact rational arithmetic, with the valuation scale W standing in
for the base gamma = rho^(-W).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    OracleFailure,
    PrecisionExhausted,
    UnsolvableRoot,
    ValidationError,
)
from .fields import compose_by_powers
from .invariants import InvariantProfile, profile
from .normalizer import (ConjugacyWitness, min_trunc, solve_prescribed,
                         target_germ, verify_conjugacy)
from .series import Germ1D, Series
from .sides import OrderedLeft, OrderedRight

_INF = math.inf


class LaurentScalar:
    """val + unit-digit vector + trusted digit count (None = exact).

    The unit is a vector of the base field's type (``Field.vector``), so
    the Field kernels read and return it as it is."""

    __slots__ = ("val", "unit", "prec")

    def __init__(self, val, unit, prec):
        self.val = val
        self.unit = unit
        self.prec = prec

    def __repr__(self):
        if self.val is _INF or self.val == _INF:
            return "<0>"
        if self.prec == 0:
            return f"<O(t^{self.val})>"
        tail = "" if self.prec is None else f"+O(t^{self.val + self.prec})"
        return f"<t^{self.val}*{list(self.unit)}{tail}>"


def _lstrip(digits):
    """A unit without its leading zero digits."""
    if type(digits) is bytes:
        return digits.lstrip(b"\0")
    i = 0
    while i < len(digits) and digits[i] == 0:
        i += 1
    return digits[i:]


def _rstrip(digits):
    """A unit without its trailing zero digits."""
    if type(digits) is bytes:
        return digits.rstrip(b"\0")
    n = len(digits)
    while n and digits[n - 1] == 0:
        n -= 1
    return digits[:n]


_DOMAINS = {}


class LaurentDomain:
    """Coefficient domain F_q((t)) truncated to ``prec`` trusted t-digits.

    Domains are canonical, as fields are: ``LaurentDomain(base, prec)``
    returns one shared descriptor per (base field, prec), so series built
    over equal domains are over the same domain.
    """

    def __new__(cls, base_field, prec=32):
        dom = _DOMAINS.get((base_field, prec))
        if dom is None:
            dom = _DOMAINS[base_field, prec] = super().__new__(cls)
            dom.base = base_field
            dom.p = base_field.p
            dom.prec = prec
            # every unit is a vector of the base field's type
            dom._unit = unit = type(base_field.vector(()))
            dom._empty = unit()
            dom.zero = LaurentScalar(_INF, dom._empty, None)
            dom.one = LaurentScalar(0, unit((base_field.one,)), None)
            # conv and dot accumulate packed where the field packs acc + x*y
            # over units of prec digits
            dom._packed_mod = base_field.packed_mod(prec)
        return dom

    def __repr__(self):
        return f"LaurentDomain({self.base!r}, prec={self.prec})"

    # -- constructors -------------------------------------------------------

    def constant(self, code):
        if code == 0:
            return self.zero
        return LaurentScalar(0, self._unit((code,)), None)

    def from_int(self, n):
        return self.constant(self.base.from_int(n))

    def t_power(self, v, code=None):
        code = self.base.one if code is None else code
        if code == 0:
            return self.zero
        return LaurentScalar(v, self._unit((code,)), None)

    def make(self, val, digits, prec=None):
        return self._mk(val, digits, prec)

    def _mk(self, val, digits, prec):
        """Normalize: strip known-zero leading digits, cap stored digits."""
        if type(digits) is not self._unit:
            digits = self._unit(digits)
        n, cap = len(digits), self.prec
        if n and digits[0] and n <= (cap if prec is None else prec) <= cap:
            # normal once trailing zeros are gone
            return LaurentScalar(val, _rstrip(digits) if not digits[-1]
                                 else digits, prec)
        if prec is not None:
            digits = digits[:prec]
        rest = _lstrip(digits)
        if not rest:
            if prec is None:
                return self.zero
            if prec <= 0 or val + prec == _INF:
                return LaurentScalar(val, self._empty, 0)
            # all trusted digits vanish: zero to precision val+prec
            return LaurentScalar(val + prec, self._empty, 0)
        i = len(digits) - len(rest)
        val += i
        if prec is not None:
            prec -= i
        digits = _rstrip(rest)
        if prec is None and len(digits) > cap:
            digits = _rstrip(digits[:cap])
            prec = cap
        if prec is not None and prec > cap:
            prec = cap
            digits = digits[:cap]
        return LaurentScalar(val, digits, prec)

    # -- predicates ----------------------------------------------------------

    def is_zero(self, x):
        """Exactly zero.  Zero-to-precision values are kept in sums."""
        return x.prec is None and not x.unit

    def is_zero_to_prec(self, x):
        """Cannot be distinguished from zero: exact zero or all trusted
        digits vanish."""
        return not x.unit

    # -- ring ops ---------------------------------------------------------------

    def add(self, x, y):
        xp, yp = x.prec, y.prec
        if xp is None and not x.unit:
            return y
        if yp is None and not y.unit:
            return x
        lo, hi = (x, y) if x.val <= y.val else (y, x)
        v = lo.val
        if xp is None and yp is None:
            ln = lo.val + len(lo.unit)
            if hi.val + len(hi.unit) > ln:
                ln = hi.val + len(hi.unit)
            ln -= v
            prec = None
        else:
            end = _INF if xp is None else x.val + xp
            if yp is not None and y.val + yp < end:
                end = y.val + yp
            ln = prec = end - v
            if ln <= 0:
                return LaurentScalar(end, self._empty, 0)
            if ln > self.prec:
                ln = self.prec
        return self._mk(v, self.base.add_shifted(lo.unit, hi.unit,
                                                 hi.val - v, ln), prec)

    def neg(self, x):
        if not x.unit:
            return x
        neg = self.base.neg
        return LaurentScalar(x.val, self._unit(map(neg, x.unit)), x.prec)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        xu, yu, xp, yp = x.unit, y.unit, x.prec, y.prec
        if not xu or not yu:
            if xp is None and not xu or yp is None and not yu:
                return self.zero
            return LaurentScalar(x.val + y.val, self._empty, 0)  # O(t^v)
        cap = self.prec
        conv_len = len(xu) + len(yu) - 1
        if xp is None and yp is None:
            # the leading digit of a product never cancels, so capping the
            # exact convolution at the working precision is safe
            prec = None if conv_len <= cap else cap
        else:
            prec = cap
            if xp is not None and xp < prec:
                prec = xp
            if yp is not None and yp < prec:
                prec = yp
        n = conv_len if prec is None or conv_len <= prec else prec
        return self._mk(x.val + y.val, self.base.conv(xu, yu, n - 1), prec)

    def conv(self, a, b, n):
        """The first n+1 coefficients of the product of two scalar
        sequences, as a new list: each output is the :meth:`dot` of its
        terms in increasing index of a, exact zeros skipped, which fixes
        how precision is tracked.  Each operand is read once."""
        xs, ys = self._read(a[: n + 1]), self._read(b[: n + 1])
        ys = [(j, y) for j, y in enumerate(ys) if y]
        # packed: each output's terms, summed in one accumulate pass; else
        # each term goes through mul and add in place
        packed = self._packed_mod is not None
        out = [[] for _ in range(n + 1)] if packed else [self.zero] * (n + 1)
        add, mul = self.add, self.mul
        for i, x in enumerate(xs):
            if x:
                for j, y in ys:
                    if i + j > n:
                        break
                    if packed:
                        out[i + j].append((x, y))
                    else:
                        out[i + j] = add(out[i + j], mul(x, y))
        return self._accumulate(out) if packed else out

    def dot(self, pairs):
        """The sum of x*y over the (x, y) pairs, added left to right with
        exact zeros skipped: each partial sum is add(acc, mul(x, y))."""
        read = self._read([z for pair in pairs for z in pair])
        terms = [(x, y) for x, y in zip(read[::2], read[1::2]) if x and y]
        if self._packed_mod is not None:
            return self._accumulate([terms])[0]
        add, mul, acc = self.add, self.mul, self.zero
        for x, y in terms:
            acc = add(acc, mul(x, y))
        return acc

    def _read(self, xs):
        """Scalars as :meth:`conv` and :meth:`dot` take them, None for an
        exact zero: over a packed domain (val, unit as a little-endian int,
        unit length, prec), as :meth:`_accumulate` takes them."""
        if self._packed_mod is None:
            return [None if x.prec is None and not x.unit else x for x in xs]
        frm = int.from_bytes
        return [None if x.prec is None and not x.unit else
                (x.val, frm(x.unit, "little"), len(x.unit), x.prec)
                for x in xs]

    def _accumulate(self, cells):
        """Over a packed domain, for each cell of read (x, y) pairs, the sum
        of x*y left to right, each partial sum exactly add(acc, mul(x, y)).

        A term is one int product, masked to its prec as ``mul`` caps it,
        added unreduced to the reduced sum so far: no byte slot carries, so
        one translate reduces both.  The (val, prec) rules are ``mul``'s
        then ``add``'s; ``_mk`` runs only off its fast path (a cancelled
        leading digit, or the cap).
        """
        out = []
        cap, mod, frm = self.prec, self._packed_mod, int.from_bytes
        for terms in cells:
            acc = None                              # exact zero
            for (xv, xi, xl, xp), (yv, yi, yl, yp) in terms:
                v = xv + yv
                if not xl or not yl:                # O(t^v)
                    pi = pl = pp = 0
                else:
                    pi, pl = xi * yi, xl + yl - 1
                    if xp is None and yp is None:
                        pp = None if pl <= cap else cap
                    else:
                        pp = cap
                        if xp is not None and xp < pp:
                            pp = xp
                        if yp is not None and yp < pp:
                            pp = yp
                    if pp is not None and pl > pp:
                        pi &= (1 << 8 * pp) - 1
                        pl = pp
                if acc is None:
                    acc = v, pi.to_bytes(pl, "little").translate(mod) \
                        .rstrip(b"\0"), pp
                    continue
                av, au, ap = acc
                ai, al = frm(au, "little"), len(au)
                # s spans top digits from t^lo; an exact sum keeps them all
                if av <= v:
                    lo, off = av, v - av
                    s = ai + (pi << 8 * off)
                    top = off + pl if off + pl > al else al
                else:
                    lo, off = v, av - v
                    s = pi + (ai << 8 * off)
                    top = off + al if off + al > pl else pl
                if ap is None and pp is None:
                    ln, prec = top, None
                    fast = ln <= cap
                else:
                    end = _INF if ap is None else av + ap
                    if pp is not None and v + pp < end:
                        end = v + pp
                    ln = prec = end - lo
                    if ln <= 0:
                        acc = end, self._empty, 0
                        continue
                    if ln > cap:
                        ln = cap
                    fast = prec <= cap
                digits = s.to_bytes(top if top > ln else ln, "little")[:ln] \
                    .translate(mod)
                if fast and digits[0]:
                    acc = lo, digits.rstrip(b"\0"), prec
                else:
                    acc = self._mk(lo, digits, prec)
                    acc = None if self.is_zero(acc) else \
                        (acc.val, acc.unit, acc.prec)
            out.append(self.zero if acc is None else LaurentScalar(*acc))
        return out

    def add_shifted(self, lo, hi, off, n):
        """The first n coefficients of lo + x**off * hi, for scalar
        sequences, as a new list: one ``add`` per overlapping coefficient,
        so an exact zero in hi leaves lo's coefficient as it is."""
        out = list(lo[:n])
        out += [self.zero] * (n - len(out))
        top = min(len(hi), n - off)
        if top > 0:
            out[off: off + top] = map(self.add, out[off: off + top],
                                      hi[:top])
        return out

    # the type of the vectors the kernels here give back
    vector = list

    def compose(self, outer, inner, og, t):
        """The first t+1 coefficients of outer(inner), for scalar sequences
        and an inner series of order og >= 1: the power loop alone
        (:func:`~germ.fields.compose_by_powers`).  The Frobenius split of
        ``Field.compose`` would give other precisions: ``frob`` raises an
        inexact scalar's precision p-fold, so the split's (val, unit,
        prec) differ from the loop's."""
        return compose_by_powers(self, outer, inner, og, t)

    def left_side(self, unit, d, n_hi):
        """The engine's left-side kernel: one phi at a time, in the order
        that fixes every precision (:class:`~germ.sides.OrderedLeft`)."""
        return OrderedLeft(self, unit, d, n_hi)

    def right_side(self, n_hi, supp):
        """The engine's chain kernel: the ordered chain sums
        (:class:`~germ.sides.OrderedRight`)."""
        return OrderedRight(self, n_hi, supp)

    def inv(self, x):
        if self.is_zero(x):
            raise DivisionByZero("inverse of 0 in the Laurent ring")
        if not x.unit:
            raise PrecisionExhausted(
                f"inverse of a value only known to be O(t^{x.val})")
        base = self.base
        if len(x.unit) == 1:
            return LaurentScalar(-x.val, self._unit((base.inv(x.unit[0]),)),
                                 x.prec)
        ln = self.prec if x.prec is None else min(x.prec, self.prec)
        out = Series(base, x.unit, ln - 1).reciprocal().coeffs
        return self._mk(-x.val, out, ln)

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def additive_roots(self, terms, q):
        """Additive equations of more than one term are not solved over the
        imperfect Laurent ring: UnsolvableRoot."""
        raise UnsolvableRoot(
            f"additive equation with exponents {sorted(s for s, _ in terms)} "
            "is not solvable over the Laurent coefficient ring")

    # -- Frobenius ---------------------------------------------------------------

    def frob(self, x, m=1):
        if m == 0 or not x.unit:
            if not x.unit and not self.is_zero(x):
                return LaurentScalar(x.val * self.p ** m, self._empty, 0)
            return x
        step = self.p ** m
        frob = self.base.frob
        ln = (len(x.unit) - 1) * step + 1
        prec = None
        if x.prec is not None:
            prec = x.prec * step
        out = [0] * ln
        for i, d in enumerate(x.unit):
            if d:
                out[i * step] = frob(d, m)
        return self._mk(x.val * step, out, prec)

    def frob_root(self, x, m=1):
        if m == 0 or self.is_zero(x):
            return x
        if not x.unit:
            raise PrecisionExhausted(
                f"p^{m}-th root of a value only known to be O(t^{x.val})")
        step = self.p ** m
        if x.val % step:
            raise UnsolvableRoot(
                f"t-valuation {x.val} is not divisible by p^{m}")
        froot = self.base.frob_root
        out = []
        for i, d in enumerate(x.unit):
            if i % step:
                if d:
                    raise UnsolvableRoot(
                        f"digit at t^{x.val + i} obstructs the p^{m}-th root")
            else:
                out.append(froot(d, m))
        prec = None
        if x.prec is not None:
            prec = (x.prec + step - 1) // step
            out = out[:prec]
        return self._mk(x.val // step, out, prec)


def tval(x):
    """The t-adic valuation (inf for exact zero; the bound for values that
    vanish to precision)."""
    return x.val


# ---------------------------------------------------------------------------
# conjugacy to the truncation
# ---------------------------------------------------------------------------

def truncation_target(prof: InvariantProfile) -> int:
    """Largest kept x-order of the target truncation."""
    if prof.e < 1:
        raise ValidationError("truncation target needs e >= 1")
    return min_trunc(prof) - 1


def conjugacy_to_truncation(f: Germ1D, order):
    """Solve Phi o f = f~ o Phi where f~ is the truncation of f at the
    certified order; phi_n is computed for n <= ``order``.

    Low-order unknowns go through the fiber recursion with the target
    coefficients prescribed; high-order ones reduce to one division by the
    unit r_0 * eps_{r_0} (times a p^m-th root when m > 0, which may fail
    over the imperfect Laurent ring: UnsolvableRoot)."""
    dom = f.dom
    prof = profile(f)
    if prof.e < 1:
        raise ValidationError("the certificate path needs e >= 1")
    p, m, d = prof.p, prof.m, prof.d
    g, _ = f.split()
    if not dom.is_zero(dom.sub(g.coeffs[d], dom.one)):
        raise ValidationError("germ must be unit-normalized (eps_0 = 1)")
    step = p ** m
    j_hi = order
    n_hi = prof.r[0] + j_hi
    src = f.series.extended(step * (d + n_hi))
    g, _ = Germ1D(dom, src).split()
    unit = g.coeffs[d:]
    for n, c in enumerate(unit):
        if c.unit and c.val < 0:
            raise ValidationError(
                f"coefficient at index {n} has negative valuation {c.val}")
    x_star = truncation_target(prof)
    n_tilde = x_star // step - d
    target_unit = list(unit[: n_tilde + 1])
    phis, transcript = solve_prescribed(dom, prof, unit, j_hi, target_unit)
    phi = Series(dom, phis, j_hi)
    vo = min(step * (d + n_hi), max(x_star + 2 * step, 48))
    tgt = target_germ(dom, m, d, target_unit, x_star).series.extended(vo)
    report = verify_conjugacy(Germ1D(dom, src), Germ1D(dom, tgt),
                              phi.shift(1), vo)
    if not report.ok:
        raise OracleFailure(
            f"prescribed-target witness fails at degree "
            f"{report.first_disagreement}")
    return ConjugacyWitness(phi, dom.one, report.checked_order, transcript)


# ---------------------------------------------------------------------------
# the growth certificate
# ---------------------------------------------------------------------------

@dataclass
class GrowthCertificate:
    p: int
    m: int
    r0: int
    s0: int
    scale: int            # W: the valuation scale standing in for gamma
    eta: Fraction
    c: Fraction

    def s_h(self, h):
        p, r0 = self.p, self.r0
        return self.s0 * p ** h - r0 * (p ** h - 1) // (p - 1)

    def k_h(self, h):
        return self.p ** h * (self.s0 * (self.p - 1) - self.r0)

    def t_h(self, h):
        t = Fraction(self.s0)
        for _ in range(h):
            t = self.p * t + self.eta
        return t

    def delta_h(self, h):
        return Fraction(self.c - 1 - self.eta, self.k_h(h))

    def _locate(self, n):
        h = 0
        while self.s_h(h + 1) <= n:
            h += 1
        return h, n - self.s_h(h)

    def c_n_recursive(self, n):
        """t_h + k (c - delta_h) from the defining recurrences."""
        if n <= self.s0:
            return Fraction(n)
        h, k = self._locate(n)
        return self.t_h(h) + k * (self.c - self.delta_h(h))

    def c_n_closed(self, n):
        """s_0 + c (n - s_0) - k delta_h: the closed form."""
        if n <= self.s0:
            return Fraction(n)
        h, k = self._locate(n)
        return self.s0 + self.c * (n - self.s0) - k * self.delta_h(h)

    def linear_bound(self):
        """(A, B) with scale*c_n <= A + B*n for all n."""
        return (self.scale * self.s0 * (1 - self.c), self.scale * self.c)

    def to_dict(self):
        return {"s0": self.s0, "W": self.scale,
                "eta": [self.eta.numerator, self.eta.denominator],
                "c": [self.c.numerator, self.c.denominator]}


def certificate(prof: InvariantProfile, phi_prefix, v) -> GrowthCertificate:
    """Growth constants from the profile, the first s_0 witness coefficients
    and v = val(eps_{r_0}).  The scale W is raised until eta < c - 1."""
    if prof.e < 1:
        raise ValidationError("certificate needs e >= 1")
    if v < 0:
        raise ValidationError("certificate needs val(eps_{r_0}) >= 0")
    p, m, r0 = prof.p, prof.m, prof.r[0]
    s0 = (p * r0) // (p - 1) + 1 - r0
    assert s0 >= 1
    assert s0 * (p - 1) - r0 >= 1
    scale = 1
    for n in range(1, s0 + 1):
        if n - 1 < len(phi_prefix):
            val = tval(phi_prefix[n - 1])
            if val is not _INF and val < 0:
                scale = max(scale, (-val + n - 1) // n)  # ceil(-val / n)
    while True:
        eta = Fraction(v, scale * p ** m)
        c = Fraction(s0 * (p - 1) + eta, s0 * (p - 1) - r0)
        if eta < c - 1:
            break
        scale += 1
    return GrowthCertificate(p, m, r0, s0, scale, eta, c)


@dataclass
class GrowthReport:
    ok: bool
    checked: int
    violations: list
    max_ratio: Fraction
    bound: tuple

    def to_dict(self):
        return {"ok": self.ok, "checked": self.checked,
                "violations": self.violations,
                "max_ratio": [self.max_ratio.numerator,
                              self.max_ratio.denominator],
                "bound": [str(self.bound[0]), str(self.bound[1])]}


def check_growth(witness: ConjugacyWitness, cert: GrowthCertificate):
    """Assert -val(phi_n) <= W * c_n for every computed coefficient."""
    phi = witness.phi
    violations = []
    max_ratio = Fraction(0)
    for n in range(1, phi.trunc + 1):
        val = tval(phi.coeffs[n])
        if val is _INF or val == _INF:
            continue
        need = cert.scale * cert.c_n_closed(n)
        ratio = Fraction(-val, 1) / need
        if ratio > max_ratio:
            max_ratio = ratio
        if -val > need:
            violations.append((n, val, need))
    return GrowthReport(not violations, phi.trunc, violations, max_ratio,
                        cert.linear_bound())
