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
    the Field kernels read and return it as it is.  Over a packed domain
    ``num`` keeps the unit as a little-endian int once the accumulate loop
    has read it."""

    __slots__ = ("val", "unit", "prec", "num")

    def __init__(self, val, unit, prec):
        self.val = val
        self.unit = unit
        self.prec = prec
        self.num = None

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
            dom.minus_one = LaurentScalar(
                0, unit((base_field.neg(base_field.one),)), None)
            # the accumulate loop runs packed where the field packs
            # acc + x*y over units of prec digits
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
        """The scalar t^val * digits, normalized: known-zero leading digits
        stripped, stored digits capped."""
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
            digits = _rstrip(digits[:cap])
        return LaurentScalar(val, digits, prec)

    # -- predicates ----------------------------------------------------------

    def is_zero(self, x):
        """Exactly zero.  Zero-to-precision values are kept in sums."""
        return x.prec is None and not x.unit

    def is_zero_to_prec(self, x):
        """Cannot be distinguished from zero: exact zero or all trusted
        digits vanish."""
        return not x.unit

    # -- ring ops: cells of the one accumulate loop ---------------------------

    def add(self, x, y):
        one = self.one
        return self._accumulate(((x, one), (y, one)))[0]

    def neg(self, x):
        return self._accumulate(((x, self.minus_one),))[0]

    def sub(self, x, y):
        return self._accumulate(((x, self.one), (y, self.minus_one)))[0]

    def mul(self, x, y):
        return self._accumulate(((x, y),))[0]

    def conv(self, a, b, n):
        """The first n+1 coefficients of the product of two scalar
        sequences, as a new list: each output is the :meth:`dot` of its
        terms in increasing index of a, exact zeros skipped, which fixes
        how precision is tracked; the pairs of every output that has any go
        to one :meth:`_accumulate`, and the others are the exact zero."""
        ys = [(j, y) for j, y in enumerate(b[: n + 1])
              if y.unit or y.prec is not None]
        cells = [[] for _ in range(n + 1)]
        for i, x in enumerate(a[: n + 1]):
            if x.unit or x.prec is not None:
                for j, y in ys:
                    if i + j > n:
                        break
                    cells[i + j].append((x, y))
        out = [self.zero] * (n + 1)
        full = [k for k, terms in enumerate(cells) if terms]
        for k, c in zip(full, self._accumulate(*[cells[k] for k in full])):
            out[k] = c
        return out

    def dot(self, pairs):
        """The sum of x*y over the (x, y) pairs, added left to right with
        exact zeros skipped: one cell of :meth:`_accumulate`, so each
        partial sum is add(acc, mul(x, y))."""
        return self._accumulate(pairs)[0]

    def _accumulate(self, *cells):
        """For each cell of (x, y) scalar pairs, the sum of x*y left to
        right with exact zeros skipped, each partial sum add(acc, mul(x, y)),
        as a list: the one statement of the precision rules, which ``mul``,
        ``add``, ``neg``, ``sub``, ``add_shifted``, ``conv`` and ``dot``
        run as cells.

        A product is trusted to the lesser of its factors' precisions and
        the cap, or is exact while it fits the cap; a sum to the lesser end
        of its terms, or is exact if both are, and an exact sum whose
        digits pass the cap is cut there.  Added up term by term, these
        rules fix each cell's window from (val, len, prec) alone.  While
        every term is exact the sum is exact, spanning at most the least
        val to the largest val + len of its terms.  Once a term is inexact
        the sum ends at E, the least end over its terms: v + min(prec, cap)
        for a product, an exact one counted as prec = cap, and v for
        O(t^v).  The result is the exact sum of the products of the stored
        units, cut to [its leading digit, E): O(t^E) if no digit there is
        nonzero, and the exact zero if an exact sum cancels.  The sum so
        far is read only where a rule reads its digits: when an exact sum
        spans more than the cap, and when a first inexact term starts past
        the sum's least val and ends past that val + cap, where the true
        leading digit of the exact sum sets the cut.  There the exact sum
        is normalized by ``make``, and counts on as one exact term.

        The digits branch twice on the back-end.  Over a packed domain
        each unit is read as a little-endian int once (kept as the
        scalar's ``num``) and each product, one int product, is added
        unreduced at its offset; a translate reduces the sum only when a
        byte slot could overflow, a product of units of lx and ly digits
        adding at most min(lx, ly)*(p-1)^2 to a slot.  Elsewhere a product
        is ``Field.conv`` of the units and a sum ``Field.add_shifted``.
        """
        out = []
        cap, mod, frm = self.prec, self._packed_mod, int.from_bytes
        conv, add_shifted, make = self.base.conv, self.base.add_shifted, \
            self.make
        one, zero, empty = self.one, self.zero, self._empty
        p1 = self.p - 1
        sq = p1 * p1
        for terms in cells:
            # the sum's digits start at t^lo (None: no digit yet) and span
            # top slots: the int s, whose slots hold at most load, or the
            # vector au; end is E once a term is inexact
            lo = end = None
            for x, y in terms:
                xu, xp = x.unit, x.prec
                if y is one:                # x as made: n <= prec <= cap
                    if not xu and xp is None:
                        continue
                    n, pp = len(xu), xp
                else:
                    yu, yp = y.unit, y.prec
                    if not xu or not yu:
                        if xp is None and not xu or yp is None and not yu:
                            continue                # an exact zero
                        n = pp = 0                  # O(t^v)
                    else:
                        lx, ly = len(xu), len(yu)
                        n = lx + ly - 1
                        if xp is None and yp is None:
                            # the leading digit of a product never cancels,
                            # so capping the exact product is safe
                            pp = None if n <= cap else cap
                        else:
                            pp = cap
                            if xp is not None and xp < pp:
                                pp = xp
                            if yp is not None and yp < pp:
                                pp = yp
                v = x.val + y.val
                if end is None and lo is not None and (
                        top > cap or pp is not None and v > lo and
                        v + pp > lo + cap):
                    # read the exact sum so far: normalized, cut at the cap
                    acc = make(lo, au if mod is None else s.to_bytes(
                        top, "little").translate(mod), None)
                    if acc.prec is not None:
                        end = acc.val + cap
                    if not acc.unit:
                        lo = None
                    else:
                        lo, au, top = acc.val, acc.unit, len(acc.unit)
                        if mod is not None:
                            s, load = frm(au, "little"), p1
                if pp is None:
                    if end is not None and v + cap < end:
                        end = v + cap
                elif end is None:
                    end = v + pp
                    if lo is not None and lo + cap < end:
                        end = lo + cap
                elif v + pp < end:
                    end = v + pp
                if not n or end is not None and v >= end:
                    continue                # no digit below the end
                if mod is None:
                    if pp is not None and n > pp:
                        n = pp
                    pu = xu if y is one else conv(xu, yu, n - 1)
                    if lo is None:
                        lo, au, top = v, pu, n
                    elif v >= lo:
                        if v - lo + n > top:
                            top = v - lo + n
                        au = add_shifted(au, pu, v - lo, top)
                    else:
                        top += lo - v
                        if n > top:
                            top = n
                        au = add_shifted(pu, au, lo - v, top)
                        lo = v
                    continue
                xi = x.num
                if xi is None:
                    xi = x.num = frm(xu, "little")
                if y is one:
                    pi, ld = xi, p1
                else:
                    yi = y.num
                    if yi is None:
                        yi = y.num = frm(yu, "little")
                    pi = xi * yi
                    ld = (lx if lx < ly else ly) * sq
                if lo is None:
                    lo, s, top, load = v, pi, n, ld
                    continue
                if load + ld > 255:         # reduce before a slot overflows
                    s = frm(s.to_bytes(top, "little").translate(mod),
                            "little")
                    load = p1
                load += ld
                if v >= lo:
                    s += pi << 8 * (v - lo)
                    if v - lo + n > top:
                        top = v - lo + n
                else:
                    s = pi + (s << 8 * (lo - v))
                    top += lo - v
                    if n > top:
                        top = n
                    lo = v
            if lo is None:
                out.append(zero if end is None else
                           LaurentScalar(end, empty, 0))
                continue
            if end is None:
                digits, ln = au if mod is None else s.to_bytes(
                    top, "little").translate(mod), None
            else:
                ln = end - lo
                if ln <= 0:
                    out.append(LaurentScalar(end, empty, 0))
                    continue
                digits = au[:ln] if mod is None else s.to_bytes(
                    top if top > ln else ln, "little")[:ln].translate(mod)
            if digits[0] and len(digits) <= cap:    # normal once rstripped
                out.append(LaurentScalar(lo, _rstrip(digits) if mod is None
                                         else digits.rstrip(b"\0"), ln))
            else:
                out.append(make(lo, digits, ln))
        return out

    def add_shifted(self, lo, hi, off, n):
        """The first n coefficients of lo + x**off * hi, for scalar
        sequences, as a new list: one :meth:`_accumulate` of one ``add``
        cell per overlapping coefficient, so an exact zero in hi leaves
        lo's coefficient as it is."""
        out = list(lo[:n])
        out += [self.zero] * (n - len(out))
        top = min(len(hi), n - off)
        if top > 0:
            one = self.one
            out[off: off + top] = self._accumulate(*[
                ((x, one), (y, one)) for x, y in zip(out[off: off + top], hi)])
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
        """The engine's left-side kernel: each coefficient one ordered
        ``dot`` (:class:`~germ.sides.OrderedLeft`)."""
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
        return self.make(-x.val, out, ln)

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
        ln = (len(x.unit) - 1) * step + 1
        prec = None if x.prec is None else x.prec * step
        out = bytearray(ln) if type(x.unit) is bytes else [0] * ln
        if self.base.k == 1:                # a^p = a over F_p
            out[::step] = x.unit
        else:
            frob = self.base.frob
            for i, d in enumerate(x.unit):
                if d:
                    out[i * step] = frob(d, m)
        return self.make(x.val * step, out, prec)

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
        prec = None if x.prec is None else (x.prec + step - 1) // step
        return self.make(x.val // step, out[:prec], prec)


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

    def delta_h(self, h):
        return Fraction(self.c - 1 - self.eta, self.k_h(h))

    def _locate(self, n):
        h = 0
        while self.s_h(h + 1) <= n:
            h += 1
        return h, n - self.s_h(h)

    def c_n_closed(self, n):
        """s_0 + c (n - s_0) - k delta_h: the closed form."""
        a, b, den, _ = self.c_n_piece(n)
        return Fraction(a + b * n, den)

    def c_n_piece(self, n):
        """(a, b, den, end) in integers, den > 0: c_n = (a + b*n) / den for
        n up to end - 1.  The closed form is linear on each segment: n up
        to s_0, then s_0 + c (n - s_0) - (n - s_h) delta_h on segment h."""
        if n <= self.s0:
            return 0, 1, 1, self.s0 + 1
        h, _ = self._locate(n)
        delta = self.delta_h(h)
        a = self.s0 * (1 - self.c) + delta * self.s_h(h)
        b = self.c - delta
        return (a.numerator * b.denominator, b.numerator * a.denominator,
                a.denominator * b.denominator, self.s_h(h + 1))

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
    """Assert -val(phi_n) <= W * c_n for every computed coefficient, in
    integers along :meth:`GrowthCertificate.c_n_piece`; a ``Fraction`` is
    built only for a violation and for the largest ratio -val / (W c_n)."""
    phi, scale = witness.phi, cert.scale
    violations = []
    best, end = (0, 1), 1         # the largest ratio so far, as (num, den)
    for n in range(1, phi.trunc + 1):
        val = tval(phi.coeffs[n])
        if val is _INF or val == _INF:
            continue
        if n >= end:
            a, b, den, end = cert.c_n_piece(n)
        need = scale * (a + b * n)          # den * W * c_n > 0
        if -val * den * best[1] > best[0] * need:
            best = (-val * den, need)
        if -val * den > need:
            violations.append((n, val, Fraction(need, den)))
    return GrowthReport(not violations, phi.trunc, violations,
                        Fraction(*best), cert.linear_bound())
