"""Shared fuzz helpers and reference kernels for the test suite."""

import collections
import contextlib
import math

from germ.analytic import LaurentScalar
from germ.errors import UnassignedDependency, ValidationError
from germ.fields import Field, field_create
from germ.series import Germ1D, Series


def make_germ(field, m, d, trunc, rng, r0_cap=1, density=0.9):
    """A random superattracting germ g(x^(p^m)) with g = y^d (1 + eps),
    eps_0 = 1 and dense random higher coefficients.

    ``r0_cap`` bounds the first separable witness: coefficients eps_n with
    nu_p(d+n) = 0 and n < r0_cap are zeroed, and eps at the first index with
    nu_p(d+n) = 0 and n >= r0_cap is forced nonzero, so profiles stay
    resolvable within the truncation budget.
    """
    from germ.series import nu_p
    p = field.p
    step = p ** m
    ty = trunc // step
    n_eps = ty - d
    unit = [field.one]
    forced = None
    for n in range(1, n_eps + 1):
        if nu_p(p, d + n) == 0:
            if n < r0_cap:
                unit.append(field.zero)
                continue
            if forced is None:
                forced = n
                unit.append(1 + rng.randrange(field.q - 1))
                continue
        unit.append(field.rand(rng) if rng.random() < density else field.zero)
    co = [field.zero] * (trunc + 1)
    for n, c in enumerate(unit):
        idx = step * (d + n)
        if idx <= trunc:
            co[idx] = c
    return Germ1D(field, Series(field, co, trunc))


def schoolbook_conv(field, a, b, n):
    """Reference for ``field.conv``: the first n+1 coefficients of a*b,
    from the domain's scalar add and mul only, each output summed in
    increasing index of a."""
    out = [field.zero] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def schoolbook_field_mul(field, a, b):
    """Reference for the table-free product of F_{p^k}: both codes decoded
    digit by digit, multiplied by ``_poly_mul`` over F_p, reduced by the
    modulus in ``_poly_divmod``, and the remainder encoded."""
    from germ.fields import _poly_divmod, _poly_mul
    fp = field_create(field.p, 1)
    prod = _poly_mul(fp, schoolbook_digits(field, a),
                     schoolbook_digits(field, b))
    rem = _poly_divmod(fp, prod, list(field.modulus))[1]
    return sum(c * field.p ** i for i, c in enumerate(rem))


def schoolbook_field_add(field, a, b):
    """Reference for ``field.add``: the digit-wise sum mod p, digit by
    digit."""
    p = field.p
    return sum((x + y) % p * p ** i for i, (x, y) in enumerate(
        zip(schoolbook_digits(field, a), schoolbook_digits(field, b))))


def schoolbook_digits(field, code):
    """The k base-p digits of a code, low first, one divmod each."""
    out = []
    for _ in range(field.k):
        code, d = divmod(code, field.p)
        out.append(d)
    return out


def schoolbook_add_shifted(field, lo, hi, off, n):
    """Reference for ``field.add_shifted``: the first n coefficients of
    lo + x**off * hi, one scalar add per overlapping digit."""
    out = list(lo[:n])
    out += [0] * (n - len(out))
    for j, c in enumerate(hi[: max(n - off, 0)]):
        out[off + j] = field.add(out[off + j], c)
    return out


def _reference_raw_mul(field, a, b):
    # a prime field's product is its own reference: the schoolbook
    # extension product multiplies over F_p through this very method
    if field.k == 1:
        return a * b % field.p
    return schoolbook_field_mul(field, a, b)


_REFERENCE_KERNELS = {
    "conv": schoolbook_conv,
    "add_shifted": schoolbook_add_shifted,
    "_raw_mul": _reference_raw_mul,
}


@contextlib.contextmanager
def reference_kernels():
    """Run every ``Field`` on the schoolbook references: ``conv``,
    ``add_shifted`` and the table-free product ``_raw_mul``.

    Yields a Counter of the calls each reference took, so a caller can
    tell that the swap took effect.  The packed kernels are restored on
    exit.  Tables built inside are the same as outside: they are filled
    by products, which the references compute exactly.
    """
    calls = collections.Counter()
    saved = {name: getattr(Field, name) for name in _REFERENCE_KERNELS}

    def counted(name, ref):
        def kernel(self, *args):
            calls[name] += 1
            return ref(self, *args)
        return kernel

    for name, ref in _REFERENCE_KERNELS.items():
        setattr(Field, name, counted(name, ref))
    try:
        yield calls
    finally:
        for name, kernel in saved.items():
            setattr(Field, name, kernel)


# Laurent scalar ops as they were before the digit work moved into the Field
# kernels, from scalar field ops only: references for LaurentDomain

def laurent_mk_reference(dom, val, digits, prec):
    """Normalize: strip known-zero leading digits, cap stored digits."""
    digits = list(digits)
    if prec is not None:
        digits = digits[:prec]
    i = 0
    while i < len(digits) and digits[i] == 0:
        i += 1
    if i == len(digits):
        if prec is None:
            return dom.zero
        if prec <= 0 or val + prec == math.inf:
            return LaurentScalar(val, (), 0)
        return LaurentScalar(val + prec, (), 0)
    digits = digits[i:]
    val += i
    if prec is not None:
        prec -= i
    while digits and digits[-1] == 0:
        digits.pop()
    if prec is None and len(digits) > dom.prec:
        digits = digits[: dom.prec]
        prec = dom.prec
        while digits and digits[-1] == 0:
            digits.pop()
    if prec is not None and prec > dom.prec:
        prec = dom.prec
        digits = digits[: prec]
    return LaurentScalar(val, tuple(digits), prec)


def _end(x):
    return math.inf if x.prec is None else x.val + x.prec


def laurent_add_reference(dom, x, y):
    if dom.is_zero(x):
        return y
    if dom.is_zero(y):
        return x
    v = min(x.val, y.val)
    end = min(_end(x), _end(y))
    if end == math.inf:
        ln = max(x.val + len(x.unit), y.val + len(y.unit)) - v
        prec = None
    else:
        ln = end - v
        prec = ln
        if ln <= 0:
            return LaurentScalar(end, (), 0)
        ln = min(ln, dom.prec)
    lo, hi = (x, y) if x.val <= y.val else (y, x)
    out = schoolbook_add_shifted(dom.base, lo.unit, hi.unit, hi.val - v,
                                 int(ln))
    return laurent_mk_reference(dom, v, out, prec)


def laurent_mul_reference(dom, x, y):
    if dom.is_zero(x) or dom.is_zero(y):
        return dom.zero
    if not x.unit or not y.unit:
        return LaurentScalar(x.val + y.val, (), 0)
    conv_len = len(x.unit) + len(y.unit) - 1
    if x.prec is None and y.prec is None:
        prec = None if conv_len <= dom.prec else dom.prec
    else:
        lx = math.inf if x.prec is None else x.prec
        ly = math.inf if y.prec is None else y.prec
        prec = min(int(min(lx, ly)), dom.prec)
    cap = conv_len if prec is None else min(conv_len, prec)
    out = schoolbook_conv(dom.base, x.unit, y.unit, cap - 1)
    return laurent_mk_reference(dom, x.val + y.val, out, prec)


def candidate_fiber(prof, j):
    """Reference for the J table's fibers: all n with J(n) = j, ascending.
    For j >= 1 every member is one of the candidates r_k + p^k j; j = 0 is
    the finite base set of n <= r_0 with nu_p(n) = u < e and n <= r_u."""
    from germ.invariants import jays
    from germ.series import nu_p
    p = prof.p
    if j == 0:
        out = {0}
        for n in range(1, prof.r[0] + 1):
            u = nu_p(p, n)
            if u < prof.e and n <= prof.r[int(u)]:
                out.add(n)
        return sorted(out)
    cands = {prof.r[k] + p ** k * j for k in range(prof.e + 1)}
    return sorted(n for n in cands if jays(prof, n)[1] == j)


def random_profile(rng, primes=(2, 3, 5), e_range=(1, 4)):
    """A random valid profile: r_0 separable, and each later level either
    repeats the previous value or drops to a fresh witness whose p-adic
    valuation equals its level."""
    from germ.invariants import InvariantProfile
    p = rng.choice(primes)
    e = rng.randrange(*e_range)
    d = p ** e * rng.choice([1, 2, 4])
    while d % p ** (e + 1) == 0:
        d //= p
    r = [1 + p * rng.randrange(0, 8)] if e else []
    for u in range(1, e):
        prev = r[-1]
        cands = [p ** u * c for c in range(1, prev // p ** u + 1)
                 if c % p and p ** u * c < prev]
        if cands and rng.random() < 0.7:
            r.append(rng.choice(cands))
        else:
            r.append(prev)
    r.append(0)
    m = rng.randrange(2)
    return InvariantProfile(p, m if d * p ** m >= 2 else 1, d, e, tuple(r))


def standard_fields():
    return field_create(3, 1), field_create(3, 2), field_create(2, 2)


def lhs_rhs_coeffs(f, f_target, phi, n):
    """Degree-n coefficients of both sides of the unit conjugacy relation:
    (1+eps(y)) phi(y^d(1+eps)) vs (T^m phi)^d (1 + eps~(y T^m phi)).

    Computed by truncated series algebra over the y-coordinate; all entering
    coefficients must lie within the truncations."""
    g, m = f.split()
    gt, mt = f_target.split()
    if mt != m:
        raise ValidationError("targets must share the Frobenius depth m")
    d = g.ord()
    u = Series(f.dom, g.coeffs[d:], g.trunc - d)
    ut = Series(f.dom, gt.coeffs[gt.ord():], gt.trunc - gt.ord())
    w = u.shift(d)
    phi_y = phi.truncate(min(phi.trunc, n))
    lhs = u.mul(phi_y.compose(w, trunc=n), trunc=n)
    tphi = phi_y.twist(m)
    ytp = tphi.shift(1)
    # ut is the full unit 1 + eps~, so composing with y*T^m(phi) already
    # carries the constant term
    rhs = tphi.pow_int(d, trunc=n).mul(ut.compose(ytp, trunc=n), trunc=n)
    if n > lhs.trunc or n > rhs.trunc:
        raise UnassignedDependency(
            f"degree {n} exceeds determined range (lhs {lhs.trunc}, "
            f"rhs {rhs.trunc})")
    return lhs.coeff(n), rhs.coeff(n)
