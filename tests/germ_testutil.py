"""Shared fuzz helpers and reference kernels for the test suite."""

import collections
import contextlib
import math
from fractions import Fraction

from germ.analytic import LaurentDomain, LaurentScalar
from germ.cli import _count, _natural, _Parser, _prime, _r_sequence
from germ.errors import UnassignedDependency, ValidationError
from germ.fields import (Field, NeedExtension, _FoldProduct, _poly_divmod,
                         _poly_gcd, _poly_mul, _strip, compose_by_powers,
                         field_create, root_extension)
from germ.series import Germ1D, Series
from germ.sides import OrderedLeft, OrderedRight


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
    increasing index of a; a vector of the field's type, as the kernel
    gives."""
    out = [field.zero] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1 - i]):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return field.vector(out)


def schoolbook_field_mul(field, a, b):
    """Reference for the table-free product of F_{p^k}: both codes decoded
    digit by digit, multiplied by ``_poly_mul`` over F_p, reduced by the
    modulus in ``_poly_divmod``, and the remainder encoded."""
    return _schoolbook_product(field.p, field.modulus, a, b)


def _schoolbook_product(p, modulus, a, b):
    fp = field_create(p, 1)
    n = len(modulus) - 1
    prod = _poly_mul(fp, _digits(p, n, a), _digits(p, n, b))
    rem = _poly_divmod(fp, prod, list(modulus))[1]
    return sum(c * p ** i for i, c in enumerate(rem))


def schoolbook_fold_pow(ring, a, e):
    """Reference for ``_FoldProduct.pow``: a**e modulo the ring's modulus
    by square and multiply, every product a schoolbook one."""
    r = 1
    while e:
        if e & 1:
            r = _schoolbook_product(ring.p, ring.modulus, r, a)
        a = _schoolbook_product(ring.p, ring.modulus, a, a)
        e >>= 1
    return r


def schoolbook_field_add(field, a, b):
    """Reference for ``field.add``: the digit-wise sum mod p, digit by
    digit."""
    return _digit_sum(field.p, field.k, a, b)


def schoolbook_fold_add(ring, a, b):
    """Reference for ``_FoldProduct.add``, the sum of the table-free
    fields: the same digit by digit."""
    return _digit_sum(ring.p, ring.n, a, b)


def _digit_sum(p, n, a, b):
    return sum((x + y) % p * p ** i for i, (x, y) in enumerate(
        zip(_digits(p, n, a), _digits(p, n, b))))


def schoolbook_field_neg(field, a):
    """Reference for ``field.neg``: the digit-wise negation mod p, digit by
    digit."""
    p = field.p
    return sum(-x % p * p ** i
               for i, x in enumerate(schoolbook_digits(field, a)))


def schoolbook_digits(field, code):
    """The k base-p digits of a code, low first, one divmod each."""
    return _digits(field.p, field.k, code)


def _digits(p, n, code):
    out = []
    for _ in range(n):
        code, d = divmod(code, p)
        out.append(d)
    return out


def schoolbook_add_shifted(field, lo, hi, off, n):
    """Reference for ``field.add_shifted``: the first n coefficients of
    lo + x**off * hi, one scalar add per overlapping digit; a vector of the
    field's type, as the kernel gives."""
    out = list(lo[:n])
    out += [0] * (n - len(out))
    for j, c in enumerate(hi[: max(n - off, 0)]):
        out[off + j] = field.add(out[off + j], c)
    return field.vector(out)


def schoolbook_dot(field, pairs):
    """Reference for ``field.dot``: the sum of x*y, one scalar add and mul
    per pair; a scalar, whatever vectors the pairs were read from."""
    acc = field.zero
    for x, y in pairs:
        acc = field.add(acc, field.mul(x, y))
    return acc


def reference_additive_roots(field, terms, q):
    """Reference for ``fields.additive_roots``, as it was before the map was
    kept: for every q afresh, the k x k matrix over F_p whose column i is
    the image of alpha**i (each found by ``field.pow``), [M | q] row-reduced
    as lists, and the particular solution plus the whole kernel span,
    sorted by coefficient vector."""
    p, k = field.p, field.k
    cols = [0] * k
    for s, c in terms:
        for i in range(k):
            image = field.pow(p ** i if k > 1 else 1, p ** s)
            cols[i] = field.add(cols[i], field.mul(c, image))
    rows = [list(row) for row in
            zip(*(schoolbook_digits(field, c) for c in cols + [q]))]
    pivots = []
    for col in range(k):
        r = len(pivots)
        piv = next((i for i in range(r, k) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(a - f * b) % p for a, b in zip(row, rows[r])]
        pivots.append(col)
    if any(row[k] for row in rows[len(pivots):]):
        return []
    sols = [[0] * k]
    for col, row in zip(pivots, rows):
        sols[0][col] = row[k]
    for free in sorted(set(range(k)) - set(pivots)):
        v = [0] * k
        v[free] = 1
        for col, row in zip(pivots, rows):
            v[col] = -row[free] % p
        sols = [[(a + t * b) % p for a, b in zip(x, v)]
                for x in sols for t in range(p)]
    sols.sort()
    return [sum(c * p ** i for i, c in enumerate(x)) for x in sols]


def reference_field_additive_roots(field, terms, q):
    """Reference for ``Field.additive_roots``: the roots by
    :func:`reference_additive_roots`, NeedExtension when there is none."""
    roots = reference_additive_roots(field, terms, q)
    if roots:
        return roots
    coeffs = [0] * (field.p ** max(s for s, _ in terms) + 1)
    coeffs[0] = field.neg(q)
    for s, c in terms:
        coeffs[field.p ** s] = field.add(coeffs[field.p ** s], c)
    raise NeedExtension(root_extension(field, coeffs))


def reference_tables(field):
    """Reference for the exp, log and neg tables of a table field, as
    ``Field._build_tables`` chained them before: the generator's images of
    lo < P = p**ceil(k/2) and of P*hi by table-free products, then one
    ``field.add`` of two images per element."""
    p, k, q = field.p, field.k, field.q
    g = field._exp[1]
    P = p ** ((k + 1) // 2)
    lo_tab = [field._raw_mul(g, a) for a in range(P)]
    hi_tab = [field._raw_mul(g, P * a) for a in range(q // P)]
    exp = [1] * (q - 1)
    x = 1
    for i in range(1, q - 1):
        x = exp[i] = field.add(lo_tab[x % P], hi_tab[x // P])
    log = [-1] * q
    for i, c in enumerate(exp):
        log[c] = i
    half = (q - 1) // 2
    neg = None if p == 2 else \
        [0] + [exp[log[a] - half] for a in range(1, q)]
    return exp, log, neg


def reference_is_irreducible(f, p):
    """Reference for Ben-Or's test as ``fields._is_irreducible`` ran it
    before the factor sieve: from d = 1, x**(p**d) mod f by the fold-row
    product, the x**(p**d) - x multiplied together and gcd'ed with f at
    d = 1, 2, 4, 8, .. and n/2."""
    n = len(f) - 1
    if n <= 1:
        return n == 1
    ring, fp = _FoldProduct(p, f), field_create(p, 1)
    y, acc = p, 1
    last = n // 2
    for d in range(1, last + 1):
        y = ring.pow(y, p)
        h = y - p if y // p % p else y + (p - 1) * p
        acc = h if acc == 1 else ring.mul(acc, h)
        if d & (d - 1) == 0 or d == last:
            if len(_poly_gcd(fp, f, _strip(list(ring.digits(acc))))) != 1:
                return False
            acc = 1
    return True


def _reference_raw_mul(field, a, b):
    # a prime field's product is its own reference: the schoolbook
    # extension product multiplies over F_p through this very method
    if field.k == 1:
        return a * b % field.p
    return schoolbook_field_mul(field, a, b)


def laurent_dot_reference(dom, pairs, add=LaurentDomain.add,
                          mul=LaurentDomain.mul):
    """Reference for ``LaurentDomain.dot``: the sum of x*y, left to right,
    one ``add`` of one ``mul`` per pair, exact zeros skipped."""
    acc = dom.zero
    for x, y in pairs:
        if not dom.is_zero(x) and not dom.is_zero(y):
            acc = add(dom, acc, mul(dom, x, y))
    return acc


def laurent_accumulate_reference(dom, *cells):
    """Reference for ``LaurentDomain._accumulate``: for each cell, the sum
    of x*y left to right, one :func:`laurent_add_reference` of one
    :func:`laurent_mul_reference` per pair, exact zeros skipped; units of
    the domain's type, as the loop gives them."""
    out = []
    for terms in cells:
        acc = laurent_dot_reference(dom, terms, laurent_add_reference,
                                    laurent_mul_reference)
        out.append(LaurentScalar(acc.val, dom._unit(acc.unit), acc.prec))
    return out


def laurent_conv_reference(dom, a, b, n, add=LaurentDomain.add,
                           mul=LaurentDomain.mul):
    """Reference for ``LaurentDomain.conv``, by schoolbook: exact zeros are
    skipped and each output sums its terms in increasing index of a, one
    ``add`` of one ``mul`` per term."""
    out = [dom.zero] * (n + 1)
    terms = [(j, y) for j, y in enumerate(b[: n + 1]) if not dom.is_zero(y)]
    for i, x in enumerate(a[: n + 1]):
        if dom.is_zero(x):
            continue
        for j, y in terms:
            if i + j > n:
                break
            out[i + j] = add(dom, out[i + j], mul(dom, x, y))
    return out


def reference_frob(field, a, m=1):
    """Reference for ``Field.frob``: a**(p**m) as m mod k p-th powers by
    ``field.pow``, with no Frobenius matrix."""
    for _ in range(m % field.k):
        a = field.pow(a, field.p)
    return a


def power_loop_compose(field, outer, inner, og, t):
    """Reference for ``Field.compose``: the power loop alone, with no
    Frobenius split, through the field's (possibly swapped) ``conv`` and
    ``add_shifted``."""
    return compose_by_powers(field, field.vector(outer), field.vector(inner),
                             og, t)


class PushLeft(OrderedLeft):
    """Reference for :class:`~germ.sides.OrderedLeft`: the left side
    pushed one phi at a time into a running sum of whole vectors, each
    fixed phi_h added as phi_h W_h by a one-term ``conv`` and
    ``add_shifted``."""

    def __init__(self, dom, unit, d, n_hi):
        super().__init__(dom, unit, d, n_hi)
        self.acc = unit                     # the sum of phi_h W_h, fixed h

    def coef(self, n):
        return self.acc[n]

    def assign(self, j, value):
        dom, n_hi = self.dom, self.n_hi
        lo = self.d * j
        if dom.is_zero(value) or lo > n_hi:
            return
        self.acc = dom.add_shifted(
            self.acc, dom.conv([value], self._W(j)[lo:], n_hi - lo), lo,
            n_hi + 1)


class PushRight(OrderedRight):
    """Reference for :class:`~germ.sides.OrderedRight`: psi_j is added
    into psi by ``add_shifted`` as the c = 1 binomial update, and a chain
    coefficient's b = 0 term by ``add`` of ``mul``."""

    def assign(self, j, value):
        dom, n_hi = self.dom, self.n_hi
        self.phis.append(value)
        self.frontier = j
        if dom.is_zero(value):
            return
        for tau, fam in self.twistpow.items():
            dtw = dom.frob(value, tau)
            for c in range(len(fam) - 1, 0, -1):
                dpow = dom.one
                for l in range(1, c + 1):
                    dpow = dom.mul(dpow, dtw)
                    off = j * l
                    if off > n_hi:
                        break
                    coef = math.comb(c, l) % self.p
                    if coef == 0:
                        continue
                    cd = [dom.mul(dom.from_int(coef), dpow)]
                    if c != l:
                        cd = dom.conv(cd, fam[c - l], n_hi - off)
                    fam[c] = dom.add_shifted(fam[c], cd, off, n_hi + 1)

    def _chain_compute(self, tau, mexp, l, final):
        dom, p = self.dom, self.p
        mp = mexp // p
        small = self._twist_power(tau, mexp % p)
        key = (tau, mexp, l)
        rest = self.partials.pop(key, None) if final else \
            self.partials.get(key)
        if mp < p:
            inner = self._twist_power(tau + 1, mp)
        else:
            inner = [self.coef(tau + 1, mp, b) for b in
                     range(1 if rest is not None else l // p + 1)]
        if rest is None:
            rest = dom.dot([(inner[b], small[l - p * b])
                            for b in range(1, l // p + 1)])
            if not final and l - p <= self.frontier and \
                    l // p <= self._final_cap(tau + 1, mp):
                self.partials[key] = rest
        s, a = inner[0], small[l]
        if dom.is_zero(s) or dom.is_zero(a):
            return rest
        return dom.add(rest, dom.mul(s, a))


def ordered_left_side(field, unit, d, n_hi):
    """Reference for ``Field.left_side``: the engine's left side in the
    order of F_q((t)), each coefficient one ``dot`` in increasing h."""
    return OrderedLeft(field, unit, d, n_hi)


def ordered_right_side(field, n_hi, supp):
    """Reference for ``Field.right_side``: the ordered chain sums, as over
    F_q((t))."""
    return OrderedRight(field, n_hi, supp)


_REFERENCE_KERNELS = {
    (Field, "conv"): schoolbook_conv,
    (Field, "add_shifted"): schoolbook_add_shifted,
    (Field, "compose"): power_loop_compose,
    (Field, "_raw_mul"): _reference_raw_mul,
    (Field, "dot"): schoolbook_dot,
    (_FoldProduct, "add"): schoolbook_fold_add,
    (Field, "neg"): schoolbook_field_neg,
    (Field, "frob"): reference_frob,
    (Field, "left_side"): ordered_left_side,
    (Field, "right_side"): ordered_right_side,
    (Field, "additive_roots"): reference_field_additive_roots,
    (_FoldProduct, "pow"): schoolbook_fold_pow,
    (LaurentDomain, "conv"): laurent_conv_reference,
    (LaurentDomain, "dot"): laurent_dot_reference,
    (LaurentDomain, "_accumulate"): laurent_accumulate_reference,
}


@contextlib.contextmanager
def reference_kernels():
    """Run every ``Field`` and ``LaurentDomain`` on the schoolbook
    references: ``Field.conv``, ``add_shifted``, ``dot``, the table-free
    product ``_raw_mul``, the table-free sum ``_FoldProduct.add`` and
    ``Field.neg`` digit by digit, ``Field.frob`` as repeated p-th powers
    with no Frobenius matrix, ``Field.compose`` as the power loop with no
    Frobenius split, ``Field``'s engine kernels ``left_side`` and
    ``right_side`` as the ordered ones of ``LaurentDomain``,
    ``Field.additive_roots`` as a fresh elimination for every right side,
    with no kept map, ``_FoldProduct.pow`` (table builds, inverses and
    powers of table-free fields, Ben-Or's test) by square and multiply
    over schoolbook products, ``LaurentDomain.conv`` and ``dot`` as one
    ``add`` of one ``mul`` per term, and ``LaurentDomain._accumulate``, the
    one loop that ``add``, ``mul``, ``neg``, ``sub`` and ``add_shifted``
    run as cells, as one :func:`laurent_add_reference` of one
    :func:`laurent_mul_reference` per term.  So ``conv`` keeps the push
    schoolbook as the check of the pull grouping, and every Laurent
    scalar op runs on the per-digit references.

    ``Field.add`` keeps its other rules (xor, (a + b) % p and the
    respread tables): ``schoolbook_conv`` calls it once per term, so a
    digit-by-digit ``add`` would make the pool replay several times
    slower, and the default tests check those rules against
    :func:`schoolbook_field_add`.

    Yields a Counter of the calls each reference took, keyed
    ``"Field.conv"`` and so on, so a caller can tell that the swap took
    effect.  The packed kernels are restored on exit.  Tables built inside
    are the same as outside: they are filled by products, which the
    references compute exactly, and sums by the respread tables.
    """
    calls = collections.Counter()
    saved = {key: getattr(*key) for key in _REFERENCE_KERNELS}

    def counted(name, ref):
        def kernel(self, *args):
            calls[name] += 1
            return ref(self, *args)
        return kernel

    for (cls, name), ref in _REFERENCE_KERNELS.items():
        setattr(cls, name, counted(f"{cls.__name__}.{name}", ref))
    try:
        yield calls
    finally:
        for (cls, name), kernel in saved.items():
            setattr(cls, name, kernel)


def series_from_ints(dom, ints, trunc=None):
    """A series whose coefficients are the ints ``dom.from_int`` reads."""
    return Series(dom, [dom.from_int(n) for n in ints], trunc)


def a_dict(nf):
    """A normal form's nonzero coefficients of a, keyed by index."""
    return {n: c for n, c in enumerate(nf.a) if not nf.dom.is_zero(c)}


def t_h(cert, h):
    """t_h of a growth certificate by its recurrence: t_0 = s_0 and
    t_(h+1) = p t_h + eta."""
    t = Fraction(cert.s0)
    for _ in range(h):
        t = cert.p * t + cert.eta
    return t


def c_n_recursive(cert, n):
    """Reference for ``GrowthCertificate.c_n_closed``: n up to s_0, then
    t_h + k (c - delta_h) for n = s_h + k on segment h, from the defining
    recurrences."""
    if n <= cert.s0:
        return Fraction(n)
    h = 0
    while cert.s_h(h + 1) <= n:
        h += 1
    return t_h(cert, h) + (n - cert.s_h(h)) * (cert.c - cert.delta_h(h))


def subs_power(s, r):
    """s(x**r), to truncation order r*(trunc + 1) - 1."""
    t = s.trunc * r + r - 1
    out = [s.dom.zero] * (t + 1)
    for n, c in enumerate(s.coeffs):
        out[n * r] = c
    return Series(s.dom, out, t)


def laurent_germ_to_dict(f):
    """The JSON form of a germ over F_q((t)), which ``germ growth`` reads
    (``jsonio.laurent_germ_from_dict``)."""
    dom = f.dom
    coeffs = [{"val": None, "unit": [], "prec": None} if dom.is_zero(c) else
              {"val": c.val, "unit": [list(dom.base.to_vec(d))
                                      for d in c.unit], "prec": c.prec}
              for c in f.series.coeffs]
    return {"schema": "germ/1", "p": dom.p, "prec": dom.prec,
            "field": dom.base.to_dict(),
            "series": {"trunc": f.series.trunc, "coeffs": coeffs}}


def growth_germ(dom, rng):
    """Criterion 08's random germ x^3 + c t^v x^4 + ... over F_q((t)), and
    v: profile (m, e, r_0) = (0, 1, 1), coefficients at x^5..x^9 of one or
    two digits and valuation below 3.  Over F_3 the draws are criterion
    08's own."""
    q = dom.base.q
    trunc = 24
    co = [dom.zero] * (trunc + 1)
    co[3] = dom.one
    v = rng.choice([0, 0, 0, 1, 2])
    co[4] = dom.t_power(v, 1 + rng.randrange(q - 1))
    for idx in (5, 6, 7, 8, 9):
        if rng.random() < 0.5:
            digits = [rng.randrange(q) for _ in range(rng.randrange(1, 3))]
            digits[0] = rng.randrange(1, q) if rng.random() < 0.8 else \
                digits[0]
            if any(digits):
                while digits[0] == 0:
                    digits.pop(0)
                co[idx] = dom.make(rng.randrange(0, 3), digits)
    return Germ1D(dom, Series(dom, co, trunc)), v


def r0_two_germ(dom, rng):
    """A random germ x^3 + c x^5 + ... over F_3((t)) with r_0 = 2: its
    right side reads psi^2 chains, which criterion 08's (r_0 = 1) never
    does."""
    co = [dom.zero] * 25
    co[3] = dom.one
    co[5] = dom.make(0, [2] + [rng.randrange(3)
                               for _ in range(rng.randrange(3))])
    for idx in range(6, 11):
        if rng.random() < 0.6:
            digits = [rng.randrange(1, 3)] + \
                [rng.randrange(3) for _ in range(rng.randrange(3))]
            co[idx] = dom.make(rng.randrange(3), digits)
    return Germ1D(dom, Series(dom, co, 24))


def laurent_lift_series(dom, s):
    """A finite-field series lifted to constant coefficients of the
    Laurent domain ``dom`` over its field."""
    return Series(dom, [dom.constant(c) for c in s.coeffs], s.trunc)


def laurent_lift_germ(dom, f):
    return Germ1D(dom, laurent_lift_series(dom, f.series))


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
        while digits and digits[-1] == 0:
            digits.pop()
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


def reference_parser():
    """The ``germ`` argument parser as stated one ``add_argument`` at a time,
    the reference for the parser that ``germ.cli`` builds from its command
    table: the same help text and the same namespaces."""
    ap = _Parser(
        prog="germ",
        description="classify superattracting germs in characteristic p")
    sub = ap.add_subparsers(dest="command", required=True)

    def germ_arg(sp):
        sp.add_argument("germ", help="germ JSON file")

    sp = sub.add_parser("invariants", help="compute (m, d, e, r)")
    germ_arg(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("normalize", help="normal form and witness")
    germ_arg(sp)
    sp.add_argument("--choice", default="ndoubleprime",
                    choices=["nprime", "ndoubleprime"])
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--allow-extension", dest="allow_extension",
                    action="store_true", default=True)
    sp.add_argument("--no-extension", dest="allow_extension",
                    action="store_false")
    sp.add_argument("--transcript")
    sp.add_argument("--out")

    sp = sub.add_parser("bottcher", help="coprime-degree product witness")
    germ_arg(sp)
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--out")

    sp = sub.add_parser("conjcheck", help="verify a conjugacy by composition")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("phi")
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--out")

    sp = sub.add_parser("compose", help="compose two germs, check the bound")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("--order", type=_count)
    sp.add_argument("--out")

    sp = sub.add_parser("iterate", help="iterate invariants")
    germ_arg(sp)
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--check", action="store_true")
    sp.add_argument("--order", type=_count)
    sp.add_argument("--out")

    sp = sub.add_parser("infinity", help="germ at infinity of a polynomial")
    sp.add_argument("poly")
    sp.add_argument("--order", type=_count)
    sp.add_argument("--out")

    sp = sub.add_parser("multinorm", help="monomial conjugacy in N variables")
    germ_arg(sp)
    sp.add_argument("--degree", type=_count, default=12)
    sp.add_argument("--out")

    sp = sub.add_parser("growth", help="t-adic growth certificate")
    germ_arg(sp)
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--out")

    sp = sub.add_parser("jtable", help="fiber-index table as TSV")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--m", type=_natural, default=0)
    sp.add_argument("--d", type=_count, help="defaults to the smallest degree "
                    "matching the r sequence")
    sp.add_argument("--r", type=_r_sequence, required=True,
                    help="comma-separated r sequence")
    sp.add_argument("--nmax", type=_natural, default=30)
    sp.add_argument("--out")
    return ap
