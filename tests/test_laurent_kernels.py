"""LaurentDomain's add, mul, normalization, conv and dot against per-digit
references built from scalar field ops only, as hypothesis properties.

Each op must agree exactly in (val, unit, prec): the digit work runs in the
packed Field kernels and the packed accumulate step, and the precision each
output carries is part of every witness the growth certificate reads.
Units compare as tuples: a domain stores them as vectors of its base field's
type, bytes over at most 256 elements and lists above.
"""

import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from germ.analytic import LaurentDomain, LaurentScalar  # noqa: E402
from germ.fields import field_create  # noqa: E402
from germ.series import Series  # noqa: E402
from germ_testutil import (laurent_add_reference,  # noqa: E402
                           laurent_conv_reference, laurent_dot_reference,
                           laurent_lift_series, laurent_mk_reference,
                           laurent_mul_reference)


# F_2, F_4: packed xor; F_3, F_5, F_7: packed add and translate, and F_5 and
# F_7 cross conv's one-byte bound at 16 and 8 digits; F_9: per-digit adds.
# The F_3 domain at prec 70 reaches F_3's bound at 64 digits.  F_{17^2} has
# 289 elements, so its units are lists.  conv and dot accumulate packed
# over F_p while (p-1) + prec*(p-1)**2 <= 255, and both sides of that bound
# are here: F_3 at prec 63 and 64, F_5 at 15 and 16, F_7 at 6 and 7; F_2 at
# prec 100 sums long units packed; F_5 and F_7 at prec 20 are past theirs.
KERNEL_DOMAINS = [LaurentDomain(field_create(p, k), prec=prec)
                  for p, k, prec in [(2, 1, 20), (2, 2, 20), (3, 1, 20),
                                     (3, 1, 70), (5, 1, 20), (7, 1, 20),
                                     (3, 2, 20), (17, 2, 20), (3, 1, 63),
                                     (3, 1, 64), (2, 1, 100), (5, 1, 15),
                                     (5, 1, 16), (7, 1, 6), (7, 1, 7)]]


def _unit_type(dom):
    return type(dom.base.vector(()))


def _in_domain(dom, x):
    """A reference scalar with its unit stored as the domain stores it."""
    return LaurentScalar(x.val, _unit_type(dom)(x.unit), x.prec)


kernel_laws = settings(max_examples=400, deadline=None, derandomize=True,
                       database=None)


@st.composite
def laurent_scalars(draw, dom):
    """Exact, capped or zero-to-precision scalars, stored digits on both
    sides of the domain's cap, some with every digit at q - 1."""
    kind = draw(st.sampled_from(["exact", "capped", "zero", "vanishing"]))
    val = draw(st.integers(-5, 5))
    if kind == "zero":
        return dom.zero
    if kind == "vanishing":
        return laurent_mk_reference(dom, val, [], draw(st.integers(1, 6)))
    top = dom.base.q - 1
    n = draw(st.integers(1, dom.prec + 4))
    if draw(st.booleans()):
        digits = [top] * n
    else:
        digits = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    digits[0] = digits[0] or 1
    prec = None if kind == "exact" else draw(st.integers(1, dom.prec + 4))
    return laurent_mk_reference(dom, val, digits, prec)


def _cancelling(draw, dom, x, y):
    """y with its leading digits replaced by -x's, so x + y cancels there."""
    lead = draw(st.integers(1, len(x.unit)))
    digits = [dom.base.neg(d) for d in x.unit[:lead]] + list(y.unit)
    prec = None if x.prec is None and draw(st.booleans()) else \
        draw(st.integers(1, dom.prec + 4))
    return laurent_mk_reference(dom, x.val, digits, prec)


@st.composite
def laurent_pairs(draw):
    dom = draw(st.sampled_from(KERNEL_DOMAINS))
    x = draw(laurent_scalars(dom))
    y = draw(laurent_scalars(dom))
    if x.unit and draw(st.booleans()):
        y = _cancelling(draw, dom, x, y)
    return dom, _in_domain(dom, x), _in_domain(dom, y)


@st.composite
def term_scalars(draw, dom):
    """A factor of a sum of products: any of ``laurent_scalars``, an exact
    one-digit monomial, whose products keep the other factor's length, or
    a unit of exactly prec digits, exact or capped there, some with every
    digit at q - 1, so exact sums cross the cap."""
    kind = draw(st.sampled_from(["any", "any", "monomial", "at-cap"]))
    if kind == "any":
        return draw(laurent_scalars(dom))
    val = draw(st.integers(-5, 5))
    top = dom.base.q - 1
    if kind == "monomial":
        return laurent_mk_reference(dom, val, [draw(st.integers(1, top))],
                                    None)
    if draw(st.booleans()):
        digits = [top] * dom.prec
    else:
        digits = draw(st.lists(st.integers(0, top), min_size=dom.prec,
                               max_size=dom.prec))
        digits[0], digits[-1] = digits[0] or 1, digits[-1] or 1
    prec = None if draw(st.booleans()) else dom.prec
    return laurent_mk_reference(dom, val, digits, prec)


def _reference_dot(dom, pairs):
    return laurent_dot_reference(dom, pairs, laurent_add_reference,
                                 laurent_mul_reference)


@st.composite
def dot_operands(draw):
    dom = draw(st.sampled_from(KERNEL_DOMAINS))
    factors = st.tuples(term_scalars(dom), term_scalars(dom))
    pairs = draw(st.lists(factors, max_size=6))
    if len(pairs) > 1 and draw(st.booleans()):
        # a later term 1 * y cancels the leading digits of the sum so far
        k = draw(st.integers(1, len(pairs) - 1))
        partial = _reference_dot(dom, pairs[:k])
        if partial.unit:
            pairs[k] = (dom.one, _cancelling(draw, dom, partial,
                                             pairs[k][1]))
    return dom, [(_in_domain(dom, x), _in_domain(dom, y)) for x, y in pairs]


@st.composite
def conv_operands(draw):
    dom = draw(st.sampled_from(KERNEL_DOMAINS))
    a = draw(st.lists(term_scalars(dom), max_size=6))
    b = draw(st.lists(term_scalars(dom), max_size=6))
    if len(a) > 1 and len(b) > 1 and b[0].unit and draw(st.booleans()):
        # coefficient 1 is 1 * b[1] + 1 * b[0], which cancels at its top
        a[0] = a[1] = dom.one
        b[1] = _cancelling(draw, dom, b[0], b[1])
    n = draw(st.integers(0, 12))
    return (dom, [_in_domain(dom, x) for x in a],
            [_in_domain(dom, y) for y in b], n)


def _triple(x):
    return x.val, tuple(x.unit), x.prec


@kernel_laws
@given(laurent_pairs())
def test_laurent_add_matches_reference(pair):
    dom, x, y = pair
    assert _triple(dom.add(x, y)) == _triple(laurent_add_reference(dom, x, y))
    assert _triple(dom.add(y, x)) == _triple(laurent_add_reference(dom, y, x))


@kernel_laws
@given(laurent_pairs())
def test_laurent_mul_matches_reference(pair):
    dom, x, y = pair
    assert _triple(dom.mul(x, y)) == _triple(laurent_mul_reference(dom, x, y))
    assert _triple(dom.mul(y, x)) == _triple(laurent_mul_reference(dom, y, x))


@kernel_laws
@given(st.data())
def test_laurent_add_shifted_matches_elementwise_add(data):
    # the engine's and compose's O(n) updates: exact zeros in hi must leave
    # lo's coefficient as it is, everything else adds by one dom.add
    dom = data.draw(st.sampled_from(KERNEL_DOMAINS))
    scalars = st.lists(laurent_scalars(dom), max_size=8).map(
        lambda xs: [_in_domain(dom, x) for x in xs])
    lo, hi = data.draw(scalars), data.draw(scalars)
    off = data.draw(st.integers(0, 10))
    n = data.draw(st.integers(0, 20))
    want = list(lo[:n]) + [dom.zero] * (n - len(lo[:n]))
    for j, y in enumerate(hi):
        if off + j < n:
            want[off + j] = dom.add(want[off + j], y)
    got = dom.add_shifted(lo, hi, off, n)
    assert [_triple(x) for x in got] == [_triple(x) for x in want]
    assert all(type(x.unit) is _unit_type(dom) for x in got)


@kernel_laws
@given(st.data())
def test_laurent_make_matches_reference(data):
    dom = data.draw(st.sampled_from(KERNEL_DOMAINS))
    top = dom.base.q - 1
    val = data.draw(st.integers(-5, 5))
    digits = data.draw(st.lists(st.integers(0, top), max_size=dom.prec + 6))
    prec = data.draw(st.one_of(st.none(), st.integers(0, dom.prec + 6)))
    assert _triple(dom.make(val, digits, prec)) == \
        _triple(laurent_mk_reference(dom, val, digits, prec))


@kernel_laws
@given(laurent_pairs())
def test_units_keep_the_domain_type(pair):
    # a unit of another type would silently leave the packed kernels
    dom, x, y = pair
    out = [dom.zero, dom.one, dom.constant(dom.base.q - 1), dom.from_int(2),
           dom.t_power(-2), dom.t_power(3, dom.base.q - 1),
           dom.make(x.val, list(x.unit), x.prec), dom.neg(x),
           dom.add(x, y), dom.sub(x, y), dom.mul(x, y), dom.frob(x),
           dom.frob(y, 2)]
    if x.unit or dom.is_zero(x):
        out.append(dom.frob_root(dom.frob(x)))
    if x.unit:
        out += [dom.inv(x), dom.div(y, x)]
    f = Series(dom.base, [0, 1, dom.base.q - 1], 2)
    out += laurent_lift_series(dom, f).coeffs
    assert [type(z.unit) for z in out] == [_unit_type(dom)] * len(out)


@kernel_laws
@given(dot_operands())
def test_laurent_dot_matches_reference(operands):
    dom, pairs = operands
    got = dom.dot(pairs)
    assert _triple(got) == _triple(_reference_dot(dom, pairs))
    assert type(got.unit) is _unit_type(dom)


@kernel_laws
@given(conv_operands())
def test_laurent_conv_matches_reference(operands):
    dom, a, b, n = operands
    got = dom.conv(a, b, n)
    want = laurent_conv_reference(dom, a, b, n, laurent_add_reference,
                                  laurent_mul_reference)
    assert [_triple(x) for x in got] == [_triple(x) for x in want]
    assert all(type(x.unit) is _unit_type(dom) for x in got)


def test_slots_at_the_packed_bound():
    # a sum so far with every digit at q - 1, plus the product of two units
    # of prec digits at q - 1, fills digit prec - 1 to (p-1) + prec*(p-1)**2
    for dom in KERNEL_DOMAINS:
        top = dom.base.q - 1
        for prec in (None, dom.prec):
            x = _in_domain(dom, laurent_mk_reference(dom, 0, [top] * dom.prec,
                                                     prec))
            pairs = [(x, dom.one), (x, x)]
            assert _triple(dom.dot(pairs)) == \
                _triple(_reference_dot(dom, pairs))
            a, b = [dom.one, x], [x, x]
            want = laurent_conv_reference(dom, a, b, 1, laurent_add_reference,
                                          laurent_mul_reference)
            assert [_triple(z) for z in dom.conv(a, b, 1)] == \
                [_triple(z) for z in want]


def test_packed_bound_splits_the_kernel_domains():
    # both sides of (p-1) + prec*(p-1)**2 <= 255 are among KERNEL_DOMAINS
    packed = {(dom.p, dom.base.k, dom.prec) for dom in KERNEL_DOMAINS
              if dom._packed_mod is not None}
    assert packed == {(2, 1, 20), (3, 1, 20), (3, 1, 63), (2, 1, 100),
                      (5, 1, 15), (7, 1, 6)}
    # and of the caps test_results_agree_across_caps draws over F_3
    assert [field_create(3, 1).packed_mod(cap) is not None
            for cap in CAPS] == [True] * 5 + [False] * 2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_vector_kernels_write_into_no_argument(data):
    # conv, add_shifted and compose give back a new list, and no kernel
    # writes into an argument or a unit in it, not even a lo of exactly n
    # scalars
    dom = data.draw(st.sampled_from(KERNEL_DOMAINS))
    kind = data.draw(st.sampled_from([list, tuple]))
    scalars = st.lists(laurent_scalars(dom), max_size=6).map(
        lambda xs: kind(_in_domain(dom, x) for x in xs))
    lo, hi, inner = data.draw(scalars), data.draw(scalars), data.draw(scalars)
    inner = kind([dom.zero]) + inner
    og = next((i for i, c in enumerate(inner) if not dom.is_zero(c)), None)
    args = (lo, hi, inner)
    saved = [[(x, _triple(x)) for x in v] for v in args]
    calls = [dom.conv(lo, hi, n) for n in (0, 3, 9)]
    calls += [dom.add_shifted(lo, hi, off, n)
              for off in (0, 2) for n in (0, len(lo), 9)]
    if og is not None:
        calls += [dom.compose(lo, inner, og, t) for t in (0, 6)]
    dom.dot(list(zip(lo, hi)))
    assert [[(x, _triple(x)) for x in v] for v in args] == saved
    for got in calls:
        assert type(got) is list and all(got is not v for v in args)


# F_3((t)) runs conv and dot packed up to cap 63 and by add and mul from 64
# on (Field.packed_mod); F_9((t)) never packs.  Caps on both sides.
CAPS = [3, 5, 8, 61, 63, 64, 66]


def _random_scalar(dom, rng, kind):
    """A scalar of ``dom``: exact and long enough that the cap cuts the
    product of two, exact of a few digits, capped, zero, or zero to a
    precision."""
    top, cap = dom.base.q - 1, dom.prec
    val = rng.randrange(-3, 4)
    if kind == "zero":
        return dom.zero
    if kind == "vanishing":
        return laurent_mk_reference(dom, val, [], rng.randrange(1, cap + 1))
    n = rng.randrange((cap + 3) // 2, cap + 1) if kind == "long" else \
        rng.randrange(1, min(cap, 4) + 1)
    digits = [rng.randrange(1, top + 1)] + \
        [rng.randrange(top + 1) for _ in range(n - 1)]
    prec = rng.randrange(1, cap + 1) if kind == "capped" else None
    return _in_domain(dom, laurent_mk_reference(dom, val, digits, prec))


@st.composite
def cap_operands(draw):
    """Two domains over F_3 or F_9, of caps P < P', and operand lists valid
    at both.  Half the time coefficient 2 of a*b is a0 b2 + 1 * b1 + a2 b0
    with a0 b2 cut by the cap P and b1 cancelling its leading digits, so
    a sum whose end the cap set is added to, and then added to again."""
    base = draw(st.sampled_from([field_create(3, 1), field_create(3, 2)]))
    cap = draw(st.sampled_from(CAPS))
    dom = LaurentDomain(base, cap)
    wide = LaurentDomain(base, cap + draw(st.sampled_from([1, 4, 40])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    chain = draw(st.booleans())
    kinds = ["long", "long", "short", "capped", "zero", "vanishing"]
    a, b = ([_random_scalar(dom, rng, rng.choice(kinds))
             for _ in range(draw(st.integers(3 if chain else 0, 4)))]
            for _ in range(2))
    if chain:
        a[0], b[2] = (_random_scalar(dom, rng, "long") for _ in range(2))
        prod = dom.mul(a[0], b[2])
        lead = rng.randrange(1, len(prod.unit) + 1)
        digits = [base.neg(d) for d in prod.unit[:lead]] + \
            [rng.randrange(base.q) for _ in range(rng.randrange(3))]
        a[1] = dom.one
        b[1] = _in_domain(dom, laurent_mk_reference(dom, prod.val, digits,
                                                     None))
    return dom, wide, a, b, draw(st.integers(0, 6))


def _digit(x, e):
    i = e - x.val
    return x.unit[i] if 0 <= i < len(x.unit) else 0


def _agrees(x, y):
    """y, from a higher cap, equals an exact x, and agrees with an inexact
    x on every digit below x.val + x.prec."""
    if x.prec is None:
        return _triple(x) == _triple(y)
    end = x.val + x.prec
    start = x.val if y.val == math.inf else min(x.val, y.val)
    return all(_digit(x, e) == _digit(y, e) for e in range(start, end))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cap_operands())
def test_results_agree_across_caps(operands):
    # a digit claimed at cap P that the cap cut from a term would read as
    # zero there and as the term's digit at P'
    dom, wide, a, b, n = operands
    og = next((i for i, c in enumerate(b) if i and not dom.is_zero(c)),
              None)
    ops = [lambda d: d.conv(a, b, n),
           lambda d: [d.dot(list(zip(a, b[::-1])))],
           lambda d: d.add_shifted(a, b, n % 3, n + 1)]
    if og is not None:
        ops.append(lambda d: d.compose(a, [d.zero] + b[1:], og, n + og))
    for op in ops:
        got, want = op(dom), op(wide)
        assert len(got) == len(want)
        assert all(_agrees(x, y) for x, y in zip(got, want)), (got, want)
