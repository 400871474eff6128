"""LaurentDomain's add, mul and normalization against per-digit references
built from scalar field ops only, as hypothesis properties.

Each op must agree exactly in (val, unit, prec): the digit work runs in the
packed Field kernels, and the precision each output carries is part of every
witness the growth certificate reads.  Units compare as tuples: a domain
over at most 256 elements stores them as bytes, a larger one as tuples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from germ.analytic import LaurentDomain, LaurentScalar  # noqa: E402
from germ.fields import field_create  # noqa: E402
from germ.series import Series  # noqa: E402
from germ_testutil import (laurent_add_reference,  # noqa: E402
                           laurent_mk_reference, laurent_mul_reference)


# F_2, F_4: packed xor; F_3, F_5, F_7: packed add and translate, and F_5 and
# F_7 cross conv's one-byte bound at 16 and 8 digits; F_9: per-digit adds.
# The second F_3 domain reaches F_3's bound at 64 digits.  F_{17^2} has 289
# elements, so its units stay tuples.
KERNEL_DOMAINS = [LaurentDomain(field_create(p, k), prec=prec)
                  for p, k, prec in [(2, 1, 20), (2, 2, 20), (3, 1, 20),
                                     (3, 1, 70), (5, 1, 20), (7, 1, 20),
                                     (3, 2, 20), (17, 2, 20)]]


def _unit_type(dom):
    return bytes if dom.base.q <= 256 else tuple


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


@st.composite
def laurent_pairs(draw):
    dom = draw(st.sampled_from(KERNEL_DOMAINS))
    x = draw(laurent_scalars(dom))
    y = draw(laurent_scalars(dom))
    if x.unit and draw(st.booleans()):
        # y agrees with -x on its leading digits, so x + y cancels there
        lead = draw(st.integers(1, len(x.unit)))
        digits = [dom.base.neg(d) for d in x.unit[:lead]] + list(y.unit)
        prec = None if x.prec is None and draw(st.booleans()) else \
            draw(st.integers(1, dom.prec + 4))
        y = laurent_mk_reference(dom, x.val, digits, prec)
    return dom, _in_domain(dom, x), _in_domain(dom, y)


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
    out += dom.lift_series(f).coeffs
    assert [type(z.unit) for z in out] == [_unit_type(dom)] * len(out)
