"""LaurentDomain's add, mul and normalization against per-digit references
built from scalar field ops only, as hypothesis properties.

Each op must agree exactly in (val, unit, prec): the digit work runs in the
packed Field kernels, and the precision each output carries is part of every
witness the growth certificate reads.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from germ.analytic import LaurentDomain  # noqa: E402
from germ.fields import field_create  # noqa: E402
from germ_testutil import (laurent_add_reference,  # noqa: E402
                           laurent_mk_reference, laurent_mul_reference)


# F_2, F_4: packed xor; F_3, F_5, F_7: packed add and translate, and F_5 and
# F_7 cross conv's one-byte bound at 16 and 8 digits; F_9: per-digit adds.
# The second F_3 domain reaches F_3's bound at 64 digits.
KERNEL_DOMAINS = [LaurentDomain(field_create(p, k), prec=prec)
                  for p, k, prec in [(2, 1, 20), (2, 2, 20), (3, 1, 20),
                                     (3, 1, 70), (5, 1, 20), (7, 1, 20),
                                     (3, 2, 20)]]

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
    return dom, x, y


def _triple(x):
    return x.val, x.unit, x.prec


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
def test_laurent_make_matches_reference(data):
    dom = data.draw(st.sampled_from(KERNEL_DOMAINS))
    top = dom.base.q - 1
    val = data.draw(st.integers(-5, 5))
    digits = data.draw(st.lists(st.integers(0, top), max_size=dom.prec + 6))
    prec = data.draw(st.one_of(st.none(), st.integers(0, dom.prec + 6)))
    assert _triple(dom.make(val, digits, prec)) == \
        _triple(laurent_mk_reference(dom, val, digits, prec))
