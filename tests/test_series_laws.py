"""Ring laws of truncated series multiplication and composition laws, as
hypothesis properties.

Products are compared where both sides are determined, i.e. up to the
smaller of the two pessimistic truncations.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from germ.fields import compose_by_powers, field_create  # noqa: E402
from germ.series import Series, revert  # noqa: E402
from germ_testutil import schoolbook_conv  # noqa: E402

FIELDS = [field_create(3, 1), field_create(3, 2), field_create(2, 2)]

laws = settings(max_examples=120, deadline=None, derandomize=True,
                database=None)


@st.composite
def series_over(draw, field):
    trunc = draw(st.integers(0, 40))
    code = st.one_of(st.just(0), st.integers(0, field.q - 1))
    coeffs = draw(st.lists(code, min_size=trunc + 1, max_size=trunc + 1))
    lead = draw(st.integers(0, trunc + 1))
    return Series(field, [0] * lead + coeffs[lead:], trunc)


@st.composite
def triples(draw):
    field = draw(st.sampled_from(FIELDS))
    f, g, h = (draw(series_over(field)) for _ in range(3))
    return f, g, h, draw(st.integers(0, 50))


def agree(lhs, rhs):
    t = min(lhs.trunc, rhs.trunc)
    return lhs.coeffs[: t + 1] == rhs.coeffs[: t + 1]


@laws
@given(triples())
def test_mul_commutative(fgh):
    f, g, _, t = fgh
    assert (f * g).coeffs == (g * f).coeffs
    assert (f * g).trunc == (g * f).trunc
    assert f.mul(g, trunc=t).coeffs == g.mul(f, trunc=t).coeffs


@laws
@given(triples())
def test_mul_associative(fgh):
    f, g, h, t = fgh
    assert agree((f * g) * h, f * (g * h))
    assert agree(f.mul(g, trunc=t).mul(h, trunc=t),
                 f.mul(g.mul(h, trunc=t), trunc=t))


@laws
@given(triples())
def test_mul_distributive(fgh):
    f, g, h, _ = fgh
    assert agree(f * (g + h), f * g + f * h)
    assert agree((g + h) * f, g * f + h * f)


@laws
@given(triples())
def test_mul_matches_schoolbook(fgh):
    f, g, _, t = fgh
    prod = f.mul(g, trunc=t)
    assert prod.coeffs == list(schoolbook_conv(f.dom, f.coeffs, g.coeffs,
                                               prod.trunc))
    assert prod.trunc == min(f.trunc + g.ord_floor(),
                             g.trunc + f.ord_floor(), t)


@st.composite
def composable(draw):
    """(f, g, h) over one field with g and h vanishing at 0."""
    field = draw(st.sampled_from(FIELDS))
    f = draw(series_over(field))
    g, h = (draw(series_over(field)) for _ in range(2))
    g.coeffs[0] = h.coeffs[0] = 0
    return f, g, h


@laws
@given(composable())
def test_compose_associative(fgh):
    f, g, h = fgh
    assert agree(f.compose(g).compose(h), f.compose(g.compose(h)))


@st.composite
def order_one(draw):
    field = draw(st.sampled_from(FIELDS))
    f = draw(series_over(field))
    trunc = max(f.trunc, 1)
    coeffs = [0, draw(st.integers(1, field.q - 1))] + f.coeffs[2:]
    return Series(field, coeffs, trunc)


@laws
@given(order_one())
def test_revert_is_a_left_inverse(f):
    x = Series.identity(f.dom, f.trunc)
    back = revert(f).compose(f)
    assert back.trunc == f.trunc
    assert back.coeffs == x.coeffs


# the Frobenius split of Field.compose against the power loop it recurses
# to, over F_2, F_3, F_4, F_9 and the table-free F_{3^11}: outers long
# enough that the split recurses (degree at least p, powers past degree 8)
SPLIT_FIELDS = [field_create(2, 1), field_create(3, 1), field_create(2, 2),
                field_create(3, 2), field_create(3, 11)]


@st.composite
def split_cases(draw):
    field = draw(st.sampled_from(SPLIT_FIELDS))
    og, t = draw(st.integers(1, 3)), draw(st.integers(0, 160))
    code, unit = st.integers(0, field.q - 1), st.integers(1, field.q - 1)
    deg = draw(st.integers(0, 80))
    shape = draw(st.sampled_from(["dense", "sparse", "trailing zeros"]))
    if shape == "sparse":
        outer = [0] * (deg + 1)
        for n in draw(st.lists(st.integers(0, deg), max_size=6)):
            outer[n] = draw(unit)
    else:
        outer = draw(st.lists(code, min_size=deg + 1, max_size=deg + 1))
        if shape == "trailing zeros":
            outer += [0] * draw(st.integers(1, 40))
    inner = [0] * og + [draw(unit)] + draw(
        st.lists(code, min_size=t, max_size=t))
    cap = draw(st.one_of(st.none(), st.integers(0, t)))
    return Series(field, outer), Series(field, inner[: t + 1], t), cap


@laws
@given(split_cases())
def test_compose_split_matches_power_loop(case):
    f, g, cap = case
    dom, og = f.dom, g.ord_floor()
    got = f.compose(g, trunc=cap)
    t = min(g.trunc, (f.trunc + 1) * og - 1)
    if cap is not None:
        t = min(t, cap)
    want = compose_by_powers(dom, dom.vector(f.coeffs),
                             dom.vector(g.coeffs[: t + 1]), og, t)
    assert got.trunc == t
    assert got.coeffs == list(want)
