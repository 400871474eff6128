import math
import random

import pytest

from germ.analytic import LaurentDomain
from germ.errors import (CompositionWithUnit, IncompatibleFields,
                         NonUnitReciprocal, PadicObstruction, ZeroToPrecision)
from germ.fields import field_create
from germ.series import (Germ1D, Series, binomial_pow, nu_p, revert,
                         split_frobenius)
from germ_testutil import schoolbook_conv, series_from_ints, subs_power

F3 = field_create(3, 1)
F9 = field_create(3, 2)
T = 16


def rand_series(field, rng, trunc=T, unit=False, vanishing=False):
    co = [field.rand(rng) for _ in range(trunc + 1)]
    if unit:
        co[0] = field.one
    if vanishing:
        co[0] = field.zero
    return Series(field, co, trunc)


def test_nu_p():
    assert nu_p(3, 18) == 2
    assert nu_p(3, 0) == math.inf
    assert nu_p(2, 7) == 0


def test_ord():
    s = series_from_ints(F3, [0, 0, 0, 1, 1], 8)
    assert s.ord() == 3
    assert Series.one(F3, 4).ord() == 0
    with pytest.raises(ZeroToPrecision):
        Series.zeros(F3, 4).ord()


def test_ring_ops_examples():
    one, x = Series.one(F3, 8), Series.identity(F3, 8)
    assert ((one + x) * (one - x)).coeffs[:3] == [1, 0, 2]
    assert (one + x).pow_int(3).coeffs[:4] == [1, 0, 0, 1]
    rec = (one - x * x).reciprocal()
    assert rec.coeffs[:8] == [1, 0, 1, 0, 1, 0, 1, 0]
    with pytest.raises(NonUnitReciprocal):
        x.reciprocal()
    with pytest.raises(CompositionWithUnit):
        x.compose(one)


def test_reciprocal_property():
    rng = random.Random(2)
    for field in (F3, F9):
        for _ in range(10):
            f = rand_series(field, rng, unit=True)
            assert f.reciprocal().mul(f).agree_order(
                Series.one(field, T)) is None


def test_mul_truncation_pessimism():
    a = series_from_ints(F3, [1, 1], 3)          # trusted to x^3
    b = series_from_ints(F3, [0, 0, 1], 5)       # ord 2, trusted to x^5
    c = a * b
    assert c.trunc == min(3 + 2, 5 + 0)
    d = (a + Series.zeros(F3, 2))                # add takes the min
    assert d.trunc == 2


def test_t_operator():
    rng = random.Random(0)
    psi = Series(F3, [F3.rand(rng) for _ in range(T + 1)], T)
    assert psi.twist(1).agree_order(psi) is None  # fixes the prime field
    f9b = field_create(3, 2, (2, 2, 1))  # alpha^2 = alpha + 1
    alpha = f9b.from_vec((0, 1))
    ts = Series(f9b, [f9b.zero, alpha], 2).twist(1)
    assert f9b.to_vec(ts.coeffs[1]) == (1, 2)  # alpha^3 = 2*alpha + 1
    # F(psi) = T(psi)(F) for vanishing psi
    psi = Series(F9, [0] + [F9.rand(rng) for _ in range(T)], T)
    frob_map = Series.monomial(F9, F9.one, 3, T)
    assert frob_map.compose(psi).agree_order(
        psi.twist(1).compose(frob_map)) is None


def test_t_operator_ring_hom():
    rng = random.Random(3)
    f, g = rand_series(F9, rng), rand_series(F9, rng)
    assert (f * g).twist(1).agree_order(f.twist(1) * g.twist(1)) is None
    assert (f + g).twist(1).agree_order(f.twist(1) + g.twist(1)) is None


def test_compose_associative():
    rng = random.Random(5)
    f = rand_series(F9, rng)
    g = rand_series(F9, rng, vanishing=True)
    h = Series(F9, [F9.zero, F9.zero] + [F9.rand(rng) for _ in range(T - 1)], T)
    lhs = f.compose(g).compose(h)
    rhs = f.compose(g.compose(h))
    assert lhs.truncate(min(lhs.trunc, rhs.trunc)).agree_order(
        rhs.truncate(min(lhs.trunc, rhs.trunc))) is None


def _reference_compose(f, g, trunc):
    """f(g) up to ``trunc`` as the plain sum of f_l g^l over every stored
    f_l, each power of g formed by schoolbook; terms are added in the order
    ``Series.compose`` adds them, so Laurent precision matches too."""
    dom = f.dom
    out = [f.coeffs[0]] + [dom.zero] * trunc
    power = [dom.one] + [dom.zero] * trunc
    for fl in f.coeffs[1:]:
        power = schoolbook_conv(dom, power, g.coeffs, trunc)
        for n, b in enumerate(power):
            out[n] = dom.add(out[n], dom.mul(fl, b))
    return out


def _compose_cases(dom, rand, vague):
    """(outer, inner, cap) triples whose outers end in exact zeros, in a
    ``vague`` value (zero only to precision) or in nothing at all."""
    z = dom.zero
    outers = [
        [rand() for _ in range(5)] + [z] * 12,          # trailing zeros
        [z, rand(), z, z, rand(), vague, z, z, z],      # vague last term
        [rand(), vague] + [z] * 10 + [vague],           # only vague after 1
        [rand()] + [z] * 14,                            # all-zero tail
        [z] * 15,
        [rand() for _ in range(15)],
    ]
    inners = [
        [z] + [rand() for _ in range(20)],
        [z, z, rand(), z] + [rand() for _ in range(17)],
        [z, rand(), z, z, z],
    ]
    for co in outers:
        for trunc in (len(co) - 1, 6):
            for gi in inners:
                for cap in (None, 3, 40):
                    yield Series(dom, co, trunc), Series(dom, gi), cap


@pytest.mark.parametrize("which", ["F9", "laurent"])
def test_compose_matches_power_sum(which):
    rng = random.Random(41)
    if which == "F9":
        dom, vague = F9, F9.zero
        rand = lambda: F9.rand(rng)
    else:
        dom = LaurentDomain(F3, 32)
        vague = dom.make(3, [], 0)  # O(t^3)
        rand = lambda: dom.make(rng.randrange(-2, 3),
                                [F3.rand(rng) for _ in range(4)],
                                rng.choice([None, 6]))
    for f, g, cap in _compose_cases(dom, rand, vague):
        got = f.compose(g, trunc=cap)
        og = g.ord_floor()
        t = min(g.trunc, (f.trunc + 1) * og - 1)
        if cap is not None:
            t = min(t, cap)
        assert got.trunc == t
        want = _reference_compose(f, g, t)
        if which == "F9":
            assert got.coeffs == want
        else:
            assert [(c.val, c.unit, c.prec) for c in got.coeffs] == \
                [(c.val, c.unit, c.prec) for c in want]


def test_split_frobenius_examples():
    f = Series.monomial(F3, F3.one, 3, 9)           # x^p
    g, m = split_frobenius(f)
    assert m == 1 and g.coeffs[1] == 1 and g.ord() == 1
    co = [0] * 10
    co[3], co[4] = 1, 1                             # x^p(1+x): m = 0
    g, m = split_frobenius(series_from_ints(F3, co, 9))
    assert m == 0
    co = [0] * 12
    co[9], co[6] = 1, 1                             # x^(p^2) + x^(2p)
    g, m = split_frobenius(series_from_ints(F3, co, 11))
    assert m == 1 and [g.coeff(i) for i in range(4)] == [0, 0, 1, 1]


def test_split_recompose_identity():
    rng = random.Random(11)
    co = [0, 0, 0] + [F3.rand(rng) for _ in range(12)]
    f = Series(F3, [0] + [0] * 2 + co[3:], 14)
    g, m = split_frobenius(f)
    back = subs_power(g, 3 ** m).truncate(f.trunc)
    assert back.agree_order(f) is None


def test_binomial_pow_examples():
    one, x = Series.one(F3, 10), Series.identity(F3, 10)
    u = one + x
    assert binomial_pow(u, 1, 1).agree_order(u) is None
    v = binomial_pow(u, 1, 2)
    assert v.coeffs[:3] == [1, 2, 1]
    assert v.mul(v).agree_order(u.truncate(v.trunc)) is None
    with pytest.raises(PadicObstruction):
        binomial_pow(u, 1, 3)


def test_binomial_pow_property():
    rng = random.Random(17)
    checked = 0
    for field in (F3, F9):
        while checked < 40:
            a, b = rng.randrange(1, 11), rng.randrange(1, 11)
            if nu_p(3, a) < nu_p(3, b):
                continue
            u = rand_series(field, rng, unit=True)
            v = binomial_pow(u, a, b)
            assert v.pow_int(b, trunc=v.trunc).agree_order(
                u.pow_int(a, trunc=v.trunc)) is None
            checked += 1


def test_binomial_coeffs_against_fraction_oracle():
    # exact rational product formula, reduced once at the end
    from fractions import Fraction
    from germ.series import binomial_coeffs
    rng = random.Random(19)
    for _ in range(25):
        a, b = rng.randrange(1, 30), rng.randrange(1, 30)
        if nu_p(3, a) < nu_p(3, b):
            continue
        got = binomial_coeffs(F3, a, b, 12)
        alpha = Fraction(a, b)
        acc = Fraction(1)
        for n in range(12):
            if n:
                acc = acc * (alpha - n + 1) / n
            assert acc.denominator % 3 != 0  # p-integrality
            want = acc.numerator * pow(acc.denominator, -1, 3) % 3
            assert got[n] == want, (a, b, n)


def test_lemma_easy2_vanishing():
    # the degree-n coefficient of psi^h vanishes when nu_p(h) > nu_p(n)
    rng = random.Random(23)
    for _ in range(30):
        psi = rand_series(F9, rng, trunc=18)
        h = rng.choice([3, 6, 9, 12, 18])
        power = psi.pow_int(h, trunc=18)
        for n in range(1, 19):
            if nu_p(3, h) > nu_p(3, n):
                assert F9.is_zero(power.coeff(n)), (h, n)


def test_revert():
    rng = random.Random(29)
    f = Series(F9, [0, 1] + [F9.rand(rng) for _ in range(T - 1)], T)
    g = revert(f)
    assert g.compose(f).agree_order(Series.identity(F9, T)) is None
    assert f.compose(g).agree_order(Series.identity(F9, T)) is None


def test_series_over_different_fields_are_refused():
    # F_3 codes read as F_9 codes would be silently wrong; nothing embeds
    a = series_from_ints(F3, [0, 0, 1, 1], 8)
    b = Series(F9, [0, 0, F9.from_vec((0, 1)), F9.from_vec((1, 1))], 8)
    with pytest.raises(IncompatibleFields):
        a.mul(b)
    with pytest.raises(IncompatibleFields):
        a.compose(b)
    assert a != b


def test_germ_validation():
    with pytest.raises(ValueError):
        Germ1D(F3, series_from_ints(F3, [1, 0, 1], 4))  # does not fix 0
    with pytest.raises(ValueError):
        Germ1D(F3, series_from_ints(F3, [0, 1], 4))     # not superattracting
    with pytest.raises(ZeroToPrecision):
        Germ1D(F3, Series.zeros(F3, 4))
