import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from germ.analytic import (LaurentDomain, certificate, check_growth,
                           conjugacy_to_truncation, truncation_target)
from germ.errors import (DivisionByZero, GermError, PrecisionExhausted,
                         UnsolvableRoot, ValidationError)
from germ.fields import field_create
from germ.invariants import InvariantProfile, profile
from germ.normalizer import ConjugacyWitness, solve_prescribed
from germ.series import Germ1D, Series
from germ_testutil import (c_n_recursive, laurent_lift_germ, r0_two_germ,
                           series_from_ints, t_h)

F3 = field_create(3, 1)
L = LaurentDomain(F3, prec=32)


def scalar(val, digits):
    return L.make(val, [d % 3 for d in digits])


def test_laurent_ops_examples():
    x = L.t_power(2)
    y = scalar(0, [1, 2, 1])
    assert L.mul(x, y).val == 2
    assert L.add(x, y).val == 0
    inv = L.inv(L.mul(x, y))
    assert inv.val == -2
    with pytest.raises(DivisionByZero):
        L.inv(L.zero)


def test_ultrametric_laws():
    rng = random.Random(1)

    def rand_scalar():
        if rng.random() < 0.15:
            return L.zero
        v = rng.randrange(-4, 5)
        digits = [rng.randrange(3) for _ in range(rng.randrange(1, 5))]
        digits[0] = rng.randrange(1, 3)
        return L.make(v, digits)

    for _ in range(200):
        x, y = rand_scalar(), rand_scalar()
        s, m = L.add(x, y), L.mul(x, y)
        if not (L.is_zero(x) or L.is_zero(y)):
            assert m.val == x.val + y.val
            assert L.is_zero(s) or s.val >= min(x.val, y.val)
            if x.val != y.val:
                assert s.val == min(x.val, y.val)


def test_precision_tracking():
    # adding opposite units cancels: the sum is only known to vanish
    x = L.make(0, [1, 2], prec=2)
    y = L.neg(x)
    s = L.add(x, y)
    assert L.is_zero_to_prec(s) and not L.is_zero(s)
    with pytest.raises(PrecisionExhausted):
        L.inv(s)
    # exact cancellation stays exact
    assert L.is_zero(L.add(L.one, L.neg(L.one)))


def test_frobenius_root_obstructions():
    with pytest.raises(UnsolvableRoot):
        L.frob_root(L.t_power(1), 1)  # valuation 1 not divisible by 3
    bad = L.make(0, [1, 1])           # digit at t^1 obstructs
    with pytest.raises(UnsolvableRoot):
        L.frob_root(bad, 1)
    good = L.frob(scalar(1, [1, 2, 1]), 1)
    assert L.is_zero(L.sub(L.frob_root(good, 1), scalar(1, [1, 2, 1])))


def test_truncation_target():
    assert truncation_target(InvariantProfile(3, 1, 3, 1, (1, 0))) == 14
    assert truncation_target(InvariantProfile(2, 1, 2, 1, (1, 0))) == 9
    base = truncation_target(InvariantProfile(3, 0, 3, 1, (1, 0)))
    up = truncation_target(InvariantProfile(3, 1, 3, 1, (1, 0)))
    assert up == 3 * (base + 1) - 1  # m increments multiply by p


def laurent_germ(support, trunc=24, prec=32):
    dom = LaurentDomain(F3, prec=prec)
    co = [dom.zero] * (trunc + 1)
    for idx, sc in support.items():
        co[idx] = dom.make(*sc) if isinstance(sc, tuple) else sc
    return Germ1D(dom, Series(dom, co, trunc)), dom


def test_conjugacy_constant_coefficients_match_field_solver():
    f = Germ1D(F3, series_from_ints(F3, [0, 0, 0, 1, 1, 0, 1], 24))
    lf = laurent_lift_germ(L, f)
    wit = conjugacy_to_truncation(lf, order=40)
    assert all(c.val >= 0 for c in wit.phi.coeffs)
    # solving downstairs then lifting agrees coefficientwise
    pr = profile(f)
    src = f.series.extended(3 + pr.r[0] + 40 + 3)
    g, _ = Germ1D(F3, src).split()
    unit = g.coeffs[3:]
    x_star = truncation_target(pr)
    phis, _ = solve_prescribed(F3, pr, unit, 40, unit[: x_star - 3 + 1])
    for n in range(1, 41):
        assert L.is_zero(L.sub(wit.phi.coeffs[n], L.constant(phis[n])))


def test_conjugacy_nontrivial_valuations():
    f, dom = laurent_germ({3: (0, [1]), 4: (1, [1]), 6: (0, [1])}, prec=48)
    wit = conjugacy_to_truncation(f, order=90)
    pr = profile(f)
    cert = certificate(pr, wit.phi.coeffs[1:], 1)
    assert cert.eta > 0 and cert.c > 2  # val(eps_{r_0}) = 1 forces eta > 0
    rep = check_growth(wit, cert)
    assert rep.ok and rep.max_ratio > 0


def test_certificate_forced_values():
    pr = InvariantProfile(3, 0, 3, 1, (1, 0))
    ones = []
    cert = certificate(pr, ones, 0)
    assert (cert.s0, cert.scale, cert.eta, cert.c) == (1, 1, 0, Fraction(2))
    for h in range(5):
        assert cert.k_h(h) == 3 ** h
        assert t_h(cert, h) == 3 ** h
    cert2 = certificate(pr, ones, 2)
    assert cert2.eta > 0 and cert2.c > 2


def test_cn_closed_vs_recursive_and_monotone():
    pr = InvariantProfile(3, 0, 3, 1, (1, 0))
    cert = certificate(pr, [], 1)
    prev = None
    for n in range(1, 2001):
        a = cert.c_n_closed(n)
        assert a == c_n_recursive(cert, n)
        assert prev is None or a > prev
        prev = a


def test_check_growth_negative_control():
    f, dom = laurent_germ({3: (0, [1]), 4: (0, [1]), 6: (0, [1])})
    wit = conjugacy_to_truncation(f, order=30)
    cert = certificate(profile(f), wit.phi.coeffs[1:], 0)
    assert check_growth(wit, cert).ok
    # hand-lower one valuation far below the bound
    bad = Series(f.dom, list(wit.phi.coeffs), wit.phi.trunc)
    bad.coeffs[5] = f.dom.t_power(-1000)
    doctored = ConjugacyWitness(bad, f.dom.one, wit.verified_order, [])
    rep = check_growth(doctored, cert)
    assert not rep.ok and rep.violations[0][0] == 5


def _check_growth_by_fractions(witness, cert):
    """``check_growth`` as the Fraction formula: W * c_n from the defining
    recurrences for each n, and the ratio -val / (W c_n) as a Fraction."""
    violations, max_ratio = [], Fraction(0)
    for n in range(1, witness.phi.trunc + 1):
        val = witness.phi.coeffs[n].val
        if val == math.inf:
            continue
        need = cert.scale * c_n_recursive(cert, n)
        max_ratio = max(max_ratio, Fraction(-val) / need)
        if -val > need:
            violations.append((n, val, need))
    return (not violations, witness.phi.trunc, violations, max_ratio,
            cert.linear_bound())


def test_check_growth_matches_fraction_formula():
    # seeded certificates over p = 2..7, -val(phi_n) drawn at, below and
    # far below W c_n, exact zeros between, and in half the cases one
    # coefficient doctored one past the bound: the negative control, which
    # must be reported the same way
    rng = random.Random(608)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7])
        cert = certificate(
            InvariantProfile(p, rng.randrange(3), p, 1,
                             (rng.randrange(1, 7), 0)),
            [L.t_power(-rng.randrange(13))], rng.randrange(6))
        trunc = rng.randrange(1, 300)
        bounds = [math.floor(cert.scale * c_n_recursive(cert, n))
                  for n in range(trunc + 1)]
        coeffs = [L.one]
        for n in range(1, trunc + 1):
            assert cert.c_n_closed(n) == c_n_recursive(cert, n)
            slack = rng.choice([None, 0, 0, 0, 1, 3, 1000])
            coeffs.append(L.zero if slack is None else
                          L.t_power(slack - bounds[n]))
        bad = rng.choice([None, rng.randrange(1, trunc + 1)])
        if bad is not None:
            coeffs[bad] = L.t_power(-bounds[bad] - 1)
        wit = ConjugacyWitness(Series(L, coeffs, trunc), L.one, trunc, [])
        rep = check_growth(wit, cert)
        assert (rep.ok, rep.checked, rep.violations, rep.max_ratio,
                rep.bound) == _check_growth_by_fractions(wit, cert)
        assert rep.ok == (bad is None)


def test_multislot_equation_surfaces_unsolvable():
    # r_0 = 2 over p = 3 puts two Frobenius powers of the unknown into the
    # boundary fiber equation; over the imperfect Laurent ring this is
    # reported, not guessed
    f, dom = laurent_germ({3: (0, [1]), 5: (0, [1]), 7: (1, [1])})
    pr = profile(f)
    assert pr.r[0] == 2
    with pytest.raises(UnsolvableRoot):
        conjugacy_to_truncation(f, order=30)


def test_r0_two_witnesses_pinned():
    # r_0 = 2: the right side reads psi^2 chains, which criterion 08 (r_0 = 1,
    # psi only) never does.  Every solved witness's (val, unit, prec) and the
    # exception of every unsolvable germ are pinned, so a chain sum whose
    # precision drifts fails here.
    rng = random.Random(2020)
    outputs = hashlib.sha256()
    solved = 0
    for _ in range(40):
        f = r0_two_germ(LaurentDomain(F3, prec=24), rng)
        assert profile(f).r[0] == 2
        try:
            wit = conjugacy_to_truncation(f, order=60)
        except GermError as exc:
            outputs.update(type(exc).__name__.encode())
            continue
        solved += 1
        outputs.update(json.dumps(
            [[c.val, list(c.unit), c.prec] for c in wit.phi.coeffs]).encode())
    assert solved == 12
    assert outputs.hexdigest()[:16] == "dca0556e495fb601"


def test_rejects_negative_valuations():
    f, dom = laurent_germ({3: (0, [1]), 4: (-1, [1])})
    with pytest.raises(ValidationError):
        conjugacy_to_truncation(f, order=20)


def test_rejects_e0():
    f, dom = laurent_germ({2: (0, [1]), 3: (0, [1])})
    with pytest.raises(ValidationError):
        conjugacy_to_truncation(f, order=20)


def test_equal_laurent_domains_are_one_domain():
    f9 = field_create(3, 2)
    a, b = LaurentDomain(f9, 40), LaurentDomain(f9, prec=40)
    assert a is b
    assert LaurentDomain(f9, 41) is not a
    assert LaurentDomain(F3, 40) is not a
    two = Series.one(a, 3) + Series.one(b, 3)
    assert two.dom is a
    assert (two.coeffs[0].val, two.coeffs[0].unit) == (0, bytes([2]))
    assert repr(a) == \
        f"LaurentDomain(Field(p=3, k=2, modulus={list(f9.modulus)}), prec=40)"
