"""Acceptance criteria: one test per criterion, run at the stated sizes.

Every test prints a single PASS line (visible with `pytest -v -s`); an
assertion failure in any of them is a FAIL for that criterion.
"""

import hashlib
import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from germ.analytic import (LaurentDomain, certificate, check_growth,
                           conjugacy_to_truncation)
from germ.errors import DetDivisibleByP
from germ.fields import field_create
from germ.invariants import (InvariantProfile, JTable, choice_bound,
                             compose_bound, compose_germs, germ_at_infinity,
                             iterate_germ, iterate_profile, jays, profile,
                             stable_threshold)
from germ.multidim import (MultiGerm, MultiSeries, diagonal_scaling, int_det,
                           monomial_conjugacy)
from germ.normalizer import (bhard_extract, bottcher_product,
                             check_nf_conditions, enumerate_normal_forms,
                             min_trunc, normal_form, normalize_unit,
                             random_conjugate)
from germ.series import Germ1D, Series
from germ_testutil import (a_dict, c_n_recursive, growth_germ, make_germ,
                           series_from_ints)

F3 = field_create(3, 1)
F9 = field_create(3, 2)
F4 = field_create(2, 2)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def test_criterion_01_worked_example_golden():
    t0 = time.time()
    pr = InvariantProfile(3, 0, 18, 2, (19, 12, 0))
    assert jays(pr, 9)[1] == 1
    assert jays(pr, 18)[1] == 2
    assert jays(pr, 21)[1] == 3 and jays(pr, 22)[1] == 3
    for n in range(23, 30):
        assert jays(pr, n)[1] == n - 19
    table = JTable.through_fiber(pr, 29)
    assert table.fiber(1) == [9, 15, 20]
    assert table.fiber(2) == [18]
    assert table.fiber(3) == [21, 22]
    for j in range(4, 30):
        assert table.fiber(j) == [j + 19]
    assert stable_threshold(pr) == Fraction(7, 2)
    golden = pathlib.Path(__file__).parent / "golden" / "jtable_p3.tsv"
    assert JTable.build(pr, 30).to_tsv() == golden.read_text()
    dt = time.time() - t0
    assert dt < 1.0
    _report(1, "worked-example golden", f"exact match in {dt:.3f}s")


def _solver_cases():
    cases = []
    for field in (F3, F9, F4):
        for m in (0, 1):
            for d in (2, 3, 4, 6, 9, 12, 18):
                cases.append((field, m, d))
    return cases


def test_criterion_02_solver_soundness():
    t0 = time.time()
    rng = random.Random(2024)
    cases = _solver_cases()
    count = 0
    while count < 500:
        field, m, d = cases[count % len(cases)]
        caps = [1] if (m == 1 and field.p == 3 and d >= 12) else [1, 2, 4]
        f = make_germ(field, m, d, 64, rng, r0_cap=rng.choice(caps))
        pr = profile(f)
        if min_trunc(pr) > 64:
            continue
        nf, wit = normal_form(f, trunc=64)
        assert wit.verified_order >= 64, (field.p, m, d)
        conds = check_nf_conditions(nf)
        assert all(conds.values()), (field.p, m, d, conds)
        count += 1
    dt = time.time() - t0
    assert dt < 300
    _report(2, "solver soundness", f"{count} germs, 0 failures, {dt:.1f}s")


def test_criterion_03_profile_invariance():
    t0 = time.time()
    bases = [
        Germ1D(F3, series_from_ints(F3, [0, 0, 0, 1, 1], 30)),
        Germ1D(F3, series_from_ints(
            F3, [0, 0, 0, 1, 0, 0, 2, 1, 1, 2, 1], 34)),
        Germ1D(F9, Series(F9, [0, 0, 0, F9.one, F9.from_vec((0, 1)),
                               F9.from_int(2)] + [F9.one] * 10, 28)),
        Germ1D(F4, Series(F4, [0, 0, F4.one, F4.from_vec((0, 1)),
                               F4.one, F4.zero, F4.one], 26)),
        Germ1D(F3, series_from_ints(
            F3, [0] * 9 + [1, 0, 0, 2, 1, 0, 1, 1], 32)),
    ]
    total = 0
    for f in bases:
        pr = profile(f)
        for seed in range(200):
            fc, _ = random_conjugate(f, seed, trunc=f.trunc)
            assert profile(fc) == pr, (pr, seed)
            total += 1
    dt = time.time() - t0
    _report(3, "profile invariance",
            f"{total} conjugations over {len(bases)} germs, {dt:.1f}s")


def test_criterion_04_composition_theorem():
    t0 = time.time()
    rng = random.Random(44)
    pairs = 0
    while pairs < 300:
        field = rng.choice([F3, F9, F4])
        m1, m2 = rng.randrange(2), rng.randrange(2)
        d1 = rng.choice([2, 3, 4, 6])
        d2 = rng.choice([2, 3, 4, 6])
        t = field.p ** (m1 + m2) * (d1 * d2 + 18)
        if t > 170:
            continue
        f1 = make_germ(field, m1, d1, t, rng, r0_cap=rng.choice([1, 2]))
        f2 = make_germ(field, m2, d2, t, rng, r0_cap=rng.choice([1, 2]))
        p1, p2 = profile(f1), profile(f2)
        cb = compose_bound(p1, p2)
        # the germs are exact polynomials: extend so the brute-force profile
        # of the composition can witness every predicted invariant
        need = field.p ** cb.m * (cb.d + cb.r_bound[0] + 2)
        f1x = Germ1D(field, f1.series.extended(need))
        f2x = Germ1D(field, f2.series.extended(need))
        pc = profile(compose_germs(f1x, f2x, trunc=need))
        assert (pc.m, pc.d, pc.e) == (cb.m, cb.d, cb.e)
        for u in range(cb.e + 1):
            assert pc.r[u] >= cb.r_bound[u], (u, pc.r, cb.r_bound)
        assert pc.r[0] == cb.r_bound[0]
        assert pc.r[cb.e] == cb.r_bound[cb.e] == 0
        pairs += 1
    # the hand-verified instance
    f = Germ1D(F3, series_from_ints(F3, [0, 0, 0, 1, 1], 40))
    assert profile(compose_germs(f, f, trunc=40)).r == (4, 3, 0)
    dt = time.time() - t0
    _report(4, "composition theorem", f"{pairs} pairs + instance, {dt:.1f}s")


def test_criterion_05_iterate_corollary():
    t0 = time.time()
    rng = random.Random(55)
    F2 = field_create(2, 1)
    checked = 0
    while checked < 50:
        if checked % 2 == 0:
            field, d, t = F3, 3, 112
        else:
            field, d, t = F2, 2, 60
        f = make_germ(field, 0, d, t, rng, r0_cap=rng.choice([1, 2]))
        pr = profile(f)
        assert pr.e >= 1
        for n in (2, 3):
            frag = iterate_profile(pr, n)
            assert frag.r0 == pr.r[0] * (pr.d ** n - 1) // (pr.d - 1)
            pn = profile(iterate_germ(f, n, trunc=t))
            assert (pn.m, pn.d, pn.e, pn.r[0]) == \
                (frag.m, frag.d, frag.e, frag.r0), (n, pn, frag)
        checked += 1
    # e = 0 gives r_0 = 0
    f0 = make_germ(F3, 0, 2, 40, rng)
    assert iterate_profile(profile(f0), 3).r0 == 0
    pn = profile(iterate_germ(f0, 2, trunc=40))
    assert pn.r == (0,)
    dt = time.time() - t0
    _report(5, "iterate corollary", f"{checked} germs, n<=3, {dt:.1f}s")


def test_criterion_06_bhard_shape_and_b_uniqueness():
    t0 = time.time()
    rng = random.Random(66)
    done = 0
    enumerated = 0
    while done < 100:
        field = rng.choice([F3, F9])
        d = rng.choice([3, 6])
        m = rng.randrange(2)
        cap = rng.choice([1, 2, 4])
        f = make_germ(field, m, d, 60, rng, r0_cap=cap)
        pr = profile(f)
        if pr.e != 1 or pr.r[0] > 4 or min_trunc(pr) > 60:
            continue
        nf, wit = normal_form(f, trunc=60)
        a_z, b = bhard_extract(nf)
        assert not nf.dom.is_zero(b)
        assert len(a_z) - 1 < choice_bound(pr) or len(a_z) == 1
        # a second normal form of a conjugate (plus a linear rescaling)
        fc, _ = random_conjugate(f, seed=done, trunc=f.trunc)
        lamc = field.from_int(2) if field.p == 3 else field.from_vec((0, 1))
        co = [field.mul(field.pow(lamc, l - 1), c)
              for l, c in enumerate(fc.series.coeffs)]
        nf2, _ = normal_form(Germ1D(field, Series(field, co, fc.trunc)),
                             trunc=60)
        dom = nf2.dom if nf2.dom.k >= nf.dom.k else nf.dom
        b1 = nf.b if nf.dom is dom else nf.dom.embed_map(dom)(nf.b)
        b2 = nf2.b if nf2.dom is dom else nf2.dom.embed_map(dom)(nf2.b)
        zeta = dom.mul(b2, dom.inv(b1))
        assert dom.pow(zeta, nf.d * field.p ** nf.m) == zeta, \
            (field.p, m, d, cap)
        # enumerating solver root choices keeps b in the same unity class
        if done % 10 == 0:
            for nfe, _ in enumerate_normal_forms(f, trunc=60, limit=12):
                de = nfe.dom if nfe.dom.k >= nf.dom.k else nf.dom
                be = nfe.b if nfe.dom is de else nfe.dom.embed_map(de)(nfe.b)
                bb = nf.b if nf.dom is de else nf.dom.embed_map(de)(nf.b)
                zeta = de.mul(be, de.inv(bb))
                assert de.pow(zeta, nf.d * field.p ** nf.m) == zeta
                enumerated += 1
        done += 1
    dt = time.time() - t0
    _report(6, "normal-form shape and b-uniqueness",
            f"{done} germs, {enumerated} enumerated forms, {dt:.1f}s")


def test_criterion_07_bottcher_paths():
    t0 = time.time()
    rng = random.Random(77)
    done = 0
    while done < 100:
        field = rng.choice([F3, F9, F4])
        coprime = [d for d in (2, 3, 4, 5, 7) if d % field.p]
        d = rng.choice(coprime)
        m = rng.randrange(2)
        f = make_germ(field, m, d, 40, rng)
        f0, _, _ = normalize_unit(f)
        nf, witn = normal_form(f0, trunc=40)
        witb = bottcher_product(f0, trunc=40)
        assert nf.e == 0 and a_dict(nf) == {0: 1}
        assert witn.verified_order >= 40 and witb.verified_order >= 40
        done += 1
    dt = time.time() - t0
    _report(7, "coprime-degree product path",
            f"{done} germs, both witnesses verify, {dt:.1f}s")


def test_criterion_08_growth_certificate():
    t0 = time.time()
    rng = random.Random(88)
    base = LaurentDomain(F3, prec=48)
    order = 200
    done = 0
    max_ratio = Fraction(0)
    # every witness digit and precision, and every certificate, is pinned:
    # a Laurent kernel that drifts in (val, unit, prec) fails here
    outputs = hashlib.sha256()
    while done < 50:
        f, v = growth_germ(base, rng)
        pr = profile(f)
        assert (pr.m, pr.e, pr.r[0]) == (0, 1, 1)
        wit = conjugacy_to_truncation(f, order=order)
        assert wit.phi.trunc == order
        cert = certificate(pr, wit.phi.coeffs[1:], v)
        outputs.update(json.dumps(
            [[[c.val, list(c.unit), c.prec] for c in wit.phi.coeffs],
             cert.to_dict()], sort_keys=True).encode())
        if v == 0:
            assert (cert.s0, cert.c) == (1, Fraction(2))
        rep = check_growth(wit, cert)
        assert rep.ok, (done, rep.violations[:3])
        if rep.max_ratio > max_ratio:
            max_ratio = rep.max_ratio
        done += 1
    assert outputs.hexdigest()[:16] == "6e8c5e2a78a211ee"
    # closed-form / recursive cross-check to 10^4
    pr = InvariantProfile(3, 0, 3, 1, (1, 0))
    cert = certificate(pr, [], 1)
    for n in range(1, 10001):
        assert cert.c_n_closed(n) == c_n_recursive(cert, n)
    dt = time.time() - t0
    _report(8, "growth certificate",
            f"{done} germs to order {order}, max ratio {max_ratio}, "
            f"cross-check 10^4, {dt:.1f}s")


def test_criterion_09_polynomials_at_infinity():
    t0 = time.time()
    rng = random.Random(99)
    total = 0
    for p in (2, 3, 5):
        field = field_create(p, 1)
        for d in range(2, 13):
            for _ in range(500):
                coeffs = [field.wrap(field.rand(rng)) for _ in range(d)]
                coeffs.append(field.wrap(1 + rng.randrange(p - 1)))
                pr = profile(germ_at_infinity(coeffs))
                assert pr.r[0] <= pr.d, (p, d)
                total += 1
    # the z^3 - z instance
    zero, one = F3.element(0), F3.element(1)
    pr = profile(germ_at_infinity([zero, F3.element(-1), zero, one]))
    assert (pr.m, pr.d, pr.e, pr.r) == (0, 3, 1, (2, 0))
    dt = time.time() - t0
    _report(9, "polynomials at infinity",
            f"{total} polynomials over p in (2,3,5), {dt:.1f}s")


def _random_multigerm(rng, field, n, trunc):
    while True:
        # entries up to 3 so N = 1 over p = 2 still has odd determinants
        dmat = tuple(tuple(rng.randrange(0, 4 - n // 3) for _ in range(n))
                     for _ in range(n))
        if any(sum(dmat[i][j] for i in range(n)) < 2 for j in range(n)):
            continue
        det = int_det([list(r) for r in dmat])
        if det == 0 or det % field.p == 0:
            continue
        break
    cvec = tuple(1 + rng.randrange(field.q - 1) for _ in range(n))
    eps = []
    for _ in range(n):
        terms = {}
        for _k in range(rng.randrange(0, 3)):
            e = tuple(rng.randrange(0, 3) for _ in range(n))
            if 1 <= sum(e) <= 3:
                terms[e] = 1 + rng.randrange(field.q - 1)
        eps.append(MultiSeries(field, n, trunc, terms))
    return MultiGerm(field, cvec, dmat, tuple(eps), trunc)


def test_criterion_10_monomial_theorem():
    t0 = time.time()
    rng = random.Random(1010)
    done = 0
    while done < 100:
        field = rng.choice([F3, F9, F4])
        n = rng.choice([1, 2, 2, 3])
        f = _random_multigerm(rng, field, n, 12)
        phi, verified = monomial_conjugacy(f, trunc=12)
        assert verified == 12
        done += 1
    # hypothesis violation rejected
    z = MultiSeries.zero(F3, 2, 10)
    eps = MultiSeries(F3, 2, 10, {(1, 1): 1})
    with pytest.raises(DetDivisibleByP):
        monomial_conjugacy(
            MultiGerm(F3, (1, 1), ((3, 0), (0, 2)), (eps, z), 10), 10)
    # N = 1 agrees with the univariate product
    epsu = MultiSeries(F3, 1, 14, {(1,): 1, (2,): 2})
    f1 = MultiGerm(F3, (1,), ((2,),), (epsu,), 14)
    phi1, _ = monomial_conjugacy(f1, trunc=14)
    g1 = Germ1D(F3, series_from_ints(F3, [0, 0, 1, 1, 2], 16))
    wb = bottcher_product(g1, trunc=15)
    for k in range(0, 13):
        assert phi1[0].coeff((k + 1,)) == wb.phi.coeff(k)
    # diagonal scaling normalizes C exactly when det(D - Id) != 0
    scaled = 0
    rng2 = random.Random(2020)
    while scaled < 25:
        n = rng2.choice([2, 3])
        dmat = tuple(tuple(rng2.randrange(0, 3) for _ in range(n))
                     for _ in range(n))
        m_int = [[dmat[i][j] - (i == j) for j in range(n)] for i in range(n)]
        cvec = tuple(1 + rng2.randrange(F9.q - 1) for _ in range(n))
        ds = diagonal_scaling(cvec, dmat, F9)
        if int_det(m_int) == 0:
            assert ds.delta is None and ds.moduli_rank is not None
            continue
        fld = ds.field
        emb = F9.embed_map(fld)
        for j in range(n):
            acc = emb(cvec[j])
            for i in range(n):
                acc = fld.mul(acc, fld.pow(ds.delta[i], m_int[i][j]))
            assert acc == fld.one
        scaled += 1
    dt = time.time() - t0
    assert dt < 600
    _report(10, "monomial theorem",
            f"{done} germs at degree 12, {scaled} scalings, {dt:.1f}s")
