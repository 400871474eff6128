import ast
import pathlib
import random
from collections import Counter

import pytest

import germ.invariants
import germ.normalizer

from germ.analytic import LaurentDomain
from germ.errors import NoRootInField, NotCoprime, ValidationError
from germ.fields import Field, field_create
from germ.invariants import JTable, choice_bound, jays, profile
from germ.normalizer import (_Engine, bhard_extract, bottcher_product,
                             check_nf_conditions, enumerate_normal_forms,
                             min_trunc, normal_form,
                             normalize_unit, random_conjugate,
                             solve_prescribed, verify_conjugacy)
from germ.series import Germ1D, Series, revert
from germ_testutil import (a_dict, laurent_lift_series, lhs_rhs_coeffs,
                           make_germ, series_from_ints)

F3 = field_create(3, 1)
F9 = field_create(3, 2)
F4 = field_create(2, 2)


def germ3(coeffs, trunc=40):
    return Germ1D(F3, series_from_ints(F3, coeffs, trunc))


def test_normalize_unit_examples():
    f = germ3([0, 0, 1], trunc=12)
    f0, lam, dom = normalize_unit(f)
    assert lam == F3.one and f0 is f
    f = germ3([0, 0, 2], trunc=12)
    f0, lam, dom = normalize_unit(f)
    assert dom is F3 and f0.series.coeffs[2] == 1
    # 2x^3 over F3: lam^2 = 2^-1 = 2 has no root in F3 (2 is a non-square),
    # so the field extends to F9
    f = germ3([0, 0, 0, 2], trunc=12)
    f0, lam, dom = normalize_unit(f)
    assert dom.q == 9
    assert f0.series.coeffs[3] == dom.one
    assert dom.pow(lam, 2) == dom.from_int(2)


def test_normal_form_fixed_points():
    nf, wit = normal_form(germ3([0, 0, 0, 1, 1]), trunc=24)
    assert a_dict(nf) == {0: 1, 1: 1}
    assert wit.verified_order >= 24
    assert all(check_nf_conditions(nf).values())


def test_normal_form_solver_example():
    nf, wit = normal_form(germ3([0, 0, 0, 1, 1, 1]), trunc=24)
    assert set(a_dict(nf)) == {0, 1} and not nf.dom.is_zero(nf.b)
    assert all(check_nf_conditions(nf).values())


def test_normal_form_e0():
    nf, wit = normal_form(germ3([0, 0, 1, 1]), trunc=24)
    assert nf.e == 0 and a_dict(nf) == {0: 1}
    assert all(check_nf_conditions(nf).values())


def test_base_fiber_transcript_matches_eps():
    # the base case of the recursion forces target = source on the J=0 fiber
    f = germ3([0, 0, 0, 1, 0, 0, 2, 1, 1, 2], trunc=30)
    f0, _, _ = normalize_unit(f)
    pr = profile(f0)
    g, m = f0.split()
    d = g.ord()
    nf, wit = normal_form(f, trunc=30)
    base = {rec["n"]: rec["value"] for rec in wit.transcript
            if rec["kind"] == "eps" and jays(pr, rec["n"])[1] == 0}
    for n, v in base.items():
        assert v == g.coeff(d + n), n


def test_solver_against_series_oracle():
    # every coefficient equation holds for the returned witness, recomputed
    # from scratch by full composition
    rng = random.Random(31)
    cases = [(F9, 0, 3), (F9, 0, 3), (F9, 0, 3), (F4, 0, 4), (F4, 1, 2),
             (F3, 1, 3)]
    for field, m, d in cases:
        f = make_germ(field, m, d, 40, rng, r0_cap=rng.choice([1, 2, 4]))
        nf, wit = normal_form(f, trunc=40)
        f0, _, _ = normalize_unit(f)
        dom = nf.dom
        if f0.dom is not dom:
            emb = f0.dom.embed_map(dom)
            f0 = Germ1D(dom, Series(dom, [emb(c) for c in f0.series.coeffs],
                                    f0.series.trunc))
        tgt = nf.germ(40)
        phi = wit.phi
        hi = 40 // field.p ** m - d - 1
        for n in range(0, min(20, hi)):
            lhs, rhs = lhs_rhs_coeffs(f0, tgt, phi, n)
            assert lhs == rhs, n


def test_lhs_rhs_identity_case():
    f = germ3([0, 0, 0, 1, 1], trunc=24)
    phi = Series.one(F3, 23)
    for n in range(0, 12):
        lhs, rhs = lhs_rhs_coeffs(f, f, phi, n)
        assert lhs == rhs
    assert lhs_rhs_coeffs(f, f, phi, 0) == (1, 1)


def test_verify_conjugacy_reports():
    f = germ3([0, 0, 0, 1, 1], trunc=24)
    ident = Series.identity(F3, 24)
    assert verify_conjugacy(f, f, ident, 24).ok
    g = germ3([0, 0, 0, 1], trunc=24)
    report = verify_conjugacy(f, g, ident, 24)
    assert not report.ok and report.first_disagreement == 4


def test_check_nf_conditions_negative():
    nf, _ = normal_form(germ3([0, 0, 0, 1, 1]), trunc=24)
    nf.a[0] = F3.from_int(2)  # hand-built violation of the unit condition
    conds = check_nf_conditions(nf)
    assert not conds["i_unit"]


def test_bhard_extract():
    nf, _ = normal_form(germ3([0, 0, 0, 1, 1]), trunc=24)
    a_z, b = bhard_extract(nf)
    assert a_z == [1] and b in (1, 2)
    nf0, _ = normal_form(germ3([0, 0, 1, 1]), trunc=24)
    with pytest.raises(ValidationError):
        bhard_extract(nf0)
    # r_0 < p - 1 forces deg a = 0 (trivially: r_0/(p-1) < 1)
    f = make_germ(F4, 0, 2, 24, random.Random(5))  # p=2: r_0 >= 1 > 0
    # shape checks are covered by fuzz below


def test_bhard_shape_fuzz():
    rng = random.Random(37)
    done = 0
    while done < 12:
        d = rng.choice([3, 6])
        f = make_germ(F3, rng.randrange(2), d, 48, rng,
                      r0_cap=rng.choice([1, 2, 4]))
        pr = profile(f)
        if pr.e != 1 or min_trunc(pr) > 48:
            continue
        nf, wit = normal_form(f, trunc=48)
        a_z, b = bhard_extract(nf)  # raises ShapeViolation on any slip
        assert not nf.dom.is_zero(b)
        assert len(a_z) - 1 < choice_bound(pr)
        done += 1


def test_b_uniqueness_under_conjugation():
    rng = random.Random(41)
    done = 0
    while done < 8:
        f = make_germ(F3, 0, 3, 40, rng, r0_cap=rng.choice([1, 2]))
        pr = profile(f)
        if pr.e != 1:
            continue
        nf1, _ = normal_form(f, trunc=40)
        fc, _ = random_conjugate(f, seed=done, trunc=40)
        # scale by a random linear map too: x -> 2x
        co = [F3.mul(F3.pow(F3.from_int(2), l - 1), c)
              for l, c in enumerate(fc.series.coeffs)]
        fc2 = Germ1D(F3, Series(F3, co, fc.trunc))
        nf2, _ = normal_form(fc2, trunc=40)
        dom = nf2.dom
        b1 = nf1.b if nf1.dom is dom else nf1.dom.embed_map(dom)(nf1.b)
        zeta = dom.mul(nf2.b, dom.inv(b1))
        assert dom.pow(zeta, nf1.d * 3 ** nf1.m) == zeta
        done += 1


def test_finiteness_and_pairwise_conjugacy():
    # all enumerated normal forms of one germ are conjugate to each other
    # through composed witnesses
    f = Germ1D(F9, Series(F9, [0, 0, 0, F9.one, F9.from_vec((0, 1)),
                               F9.zero, F9.from_int(2), F9.one, F9.one,
                               F9.from_vec((1, 1))] + [F9.zero] * 31, 40))
    results = enumerate_normal_forms(f, trunc=40, limit=16)
    assert 1 <= len(results) <= 16
    base_nf, base_wit = results[0]
    for nf, wit in results[1:]:
        assert nf.dom is base_nf.dom
        phi1 = base_wit.phi.shift(1)
        phi2 = wit.phi.shift(1)
        bridge = phi2.compose(revert(phi1.extended(phi2.trunc)), trunc=36)
        rep = verify_conjugacy(base_nf.germ(36), nf.germ(36), bridge, 30)
        assert rep.ok, rep


def test_bottcher_identity_case():
    # x^2 over F_3 is already the normal form: the product witness is trivial
    f = germ3([0, 0, 1], trunc=20)
    wit = bottcher_product(f, trunc=20)
    assert all(F3.is_zero(c) for c in wit.phi.coeffs[1:])
    assert wit.phi.coeffs[0] == F3.one


def test_bottcher_paths_agree():
    rng = random.Random(43)
    for _ in range(6):
        d = rng.choice([2, 4, 5])
        f = make_germ(F3, rng.randrange(2), d, 36, rng)
        f0, _, _ = normalize_unit(f)
        nf, witn = normal_form(f0, trunc=36)
        witb = bottcher_product(f0, trunc=36)
        assert nf.e == 0 and a_dict(nf) == {0: 1}
        assert witn.verified_order >= 36 and witb.verified_order >= 36
    with pytest.raises(NotCoprime):
        bottcher_product(germ3([0, 0, 0, 1, 1]), trunc=24)


def test_random_conjugate_deterministic():
    f = germ3([0, 0, 0, 1, 1], trunc=30)
    a1, phi1 = random_conjugate(f, 99, trunc=30)
    a2, phi2 = random_conjugate(f, 99, trunc=30)
    assert a1.series.coeffs == a2.series.coeffs
    assert phi1.coeffs == phi2.coeffs
    ident = Series.identity(F3, 30)
    fid = Germ1D(F3, f.series.compose(revert(ident), trunc=30))
    assert fid.series.coeffs == f.series.coeffs


def test_extension_disabled_raises():
    co = [0] * 19
    co[3] = 1
    co[6] = 1
    f = Germ1D(F3, Series(F3, co, 18))
    with pytest.raises(NoRootInField):
        normal_form(f, trunc=18, allow_extension=False)
    nf, wit = normal_form(f, trunc=18)
    assert nf.e == 0 and len(nf.a) == 1


def test_custom_nj_table():
    # the worked-example style choice N(1) = 15-analogue on a small profile
    f = germ3([0, 0, 0, 1, 0, 0, 2, 1, 1, 2, 1, 1, 2], trunc=64)
    pr = profile(f)
    assert pr.r == (4, 0)
    members = JTable.through_fiber(pr, 1).fiber(1)
    assert members == [3, 5]
    nf, wit = normal_form(f, trunc=64, nj_table={1: 3})
    assert F3.is_zero(nf.a[3]) if len(nf.a) > 3 else True
    with pytest.raises(ValidationError):
        normal_form(f, trunc=64, nj_table={1: 4})


def test_repeated_r_profile_solves():
    # r = (2, 2, 0): no separable-level witness below r_0, so the middle
    # level repeats; the solver's slot bookkeeping must not double count
    co = [0] * 65
    co[9] = 1    # eps_0
    co[11] = 2   # eps_2, nu_3(11) = 0 -> r_0 = 2
    co[12] = 1   # eps_3, nu_3(12) = 1 witness above r_0 -> r_1 = 2 repeated
    co[13] = 1
    co[16] = 2
    f = Germ1D(F3, Series(F3, co, 64))
    pr = profile(f)
    assert pr.r == (2, 2, 0)
    nf, wit = normal_form(f, trunc=64)
    assert wit.verified_order >= 64
    assert all(check_nf_conditions(nf).values())


def test_normal_form_idempotent():
    for co in ([0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 0, 0, 2, 1, 1, 2]):
        nf, _ = normal_form(germ3(co, trunc=40), trunc=40)
        nf2, wit2 = normal_form(nf.germ(40), trunc=40)
        assert nf2.a == nf.a
        assert all(F3.is_zero(c) for c in wit2.phi.coeffs[1:])


def test_polynomiality_bound():
    rng = random.Random(47)
    for _ in range(8):
        f = make_germ(F3, 0, rng.choice([3, 6, 9]), 64, rng,
                      r0_cap=rng.choice([1, 2]))
        pr = profile(f)
        if min_trunc(pr) > 64:
            continue
        nf, _ = normal_form(f, trunc=64)
        deg_x = 3 ** nf.m * (nf.d + len(nf.a) - 1)
        assert deg_x <= 3 ** nf.m * (nf.d + nf.r[0] * 3 // 2 + 1)


def test_dense_normal_form_needs_half_the_field_products(monkeypatch):
    # each chain coefficient sums its terms once, and the O(n) updates in
    # the engine and in compose scale through conv's one-term path: the
    # dense germ below made 6997 Field.mul calls when every chain
    # coefficient was summed again once final and every update multiplied
    # term by term
    f = make_germ(F4, 1, 3, 128, random.Random(3))
    calls = []
    mul = Field.mul
    monkeypatch.setattr(Field, "mul", lambda self, a, b:
                        calls.append(a) or mul(self, a, b))
    nf, wit = normal_form(f, trunc=128)
    assert nf.dom is F4 and wit.verified_order == 128
    assert len(calls) <= 6997 // 2


def test_chain_sums_read_ahead_are_not_kept():
    # a chain coefficient read before the phi's it sums are fixed must not
    # leave its partial sum behind for the final value; phi_1 != 0, so the
    # term b = 1 of every chain coefficient reads an unknown when read
    # ahead.  Over F_3 the relaxed chains, over F_3((t)) the ordered ones
    f = germ3([0, 0, 0, 1, 1, 2, 1, 0, 1], trunc=40)
    prof = profile(f)
    assert prof.r[0] == 1
    g, _ = f.split()
    for dom in (F3, LaurentDomain(F3, prec=32)):
        unit = g.coeffs[g.ord():] if dom is F3 else \
            laurent_lift_series(dom, g).coeffs[g.ord():]
        runs = []
        for read_ahead in (False, True):
            eng = _Engine(dom, prof, unit, 30, target_unit=unit[:2])
            if read_ahead:
                assign = eng._assign_phi

                def read_all(eng=eng):
                    for n in range(eng.n_hi + 1):
                        eng._rhs_known(n)

                def assign_and_read_ahead(j, value, assign=assign,
                                          read_all=read_all):
                    assign(j, value)
                    read_all()
                eng._assign_phi = assign_and_read_ahead
                read_all()
            phis = eng.solve().phis
            runs.append(phis if dom is F3 else
                        [(x.val, x.unit, x.prec) for x in phis])
        assert runs[0] == runs[1]
        assert not dom.is_zero(eng.phis[1])


def test_one_j_table_per_solve(monkeypatch):
    # one solve reads J from one table: one jays call per n <= n_hi, plus
    # the guard row n_hi + 1, however many fibers read a member and however
    # often normal_form restarts up the field tower
    calls = Counter()
    jays = germ.invariants.jays

    def counted(prof, n):
        calls[n] += 1
        return jays(prof, n)

    monkeypatch.setattr(germ.invariants, "jays", counted)
    monkeypatch.setattr(germ.normalizer, "jays", counted)

    def check(r0, j_hi):
        assert sorted(calls) == list(range(r0 + j_hi + 2))
        assert set(calls.values()) == {1}
        calls.clear()

    # x^3 + x^6 over F_3 restarts three times, up to F_{3^27}
    co = [0] * 19
    co[3] = co[6] = 1
    nf, wit = normal_form(Germ1D(F3, Series(F3, co, 18)), trunc=18)
    assert [t["k"] for t in wit.transcript if t["kind"] == "extension"] == [3, 9, 27]
    check(nf.r[0], 17)
    for choice in ("ndoubleprime", "nprime"):
        nf, _ = normal_form(germ3([0, 0, 0, 1, 0, 0, 2, 1, 1, 2, 1, 1, 2],
                                  trunc=64), choice=choice, trunc=64)
        assert nf.r == (4, 0)
        check(4, 63)
    f = germ3([0, 0, 0, 1, 1, 2, 1, 0, 1], trunc=40)
    prof = profile(f)
    g, _ = f.split()
    unit = g.coeffs[g.ord():]
    solve_prescribed(F3, prof, unit, 30, unit[:2])
    check(prof.r[0], 30)


def test_engine_and_series_never_name_a_domain_type():
    # one engine, one kernel per domain: code in these modules reaches a
    # domain only through its protocol, never by type
    src = pathlib.Path(germ.normalizer.__file__).parent
    banned = {"Field", "FieldElement", "LaurentDomain"}
    for name in ("normalizer.py", "series.py", "sides.py"):
        tree = ast.parse((src / name).read_text(), filename=name)
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name for alias in node.names)
        assert not used & banned, (name, used & banned)
