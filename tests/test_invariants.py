import random
from fractions import Fraction

import pytest

from germ.errors import DegreeTooSmall, InsufficientPrecision
from germ.fields import field_create
from germ.invariants import (InvariantProfile, JTable, choice_bound,
                             compose_bound, compose_germs, germ_at_infinity,
                             iterate_germ, iterate_profile, jays, n_prime,
                             preceq_key, profile, stable_threshold)
from germ.series import Germ1D, Series
from germ_testutil import (candidate_fiber, make_germ, random_profile,
                           series_from_ints)

F3 = field_create(3, 1)
F9 = field_create(3, 2)

PAPER_PROFILE = InvariantProfile(3, 0, 18, 2, (19, 12, 0))


def germ3(coeffs, trunc=40):
    return Germ1D(F3, series_from_ints(F3, coeffs, trunc))


def test_profile_examples():
    assert profile(germ3([0, 0, 0, 1], 12)) == InvariantProfile(3, 1, 1, 0, (0,))
    assert profile(germ3([0, 0, 0, 1, 1])) == InvariantProfile(3, 0, 3, 1, (1, 0))
    co = [0] * 9 + [1, 0, 0, 2, 1, 0, 1, 1]
    assert profile(germ3(co)) == InvariantProfile(3, 0, 9, 2, (4, 3, 0))


def test_insufficient_precision_guard():
    # Stored coefficients are the germ's support, so every r_u resolves
    # within the truncation; the precision guard lives in normal_form,
    # which refuses truncations below the certified working order.
    from germ.normalizer import normal_form
    f = germ3([0, 0, 0, 1, 0, 0, 0, 1, 1], trunc=12)  # r_0 = 4, d = 3
    with pytest.raises(InsufficientPrecision) as exc:
        normal_form(f, trunc=8)
    assert exc.value.needed > 8


def test_jays_paper_table():
    " the worked example: p = 3, r = (19, 12, 0) "
    pr = PAPER_PROFILE
    assert jays(pr, 20)[1] == 1
    assert jays(pr, 18)[1] == 2
    assert jays(pr, 22)[1] == 3
    assert jays(pr, 0)[1] == 0
    assert jays(pr, 23)[1] == 4 == 23 - 19
    table = JTable.through_fiber(pr, 11)
    assert table.fiber(1) == [9, 15, 20]
    assert table.fiber(2) == [18]
    assert table.fiber(3) == [21, 22]
    for j in range(4, 12):
        assert table.fiber(j) == [j + 19]


def test_jays_rows_are_exact():
    # J_k(n) = (n - r_k)/p^k where p^k divides n and n > r_k, else 0: an
    # int where the division is exact, so only the rare fractional cells of
    # the TSV hold a Fraction
    rng = random.Random(4)
    fractional = 0
    for _ in range(200):
        pr = random_profile(rng, primes=(2, 3, 5), e_range=(1, 4))
        for n in range(pr.r[0] + 30):
            vals, top = jays(pr, n)
            for k, v in enumerate(vals):
                want = Fraction(0)
                if n % pr.p ** k == 0 and n > pr.r[k]:
                    want = Fraction(n - pr.r[k], pr.p ** k)
                assert v == want and isinstance(v, Fraction) == \
                    (want.denominator != 1), (pr, n, k)
                fractional += isinstance(v, Fraction)
            assert type(top) is int and top == max(vals)
    assert fractional


def test_n_prime():
    pr = PAPER_PROFILE
    assert n_prime(pr, 1) == 9
    assert n_prime(pr, 0) == 0
    assert n_prime(pr, 4) == 23
    for j in range(0, 101):
        assert jays(pr, n_prime(pr, j))[1] == j


def test_preceq_examples():
    def key(n):
        return preceq_key(3, 2, n)
    assert key(8) < key(3)
    assert key(24) < key(0)
    assert key(2) < key(4)
    assert key(5) == key(5)


def test_n_doubleprime():
    pr = PAPER_PROFILE
    table = JTable.through_fiber(pr, 100)
    assert table.n_doubleprime(1) == 20
    assert table.n_doubleprime(2) == 18
    assert table.n_doubleprime(3) == 22
    for j in range(1, 101):
        assert jays(pr, table.n_doubleprime(j))[1] == j
        if (j + 19) % 3 != 0:
            assert table.n_doubleprime(j) == j + 19


def test_representatives_on_random_profiles():
    rng = random.Random(4)
    for _ in range(25):
        pr = random_profile(rng)
        table = JTable.through_fiber(pr, 100)
        for j in range(0, 101):
            assert jays(pr, n_prime(pr, j))[1] == j
            if j:
                assert jays(pr, table.n_doubleprime(j))[1] == j


def test_fiber_table_matches_candidate_sets():
    # the J table groups every n <= r_0 + j_hi by J; the reference builds
    # each fiber from its candidates r_k + p^k j (and the j = 0 base set)
    rng = random.Random(11)
    j_hi = 60
    for _ in range(400):
        pr = random_profile(rng, primes=(2, 3, 5, 7), e_range=(0, 4))
        table = JTable.through_fiber(pr, j_hi)
        assert table.n_max == pr.r[0] + j_hi + 1
        for j in range(j_hi + 1):
            members = candidate_fiber(pr, j)
            assert table.fiber(j) == members, (pr, j)
            if j:
                assert table.n_doubleprime(j) == min(
                    members, key=lambda n: preceq_key(pr.p, pr.e, n))
        j = rng.randrange(j_hi + 1)
        assert JTable.through_fiber(pr, j).fiber(j) == table.fiber(j)


def test_stable_threshold():
    assert stable_threshold(PAPER_PROFILE) == Fraction(7, 2)
    assert stable_threshold(InvariantProfile(3, 0, 3, 1, (1, 0))) == Fraction(1, 2)
    assert stable_threshold(InvariantProfile(2, 0, 2, 1, (3, 0))) == 3


def test_fiber_structure():
    pr = PAPER_PROFILE
    bound = choice_bound(pr)  # r_0/(p-1)
    for n in range(0, 200):
        j = jays(pr, n)[1]
        if 0 < j < bound:
            assert n < 3 * 19 / 2
    thr = stable_threshold(pr)
    j = int(thr) + 1
    table = JTable.through_fiber(pr, 39)
    while j < 40:
        assert table.fiber(j) == [pr.r[0] + j]
        j += 1


def test_compose_bound_example():
    pr = InvariantProfile(3, 0, 3, 1, (1, 0))
    cb = compose_bound(pr, pr)
    assert (cb.m, cb.d, cb.e) == (0, 9, 2)
    assert cb.r_bound == (4, 3, 0)
    assert cb.flags == ("certain", "generic", "certain")
    f = germ3([0, 0, 0, 1, 1])
    comp = compose_germs(f, f, trunc=40)
    assert profile(comp).r == (4, 3, 0)


def test_compose_bound_fuzz():
    rng = random.Random(9)
    fields = [F3, F9]
    for _ in range(30):
        field = rng.choice(fields)
        m1, m2 = rng.randrange(2), rng.randrange(2)
        d1 = rng.choice([2, 3, 4, 6])
        d2 = rng.choice([2, 3, 6])
        t = 3 ** (m1 + m2) * (d1 * d2 + 16)
        if t > 200:
            continue
        f1 = make_germ(field, m1, d1, t, rng, r0_cap=rng.choice([1, 2]))
        f2 = make_germ(field, m2, d2, t, rng, r0_cap=rng.choice([1, 2]))
        p1, p2 = profile(f1), profile(f2)
        cb = compose_bound(p1, p2)
        need = field.p ** cb.m * (cb.d + cb.r_bound[0] + 2)
        comp = compose_germs(Germ1D(field, f1.series.extended(need)),
                             Germ1D(field, f2.series.extended(need)),
                             trunc=need)
        pc = profile(comp)
        assert (pc.m, pc.d, pc.e) == (cb.m, cb.d, cb.e)
        for u in range(cb.e + 1):
            assert pc.r[u] >= cb.r_bound[u]
            if cb.flags[u] == "certain":
                assert pc.r[u] == cb.r_bound[u], (u, pc.r, cb.r_bound)


def test_compose_with_frobenius():
    # composing with x^p leaves d alone and increments m
    pr = InvariantProfile(3, 0, 3, 1, (1, 0))
    frob = InvariantProfile(3, 1, 1, 0, (0,))
    cb = compose_bound(pr, frob)
    assert (cb.m, cb.d, cb.e) == (1, 3, 1)
    cb2 = compose_bound(frob, pr)
    assert (cb2.m, cb2.d, cb2.e) == (1, 3, 1)
    f = germ3([0, 0, 0, 1, 1])
    fr = germ3([0, 0, 0, 1], trunc=40)
    pc = profile(compose_germs(f, fr, trunc=40))
    assert (pc.m, pc.d) == (1, 3)


def test_iterate_profile():
    pr = InvariantProfile(3, 0, 3, 1, (1, 0))
    frag = iterate_profile(pr, 2)
    assert (frag.m, frag.d, frag.e, frag.r0) == (0, 9, 2, 4)
    frag1 = iterate_profile(pr, 1)
    assert (frag1.m, frag1.d, frag1.e, frag1.r0) == (0, 3, 1, 1)
    pr0 = InvariantProfile(3, 0, 2, 0, (0,))
    assert iterate_profile(pr0, 3).r0 == 0


def test_iterate_matches_brute_force():
    rng = random.Random(10)
    for _ in range(8):
        f = make_germ(F3, 0, 3, 110, rng, r0_cap=rng.choice([1, 2]))
        pr = profile(f)
        for n in (2, 3):
            frag = iterate_profile(pr, n)
            fn = iterate_germ(f, n, trunc=110)
            pn = profile(fn)
            assert (pn.m, pn.d, pn.e, pn.r[0]) == \
                (frag.m, frag.d, frag.e, frag.r0)


def test_germ_at_infinity_examples():
    one, zero = F3.element(1), F3.element(0)
    f = germ_at_infinity([zero, F3.element(-1), zero, one])  # z^3 - z
    pr = profile(f)
    assert (pr.m, pr.d, pr.e, pr.r) == (0, 3, 1, (2, 0))
    f2 = germ_at_infinity([zero, zero, one])  # z^2, gcd(2,3)=1
    pr2 = profile(f2)
    assert (pr2.d, pr2.r) == (2, (0,))
    f3_ = germ_at_infinity([zero, zero, zero, one])  # z^3 = F o w
    pr3 = profile(f3_)
    assert (pr3.m, pr3.d) == (1, 1)
    with pytest.raises(DegreeTooSmall):
        germ_at_infinity([zero, one])


def test_germ_at_infinity_r0_bound_fuzz():
    rng = random.Random(12)
    for p in (2, 3, 5):
        field = field_create(p, 1)
        for _ in range(40):
            deg = rng.randrange(2, 11)
            coeffs = [field.wrap(field.rand(rng)) for _ in range(deg)]
            coeffs.append(field.wrap(1 + rng.randrange(p - 1)))
            f = germ_at_infinity(coeffs)
            pr = profile(f)
            assert pr.r[0] <= pr.d


def test_profile_conjugacy_invariance():
    # full-tuple invariance at the default working order
    from germ.normalizer import random_conjugate
    rng = random.Random(14)
    for base in ([0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 2],
                 [0, 0, 1, 2, 1]):
        f = germ3(base, trunc=64)
        pr = profile(f)
        for seed in range(10):
            fc, _ = random_conjugate(f, seed, trunc=64)
            assert profile(fc) == pr
    f9germ = Germ1D(F9, Series(F9, [0, 0, 0, F9.one, F9.from_vec((1, 1)),
                                    F9.from_int(2)], 64).extended(64))
    pr = profile(f9germ)
    for seed in range(10):
        fc, _ = random_conjugate(f9germ, seed, trunc=64)
        assert profile(fc) == pr


def test_jtable_tsv_golden():
    import pathlib
    table = JTable.build(PAPER_PROFILE, 30)
    golden = pathlib.Path(__file__).parent / "golden" / "jtable_p3.tsv"
    assert table.to_tsv() == golden.read_text()
