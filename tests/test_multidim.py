import random
from fractions import Fraction

import pytest

from germ import multidim
from germ.errors import (CheckFailed, DetDivisibleByP, PadicObstruction,
                         ValidationError)
from germ.fields import field_create
from germ.multidim import (MultiGerm, MultiSeries, diagonal_scaling,
                           gauss_jordan, int_det, mat_identity, mat_mul,
                           monomial_conjugacy, multi_unit_power)
from germ.normalizer import bottcher_product
from germ.series import Germ1D, Series, binomial_pow
from germ_testutil import series_from_ints

F3 = field_create(3, 1)
F9 = field_create(3, 2)
F2 = field_create(2, 1)


def test_matrix_power_examples():
    # D^-1 through gauss_jordan; p-integrality is decided where the
    # binomial power reads the entry
    u1 = MultiSeries(F3, 2, 8, {(0, 0): 1, (1, 0): 1})
    u2 = MultiSeries(F3, 2, 8, {(0, 0): 1, (0, 1): 2})
    m = gauss_jordan([[2, 0], [0, 2]])[2]
    assert m == [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    multi_unit_power([u1, u2], m)
    multi_unit_power([u1, u2], gauss_jordan([[2, 1], [0, 2]])[2])
    v1 = MultiSeries(F2, 2, 8, {(0, 0): 1, (1, 0): 1})
    v2 = MultiSeries(F2, 2, 8, {(0, 0): 1, (0, 1): 1})
    with pytest.raises(PadicObstruction):
        multi_unit_power([v1, v2], gauss_jordan([[2, 0], [0, 2]])[2])
    assert gauss_jordan([[1, 1], [1, 1]])[2] is None


def _cofactor_det(a):
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * _cofactor_det([r[:j] + r[j + 1:]
                                                     for r in a[1:]])
               for j in range(len(a)) if a[0][j])


def test_gauss_jordan_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        rank, det, inv = gauss_jordan(a)
        assert det == int_det(a) == _cofactor_det(a)
        assert (inv is None) == (det == 0) == (rank < n)
        if inv is not None:
            assert mat_mul(a, inv) == mat_identity(n)
    assert gauss_jordan([[1, 2], [2, 4]])[0] == 1
    assert gauss_jordan([[0, 0], [0, 0]])[0] == 0


def test_mat_inv_exact():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randrange(1, 5)
        a = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)]
             for _ in range(n)]
        inv = gauss_jordan(a)[2]
        if inv is not None:
            assert mat_mul(a, inv) == mat_identity(n)


def test_multi_unit_power_examples():
    u1 = MultiSeries(F3, 2, 8, {(0, 0): 1, (1, 0): 1})
    u2 = MultiSeries(F3, 2, 8, {(0, 0): 1, (0, 1): 2})
    out = multi_unit_power([u1, u2], mat_identity(2))
    assert out[0].terms == u1.terms and out[1].terms == u2.terms
    out = multi_unit_power([u1, u2], [[Fraction(0)] * 2] * 2)
    assert out[0].terms == {(0, 0): 1} and out[1].terms == {(0, 0): 1}
    with pytest.raises(PadicObstruction):
        multi_unit_power([u1], [[Fraction(1, 3)]])


def test_pow_frac_matches_univariate():
    # one binomial loop serves both series classes
    v = binomial_pow(MultiSeries(F3, 1, 10, {(0,): 1, (1,): 1}), 1, 2)
    vu = binomial_pow(series_from_ints(F3, [1, 1], 10), 1, 2)
    assert all(v.coeff((n,)) == vu.coeff(n) for n in range(11))


def test_monomial_conjugacy_example():
    eps0 = MultiSeries(F3, 2, 12, {(1, 0): 1})
    eps1 = MultiSeries.zero(F3, 2, 12)
    f = MultiGerm(F3, (1, 1), ((2, 1), (0, 2)), (eps0, eps1), 12)
    phi, verified = monomial_conjugacy(f, trunc=12)
    assert verified == 12


def test_huge_exponent_entry_needs_no_deep_recursion():
    # x_0^(10^6) lies far past the truncation; forming it one product per
    # step used to recurse 10^6 deep and die with RecursionError
    eps0 = MultiSeries(F3, 2, 12, {(1, 0): 1})
    f = MultiGerm(F3, (1, 1), ((10 ** 6, 1), (0, 2)),
                  (eps0, MultiSeries.zero(F3, 2, 12)), 12)
    image = f.apply([MultiSeries.variable(F3, 2, 12, i) for i in range(2)])
    assert image[0].is_zero()
    assert image[1].terms == {(1, 2): 1}
    phi, verified = monomial_conjugacy(f, trunc=12)
    assert verified == 12
    assert phi[0].coeff((1, 0)) == 1 and phi[1].coeff((0, 1)) == 1


def test_monomial_conjugacy_identity_and_rejection():
    z = MultiSeries.zero(F3, 2, 10)
    f0 = MultiGerm(F3, (1, 2), ((2, 0), (0, 2)), (z, z), 10)
    phi, _ = monomial_conjugacy(f0, 10)
    assert phi[0].terms == {(1, 0): 1} and phi[1].terms == {(0, 1): 1}
    with pytest.raises(DetDivisibleByP):
        eps = MultiSeries(F3, 2, 10, {(1, 1): 1})
        monomial_conjugacy(
            MultiGerm(F3, (1, 1), ((3, 0), (0, 2)), (eps, z), 10), 10)


def test_dimension_one_reduction():
    rng = random.Random(2)
    for _ in range(8):
        d = rng.choice([2, 4, 5])
        co = {(0,): 1}
        for n in range(1, 12):
            c = F3.rand(rng)
            if c:
                co[(n,)] = c
        epsu = MultiSeries(F3, 1, 13, {k: v for k, v in co.items() if k != (0,)})
        f1 = MultiGerm(F3, (1,), ((d,),), (epsu,), 13)
        phi1, _ = monomial_conjugacy(f1, trunc=13)
        series_co = [0] * (d + 13)
        series_co[d] = 1
        for (n,), c in co.items():
            if n:
                series_co[d + n] = c
        g1 = Germ1D(F3, Series(F3, series_co, d + 12))
        wb = bottcher_product(g1, trunc=d + 12)
        for n in range(0, 12):
            assert phi1[0].coeff((n + 1,)) == wb.phi.coeff(n), (d, n)


def _invert_shape(phi_full, trunc):
    """Test-local inverse of a unit-shape map by fixed-point iteration:
    psi_j <- x_j / phi_units_j(psi)."""
    dom = phi_full[0].dom
    n = len(phi_full)
    xs = [MultiSeries.variable(dom, n, trunc, i) for i in range(n)]
    one = MultiSeries.one(dom, n, trunc)
    units = []
    for j in range(n):
        u = MultiSeries.zero(dom, n, trunc)
        for e, c in phi_full[j].terms.items():
            e2 = list(e)
            e2[j] -= 1
            u.terms[tuple(e2)] = c
        units.append(u)
    psi = [s.copy() for s in xs]
    for _ in range(trunc + 1):
        new = []
        for j in range(n):
            comp = units[j].compose(psi, trunc=trunc)
            w = comp - one
            rec = one.copy()
            acc = one.copy()
            for _k in range(trunc):
                acc = acc.mul(-w, trunc=trunc)
                if acc.is_zero():
                    break
                rec = rec + acc
            new.append(xs[j].mul(rec, trunc=trunc))
        stable = all((a - b).is_zero() for a, b in zip(new, psi))
        psi = new
        if stable:
            break
    return psi


def test_leading_part_invariance():
    # conjugating by a unit-shape change of coordinates leaves C and D alone
    rng = random.Random(7)
    t = 8
    eps0 = MultiSeries(F9, 2, t, {(1, 0): F9.from_vec((0, 1))})
    eps1 = MultiSeries(F9, 2, t, {(0, 1): F9.one})
    f = MultiGerm(F9, (F9.from_vec((1, 1)), F9.from_int(2)),
                  ((2, 1), (0, 2)), (eps0, eps1), t)
    xs = [MultiSeries.variable(F9, 2, t, i) for i in range(2)]
    phi_units = [MultiSeries(F9, 2, t, {(0, 0): F9.one, (1, 0): F9.from_int(2)}),
                 MultiSeries(F9, 2, t, {(0, 0): F9.one, (0, 1): F9.one})]
    phi_full = [xs[i].mul(phi_units[i], trunc=t) for i in range(2)]
    psi = _invert_shape(phi_full, t)
    for j in range(2):  # the iteration really inverted the map
        assert phi_full[j].compose(psi, trunc=t).agree(xs[j]) is None
    # conjugate: Phi o f o Psi
    inner = f.apply(psi, trunc=t)
    conj = [phi_full[j].compose(inner, trunc=t) for j in range(2)]
    for j in range(2):
        col = tuple(f.dmat[i][j] for i in range(2))
        deg = sum(col)
        lead = [(e, c) for e, c in conj[j].terms.items() if sum(e) <= deg]
        assert lead == [(col, f.cvec[j])], (j, lead)


def test_diagonal_scaling():
    rng = random.Random(3)
    cvec = (F9.rand(rng) or 1, F9.rand(rng) or 1)
    ds = diagonal_scaling(cvec, ((2, 0), (0, 2)), F9)
    assert ds.delta is not None
    fld = ds.field
    emb = F9.embed_map(fld)
    for j in range(2):
        acc = emb(cvec[j])
        for i in range(2):
            mij = ((2, 0), (0, 2))[i][j] - (1 if i == j else 0)
            acc = fld.mul(acc, fld.pow(ds.delta[i], mij))
        assert acc == fld.one
    ds2 = diagonal_scaling((2, 1), ((1, 1), (0, 2)), F3)
    assert ds2.delta is None and ds2.moduli_rank == 1
    ds3 = diagonal_scaling((1, 1), ((2, 0), (0, 2)), F3)
    assert ds3.delta == (1, 1)


def test_diagonal_scaling_failed_check(monkeypatch):
    # a wrong root fails the exact verification with a germ error that
    # callers catching AssertionError still catch
    field_roots = multidim.field_roots

    def off_by_one(field, codes):
        return [field.add(r, 1) for r in field_roots(field, codes)]

    monkeypatch.setattr(multidim, "field_roots", off_by_one)
    with pytest.raises(CheckFailed) as info:
        diagonal_scaling((1, 2), ((2, 0), (0, 2)), F3)
    assert isinstance(info.value, AssertionError)


def test_product_stabilization_guard():
    # ord(eps o f^k) strictly increasing is asserted per instance: a germ
    # whose component repeats x_1 linearly is rejected at construction
    z = MultiSeries.zero(F3, 2, 8)
    with pytest.raises(ValidationError):
        MultiGerm(F3, (1, 1), ((0, 0), (0, 2)), (z, z), 8)
