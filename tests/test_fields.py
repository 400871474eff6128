import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from germ import fields
from germ.errors import (CompositeP, DivisionByZero, FieldTooLarge,
                         IncompatibleFields, NoRootInField, ReducibleModulus)
from germ.fields import (_REGISTRY, Field, NeedExtension, _is_irreducible,
                         _poly_mul, _prime_factors, additive_roots, climb,
                         default_modulus, field_create, poly_roots,
                         root_extension)
from germ_testutil import (reference_additive_roots, reference_is_irreducible,
                           reference_tables, schoolbook_digits,
                           schoolbook_field_add, schoolbook_field_mul,
                           schoolbook_field_neg)


def test_field_create_examples():
    f3 = field_create(3, 1)
    assert (f3.p, f3.k, f3.q) == (3, 1, 3)
    assert f3.modulus == (0, 1)
    f9 = field_create(3, 2, (1, 0, 1))  # x^2 + 1, irreducible mod 3
    assert f9.q == 9
    with pytest.raises(CompositeP):
        field_create(4, 1)
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, (2, 0, 1))  # x^2 + 2 = x^2 - 1 splits
    with pytest.raises(FieldTooLarge):
        field_create(3, 50)


def test_field_create_repeats_no_irreducibility_test(monkeypatch):
    # a default modulus is found once per (p, k), and an explicit modulus
    # already registered was proven irreducible when it was registered
    f216, f9 = field_create(2, 16), field_create(3, 2, (1, 0, 1))
    calls = []
    monkeypatch.setattr(fields, "_is_irreducible", lambda f, p:
                        calls.append((p, f)) or _is_irreducible(f, p))
    assert field_create(2, 16) is f216
    assert field_create(3, 2, (1, 0, 1)) is f9
    assert field_create(3, 2, (4, 3, 1)) is f9  # reduced mod 3 first
    assert calls == []
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, (2, 0, 1))
    assert calls == [(3, [2, 0, 1])]


def test_field_registry_canonical():
    assert field_create(3, 2) is field_create(3, 2)
    assert field_create(3, 2) is not field_create(3, 2, (2, 2, 1))


def test_arith_examples():
    f3 = field_create(3, 1)
    assert f3.element(2).inverse() == f3.element(2)
    f9 = field_create(3, 2, (1, 0, 1))
    alpha = f9.element([0, 1])
    assert alpha * alpha == f9.element(2)  # alpha^2 = -1
    with pytest.raises(DivisionByZero):
        f3.element(0).inverse()


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                 (5, 1), (5, 2)])
def test_field_axioms_exhaustive(p, k):
    f = field_create(p, k)
    for c in f.elements():
        assert f.pow(c, f.q) == c  # Fermat
        if c:
            assert f.mul(c, f.inv(c)) == 1
    # commutativity / distributivity spot checks
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (f.rand(rng) for _ in range(3))
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_frobenius_root_examples():
    f3 = field_create(3, 1)
    assert f3.frob_root(2, 1) == 2
    f9 = field_create(3, 2, (1, 0, 1))
    rng = random.Random(1)
    for _ in range(20):
        x = f9.rand(rng)
        assert f9.frob_root(f9.frob(x, 1), 1) == x
    # unique cube root of alpha, checked by exhausting all nine elements
    alpha = f9.from_vec([0, 1])
    brute = [c for c in f9.elements() if f9.pow(c, 3) == alpha]
    assert len(brute) == 1
    assert f9.frob_root(alpha, 1) == brute[0]


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1), (3, 2), (5, 1), (3, 11)])
def test_frobenius_root_roundtrip(p, k):
    f = field_create(p, k)
    if f.q <= 1 << 16:
        sample = f.elements()
    else:  # table-free field: a seeded sample instead of every element
        rng = random.Random(11)
        sample = [f.rand(rng) for _ in range(200)]
        for c in sample:
            for m in range(2 * k):
                assert f.frob(c, m) == f.pow(c, p ** m)
    for m in range(5):
        for c in sample:
            r = f.frob_root(c, m)
            assert f.pow(r, p ** m) == c


# table-free fields: one-byte slots (F_{3^11}, F_{3^27}, F_{2^17}, F_{5^9}),
# two-byte (F_{7^12}), four-byte (F_{251^3}), multi-byte digits
# (F_{257^2}), and slots past any array item (F_{(2^32-5)^2})
_TABLE_FREE = [(3, 11), (3, 27), (2, 17), (5, 9), (7, 12), (251, 3),
               (257, 2), (2 ** 32 - 5, 2)]


@pytest.mark.parametrize("p,k", _TABLE_FREE)
def test_table_free_kernel_matches_schoolbook(p, k):
    # the packed product against decode, _poly_mul, _poly_divmod, encode;
    # the Frobenius matrix against powers; packed sums and negations
    # against the digit-by-digit loop
    f = field_create(p, k)
    assert f.q > 1 << 16 and f._exp is None
    rng = random.Random(p * k)
    sample = [0, 1, p, f.q - 1] + [f.rand(rng) for _ in range(30)]
    for a, b in zip(sample, sample[1:] + sample[:1]):
        assert f.mul(a, b) == schoolbook_field_mul(f, a, b), (a, b)
        assert f.add(a, b) == schoolbook_field_add(f, a, b), (a, b)
        assert f.neg(a) == schoolbook_field_neg(f, a), a
        assert f.sub(a, b) == schoolbook_field_add(f, a, f.neg(b))
        assert f.to_vec(a) == tuple(schoolbook_digits(f, a))
        assert f.from_vec(f.to_vec(a)) == a
    for c in sample[:8]:
        for m in range(2 * k):
            assert f.frob(c, m) == f.pow(c, p ** m), (c, m)
        assert f.frob_root(f.frob(c, 1), 1) == c
        assert c == 0 or f.mul(c, f.inv(c)) == 1


def test_table_free_fields_allocate_little(monkeypatch):
    # a table-free field keeps no table sized by p: one sized p**2 for
    # p = 2**31 - 1 would not fit in memory
    for p, k in [(2 ** 31 - 1, 2), (97, 9)]:
        monkeypatch.setattr(fields, "_REGISTRY", {})
        tracemalloc.start()
        try:
            f = field_create(p, k)
            rng = random.Random(5)
            a, b = f.rand(rng), f.rand(rng)
            f.frob(f.sub(f.mul(a, b), f.add(a, b)), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (p, k, peak)


def test_poly_roots_examples():
    f3 = field_create(3, 1)
    one = f3.element(1)
    roots, fld = poly_roots([f3.element(-1), f3.element(0), one])
    assert fld is f3 and {r.code for r in roots} == {1, 2}
    roots, fld = poly_roots([one, f3.element(0), one], allow_extension=True)
    assert fld.q == 9 and len(roots) == 2
    assert all((r * r + 1).is_zero() for r in roots)
    roots, _ = poly_roots([f3.element(0), f3.element(-1), f3.element(0), one])
    assert {r.code for r in roots} == {0, 1, 2}
    with pytest.raises(NoRootInField):
        poly_roots([one, f3.element(0), one])


def test_poly_roots_against_exhaustive_evaluation():
    rng = random.Random(7)
    for p, k in [(3, 1), (3, 2), (2, 2), (3, 4)]:
        f = field_create(p, k)
        for _ in range(15):
            deg = rng.randrange(1, 6)
            coeffs = [f.rand(rng) for _ in range(deg)] + [1]
            wrapped = [f.wrap(c) for c in coeffs]
            want = {c for c in f.elements() if _eval(f, coeffs, c) == 0}
            try:
                got = {r.code for r in poly_roots(wrapped)[0]}
            except NoRootInField:
                got = None
            assert got == (want or None)


def _eval(field, coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def test_climb_restarts_one_hop_from_the_base():
    f3, f9, f81 = (field_create(3, k) for k in (1, 2, 4))
    seen = []

    def solve(hops):
        def run(field, emb):
            seen.append(field)
            if field.k in hops:
                raise NeedExtension(hops[field.k])
            return emb(2)
        return run

    result, fields = climb(f3, solve({1: f9, 2: f81}))
    assert fields == seen[1:] == [f9, f81]
    assert result == f3.embed_map(f81)(2)
    # a hop that does not grow the field ends the climb
    seen.clear()
    with pytest.raises(NoRootInField):
        climb(f3, solve({1: f9, 2: f81, 4: f81}))
    assert seen == [f3, f9, f81]
    # with extension off, so does the first hop
    seen.clear()
    with pytest.raises(NoRootInField):
        climb(f3, solve({1: f9}), allow_extension=False)
    assert seen == [f3]


def test_poly_roots_deterministic():
    f9 = field_create(3, 2)
    rng = random.Random(13)
    coeffs = [f9.wrap(f9.rand(rng)) for _ in range(5)] + [f9.wrap(1)]
    a = poly_roots(coeffs, allow_extension=True)
    b = poly_roots(coeffs, allow_extension=True)
    assert [r.code for r in a[0]] == [r.code for r in b[0]]
    assert a[1] is b[1]


def test_unity_relation_examples():
    # zeta**n == zeta, the relation the acceptance checks put on b ratios
    f3 = field_create(3, 1)
    assert f3.pow(2, 3) == 2
    assert f3.pow(0, 5) == 0
    f9 = field_create(3, 2)
    gen = next(c for c in range(2, f9.q) if f9.pow(c, (f9.q - 1) // 2) != 1)
    assert f9.pow(gen, 3) != gen  # generator has order 8


def test_embedding_commutes_with_arithmetic():
    f3 = field_create(3, 1)
    f9 = field_create(3, 2)
    f81 = field_create(3, 4)
    rng = random.Random(2)
    for src, dst in [(f3, f9), (f3, f81), (f9, f81)]:
        emb = src.embed_map(dst)
        for _ in range(40):
            a, b = src.rand(rng), src.rand(rng)
            assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b))
            assert emb(src.add(a, b)) == dst.add(emb(a), emb(b))
        assert emb(src.one) == dst.one
    with pytest.raises(IncompatibleFields):
        f9.embed_map(field_create(3, 3))


def test_element_coercion_along_tower():
    f3 = field_create(3, 1)
    f9 = field_create(3, 2)
    a = f3.element(2)
    b = f9.element([1, 1])
    c = a + b
    assert c.field is f9
    assert c == f9.element([0, 1])


def test_serialization_roundtrip():
    f9 = field_create(3, 2)
    d = f9.to_dict()
    assert d == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    again = field_create(d["p"], d["k"], d["modulus"])
    assert again is f9
    x = f9.element([2, 1])
    assert f9.element(list(x.coeffs)) == x


@pytest.mark.parametrize("p,ks", [(3, (1, 2, 4)), (2, (1, 2, 4))])
def test_equal_elements_hash_equal_along_tower(p, ks):
    fields = [field_create(p, k) for k in ks]
    for i, small in enumerate(fields):
        for big in fields[i + 1:]:
            for code in small.elements():
                x = small.wrap(code)
                y = x.embed(big)
                assert x == y and y == x
                assert hash(x) == hash(y)
                assert len({x, y}) == 1
    assert len({f.element(1) for f in fields}) == 1
    top = fields[-1]
    assert len({top.wrap(c) for c in top.elements()}) == top.q


def test_hash_found_once_and_equal_along_tower(monkeypatch):
    # the minimal polynomial behind the hash costs a Frobenius orbit, so
    # each element computes it once however often it is hashed
    f3, f9, f81 = (field_create(3, k) for k in (1, 2, 4))
    calls = []
    min_poly = Field.min_poly
    monkeypatch.setattr(Field, "min_poly", lambda self, a: calls.append(a)
                        or min_poly(self, a))
    chains = [[f3.wrap(c), f3.wrap(c).embed(f9), f3.wrap(c).embed(f81)]
              for c in f3.elements()]
    chains += [[f9.wrap(c), f9.wrap(c).embed(f81)] for c in f9.elements()]
    for chain in chains:
        first = [hash(x) for x in chain]
        for _ in range(3):
            assert [hash(x) for x in chain] == first
        assert len(set(first)) == 1
        assert len(set(chain)) == 1
    assert len(calls) == sum(map(len, chains))


def _sympy_poly(coeffs, p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p)


@pytest.mark.parametrize("p,max_deg", [(2, 4), (3, 5), (5, 3)])
def test_is_irreducible_matches_sympy(p, max_deg):
    for deg in range(1, max_deg + 1):
        for low in itertools.product(range(p), repeat=deg):
            f = list(low) + [1]
            assert _is_irreducible(f, p) == \
                _sympy_poly(f, p).is_irreducible, f


@pytest.mark.parametrize("p,k", [(2, 8), (2, 16), (3, 5), (3, 6), (3, 12),
                                 (3, 27), (5, 3), (7, 12), (11, 6)])
def test_default_modulus_irreducible(p, k):
    f = list(default_modulus(p, k))
    assert len(f) == k + 1 and f[-1] == 1
    assert _sympy_poly(f, p).is_irreducible


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_poly_roots_match_sympy(p):
    f = field_create(p, 1)
    rng = random.Random(p)
    for _ in range(25):
        deg = rng.randrange(1, 8)
        coeffs = [rng.randrange(p) for _ in range(deg)] + \
            [1 + rng.randrange(p - 1)]
        want = {int(r) % p for r in _sympy_poly(coeffs, p).ground_roots()}
        try:
            got = {r.code for r in
                   poly_roots([f.wrap(c) for c in coeffs])[0]}
        except NoRootInField:
            got = set()
        assert got == want, coeffs


def _first_irreducible(p, k):
    """default_modulus's search order with every candidate put through
    Ben-Or's test, none skipped for a root at 1 or -1."""
    for idx in itertools.count(1):
        c = [idx // p ** i % p for i in range(k)]
        if c[0] and _is_irreducible(c + [1], p):
            return tuple(c + [1])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_default_modulus_root_filter_keeps_the_search_order(p):
    for k in range(2, 13):
        assert default_modulus(p, k) == _first_irreducible(p, k), k


# default moduli of the fields the extension climbs reach, as they were
# before Ben-Or's test replaced Rabin's: the search order must not change
_PINNED_MODULI = {
    (3, 9): (1, 0, 1, 2, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (3, 18): (1, 2, 0, 1) + (0,) * 14 + (1,),
    (3, 27): (2, 2, 1, 1, 0, 1) + (0,) * 21 + (1,),
}


@pytest.mark.parametrize("p,k", sorted(_PINNED_MODULI))
def test_default_modulus_pinned(p, k):
    assert default_modulus(p, k) == _PINNED_MODULI[p, k]


# (modulus, generator exp[1], sha256 prefix of the exp, log, neg and add
# tables) as the chain of table-free products built them; the add table,
# pinned when odd-p fields of at most 256 elements kept one, is rebuilt
# from ``add`` there and is None elsewhere
_PINNED_TABLES = {
    (2, 2): ((1, 1, 1), 2, "05599b38ae08f3fb"),
    (2, 8): ((1, 1, 0, 1, 1, 0, 0, 0, 1), 3, "bf8ba7674061891d"),
    (2, 16): ((1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,), 3, "c3c807398c14b0cf"),
    (3, 2): ((1, 0, 1), 4, "ee73cd0c656fe494"),
    (3, 5): ((1, 2, 0, 0, 0, 1), 3, "4781c5ce55b6f373"),
    (3, 6): ((2, 1, 0, 0, 0, 0, 1), 3, "68c000c8759f2cee"),
    (3, 9): ((1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3, "1b5c8d50fcea6f1c"),
    (5, 4): ((2, 0, 0, 0, 1), 6, "ec56da9abbe5538a"),
    (7, 4): ((1, 1, 0, 0, 1), 12, "e914306527544cc3"),
    (13, 2): ((2, 0, 1), 15, "19c3974ac8ce67f0"),
    (251, 2): ((1, 0, 1), 256, "177dcc67f72ec9db"),
}


@pytest.mark.parametrize("p,k", sorted(_PINNED_TABLES))
def test_field_tables_pinned(p, k):
    f = field_create(p, k)
    add = [[f.add(a, b) for b in range(f.q)] for a in range(f.q)] \
        if p != 2 and f.q <= 256 else None
    tables = json.dumps([f._exp, f._log, f._neg_tab, add])
    assert (f.modulus, f._exp[1],
            hashlib.sha256(tables.encode()).hexdigest()[:16]) == \
        _PINNED_TABLES[p, k]


@pytest.mark.parametrize("p,k", [(5, 6), (7, 5), (13, 3), (251, 2), (3, 6),
                                 (3, 9), (257, 1)])
def test_tables_match_the_per_element_chain(p, k):
    # the radix-(2p-1) chain and the half tables summed by digits give the
    # tables one field.add per element gave, and add, neg and sub, by the
    # respread tables or mod p, agree with the digit-by-digit loop
    f = field_create(p, k)
    assert (f._exp, f._log, f._neg_tab) == reference_tables(f)
    rng = random.Random(p * k)
    sample = [0, 1, p - 1, f.q - 1] + [f.rand(rng) for _ in range(2000)]
    for a, b in zip(sample, sample[1:] + sample[:1]):
        assert f.add(a, b) == schoolbook_field_add(f, a, b), (a, b)
        assert f.neg(a) == schoolbook_field_neg(f, a), a
        assert f.sub(a, b) == schoolbook_field_add(
            f, a, schoolbook_field_neg(f, b)), (a, b)


def _poly_over_fp(p, *factors):
    out = [1]
    for g in factors:
        out = _poly_mul(field_create(p, 1), out, list(g))
    return out


def test_factor_sieve_and_ben_or_match_the_full_test():
    # derandomized: random monic polynomials of degree 2-40, default moduli
    # and products of two of them; the sieve over small fields followed by
    # Ben-Or's test from past its bound, and Ben-Or's test alone, must both
    # agree with the full test from d = 1
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 13, 17, 131])
        n = rng.randrange(2, 41)
        kind = rng.choice(["random", "random", "irreducible", "product"])
        if kind != "random" and p <= 13:
            n = min(n, 24)
            a = rng.randrange(1, n)
            f = list(default_modulus(p, n)) if kind == "irreducible" else \
                _poly_over_fp(p, default_modulus(p, a),
                              default_modulus(p, n - a))
        else:
            f = [rng.randrange(p) for _ in range(n)] + [1]
        want = reference_is_irreducible(f, p)
        assert _is_irreducible(f, p) == want, (p, f)
        sieve, top = fields._factor_sieve(p, n)
        assert top <= n // 2 and (top == 0 or (p - 1) ** 2 < 256)
        assert (sieve(f) and _is_irreducible(f, p, top + 1)) == want, (p, f)
        seen[want] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("p,k", [(2, 16), (3, 9)])
def test_table_build_needs_sqrt_q_products(p, k, monkeypatch):
    # multiplying by the generator is F_p-linear, so the exp table needs
    # the images of the two half-codes only, not one product per element
    old = field_create(p, k)
    monkeypatch.delitem(_REGISTRY, (p, k, old.modulus))
    calls = []
    raw_mul = Field._raw_mul
    monkeypatch.setattr(Field, "_raw_mul", lambda self, a, b:
                        calls.append(a) or raw_mul(self, a, b))
    f = field_create(p, k)
    assert f is not old and f._exp == old._exp
    q = p ** k
    # generator search: each candidate below exp[1] takes one power per
    # prime factor of q - 1, each at most 2*log2(q) products
    search = f._exp[1] * len(_prime_factors(q - 1)) * 2 * q.bit_length()
    assert len(calls) <= 4 * p ** ((k + 1) // 2) + search


def _additive_equation(field, rng, kind):
    """(terms, q) for sum(c * z**(p**s)) = q; terms are (s, c) code pairs.

    ``kind`` is "random", "inseparable" (no z**1 term) or "kernel" (q = 0
    and a chosen nonzero root a, so the kernel is nontrivial); "no-solution"
    is a kernel equation with a random q, which misses the image (a proper
    subspace) about 1 - 1/p of the time."""
    p = field.p
    top = 3 if field.q <= 1 << 8 else 2     # degree p**top for poly_roots
    exps = rng.sample(range(top + 1), rng.randrange(1, 4))
    if kind == "inseparable":
        exps = [s for s in exps if s] or [1]
    terms = {s: 1 + rng.randrange(field.q - 1) for s in exps}
    if kind == "random" or kind == "inseparable":
        return list(terms.items()), field.rand(rng)
    a = 1 + rng.randrange(field.q - 1)
    terms.pop(0, None)
    if not terms:
        terms[1] = 1 + rng.randrange(field.q - 1)
    image = 0
    for s, c in terms.items():
        image = field.add(image, field.mul(c, field.pow(a, p ** s)))
    c0 = field.neg(field.div(image, a))     # makes a a root of the left side
    if c0:
        terms[0] = c0
    q = 0 if kind == "kernel" else field.rand(rng)
    return list(terms.items()), q


def _poly_codes(field, terms, q):
    codes = [0] * (field.p ** max(s for s, _ in terms) + 1)
    codes[0] = field.neg(q)
    for s, c in terms:
        codes[field.p ** s] = field.add(codes[field.p ** s], c)
    return codes


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 8),
                                 (3, 6), (3, 11)])
def test_additive_roots_match_poly_roots(p, k):
    # Cantor-Zassenhaus on the degree-p**s polynomial is the independent
    # reference: the same roots, in the same order
    field = field_create(p, k)
    rng = random.Random(100 * p + k)
    seen = dict.fromkeys(("random", "inseparable", "kernel", "no-solution"), 0)
    rounds = 4 if field.q > 1 << 16 else 12
    for kind in list(seen) * rounds:
        terms, q = _additive_equation(field, rng, kind)
        got = additive_roots(field, terms, q)
        codes = _poly_codes(field, terms, q)
        wrapped = [field.wrap(c) for c in codes]
        try:
            want = [r.code for r in poly_roots(wrapped)[0]]
        except NoRootInField:
            want = []
        assert got == want, (kind, terms, q)
        for z in got:
            lhs = 0
            for s, c in terms:
                lhs = field.add(lhs, field.mul(c, field.frob(z, s)))
            assert lhs == q
        if kind == "kernel":
            assert len(got) >= p and got[0] == 0
        if got:
            assert root_extension(field, codes) is field
        elif kind == "no-solution":
            big = root_extension(field, codes)
            assert big.k % k == 0 and big.k > k
            if big.q <= 1 << 16:   # root finding up there stays quick
                assert poly_roots(wrapped, allow_extension=True)[1] is big
        if kind != "no-solution" or not got:
            seen[kind] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("p,k", [(2, 3), (5, 3), (7, 2), (13, 2), (17, 2),
                                 (19, 1)])
def test_additive_roots_match_brute_force(p, k):
    # every z of the field tried, the left side by powers, not frob:
    # p*p <= 256 and above it (p = 17, 19)
    field = field_create(p, k)
    rng = random.Random(7 * p + k)
    for kind in ("random", "inseparable", "kernel", "no-solution") * 5:
        terms, q = _additive_equation(field, rng, kind)
        want = []
        for z in field.elements():
            lhs = 0
            for s, c in terms:
                lhs = field.add(lhs, field.mul(c, field.pow(z, p ** s)))
            if lhs == q:
                want.append(z)
        want.sort(key=field.to_vec)
        assert additive_roots(field, terms, q) == want, (kind, terms, q)


def _subspace_terms(field, basis):
    """(s, c) terms of the linearized polynomial whose roots are the F_p-span
    of ``basis``: L_(V + <w>)(z) = L_V(z)**p - L_V(w)**(p-1) * L_V(z)."""
    p = field.p
    terms = {0: 1}
    for w in basis:
        lw = _apply(field, terms.items(), w)
        a = field.pow(lw, p - 1)
        new = {}
        for s, c in terms.items():
            new[s + 1] = field.add(new.get(s + 1, 0), field.frob(c))
            new[s] = field.sub(new.get(s, 0), field.mul(a, c))
        terms = {s: c for s, c in new.items() if c}
    return list(terms.items())


def _apply(field, terms, z):
    out = 0
    for s, c in terms:
        out = field.add(out, field.mul(c, field.frob(z, s)))
    return out


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 8), (3, 6), (3, 11)])
def test_kept_additive_map_matches_a_fresh_elimination(p, k):
    # two maps alternated in one field, so the one kept map is replaced on
    # every switch: a random one and one whose kernel is a chosen span of
    # dimension 2 (3 over F_{2^8}; the whole field over F_4 and F_9), each
    # with right sides in its image and random ones, every answer against
    # a fresh elimination
    field = field_create(p, k)
    rng = random.Random(31 * p + k)
    dim = 3 if field.q == 256 else 2
    c = 1 + rng.randrange(field.q - 1)
    basis = [field.mul(c, p ** i) for i in range(dim)]    # c * alpha**i
    wide = _subspace_terms(field, basis)
    narrow = _additive_equation(field, rng, "random")[0]
    keys = set(vars(field))
    counts = {}
    for _ in range(5):
        for terms in (wide, narrow, wide):
            for _ in range(3):
                image = _apply(field, terms, field.rand(rng))
                for q in (image, field.rand(rng)):
                    got = additive_roots(field, terms, q)
                    assert got == reference_additive_roots(field, terms, q)
                    assert all(_apply(field, terms, z) == q for z in got)
                    counts.setdefault(terms is wide, set()).add(len(got))
                assert additive_roots(field, terms, image)
            # one map kept, in the slot set when the field was built
            assert field._additive[0] == tuple(sorted(terms))
            assert set(vars(field)) == keys
    assert counts[True] == {0, p ** dim}, counts
