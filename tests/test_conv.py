"""Cross-check of the packed kernels ``Field.conv`` and ``Field.add_shifted``
against schoolbook references built only from the field's scalar add and mul.

The solver and the composition oracle both multiply through ``Field.conv``,
so this comparison is what keeps one kernel bug from fooling both.
"""

import random

import pytest

from germ.fields import field_create
from germ_testutil import schoolbook_add_shifted, schoolbook_conv


FIELDS = [
    (2, 1), (3, 1), (5, 1),          # prime fields
    (2, 2), (3, 2), (2, 8), (3, 3),  # table fields
    (3, 6),                          # odd-p table field, no addition table
    (2, 16),                         # the largest table field
    (65537, 1),                      # table-free, digits wider than a byte
    (3, 11),                         # table-free extension, q = 177147
    (3, 27),                         # table-free extension of high degree
    (257, 2),                        # table-free, two-byte digits, k > 1
    (2 ** 61 - 1, 1),                # slots wider than a machine word
]


def _operand(field, rng, length, zero_rate):
    return [0 if rng.random() < zero_rate else field.rand(rng)
            for _ in range(length)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_conv_matches_schoolbook_random(p, k):
    field = field_create(p, k)
    rng = random.Random(p * 1000 + k)
    for _ in range(40):
        la, lb = rng.randrange(0, 30), rng.randrange(0, 30)
        zero_rate = rng.choice((0.0, 0.3, 0.9))
        a = _operand(field, rng, la, zero_rate)
        b = _operand(field, rng, lb, zero_rate)
        deg = la + lb - 2
        for n in (0, rng.randrange(0, 60), max(deg - 3, 0), deg, deg + 5):
            if n < 0:
                continue
            got = field.conv(a, b, n)
            assert len(got) == n + 1
            assert got == schoolbook_conv(field, a, b, n), (a, b, n)
        n = rng.randrange(0, 60)
        assert field.conv(a, a, n) == schoolbook_conv(field, a, a, n)


@pytest.mark.parametrize("p,k", FIELDS)
def test_conv_degenerate_operands(p, k):
    field = field_create(p, k)
    rng = random.Random(7)
    a = [field.rand(rng) for _ in range(9)]
    for n in (0, 4, 20):
        assert field.conv([], a, n) == [0] * (n + 1)
        assert field.conv(a, [], n) == [0] * (n + 1)
        assert field.conv([], [], n) == [0] * (n + 1)
        assert field.conv([0] * 6, a, n) == [0] * (n + 1)
        assert field.conv(a, [0] * 6, n) == [0] * (n + 1)
    padded = [0, 0, 0] + a + [0, 0]
    for n in (0, 2, 3, 11, 30):
        assert field.conv(padded, a, n) == schoolbook_conv(field, padded, a, n)
        assert field.conv(a, padded, n) == schoolbook_conv(field, a, padded, n)
        assert field.conv(padded, padded, n) == \
            schoolbook_conv(field, padded, padded, n)


@pytest.mark.parametrize("p,k", FIELDS)
def test_conv_slot_bound_is_tight(p, k):
    # every alpha-digit at p-1 drives the middle digit sum to exactly
    # min(len) * k * (p-1)**2, the value the slot width is sized for
    field = field_create(p, k)
    top = field.q - 1
    for length in (1, 2, 7, 64):
        a = [top] * length
        n = 2 * length - 2
        assert field.conv(a, a, n) == schoolbook_conv(field, a, a, n)
        assert field.conv(a, list(a), n) == schoolbook_conv(field, a, a, n)


def test_conv_slot_width_boundary():
    # over F_2 the digit sum is the overlap length: 255 fits one byte,
    # 256 needs two
    f2 = field_create(2, 1)
    for length in (255, 256, 257):
        a = [1] * length
        n = 2 * length - 2
        assert f2.conv(a, a, n) == schoolbook_conv(f2, a, a, n)
    # over F_p the largest digit sum is min(len) * (p-1)**2: one short
    # operand on each side of 256, against a longer one
    for p, short in ((3, 63), (3, 64), (5, 15), (5, 16), (7, 7), (7, 8),
                     (13, 1), (13, 2), (17, 1)):
        fp = field_create(p, 1)
        a = [p - 1] * short
        for long in (short, short + 5):
            b = [p - 1] * long
            for n in (short - 1, short + long - 2, short + long + 3):
                want = schoolbook_conv(fp, a, b, n)
                assert fp.conv(a, b, n) == want, (p, short, long, n)
                assert fp.conv(b, a, n) == want, (p, short, long, n)


@pytest.mark.parametrize("p,k", FIELDS)
def test_conv_both_sides_of_short_operand_cutoff(p, k):
    # table fields that add in one step sum products with a shorter operand
    # of fewer than k terms through exp/log; check lengths on both sides
    field = field_create(p, k)
    rng = random.Random(k * 7919 + p)
    for short in sorted({1, max(k - 1, 1), k, k + 1}):
        for long in (short, short + 3, 3 * k + 20):
            for zero_rate in (0.0, 0.5):
                a = _operand(field, rng, short, zero_rate)
                b = _operand(field, rng, long, zero_rate)
                deg = short + long - 2
                for n in (0, short - 1, deg // 2, deg, deg + 3):
                    want = schoolbook_conv(field, a, b, n)
                    assert field.conv(a, b, n) == want, (a, b, n)
                    assert field.conv(b, a, n) == want, (a, b, n)


# the table fields of FIELDS, and two prime fields with tables whose digits
# are too wide for one-byte slots, so a one-term product leaves the byte path
ONE_TERM_FIELDS = [(p, k) for p, k in FIELDS if p ** k <= 1 << 16] + \
    [(17, 1), (257, 1)]


@pytest.mark.parametrize("p,k", ONE_TERM_FIELDS)
def test_conv_one_term_operand(p, k):
    # a one-term operand scales the other through the exp/log tables
    field = field_create(p, k)
    assert field._exp is not None
    rng = random.Random(p * 17 + k)
    top = field.q - 1
    for length in (1, 2, 9, 40):
        for zero_rate in (0.0, 0.4):
            v = _operand(field, rng, length, zero_rate)
            for c in (0, 1, top, field.rand(rng)):
                for one in ([c], [c, 0, 0]):
                    for n in (0, length // 2, length - 1, length, length + 6):
                        want = schoolbook_conv(field, one, v, n)
                        assert field.conv(one, v, n) == want, (c, v, n)
                        assert field.conv(v, one, n) == want, (c, v, n)


# byte-packed adds: xor over F_2 and F_4, add and translate over F_3 and
# F_127 (the largest p whose digit sums fit a byte); per-digit adds beyond:
# xor over F_{2^16}, the addition table over F_9, F_{3^3} and F_{5^2}, and
# one add call per digit over table-free odd-p fields
ADD_FIELDS = FIELDS + [(127, 1), (131, 1), (5, 2)]


@pytest.mark.parametrize("p,k", ADD_FIELDS)
def test_add_shifted_matches_schoolbook(p, k):
    field = field_create(p, k)
    rng = random.Random(p * 31 + k)
    top = field.q - 1
    for _ in range(60):
        lo = _operand(field, rng, rng.randrange(0, 30), 0.2)
        hi = _operand(field, rng, rng.randrange(0, 30), 0.2)
        if rng.random() < 0.3:
            lo, hi = [top] * len(lo), [top] * len(hi)
        for off in (0, 1, rng.randrange(0, 40)):
            for n in (0, off, off + 1, len(lo), len(hi) + off,
                      rng.randrange(0, 70)):
                got = field.add_shifted(lo, hi, off, n)
                assert got == schoolbook_add_shifted(field, lo, hi, off, n), \
                    (lo, hi, off, n)


# long dense operands give the small table fields two-byte product slots,
# and F_{7^12} needs two-byte fold slots (k(p-1)**2 = 432)
@pytest.mark.parametrize("p,k,length", [(2, 2, 512), (3, 2, 512),
                                        (7, 12, 24)])
def test_conv_dense_long_operands(p, k, length):
    field = field_create(p, k)
    rng = random.Random(p * 7 + length)
    a = [field.rand(rng) for _ in range(length)]
    b = [field.rand(rng) for _ in range(length)]
    for n in (length // 3, 2 * length - 2):
        assert field.conv(a, b, n) == schoolbook_conv(field, a, b, n)
    if k == 12:
        assert field._ring.width == 2


# Laurent units over fields of at most 256 elements are bytes with nonzero
# end digits; every branch of conv must read them as it reads lists
@pytest.mark.parametrize("p,k", [(3, 2), (2, 2), (2, 8)])
def test_conv_bytes_operands_match_lists(p, k):
    field = field_create(p, k)
    rng = random.Random(p * 13 + k)
    for la, lb in ((1, 6), (2, 30), (k + 1, 40), (40, 40), (300, 200)):
        a = [1] + [field.rand(rng) for _ in range(la - 2)] + [1] * (la > 1)
        b = [field.q - 1] + [field.rand(rng) for _ in range(lb - 1)]
        b[-1] = b[-1] or 1
        for n in (0, la // 2, la + lb - 2, la + lb + 3):
            want = schoolbook_conv(field, a, b, n)
            assert field.conv(a, b, n) == want
            assert list(field.conv(bytes(a), bytes(b), n)) == want


# slots of three bytes over F_{97^2} and F_127 sum more weighted bytes than
# one byte holds, so the sum is reduced on the way; above p = 128 every
# slot is read as an int
@pytest.mark.parametrize("p,k", [(97, 2), (127, 1), (131, 1), (251, 1)])
def test_conv_wide_slots(p, k):
    field = field_create(p, k)
    rng = random.Random(p + k)
    top = field.q - 1
    for length in (2, 5, 40):
        for a in ([top] * length, [field.rand(rng) for _ in range(length)]):
            b = [top] * (length + 3)
            for n in (length, 2 * length + 1):
                assert field.conv(a, b, n) == schoolbook_conv(field, a, b, n)
