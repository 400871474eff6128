"""Cross-check of the packed convolution kernel ``Field.conv`` against a
schoolbook reference built only from the field's scalar add and mul.

The solver and the composition oracle both multiply through ``Field.conv``,
so this comparison is what keeps one kernel bug from fooling both.
"""

import random

import pytest

from germ.fields import field_create
from germ_testutil import schoolbook_conv


FIELDS = [
    (2, 1), (3, 1), (5, 1),          # prime fields
    (2, 2), (3, 2), (2, 8), (3, 3),  # table fields
    (2, 16),                         # the largest table field
    (65537, 1),                      # table-free, digits wider than a byte
    (3, 11),                         # table-free extension, q = 177147
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
