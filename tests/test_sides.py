"""The engine's side kernels, read for read: the block and relaxed kernels
of ``Field`` against the ordered kernels, and the ordered kernels, which
pull each sum as one ``dot``, against the push reference of
``germ_testutil`` over F_q((t)).

Over a field the block and relaxed kernels sum the same terms in another
grouping; the pull adds the same terms in the same order as the push.  So
every value the engine reads must be the same, over F_q((t)) in (val,
unit, prec): the left side before and after each phi is fixed, the
coefficient of the unknown, and every chain coefficient, including those
read past the frontier with the unknown as zero.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from germ.analytic import (LaurentDomain, LaurentScalar,  # noqa: E402
                           truncation_target)
from germ.errors import GermError  # noqa: E402
from germ.fields import Field, NeedExtension, field_create  # noqa: E402
from germ.invariants import profile  # noqa: E402
from germ.normalizer import (_Engine, min_trunc, normal_form,  # noqa: E402
                             solve_prescribed)
from germ.sides import OrderedLeft, OrderedRight  # noqa: E402
from germ_testutil import (PushLeft, PushRight, growth_germ,  # noqa: E402
                           laurent_lift_series, make_germ, ordered_left_side,
                           ordered_right_side, r0_two_germ)

# the packed table fields, F_{2^8} with 8-digit codes, and a table-free
# field whose engine vectors are lists
SIDE_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 8), (3, 11)]


def _key(x):
    """A Laurent scalar as its (val, unit, prec), inside tuples too."""
    if isinstance(x, LaurentScalar):
        return x.val, tuple(x.unit), x.prec
    return tuple(map(_key, x)) if isinstance(x, (tuple, list)) else x


class _Recorded:
    """A side kernel whose every call, with its arguments and answer, is
    appended to a log."""

    def __init__(self, kern, log):
        self.kern, self.log = kern, log

    def __getattr__(self, name):
        fn = getattr(self.kern, name)

        def call(*args):
            out = fn(*args)
            self.log.append((name, _key(args), _key(out)))
            return out
        return call


def _run(f, trunc, target_len, kernels, extra):
    """The log of every side-kernel call of one solve, and how it ended:
    onto the first ``target_len`` coefficients of the unit when that is
    not None, on the domain's own side kernels or on the (left, right)
    classes ``kernels``.  After each phi, ``extra`` more degrees are read
    ahead of the frontier, with the coefficients of fixed and unfixed
    phi's there."""
    field = f.dom
    prof = profile(f)
    g, _ = f.split()
    unit = g.coeffs[g.ord():]
    target = None if target_len is None else unit[:target_len]
    eng = _Engine(field, prof, unit, trunc - 1, target_unit=target)
    if kernels:
        eng.left = kernels[0](field, eng.eps, eng.d, eng.n_hi)
        eng.right = kernels[1](field, eng.n_hi, eng.supp)
    log = []
    eng.left, eng.right = _Recorded(eng.left, log), _Recorded(eng.right, log)
    assign = eng._assign_phi

    def assign_and_look_ahead(j, value):
        assign(j, value)
        for n in range(j + 1, min(j + extra, eng.n_hi) + 1):
            eng.left.coef(n)
            for h in sorted({j + 1, max(n // eng.d - 1, 0), n // eng.d}):
                eng.left.unknown_coef(n, h)
            for i, step, mexp, tau in list(eng.supp):
                eng.right.coef(tau, mexp, (n - i) // step)
    eng._assign_phi = assign_and_look_ahead
    try:
        eng.solve()
        end = _key(eng.phis)
    except (GermError, NeedExtension) as exc:
        end = type(exc).__name__
    return log, end


@st.composite
def engine_germs(draw):
    p, k = draw(st.sampled_from(SIDE_FIELDS))
    field = field_create(p, k)
    d = draw(st.integers(2, 6))
    m = draw(st.integers(0, 1))
    trunc = draw(st.integers(24, 64))
    # r0_cap 1 lets the blocks open at once; larger r_0 leaves no slack
    # between dJ and the fibers' reads for the first phi's
    r0_cap = draw(st.sampled_from([1, 2, 5, 9]))
    assume(d * p ** m + 4 <= trunc)
    f = make_germ(field, m, d, trunc, random.Random(draw(st.integers())),
                  r0_cap=r0_cap)
    assume(min_trunc(profile(f)) <= trunc)
    return f, trunc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(engine_germs(), st.booleans(), st.integers(0, 3))
def test_fast_sides_read_as_the_ordered_ones(case, prescribed, extra):
    f, trunc = case
    target_len = 2 if prescribed else None
    fast = _run(f, trunc, target_len, None, extra)
    assert fast == _run(f, trunc, target_len, (OrderedLeft, OrderedRight),
                        extra)


# F_3((t)) on both sides of Field.packed_mod (cap 48 packs, 64 does not)
# and F_9((t)), which never packs
PUSH_DOMAINS = [(3, 1, 48), (3, 1, 64), (3, 2, 20)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PUSH_DOMAINS), st.booleans(), st.integers(0, 2 ** 32),
       st.integers(0, 3))
def test_ordered_sides_pull_as_the_push_reference(spec, r0_two, seed, extra):
    # criterion 08's germs (r_0 = 1) read psi alone, r_0 = 2 germs psi^2
    # too, whose binomial update reads psi before phi_j is written there
    p, k, prec = spec
    dom = LaurentDomain(field_create(p, k), prec)
    rng = random.Random(seed)
    f = r0_two_germ(dom, rng) if r0_two else growth_germ(dom, rng)[0]
    target_len = truncation_target(profile(f)) - 3 + 1     # d = 3, m = 0
    pull = _run(f, 40, target_len, (OrderedLeft, OrderedRight), extra)
    assert pull == _run(f, 40, target_len, (PushLeft, PushRight), extra)


def test_normal_form_order_1024_same_on_ordered_sides(monkeypatch):
    # the pool stops at order 512; here the left side's blocks reach a
    # few hundred phi's and the relaxed squares 512 terms
    f9 = field_create(3, 2)
    f = make_germ(f9, 0, 6, 1024, random.Random(11))
    nf, wit = normal_form(f, trunc=1024)
    monkeypatch.setattr(Field, "left_side", ordered_left_side)
    monkeypatch.setattr(Field, "right_side", ordered_right_side)
    nf2, wit2 = normal_form(f, trunc=1024)
    assert (nf.a, nf.r) == (nf2.a, nf2.r)
    assert wit.phi.coeffs == wit2.phi.coeffs
    assert wit.transcript == wit2.transcript


def test_solve_prescribed_same_over_f3_and_constant_laurent():
    # constant coefficients stay exact over F_3((t)), so the ordered sums
    # there give the block and relaxed sums' phi, digit for digit
    f3 = field_create(3, 1)
    dom = LaurentDomain(f3, prec=32)
    rng = random.Random(8)
    solved = 0
    for _ in range(12):
        f = make_germ(f3, 0, rng.choice([3, 6]), 60, rng,
                      r0_cap=rng.choice([1, 2]))
        prof = profile(f)
        g, _ = f.split()
        unit = g.coeffs[g.ord():]
        target = unit[:2]
        try:
            lphis, _ = solve_prescribed(
                dom, prof, laurent_lift_series(dom, g).coeffs[g.ord():], 40,
                [dom.constant(c) for c in target])
        except GermError:
            continue        # a multi-term equation, unsolvable over F_3((t))
        phis, _ = solve_prescribed(f3, prof, unit, 40, target)
        assert all(x.prec is None for x in lphis)
        assert [(x.val, x.unit) for x in lphis] == \
            [(x.val, x.unit) for x in map(dom.constant, phis)]
        solved += 1
    assert solved >= 6
