"""The whole pipeline on the schoolbook reference kernels.

The solver and the composition oracle both multiply through ``Field.conv``
(over F_q((t)), through ``LaurentDomain.conv``) and add through
``add_shifted``, so a kernel bug that both read the same way would pass
the oracle.  Here the same germs are solved on the packed kernels and on
the references of ``germ_testutil``, and every output must agree.  The
pool replay runs every committed benchmark variant of all four workloads
on the references and checks its digest; it is marked ``slow`` and left
out of the default run (``pytest -m slow`` runs it).
"""

import importlib.util
import os
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from germ.analytic import (LaurentDomain,  # noqa: E402
                           conjugacy_to_truncation)
from germ.errors import FieldTooLarge  # noqa: E402
from germ.fields import Field, _FoldProduct, field_create  # noqa: E402
from germ.invariants import profile  # noqa: E402
from germ.normalizer import min_trunc, normal_form  # noqa: E402
from germ.series import Germ1D, Series  # noqa: E402
from germ_testutil import make_germ, reference_kernels  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# fields no pool.json variant runs: a p = 2 table field with 8-digit codes,
# an odd-p table field with an addition table, and four table-free fields:
# one with two-byte fold slots (k(p-1)**2 = 432), one of characteristic 2
# just past the tables, and one whose digits are wider than a byte
REPLAY_FIELDS = [(2, 8), (5, 3), (7, 12), (3, 11), (2, 17), (257, 2)]


def _outputs(f, trunc):
    try:
        nf, wit = normal_form(f, trunc=trunc)
    except FieldTooLarge as exc:    # over F_{2^17} a climb can pass the cap
        return {"error": (type(exc).__name__, str(exc))}
    return {"field": (nf.dom.p, nf.dom.k, nf.dom.modulus),
            "profile": (nf.m, nf.d, nf.e, nf.r), "a": list(nf.a),
            "phi": (list(wit.phi.coeffs), wit.phi.trunc),
            "linear": wit.linear, "verified_order": wit.verified_order,
            "transcript": wit.transcript,
            "choice_points": wit.choice_points}


@st.composite
def germs(draw, field):
    p = field.p
    m = draw(st.integers(0, 1))
    d = draw(st.sampled_from([2, 3, p, 2 * p]))
    trunc = draw(st.integers(20, 40))
    assume(d * p ** m + 4 <= trunc)
    f = make_germ(field, m, d, trunc, random.Random(draw(st.integers())),
                  r0_cap=draw(st.sampled_from([1, 2])))
    assume(min_trunc(profile(f)) <= trunc)
    return f, trunc


@pytest.mark.parametrize("p,k", REPLAY_FIELDS)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_normal_form_same_on_reference_kernels(p, k, data):
    f, trunc = data.draw(germs(field_create(p, k)))
    fast = _outputs(f, trunc)
    with reference_kernels():
        assert _outputs(f, trunc) == fast


def _laurent_witness():
    dom = LaurentDomain(field_create(3, 1), prec=48)
    co = [dom.zero] * 25
    co[3], co[4], co[6] = dom.one, dom.t_power(1), dom.one
    wit = conjugacy_to_truncation(Germ1D(dom, Series(dom, co, 24)), order=30)
    return [(c.val, bytes(c.unit), c.prec) for c in wit.phi.coeffs]


def test_reference_kernels_take_effect():
    names = [(Field, "conv"), (Field, "add_shifted"), (Field, "_raw_mul"),
             (Field, "dot"), (Field, "compose"), (_FoldProduct, "add"),
             (Field, "neg"), (Field, "frob"), (Field, "left_side"),
             (Field, "right_side"),
             (Field, "additive_roots"), (_FoldProduct, "pow"),
             (LaurentDomain, "conv"), (LaurentDomain, "dot")]
    packed = {key: getattr(*key) for key in names}
    field = field_create(3, 11)
    f = make_germ(field, 0, 3, 24, random.Random(5))
    # x^3 + x^6 over F_3 climbs to F_{3^9} through additive equations
    co = [0] * 13
    co[3] = co[6] = 1
    tower = Germ1D(field_create(3, 1), Series(field_create(3, 1), co, 12))
    fast = _laurent_witness(), _outputs(tower, 12)
    with reference_kernels() as calls:
        assert all(getattr(*key) is not kernel
                   for key, kernel in packed.items())
        normal_form(f, trunc=24)
        assert (_laurent_witness(), _outputs(tower, 12)) == fast
    assert all(calls[f"{cls.__name__}.{name}"] for cls, name in names)
    assert all(getattr(*key) is kernel for key, kernel in packed.items())


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["nf-high-order", "growth-tadic",
                                      "extension-tower", "fuzz-small"])
def test_pool_replays_on_reference_kernels(workload, tmp_path):
    # pool.json is only read: every variant must reproduce its digest
    run, workloads = _load("run"), _load("workloads")
    wl = workloads.WORKLOADS[workload]
    with reference_kernels() as calls:
        cases = run.load_pool(wl, workloads.Context(str(tmp_path)))
        failed = [key for key, (case, expected) in sorted(cases.items())
                  if run.run_item(case, expected, workloads.digest)[1]]
    assert calls["Field.conv"]
    if workload == "growth-tadic":
        assert calls["LaurentDomain.conv"] and calls["LaurentDomain.dot"]
    assert not failed, failed
