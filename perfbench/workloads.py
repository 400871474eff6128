"""The benchmark's workloads: seeded input generators, the timed library
calls and the output gate.

Every workload is a fixed cycle of *slots*.  A slot describes one kind of
input (field, profile shape, order); its *variants* are inputs drawn from
``random.Random("<workload>/<slot>/<candidate>")``.  The candidate numbers
of the variants and the digest of each variant's outputs are committed in
``pool.json`` (``run.py --write-pool`` rebuilds it).  A run's ``--seed``
picks, for every slot of every cycle, which variant is used; so the same
seed gives the same inputs, while every cycle has the same mix of shapes
and a run's cost does not hinge on which coefficients the seed drew.
Anchor slots hold one fixed germ named in the workload's description.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from germ import cli
from germ.analytic import (LaurentDomain, certificate, check_growth,
                           conjugacy_to_truncation)
from germ.fields import field_create
from germ.invariants import (compose_bound, compose_germs, germ_at_infinity,
                             iterate_germ, iterate_profile, profile)
from germ.jsonio import germ_to_dict, multigerm_to_dict
from germ.multidim import MultiGerm, MultiSeries, int_det, monomial_conjugacy
from germ.normalizer import (bottcher_product, check_nf_conditions,
                             normal_form, random_conjugate)
from germ.series import Germ1D, Series, nu_p


class Case:
    """One generated input: ``call()`` is the timed library work and
    ``gate(result)`` returns (problems, payload); the payload is what the
    output digest covers.  ``inputs`` is a canonical text of the input."""

    __slots__ = ("inputs", "call", "gate")

    def __init__(self, inputs, call, gate):
        self.inputs = inputs
        self.call = call
        self.gate = gate


class Slot:
    def __init__(self, label, make, accept=None, anchor=False):
        self.label = label
        self.make = make          # make(rng, ctx) -> Case
        self.accept = accept      # pool filter on the call's result
        self.anchor = anchor      # one fixed input, no variants


class Workload:
    def __init__(self, name, base_fields, slots, variants, trace_cycles,
                 fresh_cycles=False):
        self.name = name
        self.base_fields = base_fields   # [(p, k)] built by the set-up probe
        self.slots = slots
        self.variants = variants
        self.trace_cycles = trace_cycles
        # run every timed cycle in its own process, so one-time work (table
        # builds) is paid by every cycle and the rate does not depend on how
        # many cycles fit into the run
        self.fresh_cycles = fresh_cycles


class Context:
    """What generators share: the base fields and a scratch directory for
    the CLI's JSON files."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.F2 = field_create(2, 1)
        self.F3 = field_create(3, 1)
        self.F5 = field_create(5, 1)
        self.F4 = field_create(2, 2)
        self.F9 = field_create(3, 2)

    def field(self, q):
        return {2: self.F2, 3: self.F3, 4: self.F4, 5: self.F5, 9: self.F9}[q]

    def path(self, name):
        return os.path.join(self.workdir, name)


# ---------------------------------------------------------------------------
# canonical text and digests
# ---------------------------------------------------------------------------

def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _field_key(field):
    return [field.p, field.k, list(field.modulus)]


def _scalar(dom, x):
    """A coefficient as JSON: a vector over F_q, or (val, digits, prec) over
    the Laurent domain."""
    if isinstance(dom, LaurentDomain):
        val = None if x.val == math.inf else x.val
        return [val, list(x.unit), x.prec]
    return list(dom.to_vec(x))


def _series(dom, s):
    return [s.trunc, [_scalar(dom, c) for c in s.coeffs]]


def germ_text(f):
    dom = f.dom
    base = dom.base if isinstance(dom, LaurentDomain) else dom
    extra = dom.prec if isinstance(dom, LaurentDomain) else None
    return json.dumps([_field_key(base), extra, _series(dom, f.series)],
                      separators=(",", ":"))


def _transcript(dom, rows):
    out = []
    for rec in rows:
        value = rec.get("value")
        out.append([rec["kind"], rec.get("n"), rec.get("k"),
                    rec.get("roots_considered"),
                    None if value is None else _scalar(dom, value)])
    return out


def _witness(dom, wit):
    return {"phi": _series(dom, wit.phi), "linear": _scalar(dom, wit.linear),
            "verified": wit.verified_order,
            "transcript": _transcript(dom, wit.transcript)}


def extension_hops(wit):
    return sum(1 for rec in wit.transcript if rec["kind"] == "extension")


# ---------------------------------------------------------------------------
# germ generators
# ---------------------------------------------------------------------------

def dense_germ(field, m, d, order, rng, density=0.9):
    """g(x^(p^m)) with g = y^d (1 + eps), eps_0 = 1, the first separable
    eps_n forced nonzero (so r_0 is as small as the shape allows) and the
    other coefficients random and dense."""
    p = field.p
    step = p ** m
    unit = [field.one]
    forced = False
    for n in range(1, order // step - d + 1):
        if not forced and nu_p(p, d + n) == 0:
            forced = True
            unit.append(1 + rng.randrange(field.q - 1))
        else:
            unit.append(field.rand(rng) if rng.random() < density
                        else field.zero)
    co = [field.zero] * (order + 1)
    for n, c in enumerate(unit):
        co[step * (d + n)] = c
    return Germ1D(field, Series(field, co, order))


def binomial_germ(field, d, s, order):
    """x^d + x^(d+s)."""
    co = [field.zero] * (order + 1)
    co[d] = co[d + s] = field.one
    return Germ1D(field, Series(field, co, order))


def random_multigerm(rng, field, n, trunc):
    """A monomial-theorem input: det D prime to p, every column of D summing
    to at least 2, sparse eps of total degree 1..3."""
    while True:
        dmat = tuple(tuple(rng.randrange(0, 4 - n // 3) for _ in range(n))
                     for _ in range(n))
        if any(sum(dmat[i][j] for i in range(n)) < 2 for j in range(n)):
            continue
        det = int_det([list(r) for r in dmat])
        if det != 0 and det % field.p != 0:
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


def growth_germ(base, rng, v, layout):
    """A criterion-08 germ x^3 + c t^v x^4 + ... over F_3((t)): profile
    (m, e, r_0) = (0, 1, 1).  ``layout`` maps an index in 5..9 to the
    valuation and digit count of its coefficient; the seed draws the nonzero
    digits.  A fixed layout keeps the cost of the Laurent arithmetic within a
    few percent across variants; the layout, not the digits, sets it."""
    trunc = 24
    co = [base.zero] * (trunc + 1)
    co[3] = base.one
    co[4] = base.t_power(v, 1 + rng.randrange(2))
    for idx, (val, ndigits) in layout.items():
        digits = [1 + rng.randrange(2) for _ in range(ndigits)]
        co[idx] = base.make(val, digits)
    return Germ1D(base, Series(base, co, trunc))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def nf_case(f, order, min_hops=0):
    def call():
        return normal_form(f, trunc=order)

    def gate(res):
        nf, wit = res
        problems = []
        if wit.verified_order < order:
            problems.append(f"verified_order {wit.verified_order} < {order}")
        bad = [k for k, ok in check_nf_conditions(nf).items() if not ok]
        if bad:
            problems.append(f"normal-form conditions fail: {bad}")
        if extension_hops(wit) < min_hops:
            problems.append("no field extension was needed")
        dom = nf.dom
        payload = {"field": _field_key(dom),
                   "profile": [nf.m, nf.d, nf.e, list(nf.r)],
                   "a": [_scalar(dom, c) for c in nf.a],
                   "witness": _witness(dom, wit)}
        return problems, payload

    return Case(germ_text(f) + f"|order={order}", call, gate)


def no_extension(res):
    return extension_hops(res[1]) == 0


def nf_slot(q, m, d, order):
    def make(rng, ctx):
        return nf_case(dense_germ(ctx.field(q), m, d, order, rng), order)
    return Slot(f"normal_form F_{q} m={m} d={d} order {order}", make,
                accept=no_extension)


def growth_slot(v, layout, order=200):
    def make(rng, ctx):
        base = LaurentDomain(ctx.F3, prec=48)
        f = growth_germ(base, rng, v, layout)

        def call():
            wit = conjugacy_to_truncation(f, order=order)
            cert = certificate(profile(f), wit.phi.coeffs[1:], v)
            return wit, cert, check_growth(wit, cert)

        def gate(res):
            wit, cert, rep = res
            problems = []
            if not rep.ok:
                problems.append(f"growth violations {rep.violations[:3]}")
            if wit.phi.trunc != order:
                problems.append(f"witness order {wit.phi.trunc} != {order}")
            payload = {"witness": _witness(f.dom, wit),
                       "certificate": cert.to_dict(),
                       "report": rep.to_dict()}
            return problems, payload

        return Case(germ_text(f) + f"|v={v}|order={order}", call, gate)
    shape = " ".join(f"x^{i}:t^{val}*{n}digit" for i, (val, n)
                     in sorted(layout.items()))
    return Slot(f"growth v={v} {shape} order {order}", make)


def tower_anchor(q, d, s, order):
    def make(rng, ctx):
        return nf_case(binomial_germ(ctx.field(q), d, s, order), order,
                       min_hops=1)
    return Slot(f"x^{d}+x^{d + s} over F_{q} order {order}", make,
                anchor=True)


def tower_conjugate(q, d, s, order):
    """A seeded random conjugate of x^d + x^(d+s): same normal form, so the
    same climb up the tower, from a dense germ."""
    def make(rng, ctx):
        f0 = binomial_germ(ctx.field(q), d, s, order)
        f, _ = random_conjugate(f0, rng.randrange(1 << 30), trunc=order)
        return nf_case(f, order, min_hops=1)
    return Slot(f"conjugate of x^{d}+x^{d + s} over F_{q} order {order}",
                make)


def conjugate_profile_slot(q, m, d, order):
    def make(rng, ctx):
        f = dense_germ(ctx.field(q), m, d, order, rng)
        want = profile(f)
        seed = rng.randrange(1 << 30)

        def call():
            fc, _ = random_conjugate(f, seed, trunc=order)
            return fc, profile(fc)

        def gate(res):
            fc, prof = res
            problems = [] if prof == want else [f"profile {prof} != {want}"]
            return problems, {"germ": germ_text(fc), "profile": prof.to_dict()}

        return Case(germ_text(f) + f"|seed={seed}", call, gate)
    return Slot(f"random_conjugate+profile F_{q} m={m} d={d} order {order}",
                make)


def compose_slot(q):
    def make(rng, ctx):
        field = ctx.field(q)
        m1, m2 = rng.randrange(2), rng.randrange(2)
        d1, d2 = rng.choice([2, 3, 4]), rng.choice([2, 3, 4])
        # the germs are exact polynomials: extend so the composition's
        # profile can witness every predicted invariant
        t = field.p ** (m1 + m2) * (d1 * d2 + 12)
        f1 = dense_germ(field, m1, d1, t, rng, density=0.5)
        f2 = dense_germ(field, m2, d2, t, rng, density=0.5)
        cb = compose_bound(profile(f1), profile(f2))
        need = field.p ** cb.m * (cb.d + cb.r_bound[0] + 2)
        f1 = Germ1D(field, f1.series.extended(need))
        f2 = Germ1D(field, f2.series.extended(need))

        def call():
            comp = compose_germs(f1, f2, trunc=need)
            return comp, profile(comp)

        def gate(res):
            comp, pc = res
            problems = []
            if (pc.m, pc.d, pc.e, pc.r[0]) != (cb.m, cb.d, cb.e,
                                                cb.r_bound[0]):
                problems.append(f"composition profile {pc} vs bound {cb}")
            return problems, {"germ": germ_text(comp),
                              "profile": pc.to_dict()}

        return Case(germ_text(f1) + germ_text(f2) + f"|{need}", call, gate)
    return Slot(f"compose_germs+profile over F_{q}", make)


def iterate_slot():
    def make(rng, ctx):
        field, d, t = (ctx.F3, 3, 112) if rng.random() < 0.5 else \
            (ctx.F2, 2, 60)
        n = rng.choice([2, 3])
        f = dense_germ(field, 0, d, t, rng, density=0.5)
        frag = iterate_profile(profile(f), n)

        def call():
            fn = iterate_germ(f, n, trunc=t)
            return fn, profile(fn)

        def gate(res):
            fn, pn = res
            problems = []
            if (pn.m, pn.d, pn.e, pn.r[0]) != (frag.m, frag.d, frag.e,
                                                frag.r0):
                problems.append(f"iterate profile {pn} vs {frag}")
            return problems, {"germ": germ_text(fn), "profile": pn.to_dict()}

        return Case(germ_text(f) + f"|n={n}", call, gate)
    return Slot("iterate_germ+profile (F_3 d=3 / F_2 d=2)", make)


def bottcher_slot(order=40):
    def make(rng, ctx):
        field = ctx.field(rng.choice([3, 9, 4]))
        d = rng.choice([d for d in (2, 3, 4, 5, 7) if d % field.p])
        f = dense_germ(field, rng.randrange(2), d, order, rng)

        def call():
            return bottcher_product(f, trunc=order)

        def gate(wit):
            problems = []
            if wit.verified_order < order:
                problems.append(f"verified_order {wit.verified_order}")
            return problems, _witness(field, wit)

        return Case(germ_text(f), call, gate)
    return Slot(f"bottcher_product order {order}", make)


def infinity_slot():
    def make(rng, ctx):
        field = ctx.field(rng.choice([2, 3, 5]))
        deg = rng.randrange(2, 13)
        coeffs = [field.wrap(field.rand(rng)) for _ in range(deg)]
        coeffs.append(field.wrap(1 + rng.randrange(field.p - 1)))

        def call():
            g = germ_at_infinity(coeffs)
            return g, profile(g)

        def gate(res):
            g, prof = res
            problems = [] if prof.r[0] <= prof.d else ["r_0 exceeds d"]
            return problems, {"germ": germ_text(g), "profile": prof.to_dict()}

        return Case(json.dumps([field.p, [c.code for c in coeffs]]), call,
                    gate)
    return Slot("germ_at_infinity+profile, degree 2..12", make)


def monomial_slot(trunc=12):
    def make(rng, ctx):
        field = ctx.field(rng.choice([3, 9, 4]))
        f = random_multigerm(rng, field, rng.choice([1, 2, 2, 3]), trunc)

        def call():
            return monomial_conjugacy(f, trunc=trunc)

        def gate(res):
            phi, verified = res
            problems = [] if verified == trunc else [f"verified {verified}"]
            comps = [sorted((list(e), _scalar(field, c))
                            for e, c in s.terms.items()) for s in phi]
            return problems, comps

        return Case(json.dumps(multigerm_to_dict(f), sort_keys=True), call,
                    gate)
    return Slot(f"monomial_conjugacy degree {trunc}", make)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cli_slot(command):
    """``germ.cli.main`` in-process on JSON files written at generation."""
    def make(rng, ctx):
        tag = f"{command}-{rng.randrange(1 << 30)}"
        out = ctx.path(tag + "-out.json")
        extra_out = []

        def write(name, body):
            path = ctx.path(f"{tag}-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(body, fh, sort_keys=True)
            return path

        if command == "normalize":
            field = ctx.field(rng.choice([3, 9, 4]))
            f = dense_germ(field, 0, rng.choice([2, 3, 4]), 48, rng)
            tr = ctx.path(tag + "-tr.jsonl")
            extra_out.append(tr)
            argv = ["normalize", write("f", germ_to_dict(f)), "--order", "48",
                    "--transcript", tr]
        elif command == "invariants":
            field = ctx.field(rng.choice([3, 9, 4]))
            f = dense_germ(field, rng.randrange(2), rng.choice([2, 3, 6]),
                           40, rng)
            argv = ["invariants", write("f", germ_to_dict(f))]
        elif command == "compose":
            field = ctx.field(rng.choice([3, 4]))
            f1 = dense_germ(field, 0, rng.choice([2, 3]), 36, rng)
            f2 = dense_germ(field, 0, rng.choice([2, 3]), 36, rng)
            argv = ["compose", write("f", germ_to_dict(f1)),
                    write("g", germ_to_dict(f2))]
        elif command == "iterate":
            field = ctx.F2
            f = dense_germ(field, 0, 2, 60, rng, density=0.5)
            argv = ["iterate", write("f", germ_to_dict(f)), "--n", "2",
                    "--check"]
        elif command == "bottcher":
            field = ctx.field(rng.choice([3, 9]))
            f = dense_germ(field, 0, rng.choice([2, 4]), 40, rng)
            argv = ["bottcher", write("f", germ_to_dict(f)), "--order", "40"]
        elif command == "multinorm":
            field = ctx.field(rng.choice([3, 9, 4]))
            mg = random_multigerm(rng, field, rng.choice([1, 2]), 12)
            argv = ["multinorm", write("f", multigerm_to_dict(mg)),
                    "--degree", "12"]
        else:
            raise ValueError(command)
        argv += ["--out", out]
        inputs = [_read(a) if a.endswith(".json") else a
                  for a in argv if a not in (out, *extra_out)]

        def call():
            return cli.main(argv)

        def gate(code):
            problems = [] if code == 0 else [f"exit code {code}"]
            texts = []
            for path in [out] + extra_out:
                texts.append(_read(path))
                # the next call then writes a new file: rewriting one in
                # place makes ext4 flush it on close, which costs tens of ms
                # on a VM disk and would time the disk instead of the CLI
                os.unlink(path)
            return problems, texts

        return Case(json.dumps(inputs), call, gate)
    return Slot(f"cli {command}", make)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in [
    # dense germs at orders 256-512: series multiplication inside the
    # composition oracle dominates; variants that would climb the field
    # tower are filtered out, so root finding stays small.  Five slots of
    # well-separated cost: the median item is the middle slot's median.
    Workload("nf-high-order", [(3, 1), (3, 2), (2, 2)], [
        nf_slot(9, 0, 6, 256),
        nf_slot(3, 0, 2, 512),
        nf_slot(4, 1, 3, 384),
        nf_slot(9, 1, 4, 320),
        nf_slot(3, 1, 6, 448),
    ], variants=6, trace_cycles=1),
    # the criterion-08 pipeline over F_3((t)), prec 48, order 200: Laurent
    # arithmetic inside the prescribed-target engine; no field tables, no
    # root finding
    Workload("growth-tadic", [(3, 1)], [
        growth_slot(0, {5: (0, 2)}),
        growth_slot(1, {6: (0, 2), 8: (1, 1)}),
        growth_slot(0, {5: (1, 2), 7: (0, 1)}),
        growth_slot(1, {5: (0, 1), 9: (2, 1)}),
        growth_slot(0, {6: (2, 1), 8: (0, 1)}),
    ], variants=6, trace_cycles=1),
    # low orders, restarts up the field tower: root finding in table-free
    # fields, table builds and embeddings.  Every cycle runs in a fresh
    # process, so each pays its table builds (F_{3^9} in the first anchor,
    # F_{2^16} in the x^2+x^6 anchor).  Three germs of a few ms, the
    # x^3+x^9 anchor, and three of a second or more: the median item is
    # that fixed anchor in every run.
    Workload("extension-tower", [(2, 1), (3, 1), (2, 2), (3, 2)], [
        tower_anchor(3, 3, 6, 30),        # F_3 -> F_{3^9}
        tower_anchor(3, 3, 3, 18),        # F_3 -> F_{3^27}
        tower_anchor(2, 2, 4, 18),        # F_2 -> F_{2^16}
        tower_conjugate(2, 2, 2, 24),     # -> F_{2^8}
        tower_conjugate(4, 2, 4, 18),     # -> F_{2^16}
        tower_anchor(2, 4, 4, 24),        # -> F_{2^16}
        tower_conjugate(9, 3, 6, 24),     # -> F_{3^18}
    ], variants=6, trace_cycles=1, fresh_cycles=True),
    # many small mixed calls at acceptance-suite sizes, a third of them
    # through the CLI on JSON files
    Workload("fuzz-small", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 2)], [
        nf_slot(3, 0, 3, 48),
        nf_slot(9, 0, 6, 64),
        nf_slot(4, 1, 2, 56),
        conjugate_profile_slot(9, 0, 3, 32),
        conjugate_profile_slot(4, 1, 2, 40),
        compose_slot(3),
        compose_slot(4),
        iterate_slot(),
        bottcher_slot(),
        infinity_slot(),
        monomial_slot(),
        cli_slot("normalize"),
        cli_slot("invariants"),
        cli_slot("compose"),
        cli_slot("iterate"),
        cli_slot("bottcher"),
        cli_slot("multinorm"),
    ], variants=8, trace_cycles=100),
]}
