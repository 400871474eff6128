"""Batch front-end: `germ <command>` reading/writing the JSON germ formats.

Exit codes: 0 success, 1 bad input (parse/validation), 2 a mathematical
check reported failure (a conjugacy check disagreed, or a computed witness
failed its own check; see ``EXIT_CODES``).  All commands are deterministic
for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .analytic import (
    certificate,
    check_growth,
    conjugacy_to_truncation,
    truncation_target,
    tval,
)
from .errors import CheckFailed, GermError, ParseError
from .fields import is_prime
from .invariants import (
    InvariantProfile,
    JTable,
    compose_bound,
    compose_germs,
    germ_at_infinity,
    iterate_germ,
    iterate_profile,
    profile,
    stable_threshold,
)
from .normalizer import bottcher_product, normal_form, verify_conjugacy
from .multidim import monomial_conjugacy


def _write_text(args, text):
    out = getattr(args, "out", None)
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_invariants(args):
    f = jsonio.germ_from_dict(jsonio.load(args.germ))
    prof = profile(f)
    out = {"schema": jsonio.SCHEMA, "command": "invariants",
           "profile": prof.to_dict()}
    if prof.e >= 1:
        thr = stable_threshold(prof)
        out["stable_threshold"] = [thr.numerator, thr.denominator]
    _write_text(args, jsonio.dump(out))
    return 0


def cmd_normalize(args):
    f = jsonio.germ_from_dict(jsonio.load(args.germ))
    nf, wit = normal_form(f, choice=args.choice, trunc=args.order,
                          allow_extension=args.allow_extension)
    dom = nf.dom
    out = {
        "schema": jsonio.SCHEMA, "command": "normalize", "seed": args.seed,
        "choice": args.choice,
        "profile": {"m": nf.m, "d": nf.d, "e": nf.e, "r": list(nf.r)},
        "normal_form": jsonio.germ_to_dict(nf.germ(args.order)),
        "witness": {
            "linear": list(dom.to_vec(wit.linear)),
            "verified_order": wit.verified_order,
            "phi": jsonio.series_to_dict(dom, wit.phi),
        },
    }
    if args.transcript:
        with open(args.transcript, "w", encoding="utf-8") as fh:
            for rec in wit.transcript:
                if rec["kind"] == "extension":
                    row = {"kind": "extension", "k": rec["k"]}
                else:
                    row = {"kind": rec["kind"], "n": rec["n"],
                           "value": list(dom.to_vec(rec["value"]))}
                    if "roots_considered" in rec:
                        row["roots_considered"] = rec["roots_considered"]
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    _write_text(args, jsonio.dump(out))
    return 0


def cmd_bottcher(args):
    f = jsonio.germ_from_dict(jsonio.load(args.germ))
    wit = bottcher_product(f, trunc=args.order)
    dom = f.dom
    out = {"schema": jsonio.SCHEMA, "command": "bottcher",
           "verified_order": wit.verified_order,
           "phi": jsonio.series_to_dict(dom, wit.phi)}
    _write_text(args, jsonio.dump(out))
    return 0


def cmd_conjcheck(args):
    f = jsonio.germ_from_dict(jsonio.load(args.f))
    g = jsonio.germ_from_dict(jsonio.load(args.g))
    body = jsonio.load(args.phi)
    field = jsonio.field_from_dict(body.get("field", {}))
    phi = jsonio.series_from_dict(field, body.get("series", {}))
    report = verify_conjugacy(f, g, phi, args.order)
    out = {"schema": jsonio.SCHEMA, "command": "conjcheck",
           "ok": report.ok, "checked_order": report.checked_order,
           "first_disagreement": report.first_disagreement}
    _write_text(args, jsonio.dump(out))
    return 0 if report.ok else 2


def cmd_compose(args):
    f1 = jsonio.germ_from_dict(jsonio.load(args.f))
    f2 = jsonio.germ_from_dict(jsonio.load(args.g))
    comp = compose_germs(f1, f2, trunc=args.order)
    bound = compose_bound(profile(f1), profile(f2))
    out = {"schema": jsonio.SCHEMA, "command": "compose",
           "predicted": bound.to_dict(),
           "composition": jsonio.germ_to_dict(comp)}
    try:
        out["profile"] = profile(comp).to_dict()
    except GermError as exc:
        out["profile_error"] = str(exc)
    _write_text(args, jsonio.dump(out))
    return 0


def cmd_iterate(args):
    f = jsonio.germ_from_dict(jsonio.load(args.germ))
    prof = profile(f)
    frag = iterate_profile(prof, args.n)
    out = {"schema": jsonio.SCHEMA, "command": "iterate", "n": args.n,
           "predicted": frag.to_dict()}
    if args.check:
        fn = iterate_germ(f, args.n, trunc=args.order or f.trunc)
        actual = profile(fn)
        out["actual"] = actual.to_dict()
        ok = (actual.m == frag.m and actual.d == frag.d
              and actual.e == frag.e and actual.r[0] == frag.r0)
        out["match"] = ok
    _write_text(args, jsonio.dump(out))
    return 0 if out.get("match", True) else 2


def cmd_infinity(args):
    coeffs = jsonio.poly_from_dict(jsonio.load(args.poly))
    f = germ_at_infinity(coeffs, trunc=args.order)
    out = {"schema": jsonio.SCHEMA, "command": "infinity",
           "germ": jsonio.germ_to_dict(f),
           "profile": profile(f).to_dict()}
    _write_text(args, jsonio.dump(out))
    return 0


def cmd_multinorm(args):
    f = jsonio.multigerm_from_dict(jsonio.load(args.germ))
    phi, verified = monomial_conjugacy(f, trunc=args.degree)
    out = {"schema": jsonio.SCHEMA, "command": "multinorm",
           "verified_degree": verified,
           "phi": [jsonio.multiseries_to_dict(f.dom, s) for s in phi]}
    _write_text(args, jsonio.dump(out))
    return 0


def cmd_growth(args):
    f = jsonio.laurent_germ_from_dict(jsonio.load(args.germ))
    prof = profile(f)
    wit = conjugacy_to_truncation(f, order=args.order)
    g, _ = f.split()
    v = tval(g.coeffs[g.ord() + prof.r[0]])
    cert = certificate(prof, wit.phi.coeffs[1:], v)
    rep = check_growth(wit, cert)
    lines = ["n\tneg_val\tbound"]
    for n in range(1, wit.phi.trunc + 1):
        val = tval(wit.phi.coeffs[n])
        neg = "" if val == float("inf") else str(-val)
        lines.append(f"{n}\t{neg}\t{cert.scale * cert.c_n_closed(n)}")
    out = {"schema": jsonio.SCHEMA, "command": "growth",
           "truncation_target": truncation_target(prof),
           "certificate": cert.to_dict(), "report": rep.to_dict()}
    sys.stdout.write(jsonio.dump(out))
    _write_text(args, "\n".join(lines) + "\n")
    return 0 if rep.ok else 2


def cmd_jtable(args):
    r = args.r
    e = len(r) - 1
    d = args.d
    if d is None:
        d = args.p ** e
        if d * args.p ** args.m < 2:
            d *= 2 if args.p > 2 else 3
    table = JTable.build(InvariantProfile(args.p, args.m, d, e, r), args.nmax)
    _write_text(args, table.to_tsv())
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one ``error:`` line, like any bad input."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _checked_int(ok, what):
    """An argparse type: an integer for which ``ok`` holds."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{value} is not {what}")
        return value
    return parse


_count = _checked_int(lambda v: v >= 1, "an integer >= 1")
_natural = _checked_int(lambda v: v >= 0, "an integer >= 0")
_prime = _checked_int(is_prime, "a prime")


def _r_sequence(text):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and each call gets a fresh namespace."""
    ap = _Parser(
        prog="germ",
        description="classify superattracting germs in characteristic p")
    sub = ap.add_subparsers(dest="command", required=True)

    def germ_arg(sp):
        sp.add_argument("germ", help="germ JSON file")

    sp = sub.add_parser("invariants", help="compute (m, d, e, r)")
    germ_arg(sp)
    sp.add_argument("--out")

    sp = sub.add_parser("normalize", help="normal form and witness")
    germ_arg(sp)
    sp.add_argument("--choice", default="ndoubleprime",
                    choices=["nprime", "ndoubleprime"])
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--allow-extension", dest="allow_extension",
                    action="store_true", default=True)
    sp.add_argument("--no-extension", dest="allow_extension",
                    action="store_false")
    sp.add_argument("--transcript")
    sp.add_argument("--out")

    sp = sub.add_parser("bottcher", help="coprime-degree product witness")
    germ_arg(sp)
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--out")

    sp = sub.add_parser("conjcheck", help="verify a conjugacy by composition")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("phi")
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--out")

    sp = sub.add_parser("compose", help="compose two germs, check the bound")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("--order", type=_count)
    sp.add_argument("--out")

    sp = sub.add_parser("iterate", help="iterate invariants")
    germ_arg(sp)
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--check", action="store_true")
    sp.add_argument("--order", type=_count)
    sp.add_argument("--out")

    sp = sub.add_parser("infinity", help="germ at infinity of a polynomial")
    sp.add_argument("poly")
    sp.add_argument("--order", type=_count)
    sp.add_argument("--out")

    sp = sub.add_parser("multinorm", help="monomial conjugacy in N variables")
    germ_arg(sp)
    sp.add_argument("--degree", type=_count, default=12)
    sp.add_argument("--out")

    sp = sub.add_parser("growth", help="t-adic growth certificate")
    germ_arg(sp)
    sp.add_argument("--order", type=_count, default=64)
    sp.add_argument("--out")

    sp = sub.add_parser("jtable", help="fiber-index table as TSV")
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--m", type=_natural, default=0)
    sp.add_argument("--d", type=_count, help="defaults to the smallest degree "
                    "matching the r sequence")
    sp.add_argument("--r", type=_r_sequence, required=True,
                    help="comma-separated r sequence")
    sp.add_argument("--nmax", type=_natural, default=30)
    sp.add_argument("--out")
    return ap


_HANDLERS = {
    "invariants": cmd_invariants,
    "normalize": cmd_normalize,
    "bottcher": cmd_bottcher,
    "conjcheck": cmd_conjcheck,
    "compose": cmd_compose,
    "iterate": cmd_iterate,
    "infinity": cmd_infinity,
    "multinorm": cmd_multinorm,
    "growth": cmd_growth,
    "jtable": cmd_jtable,
}


# exit code of each error class, found along the raised class's MRO
EXIT_CODES = {CheckFailed: 2, GermError: 1}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except GermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__
                    if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
