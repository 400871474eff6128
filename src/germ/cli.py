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


def _document(command, payload):
    """A command's JSON output: its payload under the schema and command
    keys."""
    return jsonio.dump({"schema": jsonio.SCHEMA, "command": command,
                        **payload})


def _germ(path):
    return jsonio.germ_from_dict(jsonio.load(path))


def cmd_invariants(args):
    f = _germ(args.germ)
    prof = profile(f)
    out = {"profile": prof.to_dict()}
    if prof.e >= 1:
        thr = stable_threshold(prof)
        out["stable_threshold"] = [thr.numerator, thr.denominator]
    return out, 0


def cmd_normalize(args):
    f = _germ(args.germ)
    nf, wit = normal_form(f, choice=args.choice, trunc=args.order,
                          allow_extension=args.allow_extension)
    dom = nf.dom
    out = {
        "seed": args.seed, "choice": args.choice,
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
    return out, 0


def cmd_bottcher(args):
    f = _germ(args.germ)
    wit = bottcher_product(f, trunc=args.order)
    return {"verified_order": wit.verified_order,
            "phi": jsonio.series_to_dict(f.dom, wit.phi)}, 0


def cmd_conjcheck(args):
    f, g = _germ(args.f), _germ(args.g)
    body = jsonio.load(args.phi)
    field = jsonio.field_from_dict(body.get("field", {}))
    phi = jsonio.series_from_dict(field, body.get("series", {}))
    report = verify_conjugacy(f, g, phi, args.order)
    return {"ok": report.ok, "checked_order": report.checked_order,
            "first_disagreement": report.first_disagreement}, \
        0 if report.ok else 2


def cmd_compose(args):
    f1, f2 = _germ(args.f), _germ(args.g)
    comp = compose_germs(f1, f2, trunc=args.order)
    bound = compose_bound(profile(f1), profile(f2))
    out = {"predicted": bound.to_dict(),
           "composition": jsonio.germ_to_dict(comp)}
    try:
        out["profile"] = profile(comp).to_dict()
    except GermError as exc:
        out["profile_error"] = str(exc)
    return out, 0


def cmd_iterate(args):
    f = _germ(args.germ)
    prof = profile(f)
    frag = iterate_profile(prof, args.n)
    out = {"n": args.n, "predicted": frag.to_dict()}
    if args.check:
        fn = iterate_germ(f, args.n, trunc=args.order or f.trunc)
        actual = profile(fn)
        out["actual"] = actual.to_dict()
        ok = (actual.m == frag.m and actual.d == frag.d
              and actual.e == frag.e and actual.r[0] == frag.r0)
        out["match"] = ok
    return out, 0 if out.get("match", True) else 2


def cmd_infinity(args):
    coeffs = jsonio.poly_from_dict(jsonio.load(args.poly))
    f = germ_at_infinity(coeffs, trunc=args.order)
    return {"germ": jsonio.germ_to_dict(f),
            "profile": profile(f).to_dict()}, 0


def cmd_multinorm(args):
    f = jsonio.multigerm_from_dict(jsonio.load(args.germ))
    phi, verified = monomial_conjugacy(f, trunc=args.degree)
    return {"verified_degree": verified,
            "phi": [jsonio.multiseries_to_dict(f.dom, s) for s in phi]}, 0


def cmd_growth(args):
    """The certificate as JSON on stdout; the payload is the TSV of the
    witness's valuations against the bound."""
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
    sys.stdout.write(_document(args.command, {
        "truncation_target": truncation_target(prof),
        "certificate": cert.to_dict(), "report": rep.to_dict()}))
    return "\n".join(lines) + "\n", 0 if rep.ok else 2


def cmd_jtable(args):
    r = args.r
    e = len(r) - 1
    d = args.d
    if d is None:
        d = args.p ** e
        if d * args.p ** args.m < 2:
            d *= 2 if args.p > 2 else 3
    return JTable.build(InvariantProfile(args.p, args.m, d, e, r),
                        args.nmax).to_tsv(), 0


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


def _arg(*flags, **options):
    return flags, options


_GERM = _arg("germ", help="germ JSON file")
_ORDER = _arg("--order", type=_count, default=64)
_OPTIONAL_ORDER = _arg("--order", type=_count)

# name: (handler, help, arguments); every command also takes --out.  A
# handler returns (payload, exit code), and ``main`` writes the payload to
# --out or stdout: a dict as the command's JSON document, a str as it is.
COMMANDS = {
    "invariants": (cmd_invariants, "compute (m, d, e, r)", [_GERM]),
    "normalize": (cmd_normalize, "normal form and witness", [
        _GERM,
        _arg("--choice", default="ndoubleprime",
             choices=["nprime", "ndoubleprime"]),
        _ORDER,
        _arg("--seed", type=int, default=0),
        _arg("--allow-extension", dest="allow_extension",
             action="store_true", default=True),
        _arg("--no-extension", dest="allow_extension", action="store_false"),
        _arg("--transcript")]),
    "bottcher": (cmd_bottcher, "coprime-degree product witness",
                 [_GERM, _ORDER]),
    "conjcheck": (cmd_conjcheck, "verify a conjugacy by composition",
                  [_arg("f"), _arg("g"), _arg("phi"), _ORDER]),
    "compose": (cmd_compose, "compose two germs, check the bound",
                [_arg("f"), _arg("g"), _OPTIONAL_ORDER]),
    "iterate": (cmd_iterate, "iterate invariants", [
        _GERM, _arg("--n", type=_count, required=True),
        _arg("--check", action="store_true"), _OPTIONAL_ORDER]),
    "infinity": (cmd_infinity, "germ at infinity of a polynomial",
                 [_arg("poly"), _OPTIONAL_ORDER]),
    "multinorm": (cmd_multinorm, "monomial conjugacy in N variables",
                  [_GERM, _arg("--degree", type=_count, default=12)]),
    "growth": (cmd_growth, "t-adic growth certificate", [_GERM, _ORDER]),
    "jtable": (cmd_jtable, "fiber-index table as TSV", [
        _arg("--p", type=_prime, required=True),
        _arg("--m", type=_natural, default=0),
        _arg("--d", type=_count,
             help="defaults to the smallest degree matching the r sequence"),
        _arg("--r", type=_r_sequence, required=True,
             help="comma-separated r sequence"),
        _arg("--nmax", type=_natural, default=30)]),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process from :data:`COMMANDS`:
    parsing leaves it as it was, and each call gets a fresh namespace."""
    ap = _Parser(
        prog="germ",
        description="classify superattracting germs in characteristic p")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, text, arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
        sp.add_argument("--out")
    return ap


# exit code of each error class, found along the raised class's MRO
EXIT_CODES = {CheckFailed: 2, GermError: 1}


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        payload, code = COMMANDS[args.command][0](args)
    except GermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[c] for c in type(exc).__mro__
                    if c in EXIT_CODES)
    if isinstance(payload, dict):
        payload = _document(args.command, payload)
    if args.out in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
