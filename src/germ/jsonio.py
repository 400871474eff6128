"""JSON (de)serialization for the on-disk formats used by the CLI.

Field elements travel as coefficient vectors in the polynomial basis of the
declared modulus; series as {"trunc": T, "coeffs": [...]}; germ files carry
the field descriptor alongside.  All writers emit a schema tag.
"""

from __future__ import annotations

import json

from .analytic import LaurentDomain, LaurentScalar
from .errors import ParseError, ValidationError
from .fields import field_create
from .multidim import MultiGerm, MultiSeries
from .series import Germ1D, Series

SCHEMA = "germ/1"


def field_to_dict(field):
    return {"p": field.p, "k": field.k, "modulus": list(field.modulus)}


def field_from_dict(d):
    try:
        return field_create(d["p"], d["k"], d.get("modulus"))
    except KeyError as exc:
        raise ParseError(f"field descriptor missing {exc}") from exc


def series_to_dict(field, s):
    return {"trunc": s.trunc,
            "coeffs": [list(field.to_vec(c)) for c in s.coeffs]}


def series_from_dict(field, d):
    try:
        coeffs = [field.from_vec(v) for v in d["coeffs"]]
        return Series(field, coeffs, d["trunc"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad series payload: {exc}") from exc


def germ_to_dict(f: Germ1D):
    field = f.dom
    return {"schema": SCHEMA, "p": field.p, "field": field_to_dict(field),
            "series": series_to_dict(field, f.series)}


def germ_from_dict(d):
    field = field_from_dict(d.get("field", {}))
    s = series_from_dict(field, d.get("series", {}))
    try:
        return Germ1D(field, s)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def scalar_to_dict(dom, x: LaurentScalar):
    if dom.is_zero(x):
        return {"val": None, "unit": [], "prec": None}
    return {"val": x.val, "unit": [list(dom.base.to_vec(c)) for c in x.unit],
            "prec": x.prec}


def scalar_from_dict(dom, d):
    if d.get("val") is None:
        return dom.zero
    unit = [dom.base.from_vec(v) for v in d["unit"]]
    return dom.make(d["val"], unit, d.get("prec"))


def laurent_germ_to_dict(f: Germ1D):
    dom = f.dom
    return {"schema": SCHEMA, "p": dom.p, "prec": dom.prec,
            "field": field_to_dict(dom.base),
            "series": {"trunc": f.series.trunc,
                       "coeffs": [scalar_to_dict(dom, c)
                                  for c in f.series.coeffs]}}


def laurent_germ_from_dict(d):
    base = field_from_dict(d.get("field", {}))
    dom = LaurentDomain(base, d.get("prec", 32))
    body = d.get("series", {})
    try:
        coeffs = [scalar_from_dict(dom, c) for c in body["coeffs"]]
        s = Series(dom, coeffs, body["trunc"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad laurent series payload: {exc}") from exc
    try:
        return Germ1D(dom, s)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def multigerm_to_dict(f: MultiGerm):
    field = f.dom
    eps = []
    for s in f.eps:
        eps.append({",".join(map(str, e)): list(field.to_vec(c))
                    for e, c in sorted(s.terms.items())})
    return {"schema": SCHEMA, "N": f.nvars, "field": field_to_dict(field),
            "C": [list(field.to_vec(c)) for c in f.cvec],
            "D": [list(row) for row in f.dmat],
            "trunc": f.trunc, "eps": eps}


def multigerm_from_dict(d):
    field = field_from_dict(d.get("field", {}))
    try:
        n = d["N"]
        trunc = d.get("trunc", 12)
        cvec = tuple(field.from_vec(v) for v in d["C"])
        dmat = tuple(tuple(row) for row in d["D"])
        eps = []
        for body in d["eps"]:
            terms = {}
            for key, vec in body.items():
                e = tuple(int(t) for t in key.split(","))
                if len(e) != n:
                    raise ParseError(f"exponent {key} has wrong arity")
                terms[e] = field.from_vec(vec)
            eps.append(MultiSeries(field, n, trunc, terms))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad multigerm payload: {exc}") from exc
    return MultiGerm(field, cvec, dmat, tuple(eps), trunc)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def dump(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
