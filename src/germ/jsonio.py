"""JSON (de)serialization for the on-disk formats used by the CLI.

Field elements travel as coefficient vectors in the polynomial basis of the
declared modulus; series as {"trunc": T, "coeffs": [...]}; germ files carry
the field descriptor alongside.  All writers emit a schema tag.
"""

from __future__ import annotations

import json

from .analytic import LaurentDomain
from .errors import GermError, ParseError
from .fields import Field, field_create
from .multidim import MultiGerm, MultiSeries
from .series import Germ1D, Series

SCHEMA = "germ/1"


field_to_dict = Field.to_dict


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x):
    return isinstance(x, list) and all(map(_is_int, x))


def _check(ok, what):
    if not ok:
        raise ParseError(what)


def field_from_dict(d):
    _check(isinstance(d, dict), "field descriptor must be a JSON object")
    try:
        p, k = d["p"], d["k"]
    except KeyError as exc:
        raise ParseError(f"field descriptor missing {exc}") from exc
    modulus = d.get("modulus")
    # p**k <= 2**64 bounds k by 64; checking first keeps a huge k from
    # being raised to a power
    _check(_is_int(p) and _is_int(k) and 1 <= k <= 64
           and (modulus is None or _int_list(modulus)),
           "field descriptor needs integers p and 1 <= k <= 64 and a "
           "modulus list of integers")
    return field_create(p, k, modulus)


def _element(field, v):
    """A field element's code from its coefficient vector in the modulus
    basis."""
    _check(_int_list(v) and len(v) <= field.k,
           f"field element {v!r} is not a list of at most {field.k} "
           f"integers")
    return field.from_vec(v)


def poly_from_dict(d):
    """A polynomial's coefficients, low degree first, as field elements."""
    field = field_from_dict(d.get("field", {}))
    coeffs = d.get("coeffs", [])
    _check(isinstance(coeffs, list), "polynomial coeffs must be a list")
    return [field.wrap(_element(field, v)) for v in coeffs]


def series_to_dict(field, s):
    return {"trunc": s.trunc,
            "coeffs": [list(field.to_vec(c)) for c in s.coeffs]}


def _series_body(d):
    """The raw coefficient list and truncation of a series payload."""
    _check(isinstance(d, dict) and isinstance(d.get("coeffs"), list)
           and _is_int(d.get("trunc")) and d["trunc"] >= 0,
           "series needs a coeffs list and an integer trunc >= 0")
    return d["coeffs"], d["trunc"]


def series_from_dict(field, d):
    coeffs, trunc = _series_body(d)
    return Series(field, [_element(field, v) for v in coeffs], trunc)


def germ_to_dict(f: Germ1D):
    field = f.dom
    return {"schema": SCHEMA, "p": field.p, "field": field_to_dict(field),
            "series": series_to_dict(field, f.series)}


def germ_from_dict(d):
    field = field_from_dict(d.get("field", {}))
    return Germ1D(field, series_from_dict(field, d.get("series", {})))


def scalar_from_dict(dom, d):
    _check(isinstance(d, dict), "Laurent coefficient must be a JSON object")
    val, unit, prec = d.get("val"), d.get("unit"), d.get("prec")
    if val is None:
        return dom.zero
    _check(_is_int(val) and isinstance(unit, list)
           and (prec is None or _is_int(prec) and prec >= 0),
           "Laurent coefficient needs an integer val, a unit list and an "
           "integer prec >= 0 or null")
    return dom.make(val, [_element(dom.base, v) for v in unit], prec)


def laurent_germ_from_dict(d):
    base = field_from_dict(d.get("field", {}))
    prec = d.get("prec", 32)
    _check(_is_int(prec) and prec >= 1, "prec must be an integer >= 1")
    dom = LaurentDomain(base, prec)
    coeffs, trunc = _series_body(d.get("series", {}))
    s = Series(dom, [scalar_from_dict(dom, c) for c in coeffs], trunc)
    return Germ1D(dom, s)


def multiseries_to_dict(field, s: MultiSeries):
    """{"e1,...,eN": coefficient vector} over the nonzero terms of s."""
    return {",".join(map(str, e)): list(field.to_vec(c))
            for e, c in sorted(s.terms.items())}


def multigerm_to_dict(f: MultiGerm):
    field = f.dom
    return {"schema": SCHEMA, "N": f.nvars, "field": field_to_dict(field),
            "C": [list(field.to_vec(c)) for c in f.cvec],
            "D": [list(row) for row in f.dmat], "trunc": f.trunc,
            "eps": [multiseries_to_dict(field, s) for s in f.eps]}


def multigerm_from_dict(d):
    field = field_from_dict(d.get("field", {}))
    try:
        n, trunc = d["N"], d.get("trunc", 12)
        _check(_is_int(n) and n >= 1 and _is_int(trunc) and trunc >= 0,
               "multigerm needs integers N >= 1 and trunc >= 0")
        cvec = tuple(_element(field, v) for v in d["C"])
        dmat = d["D"]
        _check(len(cvec) == n and isinstance(dmat, list) and len(dmat) == n
               and all(_int_list(row) and len(row) == n and min(row) >= 0
                       for row in dmat) and len(d["eps"]) == n,
               "multigerm needs N leading constants, an N x N matrix D of "
               "integers >= 0 and N eps series")
        dmat = tuple(map(tuple, dmat))
        eps = []
        for body in d["eps"]:
            _check(isinstance(body, dict), "eps entry must be a JSON object")
            terms = {}
            for key, vec in body.items():
                e = tuple(int(t) for t in key.split(","))
                if len(e) != n:
                    raise ParseError(f"exponent {key} has wrong arity")
                terms[e] = _element(field, vec)
            eps.append(MultiSeries(field, n, trunc, terms))
    except GermError:
        raise   # the library's own error, raised where the input was read
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad multigerm payload: {exc}") from exc
    return MultiGerm(field, cvec, dmat, tuple(eps), trunc)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    _check(isinstance(obj, dict), f"{path}: top level must be a JSON object")
    return obj


def dump(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"
