"""Outside-in tracing: wrap the library's public entry points where they are
bound, record one span per call in memory, aggregate at the end.

Nothing in ``germ`` is edited.  A wrapped function is replaced in every
``germ.*`` module that binds it (its own module, re-exports and ``from x
import y`` copies), so internal calls and cross-module calls are both seen.
Methods are wrapped on their class.  ``Field.mul``/``Field.add`` are never
wrapped: they run about 10^7 times per growth run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (defining module, qualified name) of every wrapped entry point.
TARGETS = [
    ("fields", "field_create"),
    ("fields", "poly_roots"),
    ("fields", "Field.embed_map"),
    ("series", "Series.mul"),
    ("series", "Series.compose"),
    ("series", "Series.reciprocal"),
    ("series", "Series.pow_int"),
    ("series", "revert"),
    ("series", "binomial_pow"),
    ("series", "split_frobenius"),
    ("invariants", "profile"),
    ("invariants", "compose_germs"),
    ("invariants", "iterate_germ"),
    ("invariants", "germ_at_infinity"),
    ("invariants", "compose_bound"),
    ("invariants", "iterate_profile"),
    ("normalizer", "normal_form"),
    ("normalizer", "normalize_unit"),
    ("normalizer", "verify_conjugacy"),
    ("normalizer", "check_nf_conditions"),
    ("normalizer", "bottcher_product"),
    ("normalizer", "random_conjugate"),
    ("analytic", "conjugacy_to_truncation"),
    ("analytic", "certificate"),
    ("analytic", "check_growth"),
    ("analytic", "LaurentDomain.mul"),
    ("analytic", "LaurentDomain.inv"),
    ("multidim", "monomial_conjugacy"),
    ("multidim", "multi_unit_power"),
    ("multidim", "MultiSeries.mul"),
    ("multidim", "MultiSeries.compose"),
    ("jsonio", "load"),
    ("jsonio", "dump"),
    ("jsonio", "germ_from_dict"),
    ("jsonio", "germ_to_dict"),
    ("jsonio", "multigerm_from_dict"),
    ("jsonio", "series_to_dict"),
    ("cli", "main"),
]

# Bindings that get a span name of their own instead of the defining
# module's: the t-adic pipeline reuses the normal-form oracle, and its share
# is reported apart from the normal-form workloads' oracle time.
BINDING_NAMES = {("analytic", "verify_conjugacy"): "analytic.verify_conjugacy"}


def dense_terms(la, lb, t):
    """Pairs (i, j) with i < la, j < lb, i + j <= t: the coefficient
    products a dense truncated multiplication of those lengths implies."""
    hi = min(la - 1, t)
    if hi < 0 or lb <= 0:
        return 0
    full = min(hi, t + 1 - lb)       # rows i <= full contribute lb each
    total = (full + 1) * lb if full >= 0 else 0
    lo = max(full + 1, 0)
    if hi >= lo:                      # rows lo..hi contribute t + 1 - i
        n = hi - lo + 1
        total += n * (t + 1) - (lo + hi) * n // 2
    return total


def _count_mul_terms(counters, args, result):
    a, b = args[0], args[1]
    counters["series.Series.mul.terms"] += dense_terms(
        len(a.coeffs), len(b.coeffs), result.trunc)


def _count_normal_form(counters, args, result):
    _, wit = result
    counters["normalizer.choice_points"] += len(wit.choice_points)
    counters["fields.extension_hops"] += sum(
        1 for rec in wit.transcript if rec["kind"] == "extension")


COUNTERS = {
    "series.Series.mul": _count_mul_terms,
    "normalizer.normal_form": _count_normal_form,
}


class Tracer:
    """Span recorder.  Spans live in flat arrays (name id, parent index,
    item, start, end, outermost-of-its-name flag) until :meth:`summary`."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.counters = defaultdict(int)
        self.item = -1
        self._stack = []
        self._active = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        names, parents, items = self.name, self.parent, self.item_of
        starts, ends, outer = self.start, self.end, self.outer
        stack, active, clock = self._stack, self._active, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(tracer.item)
            outer.append(active[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                active[nid] -= 1
                stack.pop()
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return traced

    def install(self, callers=()):
        """Wrap every target in every germ module that binds it, and in the
        ``callers`` (the benchmark's own modules, which call in from
        outside)."""
        modules = {name[len("germ."):] or "germ": mod
                   for name, mod in list(sys.modules.items())
                   if (name == "germ" or name.startswith("germ."))
                   and mod is not None}
        modules.update((mod.__name__, mod) for mod in callers)
        for home, qual in TARGETS:
            label = f"{home}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(modules[home], cls_name)
                setattr(cls, meth, self.wrap(label, cls.__dict__[meth]))
                continue
            orig = getattr(modules[home], qual)
            wrappers = {}
            for short, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is not orig:
                        continue
                    span = BINDING_NAMES.get((short, attr), label)
                    if span not in wrappers:
                        wrappers[span] = self.wrap(span, orig)
                    setattr(mod, attr, wrappers[span])

    def summary(self):
        """{metric: value}: calls, total_s (outermost spans of a name only,
        so recursion is not counted twice) and self_s (span minus the time
        its direct child spans cover) per span name, plus the counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_s = [0.0] * n_names
        child = [0.0] * len(self.name)
        # children always have larger indices than their parent
        for i in range(len(self.name) - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            nid = self.name[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if self.outer[i]:
                total[nid] += dur
            par = self.parent[i]
            if par >= 0:
                child[par] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.total_s"] = total[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out.update(self.counters)
        return out

    def write_spans(self, path, t0):
        """One CSV line per span: name, item, parent index, start, end
        (seconds since ``t0``)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,item,parent,start,end\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]},{self.item_of[i]},"
                         f"{self.parent[i]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f}\n")
