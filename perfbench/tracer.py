"""Outside-in tracer for the traced benchmark run.

It wraps the package's layer callables from outside, without editing the
package: a module function is replaced at every binding of the original
object, in every `noncat.*` module and in the package namespace, so that
copies made by `from .x import y` are caught too; a method is replaced in
its class dictionary under every name bound to it (`__rmul__` is
`__mul__`). Each call records a span: name, start, end, parent span and
command id. Spans stay in memory in flat arrays and are written out when
the run ends; self times and ratios are derived from them afterwards.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

SETUP = -1  # command id of spans opened while setting up
PROBE = -2  # command id of the known-defect probe, left out of the metrics

# metric prefix -> (module, attribute path)
TARGETS = {
    "poly.Polynomial": ("poly", "Polynomial.__init__"),
    "poly.mul": ("poly", "Polynomial.__mul__"),
    "poly.divide": ("poly", "divide"),
    "groebner.buchberger": ("groebner", "buchberger"),
    "groebner.s_polynomial": ("groebner", "s_polynomial"),
    "groebner.groebner_basis": ("groebner", "IdealHandle.groebner_basis"),
    "groebner.intersection": ("groebner", "IdealHandle.intersection"),
    "groebner.quotient_element": ("groebner", "IdealHandle.quotient_element"),
    "groebner.maximal_ideal_associated":
        ("groebner", "IdealHandle.maximal_ideal_associated"),
    "groebner.depth_at_least_two":
        ("groebner", "IdealHandle.depth_at_least_two"),
    "groebner.krull_dimension": ("groebner", "IdealHandle.krull_dimension"),
    "monomial.minimal_primes": ("monomial", "MonomialIdeal.minimal_primes"),
    "monomial.irreducible_components":
        ("monomial", "MonomialIdeal.irreducible_components"),
    "monomial.primary_components":
        ("monomial", "MonomialIdeal.primary_components"),
    "monomial.localize": ("monomial", "MonomialIdeal.localize"),
    "spectra.build_poset": ("spectra", "build_poset"),
    "spectra.construct_chain": ("spectra", "construct_chain"),
    "spectra.verify_chain": ("spectra", "verify_chain"),
    "spectra.poset_dot": ("spectra", "poset_dot"),
    "spectra.chain_dot": ("spectra", "chain_dot"),
    "analyzer.analyze": ("analyzer", "analyze"),
    "dsl.parse_script": ("dsl", "parse_script"),
    "families.instantiate": ("families", "instantiate"),
}

COMMAND_SPANS = ("cli.command", "lib.command")

# Metrics that report inclusive time, counted once per outermost span.
TOTAL_TIMED = {"groebner.maximal_ideal_associated",
               "groebner.depth_at_least_two", "groebner.krull_dimension"}


def _divide_useful(args, kwargs, result):
    return (0 if result[1].is_zero else 1), 0


def _buchberger_work(args, kwargs, result):
    budget = args[2] if len(args) > 2 else kwargs.get("budget")
    return (0 if budget is None else budget.used), len(result)


def _component_count(args, kwargs, result):
    return len(result), 0


# Per-span counters (a, b) read from the call's arguments and result.
PROBES = {
    "poly.divide": _divide_useful,
    "groebner.buchberger": _buchberger_work,
    "monomial.irreducible_components": _component_count,
}


class Tracer:
    """Span recorder; `install` wraps the targets for the rest of the
    process."""

    def __init__(self):
        self.names = list(TARGETS) + list(COMMAND_SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.parent = array("l")
        self.command = array("l")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.failures = []  # (innermost span id, exception type name)
        self._state = [-1, SETUP]  # open span, current command id
        self._failing = None

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "noncat"
                                         or name.startswith("noncat."))]
        for metric, (module, path) in TARGETS.items():
            owner = sys.modules[f"noncat.{module}"]
            *cls_path, attr = path.split(".")
            if cls_path:
                cls = getattr(owner, cls_path[0])
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, metric)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapper)
            else:
                original = getattr(owner, attr)
                wrapper = self._wrap(original, metric)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)

    def _wrap(self, fn, metric):
        nid = self.name_id[metric]
        probe = PROBES.get(metric)
        span_name, parent, command = self.span_name, self.parent, self.command
        start, end, va, vb = self.start, self.end, self.a, self.b
        state = self._state
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(span_name)
            outer = state[0]
            span_name.append(nid)
            parent.append(outer)
            command.append(state[1])
            start.append(0.0)
            end.append(0.0)
            va.append(0)
            vb.append(0)
            state[0] = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[sid] = clock()
                start[sid] = t0
                state[0] = outer
                if exc is not self._failing:
                    self._failing = exc
                    self.failures.append((sid, type(exc).__name__))
                raise
            end[sid] = clock()
            start[sid] = t0
            state[0] = outer
            if probe is not None:
                va[sid], vb[sid] = probe(args, kwargs, result)
            return result

        return traced

    def run_command(self, name, command_id, fn):
        """Call fn() in a span the benchmark opens itself, around one
        command; every span inside it carries `command_id`."""
        saved = self._state[1]
        self._state[1] = command_id
        try:
            return self._wrap(fn, name)()
        finally:
            self._state[1] = saved

    def write(self, path):
        """All spans as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tcommand\tname\tstart_s\tend_s\ta\tb\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.command[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.a[i]}\t{self.b[i]}\n")


def layer_metrics(t):
    """Per-layer metrics from the recorded spans, the probe's excluded.

    Returns {metric: value} and the bases of the two ratios."""
    n = len(t.span_name)
    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = t.parent[i]
        if p >= 0:
            child[p] += dur[i]
    names = t.names
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    total_s = dict.fromkeys(names, 0.0)
    a_sum = dict.fromkeys(names, 0)
    b_sum = dict.fromkeys(names, 0)
    buch_id = t.name_id["groebner.buchberger"]
    gb_id = t.name_id["groebner.groebner_basis"]
    useful = gb_misses = 0
    for i in range(n):
        if t.command[i] == PROBE:
            continue
        nid = t.span_name[i]
        name = names[nid]
        calls[name] += 1
        self_s[name] += dur[i] - child[i]
        a_sum[name] += t.a[i]
        b_sum[name] += t.b[i]
        if name in TOTAL_TIMED:
            p = t.parent[i]
            while p >= 0 and t.span_name[p] != nid:
                p = t.parent[p]
            if p < 0:
                total_s[name] += dur[i]
        p = t.parent[i]
        if name == "poly.divide" and p >= 0 and t.span_name[p] == buch_id:
            useful += t.a[i]
        if nid == buch_id and p >= 0 and t.span_name[p] == gb_id:
            gb_misses += 1

    spairs = calls["groebner.s_polynomial"]
    gb_calls = calls["groebner.groebner_basis"]
    out = {}
    for prefix in ("poly.Polynomial", "poly.divide", "poly.mul",
                   "groebner.buchberger"):
        out[f"{prefix}.calls"] = calls[prefix]
        out[f"{prefix}.self_s"] = self_s[prefix]
    out["groebner.buchberger.reduction_steps"] = a_sum["groebner.buchberger"]
    out["groebner.buchberger.basis_len"] = b_sum["groebner.buchberger"]
    out["groebner.s_polynomial.calls"] = spairs
    out["groebner.spair_useful_ratio"] = useful / spairs if spairs else 0.0
    out["groebner.groebner_basis.calls"] = gb_calls
    out["groebner.gb_cache_hit_ratio"] = (1 - gb_misses / gb_calls
                                          if gb_calls else 0.0)
    out["groebner.intersection.calls"] = calls["groebner.intersection"]
    out["groebner.intersection.self_s"] = self_s["groebner.intersection"]
    out["groebner.quotient_element.calls"] = calls["groebner.quotient_element"]
    for prefix in ("groebner.maximal_ideal_associated",
                   "groebner.depth_at_least_two"):
        out[f"{prefix}.calls"] = calls[prefix]
        out[f"{prefix}.total_s"] = total_s[prefix]
    out["groebner.krull_dimension.total_s"] = total_s["groebner.krull_dimension"]
    for prefix in ("monomial.minimal_primes", "monomial.irreducible_components",
                   "monomial.primary_components"):
        out[f"{prefix}.calls"] = calls[prefix]
        out[f"{prefix}.self_s"] = self_s[prefix]
    out["monomial.irreducible_components.components"] = \
        a_sum["monomial.irreducible_components"]
    out["monomial.localize.calls"] = calls["monomial.localize"]
    for prefix in ("spectra.build_poset", "spectra.construct_chain"):
        out[f"{prefix}.calls"] = calls[prefix]
        out[f"{prefix}.self_s"] = self_s[prefix]
    for prefix in ("spectra.verify_chain", "spectra.poset_dot",
                   "spectra.chain_dot"):
        out[f"{prefix}.self_s"] = self_s[prefix]
    for prefix in ("analyzer.analyze", "dsl.parse_script",
                   "families.instantiate"):
        out[f"{prefix}.calls"] = calls[prefix]
        out[f"{prefix}.self_s"] = self_s[prefix]
    out["cli.command.self_s"] = self_s["cli.command"]
    bases = {
        "groebner.spair_useful_ratio":
            f"{useful} nonzero remainders under buchberger / {spairs} S-pairs",
        "groebner.gb_cache_hit_ratio":
            f"1 - {gb_misses} buchberger runs under groebner_basis / "
            f"{gb_calls} groebner_basis calls",
    }
    return out, bases, self_s
