"""Command-line front end: parse a script, run its commands, and emit
reports as text, JSON or DOT.

Exit codes: 0 ok, 1 parse error, 2 unsupported input class, 3 resource
budget exceeded. A script may contain several commands; with --format
json each command prints one JSON document per line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analyzer import (CONDITION_KEYS, SEMANTICS_UNVERIFIED, VERDICT_KEYS,
                       AnalysisConfig, analyze)
from .dsl import (
    AnalyzeCmd,
    ChainCmd,
    FamilyCmd,
    GenList,
    IdealStmt,
    Intersect,
    PosetCmd,
    ProfileCmd,
    Ref,
    RingStmt,
    parse_script,
)
from .errors import (
    BudgetExceededError,
    ChainInfeasibleError,
    DegenerateInputError,
    EmptyLocalizationError,
    FamilyParameterError,
    ParseError,
    UnitIdealError,
    UnsupportedInputError,
)
from .families import FamilySpec, instantiate
from .groebner import DEFAULT_REGULAR_CANDIDATE_BUDGET, IdealHandle
from .monomial import MonomialPrime
from .poly import DEFAULT_GB_STEP_BUDGET, RingPresentation, VariableContext
from .spectra import (
    DEFAULT_MAX_POSET_VARS,
    PrimeChain,
    build_poset,
    chain_dot,
    construct_chain,
    noncat_profile,
    poset_dot,
)

_TRISTATE = {True: "true", False: "false", None: "inconclusive"}


def _tristate_object(keys):
    """Schema of an object with exactly these keys, each boolean or null."""
    return {
        "type": "object",
        "additionalProperties": False,
        "required": list(keys),
        "properties": {k: {"type": ["boolean", "null"]} for k in keys},
    }

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "ring classification report",
    "type": "object",
    "additionalProperties": False,
    "required": ["ring", "dim", "semantics", "minimal_primes",
                 "associated_primes", "profile", "conditions", "verdicts",
                 "witnesses", "inconclusive", "notes"],
    "properties": {
        "ring": {"type": "string"},
        "dim": {"type": "integer"},
        "semantics": {"enum": ["monomial-exact", "unverified-completion"]},
        "minimal_primes": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["gens", "dim", "height"],
                "properties": {
                    "gens": {"type": "array", "items": {"type": "string"}},
                    "dim": {"type": "integer"},
                    "height": {"type": "integer"},
                },
            },
        },
        "associated_primes": {
            "type": ["array", "null"],
            "items": {"type": "array", "items": {"type": "string"}},
        },
        "profile": {"type": ["array", "null"],
                    "items": {"type": "integer"}},
        "conditions": _tristate_object(CONDITION_KEYS),
        "verdicts": _tristate_object(VERDICT_KEYS),
        "witnesses": {
            "type": "object",
            "additionalProperties": False,
            "required": ["P", "chain", "regular_element",
                         "ufd_witness_prime"],
            "properties": {
                "P": {"type": ["array", "null"],
                      "items": {"type": "string"}},
                "chain": {"type": ["array", "null"],
                          "items": {"type": "array",
                                    "items": {"type": "string"}}},
                "regular_element": {"type": ["string", "null"]},
                "ufd_witness_prime": {"type": ["array", "null"],
                                      "items": {"type": "string"}},
            },
        },
        "inconclusive": {"type": "array", "items": {"type": "string"}},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


def _kv_lines(label, pairs):
    chunks = [f"{k}={_TRISTATE[v]}" for k, v in pairs]
    lines = []
    row = []
    for chunk in chunks:
        row.append(chunk)
        if len(row) == 3:
            lines.append((label if not lines else "", "  ".join(row)))
            row = []
    if row:
        lines.append((label if not lines else "", "  ".join(row)))
    return lines


def report_text(report):
    """Human-readable table for an analysis report."""
    rows = [
        ("ring", report.ring),
        ("semantics", report.semantics),
        ("dim T", str(report.dim)),
    ]
    if report.profile is not None:
        rows.append(("profile", "{" + ", ".join(map(str, report.profile)) + "}"))
    if report.minimal_primes is not None:
        for i, p in enumerate(report.minimal_primes):
            label = "minimal primes" if i == 0 else ""
            rows.append((label,
                         f"({','.join(p.gens)})  dim {p.dim}  height {p.height}"))
    if report.associated_primes is not None:
        rows.append(("associated primes",
                     ", ".join(f"({','.join(names)})"
                               for names in report.associated_primes)))
    rows.extend(_kv_lines("conditions", report.conditions.items()))
    rows.extend(_kv_lines("verdicts", report.verdicts.items()))
    w = report.witnesses
    rows.append(("witness P", f"({','.join(w.P)})" if w.P else "-"))
    rows.append(("witness chain",
                 " < ".join(f"({','.join(n)})" for n in w.chain)
                 if w.chain else "-"))
    rows.append(("regular element", w.regular_element or "-"))
    rows.append(("ufd witness Q'",
                 f"({','.join(w.ufd_witness_prime)})"
                 if w.ufd_witness_prime else "-"))
    for i, item in enumerate(report.inconclusive):
        rows.append(("inconclusive" if i == 0 else "", item))
    for i, item in enumerate(report.notes):
        rows.append(("notes" if i == 0 else "", item))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


class _Runner:
    """Executes a parsed script statement by statement."""

    def __init__(self, config, fmt):
        self.config = config
        self.fmt = fmt
        self.field = None
        self.context = None
        self.handles = {}
        self.flagged_unsupported = False

    def run(self, script):
        for stmt in script.statements:
            if isinstance(stmt, RingStmt):
                self.field = stmt.field
                self.context = VariableContext(stmt.names)
            elif isinstance(stmt, IdealStmt):
                self.handles[stmt.name] = self.resolve(stmt.expr)
            elif isinstance(stmt, AnalyzeCmd):
                yield self.do_analyze(self.handles[stmt.ideal])
            elif isinstance(stmt, ProfileCmd):
                yield self.do_profile(self.handles[stmt.ideal])
            elif isinstance(stmt, PosetCmd):
                yield self.do_poset(self.handles[stmt.ideal])
            elif isinstance(stmt, ChainCmd):
                yield self.do_chain(self.handles[stmt.ideal], stmt.from_vars)
            elif isinstance(stmt, FamilyCmd):
                ring, _ = instantiate(FamilySpec(stmt.kind, stmt.params))
                handle = IdealHandle.from_presentation(
                    ring, self.config.gb_step_budget)
                yield self.do_analyze(handle)
            else:
                raise TypeError(f"not a statement: {stmt!r}")

    def resolve(self, expr):
        if isinstance(expr, GenList):
            f = expr.polys[0].field
            ctx = expr.polys[0].context
            return IdealHandle(f, ctx, expr.polys, self.config.gb_step_budget)
        if isinstance(expr, Intersect):
            return self.resolve(expr.left).intersection(self.resolve(expr.right))
        if isinstance(expr, Ref):
            return self.handles[expr.name]
        raise TypeError(f"not an ideal expression: {expr!r}")

    def monomial_of(self, handle, what):
        mono = handle.monomial_ideal()
        if mono is None:
            raise UnsupportedInputError(
                f"{what} requires a monomial ideal; the reduced basis is "
                "not made of single terms")
        return mono

    def do_analyze(self, handle):
        ring = RingPresentation(handle.field, handle.context, handle.generators)
        report = analyze(ring, self.config)
        if report.semantics == SEMANTICS_UNVERIFIED:
            self.flagged_unsupported = True
        if self.fmt == "json":
            return json.dumps(report.to_json_dict(), sort_keys=False)
        if self.fmt == "dot":
            mono = self.monomial_of(handle, "the dot rendering")
            poset = build_poset(mono, self.config.max_poset_vars)
            chains = []
            if report.verdicts["noncat_domain"]:
                names = report.witnesses.chain
                chains.append(self._chain_from_names(poset, names))
            return poset_dot(poset, chains)
        return report_text(report)

    def _chain_from_names(self, poset, name_lists):
        primes = tuple(MonomialPrime.of(poset.context, *names)
                       for names in name_lists)
        return PrimeChain(poset.context, primes, poset.height(primes[0]))

    def do_profile(self, handle):
        mono = self.monomial_of(handle, "the noncatenarity profile")
        profile = noncat_profile(mono)
        if self.fmt == "json":
            return json.dumps({
                "ring": str(RingPresentation(handle.field, handle.context,
                                             handle.generators)),
                "dim": max(profile),
                "profile": list(profile),
            })
        if self.fmt == "dot":
            raise UnsupportedInputError(
                "the profile command has no dot rendering")
        return "profile {" + ", ".join(map(str, profile)) + "}"

    def do_poset(self, handle):
        mono = self.monomial_of(handle, "the spectrum poset")
        poset = build_poset(mono, self.config.max_poset_vars)
        if self.fmt == "dot":
            return poset_dot(poset)
        nodes = poset.nodes()
        if self.fmt == "json":
            payload = {
                "nodes": [{
                    "gens": list(p.names(poset.context)),
                    "dim": poset.dim_of(p),
                    "height": poset.height(p),
                    "minimal": p in poset.min_primes,
                    "associated": p in poset.ass_primes,
                } for p in nodes],
                "edges": [
                    [list(p.names(poset.context)), list(q.names(poset.context))]
                    for p in nodes for q in poset.upper_covers(p)
                    if poset.is_node(q)
                ],
            }
            return json.dumps(payload)
        lines = []
        for p in nodes:
            marks = []
            if p in poset.min_primes:
                marks.append("min")
            if p in poset.ass_primes:
                marks.append("ass")
            if p == poset.top:
                marks.append("max")
            suffix = f"  [{','.join(marks)}]" if marks else ""
            lines.append(f"{p.render(poset.context)}  dim {poset.dim_of(p)}  "
                         f"height {poset.height(p)}{suffix}")
        return "\n".join(lines)

    def do_chain(self, handle, from_vars):
        mono = self.monomial_of(handle, "chain construction")
        poset = build_poset(mono, self.config.max_poset_vars)
        start = MonomialPrime.of(handle.context, *from_vars)
        chain = construct_chain(poset, start)
        if self.fmt == "dot":
            return chain_dot(poset, [chain])
        if self.fmt == "json":
            return json.dumps({
                "chain": [list(p.names(poset.context)) for p in chain.primes],
                "length": chain.length,
                "start_height": chain.start_height,
                "dims": list(chain.dims),
            })
        return f"{chain.render()}  (length {chain.length})"


def run_script(script, config, fmt):
    """Yield one output string per command in the script."""
    runner = _Runner(config, fmt)
    yield from runner.run(script)


def _build_argparser():
    parser = argparse.ArgumentParser(
        prog="noncat",
        description="Classify complete local rings K[[x1..xv]]/I: which "
                    "local domains and UFDs complete to them, with witness "
                    "chains and depth certificates.")
    parser.add_argument("script", nargs="?", default="-",
                        help="script file, or - for stdin (default)")
    parser.add_argument("--format", choices=["text", "json", "dot"],
                        default="text", help="output format")
    parser.add_argument("--budget-gb-steps", type=int,
                        default=DEFAULT_GB_STEP_BUDGET,
                        metavar="N", help="reduction steps per Groebner run")
    parser.add_argument("--budget-regular-candidates", type=int,
                        default=DEFAULT_REGULAR_CANDIDATE_BUDGET,
                        metavar="N", help="candidates per regular-element search")
    parser.add_argument("--max-poset-vars", type=int,
                        default=DEFAULT_MAX_POSET_VARS, metavar="N",
                        help="largest variable count for the poset command "
                             "and DOT renderings of the whole poset")
    return parser


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    config = AnalysisConfig(
        gb_step_budget=args.budget_gb_steps,
        regular_candidate_budget=args.budget_regular_candidates,
        max_poset_vars=args.max_poset_vars)
    if args.script == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"cannot read script: {exc}", file=sys.stderr)
            return 1
    try:
        script = parse_script(text)
    except ParseError as exc:
        print(f"parse error ({exc.code}): {exc}", file=sys.stderr)
        if exc.expected:
            print("expected: " + ", ".join(sorted(exc.expected)),
                  file=sys.stderr)
        return 1
    runner = _Runner(config, args.format)
    try:
        for output in runner.run(script):
            print(output)
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedInputError, UnitIdealError, DegenerateInputError,
            EmptyLocalizationError, ChainInfeasibleError,
            FamilyParameterError) as exc:
        print(f"unsupported input class: {exc}", file=sys.stderr)
        return 2
    return 2 if runner.flagged_unsupported else 0


if __name__ == "__main__":
    sys.exit(main())
