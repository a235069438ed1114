"""Command-line front end: parse a script, run its commands, and emit
reports as text, JSON or DOT. A reported value is exact for
T = K[[x]]/I or null with a reason; the unverified-completion stamp
means some fact is null (the characteristic-p remark excepted).

Exit codes: 0 ok, 1 parse error, unreadable script or closed output, 2
unsupported input class (no report, or a report stamped
unverified-completion), 3 resource budget exceeded. A script may contain
several commands; with --format json each command prints one JSON
document per line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analyzer import (CONDITION_KEYS, SEMANTICS_EXACT, SEMANTICS_UNVERIFIED,
                       VERDICT_KEYS, AnalysisConfig, _Analysis)
from .dsl import (
    Command,
    GenList,
    IdealStmt,
    Intersect,
    Ref,
    RingStmt,
    parse_script,
)
from .errors import (
    BudgetExceededError,
    ChainInfeasibleError,
    DegenerateInputError,
    EmptyLocalizationError,
    ParseError,
    UnitIdealError,
    UnsupportedInputError,
)
from .families import FamilySpec, instantiate
from .groebner import DEFAULT_REGULAR_CANDIDATE_BUDGET, IdealHandle
from .monomial import MonomialPrime
from .poly import DEFAULT_GB_STEP_BUDGET
from .spectra import chain_dot, poset_dot, poset_json, poset_text

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
        "dim": {"type": ["integer", "null"]},
        "semantics": {"enum": [SEMANTICS_EXACT, SEMANTICS_UNVERIFIED]},
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
    """Rows of three key=value chunks, the label on the first."""
    chunks = [f"{k}={_TRISTATE[v]}" for k, v in pairs]
    return [(label if i == 0 else "", "  ".join(chunks[i:i + 3]))
            for i in range(0, len(chunks), 3)]


def report_text(report):
    """Human-readable table for an analysis report."""
    rows = [
        ("ring", report.ring),
        ("semantics", report.semantics),
        ("dim T", "inconclusive" if report.dim is None else str(report.dim)),
    ]
    if report.profile is not None:
        rows.append(("profile", "{" + ", ".join(map(str, report.profile)) + "}"))
    if report.minimal_primes is not None:
        for i, p in enumerate(report.minimal_primes):
            label = "minimal primes" if i == 0 else ""
            rows.append((label,
                         f"{MonomialPrime.label(p.gens)}  dim {p.dim}  "
                         f"height {p.height}"))
    if report.associated_primes is not None:
        rows.append(("associated primes",
                     ", ".join(map(MonomialPrime.label,
                                   report.associated_primes))))
    rows.extend(_kv_lines("conditions", report.conditions.items()))
    rows.extend(_kv_lines("verdicts", report.verdicts.items()))
    w = report.witnesses
    rows.append(("witness P",
                 MonomialPrime.label(w.P) if w.P is not None else "-"))
    rows.append(("witness chain",
                 " < ".join(map(MonomialPrime.label, w.chain))
                 if w.chain else "-"))
    rows.append(("regular element", w.regular_element or "-"))
    rows.append(("ufd witness Q'",
                 MonomialPrime.label(w.ufd_witness_prime)
                 if w.ufd_witness_prime is not None else "-"))
    for i, item in enumerate(report.inconclusive):
        rows.append(("inconclusive" if i == 0 else "", item))
    for i, item in enumerate(report.notes):
        rows.append(("notes" if i == 0 else "", item))
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


class _Runner:
    """Executes a parsed script, a tuple of statements, one by one; a
    Command goes to the do_ method of its verb. Each presented ring
    (field, context and generator tuple) gets one _Analysis at its first
    command, and every command on it reads that, whether it names an
    ideal or instantiates a family."""

    def __init__(self, config, fmt):
        self.config = config
        self.fmt = fmt
        self.handles = {}
        self.analyses = {}
        self.flagged_unsupported = False

    def run(self, script):
        by_verb = {"analyze": self.do_analyze, "profile": self.do_profile,
                   "poset": self.do_poset, "chain": self.do_chain}
        for stmt in script:
            if isinstance(stmt, RingStmt):
                continue  # the parser has built every polynomial in its ring
            if isinstance(stmt, IdealStmt):
                self.handles[stmt.name] = self.resolve(stmt.expr)
            elif isinstance(stmt, Command):
                yield by_verb[stmt.verb](self.analysis(stmt.ideal),
                                         *stmt.start)
            elif isinstance(stmt, FamilySpec):
                ring, _ = instantiate(stmt)
                handle = IdealHandle.from_presentation(
                    ring, self.config.gb_step_budget)
                yield self.do_analyze(self.shared(handle))
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

    def analysis(self, name):
        """The shared analysis of the named ideal."""
        return self.shared(self.handles[name])

    def shared(self, handle):
        """The one analysis of the ring the handle presents."""
        key = (handle.field, handle.context, handle.generators)
        if key not in self.analyses:
            self.analyses[key] = _Analysis(handle, self.config)
        return self.analyses[key]

    def do_analyze(self, a):
        report = a.report
        if report.semantics == SEMANTICS_UNVERIFIED:
            self.flagged_unsupported = True
        if self.fmt == "json":
            return json.dumps(report.to_json_dict(), sort_keys=False)
        if self.fmt == "dot":
            # the witness chain, then every associated prime and M alone;
            # the UFD search starts at the same P, so Q' is on the chain
            mono = a.require_monomial("the witness diagram")
            alone = [(p,) for p in (*mono.associated_primes(),
                                    MonomialPrime.maximal(a.v))]
            _, chain = a.noncat_domain
            return chain_dot(mono, [chain, *alone] if chain else alone)
        return report_text(report)

    def do_profile(self, a):
        # edim > 1 without Min, and then DOT, are refused before a.facts
        # runs the depth search
        if a.mono is None and (a.handle.embedding_dimension() > 1
                               or a.facts.profile is None):
            a.require_monomial("the noncatenarity profile")
        if self.fmt == "dot":
            raise UnsupportedInputError(
                "the profile command has no dot rendering")
        profile = a.facts.profile
        if self.fmt == "json":
            return json.dumps({
                "ring": a.ring,
                "dim": a.facts.dim,
                "profile": list(profile),
            })
        return "profile {" + ", ".join(map(str, profile)) + "}"

    def do_poset(self, a):
        mono = a.require_monomial("the spectrum poset")
        if self.fmt == "dot":
            return poset_dot(mono)
        if self.fmt == "json":
            return poset_json(mono)
        return poset_text(mono)

    def do_chain(self, a, *start):
        a.require_monomial("the chain command")
        chain = a.chain(MonomialPrime.of(a.context, *start))
        if isinstance(chain, ChainInfeasibleError):
            raise chain
        if self.fmt == "dot":
            return chain_dot(a.mono, [chain])
        if self.fmt == "json":
            return json.dumps({
                "chain": [list(p.names(a.context)) for p in chain],
                "length": len(chain) - 1,
                "start_height": 0,  # a chain starts at a minimal prime
                "dims": [p.quotient_dim(a.v) for p in chain],
            })
        return (" < ".join(p.render(a.context) for p in chain)
                + f"  (length {len(chain) - 1})")


def run_script(script, config, fmt):
    """Yield one output string per command in the script."""
    yield from _Runner(config, fmt).run(script)


def _count(text):
    """argparse type of the budget options."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}")
    return value


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
    parser.add_argument("--budget-gb-steps", type=_count,
                        default=DEFAULT_GB_STEP_BUDGET,
                        metavar="N",
                        help="reduction steps allowed to each Groebner "
                             "computation (each Buchberger run, linear meet "
                             "and division), not to a whole analysis")
    parser.add_argument("--budget-regular-candidates", type=_count,
                        default=DEFAULT_REGULAR_CANDIDATE_BUDGET,
                        metavar="N", help="candidates per regular-element search")
    return parser


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    config = AnalysisConfig(
        gb_step_budget=args.budget_gb_steps,
        regular_candidate_budget=args.budget_regular_candidates)
    try:
        if args.script == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.script, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; the interpreter's last flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except BudgetExceededError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedInputError, UnitIdealError, DegenerateInputError,
            EmptyLocalizationError, ChainInfeasibleError) as exc:
        print(f"unsupported input class: {exc}", file=sys.stderr)
        return 2
    return 2 if runner.flagged_unsupported else 0


if __name__ == "__main__":
    sys.exit(main())
