"""Named example families of complete local rings with their expected
classification, used as a golden corpus and exposed through the CLI
`family` command.

Every family is a power-series quotient by an intersection of a
hyperplane with a coordinate prime, presented over the rationals by its
product generators:

* example_domain: K[[x,y,z,v]]/((x) cap (y,z)), the quasi-excellent
  noncatenary-domain completion with profile {3, 2};
* example_catenary(n), n > 1: K[[x,y1..yn]]/((x) cap (y1..yn)), profile
  {n, 1}, forcing every completing domain to be catenary but never
  universally catenary;
* example_ufd(a,b), a, b > 1: K[[x,y1..ya,z1..zb]]/((x) cap (y1..ya)),
  a noncatenary-UFD completion of dimension a + b with profile
  {a+b, b+1};
* prop41(m,n), 1 < m < n, and prop42(m,n), 2 < m < n: the same ring with
  a = n - m + 1 and b = m - 1, exhibiting saturated chains of lengths m
  and n to the maximal ideal.
"""

from __future__ import annotations

from .errors import FamilyParameterError
from .poly import (RATIONALS, Polynomial, RingPresentation, VariableContext,
                   _Value)

FAMILY_KINDS = ("example_domain", "example_catenary", "example_ufd",
                "prop41", "prop42")
FAMILY_ARITY = {"example_domain": 0, "example_catenary": 1,
                "example_ufd": 2, "prop41": 2, "prop42": 2}


class FamilySpec(_Value):
    """A family of the paper by name, with its integer parameters held as a
    tuple."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, params=()):
        if kind not in FAMILY_KINDS:
            raise FamilyParameterError(
                f"unknown family {kind!r}; expected one of "
                f"{', '.join(FAMILY_KINDS)}")
        params = tuple(params)
        arity = FAMILY_ARITY[kind]
        if len(params) != arity:
            raise FamilyParameterError(
                f"{kind} takes {arity} parameter(s), got {len(params)}")
        for p in params:
            if not isinstance(p, int) or isinstance(p, bool):
                raise FamilyParameterError(
                    f"{kind} parameters must be integers, got {p!r}")
        self.kind = kind
        self.params = params

    def render(self):
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"


def check_constraints(spec):
    """Validate the family's defining inequalities without building the
    ring; raises FamilyParameterError naming the violated inequality."""
    kind, params = spec.kind, spec.params
    if kind == "example_catenary":
        n, = params
        if not n > 1:
            raise FamilyParameterError(
                f"example_catenary requires n > 1 (got n = {n})")
    elif kind == "example_ufd":
        a, b = params
        if not a > 1:
            raise FamilyParameterError(f"example_ufd requires a > 1 (got a = {a})")
        if not b > 1:
            raise FamilyParameterError(f"example_ufd requires b > 1 (got b = {b})")
    elif kind in ("prop41", "prop42"):
        m, n = params
        lower = 2 if kind == "prop42" else 1
        if not lower < m:
            raise FamilyParameterError(
                f"{kind} requires m > {lower} (got m = {m})")
        if not m < n:
            raise FamilyParameterError(
                f"{kind} requires m < n (got m = {m}, n = {n})")


def _hyperplane_family(a, b):
    """The ring K[[x,y1..ya,z1..zb]] / (x*y1, .., x*ya) over Q."""
    names = ["x"]
    names += [f"y{i}" for i in range(1, a + 1)]
    names += [f"z{i}" for i in range(1, b + 1)]
    context = VariableContext(names)
    x = Polynomial.variable(RATIONALS, context, "x")
    gens = tuple(x * Polynomial.variable(RATIONALS, context, f"y{i}")
                 for i in range(1, a + 1))
    return RingPresentation(RATIONALS, context, gens)


def instantiate(spec):
    """Build the family's ring presentation and the expected slice of its
    analysis report (JSON-shaped, compared field-for-field where set)."""
    check_constraints(spec)
    kind, params = spec.kind, spec.params
    if kind == "example_domain":
        context = VariableContext(("x", "y", "z", "v"))
        x, y, z, _ = (Polynomial.variable(RATIONALS, context, n)
                      for n in context.names)
        ring = RingPresentation(RATIONALS, context, (x * y, x * z))
        expected = {
            "dim": 3,
            "profile": [3, 2],
            "conditions": {"lech_ii": True, "depth_ge2": True},
            "verdicts": {
                "noncat_domain": True,
                "noncat_ufd": False,
                "regularity_at_min": True,
                "universally_catenary_obstructed": True,
            },
        }
        return ring, expected
    if kind == "example_catenary":
        n, = params
        ring = _hyperplane_family(n, 0)
        expected = {
            "dim": n,
            "profile": [n, 1],
            "verdicts": {
                "noncat_domain": False,
                "forced_cat_domain": True,
                "universally_catenary_obstructed": True,
            },
        }
        return ring, expected
    if kind == "example_ufd":
        a, b = params
        ring = _hyperplane_family(a, b)
        qprime = [f"y{i}" for i in range(1, a + 1)]
        qprime += [f"z{i}" for i in range(1, b + 1)]
        expected = {
            "dim": a + b,
            "profile": [a + b, b + 1],
            "conditions": {"depth_ge2": True},
            "verdicts": {"noncat_domain": True, "noncat_ufd": True},
            "witnesses": {"ufd_witness_prime": qprime},
        }
        return ring, expected
    # prop41 / prop42: a = n - m + 1, b = m - 1
    m, n = params
    a, b = n - m + 1, m - 1
    ring = _hyperplane_family(a, b)
    expected = {
        "dim": n,
        "profile": [n, m],
        "verdicts": {"noncat_domain": True},
    }
    if kind == "prop42":
        expected["verdicts"]["noncat_ufd"] = True
    return ring, expected


def expected_mismatches(report_json, expected, path=""):
    """Recursively compare the expected slice against an actual report
    dict; returns human-readable mismatch descriptions."""
    problems = []
    for key, want in expected.items():
        here = f"{path}.{key}" if path else key
        if key not in report_json:
            problems.append(f"{here}: missing from the report")
            continue
        got = report_json[key]
        if isinstance(want, dict):
            if not isinstance(got, dict):
                problems.append(f"{here}: expected a mapping, got {got!r}")
            else:
                problems.extend(expected_mismatches(got, want, here))
        elif got != want:
            problems.append(f"{here}: expected {want!r}, got {got!r}")
    return problems
