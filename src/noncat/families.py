"""Named example families of complete local rings with their expected
classification, used as a golden corpus and exposed through the CLI
`family` command.

Every family is one ring shape, presented over the rationals by its
product generators:

    K[[x, y1..ya, z1..zb]] / ((x) cap (y1..ya)) = K[[...]] / (x*y1, .., x*ya)

of dimension a + b with profile {a+b, b+1}. A kind fixes (a, b):

* example_domain: (2, 1), named x, y, z, v; the quasi-excellent
  noncatenary-domain completion with profile {3, 2};
* example_catenary(n), n > 1: (n, 0), profile {n, 1}, forcing every
  completing domain to be catenary but never universally catenary;
* example_ufd(a, b), a, b > 1: (a, b), a noncatenary-UFD completion;
* prop41(m, n), 1 < m < n, and prop42(m, n), 2 < m < n: (n - m + 1, m - 1),
  exhibiting saturated chains of lengths m and n to the maximal ideal.

A FamilySpec checks all of this when it is made, so one that exists is
valid.
"""

from __future__ import annotations

from .errors import FamilyParameterError
from .poly import (RATIONALS, Polynomial, RingPresentation, VariableContext,
                   _Value)

# each kind's parameters in order, as (name, lower bound); prop41 and
# prop42 also require m < n, which bounds n
_PARAMETERS = {
    "example_domain": (),
    "example_catenary": (("n", 1),),
    "example_ufd": (("a", 1), ("b", 1)),
    "prop41": (("m", 1), ("n", None)),
    "prop42": (("m", 2), ("n", None)),
}
FAMILY_KINDS = tuple(_PARAMETERS)


class FamilySpec(_Value):
    """A family of the paper by name, with its integer parameters held as a
    tuple. Construction raises FamilyParameterError naming the first
    violated requirement, so a spec that exists is valid."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, params=()):
        if kind not in FAMILY_KINDS:
            raise FamilyParameterError(
                f"unknown family {kind!r}; expected one of "
                f"{', '.join(FAMILY_KINDS)}")
        params = tuple(params)
        bounds = _PARAMETERS[kind]
        if len(params) != len(bounds):
            raise FamilyParameterError(
                f"{kind} takes {len(bounds)} parameter(s), got {len(params)}")
        for p in params:
            if not isinstance(p, int) or isinstance(p, bool):
                raise FamilyParameterError(
                    f"{kind} parameters must be integers, got {p!r}")
        for (name, lower), p in zip(bounds, params):
            if lower is not None and not lower < p:
                raise FamilyParameterError(
                    f"{kind} requires {name} > {lower} (got {name} = {p})")
        if kind in ("prop41", "prop42") and not params[0] < params[1]:
            raise FamilyParameterError(
                f"{kind} requires m < n (got m = {params[0]}, n = {params[1]})")
        self.kind = kind
        self.params = params


def instantiate(spec):
    """Build the family's ring presentation and the expected slice of its
    analysis report (JSON-shaped, compared field-for-field where set)."""
    kind, params = spec.kind, spec.params
    if kind == "example_domain":
        a, b, names = 2, 1, ("x", "y", "z", "v")
    else:
        if kind == "example_catenary":
            a, b = params[0], 0
        elif kind == "example_ufd":
            a, b = params
        else:
            m, n = params
            a, b = n - m + 1, m - 1
        names = ("x", *(f"y{i}" for i in range(1, a + 1)),
                 *(f"z{i}" for i in range(1, b + 1)))
    context = VariableContext(names)
    x = Polynomial.variable(RATIONALS, context, "x")
    ring = RingPresentation(RATIONALS, context, tuple(
        x * Polynomial.variable(RATIONALS, context, y) for y in names[1:a + 1]))
    expected = {"dim": a + b, "profile": [a + b, b + 1]}
    if kind == "example_domain":
        expected["conditions"] = {"lech_ii": True, "depth_ge2": True}
        expected["verdicts"] = {"noncat_domain": True, "noncat_ufd": False,
                                "regularity_at_min": True,
                                "universally_catenary_obstructed": True}
    elif kind == "example_catenary":
        expected["verdicts"] = {"noncat_domain": False,
                                "forced_cat_domain": True,
                                "universally_catenary_obstructed": True}
    elif kind == "example_ufd":
        expected["conditions"] = {"depth_ge2": True}
        expected["verdicts"] = {"noncat_domain": True, "noncat_ufd": True}
        expected["witnesses"] = {"ufd_witness_prime": list(names[1:])}
    else:
        expected["verdicts"] = {"noncat_domain": True}
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
