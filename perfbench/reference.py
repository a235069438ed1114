"""Reference answers computed without the package under test.

Minimal primes of a monomial ideal are the minimal vertex covers of its
generator supports, and the monomial primes containing it are the
variable subsets that meet every support; both are found here by brute
force over all 2^v subsets. Each `check_*` function returns a list of
problems, empty when the output agrees with the reference.
"""

from __future__ import annotations

import re

# Entries of a report's `inconclusive` list that mean a search ran out of
# candidates or a budget. "unsupported input class" entries for
# non-monomial input are by design and do not count.
_UNDECIDED = re.compile(r"inconclusive|budget")


def hitting_sets(v, supports):
    """All variable subsets (frozensets of indices) meeting every support:
    the monomial primes containing the ideal."""
    found = []
    for mask in range(1 << v):
        subset = frozenset(i for i in range(v) if mask >> i & 1)
        if all(subset & s for s in supports):
            found.append(subset)
    return found


def minimal_covers(v, supports):
    """Minimal vertex covers of the supports: the minimal primes."""
    covers = hitting_sets(v, supports)
    return [c for c in covers if not any(d < c for d in covers)]


def supports_of(exponent_vectors):
    return [frozenset(i for i, e in enumerate(g) if e) for g in exponent_vectors]


def implication_violations(verdicts, dim):
    """The structural implications between verdicts that every report must
    satisfy (the same lattice the acceptance tests check)."""
    bad = []
    if verdicts["noncat_ufd"] is True:
        if verdicts["noncat_domain"] is not True:
            bad.append("noncat_ufd without noncat_domain")
        if verdicts["forced_cat_ufd"] is True:
            bad.append("noncat_ufd with forced_cat_ufd")
        if not dim > 3:
            bad.append("noncat_ufd with dim <= 3")
    if verdicts["noncat_domain"] is True:
        if verdicts["forced_cat_domain"] is True:
            bad.append("noncat_domain with forced_cat_domain")
        if verdicts["universally_catenary_obstructed"] is not True:
            bad.append("noncat_domain without the catenarity obstruction")
    if (verdicts["ufd_completion"] is True and dim <= 3
            and verdicts["noncat_ufd"] is True):
        bad.append("noncat_ufd at dim <= 3")
    return bad


def is_decided(report):
    """A report is decided when depth_ge2 is known and no search or budget
    ran out."""
    return (report["conditions"]["depth_ge2"] is not None
            and not any(_UNDECIDED.search(s) for s in report["inconclusive"]))


def check_monomial_report(report, names, exponent_vectors):
    """Min, dim and profile against brute-force minimal vertex covers, plus
    the implication lattice."""
    v = len(names)
    covers = minimal_covers(v, supports_of(exponent_vectors))
    want_min = {frozenset(names[i] for i in c): v - len(c) for c in covers}
    got_min = {frozenset(p["gens"]): p["dim"]
               for p in report["minimal_primes"] or ()}
    problems = []
    if got_min != want_min:
        problems.append(f"minimal primes {sorted(map(sorted, got_min))} != "
                        f"{sorted(map(sorted, want_min))}")
    want_dim = max(want_min.values())
    if report["dim"] != want_dim:
        problems.append(f"dim {report['dim']} != {want_dim}")
    want_profile = sorted(want_min.values(), reverse=True)
    if report["profile"] != want_profile:
        problems.append(f"profile {report['profile']} != {want_profile}")
    if report["semantics"] != "monomial-exact":
        problems.append(f"semantics {report['semantics']!r}")
    problems += implication_violations(report["verdicts"], report["dim"])
    return problems


def check_profile(payload, names, exponent_vectors):
    v = len(names)
    dims = sorted((v - len(c) for c in
                   minimal_covers(v, supports_of(exponent_vectors))),
                  reverse=True)
    if payload["profile"] != dims or payload["dim"] != dims[0]:
        return [f"profile {payload['profile']} != {dims}"]
    return []


def check_poset_nodes(count, names, exponent_vectors):
    want = len(hitting_sets(len(names), supports_of(exponent_vectors)))
    return [] if count == want else [f"{count} poset nodes, expected {want}"]


def dot_counts(dot):
    """(node lines, edge lines) of a DOT digraph."""
    body = [ln.strip() for ln in dot.splitlines()[2:-1]]
    edges = sum(1 for ln in body if "->" in ln)
    return len(body) - edges, edges


def check_chain(chain, names, start, length):
    """A saturated chain of primes from `start` up to the maximal ideal, of
    the given length, one variable added per step."""
    problems = []
    sets = [frozenset(c) for c in chain]
    if sets[0] != frozenset(start):
        problems.append(f"chain starts at {sorted(sets[0])}")
    if sets[-1] != frozenset(names):
        problems.append("chain does not end at the maximal ideal")
    if len(sets) - 1 != length:
        problems.append(f"chain length {len(sets) - 1} != {length}")
    if any(not (a < b and len(b - a) == 1) for a, b in zip(sets, sets[1:])):
        problems.append("chain step is not a single added variable")
    return problems
