"""Seeded inputs for the benchmark's workloads and the checks on each
command's output.

Inputs are plain data built here without the package under test: DSL
script text for the CLI workloads and exponent vectors for the library
workload. Each `Item` yields one or more commands; `checks` holds one
check per command, mapping the command's parsed output (a report or JSON
payload as a dict, or DOT text) to a list of problems.

The rings of ROADMAP item 3 (non-homogeneous or regular input, such as
`(y)` in Q[x,y] or `intersect((x,y),(z-1))`) are left out on purpose:
they take milliseconds and their fix turns a wrong value into `null`, so
they belong in that item's regression tests, not in a timing workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import reference as ref

SCRIPTS = Path(__file__).resolve().parent / "scripts"

# The criterion-8 corpus: 2 to 8 variables, up to 5 generators, exponents
# up to 2, drawn from one fixed stream. The seed only shuffles the order
# of the rings: a fresh corpus per seed moved the median latency by about
# 20% between seeds, and a seeded variable order moved throughput by 13%,
# because the ten slowest rings take most of the time.
CORPUS_SEED = 80008
CORPUS_SIZE = 60

# The `family example_ufd(8, 8)` rung (17 variables) stops at the
# 16-variable poset cap (ROADMAP item 2). It runs after the timed
# commands as a probe, outside the counts, so the defect stays visible.
PROBE = "family example_ufd(8, 8)"

PRIME = 32003


@dataclass
class Item:
    """One script (CLI workloads) or one ring (library workload).

    `checks` holds one (produces_report, check) pair per command; a check
    maps the command's output to a list of problems."""

    label: str
    checks: list
    text: str | None = None
    fmt: str = "json"
    ring: tuple | None = None  # (names, exponent vectors)
    script: object = None  # the parsed text, filled in at set-up
    presentation: object = None  # the RingPresentation, filled in at set-up


def _hyperplane(a, b):
    """Names and generators of K[[x,y1..ya,z1..zb]] / (x*y1, .., x*ya)."""
    names = ["x"] + [f"y{i}" for i in range(1, a + 1)]
    names += [f"z{i}" for i in range(1, b + 1)]
    gens = [tuple(1 if j in (0, i) else 0 for j in range(len(names)))
            for i in range(1, a + 1)]
    return names, gens


def _family_ring(kind, params):
    if kind == "example_domain":
        return ["x", "y", "z", "v"], [(1, 1, 0, 0), (1, 0, 1, 0)]
    if kind == "example_catenary":
        return _hyperplane(params[0], 0)
    if kind == "example_ufd":
        return _hyperplane(*params)
    m, n = params
    return _hyperplane(n - m + 1, m - 1)


def _report_check(names, gens, expected=None):
    def check(report):
        problems = ref.check_monomial_report(report, names, gens)
        if expected is not None:
            from noncat.families import expected_mismatches
            problems += expected_mismatches(report, expected)
        return problems
    return check


def _family_item(kind, params, expected):
    names, gens = _family_ring(kind, params)
    cmd = f"family {kind}({', '.join(map(str, params))})" if params else \
        f"family {kind}"
    return Item(cmd, [(True, _report_check(names, gens, expected))], text=cmd)


def _ladder(rng):
    """Every distinct family ring with at most 10 variables. A ring with
    b >= 2 is issued under a seeded choice of the three family names that
    present it, so every expected slice is checked on some seed."""
    rungs = [("example_domain", ())]
    rungs += [("example_catenary", (n,)) for n in range(2, 10)]
    rungs += [("prop41", (2, n)) for n in range(3, 10)]
    for s in range(4, 10):
        for a in range(2, s - 1):
            b = s - a
            rungs.append(rng.choice([("example_ufd", (a, b)),
                                     ("prop41", (b + 1, a + b)),
                                     ("prop42", (b + 1, a + b))]))
    return rungs


def _demo_items(ufd_expected):
    """The three demo scripts, with their outputs checked by brute force
    (and the family command against its expected slice)."""
    two = ["x", "y", "z", "v"]
    two_gens = [(1, 1, 0, 0), (1, 0, 1, 0)]
    mixed = ["x", "y", "z", "v", "w"]
    mixed_gens = [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 0, 1)]
    ufd, ufd_gens = _hyperplane(2, 2)

    def poset_check(names, gens):
        return lambda out: ref.check_poset_nodes(len(out["nodes"]), names,
                                                 gens)

    def profile_check(names, gens):
        return lambda out: ref.check_profile(out, names, gens)

    def chain_check(names, start):
        def check(out):
            return ref.check_chain(out["chain"], names, start,
                                   len(names) - len(start))
        return check

    return [
        Item("demo mixed_class", [(True, _report_check(mixed, mixed_gens)),
                                  (False, poset_check(mixed, mixed_gens))],
             text=(SCRIPTS / "mixed_class.ncat").read_text()),
        Item("demo two_plane", [(True, _report_check(two, two_gens)),
                                (False, profile_check(two, two_gens)),
                                (False, chain_check(two, ["y", "z"]))],
             text=(SCRIPTS / "two_plane.ncat").read_text()),
        Item("demo ufd_family",
             [(True, _report_check(ufd, ufd_gens, ufd_expected)),
              (True, _report_check(ufd, ufd_gens)),
              (False, chain_check(ufd, ["x"])),
              (False, chain_check(ufd, ["y1", "y2"]))],
             text=(SCRIPTS / "ufd_family.ncat").read_text()),
    ]


def _dot_item(m, n):
    """poset and both chains of prop41(m, n), in DOT, from an intersect
    statement: the chains from (x) and (y1..ya) have lengths n and m."""
    a, b = n - m + 1, m - 1
    names, gens = _hyperplane(a, b)
    ys = names[1:a + 1]
    text = (f"ring Q[{', '.join(names)}]\n"
            f"ideal I = intersect((x), ({', '.join(ys)}))\n"
            f"poset I\nchain I from (x)\nchain I from ({', '.join(ys)})\n")

    def poset_check(out):
        v = len(names)
        nodes = set(ref.hitting_sets(v, ref.supports_of(gens)))
        edges = sum(1 for p in nodes for i in range(v)
                    if i not in p and p | {i} in nodes)
        got = ref.dot_counts(out)
        return [] if got == (len(nodes), edges) else \
            [f"poset DOT has {got}, expected {(len(nodes), edges)}"]

    def chain_check(length):
        def check(out):
            got = ref.dot_counts(out)
            return [] if got == (length + 1, length) else \
                [f"chain DOT has {got}, expected {(length + 1, length)}"]
        return check

    return Item(f"dot prop41({m}, {n})",
                [(False, poset_check), (False, chain_check(n)),
                 (False, chain_check(m))],
                text=text, fmt="dot")


def families(seed):
    from noncat.families import FamilySpec, instantiate
    rng = random.Random(seed)
    items = []
    for kind, params in _ladder(rng):
        _, expected = instantiate(FamilySpec(kind, params))
        items.append(_family_item(kind, params, expected))
    items += _demo_items(instantiate(FamilySpec("example_ufd", (2, 2)))[1])
    items += [_dot_item(m, n) for m, n in ((4, 9), (5, 10), (6, 11))]
    rng.shuffle(items)
    return items


def _random_monomial_ideal(rng, v, max_gens, max_exp=2):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        while True:
            e = tuple(max(0, rng.randint(-1, max_exp)) for _ in range(v))
            if any(e):
                gens.append(e)
                break
    return gens


def _minimalize(vectors):
    kept = []
    for m in sorted(set(vectors), key=lambda e: (sum(e), e)):
        if not any(all(x <= y for x, y in zip(g, m)) for g in kept):
            kept.append(m)
    return tuple(kept)


def corpus():
    """The first CORPUS_SIZE distinct rings of the criterion-8 stream, as
    minimal generating sets."""
    rng = random.Random(CORPUS_SEED)
    seen = {}
    while len(seen) < CORPUS_SIZE:
        v = rng.randint(2, 8)
        gens = _minimalize(_random_monomial_ideal(rng, v, 5))
        seen.setdefault((v, gens), None)
    return list(seen)


def random_monomial(seed):
    rng = random.Random(seed)
    items = []
    for k, (v, gens) in enumerate(corpus()):
        names = [f"v{i}" for i in range(v)]
        items.append(Item(f"corpus ring {k}",
                          [(True, _report_check(names, gens))],
                          ring=(names, gens)))
    rng.shuffle(items)
    return items


# -- tilted: homogeneous non-monomial rings --

# Classical Cohen-Macaulay rings: depth = dim >= 2, and M is not
# associated (depth > 0). Values are (variables, generators, dim).
CLASSICAL = {
    # cone over the twisted cubic: 2x2 minors of [[a,b,c],[b,c,d]]
    "twisted_cubic": ("a,b,c,d", "a*c - b^2, a*d - b*c, b*d - c^2", 2),
    # 2x2 minors of a generic 2x3 matrix: codimension 2 (Eagon-Northcott)
    "minors_2x3": ("a,b,c,d,e,f", "a*e - b*d, a*f - c*d, b*f - c*e", 4),
    # cone over the rational normal quartic: 2x2 minors of a 2x4 Hankel
    "quartic_cone": ("a,b,c,d,e",
                     "a*c - b^2, a*d - b*c, a*e - b*d, b*d - c^2, "
                     "b*e - c*d, c*e - d^2", 2),
    # quadric cones: hypersurfaces are Cohen-Macaulay
    "quadric_cone_3": ("x,y,z", "x^2 + y^2 + z^2", 2),
    "quadric_cone_4": ("x,y,z,w", "x*y - z*w", 3),
    # complete intersection: x*y - z*w is prime and x*z - v^2 is not in it
    "complete_intersection": ("x,y,z,w,v", "x*y - z*w, x*z - v^2", 3),
}


def _tilted_family_bases():
    """Family rings with at most 6 variables, by (a, b): the ring
    (x) cap (y1..ya) has Ass = {(x), (y1..ya)}, dim a + b (= v - 1),
    M not associated, and depth b + 1 by Mayer-Vietoris on
    R/(x), R/(y) and R/(x, y); so depth >= 2 exactly when b >= 1."""
    bases = [(n, 0) for n in range(2, 6)]
    bases += [(a, 1) for a in range(2, 5)]
    bases += [(a, s - a) for s in range(4, 6) for a in range(2, s - 1)]
    return bases


def _linear_form(rng, names, i):
    """names[i] plus seeded nonzero multiples (-2..2) of the next two
    variables. The shape is fixed and only the coefficients vary with the
    seed, because the number of terms sets the Groebner cost: fully random
    shapes moved this workload's total time by 20% between seeds."""
    out = names[i]
    for j in range(i + 1, min(i + 3, len(names))):
        c = rng.choice((-2, -1, 1, 2))
        sign = "-" if c < 0 else "+"
        out += f" {sign} {names[j]}" if abs(c) == 1 else \
            f" {sign} {abs(c)}*{names[j]}"
    return out


def _tilted_check(dim, depth_ge2):
    def check(report):
        got = (report["dim"], report["conditions"]["lech_ii"],
               report["conditions"]["depth_ge2"], report["semantics"])
        want = (dim, True, depth_ge2, "unverified-completion")
        return [] if got == want else [f"(dim, lech_ii, depth_ge2, "
                                       f"semantics) {got} != {want}"]
    return check


def tilted(seed):
    """Every base ring over Q and over GF(32003), alternating. Family
    rings go through seeded unitriangular changes of coordinates, one per
    field for the heavy 6-variable rings and three for the smaller ones,
    so that the tail holds several rings of each shape; such a change is a graded automorphism, so it preserves dim,
    lech_ii and depth_ge2, and the ideals stay homogeneous, so the global
    values are the local ones."""
    rng = random.Random(seed)
    bases = []
    for a, b in _tilted_family_bases():
        names, _ = _hyperplane(a, b)

        def ideal(names=names, a=a):
            forms = [_linear_form(rng, names, i) for i in range(a + 1)]
            return f"intersect(({forms[0]}), ({', '.join(forms[1:])}))"

        bases += [(f"tilted hyperplane({a}, {b}) #{k}", ", ".join(names),
                   ideal, a + b, b >= 1)
                  for k in range(1, 2 if len(names) == 6 else 4)]
    for label, (names, gens, dim) in CLASSICAL.items():
        bases.append((label, names, lambda gens=gens: f"({gens})", dim, True))
    rng.shuffle(bases)
    items, seen = [], set()
    for label, names, ideal, dim, depth_ge2 in bases:
        for fld in ("Q", f"F{PRIME}"):
            text = None
            while text is None or text in seen:  # each ring once per run
                text = f"ring {fld}[{names}]\nideal I = {ideal()}\nanalyze I\n"
            seen.add(text)
            items.append(Item(f"{label} over {fld}",
                              [(True, _tilted_check(dim, depth_ge2))],
                              text=text))
    return items


BUILDERS = {"families": families, "random_monomial": random_monomial,
            "tilted": tilted}
WORKLOADS = tuple(BUILDERS)
