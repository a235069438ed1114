"""Census of small squarefree monomial rings: every labelled squarefree
monomial ideal in one to four variables, the zero ideal included, and one
ideal per relabelling class in five. Each report is checked against an
oracle that uses no noncat code: Min is the set of minimal vertex covers of
the generator supports (and Ass = Min, I being radical), depth > 1 comes
from Hochster's formula, and the regular carve-outs from the embedding
dimension. Depth > 1 on the rings in one to four variables is also
checked against the colon calculus of the Groebner engine. Each ring's DOT
witness diagram is checked against its JSON report.

A second census takes every monomial ideal in one to three variables with
exponents up to 2, squarefree or not, and checks its irreducible
components, Ass, Min and dim against brute force over the exponent box."""

import json
from functools import reduce
from itertools import permutations, product
from operator import mul

import pytest

from noncat.analyzer import AnalysisConfig, _Analysis
from noncat.cli import _Runner
from noncat.groebner import IdealHandle
from noncat.monomial import MonomialIdeal
from noncat.poly import Polynomial, RingPresentation, variables

from conftest import QQ, brute_dimension, ctx, depth_by_colon, ref_depth

NAMES = "abcde"


def antichains(v):
    """Every antichain of nonempty subsets of range(v), each a tuple of
    bitmasks in increasing order; the empty antichain is the zero ideal."""
    def extend(chosen, start):
        yield chosen
        for s in range(start, 1 << v):
            if all(s & t not in (s, t) for t in chosen):
                yield from extend(chosen + (s,), s + 1)
    return extend((), 1)


def relabelling_classes(v):
    """The first antichain, in the order of `antichains`, of each orbit
    under the permutations of the variables."""
    images = [[sum(1 << p[i] for i in range(v) if s >> i & 1)
               for s in range(1 << v)] for p in permutations(range(v))]
    seen = set()
    for a in antichains(v):
        if a not in seen:
            seen.update(tuple(sorted(m[s] for s in a)) for m in images)
            yield a


def census():
    """(v, supports) of every census ring."""
    rings = [(v, a) for v in range(1, 5) for a in antichains(v)]
    return rings + [(5, a) for a in relabelling_classes(5)]


def names_of(v, mask):
    return [NAMES[i] for i in range(v) if mask >> i & 1]


def connected(vertices, edges):
    reached, todo = set(), [min(vertices)]
    while todo:
        i = todo.pop()
        if i not in reached:
            reached.add(i)
            todo += [j for j in vertices if (1 << i | 1 << j) in edges]
    return reached == vertices


def oracle(v, supports):
    """Min and the verdicts of T = K[[x]]/I over Q, I generated by the
    squarefree monomials with these supports, from the paper's
    characterizations: T completes a domain iff it is a field or M is not
    associated, a UFD iff it is a field, a DVR or of depth > 1, and the
    noncatenary ones need a minimal P with 1 < dim T/P < dim T (2 < for
    the UFD)."""
    full = (1 << v) - 1
    covers = {c for c in range(1 << v) if all(c & s for s in supports)}
    mins = {c for c in covers
            if not any(c >> i & 1 and c ^ 1 << i in covers for i in range(v))}
    edim = v - sum(1 for s in supports if s & (s - 1) == 0)
    m_assoc = full in mins
    carve_out = ("field" if edim == 0
                 else "dvr" if edim == 1 and not m_assoc else None)
    if carve_out:
        dim, profile = edim, [edim]
    else:
        profile = sorted((v - bin(c).count("1") for c in mins), reverse=True)
        dim = profile[0]
    # Hochster: depth k[D] > 1 iff D is connected of dimension >= 1, D being
    # the complex of the subsets that contain no support
    faces = {f for f in range(1 << v) if all(f & s != s for s in supports)}
    vertices = {i for i in range(v) if 1 << i in faces}
    edges = {f for f in faces if bin(f).count("1") == 2}
    depth_ge2 = bool(edges) and connected(vertices, edges)
    domain = carve_out == "field" or not m_assoc
    ufd = True if carve_out else depth_ge2
    return {
        "minimal_primes": sorted(names_of(v, c) for c in mins),
        "dim": dim,
        "profile": profile,
        "depth_ge2": depth_ge2,
        "domain_completion": domain,
        "ufd_completion": ufd,
        "noncat_domain": domain and any(1 < d < dim for d in profile),
        "noncat_ufd": ufd and any(2 < d < dim for d in profile),
    }


def observed(report):
    verdicts = report["verdicts"]
    return {
        "minimal_primes": sorted(p["gens"] for p in report["minimal_primes"]),
        "dim": report["dim"],
        "profile": report["profile"],
        "depth_ge2": report["conditions"]["depth_ge2"],
        **{k: verdicts[k] for k in ("domain_completion", "ufd_completion",
                                    "noncat_domain", "noncat_ufd")},
    }


def parse_dot(text):
    """({node: its attributes}, {(tail, head)}) of a DOT digraph, each node
    the frozenset of its prime's generators."""
    def prime(label):
        inner = label.strip('"')[1:-1]
        return frozenset() if inner == "0" else frozenset(inner.split(","))
    lines = text.splitlines()
    assert lines[:2] == ["digraph prime_chains {", "  rankdir=BT;"]
    assert lines[-1] == "}"
    nodes, edges = {}, set()
    for line in lines[2:-1]:
        body = line.strip().rstrip(";")
        if " -> " in body:
            tail, head = body.split(" -> ")
            edges.add((prime(tail), prime(head)))
        else:
            label, _, attrs = body.partition(" [")
            nodes[prime(label)] = set(attrs.rstrip("]").split(",")) - {""}
    return nodes, edges


@pytest.fixture(scope="module")
def analyzed():
    """(v, supports, JSON report, DOT witness diagram, generators) of
    every census ring, the report and diagram read off one analysis."""
    config = AnalysisConfig()
    as_json, as_dot = _Runner(config, "json"), _Runner(config, "dot")
    results = []
    for v, supports in census():
        c = ctx(*NAMES[:v])
        xs = variables(QQ, c)
        gens = [reduce(mul, (x for i, x in enumerate(xs) if s >> i & 1))
                for s in supports]
        a = _Analysis.from_presentation(RingPresentation(QQ, c, gens))
        results.append((v, supports, json.loads(as_json.do_analyze(a)),
                        as_dot.do_analyze(a), gens))
    return results


def test_census_size(analyzed):
    """193 labelled rings in 1-4 variables and the 209 relabelling classes
    of non-unit squarefree monomial ideals in 5 (A003182 counts 210 with
    the unit ideal)."""
    sizes = [sum(1 for v, *_ in analyzed if v == n) for n in range(1, 6)]
    assert sizes == [2, 5, 19, 167, 209]


def test_reports_match_the_oracle(analyzed):
    wrong = [(v, [names_of(v, s) for s in supports])
             for v, supports, report, *_ in analyzed
             if observed(report) != oracle(v, supports)]
    assert wrong == []


def test_depth_matches_the_colon_calculus(analyzed):
    """depth_ge2 on every nonzero ring in one to four variables equals the
    verdict of conftest.depth_by_colon, which cuts by the first regular
    candidate and intersects colon ideals, so Takayama's rule is not
    checked only against Hochster's formula."""
    checked, wrong = 0, []
    for v, supports, report, _, gens in analyzed:
        if v > 4 or not gens:
            continue
        checked += 1
        verdict, _ = depth_by_colon(IdealHandle(QQ, ctx(*NAMES[:v]), gens))
        if verdict != report["conditions"]["depth_ge2"]:
            wrong.append(report["ring"])
    assert (checked, wrong) == (189, [])


def test_witness_diagram_matches_the_report(analyzed):
    """The diagram draws Ass, M and the witness chain, with Min boxed, Ass
    filled and M bold, and one edge per chain step, each adding one
    variable; the UFD witness Q' lies on the chain."""
    for v, supports, report, dot, _ in analyzed:
        nodes, edges = parse_dot(dot)
        top = frozenset(NAMES[:v])
        mins = {frozenset(p["gens"]) for p in report["minimal_primes"]}
        ass = {frozenset(p) for p in report["associated_primes"]}
        chain = [frozenset(p) for p in report["witnesses"]["chain"] or ()]
        assert set(nodes) == ass | {top} | set(chain), report["ring"]
        assert edges == set(zip(chain, chain[1:])), report["ring"]
        assert all(p < q and len(q - p) == 1 for p, q in edges)
        for node, attrs in nodes.items():
            assert ("shape=box" in attrs) == (node in mins)
            assert ("style=filled" in attrs) == (node in ass)
            assert ("penwidth=2" in attrs) == (node == top)
        q_prime = report["witnesses"]["ufd_witness_prime"]
        if q_prime is not None:
            assert frozenset(q_prime) == chain[-2], report["ring"]


# -- monomial ideals with exponents up to 2 --

def exponent_antichains(v):
    """Every antichain of {0,1,2}^v under divisibility but the unit
    ideal's, each a tuple of exponent vectors in lexicographic order; the
    empty one is the zero ideal. A vector can only divide a later one."""
    points = list(product(range(3), repeat=v))[1:]

    def extend(chosen, start):
        yield chosen
        for k in range(start, len(points)):
            if not any(all(x <= y for x, y in zip(a, points[k]))
                       for a in chosen):
                yield from extend(chosen + (points[k],), k + 1)
    return extend((), 0)


def corner_oracle(v, gens):
    """(components, Ass, Min) of the ideal these vectors generate, by brute
    force: the components are the minimal irreducible C_a =
    (x_i^a_i : a_i > 0) containing it with a in {0,1,2}^v. That is exact,
    as monomial ideals form a distributive lattice, so an irreducible one
    that contains an intersection contains one of its terms."""
    def contains(a, b):
        return all(0 < x <= y for x, y in zip(a, b) if y)
    corners = [a for a in product(range(3), repeat=v)
               if all(any(0 < x <= y for x, y in zip(a, g)) for g in gens)]
    comps = {a for a in corners
             if not any(b != a and contains(a, b) for b in corners)}
    ass = {frozenset(NAMES[i] for i, x in enumerate(a) if x) for a in comps}
    return comps, ass, {p for p in ass if not any(q < p for q in ass)}


@pytest.fixture(scope="module")
def exponent_census():
    """(v, generators, MonomialIdeal, JSON report) of every ideal."""
    as_json = _Runner(AnalysisConfig(), "json")
    results = []
    for v in range(1, 4):
        c = ctx(*NAMES[:v])
        for gens in exponent_antichains(v):
            polys = [Polynomial(QQ, c, ((1, e),)) for e in gens]
            a = _Analysis.from_presentation(RingPresentation(QQ, c, polys))
            results.append((v, gens, MonomialIdeal(c, gens),
                            json.loads(as_json.do_analyze(a))))
    return results


def test_exponent_census_size(exponent_census):
    """Antichains in the 3-, 3x3- and 3x3x3-grids (MacMahon's box
    formula: 4, 20 and 980), less the unit ideal."""
    sizes = [sum(1 for v, *_ in exponent_census if v == n) for n in (1, 2, 3)]
    assert sizes == [3, 19, 979]
    assert sum(not ideal.is_squarefree for _, _, ideal, _ in exponent_census) > 900


def test_exponent_census_matches_the_corner_oracle(exponent_census):
    """Components, Ass, Min and dim by brute force; depth_ge2 by the pair
    graph of conftest.ref_depth."""
    wrong = []
    for v, gens, ideal, report in exponent_census:
        comps, ass, mins = corner_oracle(v, gens)
        found = ideal.irreducible_components()
        observed = (
            sorted(found), len(set(found)) == len(found),
            {frozenset(p) for p in report["associated_primes"]},
            {frozenset(p["gens"]) for p in report["minimal_primes"]},
            report["dim"], report["conditions"]["depth_ge2"])
        if observed != (sorted(comps), True, ass, mins,
                        brute_dimension(gens, v), ref_depth(ideal)):
            wrong.append(report["ring"])
    assert wrong == []
