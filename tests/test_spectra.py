"""Spectrum posets, saturated avoidance chains, profiles and DOT output."""

import itertools
import json
import random
import re

import pytest

from noncat.analyzer import AnalysisConfig, _Analysis
from noncat.cli import _Runner
from noncat.errors import (
    BudgetExceededError,
    ChainInfeasibleError,
    DegenerateInputError,
)
from noncat.monomial import MonomialIdeal, MonomialPrime
from noncat.poly import RingPresentation
from noncat.spectra import (
    MAX_POSET_VARS,
    PrimeChain,
    build_poset,
    chain_dot,
    construct_chain,
    noncat_profile,
    poset_dot,
    poset_json,
    poset_text,
    verify_chain,
)

from conftest import QQ, ctx, random_monomial_ideal, ref_height


def family_ideal(a, b):
    """(x*y1, .., x*ya) over x, y1..ya, z1..zb."""
    names = ["x"] + [f"y{i}" for i in range(1, a + 1)] \
        + [f"z{i}" for i in range(1, b + 1)]
    c = ctx(*names)
    v = len(names)
    gens = []
    for i in range(1, a + 1):
        e = [0] * v
        e[0] = 1
        e[i] = 1
        gens.append(tuple(e))
    return MonomialIdeal(c, gens)


def names_of(chain):
    return [p.names(chain.context) for p in chain.primes]


def nodes_of(ideal):
    """Every node of the ideal's poset as a prime, in canonical order."""
    return tuple(MonomialPrime(frozenset(indices))
                 for _, indices in build_poset(ideal))


class TestBuildPoset:
    def test_two_plane_example(self):
        c = ctx("x", "y", "z", "v")
        ideal = MonomialIdeal(c, ((1, 1, 0, 0), (1, 0, 1, 0)))
        nodes = nodes_of(ideal)
        assert MonomialPrime.of(c, "x") in nodes
        assert MonomialPrime.of(c, "y", "z") in nodes
        assert nodes[-1] == MonomialPrime.of(c, "x", "y", "z", "v")
        assert len(nodes) == 10
        assert all(any(p.contains(m) for m in ideal.minimal_primes())
                   for p in nodes)

    def test_zero_ideal_full_boolean_lattice(self):
        c = ctx("x", "y")
        nodes = nodes_of(MonomialIdeal(c, ()))
        assert len(nodes) == 4
        assert MonomialPrime(frozenset()) in nodes

    def test_maximal_ideal_single_node(self):
        c = ctx("x", "y")
        assert nodes_of(MonomialIdeal(c, ((1, 0), (0, 1)))) \
            == (MonomialPrime.of(c, "x", "y"),)

    def test_unit_ideal_has_empty_spectrum(self):
        unit = MonomialIdeal(ctx("x", "y"), ((0, 0),))
        assert unit.is_unit
        with pytest.raises(DegenerateInputError, match="empty spectrum"):
            build_poset(unit)

    def test_variable_cap(self):
        """16 variables are walked, 17 stop before the walk starts."""
        assert MAX_POSET_VARS == 16
        at_cap = MonomialIdeal(ctx(*[f"v{i}" for i in range(16)]),
                               ((1,) * 16,))
        assert len(build_poset(at_cap)) == 2 ** 16 - 1
        with pytest.raises(BudgetExceededError, match="17 variables"):
            build_poset(MonomialIdeal(ctx(*[f"v{i}" for i in range(17)]), ()))
        # the cap guards only the 2^v node list; chains need no poset
        zero = MonomialIdeal(ctx(*[f"v{i}" for i in range(18)]), ())
        chain = construct_chain(zero, MonomialPrime(frozenset()))
        assert chain.length == 18


def row_heights(ideal):
    """The height of every node, by its generators, in the poset_json
    rows; the poset_text rows give the same heights in the same order."""
    rows = json.loads(poset_json(ideal))["nodes"]
    text = [int(line.split("  height ")[1].split()[0])
            for line in poset_text(ideal).splitlines()]
    assert [row["height"] for row in rows] == text
    return {tuple(row["gens"]): row["height"] for row in rows}


class TestHeight:
    def test_family_height(self):
        for a, b in ((2, 2), (3, 2), (2, 3)):
            ideal = family_ideal(a, b)
            q = MonomialPrime.of(ideal.context,
                                 *[f"y{i}" for i in range(1, a + 1)],
                                 *[f"z{i}" for i in range(1, b + 1)])
            height = row_heights(ideal)[q.names(ideal.context)]
            assert height == b == ref_height(ideal, q)

    def test_minimal_primes_have_height_zero(self):
        ideal = family_ideal(2, 2)
        heights = row_heights(ideal)
        for p in ideal.minimal_primes():
            assert heights[p.names(ideal.context)] == 0

    def test_top_height_is_dim(self):
        c = ctx("x", "y", "z", "v")
        ideal = MonomialIdeal(c, ((1, 1, 0, 0), (1, 0, 1, 0)))
        assert row_heights(ideal)[("x", "y", "z", "v")] == 3

    def test_non_node_rejected(self):
        """A prime that does not contain the ideal gets no row."""
        c = ctx("x", "y", "z")
        ideal = MonomialIdeal(c, ((1, 1, 0),))
        heights = row_heights(ideal)
        assert ("z",) not in heights
        assert ("x", "z") in heights

    def test_height_plus_dim_bounded(self):
        rng = random.Random(314)
        for _ in range(40):
            v = rng.randint(1, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = MonomialIdeal(c, random_monomial_ideal(rng, v, 4))
            if ideal.is_unit:
                continue
            dim = ideal.dimension()
            mins = ideal.minimal_primes()
            assert max(p.quotient_dim(v) for p in mins) == dim
            for names, height in row_heights(ideal).items():
                q = MonomialPrime.of(c, *names)
                assert height == ref_height(ideal, q)
                total = height + q.quotient_dim(v)
                assert total <= dim
                below_max = any(p.quotient_dim(v) == dim
                                for p in mins if q.contains(p))
                assert (total == dim) == below_max


class TestConstructChain:
    def test_family_chain_from_deep_prime(self):
        ideal = family_ideal(2, 2)
        c = ideal.context
        chain = construct_chain(ideal, MonomialPrime.of(c, "y1", "y2"))
        assert names_of(chain) == [("y1", "y2"), ("y1", "y2", "z1"),
                                   ("y1", "y2", "z1", "z2"),
                                   ("x", "y1", "y2", "z1", "z2")]
        assert chain.length == 3

    def test_family_chain_from_line(self):
        # greedy tie-breaking picks the earliest declared eligible variable
        ideal = family_ideal(2, 2)
        c = ideal.context
        chain = construct_chain(ideal, MonomialPrime.of(c, "x"))
        assert chain.length == 4
        assert chain.primes[0] == MonomialPrime.of(c, "x")
        assert names_of(chain) == [("x",), ("x", "y1"), ("x", "y1", "z1"),
                                   ("x", "y1", "z1", "z2"),
                                   ("x", "y1", "y2", "z1", "z2")]

    def test_zero_ideal_chain(self):
        c = ctx("x", "y")
        chain = construct_chain(MonomialIdeal(c, ()),
                                MonomialPrime(frozenset()))
        assert names_of(chain) == [(), ("x",), ("x", "y")]
        assert chain.length == 2

    def test_only_minimal_primes_accepted(self):
        ideal = family_ideal(2, 2)
        with pytest.raises(DegenerateInputError):
            construct_chain(ideal, MonomialPrime.of(ideal.context, "z1"))

    def test_associated_maximal_ideal_rejected(self):
        c = ctx("x", "y")
        ideal = MonomialIdeal(c, ((2, 0), (1, 1)))  # M is associated
        with pytest.raises(DegenerateInputError):
            construct_chain(ideal, MonomialPrime.of(c, "x"))

    def test_verifier_accepts_constructed_chains(self):
        """Successful constructions verify; dead ends (interior choices
        leaving the monomial subposet) are surfaced, never relaxed."""
        rng = random.Random(2718)
        verified = 0
        infeasible = 0
        for _ in range(40):
            v = rng.randint(2, 6)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = MonomialIdeal(c, random_monomial_ideal(rng, v, 4,
                                                           squarefree=True))
            if ideal.is_unit or ideal.maximal_ideal_associated():
                continue
            for p in ideal.minimal_primes():
                if p.quotient_dim(v) < 1:
                    continue
                try:
                    chain = construct_chain(ideal, p)
                except ChainInfeasibleError as exc:
                    assert re.fullmatch(r"no eligible variable at step \d+ "
                                        r"above \(.+\)", str(exc)), exc
                    infeasible += 1
                    continue
                assert verify_chain(ideal, chain, p) == []
                verified += 1
        assert verified >= 30
        assert infeasible >= 1  # the subposet gap genuinely occurs

    def test_verifier_flags_bad_chains(self):
        ideal = family_ideal(2, 2)
        c = ideal.context
        good = construct_chain(ideal, MonomialPrime.of(c, "y1", "y2"))
        # skip a link: no longer saturated and too short
        broken = PrimeChain(c, (good.primes[0], good.primes[2],
                                good.primes[3]))
        assert verify_chain(ideal, broken) != []
        # interior node picking up a second minimal prime
        detour = PrimeChain(c, (good.primes[0],
                                MonomialPrime.of(c, "x", "y1", "y2"),
                                MonomialPrime.of(c, "x", "y1", "y2", "z1"),
                                good.primes[3]))
        assert any("minimal primes" in p for p in verify_chain(ideal, detour))
        # nodes that miss a generator x*y_i do not contain the ideal
        outside = PrimeChain(c, tuple(MonomialPrime.of(c, *names) for names in (
            ("z1",), ("z1", "z2"), ("y1", "z1", "z2"),
            ("x", "y1", "z1", "z2"), ("x", "y1", "y2", "z1", "z2"))))
        problems = verify_chain(ideal, outside)
        assert "(z1,z2) does not contain the ideal" in problems
        assert "(y1,z1,z2) does not contain the ideal" in problems
        assert not any(p.startswith("(x,y1,z1,z2) does not")
                       for p in problems)


class TestProfile:
    def test_two_plane_profile(self):
        c = ctx("x", "y", "z", "v")
        assert noncat_profile(MonomialIdeal(c, ((1, 1, 0, 0), (1, 0, 1, 0)))) \
            == (3, 2)

    def test_catenary_family_profile(self):
        for n in (2, 3, 5):
            ideal = family_ideal(n, 0)
            assert noncat_profile(ideal) == (n, 1)

    def test_parameterized_profile(self):
        # a = n - m + 1, b = m - 1 puts the two chain lengths at n and m
        for m, n in ((2, 3), (3, 5), (4, 9)):
            ideal = family_ideal(n - m + 1, m - 1)
            assert noncat_profile(ideal) == (n, m)

    def test_profile_consistency(self):
        rng = random.Random(161803)
        for _ in range(40):
            v = rng.randint(1, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = MonomialIdeal(c, random_monomial_ideal(rng, v, 4))
            if ideal.is_unit:
                continue
            profile = noncat_profile(ideal)
            assert max(profile) == ideal.dimension()
            assert len(profile) == len(ideal.minimal_primes())
            assert profile == tuple(sorted(profile, reverse=True))


class TestGradedness:
    def test_saturated_chains_have_rank_length(self):
        """Exhaustive: every saturated chain between comparable nodes has
        length equal to the rank difference."""
        rng = random.Random(55)
        for _ in range(10):
            v = rng.randint(2, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = MonomialIdeal(c, random_monomial_ideal(rng, v, 3,
                                                           squarefree=True))
            if ideal.is_unit:
                continue
            nodes = nodes_of(ideal)
            node_set = set(nodes)

            def upper_covers(prime):
                """The primes one variable above, nodes or not."""
                return [MonomialPrime(prime.indices | {i})
                        for i in range(v) if i not in prime.indices]

            def saturated_lengths(lo, hi):
                if lo == hi:
                    yield 0
                    return
                for q in upper_covers(lo):
                    if q in node_set and q.indices <= hi.indices:
                        for rest in saturated_lengths(q, hi):
                            yield rest + 1

            pairs = 0
            for lo, hi in itertools.combinations(nodes, 2):
                if lo.indices < hi.indices:
                    pairs += 1
                    expected = len(hi.indices) - len(lo.indices)
                    assert set(saturated_lengths(lo, hi)) == {expected}
                    if pairs > 25:
                        break


class TestDot:
    def test_single_node_digraph(self):
        c = ctx("x", "y")
        dot = poset_dot(MonomialIdeal(c, ((1, 0), (0, 1))))
        assert dot.startswith("digraph")
        assert '"(x,y)"' in dot
        assert "->" not in dot

    def test_two_chains_meeting_at_top(self):
        ideal = family_ideal(2, 2)
        c = ideal.context
        left = construct_chain(ideal, MonomialPrime.of(c, "x"))
        right = construct_chain(ideal, MonomialPrime.of(c, "y1", "y2"))
        assert (left.length, right.length) == (4, 3)
        dot = chain_dot(ideal, [left, right])
        edges = [line for line in dot.splitlines() if "->" in line]
        assert len(edges) == 7  # the chains share only the top node
        assert dot.count("shape=box") == 2  # both minimal primes marked

    def test_edge_count_equals_chain_length(self):
        ideal = family_ideal(3, 2)
        for p in ideal.minimal_primes():
            chain = construct_chain(ideal, p)
            dot = chain_dot(ideal, [chain])
            edges = [line for line in dot.splitlines() if "->" in line]
            assert len(edges) == chain.length

    def test_deterministic_output(self):
        assert poset_dot(family_ideal(2, 2)) == poset_dot(family_ideal(2, 2))


# -- reference renderings: the frozenset algorithm the mask walk replaced --

def ref_nodes(ideal):
    """Every node by brute force over frozenset subsets, sorted."""
    v = ideal.context.count
    supports = [frozenset(i for i, e in enumerate(g) if e)
                for g in ideal.gens]
    found = []
    for r in range(v + 1):
        for subset in itertools.combinations(range(v), r):
            subset = frozenset(subset)
            if all(subset & s for s in supports):
                found.append(MonomialPrime(subset))
    found.sort(key=lambda p: p.sort_key)
    return tuple(found)


def ref_marks(ideal):
    """Min, Ass and the maximal ideal of the ideal."""
    return (ideal.minimal_primes(), ideal.associated_primes(),
            MonomialPrime(frozenset(range(ideal.context.count))))


def ref_covers(ideal, p):
    return [MonomialPrime(p.indices | {i})
            for i in range(ideal.context.count) if i not in p.indices]


def ref_digraph(name, ideal, nodes, edges):
    """DOT of the primes `nodes` and the (prime, prime) pairs `edges`,
    marked by ref_marks."""
    ctx = ideal.context
    mins, ass, top = ref_marks(ideal)
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for p in nodes:
        attrs = []
        if p in mins:
            attrs.append("shape=box")
        if p in ass:
            attrs += ["style=filled", "fillcolor=lightgray"]
        if p == top:
            attrs.append("penwidth=2")
        suffix = f" [{','.join(attrs)}]" if attrs else ""
        lines.append(f'  "{p.render(ctx)}"{suffix};')
    for p, q in edges:
        lines.append(f'  "{p.render(ctx)}" -> "{q.render(ctx)}";')
    lines.append("}")
    return "\n".join(lines)


def ref_poset_dot(ideal):
    nodes = ref_nodes(ideal)
    return ref_digraph("spec_poset", ideal, nodes,
                       [(p, q) for p in nodes for q in ref_covers(ideal, p)])


def ref_chain_dot(ideal, chains):
    """The chains' primes, rank by rank and lexicographic within a rank,
    and each step once, in the order the chains first take it."""
    nodes = sorted({p for chain in chains for p in chain.primes},
                   key=lambda p: (len(p.indices), sorted(p.indices)))
    steps = []
    for chain in chains:
        for step in zip(chain.primes, chain.primes[1:]):
            if step not in steps:
                steps.append(step)
    return ref_digraph("prime_chains", ideal, nodes, steps)


def ref_poset_json(ideal):
    ctx = ideal.context
    mins, ass, _ = ref_marks(ideal)
    nodes = ref_nodes(ideal)
    return json.dumps({
        "nodes": [{"gens": list(p.names(ctx)),
                   "dim": p.quotient_dim(ctx.count),
                   "height": ref_height(ideal, p),
                   "minimal": p in mins,
                   "associated": p in ass} for p in nodes],
        "edges": [[list(p.names(ctx)), list(q.names(ctx))]
                  for p in nodes for q in ref_covers(ideal, p)],
    })


def ref_poset_text(ideal):
    ctx = ideal.context
    mins, ass, top = ref_marks(ideal)
    lines = []
    for p in ref_nodes(ideal):
        marks = [m for m, on in (("min", p in mins), ("ass", p in ass),
                                 ("max", p == top)) if on]
        suffix = f"  [{','.join(marks)}]" if marks else ""
        lines.append(f"{p.render(ctx)}  dim {p.quotient_dim(ctx.count)}  "
                     f"height {ref_height(ideal, p)}{suffix}")
    return "\n".join(lines)


def oracle_ideals():
    """Seeded random monomial ideals in 1-7 variables, with the zero
    ideal, one-variable rings and ideals with embedded primes."""
    yield MonomialIdeal(ctx("x", "y", "z"), ())
    yield MonomialIdeal(ctx("x"), ())
    yield MonomialIdeal(ctx("x"), ((3,),))
    yield MonomialIdeal(ctx("x", "y"), ((2, 0), (1, 1)))  # (x) and (x,y)
    yield MonomialIdeal(ctx("x", "y", "z"), ((2, 1, 0), (1, 0, 1)))
    rng = random.Random(1729)
    for _ in range(30):
        v = rng.randint(1, 7)
        c = ctx(*[f"v{i}" for i in range(v)])
        ideal = MonomialIdeal(c, random_monomial_ideal(
            rng, v, 4, squarefree=rng.random() < 0.5))
        if not ideal.is_unit:
            yield ideal


def poset_chains(ideal):
    """Every avoidance chain the ideal admits, from each minimal prime."""
    chains = []
    for p in ideal.minimal_primes():
        try:
            chains.append(construct_chain(ideal, p))
        except (ChainInfeasibleError, DegenerateInputError):
            pass
    return chains


class TestRenderingsMatchReference:
    """build_poset, poset_dot and the CLI's JSON and text poset output
    equal the frozenset renderings byte for byte."""

    @pytest.fixture(scope="class")
    def ideals(self):
        return list(oracle_ideals())

    def test_cases_cover_embedded_primes_and_chains(self, ideals):
        """Some ideal has an embedded prime, and the ideals admit enough
        chains for test_chain_dot to draw."""
        assert len(ideals) >= 30
        assert any(len(i.associated_primes()) > len(i.minimal_primes())
                   for i in ideals)
        assert sum(len(poset_chains(i)) for i in ideals) >= 15

    def test_nodes(self, ideals):
        for ideal in ideals:
            assert nodes_of(ideal) == ref_nodes(ideal)

    def test_poset_dot(self, ideals):
        for ideal in ideals:
            assert poset_dot(ideal) == ref_poset_dot(ideal)

    def test_chain_dot(self, ideals):
        """Every chain the ideal admits, drawn alone and all together; the
        coverage test counts the chains drawn here."""
        for ideal in ideals:
            chains = poset_chains(ideal)
            for chain in chains:
                assert chain_dot(ideal, [chain]) == ref_chain_dot(ideal,
                                                                  [chain])
            assert chain_dot(ideal, chains) == ref_chain_dot(ideal, chains)

    @pytest.mark.parametrize("fmt,reference", [("json", ref_poset_json),
                                               ("text", ref_poset_text)],
                             ids=["json", "text"])
    def test_cli_poset_output(self, ideals, fmt, reference):
        """The poset command renders the monomial ideal of the ring's own
        analysis."""
        runner = _Runner(AnalysisConfig(), fmt)
        for ideal in ideals:
            ring = RingPresentation(QQ, ideal.context, ideal.to_polynomials(QQ))
            assert runner.do_poset(_Analysis.from_presentation(ring)) \
                == reference(ideal)
