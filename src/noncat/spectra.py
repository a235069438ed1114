"""Saturated avoidance chains of monomial primes, read off a monomial
ideal's Min and Ass, the noncatenarity profile, and the renderings: DOT,
JSON and text of the poset of monomial primes containing the ideal, and
DOT of chains, which also draws the CLI's witness diagram.

Every function here takes a `MonomialIdeal`. Chain construction walks
upward one variable at a time, keeping each interior node outside Ass and
above a unique minimal prime; these are exactly the properties the
downstream classifiers certify. The poset, whose nodes are the variable
subsets that meet every generator's support, ordered by inclusion, is
only rendered, for the `poset` command: each rendering walks it once with
`build_poset`, which stops above MAX_POSET_VARS variables. It is graded,
every covering step adding exactly one variable.
"""

from __future__ import annotations

import json
from itertools import combinations

from .errors import BudgetExceededError, ChainInfeasibleError, DegenerateInputError
from .monomial import MonomialPrime
from .poly import _Value

MAX_POSET_VARS = 16


def _mask(prime):
    """The prime's variable subset as a bitmask, bit i for variable i."""
    return sum(1 << i for i in prime.indices)


def build_poset(ideal):
    """(mask, indices) of every node of the poset of monomial primes
    containing the ideal, in canonical order, bit i of the mask standing
    for variable i. Subsets come rank by rank, each rank in the
    lexicographic order of `combinations`, which is the order of
    `MonomialPrime.sort_key`. The walk over all 2^v variable subsets is
    capped at MAX_POSET_VARS variables, checked before it starts."""
    if ideal.is_unit:
        raise DegenerateInputError("the unit ideal has an empty spectrum")
    v = ideal.context.count
    if v > MAX_POSET_VARS:
        raise BudgetExceededError(
            f"poset over {v} variables exceeds the cap of "
            f"{MAX_POSET_VARS} (2^{v} nodes)")
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in ideal.gens]
    bits = [1 << i for i in range(v)]
    nodes = []
    for rank in range(v + 1):
        for indices, combo in zip(combinations(range(v), rank),
                                  combinations(bits, rank)):
            mask = sum(combo)
            for s in supports:  # all(...) with a generator is 4x slower
                if not mask & s:
                    break
            else:
                nodes.append((mask, indices))
    return nodes


class PrimeChain(_Value):
    """Strictly increasing chain of monomial primes; a constructed chain
    starts at a minimal prime, whose height is 0."""

    __slots__ = ("context", "primes")

    def __init__(self, context, primes):
        self.context = context
        self.primes = primes

    @property
    def length(self):
        return len(self.primes) - 1

    @property
    def dims(self):
        v = self.context.count
        return tuple(p.quotient_dim(v) for p in self.primes)

    def render(self):
        return " < ".join(p.render(self.context) for p in self.primes)

    def __str__(self):
        return self.render()


def _top(ideal):
    """The maximal ideal, generated by every variable."""
    return MonomialPrime(frozenset(range(ideal.context.count)))


def construct_chain(ideal, start):
    """Saturated chain from a minimal prime of the monomial ideal up to the
    maximal ideal, of length dim(T/P), every interior node avoiding Ass and
    containing no minimal prime besides the start.

    Deterministic: at each step the smallest eligible variable in declared
    order is added. A step with no eligible variable raises, naming the
    step, rather than silently relaxing the avoidance properties.
    """
    ctx = ideal.context
    mins = ideal.minimal_primes()
    if start not in mins:
        raise DegenerateInputError(
            f"{start.render(ctx)} is not a minimal prime of the ideal")
    v = ctx.count
    n = start.quotient_dim(v)
    if n < 1:
        raise DegenerateInputError("the start prime is already maximal")
    if ideal.maximal_ideal_associated():
        raise DegenerateInputError(
            "the maximal ideal is associated; no avoidance chain exists")
    ass = set(ideal.associated_primes())
    chain = [start]
    current = start.indices
    for step in range(1, n):
        found = None
        for i in range(v):
            if i in current:
                continue
            candidate = MonomialPrime(current | {i})
            if candidate in ass:
                continue
            below = [p for p in mins if candidate.contains(p)]
            if below != [start]:
                continue
            found = candidate
            break
        if found is None:
            raise ChainInfeasibleError(
                f"no eligible variable at step {step} above "
                f"{MonomialPrime(current).render(ctx)}",
                step=step, node=MonomialPrime(current))
        chain.append(found)
        current = found.indices
    chain.append(_top(ideal))
    return PrimeChain(ctx, tuple(chain))


def verify_chain(ideal, chain, start=None):
    """Independent checks of a chain against the monomial ideal; returns a
    list of problems, empty when the chain is valid."""
    problems = []
    primes = chain.primes
    ctx = ideal.context
    if len(primes) < 2:
        problems.append("chain has fewer than two nodes")
        return problems
    first, last = primes[0], primes[-1]
    mins = ideal.minimal_primes()
    if start is not None and first != start:
        problems.append("chain does not start at the requested prime")
    if first not in mins:
        problems.append(f"start {first.render(ctx)} is not a minimal prime")
    if last != _top(ideal):
        problems.append("chain does not end at the maximal ideal")
    if chain.length != first.quotient_dim(ctx.count):
        problems.append(
            f"length {chain.length} differs from dim(T/P) = "
            f"{first.quotient_dim(ctx.count)}")
    ass = set(ideal.associated_primes())
    for a, b in zip(primes, primes[1:]):
        if not (a.indices < b.indices):
            problems.append(f"{b.render(ctx)} does not strictly contain "
                            f"{a.render(ctx)}")
        elif len(b.indices) - len(a.indices) != 1:
            problems.append(f"step {a.render(ctx)} -> {b.render(ctx)} "
                            "is not saturated")
        if not all(b.contains_exps(g) for g in ideal.gens):
            problems.append(f"{b.render(ctx)} does not contain the ideal")
    for q in primes[1:-1]:
        if q in ass:
            problems.append(f"interior node {q.render(ctx)} is associated")
        below = [p for p in mins if q.contains(p)]
        if below != [first]:
            problems.append(
                f"interior node {q.render(ctx)} contains minimal primes "
                f"{[p.render(ctx) for p in below]} instead of only the start")
    return problems


def noncat_profile(ideal):
    """The multiset of dim(T/P) over the minimal primes, descending. Its
    largest entry is dim T, and saturated chain lengths from (0) to the
    maximal ideal in any domain completing to T are confined to it."""
    v = ideal.context.count
    return tuple(sorted((p.quotient_dim(v) for p in ideal.minimal_primes()),
                        reverse=True))


# -- whole-poset and chain renderings --

def _marks(ideal):
    """Min, Ass and the maximal ideal of the monomial ideal as variable
    masks."""
    return ({_mask(p) for p in ideal.minimal_primes()},
            {_mask(p) for p in ideal.associated_primes()},
            (1 << ideal.context.count) - 1)


def _quoted(label):
    return '"' + label.replace('"', '\\"') + '"'


def _covers(masks, var_count):
    """(p, q) for every node p in the given order and every upper cover q
    of p, by added variable; an upper cover of a node is a node."""
    bits = [1 << i for i in range(var_count)]
    for p in masks:
        for bit in bits:
            if not p & bit:
                yield p, p | bit


def _rows(ideal):
    """(mask, names, dim, height) of every node, in canonical order. The
    height is the largest rank drop to a minimal prime below the node."""
    names = ideal.context.names
    v = ideal.context.count
    mins = [(_mask(p), len(p.indices)) for p in ideal.minimal_primes()]
    for mask, indices in build_poset(ideal):
        rank = len(indices)
        lowest = min(r for m, r in mins if m & mask == m)
        yield mask, [names[i] for i in indices], v - rank, rank - lowest


def _digraph(name, marks, labels, edges):
    """The one DOT writer: a node per (mask, quoted label) of `labels`,
    boxed if minimal, filled if associated and bold if maximal by `marks`,
    and an edge per (mask, mask) pair of `edges`."""
    mins, ass, top = marks
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for mask, label in labels.items():
        attrs = []
        if mask in mins:
            attrs.append("shape=box")
        if mask in ass:
            attrs.append("style=filled,fillcolor=lightgray")
        if mask == top:
            attrs.append("penwidth=2")
        lines.append(f"  {label} [{','.join(attrs)}];" if attrs
                     else f"  {label};")
    for p, q in edges:
        lines.append(f"  {labels[p]} -> {labels[q]};")
    lines.append("}")
    return "\n".join(lines)


def poset_dot(ideal):
    """DOT digraph of the monomial ideal's whole poset, edges being
    covering relations; minimal primes boxed, associated primes filled,
    the maximal ideal bold."""
    names = ideal.context.names
    labels = {mask: _quoted(MonomialPrime.label([names[i] for i in indices]))
              for mask, indices in build_poset(ideal)}
    return _digraph("spec_poset", _marks(ideal), labels,
                    _covers(labels, ideal.context.count))


def poset_json(ideal):
    """JSON document of the monomial ideal's whole poset: every node with
    its generators, dim, height and Min/Ass flags, and every covering
    relation."""
    mins, ass, _ = _marks(ideal)
    gens = {}  # mask -> its generators, encoded once for all its edges
    nodes = []
    for mask, names, dim, height in _rows(ideal):
        gens[mask] = json.dumps(names)
        nodes.append({"gens": names, "dim": dim, "height": height,
                      "minimal": mask in mins, "associated": mask in ass})
    edges = ", ".join(f"[{gens[p]}, {gens[q]}]"
                      for p, q in _covers(gens, ideal.context.count))
    return f'{{"nodes": {json.dumps(nodes)}, "edges": [{edges}]}}'


def poset_text(ideal):
    """One line per node of the monomial ideal's poset: the prime, its dim
    and height, and its marks."""
    mins, ass, top = _marks(ideal)
    lines = []
    for mask, names, dim, height in _rows(ideal):
        marks = [mark for mark, on in (("min", mask in mins),
                                       ("ass", mask in ass),
                                       ("max", mask == top)) if on]
        suffix = f"  [{','.join(marks)}]" if marks else ""
        lines.append(f"{MonomialPrime.label(names)}  dim {dim}  "
                     f"height {height}{suffix}")
    return "\n".join(lines)


def chain_dot(ideal, chains):
    """DOT digraph of just the given chains of the monomial ideal, marked
    as in `poset_dot`. Chains meet at shared nodes, and a step shared by
    several chains is one edge; a length-0 chain adds its node alone."""
    ctx = ideal.context
    nodes = sorted({p for chain in chains for p in chain.primes},
                   key=lambda p: p.sort_key)
    steps = dict.fromkeys((_mask(a), _mask(b)) for chain in chains
                          for a, b in zip(chain.primes, chain.primes[1:]))
    return _digraph("prime_chains", _marks(ideal),
                    {_mask(p): _quoted(p.render(ctx)) for p in nodes}, steps)
