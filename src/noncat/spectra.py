"""The poset of monomial primes containing a monomial ideal: heights,
saturated chains with avoidance properties, the noncatenarity profile,
DOT, JSON and text renderings of the poset, and DOT renderings of chains.

Nodes are variable subsets that meet every generator's support, ordered
by inclusion; the poset is graded, every covering step adding exactly
one variable. Chain construction walks upward one variable at a time,
keeping each interior node outside Ass and above a unique minimal prime;
these are exactly the properties the downstream classifiers certify.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, ChainInfeasibleError, DegenerateInputError
from .monomial import MonomialPrime

DEFAULT_MAX_POSET_VARS = 16


def _mask(prime):
    """The prime's variable subset as a bitmask, bit i for variable i."""
    return sum(1 << i for i in prime.indices)


class SpecPoset:
    """Finite poset of the monomial primes containing a monomial ideal,
    with the minimal and associated primes marked. Heights and chains need
    no node list; only the walk over all 2^v variable subsets, behind
    `nodes` and the whole-poset renderings, is capped at `max_vars`
    variables."""

    def __init__(self, ideal, max_vars=DEFAULT_MAX_POSET_VARS):
        if ideal.is_unit:
            raise DegenerateInputError("the unit ideal has an empty spectrum")
        self.ideal = ideal
        self.context = ideal.context
        self.max_vars = max_vars
        self.min_primes = ideal.minimal_primes()
        self.ass_primes = ideal.associated_primes()
        self.top = MonomialPrime(frozenset(range(ideal.context.count)))
        self._support_masks = [sum(1 << i for i, e in enumerate(g) if e)
                               for g in ideal.gens]

    def _walk(self):
        """(mask, indices) of every node in canonical order, bit i of the
        mask standing for variable i. Subsets come rank by rank, each rank
        in the lexicographic order of `combinations`, which is the order
        of `MonomialPrime.sort_key`. Keeps nothing, so a poset shared by
        several commands does not hold its nodes for the rest of a
        script."""
        v = self.context.count
        if v > self.max_vars:
            raise BudgetExceededError(
                f"poset over {v} variables exceeds the cap of "
                f"{self.max_vars} (2^{v} nodes)")
        supports = self._support_masks
        bits = [1 << i for i in range(v)]
        for rank in range(v + 1):
            for indices, combo in zip(combinations(range(v), rank),
                                      combinations(bits, rank)):
                mask = sum(combo)
                for s in supports:  # all(...) with a generator is 4x slower
                    if not mask & s:
                        break
                else:
                    yield mask, indices

    def nodes(self):
        """Every node, in canonical order."""
        return tuple(MonomialPrime(frozenset(indices))
                     for _, indices in self._walk())

    def is_node(self, prime):
        mask = _mask(prime)
        return all(mask & s for s in self._support_masks)

    def height(self, prime):
        """Height inside the quotient ring: the best drop from a minimal
        prime below, dim(T/P) - dim(T/Q). Valid because the quotient by a
        monomial prime is a power series ring, hence catenary."""
        if not self.is_node(prime):
            raise DegenerateInputError(
                f"{prime.render(self.context)} does not contain the ideal")
        below = [p for p in self.min_primes if prime.contains(p)]
        if not below:
            raise AssertionError("poset node without a minimal prime below")
        return max(len(prime.indices) - len(p.indices) for p in below)


def build_poset(ideal, max_vars=DEFAULT_MAX_POSET_VARS):
    return SpecPoset(ideal, max_vars)


@dataclass(frozen=True)
class PrimeChain:
    """Strictly increasing chain of monomial primes with its annotations."""

    context: object
    primes: tuple
    start_height: int

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


def construct_chain(poset, start):
    """Saturated chain from a minimal prime up to the maximal ideal, of
    length dim(T/P), every interior node avoiding Ass and containing no
    minimal prime besides the start.

    Deterministic: at each step the smallest eligible variable in declared
    order is added. A step with no eligible variable raises, naming the
    step, rather than silently relaxing the avoidance properties.
    """
    if start not in poset.min_primes:
        raise DegenerateInputError(
            f"{start.render(poset.context)} is not a minimal prime of the ideal")
    v = poset.context.count
    n = start.quotient_dim(v)
    if n < 1:
        raise DegenerateInputError("the start prime is already maximal")
    if poset.top in poset.ass_primes:
        raise DegenerateInputError(
            "the maximal ideal is associated; no avoidance chain exists")
    ass = set(poset.ass_primes)
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
            below = [p for p in poset.min_primes if candidate.contains(p)]
            if below != [start]:
                continue
            found = candidate
            break
        if found is None:
            raise ChainInfeasibleError(
                f"no eligible variable at step {step} above "
                f"{MonomialPrime(current).render(poset.context)}",
                step=step, node=MonomialPrime(current))
        chain.append(found)
        current = found.indices
    chain.append(poset.top)
    return PrimeChain(poset.context, tuple(chain), poset.height(start))


def verify_chain(poset, chain, start=None):
    """Independent checks on a constructed chain; returns a list of
    problems, empty when the chain is valid."""
    problems = []
    primes = chain.primes
    ctx = poset.context
    if len(primes) < 2:
        problems.append("chain has fewer than two nodes")
        return problems
    first, last = primes[0], primes[-1]
    if start is not None and first != start:
        problems.append("chain does not start at the requested prime")
    if first not in poset.ideal.minimal_primes():
        problems.append(f"start {first.render(ctx)} is not a minimal prime")
    if last != MonomialPrime(frozenset(range(ctx.count))):
        problems.append("chain does not end at the maximal ideal")
    if chain.length != first.quotient_dim(ctx.count):
        problems.append(
            f"length {chain.length} differs from dim(T/P) = "
            f"{first.quotient_dim(ctx.count)}")
    ass = set(poset.ideal.associated_primes())
    mins = poset.ideal.minimal_primes()
    for a, b in zip(primes, primes[1:]):
        if not (a.indices < b.indices):
            problems.append(f"{b.render(ctx)} does not strictly contain "
                            f"{a.render(ctx)}")
        elif len(b.indices) - len(a.indices) != 1:
            problems.append(f"step {a.render(ctx)} -> {b.render(ctx)} "
                            "is not saturated")
        if not poset.is_node(b):
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

def _marks(poset):
    """Min, Ass and the maximal ideal of the poset as variable masks."""
    return ({_mask(p) for p in poset.min_primes},
            {_mask(p) for p in poset.ass_primes}, _mask(poset.top))


def _node_attrs(mask, marks):
    mins, ass, top = marks
    attrs = []
    if mask in mins:
        attrs.append("shape=box")
    if mask in ass:
        attrs.append("style=filled")
        attrs.append("fillcolor=lightgray")
    if mask == top:
        attrs.append("penwidth=2")
    return f" [{','.join(attrs)}]" if attrs else ""


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


def _rows(poset):
    """(mask, names, dim, height) of every node, in canonical order. The
    height is the largest rank drop to a minimal prime below the node."""
    names = poset.context.names
    v = poset.context.count
    mins = [(_mask(p), len(p.indices)) for p in poset.min_primes]
    for mask, indices in poset._walk():
        rank = len(indices)
        lowest = min(r for m, r in mins if m & mask == m)
        yield mask, [names[i] for i in indices], v - rank, rank - lowest


def poset_dot(poset, highlight_chains=()):
    """DOT digraph of the whole poset, edges being covering relations;
    minimal primes boxed, associated primes filled, the maximal ideal
    bold. Optional chains are overlaid in red."""
    ctx = poset.context
    marks = _marks(poset)
    highlight = set()
    for chain in highlight_chains:
        for a, b in zip(chain.primes, chain.primes[1:]):
            highlight.add((_mask(a), _mask(b)))
    names = ctx.names
    labels = {mask: _quoted(MonomialPrime.label([names[i] for i in indices]))
              for mask, indices in poset._walk()}
    lines = ["digraph spec_poset {", "  rankdir=BT;"]
    for mask, label in labels.items():
        lines.append(f"  {label}{_node_attrs(mask, marks)};")
    for p, q in _covers(labels, ctx.count):
        extra = " [color=red,penwidth=2]" if (p, q) in highlight else ""
        lines.append(f"  {labels[p]} -> {labels[q]}{extra};")
    lines.append("}")
    return "\n".join(lines)


def poset_json(poset):
    """JSON document of the whole poset: every node with its generators,
    dim, height and Min/Ass flags, and every covering relation."""
    mins, ass, _ = _marks(poset)
    gens = {}  # mask -> its generators, encoded once for all its edges
    nodes = []
    for mask, names, dim, height in _rows(poset):
        gens[mask] = json.dumps(names)
        nodes.append({"gens": names, "dim": dim, "height": height,
                      "minimal": mask in mins, "associated": mask in ass})
    edges = ", ".join(f"[{gens[p]}, {gens[q]}]"
                      for p, q in _covers(gens, poset.context.count))
    return f'{{"nodes": {json.dumps(nodes)}, "edges": [{edges}]}}'


def poset_text(poset):
    """One line per node: the prime, its dim and height, and its marks."""
    mins, ass, top = _marks(poset)
    lines = []
    for mask, names, dim, height in _rows(poset):
        marks = [mark for mark, on in (("min", mask in mins),
                                       ("ass", mask in ass),
                                       ("max", mask == top)) if on]
        suffix = f"  [{','.join(marks)}]" if marks else ""
        lines.append(f"{MonomialPrime.label(names)}  dim {dim}  "
                     f"height {height}{suffix}")
    return "\n".join(lines)


def chain_dot(poset, chains):
    """DOT digraph of just the given chains (they meet at shared nodes);
    edge count equals the sum of the chain lengths."""
    ctx = poset.context
    marks = _marks(poset)
    nodes = {p for chain in chains for p in chain.primes}
    labels = {p: _quoted(p.render(ctx))
              for p in sorted(nodes, key=lambda p: p.sort_key)}
    lines = ["digraph prime_chains {", "  rankdir=BT;"]
    for p, label in labels.items():
        lines.append(f"  {label}{_node_attrs(_mask(p), marks)};")
    seen = set()
    for chain in chains:
        for a, b in zip(chain.primes, chain.primes[1:]):
            if (a, b) not in seen:
                seen.add((a, b))
                lines.append(f"  {labels[a]} -> {labels[b]};")
    lines.append("}")
    return "\n".join(lines)
