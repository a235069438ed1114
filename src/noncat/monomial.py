"""Combinatorics of monomial ideals: one irreducible decomposition gives
Ass (its supports), Min, dim, the regular sums of variables, depth >= 2
and on request a primary decomposition; localization at monomial primes.
An irreducible monomial ideal is generated by pure powers, so it is held
as one exponent vector a, standing for (x_i^a_i : a_i > 0). The
decomposition is built one minimal generator at a time and is
irredundant after every step (Miller-Sturmfels, Combinatorial
Commutative Algebra, ch. 5).

Exact for monomial ideals, where the polynomial model and the
power-series quotient share Min, Ass, dimension and depth. All values are
immutable apart from one fill-once cache per ideal.
"""

from __future__ import annotations

import itertools
import threading

from .errors import (
    EmptyLocalizationError,
    UnitIdealError,
    UnsupportedInputError,
)
from .poly import (GREVLEX, Polynomial, VariableContext, _Value, exps_divides,
                   exps_lcm)


class MonomialPrime(_Value):
    """Prime ideal generated by a set of variables, held as the bitmask
    `mask`, bit i standing for variable i; the empty set, mask 0, is the
    zero prime of a domain."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = mask

    # primes are compared and hashed in every set of Min and Ass, so these
    # skip _fields

    def __eq__(self, other):
        if other.__class__ is not MonomialPrime:
            return NotImplemented
        return self.mask == other.mask

    def __hash__(self):
        return hash((self.mask,))

    @classmethod
    def of(cls, context, *names):
        return cls(sum({1 << context.index(n) for n in names}))

    @classmethod
    def maximal(cls, var_count):
        """The maximal ideal, generated by every variable."""
        return cls((1 << var_count) - 1)

    @property
    def support(self):
        """The indices of the prime's variables, ascending."""
        m = self.mask
        return tuple([i for i in range(m.bit_length()) if m >> i & 1])

    @property
    def sort_key(self):
        return (self.mask.bit_count(), self.support)

    def quotient_dim(self, var_count):
        """dim of the residue ring modulo this prime: variables minus rank."""
        return var_count - self.mask.bit_count()

    def contains(self, other):
        return other.mask & self.mask == other.mask

    def names(self, context):
        m = self.mask
        return tuple([n for i, n in enumerate(context.names) if m >> i & 1])

    @staticmethod
    def label(names):
        """Rendering of the prime generated by the named variables."""
        return f"({','.join(names)})" if names else "(0)"

    def render(self, context):
        return self.label(self.names(context))


def support_mask(exps):
    """The variables of the monomial x^exps as a bitmask, bit i for x_i."""
    return sum(1 << i for i, x in enumerate(exps) if x)


def _minimalize(vectors):
    """Unique minimal generating set: drop any monomial divisible by
    another, deduplicate, sort by (degree, exponents)."""
    ordered = sorted(set(vectors), key=lambda e: (sum(e), e))
    kept = []
    for m in ordered:
        if not any(exps_divides(g, m) for g in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal:
    """Monomial ideal held by its unique minimal generating set."""

    __slots__ = ("context", "gens", "_lock", "_decomposition")

    def __init__(self, context, exponent_vectors):
        vectors = []
        for e in exponent_vectors:
            e = tuple(e)
            if len(e) != context.count:
                raise ValueError("exponent vector length does not match context")
            if any(x < 0 for x in e):
                raise ValueError("exponents must be nonnegative")
            vectors.append(e)
        self.context = context
        self.gens = _minimalize(vectors)
        self._lock = threading.Lock()
        self._decomposition = None

    @classmethod
    def from_polynomials(cls, context, polys):
        vectors = []
        for f in polys:
            if f.is_zero:
                continue
            if not f.is_term:
                raise UnsupportedInputError(
                    "non-monomial generator; the monomial engine only handles "
                    "ideals generated by single terms")
            vectors.append(f.pairs()[0][1])
        return cls(context, vectors)

    def to_polynomials(self, field):
        """The reduced grevlex basis: monic minimal generators, descending."""
        return tuple(Polynomial(field, self.context, ((1, e),))
                     for e in sorted(self.gens, key=GREVLEX.descending_key))

    # -- basic structure --

    @property
    def is_unit(self):
        return bool(self.gens) and not any(self.gens[0])

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_squarefree(self):
        return all(all(e <= 1 for e in g) for g in self.gens)

    def intersect(self, other):
        if self.context != other.context:
            raise ValueError("monomial ideals over different contexts")
        return MonomialIdeal(self.context, (exps_lcm(x, y) for x in self.gens
                                            for y in other.gens))

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.context == other.context and self.gens == other.gens)

    def __hash__(self):
        return hash((self.context, self.gens))

    def render(self):
        if not self.gens:
            return "(0)"
        names = self.context.names
        parts = []
        for g in self.gens:
            factors = [n if e == 1 else f"{n}^{e}"
                       for n, e in zip(names, g) if e]
            parts.append("*".join(factors) if factors else "1")
        return f"({', '.join(parts)})"

    def __repr__(self):
        return f"MonomialIdeal{self.render()}"

    # -- primes --

    def minimal_primes(self):
        """Minimal primes over the ideal: the minimal members of Ass."""
        if self.is_unit:
            raise UnitIdealError("the unit ideal has no minimal primes")
        return self._decompose()[3]

    def irreducible_components(self):
        """Irredundant irreducible decomposition, built one minimal
        generator at a time from the zero vector, the zero ideal's one
        component. A component is an exponent vector a, standing for
        (x_i^a_i : a_i > 0), and is irredundant exactly when each j in
        supp a has a critical generator g: g_j = a_j and g_l < a_l for
        every other l in supp a. A C_a that contains the next generator m
        (0 < a_i <= m_i for some i) stays, and m joins its list for j when
        j is that i alone and m_j = a_j. Any other C_a is replaced, as
        C_a + (m) is the intersection of the C_a + (x_i^m_i), by the a' = a
        with a_i := m_i for i in supp m, whose lists are those of a cut to
        g_i < m_i and [m] for i. So each a' is kept, the first of equal
        ones, exactly when no list is empty, with no containment test
        (Murakami-Uno, Discrete Appl. Math. 170, 2014)."""
        if self.is_unit:
            raise UnitIdealError("the unit ideal has no decomposition")
        comps = {(0,) * self.context.count: {}}
        for m in self.gens:
            kept, fresh = {}, {}
            for a, critical in comps.items():
                hits = [l for l, x in enumerate(a) if 0 < x <= m[l]]
                if len(hits) == 1 and a[hits[0]] == m[hits[0]]:
                    critical[hits[0]].append(m)
                if hits:
                    kept[a] = critical
                    continue
                for i in (i for i, y in enumerate(m) if y):
                    lists = {j: [g for g in gs if g[i] < m[i]]
                             for j, gs in critical.items() if j != i}
                    if all(lists.values()):
                        fresh.setdefault(a[:i] + (m[i],) + a[i + 1:],
                                         {**lists, i: [m]})
            comps = {**kept, **fresh}
        return tuple(comps)

    def _decompose(self):
        """(irreducible components, their support masks, Ass, Min),
        computed once. Ass is the set of supports of the irredundant
        irreducible components, sorted by MonomialPrime.sort_key, and Min
        its minimal members."""
        with self._lock:
            if self._decomposition is not None:
                return self._decomposition
        comps = self.irreducible_components()
        supports = tuple(map(support_mask, comps))
        ass = tuple(sorted(map(MonomialPrime, set(supports)),
                           key=lambda p: p.sort_key))
        minimal = []
        for p in ass:  # a prime below p lies over a minimal one already met
            if not any(q.mask & p.mask == q.mask for q in minimal):
                minimal.append(p)
        with self._lock:
            if self._decomposition is None:
                self._decomposition = (comps, supports, ass, tuple(minimal))
            return self._decomposition

    def primary_components(self):
        """Irredundant primary decomposition, as (prime, component) pairs in
        the order of Ass, each component the meet of the irreducible
        components with that radical: unique for a minimal prime, one valid
        choice for an embedded one."""
        meets = {}
        for a, s in zip(*self._decompose()[:2]):
            c = MonomialIdeal(self.context, (
                tuple(x if j == i else 0 for j, x in enumerate(a))
                for i, y in enumerate(a) if y))
            meets[s] = meets[s].intersect(c) if s in meets else c
        return tuple((p, meets[p.mask]) for p in self.associated_primes())

    def associated_primes(self):
        """Exact Ass(R/I): the supports of the irredundant irreducible
        components, sorted by MonomialPrime.sort_key."""
        return self._decompose()[2]

    # -- derived facts --

    def dimension(self):
        if self.is_unit:
            raise UnitIdealError("the unit ideal has no Krull dimension")
        v = self.context.count
        return max(p.quotient_dim(v) for p in self.minimal_primes())

    def maximal_ideal_associated(self):
        """Whether the ideal of all variables is an associated prime."""
        return (MonomialPrime.maximal(self.context.count)
                in self.associated_primes())

    def is_regular(self, support):
        """Whether the sum of the variables at `support` (indices) is regular
        on the quotient: zero divisors form the union of Ass, and a monomial
        prime contains that sum exactly when it contains each variable."""
        s = sum(1 << i for i in support)
        return not any(p.mask & s == s for p in self.associated_primes())

    def depth_at_least_two(self):
        """Whether depth R/I >= 2, read off the irredundant irreducible
        components C_b = (x_i^b_i : i in supp b) by Takayama's formula for
        H^1_M (Bull. Math. Soc. Sci. Math. Roumanie 48, 2005), where only
        degrees with at most one negative entry count. pieces(m) is the
        list of connected pieces, as variable masks, of the degree
        complex at m - 1: its facets are the variables outside supp d, one
        for each C_d with d >= m on supp d. With M not associated,
        depth < 2 exactly when (a) some b whose support misses only x_i
        leaves {i} as a piece of pieces(b), or (b) pieces(min(b, c)) has
        more than one piece for some b, c whose supports cover all
        variables (minimum over nonzero entries). (a) is the degree b - 1
        with entry i negative, whose complex is {empty face} exactly when
        no C_d there has supp d a proper subset of supp b, that is when no
        facet joins i to another vertex. (b) is a disconnected complex, and
        pairs suffice: if the complex at some covering degree m is
        disconnected, b and c from different pieces cover all variables
        and min(b, c) >= m, so their own complex is a subcomplex that holds
        both and is still disconnected. For squarefree I every covering
        degree is all ones, and this is Hochster's "connected, no isolated
        vertex"."""
        if self.maximal_ideal_associated():
            return False
        full = (1 << self.context.count) - 1
        comps, masks = self._decompose()[:2]

        def pieces(m):
            found = []
            for d, k in zip(comps, masks):
                if all(x >= y for x, y in zip(d, m) if x):
                    out = full ^ k  # pieces are disjoint, so sum is union
                    found = [p for p in found if not p & out] + [
                        out | sum(p for p in found if p & out)]
            return found

        if any((full ^ k).bit_count() == 1 and full ^ k in pieces(b)
               for b, k in zip(comps, masks)):
            return False
        return all(len(pieces(m)) == 1 for m in {
            tuple(min(x, y) if x and y else x + y for x, y in zip(b, c))
            for (b, k), (c, l) in itertools.combinations(zip(comps, masks), 2)
            if k | l == full})

    def localize(self, prime):
        """Localization at a monomial prime: variables outside the prime
        become units, so each generator drops its outside factors. Valid
        when the prime contains a minimal prime of the ideal."""
        if self.is_unit:
            raise UnitIdealError("cannot localize the unit ideal")
        if not any(prime.contains(p) for p in self.minimal_primes()):
            raise EmptyLocalizationError(
                f"{prime.render(self.context)} contains no minimal prime; "
                "the localization is the zero ring")
        keep = prime.support
        new_ctx = VariableContext(tuple(self.context.names[i] for i in keep))
        new_gens = []
        for g in self.gens:
            reduced = tuple(g[i] for i in keep)
            if not any(reduced):
                raise AssertionError("generator became a unit despite the "
                                     "minimal-prime precondition")
            new_gens.append(reduced)
        return MonomialIdeal(new_ctx, new_gens)
