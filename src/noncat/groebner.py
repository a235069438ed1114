"""Groebner-basis engine and ideal calculus.

Provides reduced Groebner bases (Buchberger with the coprime-lead and
chain criteria, normal pair selection), ideal membership and equality on
each handle's cached grevlex basis, intersection and colon ideals via
elimination, and the regularity and depth tests the ring classifiers rely
on. A handle whose generators are all terms never runs Buchberger: the
monomial engine supplies its reduced basis, the minimal generators. A
handle's ideal is monomial when its reduced basis consists of terms,
whatever its presentation (IdealHandle.monomial_ideal). Krull dimension is
read off the leading-term ideal by the monomial engine. For monomial I the
monomial engine also settles the socle test and the depth search, apart
from cuts by sums of three variables; the colon calculus serves every
other ideal.

Handles are immutable apart from fill-once caches guarded by a lock, so
one handle can serve several threads.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass

from .errors import ContextMismatchError, DegenerateInputError, UnitIdealError
from .monomial import MonomialIdeal
from .poly import (
    DEFAULT_GB_STEP_BUDGET,
    GREVLEX,
    BlockEliminationOrder,
    Budget,
    Polynomial,
    VariableContext,
    divide,
    exps_add,
    exps_divides,
    exps_lcm,
    exps_sub,
    variables,
)

DEFAULT_REGULAR_CANDIDATE_BUDGET = 200


def s_polynomial(f, g, order=GREVLEX):
    """S-polynomial of f and g: both leading terms scaled to their lcm and
    subtracted, cancelling the leads."""
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    lcm = exps_lcm(mf.exponents, mg.exponents)
    left = f.term_multiple(f.field.inv(cf), exps_sub(lcm, mf.exponents))
    right = g.term_multiple(g.field.inv(cg), exps_sub(lcm, mg.exponents))
    return left - right


def _reduce_basis(basis, order):
    """Turn a Groebner basis into the reduced one: minimal leading terms,
    fully reduced tails, monic, sorted descending by leading monomial."""
    key = order.key
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.leading_monomial(order).exponents)):
        lm = g.leading_monomial(order).exponents
        if any(exps_divides(h.leading_monomial(order).exponents, lm) for h in minimal):
            continue
        minimal.append(g)
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            _, r = divide(minimal[i], others, order)
        else:
            r = minimal[i]
        minimal[i] = r.monic(order)
    minimal.sort(key=lambda g: key(g.leading_monomial(order).exponents), reverse=True)
    return tuple(minimal)


def buchberger(generators, order=GREVLEX, budget=None):
    """Reduced Groebner basis of the ideal the generators span.

    Deterministic: pairs are processed by smallest lcm (normal strategy)
    with index tie-breaking, and the reduced basis is unique for the
    order, so shuffling the generators cannot change the result.
    """
    gens = [g for g in generators if not g.is_zero]
    if not gens:
        return ()
    key = order.key
    basis = []
    leads = []
    pending = set()
    heap = []

    def append(g):
        basis.append(g)
        lm = g.leading_monomial(order).exponents
        leads.append(lm)
        j = len(basis) - 1
        for i in range(j):
            lcm = exps_lcm(leads[i], lm)
            heapq.heappush(heap, (key(lcm), i, j))
            pending.add((i, j))

    for g in gens:
        append(g)

    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = exps_lcm(leads[i], leads[j])
        # coprime leading terms: the S-polynomial reduces to zero
        if lcm == exps_add(leads[i], leads[j]):
            continue
        # chain criterion: some k divides the lcm and both mixed pairs
        # have already been handled
        skipped = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if exps_divides(leads[k], lcm):
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skipped = True
                    break
        if skipped:
            continue
        s = s_polynomial(basis[i], basis[j], order)
        if s.is_zero:
            continue
        _, r = divide(s, basis, order, budget=budget)
        if not r.is_zero:
            append(r)

    return _reduce_basis(basis, order)


def _fresh_name(context):
    name = "t"
    while name in context:
        name = "_" + name
    return name


@dataclass(frozen=True)
class DepthResult:
    """Outcome of the depth >= 2 search.

    verdict True carries a regular element f with the maximal ideal not
    associated to the quotient by f; verdict False carries either nothing
    (depth 0) or a regular f whose quotient has the maximal ideal
    associated (depth exactly 1); verdict None means the candidate search
    was exhausted without finding any regular element, which proves
    nothing either way.
    """

    verdict: bool | None
    regular_element: Polynomial | None
    detail: str


def regular_element_candidates(field, context):
    """Deterministic candidate stream for regular elements: single
    variables in declared order, then sums of two distinct variables,
    then sums of three."""
    xs = variables(field, context)
    for size in (1, 2, 3):
        for combo in itertools.combinations(xs, size):
            out = combo[0]
            for x in combo[1:]:
                out = out + x
            yield out


class IdealHandle:
    """An ideal of K[x1..xv] with cached reduced Groebner bases and the
    ideal calculus built on them."""

    __slots__ = ("field", "context", "generators", "gb_step_budget",
                 "_lock", "_gb", "_mono", "_dim", "_m_assoc")

    def __init__(self, field, context, generators=(),
                 gb_step_budget=DEFAULT_GB_STEP_BUDGET):
        gens = []
        for g in generators:
            if g.field != field or g.context != context:
                raise ContextMismatchError(
                    "generators must match the handle's field and context")
            if not g.is_zero:
                gens.append(g)
        self.field = field
        self.context = context
        self.generators = tuple(gens)
        self.gb_step_budget = gb_step_budget
        self._lock = threading.Lock()
        self._gb = None
        self._mono = None
        self._dim = None
        self._m_assoc = None

    @classmethod
    def from_presentation(cls, ring, gb_step_budget=DEFAULT_GB_STEP_BUDGET):
        return cls(ring.field, ring.context, ring.generators, gb_step_budget)

    def spawn(self, generators):
        """Sibling handle over the same ring with the same budgets."""
        return IdealHandle(self.field, self.context, generators,
                           self.gb_step_budget)

    def render(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"({gens or '0'})"

    # -- Groebner bases and membership --

    def groebner_basis(self):
        """The reduced grevlex Groebner basis, computed once. The reduced
        basis of a monomial ideal is its minimal generating set, so term
        generators go to the monomial engine and only other input runs
        Buchberger; a basis of terms from Buchberger still means I is
        monomial."""
        if self._gb is None:
            if all(g.is_term for g in self.generators):
                mono = MonomialIdeal.from_polynomials(self.context,
                                                      self.generators)
                one = self.field.one
                basis = tuple(
                    Polynomial(self.field, self.context, ((one, e),))
                    for e in sorted(mono.gens, key=GREVLEX.key, reverse=True))
            else:
                basis = buchberger(self.generators, GREVLEX,
                                   Budget(self.gb_step_budget,
                                          "groebner step budget"))
                mono = (MonomialIdeal.from_polynomials(self.context, basis)
                        if all(g.is_term for g in basis) else None)
            with self._lock:
                if self._gb is None:
                    self._gb, self._mono = basis, mono
        return self._gb

    def normal_form(self, f):
        basis = self.groebner_basis()
        if not basis:
            return f
        _, r = divide(f, basis)
        return r

    def monomial_ideal(self):
        """I as a MonomialIdeal when I is monomial, else None. This is the
        one test of the monomial class: it reads the reduced basis, not the
        presented generators, so (x+y, y) counts as monomial. Built with the
        basis, so its Min and Ass are computed once per handle."""
        self.groebner_basis()
        return self._mono

    def contains(self, f):
        return self.normal_form(f).is_zero

    def __contains__(self, f):
        return self.contains(f)

    def equals(self, other):
        if self.field != other.field or self.context != other.context:
            raise ContextMismatchError("ideals over different rings")
        return self.groebner_basis() == other.groebner_basis()

    @property
    def is_zero_ideal(self):
        return not self.groebner_basis()

    @property
    def is_unit_ideal(self):
        basis = self.groebner_basis()
        return bool(basis) and basis[0].is_constant

    def maximal_ideal(self):
        return self.spawn(variables(self.field, self.context))

    @property
    def is_maximal_ideal(self):
        return self.equals(self.maximal_ideal())

    def plus(self, extra):
        extra = (extra,) if isinstance(extra, Polynomial) else tuple(extra)
        return self.spawn(self.generators + extra)

    # -- intersection and colon ideals --

    def intersection(self, other):
        """I cap J, by eliminating an auxiliary variable t from
        t*I + (1-t)*J."""
        if self.field != other.field or self.context != other.context:
            raise ContextMismatchError("ideals over different rings")
        if not self.generators or not other.generators:
            return self.spawn(())
        field, context = self.field, self.context
        ext = VariableContext((_fresh_name(context),) + context.names)

        def lift(f):
            return Polynomial(field, ext, ((c, (0,) + e) for c, e in f.pairs()))

        t = Polynomial.variable(field, ext, 0)
        one = Polynomial.constant(field, ext, 1)
        gens = [t * lift(f) for f in self.generators]
        gens += [(one - t) * lift(g) for g in other.generators]
        basis = buchberger(gens, BlockEliminationOrder(1),
                           Budget(self.gb_step_budget, "groebner step budget"))
        kept = []
        for g in basis:
            if all(e[0] == 0 for _, e in g.pairs()):
                kept.append(Polynomial(field, context,
                                       ((c, e[1:]) for c, e in g.pairs())))
        return self.spawn(kept)

    def quotient_element(self, f):
        """(I : f) for a single polynomial; (I : 0) degenerates to (1)."""
        if f.is_zero:
            return self.spawn((Polynomial.constant(self.field, self.context, 1),))
        inter = self.intersection(self.spawn((f,)))
        quotients = []
        for g in inter.generators:
            (q,), r = divide(g, (f,))
            if not r.is_zero:
                raise ArithmeticError("intersection member not divisible by f")
            quotients.append(q)
        return self.spawn(quotients)

    def quotient(self, other):
        """(I : J) as the intersection of (I : g) over J's generators."""
        if not other.generators:
            return self.spawn((Polynomial.constant(self.field, self.context, 1),))
        result = None
        for g in other.generators:
            part = self.quotient_element(g)
            result = part if result is None else result.intersection(part)
        return result

    # -- regularity, dimension and depth --

    def is_regular_element(self, f):
        """Whether f is a non-zero-divisor on the quotient ring, i.e.
        (I : f) = I."""
        if self.contains(f):
            raise DegenerateInputError(
                "the element lies in the ideal, so it represents zero")
        return self.quotient_element(f).equals(self)

    def krull_dimension(self):
        """dim K[x..]/I, computed by the monomial engine on the leading-term
        ideal, since dim R/I = dim R/LT(I) for any monomial order. A
        monomial I is its own leading-term ideal, so its MonomialIdeal
        serves and Min is computed once per handle."""
        if self._dim is not None:
            return self._dim
        if self.is_unit_ideal:
            raise UnitIdealError("the unit ideal has no Krull dimension")
        lead = self.monomial_ideal()
        if lead is None:
            lead = MonomialIdeal(self.context,
                                 (g.leading_monomial().exponents
                                  for g in self.groebner_basis()))
        with self._lock:
            self._dim = lead.dimension()
        return self._dim

    def maximal_ideal_associated(self):
        """Whether the maximal ideal M is associated to R/I. A reduced basis
        of terms means I is monomial, and the monomial engine's Ass decides;
        any other ideal gets the socle test (I : M) != I."""
        if self._m_assoc is not None:
            return self._m_assoc
        if self.is_unit_ideal:
            raise UnitIdealError("the unit ideal does not present a ring")
        mono = self.monomial_ideal()
        if mono is not None:
            result = mono.maximal_ideal_associated()
        else:
            result = not self.quotient(self.maximal_ideal()).equals(self)
        with self._lock:
            self._m_assoc = result
        return result

    def depth_at_least_two(self, candidate_budget=DEFAULT_REGULAR_CANDIDATE_BUDGET):
        """Search for a depth >= 2 certificate.

        Depth drops by exactly one modulo any regular element, so the first
        regular candidate f settles the question: depth >= 2 exactly when
        M is not associated after cutting by f. For a monomial I the
        monomial engine decides both steps: f is regular when no associated
        prime contains all its variables, and a cut by one or two variables
        is again monomial (MonomialIdeal.cut). A cut by three variables,
        and any non-monomial I, take the colon calculus. Exhausting the
        candidate stream without finding a regular element is reported as
        inconclusive, never as False.
        """
        if self.maximal_ideal_associated():
            return DepthResult(False, None,
                               "depth 0: the maximal ideal is associated")
        mono = self.monomial_ideal()
        stream = itertools.islice(
            regular_element_candidates(self.field, self.context), candidate_budget)
        tried = 0
        for f in stream:
            tried += 1
            terms = [e for _, e in f.pairs()]
            if mono is None:
                if self.contains(f) or not self.quotient_element(f).equals(self):
                    continue
            elif not mono.is_regular(terms):
                continue
            if mono is not None and len(terms) <= 2:
                cut = mono.cut([e.index(1) for e in terms])
            else:
                cut = self.plus(f)
            if cut.maximal_ideal_associated():
                return DepthResult(
                    False, f,
                    f"depth 1: {f} is regular but the maximal ideal is "
                    "associated to the quotient by it")
            return DepthResult(
                True, f,
                f"regular element {f} with depth >= 1 quotient")
        return DepthResult(
            None, None,
            f"inconclusive: no regular element among the first {tried} candidates")
