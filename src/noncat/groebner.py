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
from cuts by sums of three or more variables. Those cuts and every other
homogeneous I read one grevlex basis per candidate linear form, moved to
the last variable (Bayer-Stillman); when no variable is regular, the same
bases give each (I : x_i) for the socle test. The colon calculus serves
only non-homogeneous ideals, and is the oracle in the tests.

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
    substitute_linear,
    variables,
)

DEFAULT_REGULAR_CANDIDATE_BUDGET = 200

# the one order instance intersection uses, so every polynomial's cached
# lead under it is found again (Polynomial.leading_term compares by identity)
_ELIMINATE_T = BlockEliminationOrder(1)


def s_polynomial(f, g, order=GREVLEX):
    """S-polynomial of f and g: both leading terms scaled to their lcm and
    subtracted, cancelling the leads."""
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    lcm = exps_lcm(mf, mg)
    left = f.term_multiple(f.field.inv(cf), exps_sub(lcm, mf))
    right = g.term_multiple(g.field.inv(cg), exps_sub(lcm, mg))
    return left - right


def _reduce_basis(basis, order):
    """Turn a Groebner basis into the reduced one: minimal leading terms,
    fully reduced tails, monic, sorted descending by leading monomial."""
    key = order.key
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.leading_monomial(order))):
        lm = g.leading_monomial(order)
        if any(exps_divides(h.leading_monomial(order), lm) for h in minimal):
            continue
        minimal.append(g)
    for i in range(len(minimal)):
        others = minimal[:i] + minimal[i + 1:]
        if others:
            _, r = divide(minimal[i], others, order)
        else:
            r = minimal[i]
        minimal[i] = r.monic(order)
    minimal.sort(key=lambda g: key(g.leading_monomial(order)), reverse=True)
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
        lm = g.leading_monomial(order)
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
    then sums of three, and last the sum of all variables. That sum lies
    in no monomial prime but M, so it is regular on a monomial I whose
    maximal ideal is not associated."""
    xs = variables(field, context)
    sizes = (1, 2, 3, len(xs)) if len(xs) > 3 else (1, 2, 3)
    for size in sizes:
        for combo in itertools.combinations(xs, size):
            out = combo[0]
            for x in combo[1:]:
                out = out + x
            yield out


class IdealHandle:
    """An ideal of K[x1..xv] with cached reduced Groebner bases and the
    ideal calculus built on them."""

    __slots__ = ("field", "context", "generators", "gb_step_budget",
                 "_lock", "_gb", "_dim", "_m_assoc", "_moved")

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
        self._gb = None  # (reduced basis, MonomialIdeal or None), one store
        self._dim = None
        self._m_assoc = None
        self._moved = {}

    @classmethod
    def from_presentation(cls, ring, gb_step_budget=DEFAULT_GB_STEP_BUDGET):
        return cls(ring.field, ring.context, ring.generators, gb_step_budget)

    def spawn(self, generators):
        """Sibling handle over the same ring with the same budgets."""
        return IdealHandle(self.field, self.context, generators,
                           self.gb_step_budget)

    # -- Groebner bases and membership --

    def groebner_basis(self):
        """The reduced grevlex Groebner basis, computed once. The reduced
        basis of a monomial ideal is its minimal generating set, so term
        generators go to the monomial engine and only other input runs
        Buchberger; a basis of terms from Buchberger still means I is
        monomial. The basis is published together with monomial_ideal()'s
        answer, in one store."""
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
                    self._gb = (basis, mono)
        return self._gb[0]

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
        return self._gb[1]

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
        basis = buchberger(gens, _ELIMINATE_T,
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

    # -- homogeneous I: regularity and cuts from one basis per linear form --

    @property
    def is_homogeneous(self):
        """Whether I is homogeneous in the standard grading, read off the
        reduced basis, which is homogeneous exactly when I is."""
        return all(len({sum(e) for _, e in g.pairs()}) == 1
                   for g in self.groebner_basis())

    def _moved_to_last(self, support):
        """For f the sum of x_i over `support`: I in coordinates where f is
        the last variable. The substitution x_k -> x_k - (the other x_i of
        f), k = max(support), sends f to x_k, which is then moved last, so
        f is regular on R/I exactly when that variable is on the image.
        Support (v-1,) is I itself; other images are cached per support."""
        v = self.context.count
        if support == (v - 1,):
            return self
        moved = self._moved.get(support)
        if moved is None:
            k = support[-1]
            order = [i for i in range(v) if i != k] + [k]
            place = {i: p for p, i in enumerate(order)}
            one = self.field.one
            forms = [((one, place[i]),) for i in range(v)]
            forms[k] = ((one, v - 1),) + tuple(
                (self.field.neg(one), place[i]) for i in support[:-1])
            context = VariableContext(self.context.names[i] for i in order)
            gens = [substitute_linear(g, forms, context)
                    for g in self.generators]
            moved = IdealHandle(self.field, context, gens, self.gb_step_budget)
            with self._lock:
                moved = self._moved.setdefault(support, moved)
        return moved

    def _last_variable_regular(self):
        """For homogeneous I: whether the last variable l is a
        non-zero-divisor on R/I. Under grevlex in(I : l) = in(I) : l
        (Bayer-Stillman), so this holds exactly when l divides no leading
        monomial of the reduced basis; l in I puts l itself in the basis."""
        return not any(g.pairs()[0][1][-1] for g in self.groebner_basis())

    def _cut_by_last_variable(self):
        """For homogeneous I with a regular last variable l: I + (l) as a
        handle over the other variables. Under grevlex
        in(I + (l)) = in(I) + (l), so the reduced basis with l = 0 is the
        reduced basis of the cut, and no Groebner run is needed."""
        context = VariableContext(self.context.names[:-1])
        basis = tuple(
            Polynomial(self.field, context,
                       ((c, e[:-1]) for c, e in g.pairs() if not e[-1]))
            for g in self.groebner_basis())
        cut = IdealHandle(self.field, context, basis, self.gb_step_budget)
        cut._gb = (basis, MonomialIdeal.from_polynomials(context, basis)
                   if all(g.is_term for g in basis) else None)
        return cut

    def _colon_by_variable(self, i):
        """For homogeneous I: (I : x_i), read off the reduced basis with x_i
        moved last. Under grevlex, x_i dividing in(g) means x_i divides g,
        so dividing those basis elements by x_i gives a Groebner basis of
        (I : x_i) (Eisenbud, Prop. 15.12). It is mapped back to the declared
        variable order; no colon ideal is computed by elimination."""
        gens = []
        for g in self._moved_to_last((i,)).groebner_basis():
            shift = 1 if g.pairs()[0][1][-1] else 0
            gens.append(Polynomial(self.field, self.context, (
                (c, e[:i] + (e[-1] - shift,) + e[i:-1]) for c, e in g.pairs())))
        return self.spawn(gens)

    def _colon_by_maximal_ideal(self):
        """For homogeneous I: (I : M) as the intersection of the (I : x_i),
        v - 1 intersections in all."""
        result = self._colon_by_variable(0)
        for i in range(1, self.context.count):
            result = result.intersection(self._colon_by_variable(i))
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
        serves and its decomposition is computed once per handle."""
        if self._dim is not None:
            return self._dim
        if self.is_unit_ideal:
            raise UnitIdealError("the unit ideal has no Krull dimension")
        lead = self.monomial_ideal()
        if lead is None:
            # dim sees only the radical, and the supports of the leads
            # generate a squarefree ideal, which splits into primes only
            lead = MonomialIdeal(self.context, (
                tuple(min(e, 1) for e in g.leading_monomial())
                for g in self.groebner_basis()))
        with self._lock:
            self._dim = lead.dimension()
        return self._dim

    def maximal_ideal_associated(self):
        """Whether the maximal ideal M is associated to R/I. A reduced basis
        of terms means I is monomial, and the monomial engine's Ass decides.
        For homogeneous I a regular variable proves M not associated: the
        last one is read off I's own basis, the others off one basis each
        with that variable moved last. When no variable is regular, the same
        bases give each (I : x_i), and M is associated exactly when their
        intersection (I : M) is not I. A non-homogeneous ideal gets that
        socle test from the colon calculus."""
        if self._m_assoc is not None:
            return self._m_assoc
        if self.is_unit_ideal:
            raise UnitIdealError("the unit ideal does not present a ring")
        mono = self.monomial_ideal()
        v = self.context.count
        if mono is not None:
            result = mono.maximal_ideal_associated()
        elif self.is_homogeneous:
            result = not any(
                self._moved_to_last((i,))._last_variable_regular()
                for i in (v - 1, *range(v - 1))
            ) and not self._colon_by_maximal_ideal().equals(self)
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
        is again monomial (MonomialIdeal.cut). For homogeneous I, f is moved
        to the last variable of one grevlex basis, which shows whether f is
        regular and gives the basis of the cut. The cut of a monomial I by
        three or more variables is homogeneous, so its socle test takes
        that path; a non-homogeneous I takes the colon calculus.
        Exhausting the candidate stream without finding a regular element
        is reported as inconclusive, never as False.
        """
        if self.maximal_ideal_associated():
            return DepthResult(False, None,
                               "depth 0: the maximal ideal is associated")
        mono = self.monomial_ideal()
        homogeneous = mono is None and self.is_homogeneous
        stream = itertools.islice(
            regular_element_candidates(self.field, self.context), candidate_budget)
        tried = 0
        for f in stream:
            tried += 1
            terms = [e for _, e in f.pairs()]
            support = tuple(sorted(e.index(1) for e in terms))
            if mono is not None:
                if not mono.is_regular(terms):
                    continue
                cut = mono.cut(support) if len(support) <= 2 else self.plus(f)
            elif homogeneous:
                moved = self._moved_to_last(support)
                if not moved._last_variable_regular():
                    continue
                cut = moved._cut_by_last_variable()
            else:
                if self.contains(f) or not self.quotient_element(f).equals(self):
                    continue
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
