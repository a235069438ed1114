"""Groebner-basis engine and ideal calculus.

Provides reduced Groebner bases (Buchberger with the coprime-lead and
chain criteria, normal pair selection), ideal membership and equality on
each handle's cached grevlex basis, intersection and colon ideals, and
the regularity and depth tests the ring classifiers rely on. Two ideals
generated by linear forms meet in W + I*J, where W is the intersection
of their spans. When one is principal, (f), that is (f) or f*J, whose
reduced basis is one row reduction of the products of f with the other
side's echelon basis; other pairs run Zassenhaus and Buchberger once.
Such a meet keeps the echelon bases of its two operands, which are
primes, and its socle test, regular elements, depth and dimension are
read off their ranks. Every other intersection eliminates an auxiliary
variable. A handle whose generators are all terms never runs Buchberger:
the monomial engine supplies its reduced basis, the minimal generators.
A handle's ideal is monomial when its reduced basis consists of terms,
whatever its presentation (IdealHandle.monomial_ideal). Krull dimension
is read off the supports of the leading terms by the monomial engine.
The socle test and depth >= 2 are this engine's own on every ideal,
monomial or not; the analyzer sends monomial I to the monomial engine
instead. Other homogeneous I reads one grevlex basis per candidate sum
of variables, moved to the last variable (Bayer-Stillman); moving a
single variable last is a renaming. The socle test reads one such basis
per variable, last first, and stops at the first regular variable or
socle element among the generators of that (I : x_i), before it computes
the next; only when no variable decides are the (I : x_i) intersected
into (I : M). The colon calculus serves only non-homogeneous ideals, and
is the oracle in the tests.

Handles are immutable apart from fill-once caches guarded by a lock, so
one handle can serve several threads.
"""

from __future__ import annotations

import heapq
import itertools
import threading

from .errors import ContextMismatchError, DegenerateInputError, UnitIdealError
from .monomial import MonomialIdeal
from .poly import (
    DEFAULT_GB_STEP_BUDGET,
    ELIMINATION,
    GREVLEX,
    Budget,
    Polynomial,
    VariableContext,
    _Value,
    divide,
    exps_add,
    exps_divides,
    exps_lcm,
    exps_sub,
    substitute_linear,
    variables,
)

DEFAULT_REGULAR_CANDIDATE_BUDGET = 200


def s_polynomial(f, g, order=GREVLEX):
    """S-polynomial of f and g: both leading terms scaled to their lcm and
    subtracted, cancelling the leads."""
    cf, mf = f.leading_term(order)
    cg, mg = g.leading_term(order)
    lcm = exps_lcm(mf, mg)
    left = f.term_multiple(f.field.inv(cf), exps_sub(lcm, mf))
    right = g.term_multiple(g.field.inv(cg), exps_sub(lcm, mg))
    return left - right


def _reduce_basis(basis, order, budget):
    """Turn a Groebner basis into the reduced one: minimal leading terms,
    fully reduced tails, monic, sorted descending by leading monomial. Each
    division step spends one unit of the budget of the run it finishes."""
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
            _, r = divide(minimal[i], others, order, budget=budget)
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

    return _reduce_basis(basis, order, budget)


def _all_linear(gens):
    """Whether every term of every generator has degree exactly 1."""
    return all(sum(e) == 1 for g in gens for _, e in g.pairs())


def _coefficients(f):
    """The coefficient vector of the linear part of f, as a list."""
    row = [0] * f.context.count
    for c, e in f.pairs():
        if sum(e) == 1:
            row[e.index(1)] = c
    return row


def _row_reduce(field, rows, budget=None):
    """Reduced row echelon form of a nonempty list of rows (lists over the
    field): the nonzero rows, monic at their pivots, pivots left to right
    and cleared from every other row. Each entry cleared spends one unit of
    the budget, when one is given."""
    rows = [r[:] for r in rows]
    done = []
    for col in range(len(rows[0])):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        inv = field.inv(pivot[col])
        pivot[:] = [field.mul(inv, a) if a else a for a in pivot]
        for r in rows + done:
            if r[col]:
                if budget is not None:
                    budget.spend()
                scale = r[col]
                r[:] = [field.sub(a, field.mul(scale, b)) if b else a
                        for a, b in zip(r, pivot)]
        done.append(pivot)
    return done


def _reduce_row(field, basis, row):
    """The row reduced by a reduced echelon basis, each basis row cleared at
    its pivot: zero exactly when the row lies in the span of the basis."""
    for b in basis:
        c = row[next(i for i, a in enumerate(b) if a)]
        if c:
            row = [field.sub(a, field.mul(c, p)) if p else a
                   for a, p in zip(row, b)]
    return row


def _linear_forms(field, context, rows):
    """The linear forms whose coefficient vectors are the rows."""
    zero = (0,) * context.count
    return [Polynomial(field, context, ((c, zero[:i] + (1,) + zero[i + 1:])
                                        for i, c in enumerate(r) if c))
            for r in rows]


def _linear_meet(field, context, xs, ys, budget):
    """The reduced grevlex basis of I cap J = W + I*J for I and J spanned by
    the reduced echelon bases xs and ys, W the meet of the spans. Echelon
    bases are Groebner bases. When one side is (f), the meet is (f) if f
    lies in the other span, else f*J, whose Groebner basis f*GB(J) is made
    of quadrics: the reduced basis is the reduced echelon form of the
    products' rows, each entry cleared spending one unit of the budget.
    Otherwise W comes from Zassenhaus, the right halves of the rows zero on
    the left in the echelon form of the rows (f, f), f in xs, and (g, 0), g
    in ys, and one Buchberger run reduces W + I*J."""
    v, mul = context.count, field.mul
    if len(ys) == 1:
        xs, ys = ys, xs
    if len(xs) == 1:
        f = xs[0]
        if not any(_reduce_row(field, ys, f)):
            return tuple(_linear_forms(field, context, [f]))
        # x_i*x_j, i <= j, in ascending (j, i) is descending grevlex
        quads = [(i, j) for j in range(v) for i in range(j + 1)]
        rows = _row_reduce(field, [[mul(f[i], g[j]) if i == j else field.add(
            mul(f[i], g[j]), mul(f[j], g[i])) for i, j in quads] for g in ys],
            budget)
        exps = [tuple((k == i) + (k == j) for k in range(v)) for i, j in quads]
        return tuple(Polynomial._canonical(field, context, tuple(
            (c, e) for c, e in zip(r, exps) if c)) for r in rows)
    stacked = [r + r for r in xs] + [r + [0] * v for r in ys]
    meet = _linear_forms(field, context, [
        r[v:] for r in _row_reduce(field, stacked) if not any(r[:v])])
    return buchberger(meet + [f * g for f in _linear_forms(field, context, xs)
                              for g in _linear_forms(field, context, ys)],
                      GREVLEX, budget)


def _fresh_name(context):
    name = "t"
    while name in context:
        name = "_" + name
    return name


class DepthResult(_Value):
    """Outcome of the depth >= 2 test.

    verdict True carries a regular element f with the maximal ideal not
    associated to the quotient by f; verdict False carries either nothing
    (depth 0) or a regular f whose quotient has the maximal ideal
    associated (depth exactly 1); verdict None means the candidate search
    was exhausted without finding any regular element, which proves
    nothing either way.
    """

    __slots__ = ("verdict", "regular_element", "detail")

    def __init__(self, verdict, regular_element, detail):
        self.verdict = verdict
        self.regular_element = regular_element
        self.detail = detail

    @classmethod
    def certified(cls, f, verdict):
        """The result certified by the regular element f."""
        if verdict:
            return cls(True, f, f"regular element {f} with depth >= 1 quotient")
        return cls(False, f,
                   f"depth 1: {f} is regular but the maximal ideal is "
                   "associated to the quotient by it")


def regular_element_candidates(count):
    """Candidate regular elements over `count` variables, each a sum of
    variables named by its tuple of indices: single variables in declared
    order, then sums of two, then of three, and last the sum of all
    variables. That sum lies in no monomial prime but M, so it is regular
    on a monomial I whose maximal ideal is not associated."""
    for size in (1, 2, 3, count) if count > 3 else (1, 2, 3):
        yield from itertools.combinations(range(count), size)


def variable_sum(field, context, support):
    """The sum of the variables at the indices in `support`."""
    row = [int(i in support) for i in range(context.count)]
    return _linear_forms(field, context, [row])[0]


class IdealHandle:
    """An ideal of K[x1..xv] with cached reduced Groebner bases and the
    ideal calculus built on them."""

    __slots__ = ("field", "context", "generators", "gb_step_budget",
                 "_lock", "_gb", "_m_assoc", "_moved", "_operands")

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
        self._m_assoc = None
        self._moved = {}
        self._operands = None  # echelon bases of a linear meet's sides

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
                basis = mono.to_polynomials(self.field)
            else:
                basis = buchberger(self.generators, GREVLEX,
                                   self._budget())
                mono = (MonomialIdeal.from_polynomials(self.context, basis)
                        if all(g.is_term for g in basis) else None)
            with self._lock:
                if self._gb is None:
                    self._gb = (basis, mono)
        return self._gb[0]

    def _budget(self):
        return Budget(self.gb_step_budget)

    def normal_form(self, f):
        basis = self.groebner_basis()
        if not basis:
            return f
        _, r = divide(f, basis, budget=self._budget())
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
    def is_unit_ideal(self):
        basis = self.groebner_basis()
        return bool(basis) and basis[0].is_constant

    def maximal_ideal(self):
        return self.spawn(variables(self.field, self.context))

    def embedding_dimension(self):
        """v minus the rank of the generators' linear parts, which span
        (I + M^2)/M^2: the embedding dimension of K[[x]]/I for I in M."""
        rows = [_coefficients(g) for g in self.generators]
        return self.context.count - len(
            _row_reduce(self.field, rows) if rows else ())

    def plus(self, extra):
        extra = (extra,) if isinstance(extra, Polynomial) else tuple(extra)
        return self.spawn(self.generators + extra)

    # -- intersection and colon ideals --

    def _with_basis(self, context, basis, operands=None):
        """Handle over `context` whose generators are `basis`, already the
        reduced grevlex basis of the ideal they span. The basis is stored
        with monomial_ideal()'s answer, so the handle never runs
        Buchberger, and so are the echelon bases of a linear meet's two
        operands, before any other thread can see the handle."""
        handle = IdealHandle(self.field, context, basis, self.gb_step_budget)
        handle._gb = (handle.generators,
                      MonomialIdeal.from_polynomials(context, basis)
                      if all(g.is_term for g in basis) else None)
        handle._operands = operands
        return handle

    def intersection(self, other):
        """I cap J, whose generators are its reduced grevlex basis. When
        every generator of both is a linear form, I cap J = W + I*J with W
        the intersection of the spans: in coordinates where I = (W, X) and
        J = (W, Y), both are monomial in disjoint variables. A principal side
        needs one row reduction of the products and no Buchberger run;
        otherwise one run reduces W + I*J. The result keeps the echelon
        bases of both sides, whose ranks decide its socle test, depth and
        dimension. Any other input is eliminated."""
        if self.field != other.field or self.context != other.context:
            raise ContextMismatchError("ideals over different rings")
        if not self.generators or not other.generators:
            return self._with_basis(self.context, ())
        if _all_linear(self.generators) and _all_linear(other.generators):
            sides = tuple(_row_reduce(self.field, [
                _coefficients(g) for g in h.generators]) for h in (self, other))
            return self._with_basis(self.context, _linear_meet(
                self.field, self.context, *sides, self._budget()), sides)
        return self._eliminate(other)

    def _eliminate(self, other):
        """I cap J by eliminating an auxiliary variable t from
        t*I + (1-t)*J, for nonzero I and J over one ring."""
        field, context = self.field, self.context
        ext = VariableContext((_fresh_name(context),) + context.names)

        def lift(f):
            return Polynomial(field, ext, ((c, (0,) + e) for c, e in f.pairs()))

        t = Polynomial.variable(field, ext, 0)
        one = Polynomial.constant(field, ext, 1)
        gens = [t * lift(f) for f in self.generators]
        gens += [(one - t) * lift(g) for g in other.generators]
        basis = buchberger(gens, ELIMINATION, self._budget())
        # the t-free elements of the reduced basis are the reduced basis of
        # I cap J: the order is grevlex on t-free monomials, and they
        # are monic, fully reduced and sorted descending
        kept = []
        for g in basis:
            if all(e[0] == 0 for _, e in g.pairs()):
                kept.append(Polynomial(field, context,
                                       ((c, e[1:]) for c, e in g.pairs())))
        return self._with_basis(context, kept)

    def quotient_element(self, f):
        """(I : f) for a single polynomial; (I : 0) degenerates to (1)."""
        if f.is_zero:
            return self.spawn((Polynomial.constant(self.field, self.context, 1),))
        inter = self.intersection(self.spawn((f,)))
        quotients = []
        for g in inter.generators:
            (q,), r = divide(g, (f,), budget=self._budget())
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
            context = VariableContext(self.context.names[i] for i in order)
            place = {i: p for p, i in enumerate(order)}
            forms = [((1, place[i]),) for i in range(v)]
            forms[k] = ((1, v - 1),) + tuple(
                (self.field.neg(1), place[i]) for i in support[:-1])
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
        return self._with_basis(context, [
            Polynomial(self.field, context,
                       ((c, e[:-1]) for c, e in g.pairs() if not e[-1]))
            for g in self.groebner_basis()])

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

    def _homogeneous_socle_test(self):
        """For homogeneous I: whether M is associated, in one pass over the
        variables, last first, each moved basis read before the next is
        computed. A generator g of (I : x_i) with g not in I and x_j*g in I
        for every j is a nonzero socle element; each test is a normal form
        against I's cached basis."""
        v = self.context.count
        xs = None
        for i in (v - 1, *range(v - 1)):
            if self._moved_to_last((i,))._last_variable_regular():
                return False
            for g in self._colon_by_variable(i).generators:
                if not self.contains(g):
                    xs = xs or variables(self.field, self.context)
                    if all(self.contains(x * g) for x in xs):
                        return True
        return not self._colon_by_maximal_ideal().equals(self)

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
        """dim K[x..]/I, computed by the monomial engine on the supports of
        the leading terms: dim R/I = dim R/LT(I) for any monomial order, and
        dim sees only the radical of LT(I), which the supports generate; a
        squarefree ideal splits into primes only. A linear meet P cap Q has
        dim v - min(rk P, rk Q), the smaller operand being minimal."""
        if self.is_unit_ideal:
            raise UnitIdealError("the unit ideal has no Krull dimension")
        if self._operands is not None:
            return self.context.count - min(map(len, self._operands))
        return MonomialIdeal(self.context, (
            tuple(min(e, 1) for e in g.leading_monomial())
            for g in self.groebner_basis())).dimension()

    def maximal_ideal_associated(self):
        """Whether the maximal ideal M is associated to R/I, monomial I
        included. Homogeneous I reads one grevlex basis per variable moved
        last, I's own first, and stops at the first that decides: a regular
        variable proves M not associated, and a socle element among the
        generators of that (I : x_i) proves it associated, with normal forms
        alone. Failing both, M is associated exactly when the intersection
        (I : M) of the (I : x_i) is not I: on (x^2, y^2) the socle element
        xy generates no (I : x_i), and on (xy, xz, yz) M is not associated.
        A linear meet P cap Q has Ass the minimal members of {P, Q}, so M is
        associated exactly when rk P = rk Q = v. A non-homogeneous ideal
        gets the socle test from the colon calculus."""
        if self._m_assoc is not None:
            return self._m_assoc
        if self.is_unit_ideal:
            raise UnitIdealError("the unit ideal does not present a ring")
        if self._operands is not None:
            result = min(map(len, self._operands)) == self.context.count
        elif self.is_homogeneous:
            result = self._homogeneous_socle_test()
        else:
            result = not self.quotient(self.maximal_ideal()).equals(self)
        with self._lock:
            self._m_assoc = result
        return result

    def depth_at_least_two(self, candidate_budget=DEFAULT_REGULAR_CANDIDATE_BUDGET):
        """Decide depth >= 2 with a regular element as certificate.

        Depth drops by exactly one modulo any regular element f, so
        depth >= 2 exactly when M is not associated after cutting by f.
        The first regular candidate is cut, monomial I included: homogeneous
        I moves it to the last variable of one grevlex basis, other I uses
        the colon calculus, and a spent budget is reported as inconclusive,
        never as False.

        A linear meet P cap Q, rk P <= rk Q, cuts nothing. Its associated
        primes are P, and Q unless P lies in Q, and f is regular when its
        row lies in neither span. If P lies in Q, I = P has depth v - rk P.
        Otherwise R/(P + Q) has the least depth in the exact sequence
        0 -> R/I -> R/P + R/Q -> R/(P + Q) -> 0, so the depth lemma
        (Bruns-Herzog 1.2.9) gives depth R/I = v - rk(P + Q) + 1.
        """
        if self.maximal_ideal_associated():
            return DepthResult(False, None,
                               "depth 0: the maximal ideal is associated")
        v, homogeneous = self.context.count, self.is_homogeneous
        if self._operands is not None:
            p, q = sorted(self._operands, key=len)
            total = len(_row_reduce(self.field, p + q))
            primes = [p] if total == len(q) else [p, q]
            depth = v - (len(p) if total == len(q) else total - 1)
        stream = list(itertools.islice(regular_element_candidates(v),
                                       candidate_budget))
        for support in stream:
            f = variable_sum(self.field, self.context, support)
            if self._operands is not None:
                if all(any(_reduce_row(self.field, b, _coefficients(f)))
                       for b in primes):
                    return DepthResult.certified(f, depth >= 2)
                continue
            if homogeneous:
                moved = self._moved_to_last(support)
                if not moved._last_variable_regular():
                    continue
                cut = moved._cut_by_last_variable()
            else:
                try:  # one membership test: f in I is no regular element
                    if not self.is_regular_element(f):
                        continue
                except DegenerateInputError:
                    continue
                cut = self.plus(f)
            return DepthResult.certified(f, not cut.maximal_ideal_associated())
        return DepthResult(
            None, None,
            f"inconclusive: no regular element among the first {len(stream)} "
            "candidates")
