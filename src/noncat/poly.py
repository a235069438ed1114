"""Exact multivariate polynomials over Q or GF(p) with total monomial orders.

A monomial is its exponent tuple, indexed against a variable context. A
coefficient in GF(p) is an int in [0, p); one in Q is an int when it is
integral and a Fraction with denominator above 1 otherwise.

Every value in this module is immutable and every operation is a pure
function, so contexts, exponent tuples and polynomials can be shared
freely between threads. The one lazily filled slot, a polynomial's
leading term under the last non-grevlex order asked for, is idempotent:
each write is a whole (order, lead) tuple that is a function of the
polynomial and the order, and a reader that finds another order there
computes its own, so a lost or repeated write changes no result.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, le, neg, sub

from .errors import BudgetExceededError, ContextMismatchError

DEFAULT_GB_STEP_BUDGET = 200_000


# strong-pseudoprime bases: the twelve primes up to 37 leave no composite
# below 3.1 * 10^23, so Miller-Rabin with them is exact below 2^64
# (Sorenson-Webster, Math. Comp. 86, 2017)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Primality of n < 2^64, in a few modular powers."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(value):
    """The canonical element of Q for a Fraction: its numerator when the
    denominator is 1, the Fraction itself otherwise."""
    return value.numerator if value.denominator == 1 else value


class _Value:
    """Base of the immutable value classes. A subclass names its fields in
    `__slots__` and sets them in its own `__init__`; nothing assigns to
    them afterwards. Two values are equal when they have the same type and
    equal fields, a value hashes as the tuple of its fields, and its repr
    is `Name(field=value, ...)`."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FieldDescriptor(_Value):
    """Coefficient field: the rationals (characteristic 0) or GF(p).

    An element of GF(p) is an int in [0, p). An element of Q is an int
    when it is integral and a Fraction with denominator above 1
    otherwise, so the small integers most arithmetic touches never pay
    for a Fraction. Every operation takes and returns canonical
    elements; Python compares and hashes an int and a Fraction of equal
    value alike, so the choice shows only in the types."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic=0):
        p = characteristic
        if p >= 2 ** 64:
            raise ValueError(
                f"field characteristic must be below 2^64, got {p}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"field characteristic must be 0 or a prime, got {p}")
        self.characteristic = p

    # every polynomial operation compares fields, so these skip _fields

    def __eq__(self, other):
        if other.__class__ is not FieldDescriptor:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.characteristic,))

    @property
    def is_prime_field(self):
        return self.characteristic != 0

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, value):
        """Turn an int or Fraction into a canonical element of the field."""
        p = self.characteristic
        if p == 0:
            if type(value) is int:
                return value
            return _rational(value if isinstance(value, Fraction)
                             else Fraction(value))
        if isinstance(value, Fraction):
            return self.div(value.numerator % p, value.denominator % p)
        return int(value) % p

    # over Q, int with int stays an int; only a result that involved a
    # Fraction can have come out integral and need _rational

    def add(self, a, b):
        p = self.characteristic
        if p:
            return (a + b) % p
        c = a + b
        return c if type(c) is int else _rational(c)

    def sub(self, a, b):
        p = self.characteristic
        if p:
            return (a - b) % p
        c = a - b
        return c if type(c) is int else _rational(c)

    def mul(self, a, b):
        p = self.characteristic
        if p:
            return (a * b) % p
        c = a * b
        return c if type(c) is int else _rational(c)

    def neg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def inv(self, a):
        p = self.characteristic
        if p:
            if a % p == 0:
                raise ZeroDivisionError("inverse of zero in GF(p)")
            return pow(a, p - 2, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return a
        return _rational(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def render(self, a):
        return str(a)

    def __str__(self):
        return f"F{self.characteristic}" if self.characteristic else "Q"


RATIONALS = FieldDescriptor(0)


class VariableContext:
    """Ordered list of distinct variable names; monomials are exponent
    vectors indexed against it."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    @property
    def count(self):
        return len(self.names)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, VariableContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VariableContext({', '.join(self.names)})"


# -- exponent-vector helpers (shared with the Groebner and monomial engines) --

def exps_add(a, b):
    return tuple(map(add, a, b))


def exps_sub(a, b):
    return tuple(map(sub, a, b))


def exps_divides(a, b):
    """Whether x^a divides x^b."""
    return all(map(le, a, b))


def exps_lcm(a, b):
    return tuple(map(max, a, b))


# -- monomial orders: key sorts ascending in the order, descending_key
# sorts or heaps the largest monomial first without reverse=True --

class _GrevlexOrder:
    """Degree first; ties broken on the reversed exponent vector with the
    sign flipped, so among equal degrees a larger exponent in a later
    variable loses."""

    def key(self, exps):
        return (sum(exps), tuple(map(neg, reversed(exps))))

    def descending_key(self, exps):
        return (-sum(exps), exps[::-1])


GREVLEX = _GrevlexOrder()


class BlockEliminationOrder(_Value):
    """Block order eliminating the first `block` variables: any monomial
    involving them sorts above every monomial that does not; grevlex is
    used inside each block."""

    __slots__ = ("block",)

    def __init__(self, block):
        self.block = block

    def key(self, exps):
        b = self.block
        return (GREVLEX.key(exps[:b]), GREVLEX.key(exps[b:]))

    def descending_key(self, exps):
        head, tail = exps[:self.block], exps[self.block:]
        return (-sum(head), head[::-1], -sum(tail), tail[::-1])


_grevlex_first = GREVLEX.descending_key


class Polynomial:
    """Immutable polynomial stored as canonically sorted nonzero terms,
    so structural equality coincides with mathematical equality.

    The public constructor checks and normalizes outside input. Results
    that are canonical by construction go through `_canonical` instead."""

    __slots__ = ("field", "context", "_terms", "_lead")

    def __init__(self, field, context, terms=()):
        acc = {}
        zero = field.zero
        for coeff, exps in terms:
            exps = tuple(exps)
            if len(exps) != context.count:
                raise ContextMismatchError("term length does not match the context")
            c = field.coerce(coeff)
            if c == zero:
                continue
            c = field.add(acc.get(exps, zero), c)
            if c == zero:
                acc.pop(exps, None)
            else:
                acc[exps] = c
        self.field = field
        self.context = context
        self._terms = tuple((acc[e], e) for e in sorted(acc, key=_grevlex_first))
        self._lead = None

    @classmethod
    def _canonical(cls, field, context, terms):
        """A polynomial from a tuple of terms already in canonical form:
        nonzero field elements, distinct exponent tuples of the context's
        length, sorted descending under grevlex. Nothing is checked."""
        p = object.__new__(cls)
        p.field = field
        p.context = context
        p._terms = terms
        p._lead = None
        return p

    # -- construction helpers --

    @classmethod
    def constant(cls, field, context, value):
        return cls(field, context, ((value, (0,) * context.count),))

    @classmethod
    def variable(cls, field, context, which):
        i = which if isinstance(which, int) else context.index(which)
        exps = tuple(1 if j == i else 0 for j in range(context.count))
        return cls(field, context, ((field.one, exps),))

    # -- inspection --

    def pairs(self):
        """Raw (coefficient, exponent tuple) pairs, descending under grevlex."""
        return self._terms

    @property
    def is_zero(self):
        return not self._terms

    @property
    def is_constant(self):
        return len(self._terms) == 1 and not any(self._terms[0][1])

    @property
    def is_term(self):
        return len(self._terms) == 1

    def __bool__(self):
        return bool(self._terms)

    def leading_term(self, order=GREVLEX):
        """(coefficient, exponent tuple) of the largest term under the
        order. The terms are stored in grevlex order, so the grevlex lead
        is the first stored term; the lead under any other order is found
        once and kept with that order until another is asked."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        if order is GREVLEX:
            return self._terms[0]
        lead = self._lead
        if lead is None or lead[0] is not order:
            lead = self._lead = (
                order, max(self._terms, key=lambda t: order.key(t[1])))
        return lead[1]

    def leading_monomial(self, order=GREVLEX):
        return self.leading_term(order)[1]

    def monic(self, order=GREVLEX):
        if self.is_zero:
            return self
        c = self.leading_term(order)[0]
        if c == self.field.one:
            return self
        f = self.field
        inv = f.inv(c)
        return Polynomial._canonical(
            f, self.context, tuple((f.mul(inv, c0), e) for c0, e in self._terms))

    # -- arithmetic --

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field or other.context != self.context:
                raise ContextMismatchError(
                    "polynomials from different rings cannot be combined")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.field, self.context, other)
        return NotImplemented

    def _merge(self, terms, negate):
        """self plus (or, with negate, minus) the canonical terms of a
        polynomial of the same ring. Shared exponents are combined and the
        result is sorted once: it is two descending runs, which the sort
        merges in linear time."""
        f = self.field
        zero = f.zero
        acc = {e: c for c, e in self._terms}
        for c, e in terms:
            if negate:
                c = f.neg(c)
            old = acc.get(e)
            if old is None:
                acc[e] = c
            else:
                c = f.add(old, c)
                if c == zero:
                    del acc[e]
                else:
                    acc[e] = c
        return Polynomial._canonical(
            f, self.context,
            tuple((acc[e], e) for e in sorted(acc, key=_grevlex_first)))

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other._terms, False)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Polynomial._canonical(
            f, self.context, tuple((f.neg(c), e) for c, e in self._terms))

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._merge(other._terms, True)

    def __rsub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        acc = {}
        zero = f.zero
        for c1, e1 in self._terms:
            for c2, e2 in other._terms:
                e = exps_add(e1, e2)
                c = f.add(acc.get(e, zero), f.mul(c1, c2))
                if c == zero:
                    acc.pop(e, None)
                else:
                    acc[e] = c
        return Polynomial._canonical(
            f, self.context,
            tuple((acc[e], e) for e in sorted(acc, key=_grevlex_first)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.constant(self.field, self.context, 1)
        for _ in range(n):
            out = out * self
        return out

    def term_multiple(self, coeff, exps):
        """self multiplied by coeff * x^exps. Multiplying by a monomial
        keeps the grevlex order of the terms, so nothing is re-sorted."""
        f = self.field
        exps = tuple(exps)
        if len(exps) != self.context.count:
            raise ContextMismatchError("term length does not match the context")
        c0 = f.coerce(coeff)
        if c0 == f.zero:
            return Polynomial._canonical(f, self.context, ())
        return Polynomial._canonical(f, self.context, tuple(
            (f.mul(c0, c), exps_add(e, exps)) for c, e in self._terms))

    # -- equality and rendering --

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.field, self.context, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.field == other.field and self.context == other.context
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.field, self.context, self._terms))

    def render(self):
        if not self._terms:
            return "0"
        field, names = self.field, self.context.names
        rational = not field.is_prime_field
        pieces = []
        for c, e in self._terms:
            mono = "*".join(n if k == 1 else f"{n}^{k}"
                            for n, k in zip(names, e) if k)
            sign = "+"
            if rational and c < 0:
                sign, c = "-", -c
            if not mono:
                body = field.render(c)
            elif c == field.one:
                body = mono
            else:
                body = f"{field.render(c)}*{mono}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"<{self.render()}>"


def variables(field, context):
    """All variables of the context as polynomials, in declared order."""
    return tuple(Polynomial.variable(field, context, i)
                 for i in range(context.count))


def substitute_linear(f, forms, context):
    """f with each variable x_i replaced by the linear form forms[i], given
    as (coefficient, variable index) pairs over the target context. When
    every form is a single term, this is a renaming: each term goes to one
    term and no power is expanded. So this also reorders variables."""
    field = f.field
    if all(len(form) == 1 for form in forms):
        pairs = []
        for c, e in f.pairs():
            t = [0] * context.count
            for ((a, j),), p in zip(forms, e):
                if p:
                    t[j] += p
                    c = field.mul(c, field.coerce(a) ** p)
            pairs.append((c, t))
        return Polynomial(field, context, pairs)
    one = (0,) * context.count
    images = [Polynomial(field, context,
                         ((c, one[:j] + (1,) + one[j + 1:]) for c, j in form))
              for form in forms]
    pairs = []
    for c, e in f.pairs():
        term = Polynomial(field, context, ((c, one),))
        for image, p in zip(images, e):
            if p:
                term = term * image ** p
        pairs.extend(term.pairs())
    return Polynomial(field, context, pairs)


class Budget:
    """Countdown of the groebner step budget, in abstract work steps, for
    one computation; raises once exhausted."""

    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(
                f"groebner step budget exceeded ({self.limit} steps)")


def divide(f, divisors, order=GREVLEX, budget=None):
    """Multivariate division: f = sum(q_i * divisors_i) + r where no
    monomial of r is divisible by any divisor's leading monomial.

    Deterministic given the order and the listed divisor sequence: at each
    step the first divisor whose leading monomial divides the current
    leading monomial is used. The current leading monomial comes off a
    heap (Monagan-Pearce), each monomial's order key computed once when it
    enters the work set; each step spends one unit of the budget.
    """
    divisors = list(divisors)
    field, context = f.field, f.context
    leads = []
    for g in divisors:
        if not isinstance(g, Polynomial) or (
                g.field is not field and g.field != field) or (
                g.context is not context and g.context != context):
            raise ContextMismatchError("divisors must live in the same ring as f")
        if g.is_zero:
            raise ValueError("division by the zero polynomial")
        c, m = g.leading_term(order)
        leads.append((m, c, g._terms))

    key = order.descending_key
    zero = field.zero
    # work maps each monomial on the heap to its coefficient; one that
    # cancels stays with coefficient zero, so it is never pushed twice
    work = {e: c for c, e in f._terms}
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    quotients = [[] for _ in divisors]
    remainder = []
    while heap:
        m = heapq.heappop(heap)[1]
        c = work[m]
        if c != zero:
            for i, (lm, lc, gterms) in enumerate(leads):
                if exps_divides(lm, m):
                    if budget is not None:
                        budget.spend()
                    u = exps_sub(m, lm)
                    factor = field.div(c, lc)
                    quotients[i].append((factor, u))
                    for gc, ge in gterms:
                        t = exps_add(ge, u)
                        old = work.get(t)
                        if old is None:
                            work[t] = field.neg(field.mul(factor, gc))
                            heapq.heappush(heap, (key(t), t))
                        else:
                            work[t] = field.sub(old, field.mul(factor, gc))
                    break
            else:
                remainder.append((c, m))
        del work[m]
    # every leading monomial is smaller than the one before, so each
    # quotient and the remainder are already descending under the order
    if order is not GREVLEX:
        quotients = [sorted(q, key=lambda t: _grevlex_first(t[1]))
                     for q in quotients]
        remainder.sort(key=lambda t: _grevlex_first(t[1]))
    unused = Polynomial._canonical(field, context, ())
    qs = tuple(Polynomial._canonical(field, context, tuple(q)) if q else unused
               for q in quotients)
    return qs, Polynomial._canonical(field, context, tuple(remainder))


class RingPresentation(_Value):
    """A complete local ring presented as a power-series quotient
    K[[x1..xv]] / (generators)."""

    __slots__ = ("field", "context", "generators")

    def __init__(self, field, context, generators):
        generators = tuple(generators)
        for g in generators:
            if g.field != field or g.context != context:
                raise ContextMismatchError(
                    "generators must match the presentation's field and context")
        self.field = field
        self.context = context
        self.generators = generators

    def render(self):
        vars_part = ",".join(self.context.names)
        gens = ", ".join(str(g) for g in self.generators if not g.is_zero)
        return f"{self.field}[[{vars_part}]]/({gens or '0'})"

    def __str__(self):
        return self.render()
