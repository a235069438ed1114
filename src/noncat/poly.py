"""Exact multivariate polynomials over Q or GF(p) with total monomial orders.

Every value in this module is immutable and every operation is a pure
function, so contexts, monomials and polynomials can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError, ContextMismatchError

DEFAULT_GB_STEP_BUDGET = 200_000


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Coefficient field: the rationals (characteristic 0) or GF(p)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValueError(f"field characteristic must be 0 or a prime, got {p}")

    @property
    def is_prime_field(self):
        return self.characteristic != 0

    @property
    def zero(self):
        return 0 if self.characteristic else Fraction(0)

    @property
    def one(self):
        return 1 if self.characteristic else Fraction(1)

    def coerce(self, value):
        """Turn an int or Fraction into a canonical element of the field."""
        p = self.characteristic
        if p == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        if isinstance(value, Fraction):
            return self.div(value.numerator % p, value.denominator % p)
        return int(value) % p

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

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
        return 1 / Fraction(a)

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
    return tuple(x + y for x, y in zip(a, b))


def exps_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exps_divides(a, b):
    """Whether x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def exps_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Monomial:
    """Exponent vector; the length must match the variable context."""

    exponents: tuple

    def _same_length(self, other):
        if len(self.exponents) != len(other.exponents):
            raise ContextMismatchError("monomials from different variable contexts")

    def __mul__(self, other):
        self._same_length(other)
        return Monomial(exps_add(self.exponents, other.exponents))

    def divides(self, other):
        self._same_length(other)
        return exps_divides(self.exponents, other.exponents)

    def __truediv__(self, other):
        self._same_length(other)
        if not exps_divides(other.exponents, self.exponents):
            raise ValueError("inexact monomial division")
        return Monomial(exps_sub(self.exponents, other.exponents))

    def lcm(self, other):
        self._same_length(other)
        return Monomial(exps_lcm(self.exponents, other.exponents))

    def render(self, context):
        parts = []
        for name, e in zip(context.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


# -- monomial orders --

class MonomialOrder:
    """A total monomial order, presented as a sort key on exponent vectors
    (key(a) < key(b) exactly when a is smaller in the order)."""

    name = "order"

    def key(self, exps):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class _LexOrder(MonomialOrder):
    name = "lex"

    def key(self, exps):
        return exps


class _GrevlexOrder(MonomialOrder):
    """Degree first; ties broken on the reversed exponent vector with the
    sign flipped, so among equal degrees a larger exponent in a later
    variable loses."""

    name = "grevlex"

    def key(self, exps):
        return (sum(exps), tuple(-e for e in reversed(exps)))


LEX = _LexOrder()
GREVLEX = _GrevlexOrder()


@dataclass(frozen=True)
class BlockEliminationOrder(MonomialOrder):
    """Block order eliminating the first `block` variables: any monomial
    involving them sorts above every monomial that does not; grevlex is
    used inside each block."""

    block: int
    name = "elim"

    def key(self, exps):
        b = self.block
        return (GREVLEX.key(exps[:b]), GREVLEX.key(exps[b:]))


def compare_monomials(a, b, order=GREVLEX):
    """Return -1, 0 or 1 as a is below, equal to, or above b in the order."""
    if len(a.exponents) != len(b.exponents):
        raise ContextMismatchError("monomials from different variable contexts")
    ka, kb = order.key(a.exponents), order.key(b.exponents)
    if ka < kb:
        return -1
    return 1 if ka > kb else 0


class Polynomial:
    """Immutable polynomial stored as canonically sorted nonzero terms,
    so structural equality coincides with mathematical equality."""

    __slots__ = ("field", "context", "_terms")

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
        self._terms = tuple(
            (acc[e], e) for e in sorted(acc, key=GREVLEX.key, reverse=True)
        )

    # -- construction helpers --

    @classmethod
    def zero_poly(cls, field, context):
        return cls(field, context, ())

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
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        if order is GREVLEX:
            c, e = self._terms[0]
        else:
            c, e = max(self._terms, key=lambda t: order.key(t[1]))
        return c, Monomial(e)

    def leading_monomial(self, order=GREVLEX):
        return self.leading_term(order)[1]

    def leading_coefficient(self, order=GREVLEX):
        return self.leading_term(order)[0]

    def monic(self, order=GREVLEX):
        if self.is_zero:
            return self
        c = self.leading_coefficient(order)
        if c == self.field.one:
            return self
        inv = self.field.inv(c)
        return Polynomial(
            self.field, self.context,
            ((self.field.mul(inv, c0), e) for c0, e in self._terms),
        )

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

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.field, self.context, self._terms + other._terms)

    __radd__ = __add__

    def __neg__(self):
        f = self.field
        return Polynomial(f, self.context, ((f.neg(c), e) for c, e in self._terms))

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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
        return Polynomial(f, self.context, ((c, e) for e, c in acc.items()))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        out = Polynomial.constant(self.field, self.context, 1)
        for _ in range(n):
            out = out * self
        return out

    def term_multiple(self, coeff, exps):
        """self multiplied by coeff * x^exps."""
        f = self.field
        c0 = f.coerce(coeff)
        return Polynomial(
            f, self.context,
            ((f.mul(c0, c), exps_add(e, exps)) for c, e in self._terms),
        )

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

    def render(self, order=GREVLEX):
        if not self._terms:
            return "0"
        ordered = sorted(self._terms, key=lambda t: order.key(t[1]), reverse=True)
        rational = not self.field.is_prime_field
        pieces = []
        for c, e in ordered:
            mono = Monomial(e).render(self.context)
            sign = "+"
            if rational and c < 0:
                sign, c = "-", -c
            if mono == "1":
                body = self.field.render(c)
            elif c == self.field.one:
                body = mono
            else:
                body = f"{self.field.render(c)}*{mono}"
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


class Budget:
    """Countdown of abstract work steps; raises once exhausted."""

    __slots__ = ("limit", "used", "label")

    def __init__(self, limit, label="step budget"):
        self.limit = limit
        self.used = 0
        self.label = label

    def spend(self, n=1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceededError(f"{self.label} exceeded ({self.limit} steps)")


def divide(f, divisors, order=GREVLEX, budget=None):
    """Multivariate division: f = sum(q_i * divisors_i) + r where no
    monomial of r is divisible by any divisor's leading monomial.

    Deterministic given the order and the listed divisor sequence: at each
    step the first divisor whose leading monomial divides the current
    leading monomial is used.
    """
    divisors = list(divisors)
    field, context = f.field, f.context
    leads = []
    for g in divisors:
        if not isinstance(g, Polynomial) or g.field != field or g.context != context:
            raise ContextMismatchError("divisors must live in the same ring as f")
        if g.is_zero:
            raise ValueError("division by the zero polynomial")
        c, m = g.leading_term(order)
        leads.append((m.exponents, c, g._terms))

    key = order.key
    zero = field.zero
    work = {e: c for c, e in f._terms}
    quotients = [dict() for _ in divisors]
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for i, (lm, lc, gterms) in enumerate(leads):
            if exps_divides(lm, m):
                if budget is not None:
                    budget.spend()
                u = exps_sub(m, lm)
                factor = field.div(c, lc)
                q = quotients[i]
                q[u] = field.add(q.get(u, zero), factor)
                for gc, ge in gterms:
                    t = exps_add(ge, u)
                    nv = field.sub(work.get(t, zero), field.mul(factor, gc))
                    if nv == zero:
                        work.pop(t, None)
                    else:
                        work[t] = nv
                break
        else:
            remainder[m] = c
            del work[m]
    qs = tuple(
        Polynomial(field, context, ((c, e) for e, c in q.items()))
        for q in quotients
    )
    r = Polynomial(field, context, ((c, e) for e, c in remainder.items()))
    return qs, r


@dataclass(frozen=True)
class RingPresentation:
    """A complete local ring presented as a power-series quotient
    K[[x1..xv]] / (generators)."""

    field: FieldDescriptor
    context: VariableContext
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.field != self.field or g.context != self.context:
                raise ContextMismatchError(
                    "generators must match the presentation's field and context")

    def render(self):
        vars_part = ",".join(self.context.names)
        gens = ", ".join(str(g) for g in self.generators if not g.is_zero)
        return f"{self.field}[[{vars_part}]]/({gens or '0'})"

    def __str__(self):
        return self.render()
