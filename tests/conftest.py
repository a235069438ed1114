"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the code paths they check: minimal primes
and dimension by brute-force subset enumeration, and ideal membership by
degree-truncated linear algebra over the rationals.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from noncat.errors import ContextMismatchError
from noncat.groebner import regular_element_candidates
from noncat.poly import (
    FieldDescriptor,
    GREVLEX,
    Polynomial,
    VariableContext,
    exps_add,
    exps_divides,
    exps_sub,
    variables,
)

QQ = FieldDescriptor(0)


@pytest.fixture
def qq():
    return QQ


def ctx(*names):
    return VariableContext(names)


def poly_vars(context, field=QQ):
    return variables(field, context)


# -- brute-force spectrum oracles --

def brute_minimal_covers(supports, v):
    """All inclusion-minimal variable subsets hitting every support,
    by enumerating all 2^v subsets."""
    supports = [frozenset(s) for s in supports]
    hitting = []
    for mask in range(1 << v):
        subset = frozenset(i for i in range(v) if mask >> i & 1)
        if all(subset & s for s in supports):
            hitting.append(subset)
    return {s for s in hitting if not any(t < s for t in hitting)}


def ref_height(ideal, q):
    """Height of the monomial prime q over the monomial ideal: the largest
    rank drop to a minimal prime below it."""
    return max(q.mask.bit_count() - p.mask.bit_count()
               for p in ideal.minimal_primes() if q.contains(p))


def brute_dimension(gens, v):
    """v minus the smallest hitting-set size of the generator supports."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    if not supports:
        return v
    covers = brute_minimal_covers(supports, v)
    return v - min(len(s) for s in covers)



def ref_components(gens, v):
    """Irredundant irreducible components of the monomial ideal with these
    minimal generators, in order, by the containment scan that
    MonomialIdeal.irreducible_components once ran: each step replaces
    every component C_a that misses the next generator m by the a with
    a_i := m_i, one per i in supp m, and then drops each new vector that
    contains another new or surviving one, comparing them pairwise."""
    comps = [(0,) * v]
    for m in gens:
        kept, fresh = [], {}
        for a in comps:
            if any(0 < x <= y for x, y in zip(a, m)):
                kept.append(a)
            else:
                fresh.update(dict.fromkeys(
                    a[:i] + (y,) + a[i + 1:] for i, y in enumerate(m) if y))
        comps = kept + [a for a in fresh if not any(
            b != a and all(0 < x <= y for x, y in zip(a, b) if y)
            for b in itertools.chain(kept, fresh))]
    return tuple(comps)

def ref_depth(ideal):
    """Whether depth R/I >= 2 for the monomial ideal, by the graph on
    components that MonomialIdeal.depth_at_least_two once ran, read off
    the irredundant irreducible components
    C_b = (x_i^b_i : i in supp b) by Takayama's formula for
    H^1_M (Bull. Math. Soc. Sci. Math. Roumanie 48, 2005), where only
    degrees with at most one negative entry count. With M not
    associated, depth < 2 exactly when (a) some b with |supp b| = v - 1
    has no other C_d with supp d a proper subset of supp b and d >= b
    on supp d, or (b) some b, c whose supports cover all variables are
    not joined in the graph on the C_d with d >= min(b, c) on supp d
    (minimum over nonzero entries), two joined when their supports do
    not cover all variables. (a) is the degree b - 1 with the missing
    entry negative, whose complex is {empty face}; (b) is a
    disconnected complex in degree min(b, c) - 1, and any disconnected
    degree a >= 0 has such a pair with a <= min(b, c) - 1. For
    squarefree I this is Hochster's "connected, no isolated vertex"."""
    if ideal.maximal_ideal_associated():
        return False
    v = ideal.context.count
    full = (1 << v) - 1
    comps = ideal._decompose()[0]
    masks = [sum(1 << i for i, x in enumerate(b) if x) for b in comps]

    # both are cached for this call: for a squarefree I every covering
    # pair has the same min(b, c), so one family serves every pair

    @functools.cache
    def family(m):
        """Indices of the components C_d with d >= m on supp d."""
        return tuple(k for k, d in enumerate(comps)
                     if all(x >= y for x, y in zip(d, m) if x))

    @functools.cache
    def pieces(members):
        """Each member's connected piece, named by one vertex of it."""
        label, unseen = {}, set(members)
        while unseen:
            root = unseen.pop()
            label[root], stack = root, [root]
            while stack:
                j = masks[stack.pop()]
                near = [i for i in unseen if masks[i] | j != full]
                unseen.difference_update(near)
                label.update(dict.fromkeys(near, root))
                stack += near
        return label

    for k, b in enumerate(comps):
        if masks[k].bit_count() == v - 1 and not any(
                masks[j] | masks[k] == masks[k] != masks[j]
                for j in family(b)):
            return False
    for k, l in itertools.combinations(range(len(comps)), 2):
        if masks[k] | masks[l] != full:
            continue
        label = pieces(family(tuple(min(x, y) if x and y else x + y
                                    for x, y in zip(comps[k], comps[l]))))
        if label[k] != label[l]:
            return False
    return True


# -- linear-algebra membership oracle (valid for homogeneous ideals) --

def monomials_of_degree(v, d):
    """All exponent vectors of total degree d over v variables."""
    if v == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in monomials_of_degree(v - 1, d - first):
            yield (first,) + rest


def _row_reduce(rows):
    """In-place fraction Gaussian elimination; returns the pivot count."""
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def la_membership(f, gens):
    """Whether the homogeneous polynomial f lies in the ideal the
    homogeneous generators span, by solving for f in the span of the
    degree-matched shifts of the generators."""
    if f.is_zero:
        return True
    context = f.context
    v = context.count
    degrees = {sum(e) for _, e in f.pairs()}
    assert len(degrees) == 1, "oracle input must be homogeneous"
    d = degrees.pop()
    columns = {e: i for i, e in enumerate(monomials_of_degree(v, d))}

    def vectorize(poly):
        row = [Fraction(0)] * len(columns)
        for c, e in poly.pairs():
            row[columns[e]] = Fraction(c)
        return row

    rows = []
    for g in gens:
        gdeg = {sum(e) for _, e in g.pairs()}
        assert len(gdeg) == 1, "oracle generators must be homogeneous"
        gd = gdeg.pop()
        if gd > d:
            continue
        for shift in monomials_of_degree(v, d - gd):
            rows.append(vectorize(g.term_multiple(1, shift)))
    if not rows:
        return False
    base_rank = _row_reduce([row[:] for row in rows])
    extended_rank = _row_reduce([row[:] for row in rows] + [vectorize(f)])
    return base_rank == extended_rank


def depth_by_colon(h):
    """(verdict, regular element) of the depth >= 2 search from the colon
    calculus alone: the socle test, the first candidate f outside I with
    (I : f) = I, then the socle test on I + (f)."""
    if not h.quotient(h.maximal_ideal()).equals(h):
        return False, None
    xs = variables(h.field, h.context)
    for support in regular_element_candidates(h.context.count):
        f = sum((xs[i] for i in support[1:]), xs[support[0]])
        if h.contains(f) or not h.quotient_element(f).equals(h):
            continue
        g = h.plus(f)
        return g.quotient(g.maximal_ideal()).equals(g), f
    return None, None


def divide_reference(f, divisors, order=GREVLEX, budget=None):
    """Multivariate division that picks each leading monomial by a linear
    max over the work set and builds its results through the checked
    constructor: the oracle for the heap division of noncat.poly.divide,
    with the same selection rule (the first divisor whose leading monomial
    divides) and one budget unit per step."""
    divisors = list(divisors)
    field, context = f.field, f.context
    leads = []
    for g in divisors:
        if not isinstance(g, Polynomial) or g.field != field or g.context != context:
            raise ContextMismatchError("divisors must live in the same ring as f")
        if g.is_zero:
            raise ValueError("division by the zero polynomial")
        c, m = g.leading_term(order)
        leads.append((m, c, g.pairs()))

    key = order.key
    zero = field.zero
    work = {e: c for c, e in f.pairs()}
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


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the rest of the test; returns the list that
    grows by one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# -- randomized inputs --

def random_monomial_ideal(rng, v, max_gens, max_exp=2, squarefree=False):
    """Random nonunit monomial ideal as a list of exponent vectors."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        while True:
            if squarefree:
                e = tuple(rng.randint(0, 1) for _ in range(v))
            else:
                e = tuple(max(0, rng.randint(-1, max_exp)) for _ in range(v))
            if any(e):
                gens.append(e)
                break
    return gens


def random_polynomial(rng, context, max_terms=3, max_deg=3, field=QQ):
    """Random polynomial, possibly zero."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * context.count
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(context.count)] += 1
        coeff = rng.randint(-4, 4)
        terms.append((coeff, tuple(e)))
    return Polynomial(field, context, terms)


def random_nonzero_polynomial(rng, context, max_terms=3, max_deg=3, field=QQ):
    while True:
        f = random_polynomial(rng, context, max_terms, max_deg, field)
        if not f.is_zero:
            return f
