"""Polynomial arithmetic, monomial orders and multivariate division."""

import itertools
import operator
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncat.dsl import GenList, IdealStmt, parse_script
from noncat.errors import BudgetExceededError, ContextMismatchError
from noncat.groebner import IdealHandle, buchberger
from noncat.poly import (
    ELIMINATION,
    GREVLEX,
    Budget,
    RATIONALS,
    FieldDescriptor,
    Polynomial,
    RingPresentation,
    VariableContext,
    divide,
    exps_add,
    exps_divides,
    substitute_linear,
    variables,
)

from conftest import (
    QQ,
    ctx,
    divide_reference,
    random_nonzero_polynomial,
    random_polynomial,
)


class TestField:
    def test_rationals_are_exact(self):
        f = QQ
        third = f.coerce(Fraction(1, 3))
        assert f.mul(third, f.coerce(3)) == 1

    def test_integral_rationals_are_ints(self):
        """An element of Q is an int when integral and a Fraction with
        denominator above 1 otherwise, whatever the operation."""
        f = QQ
        for value, want in [(f.coerce(Fraction(4, 2)), 2),
                            (f.coerce(Fraction(-3)), -3), (f.coerce(5), 5),
                            (f.inv(Fraction(1, 3)), 3),
                            (f.inv(Fraction(-1, 4)), -4),
                            (f.inv(1), 1), (f.inv(-1), -1),
                            (f.add(Fraction(1, 2), Fraction(3, 2)), 2),
                            (f.sub(Fraction(1, 2), Fraction(5, 2)), -2),
                            (f.mul(4, Fraction(3, 2)), 6),
                            (f.div(6, 3), 2), (f.div(6, -3), -2),
                            (f.div(Fraction(3, 2), Fraction(3, 4)), 2),
                            (f.neg(7), -7)]:
            assert type(value) is int and value == want
        for value, want in [(f.inv(2), Fraction(1, 2)),
                            (f.inv(-2), Fraction(-1, 2)),
                            (f.inv(Fraction(2, 3)), Fraction(3, 2)),
                            (f.div(3, 6), Fraction(1, 2)),
                            (f.div(3, -6), Fraction(-1, 2)),
                            (f.add(1, Fraction(1, 2)), Fraction(3, 2)),
                            (f.neg(Fraction(1, 2)), Fraction(-1, 2))]:
            assert type(value) is Fraction and value == want
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                f.inv(zero)
            with pytest.raises(ZeroDivisionError):
                f.div(1, zero)

    def test_prime_field_arithmetic(self):
        f = FieldDescriptor(7)
        assert f.coerce(10) == 3
        assert f.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7
        assert f.coerce(Fraction(1, 3)) == 5

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldDescriptor(6)

    def test_primality_matches_trial_division(self):
        def by_trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        for n in range(1, 10 ** 4):
            try:
                FieldDescriptor(n)
            except ValueError:
                assert not by_trial(n), n
            else:
                assert by_trial(n), n

    @pytest.mark.parametrize("n", [561, 41041])
    def test_carmichael_numbers_rejected(self, n):
        with pytest.raises(ValueError):
            FieldDescriptor(n)

    def test_large_prime_accepted_at_once(self):
        p = 2 ** 61 - 1
        assert FieldDescriptor(p).inv(2) * 2 % p == 1

    def test_characteristic_from_2_to_the_64_rejected(self):
        with pytest.raises(ValueError, match="below 2\\^64"):
            FieldDescriptor(2 ** 64 + 13)


class TestInputChecks:
    """Each malformed argument is refused with its message."""

    def test_gf_p_inverse_of_zero(self):
        f = FieldDescriptor(7)
        for zero in (0, 7, -14):
            with pytest.raises(ZeroDivisionError, match="^inverse of zero "
                               "in GF\\(p\\)$"):
                f.inv(zero)

    def test_term_of_the_wrong_length(self):
        c = ctx("x", "y")
        for exps in ((1,), (1, 0, 0)):
            with pytest.raises(ContextMismatchError,
                               match="^term length does not match the "
                                     "context$"):
                Polynomial(QQ, c, ((1, exps),))
            with pytest.raises(ContextMismatchError,
                               match="^term length does not match the "
                                     "context$"):
                variables(QQ, c)[0].term_multiple(1, exps)

    def test_leading_term_of_zero(self):
        zero = Polynomial(QQ, ctx("x"))
        for order in (GREVLEX, ELIMINATION):
            with pytest.raises(ValueError, match="^the zero polynomial has "
                               "no leading term$"):
                zero.leading_term(order)

    def test_negative_or_non_integer_power(self):
        x, = variables(QQ, ctx("x"))
        for n in (-1, 2.0):
            with pytest.raises(ValueError, match="^polynomial powers must be "
                               "nonnegative integers$"):
                x ** n
        assert x ** 0 == Polynomial.constant(QQ, x.context, 1)


class TestValueSemantics:
    """Fields and presentations compare and hash by type and fields, print
    as Name(field=value, ...), and check their input."""

    def test_field_defaults_to_the_rationals(self):
        assert FieldDescriptor() == FieldDescriptor(0) == RATIONALS
        assert FieldDescriptor(characteristic=7) == FieldDescriptor(7)
        assert FieldDescriptor(7) != FieldDescriptor(11)
        assert FieldDescriptor(7) != 7 and FieldDescriptor(0) != 0

    def test_field_hash_and_repr(self):
        assert hash(FieldDescriptor(7)) == hash((7,))
        assert hash(FieldDescriptor()) == hash(RATIONALS) == hash((0,))
        assert repr(FieldDescriptor(7)) == "FieldDescriptor(characteristic=7)"
        assert str(FieldDescriptor(7)) == "F7" and str(RATIONALS) == "Q"

    def test_composite_field_rejected_by_keyword(self):
        with pytest.raises(ValueError, match="0 or a prime"):
            FieldDescriptor(4)
        with pytest.raises(ValueError, match="0 or a prime"):
            FieldDescriptor(characteristic=4)

    def test_presentation_value(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        ring = RingPresentation(QQ, c, [x * y, y])
        assert ring.generators == (x * y, y)
        same = RingPresentation(field=QQ, context=ctx("x", "y"),
                                generators=(x * y, y))
        assert ring == same and hash(ring) == hash(same)
        assert hash(ring) == hash((QQ, c, (x * y, y)))
        assert ring != RingPresentation(QQ, c, (x * y,))
        assert repr(RingPresentation(QQ, c, (y,))) == (
            "RingPresentation(field=FieldDescriptor(characteristic=0), "
            "context=VariableContext(x, y), generators=(<y>,))")

    def test_presentation_text(self):
        """A presentation prints as K[[names]]/(generators), zero
        generators left out."""
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        ring = RingPresentation(QQ, c, (x * y, Polynomial(QQ, c), y - 1))
        assert str(ring) == ring.render() == "Q[[x,y]]/(x*y, y - 1)"
        assert str(RingPresentation(FieldDescriptor(7), c, ())) == (
            "F7[[x,y]]/(0)")

    def test_presentation_rejects_a_foreign_generator(self):
        x, _ = variables(QQ, ctx("x", "y"))
        with pytest.raises(ContextMismatchError):
            RingPresentation(QQ, ctx("x", "y", "z"), (x,))
        with pytest.raises(ContextMismatchError):
            RingPresentation(FieldDescriptor(5), ctx("x", "y"), (x,))


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableContext(("x", "x"))

    def test_index_round_trip(self):
        c = ctx("x", "y", "z")
        assert [c.index(n) for n in c.names] == [0, 1, 2]
        with pytest.raises(ValueError):
            c.index("w")


class BlockOrder:
    """Grevlex on the first `block` variables, then grevlex on the rest:
    the reference that ELIMINATION (block 1) must sort like, and with
    block 2 a third order for the division and canonical-form tests."""

    def __init__(self, block):
        self.block = block

    def key(self, exps):
        b = self.block
        return (GREVLEX.key(exps[:b]), GREVLEX.key(exps[b:]))

    def descending_key(self, exps):
        b = self.block
        return GREVLEX.descending_key(exps[:b]) + GREVLEX.descending_key(
            exps[b:])


ORDERS = (GREVLEX, ELIMINATION, BlockOrder(2))


class TestCompare:
    """Monomial orders act on exponent tuples through their sort keys."""

    def test_reflexive_equal(self):
        for order in (ELIMINATION, GREVLEX):
            assert order.key((1, 2, 0)) == order.key((1, 2, 0))

    def test_elimination_sorts_as_the_first_variable_block(self):
        """ELIMINATION orders every pair of monomials as the block order
        with the first variable as its block does."""
        block = BlockOrder(1)
        for v in (1, 2, 3, 4):
            monomials = list(itertools.product(range(3), repeat=v))
            for key in ("key", "descending_key"):
                ours, ref = getattr(ELIMINATION, key), getattr(block, key)
                assert (sorted(monomials, key=ours)
                        == sorted(monomials, key=ref))
        assert ELIMINATION.key((1, 0, 0)) > ELIMINATION.key((0, 5, 5))

    def test_grevlex_xz_below_y2(self):
        # grevlex(x>y>z): equal degree, the larger z-exponent loses
        assert GREVLEX.key((1, 0, 1)) < GREVLEX.key((0, 2, 0))

    def test_order_axioms_randomized(self):
        rng = random.Random(101)
        for order in (ELIMINATION, GREVLEX):
            key = order.key
            for _ in range(300):
                a, b, c = (tuple(rng.randint(0, 4) for _ in range(3))
                           for _ in range(3))
                # antisymmetry / totality: keys tie only on equal tuples
                assert (key(a) == key(b)) == (a == b)
                # transitivity on a sorted triple
                lo, mid, hi = sorted((a, b, c), key=key)
                assert key(lo) <= key(mid) <= key(hi)
                # 1 is minimal, multiplication preserves the order
                assert key((0, 0, 0)) <= key(a)
                if key(a) < key(b):
                    assert key(exps_add(a, c)) < key(exps_add(b, c))

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 4).flatmap(
        lambda v: st.lists(st.tuples(*[st.integers(0, 3)] * v),
                           min_size=2, max_size=2)))
    def test_descending_key_reverses_key(self, pair):
        """divide's heap and every Polynomial sort read descending_key."""
        a, b = pair
        for order in ORDERS:
            assert ((order.descending_key(a) < order.descending_key(b))
                    == (order.key(a) > order.key(b)))


class TestArithmetic:
    def setup_method(self):
        self.ctx = ctx("x", "y")
        self.x, self.y = variables(QQ, self.ctx)

    def test_cancellation(self):
        assert (self.x + self.y) + (-self.y) == self.x

    def test_product_of_variables(self):
        xy = self.x * self.y
        assert xy.pairs() == ((Fraction(1), (1, 1)),)

    def test_difference_of_squares(self):
        lhs = (self.x + self.y) * (self.x - self.y)
        assert lhs == self.x ** 2 - self.y ** 2

    def test_ring_axioms_randomized(self):
        rng = random.Random(77)
        c = ctx("x", "y", "z")
        for _ in range(80):
            f = random_polynomial(rng, c)
            g = random_polynomial(rng, c)
            h = random_polynomial(rng, c)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_context_mismatch(self):
        other = Polynomial.variable(QQ, ctx("a", "b"), "a")
        with pytest.raises(ContextMismatchError):
            _ = self.x + other

    def test_canonical_equality(self):
        # same terms fed in different orders compare equal
        f = Polynomial(QQ, self.ctx, ((1, (1, 0)), (2, (0, 1))))
        g = Polynomial(QQ, self.ctx, ((2, (0, 1)), (1, (1, 0))))
        assert f == g and hash(f) == hash(g)

    def test_equal_only_to_a_polynomial(self):
        """A constant polynomial is not the number it holds, so equality
        agrees with the hash; is_constant and is_zero test for numbers."""
        three = Polynomial.constant(QQ, self.ctx, 3)
        for number in (3, Fraction(3)):
            assert three != number and number != three
        assert three not in {3, Fraction(3)}
        assert Polynomial(QQ, self.ctx) != 0
        same = Polynomial(QQ, self.ctx, ((Fraction(6, 2), (0, 0)),))
        assert three == same and hash(three) == hash(same)
        assert three.is_constant and Polynomial(QQ, self.ctx).is_zero

    def test_number_minus_polynomial(self):
        assert (1 - self.x).pairs() == ((-1, (1, 0)), (1, (0, 0)))
        assert Fraction(1, 2) - self.y == -self.y + Fraction(1, 2)

    @pytest.mark.parametrize("other", [1.5, "x", None], ids=repr)
    def test_arithmetic_with_a_non_number_raises(self, other):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(self.x, other)
            with pytest.raises(TypeError):
                op(other, self.x)


class TestRendering:
    def test_readme_shape(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        f = 3 * x ** 2 * y - Fraction(1, 2) * z
        assert str(f) == "3*x^2*y - 1/2*z"

    def test_zero_and_constant(self):
        c = ctx("x")
        assert str(Polynomial(QQ, c)) == "0"
        assert str(Polynomial.constant(QQ, c, -3)) == "-3"

    def test_prime_field_rendering(self):
        f5 = FieldDescriptor(5)
        c = ctx("x")
        x = Polynomial.variable(f5, c, "x")
        assert str(x - 1) == "x + 4"


class TestDivision:
    def setup_method(self):
        self.ctx = ctx("x", "y", "z")
        self.x, self.y, self.z = variables(QQ, self.ctx)

    def test_exact_divisor(self):
        _, r = divide(self.x * self.y, [self.x * self.y])
        assert r.is_zero

    def test_no_leading_term_divides(self):
        _, r = divide(self.x ** 2, [self.x * self.y])
        assert r == self.x ** 2

    def test_one_step_by_hand(self):
        # divide x^2*y + z by x*y - z under the elimination order of x:
        # x^2*y - x*(x*y - z) = x*z, and neither x*z nor z is a multiple
        # of the lead x*y
        f = self.x ** 2 * self.y + self.z
        (q,), r = divide(f, [self.x * self.y - self.z], ELIMINATION)
        assert r == self.x * self.z + self.z
        assert q == self.x

    def test_recombination_randomized(self):
        rng = random.Random(2024)
        for order in (GREVLEX, ELIMINATION):
            for _ in range(120):
                f = random_polynomial(rng, self.ctx, max_terms=4)
                divisors = [random_nonzero_polynomial(rng, self.ctx)
                            for _ in range(rng.randint(1, 3))]
                qs, r = divide(f, divisors, order)
                recombined = r
                for q, g in zip(qs, divisors):
                    recombined = recombined + q * g
                assert recombined == f
                # no monomial of r is divisible by any leading monomial
                leads = [g.leading_monomial(order) for g in divisors]
                for _, e in r.pairs():
                    assert not any(exps_divides(lm, e) for lm in leads)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divide(self.x, [Polynomial(QQ, self.ctx)])

    def test_equal_rings_divide_as_one(self):
        """Divisors over an equal but distinct field and context divide as
        over the same ones; a foreign context or field still raises."""
        rng = random.Random(61)
        for p in (0, 2, 32003):
            field, twin = FieldDescriptor(p), FieldDescriptor(p)
            c, twin_c = ctx("x", "y", "z"), ctx("x", "y", "z")
            for _ in range(30):
                f = random_polynomial(rng, c, max_terms=5, field=field)
                divisors = [random_nonzero_polynomial(rng, twin_c, field=twin)
                            for _ in range(rng.randint(1, 3))]
                for order in (GREVLEX, ELIMINATION):
                    assert (divide(f, divisors, order)
                            == divide_reference(f, divisors, order))
            foreign = [Polynomial.variable(field, ctx("x", "y", "w"), 0),
                       Polynomial.variable(FieldDescriptor(3), c, 0)]
            for g in foreign:
                with pytest.raises(ContextMismatchError):
                    divide(f, [g])


FIELDS = (QQ, FieldDescriptor(2), FieldDescriptor(32003))


def expand(f, forms, target):
    """f with x_i replaced by forms[i], by Polynomial arithmetic."""
    ys = variables(f.field, target)
    zero = Polynomial(f.field, target)
    out = zero
    for c, e in f.pairs():
        term = Polynomial.constant(f.field, target, c)
        for i, p in enumerate(e):
            form = sum((a * ys[j] for a, j in forms[i]), zero)
            term = term * form ** p
        out = out + term
    return out


class TestSubstituteLinear:
    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_agrees_with_expansion(self, field):
        rng = random.Random(31)
        source, target = ctx("x", "y", "z"), ctx("u", "v", "w", "t")
        for _ in range(40):
            f = random_polynomial(rng, source, max_terms=4, field=field)
            forms = [tuple((rng.randint(-3, 3), rng.randrange(4))
                           for _ in range(rng.randint(1, 3)))
                     for _ in range(3)]
            assert (substitute_linear(f, forms, target)
                    == expand(f, forms, target))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_inverse_change_restores(self, field):
        """y -> y - x with y moved last sends x + y to the last variable;
        y -> y + x moves it back. Over GF(2), where -1 = 1, both changes
        have the same coefficients."""
        rng = random.Random(47)
        source, moved = ctx("x", "y", "z"), ctx("x", "z", "y")
        one, minus = 1, field.neg(1)
        forward = [((one, 0),), ((one, 2), (minus, 0)), ((one, 1),)]
        back = [((one, 0),), ((one, 2),), ((one, 1), (one, 0))]
        x, y, z = variables(field, source)
        assert (substitute_linear(x + y, forward, moved)
                == variables(field, moved)[2])
        for _ in range(40):
            f = random_polynomial(rng, source, max_terms=4, field=field)
            image = substitute_linear(f, forward, moved)
            assert image == expand(f, forward, moved)
            assert substitute_linear(image, back, source) == f

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_renamings_agree_with_expansion(self, field):
        """Forms of one term each map every term to one term: permutations,
        renamings that merge variables (x -> w, y -> w), scaled ones
        (x -> 2*w) and seeded ones, zero coefficients included."""
        rng = random.Random(59)
        source, target = ctx("x", "y", "z"), ctx("u", "v", "w")
        renamings = [[((1, j),) for j in perm]
                     for perm in itertools.permutations(range(3))]
        renamings += [[((1, 2),), ((1, 2),), ((1, 0),)],
                      [((2, 2),), ((1, 1),), ((-3, 2),)]]
        renamings += [[((rng.randint(-3, 3), rng.randrange(3)),)
                       for _ in range(3)] for _ in range(20)]
        for forms in renamings:
            for _ in range(10):
                f = random_polynomial(rng, source, max_terms=5, field=field)
                assert (substitute_linear(f, forms, target)
                        == expand(f, forms, target))

    def test_high_powers_agree_with_expansion(self):
        """Each power of a form is built from the one below it, so an
        exponent far above the recursion limit substitutes too."""
        source, target = ctx("x", "y"), ctx("u", "v")
        x, y = variables(QQ, source)
        rename = [((1, 1),), ((1, 0),)]
        assert (substitute_linear(x ** 1500, rename, target)
                == expand(x ** 1500, rename, target))
        two_term = [((2, 0), (-1, 1)), ((1, 1),)]
        f = x ** 12 * y - 3 * y ** 2 + x ** 5
        assert (substitute_linear(f, two_term, target)
                == expand(f, two_term, target))


#: small rationals, drawn both as ints and as Fractions (integral ones too)
RATIONAL_COEFFS = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def polynomials(draw, field, context, max_terms=5, nonzero=False,
                coeffs=st.integers(-5, 5), max_exp=3):
    """Random polynomial through the checked constructor; with nonzero, a
    draw that cancels to zero is replaced by the constant 1."""
    exps = st.tuples(*[st.integers(0, max_exp)] * context.count)
    terms = draw(st.lists(st.tuples(coeffs, exps), max_size=max_terms))
    f = Polynomial(field, context, terms)
    if nonzero and f.is_zero:
        return Polynomial.constant(field, context, 1)
    return f


@st.composite
def division_problems(draw):
    """(f, divisors, order) over Q, GF(2) or GF(32003) in 1-4 variables."""
    field = draw(st.sampled_from(FIELDS))
    c = ctx(*(f"x{i}" for i in range(draw(st.integers(1, 4)))))
    f = draw(polynomials(field, c, max_terms=6))
    divisors = draw(st.lists(polynomials(field, c, 4, nonzero=True),
                             min_size=1, max_size=3))
    return f, divisors, draw(st.sampled_from(ORDERS))


class TestHeapDivision:
    """The heap division against the linear-max reference of conftest."""

    @settings(deadline=None, max_examples=150)
    @given(division_problems())
    def test_matches_reference(self, problem):
        f, divisors, order = problem
        budget, expected_budget = Budget(10 ** 6), Budget(10 ** 6)
        assert (divide(f, divisors, order, budget)
                == divide_reference(f, divisors, order, expected_budget))
        assert budget.used == expected_budget.used

    @settings(deadline=None, max_examples=100)
    @given(division_problems(), st.integers(0, 6))
    def test_budget_runs_out_with_reference(self, problem, limit):
        f, divisors, order = problem

        def outcome(fn):
            budget = Budget(limit)
            try:
                return fn(f, divisors, order, budget), budget.used
            except BudgetExceededError:
                return "exceeded", budget.used

        assert outcome(divide) == outcome(divide_reference)


def typed_pairs(p):
    return tuple((type(c), c, e) for c, e in p.pairs())


class TestCanonicalForm:
    """Results built without the checked constructor are what it would
    build, and a polynomial's cached lead follows the order asked for."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_results_match_checked_constructor(self, data):
        field = data.draw(st.sampled_from(FIELDS))
        c, target = ctx("x", "y", "z"), ctx("u", "v", "w", "t")
        f, g = (data.draw(polynomials(field, c)) for _ in range(2))
        h = data.draw(polynomials(field, c, nonzero=True))
        coeff = data.draw(st.integers(-3, 3))
        shift = data.draw(st.tuples(*[st.integers(0, 2)] * 3))
        order = data.draw(st.sampled_from(ORDERS))
        forms = data.draw(st.lists(
            st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                     min_size=1, max_size=3).map(tuple),
            min_size=3, max_size=3))
        qs, r = divide(f, (g, h) if g else (h,), order)
        results = [f + g, f - g, -f, f * g, f.term_multiple(coeff, shift),
                   f.monic(order), *qs, r,
                   substitute_linear(f, forms, target)]
        for p in results:
            rebuilt = Polynomial(p.field, p.context, p.pairs())
            assert typed_pairs(rebuilt) == typed_pairs(p)
            assert hash(rebuilt) == hash(p)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(FIELDS).flatmap(
        lambda field: polynomials(field, ctx("x", "y", "z"), nonzero=True)),
        st.lists(st.sampled_from(ORDERS), min_size=2, max_size=6))
    def test_lead_follows_the_order(self, f, orders):
        for order in orders:
            assert f.leading_term(order) == max(
                f.pairs(), key=lambda t: order.key(t[1]))

    def test_three_orders_three_leads(self):
        """x*z^3 + x*y + y^2*z^2 + y^3 has a different lead under each
        order; every call sequence, on a fresh polynomial and on one
        already asked, reads the lead of the order asked for."""
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        expected = {GREVLEX: (0, 2, 2), ORDERS[1]: (1, 0, 3),
                    ORDERS[2]: (0, 3, 0)}
        asked = x * z ** 3 + x * y + y ** 2 * z ** 2 + y ** 3
        for sequence in itertools.permutations(ORDERS):
            fresh = x * z ** 3 + x * y + y ** 2 * z ** 2 + y ** 3
            for f in (fresh, asked):
                for order in sequence:
                    assert f.leading_monomial(order) == expected[order]

    def test_lead_shared_between_threads(self):
        """Threads asking one polynomial for its lead under different orders
        each read the lead of their own order."""
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        f = x * z ** 3 + x * y + y ** 2 * z ** 2 + y ** 3
        expected = {order: max(f.pairs(), key=lambda t: order.key(t[1]))[1]
                    for order in ORDERS}
        wrong = []

        def ask(start):
            for k in range(2000):
                order = ORDERS[(start + k) % len(ORDERS)]
                if f.leading_monomial(order) != expected[order]:
                    wrong.append(order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def assert_rational_canonical(p):
    """Every coefficient of p over Q is an int exactly when integral."""
    for c, _ in p.pairs():
        assert type(c) is (int if c.denominator == 1 else Fraction), (c, p)


@st.composite
def script_polynomials(draw, names):
    """Text of a polynomial in the script language with coefficients
    written as n/d, so integral ones such as 4/2 appear too."""
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), st.integers(1, 6),
                                    st.integers(1, 4), exps),
                          min_size=1, max_size=4))
    out = ""
    for sign, num, den, e in terms:
        mono = "".join(f"*{n}^{k}" for n, k in zip(names, e) if k)
        out += f" {sign} {num}/{den}{mono}"
    return out


class TestRationalsAsInts:
    """Over Q no polynomial holds a Fraction with denominator 1, whichever
    path built it: integral coefficients are ints, the rest Fractions."""

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_arithmetic_and_division(self, data):
        c, target = ctx("x", "y", "z"), ctx("u", "v", "w", "t")
        f, g = (data.draw(polynomials(QQ, c, coeffs=RATIONAL_COEFFS))
                for _ in range(2))
        h = data.draw(polynomials(QQ, c, nonzero=True, coeffs=RATIONAL_COEFFS))
        coeff = data.draw(RATIONAL_COEFFS)
        shift = data.draw(st.tuples(*[st.integers(0, 2)] * 3))
        order = data.draw(st.sampled_from(ORDERS))
        forms = data.draw(st.lists(
            st.lists(st.tuples(RATIONAL_COEFFS, st.integers(0, 3)),
                     min_size=1, max_size=3).map(tuple),
            min_size=3, max_size=3))
        qs, r = divide(f, (g, h) if g else (h,), order)
        for p in [f, g, h, f + g, f - g, -f, f * g,
                  f.term_multiple(coeff, shift), f.monic(order), *qs, r,
                  substitute_linear(f, forms, target)]:
            assert_rational_canonical(p)

    @settings(deadline=None, max_examples=30)
    @given(st.data())
    def test_groebner_bases_and_intersections(self, data):
        c = ctx("x", "y", "z")
        small = polynomials(QQ, c, max_terms=3, nonzero=True,
                            coeffs=RATIONAL_COEFFS, max_exp=1)
        gens = [data.draw(small) for _ in range(2)]
        try:
            basis = buchberger(gens, GREVLEX, Budget(2000))
            meet = IdealHandle(QQ, c, gens[:1], 2000).intersection(
                IdealHandle(QQ, c, gens[1:], 2000))
        except BudgetExceededError:
            return
        linear = st.lists(st.tuples(RATIONAL_COEFFS, st.sampled_from(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)])), min_size=1, max_size=3)
        left, right = ([Polynomial(QQ, c, data.draw(linear))
                        for _ in range(data.draw(st.integers(1, 2)))]
                       for _ in range(2))
        linear_meet = IdealHandle(QQ, c, left).intersection(
            IdealHandle(QQ, c, right))
        for p in (*basis, *meet.generators, *linear_meet.generators):
            assert_rational_canonical(p)

    @settings(deadline=None, max_examples=40)
    @given(st.lists(script_polynomials(("x", "y", "z")), min_size=1,
                    max_size=3))
    def test_parsed_scripts(self, polys):
        script = parse_script(
            f"ring Q[x, y, z]\nideal I = ({', '.join(polys)})\n")
        stmt, = (s for s in script if isinstance(s, IdealStmt))
        assert isinstance(stmt.expr, GenList)
        for p in stmt.expr.polys:
            assert_rational_canonical(p)
