"""Polynomial arithmetic, monomial orders and multivariate division."""

import random
from fractions import Fraction

import pytest

from noncat.errors import ContextMismatchError
from noncat.poly import (
    GREVLEX,
    LEX,
    FieldDescriptor,
    Monomial,
    Polynomial,
    VariableContext,
    compare_monomials,
    divide,
    substitute_linear,
    variables,
)

from conftest import QQ, ctx, random_nonzero_polynomial, random_polynomial


class TestField:
    def test_rationals_are_exact(self):
        f = QQ
        third = f.coerce(Fraction(1, 3))
        assert f.mul(third, f.coerce(3)) == f.one

    def test_prime_field_arithmetic(self):
        f = FieldDescriptor(7)
        assert f.coerce(10) == 3
        assert f.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7
        assert f.coerce(Fraction(1, 3)) == 5

    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldDescriptor(6)


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VariableContext(("x", "x"))

    def test_index_round_trip(self):
        c = ctx("x", "y", "z")
        assert [c.index(n) for n in c.names] == [0, 1, 2]
        with pytest.raises(ValueError):
            c.index("w")


class TestCompare:
    def test_lex_x2_above_xy(self):
        # lex(x>y): x^2 vs x*y
        a, b = Monomial((2, 0)), Monomial((1, 1))
        assert compare_monomials(a, b, LEX) == 1

    def test_reflexive_equal(self):
        m = Monomial((1, 2, 0))
        for order in (LEX, GREVLEX):
            assert compare_monomials(m, m, order) == 0

    def test_grevlex_xz_below_y2(self):
        # grevlex(x>y>z): equal degree, the larger z-exponent loses
        xz, y2 = Monomial((1, 0, 1)), Monomial((0, 2, 0))
        assert compare_monomials(xz, y2, GREVLEX) == -1

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            compare_monomials(Monomial((1,)), Monomial((1, 0)))

    def test_order_axioms_randomized(self):
        rng = random.Random(101)
        for order in (LEX, GREVLEX):
            for _ in range(300):
                exps = [tuple(rng.randint(0, 4) for _ in range(3))
                        for _ in range(3)]
                a, b, c = (Monomial(e) for e in exps)
                cab = compare_monomials(a, b, order)
                # antisymmetry / totality
                assert cab == -compare_monomials(b, a, order)
                assert cab == 0 if a == b else cab != 0
                # transitivity on a sorted triple
                lo, mid, hi = sorted((a, b, c), key=lambda m: order.key(m.exponents))
                if compare_monomials(lo, mid, order) <= 0 \
                        and compare_monomials(mid, hi, order) <= 0:
                    assert compare_monomials(lo, hi, order) <= 0
                # 1 is minimal, multiplication preserves the order
                one = Monomial((0, 0, 0))
                assert compare_monomials(one, a, order) <= 0
                if cab == -1:
                    assert compare_monomials(a * c, b * c, order) == -1


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


class TestRendering:
    def test_readme_shape(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        f = 3 * x ** 2 * y - Fraction(1, 2) * z
        assert str(f) == "3*x^2*y - 1/2*z"

    def test_zero_and_constant(self):
        c = ctx("x")
        assert str(Polynomial.zero_poly(QQ, c)) == "0"
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
        # divide x^2*y + z by x*y - z under lex x>y>z
        f = self.x ** 2 * self.y + self.z
        (q,), r = divide(f, [self.x * self.y - self.z], LEX)
        assert r == self.x * self.z + self.z
        assert q == self.x

    def test_recombination_randomized(self):
        rng = random.Random(2024)
        for order in (GREVLEX, LEX):
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
                    assert not any(lm.divides(Monomial(e)) for lm in leads)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ValueError):
            divide(self.x, [Polynomial.zero_poly(QQ, self.ctx)])


FIELDS = (QQ, FieldDescriptor(2), FieldDescriptor(32003))


def expand(f, forms, target):
    """f with x_i replaced by forms[i], by Polynomial arithmetic."""
    ys = variables(f.field, target)
    zero = Polynomial.zero_poly(f.field, target)
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
        one, minus = field.one, field.neg(field.one)
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
