"""Groebner bases, ideal calculus, dimension, regularity and depth."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncat.errors import BudgetExceededError, DegenerateInputError, UnitIdealError
from noncat.groebner import IdealHandle, buchberger
from noncat.monomial import MonomialIdeal
from noncat.poly import (
    GREVLEX,
    LEX,
    FieldDescriptor,
    Monomial,
    Polynomial,
    variables,
)

from conftest import (
    QQ,
    ctx,
    la_membership,
    monomials_of_degree,
    random_monomial_ideal,
    random_nonzero_polynomial,
)


def handle(context, *gens, **kwargs):
    return IdealHandle(QQ, context, gens, **kwargs)


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        assert buchberger([x * y, x * z]) == (x * y, x * z)

    def test_linear_triangle(self):
        # {x - y, y - z} under lex x>y>z reduces to {x - z, y - z}
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        basis = buchberger([x - y, y - z], LEX)
        assert set(basis) == {x - z, y - z}

    def test_unit_ideal_detected(self):
        # x = y*x^2 - x*(x*y - 1), then 1 = y*x - (x*y - 1)
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        basis = buchberger([x * y - 1, x ** 2])
        assert basis == (Polynomial.constant(QQ, c, 1),)

    def test_generators_reduce_to_zero(self):
        rng = random.Random(5)
        c = ctx("x", "y", "z")
        for _ in range(40):
            gens = [random_nonzero_polynomial(rng, c)
                    for _ in range(rng.randint(1, 3))]
            h = handle(c, *gens)
            for g in gens:
                assert h.contains(g)
            # the basis regenerates the same ideal
            assert h.equals(handle(c, *h.groebner_basis()))

    def test_shared_handle_across_threads(self):
        import threading
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        h = handle(c, x ** 2 + y * z, y ** 2 + x * z)
        results = []

        def work():
            results.append(h.groebner_basis())

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        assert all(r == results[0] for r in results)

    def test_canonicity_under_shuffling(self):
        rng = random.Random(31337)
        c = ctx("x", "y", "z")
        for _ in range(100):
            gens = [random_nonzero_polynomial(rng, c)
                    for _ in range(rng.randint(1, 4))]
            reference = buchberger(gens)
            again = buchberger(gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == reference
            assert again == reference

    def test_step_budget_raises(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        gens = (x ** 2 + y * z, y ** 2 + x * z, z ** 2 + x * y)
        h = handle(c, *gens, gb_step_budget=2)
        with pytest.raises(BudgetExceededError):
            h.groebner_basis()
        # the same computation succeeds with room to work
        assert handle(c, *gens).groebner_basis()


@st.composite
def term_generators(draw):
    """(field, context, generators): single terms with random nonzero
    coefficients, redundant multiples mixed in, in random order."""
    field = draw(st.sampled_from(
        (QQ, FieldDescriptor(2), FieldDescriptor(32003))))
    v = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * v)
    vectors = draw(st.lists(exps, max_size=5))
    if vectors:
        for _ in range(draw(st.integers(0, 3))):
            base, extra = draw(st.sampled_from(vectors)), draw(exps)
            vectors.append(tuple(a + b for a, b in zip(base, extra)))
    vectors = draw(st.permutations(vectors))
    p = field.characteristic
    coeffs = (st.integers(1, p - 1) if p
              else st.fractions(-9, 9, max_denominator=9).filter(bool))
    c = ctx(*(f"x{i}" for i in range(v)))
    gens = [Polynomial(field, c, ((draw(coeffs), e),)) for e in vectors]
    return field, c, gens


class TestMonomialBasis:
    @settings(deadline=None)
    @given(term_generators())
    def test_monomial_engine_basis_matches_buchberger(self, case):
        field, c, gens = case
        h = IdealHandle(field, c, gens)
        assert h.groebner_basis() == buchberger(gens)
        assert h.monomial_ideal() is not None


class TestMembership:
    def setup_method(self):
        self.ctx = ctx("x", "y", "z")
        self.x, self.y, self.z = variables(QQ, self.ctx)

    def test_multiple_of_generator(self):
        assert self.x ** 2 * self.y in handle(self.ctx, self.x * self.y)

    def test_variable_not_in_monomial_ideal(self):
        h = handle(self.ctx, self.x * self.y, self.x * self.z)
        assert self.x not in h
        assert not h.normal_form(self.x).is_zero

    def test_zero_in_everything(self):
        zero = Polynomial.zero_poly(QQ, self.ctx)
        assert zero in handle(self.ctx, self.x)
        assert zero in handle(self.ctx)

    def test_la_oracle_agreement(self):
        """Membership agrees with the degree-truncated linear-algebra
        oracle on monomial and homogeneous ideals."""
        rng = random.Random(424242)
        c = self.ctx
        checked = 0
        for _ in range(30):
            gens = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 2)
                monos = list(monomials_of_degree(3, d))
                terms = [(rng.choice((-2, -1, 1, 2)), rng.choice(monos))
                         for _ in range(rng.randint(1, 2))]
                g = Polynomial(QQ, c, terms)
                if not g.is_zero:
                    gens.append(g)
            h = handle(c, *gens)
            for d in range(0, 5):
                for e in monomials_of_degree(3, d):
                    f = Polynomial(QQ, c, ((1, e),))
                    assert h.contains(f) == la_membership(f, gens)
                    checked += 1
        assert checked >= 1000


class TestIdealEquality:
    def setup_method(self):
        self.ctx = ctx("x", "y")
        self.x, self.y = variables(QQ, self.ctx)

    def test_order_of_generators_irrelevant(self):
        assert handle(self.ctx, self.x, self.y).equals(
            handle(self.ctx, self.y, self.x))

    def test_powers_differ(self):
        assert not handle(self.ctx, self.x).equals(
            handle(self.ctx, self.x ** 2))

    def test_mutual_membership(self):
        assert handle(self.ctx, self.x + self.y, self.y).equals(
            handle(self.ctx, self.x, self.y))


class TestIntersection:
    def test_hyperplane_with_plane(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        inter = handle(c, x).intersection(handle(c, y, z))
        assert inter.equals(handle(c, x * y, x * z))

    def test_idempotent(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        h = handle(c, x ** 2 - y)
        assert h.intersection(h).equals(h)

    def test_family_shape(self):
        # (x) cap (y1..ya) = (x*y1, .., x*ya)
        for a in (2, 3, 4):
            names = ["x"] + [f"y{i}" for i in range(1, a + 1)]
            c = ctx(*names)
            xs = variables(QQ, c)
            x, ys = xs[0], xs[1:]
            inter = handle(c, x).intersection(handle(c, *ys))
            assert inter.equals(handle(c, *(x * yi for yi in ys)))

    def test_generators_lie_in_both(self):
        rng = random.Random(99)
        c = ctx("x", "y", "z")
        for _ in range(25):
            lhs = handle(c, *(random_nonzero_polynomial(rng, c)
                              for _ in range(rng.randint(1, 2))))
            rhs = handle(c, *(random_nonzero_polynomial(rng, c)
                              for _ in range(rng.randint(1, 2))))
            inter = lhs.intersection(rhs)
            for g in inter.generators:
                assert g in lhs and g in rhs

    def test_monomial_oracle_agreement(self):
        rng = random.Random(4321)
        c = ctx("x", "y", "z", "w")
        for _ in range(20):
            a = MonomialIdeal(c, random_monomial_ideal(rng, 4, 3))
            b = MonomialIdeal(c, random_monomial_ideal(rng, 4, 3))
            expected = a.intersect(b)
            got = handle(c, *a.to_polynomials(QQ)).intersection(
                handle(c, *b.to_polynomials(QQ)))
            assert got.equals(handle(c, *expected.to_polynomials(QQ)))


class TestQuotient:
    def setup_method(self):
        self.ctx = ctx("x", "y", "z")
        self.x, self.y, self.z = variables(QQ, self.ctx)

    def test_colon_by_variable(self):
        h = handle(self.ctx, self.x * self.y, self.x * self.z)
        assert h.quotient_element(self.x).equals(
            handle(self.ctx, self.y, self.z))

    def test_colon_by_unit(self):
        h = handle(self.ctx, self.x * self.y)
        one = Polynomial.constant(QQ, self.ctx, 1)
        assert h.quotient_element(one).equals(h)

    def test_colon_power(self):
        h = handle(self.ctx, self.x ** 2)
        assert h.quotient_element(self.x).equals(handle(self.ctx, self.x))

    def test_colon_by_zero_degenerates_to_unit(self):
        h = handle(self.ctx, self.x)
        zero = Polynomial.zero_poly(QQ, self.ctx)
        assert h.quotient_element(zero).is_unit_ideal

    def test_monotone_and_regularity_boundary(self):
        rng = random.Random(7)
        for _ in range(25):
            gens = [random_nonzero_polynomial(rng, self.ctx)
                    for _ in range(rng.randint(1, 3))]
            h = handle(self.ctx, *gens)
            if h.is_unit_ideal:
                continue
            f = random_nonzero_polynomial(rng, self.ctx)
            if h.contains(f):
                continue
            colon = h.quotient_element(f)
            for g in h.generators:
                assert g in colon  # I is always inside (I : f)
            assert colon.equals(h) == h.is_regular_element(f)


class TestRegularity:
    def test_sum_avoiding_both_primes(self):
        c = ctx("x", "y", "z", "v")
        x, y, z, v = variables(QQ, c)
        h = handle(c, x * y, x * z)
        assert h.is_regular_element(x + y)

    def test_zero_divisor(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert not handle(c, x * y).is_regular_element(x)

    def test_domain_case(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert handle(c).is_regular_element(x - y + 1)

    def test_element_of_ideal_degenerate(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        with pytest.raises(DegenerateInputError):
            handle(c, x).is_regular_element(x)


class TestDimension:
    def test_paper_example_dimension(self):
        c = ctx("x", "y", "z", "v")
        x, y, z, v = variables(QQ, c)
        assert handle(c, x * y, x * z).krull_dimension() == 3

    def test_zero_ideal(self):
        c = ctx("x", "y", "z")
        assert handle(c).krull_dimension() == 3

    def test_family_dimension(self):
        for a, b in ((2, 2), (3, 1), (2, 4)):
            names = ["x"] + [f"y{i}" for i in range(1, a + 1)] \
                + [f"z{i}" for i in range(1, b + 1)]
            c = ctx(*names)
            xs = variables(QQ, c)
            gens = [xs[0] * xs[i] for i in range(1, a + 1)]
            assert handle(c, *gens).krull_dimension() == a + b

    def test_unit_ideal_has_no_dimension(self):
        c = ctx("x")
        one = Polynomial.constant(QQ, c, 1)
        with pytest.raises(UnitIdealError):
            handle(c, one).krull_dimension()

    def test_nonmonomial_dimension(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        # a surface and a curve
        assert handle(c, x ** 2 - y * z).krull_dimension() == 2
        assert handle(c, x - y, y ** 2 - z).krull_dimension() == 1


class TestMaximalIdealAssociated:
    def test_embedded_at_origin(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        h = handle(c, x ** 2, x * y)
        assert h.maximal_ideal_associated()
        # x witnesses the socle: x*M inside I but x outside I
        colon = h.quotient(h.maximal_ideal())
        assert x in colon and x not in h

    def test_paper_example_clean(self):
        c = ctx("x", "y", "z", "v")
        x, y, z, v = variables(QQ, c)
        assert not handle(c, x * y, x * z).maximal_ideal_associated()

    def test_power_series_ring(self):
        c = ctx("x", "y")
        assert not handle(c).maximal_ideal_associated()


class TestDepth:
    def test_ufd_family_depth_two(self):
        names = ("x", "y1", "y2", "z1", "z2")
        c = ctx(*names)
        x, y1, y2, z1, z2 = variables(QQ, c)
        result = handle(c, x * y1, x * y2).depth_at_least_two()
        assert result.verdict is True
        # deterministic candidate order: z1 is the first regular candidate
        assert result.regular_element == z1

    def test_depth_exactly_one(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        result = handle(c, x * y).depth_at_least_two()
        assert result.verdict is False
        assert result.regular_element == x + y

    def test_regular_sequence_in_power_series(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        result = handle(c).depth_at_least_two()
        assert result.verdict is True
        assert result.regular_element == x

    def test_depth_zero_reported_immediately(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        result = handle(c, x ** 2, x * y).depth_at_least_two()
        assert result.verdict is False
        assert result.regular_element is None

    def test_three_variable_cut_depth_one(self):
        """No variable or pair sum is regular on (xy, xz, yz); the cut by
        x + y + z is not monomial and has the maximal ideal associated."""
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        result = handle(c, x * y, x * z, y * z).depth_at_least_two()
        assert result.verdict is False
        assert result.regular_element == x + y + z

    def test_three_variable_cut_depth_two(self):
        c = ctx("x", "y", "z", "w")
        x, y, z, w = variables(QQ, c)
        result = handle(c, x * y * z, x * y * w, x * z * w,
                        y * z * w).depth_at_least_two()
        assert result.verdict is True
        assert result.regular_element == x + y + z

    def test_depth_bound_by_associated_dims(self):
        """Depth verdicts never exceed min dim(T/P) over the associated
        primes computed by the monomial engine."""
        rng = random.Random(606)
        c = ctx("x", "y", "z", "w")
        for _ in range(30):
            mono = MonomialIdeal(c, random_monomial_ideal(rng, 4, 4))
            if mono.is_unit:
                continue
            h = handle(c, *mono.to_polynomials(QQ))
            bound = min(p.quotient_dim(4) for p in mono.associated_primes())
            if not h.maximal_ideal_associated():
                assert bound >= 1
            result = h.depth_at_least_two()
            if result.verdict is True:
                assert bound >= 2
