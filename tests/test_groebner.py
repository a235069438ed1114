"""Groebner bases, ideal calculus, dimension, regularity and depth."""

import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncat import groebner
from noncat.errors import (
    BudgetExceededError,
    ContextMismatchError,
    DegenerateInputError,
    UnitIdealError,
)
from noncat.groebner import IdealHandle, buchberger
from noncat.monomial import MonomialIdeal
from noncat.poly import (
    BlockEliminationOrder,
    FieldDescriptor,
    Polynomial,
    variables,
)

from conftest import (
    QQ,
    count_calls,
    ctx,
    depth_by_colon,
    la_membership,
    monomials_of_degree,
    random_monomial_ideal,
    random_nonzero_polynomial,
)


def handle(context, *gens, **kwargs):
    return IdealHandle(QQ, context, gens, **kwargs)


def embedded_origin(field=QQ):
    """(x + y) cap (x, y, z)^2: a plane with an embedded point at the
    origin. M is associated, yet x, y and z are not all zero divisors
    for the same reason, so every linear candidate has to be tried."""
    c = ctx("x", "y", "z")
    x, y, z = variables(field, c)
    line = IdealHandle(field, c, (x + y,))
    square = IdealHandle(field, c, (x * x, y * y, z * z, x * y, x * z, y * z))
    return line.intersection(square)


def tilted_line_and_plane(field=QQ):
    """(x + y1 - 2*y2) cap (y1 + y2, y2): depth exactly 1."""
    c = ctx("x", "y1", "y2")
    x, y1, y2 = variables(field, c)
    return IdealHandle(field, c, (x + y1 - 2 * y2,)).intersection(
        IdealHandle(field, c, (y1 + y2, y2)))


def twisted_cubic(field=QQ):
    c = ctx("a", "b", "cc", "d")
    a, b, cc, d = variables(field, c)
    return IdealHandle(field, c, (a * cc - b * b, a * d - b * cc,
                                  b * d - cc * cc))


def coordinate_squares(field=QQ):
    """(x^2, y^2): M is associated, yet its socle element xy generates no
    (I : x_i)."""
    c = ctx("x", "y")
    x, y = variables(field, c)
    return IdealHandle(field, c, (x * x, y * y))


def coordinate_axes(field=QQ):
    """(xy, xz, yz), the three coordinate axes: no variable is regular,
    and M is not associated."""
    c = ctx("x", "y", "z")
    x, y, z = variables(field, c)
    return IdealHandle(field, c, (x * y, x * z, y * z))


def tilted_cut(field=QQ):
    """The tilted line and plane cut by its regular variable x."""
    return tilted_line_and_plane(field)._moved_to_last(
        (0,))._cut_by_last_variable()


def socle_generators(h):
    """Per variable x_i, the generators of (I : x_i) that are nonzero socle
    elements of R/I: outside I, and sent into I by every variable."""
    xs = variables(h.field, h.context)
    return [[g for g in h._colon_by_variable(i).generators
             if g not in h and all(x * g in h for x in xs)]
            for i in range(h.context.count)]


FIELDS = (QQ, FieldDescriptor(2), FieldDescriptor(32003))


class TestBuchberger:
    def test_monomial_ideal_is_its_own_basis(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        assert buchberger([x * y, x * z]) == (x * y, x * z)

    def test_linear_triangle(self):
        # {x - y, y - z} under the elimination order of x (the order
        # intersection runs) reduces to {x - z, y - z}
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        basis = buchberger([x - y, y - z], BlockEliminationOrder(1))
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

    def test_basis_and_monomial_class_published_together(self):
        """A reader running right after the filling call stores the basis,
        before that call returns, already finds the monomial ideal. An
        opcode trace on the filling call plays that reader at every
        instruction once the slot is set."""
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        h = handle(c, x * y, x * z)
        code = IdealHandle.groebner_basis.__code__
        seen = []

        def each_opcode(frame, event, arg):
            if event == "opcode" and h._gb is not None:
                seen.append(h.monomial_ideal())
            return each_opcode

        def on_call(frame, event, arg):
            if frame.f_code is code and frame.f_locals.get("self") is h:
                frame.f_trace_opcodes = True
                return each_opcode
            return None

        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            h.groebner_basis()
        finally:
            sys.settrace(previous)
        assert seen
        assert seen == [MonomialIdeal(c, ((1, 1, 0), (1, 0, 1)))] * len(seen)

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
        zero = Polynomial(QQ, self.ctx)
        assert zero in handle(self.ctx, self.x)
        assert zero in handle(self.ctx)

    def test_step_budget_bounds_normal_forms(self):
        """A normal form draws on the step budget: x*y in (x) takes one
        division step, x in (y) none."""
        h = handle(self.ctx, self.x, gb_step_budget=0)
        with pytest.raises(BudgetExceededError, match="groebner step budget"):
            h.contains(self.x * self.y)
        assert not h.contains(self.y)
        assert handle(self.ctx, self.x, gb_step_budget=1).contains(
            self.x * self.y)

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


@st.composite
def linear_pairs(draw):
    """(I, J): ideals of linear forms in 2-6 variables over Q, GF(2) and
    GF(32003), sharing zero to two random forms so that their spans
    overlap, with redundant generators mixed in."""
    field = draw(st.sampled_from(
        (QQ, FieldDescriptor(2), FieldDescriptor(32003))))
    v = draw(st.integers(2, 6))
    c = ctx(*(f"x{i}" for i in range(v)))
    xs = variables(field, c)
    zero = Polynomial(field, c)
    coeffs = st.lists(st.integers(-3, 3), min_size=v, max_size=v)

    def form():
        return sum((a * x for a, x in zip(draw(coeffs), xs)), zero)

    shared = [form() for _ in range(draw(st.integers(0, 2)))]
    sides = []
    for _ in range(2):
        gens = shared + [form() for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()) and len(gens) >= 2:
            gens.append(gens[0] + gens[1])
        gens = [g for g in draw(st.permutations(gens)) if not g.is_zero]
        sides.append(IdealHandle(field, c, gens or [xs[0]]))
    return tuple(sides)


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

    @settings(deadline=None, max_examples=80)
    @given(linear_pairs())
    def test_linear_path_matches_elimination(self, pair):
        """Ideals of linear forms meet in W + I*J, W the intersection of
        the spans, with no elimination; the elimination is the oracle."""
        lhs, rhs = pair
        got = lhs.intersection(rhs)
        assert got.generators == lhs._eliminate(rhs).generators
        assert got._gb[0] == got.generators

    @pytest.mark.parametrize("names,lhs,rhs,expected", [
        ("xyz", lambda x, y, z: (x, y), lambda x, y, z: (y, z),
         lambda x, y, z: (x * z, y)),
        ("xyz", lambda x, y, z: (x + y,), lambda x, y, z: (x, y),
         lambda x, y, z: (x + y,)),
        ("xyz", lambda x, y, z: (x - z, y + z), lambda x, y, z: (y + z, x - z),
         lambda x, y, z: (x - z, y + z)),
        ("xyz", lambda x, y, z: (x + 2 * y - z,), lambda x, y, z: (x, y, z),
         lambda x, y, z: (x + 2 * y - z,)),
        ("xy", lambda x, y: (x,), lambda x, y: (x + y,),
         lambda x, y: (x ** 2 + x * y,)),
    ], ids=["W-nonzero", "I-in-J", "I-equals-J", "I-cap-M", "x-cap-x+y"])
    def test_known_linear_intersections(self, names, lhs, rhs, expected):
        c = ctx(*names)
        xs = variables(QQ, c)
        i, j = handle(c, *lhs(*xs)), handle(c, *rhs(*xs))
        got = i.intersection(j)
        assert got.generators == expected(*xs)
        assert got.generators == i._eliminate(j).generators
        assert j.intersection(i).generators == got.generators

    @pytest.mark.parametrize("names,lhs,rhs,expected", [
        (("t", "x"), lambda t, x: (t ** 2,), lambda t, x: (x ** 2 + t * x,),
         lambda t, x: (t ** 3 * x + t ** 2 * x ** 2,)),
        (("_t", "t", "x"), lambda u, t, x: (t ** 2, u),
         lambda u, t, x: (x ** 2 + t * x,),
         lambda u, t, x: (t ** 3 * x + t ** 2 * x ** 2,
                          u * t * x + u * x ** 2)),
    ], ids=["t", "_t-and-t"])
    def test_elimination_variable_avoids_ring_names(self, names, lhs, rhs,
                                                     expected):
        """The eliminated variable is named t unless the ring has a t, then
        _t, then __t: a ring variable named t is never eliminated."""
        c = ctx(*names)
        xs = variables(QQ, c)
        got = handle(c, *lhs(*xs)).intersection(handle(c, *rhs(*xs)))
        assert got.generators == expected(*xs)
        assert all(la_membership(g, expected(*xs)) for g in got.generators)
        assert all(la_membership(f, got.generators) for f in expected(*xs))

    def test_linear_path_runs_one_buchberger_and_no_elimination(
            self, monkeypatch):
        """Two sides of rank 2: one Buchberger run reduces W + I*J."""
        c = ctx("x", "y", "z", "w")
        x, y, z, w = variables(QQ, c)
        lhs = handle(c, x, y)
        rhs = handle(c, x + z, y + w)
        runs = count_calls(monkeypatch, groebner, "buchberger")
        contexts = count_calls(monkeypatch, groebner, "VariableContext")
        eliminations = count_calls(monkeypatch, IdealHandle, "_eliminate")
        got = lhs.intersection(rhs)
        assert len(runs) == 1 and not contexts and not eliminations
        got.groebner_basis()
        got.monomial_ideal()
        assert len(runs) == 1

    def test_principal_linear_meet_runs_no_buchberger(self, monkeypatch):
        """(f) cap J = f*J for f outside J's span, and f times J's echelon
        basis is its Groebner basis: no Buchberger run, no elimination, and
        here no division step, so a zero budget still gives the
        elimination's result, with either side first."""
        c = ctx("x", "y1", "y2", "z1")
        x, y1, y2, z1 = variables(QQ, c)
        f, gs = x - y1 + 2 * y2, (y1 + y2 - z1, y2 - 2 * z1)
        expected = handle(c, f)._eliminate(handle(c, *gs)).generators
        lhs = handle(c, f, gb_step_budget=0)
        rhs = handle(c, *gs, gb_step_budget=0)
        runs = count_calls(monkeypatch, groebner, "buchberger")
        contexts = count_calls(monkeypatch, groebner, "VariableContext")
        eliminations = count_calls(monkeypatch, IdealHandle, "_eliminate")
        for got in (lhs.intersection(rhs), rhs.intersection(lhs)):
            assert got.generators == expected
            got.groebner_basis()
            got.monomial_ideal()
        assert not runs and not contexts and not eliminations

    @pytest.mark.parametrize("field", (QQ, FieldDescriptor(2),
                                       FieldDescriptor(32003)), ids=str)
    def test_principal_meets_match_elimination(self, monkeypatch, field):
        """(f) cap J against the elimination on seeded forms in 2-6
        variables: f inside J's span, outside it, a multiple of J's one
        generator, and J principal too, with either side first."""
        rng = random.Random(3217)
        if field.characteristic == 2:
            # x + y = (y + z) + (x + z) lies in the other span only over F2
            x, y, z = variables(field, ctx("x", "y", "z"))
            assert IdealHandle(field, x.context, [x + y]).intersection(
                IdealHandle(field, x.context, [y + z, x + z])
            ).generators == (x + y,)
        runs = count_calls(monkeypatch, groebner, "buchberger")
        seen = set()
        for v in range(2, 7):
            c = ctx(*(f"x{i}" for i in range(v)))
            xs = variables(field, c)
            zero = Polynomial(field, c)

            def form():
                while True:
                    g = sum((rng.randint(-3, 3) * xi for xi in xs), zero)
                    if g:
                        return g

            for case in ("inside", "outside", "multiple", "principal") * 4:
                gs = [form() for _ in range(
                    1 if case in ("multiple", "principal") else
                    rng.randint(2, min(3, v)))]
                if case == "inside":
                    f = sum((rng.randint(1, 3) * g for g in gs), zero) or gs[0]
                elif case == "multiple":
                    f = rng.choice((1, -2, 5)) * gs[0] or gs[0]
                else:
                    f = form()
                i, j = IdealHandle(field, c, [f]), IdealHandle(field, c, gs)
                expected = i._eliminate(j).generators
                seen.add(j.contains(f))
                del runs[:]
                assert i.intersection(j).generators == expected
                assert j.intersection(i).generators == expected
                assert not runs
        assert seen == {True, False}

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_moved_meets_match_buchberger(self, monkeypatch, field):
        """A linear meet moved to put a sum of variables last is the meet of
        its moved operands. On seeded meets in 2-6 variables, principal with
        f inside and outside the other span and two-sided, with either side
        first, each moved basis is Buchberger's on the substituted basis of
        the meet, for sums of 1, 2, 3 and all variables, and the moved
        handle keeps its moved operands. A principal meet moves with no
        Buchberger run, a two-sided one with one."""
        rng = random.Random(5501)
        runs = count_calls(monkeypatch, groebner, "buchberger")
        seen = set()
        for v in range(2, 7):
            c = ctx(*(f"x{i}" for i in range(v)))
            xs = variables(field, c)
            zero = Polynomial(field, c)

            def form():
                while True:
                    g = sum((rng.randint(-3, 3) * xi for xi in xs), zero)
                    if g:
                        return g

            supports = sorted({tuple(sorted(rng.sample(range(v), size)))
                               for size in {1, 2, 3, v} if size <= v
                               for _ in range(2)})
            for case in ("inside", "outside", "two-sided"):
                gs = [form() for _ in range(rng.randint(2, min(3, v)))]
                fs = ([sum((rng.randint(1, 3) * g for g in gs), zero)
                       or gs[0]] if case == "inside" else
                      [form() for _ in range(1 if case == "outside" else 2)])
                i, j = IdealHandle(field, c, fs), IdealHandle(field, c, gs)
                principal = v - max(i.embedding_dimension(),
                                    j.embedding_dimension()) == 1
                for lhs, rhs in ((i, j), (j, i)):
                    meet = lhs.intersection(rhs)
                    plain = meet.spawn(meet.generators)
                    seen.add((principal, len(meet.generators) == 1))
                    for support in supports:
                        del runs[:]
                        moved = meet._moved_to_last(support)
                        assert len(runs) == int(
                            not principal and support != (v - 1,))
                        assert moved.groebner_basis() == buchberger(
                            plain._moved_to_last(support).generators)
                        # it keeps the moved operands, which meet in it
                        assert moved._linear_meet_handle(
                            moved.context, *moved._operands
                        ).generators == moved.generators
        assert {(True, True), (True, False), (False, False)} <= seen

    def test_moved_meets_shared_across_threads(self):
        """Threads moving one shared linear meet each read, per support,
        the one published moved handle, whose operands are already set."""
        import threading
        meet = tilted_line_and_plane()
        supports = list(groebner.regular_element_candidates(3))
        expected = [meet.spawn(meet.generators)._moved_to_last(s)
                    .groebner_basis() for s in supports]
        results = []

        def work():
            moved = [meet._moved_to_last(s) for s in supports]
            results.append([(m, m._operands is not None, m.groebner_basis())
                            for m in moved])

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        for got in results:
            assert all(g[0] is h[0] for g, h in zip(got, results[0]))
            assert [(True, e) for e in expected] == [g[1:] for g in got]

    @pytest.mark.parametrize("lhs,rhs", [
        (lambda x, y, z: (x + 1,), lambda x, y, z: (y,)),
        (lambda x, y, z: (x ** 2,), lambda x, y, z: (y, z)),
        (lambda x, y, z: (x + y,),
         lambda x, y, z: (x ** 2, y ** 2, z ** 2, x * y, x * z, y * z)),
    ], ids=["x+1", "x^2", "homogeneous-E"])
    def test_non_linear_input_is_eliminated(self, monkeypatch, lhs, rhs):
        c = ctx("x", "y", "z")
        xs = variables(QQ, c)
        i, j = handle(c, *lhs(*xs)), handle(c, *rhs(*xs))
        eliminations = count_calls(monkeypatch, IdealHandle, "_eliminate")
        i.intersection(j)
        assert len(eliminations) == 1

    def test_step_budget_bounds_the_linear_path(self):
        c = ctx("x", "y", "z", "w")
        x, y, z, w = variables(QQ, c)
        lhs = handle(c, x, y, gb_step_budget=0)
        with pytest.raises(BudgetExceededError, match="groebner step budget"):
            lhs.intersection(handle(c, x + z, y + w))

    def test_step_budget_bounds_the_principal_interreduction(self):
        """(b + c) cap (a + b, c): the coefficient rows of (b + c)(a + b)
        and (b + c)c are in echelon form already, and reducing them clears
        one entry, the bc of the first row, drawn on the step budget."""
        c = ctx("a", "b", "cc")
        a, b, cc = variables(QQ, c)
        with pytest.raises(BudgetExceededError, match="groebner step budget"):
            handle(c, b + cc, gb_step_budget=0).intersection(
                handle(c, a + b, cc))
        got = handle(c, b + cc, gb_step_budget=1).intersection(
            handle(c, a + b, cc))
        assert got.generators == handle(c, b + cc)._eliminate(
            handle(c, a + b, cc)).generators

    def test_stored_basis_is_the_reduced_basis(self):
        """Every intersection result, on either path, stores its reduced
        basis at construction, and that basis is what Buchberger finds."""
        rng = random.Random(2024)
        for field in (QQ, FieldDescriptor(2), FieldDescriptor(32003)):
            c = ctx("x", "y", "z", "w")
            xs = variables(field, c)
            for _ in range(15):
                sides = []
                for _ in range(2):
                    if rng.random() < 0.5:
                        gens = [sum((rng.randint(-2, 2) * x for x in xs),
                                    xs[rng.randrange(4)])
                                for _ in range(rng.randint(1, 3))]
                    else:
                        gens = [random_nonzero_polynomial(rng, c, field=field)
                                for _ in range(rng.randint(1, 2))]
                    sides.append(IdealHandle(field, c,
                                             [g for g in gens if g]
                                             or [xs[0]]))
                got = sides[0].intersection(sides[1])
                assert got._gb is not None
                assert got._gb[0] == buchberger(got.generators)
                assert (got._gb[1] is not None) == all(
                    g.is_term for g in got.generators)


class TestInputChecks:
    """Handles refuse generators and operands from another ring, and the
    unit ideal, which presents no ring, has no socle test."""

    def test_generator_from_another_ring(self):
        c = ctx("x", "y")
        for field, context in ((QQ, ctx("x", "z")), (FieldDescriptor(7), c)):
            g = variables(field, context)[0]
            with pytest.raises(ContextMismatchError,
                               match="^generators must match the handle's "
                                     "field and context$"):
                IdealHandle(QQ, c, (g,))

    def test_equals_and_intersection_across_rings(self):
        c = ctx("x", "y")
        h = handle(c, variables(QQ, c)[0])
        others = (IdealHandle(FieldDescriptor(7), c,
                              variables(FieldDescriptor(7), c)[:1]),
                  handle(ctx("x", "z")))
        for other in others:
            for a, b in ((h, other), (other, h)):
                for op in (a.equals, a.intersection):
                    with pytest.raises(ContextMismatchError,
                                       match="^ideals over different rings$"):
                        op(b)

    def test_unit_ideal_has_no_socle_test(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        for gens in ((Polynomial.constant(QQ, c, 1),), (x + 1, x)):
            with pytest.raises(UnitIdealError, match="^the unit ideal does "
                               "not present a ring$"):
                handle(c, *gens).maximal_ideal_associated()


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
        zero = Polynomial(QQ, self.ctx)
        assert h.quotient_element(zero).is_unit_ideal

    def test_colon_by_the_zero_ideal_is_the_unit_ideal(self):
        """(I : 0) = R, for the zero ideal with or without zero
        generators."""
        one = Polynomial.constant(QQ, self.ctx, 1)
        for h in (handle(self.ctx, self.x * self.y), handle(self.ctx)):
            for zero in (handle(self.ctx),
                         handle(self.ctx, Polynomial(QQ, self.ctx))):
                colon = h.quotient(zero)
                assert colon.generators == (one,)
                assert colon.is_unit_ideal

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
    def test_homogeneous_without_regular_variable_needs_no_colon(
            self, monkeypatch):
        """No variable is regular, so M may be associated; a generator of
        some (I : x_i), read off the moved bases, is a socle element and
        proves it without a colon ideal."""
        h = embedded_origin()
        assert h.is_homogeneous and h.monomial_ideal() is None
        colons = count_calls(monkeypatch, IdealHandle, "quotient_element")
        assert h.maximal_ideal_associated()
        assert not colons

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("ring", [
        tilted_cut,
        embedded_origin,
    ], ids=["tilted-cut", "embedded-origin"])
    def test_socle_witness_decides_without_elimination(self, monkeypatch,
                                                       ring, field):
        """The tilted ring's cut by x and the embedded origin have no
        regular variable; a generator of some (I : x_i) is a socle element,
        so (I : M) is never intersected."""
        h = ring(field)
        eliminations = count_calls(monkeypatch, IdealHandle, "_eliminate")
        intersected = count_calls(monkeypatch, IdealHandle,
                                  "_colon_by_maximal_ideal")
        assert h.maximal_ideal_associated()
        assert any(socle_generators(h))
        assert not eliminations and not intersected

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_tilted_cut_decides_on_its_own_basis(self, monkeypatch, field):
        """The cut's last variable is a zero-divisor, and a generator of
        (I : x_last), read off the cut's stored basis, is a socle element:
        the socle test stops there and computes no moved basis. The whole
        depth search on the tilted ring runs no Buchberger either: its one
        moved basis, with x moved last, is the meet of the moved operands."""
        cut = tilted_cut(field)
        runs = count_calls(monkeypatch, groebner, "buchberger")
        assert cut.maximal_ideal_associated()
        assert runs == []
        assert socle_generators(cut)[-1]
        h = tilted_line_and_plane(field)
        runs.clear()
        assert h.depth_at_least_two().verdict is False
        assert len(runs) == 0

    @pytest.mark.parametrize("ring,associated", [
        (coordinate_squares, True),
        (coordinate_axes, False),
    ], ids=["coordinate-squares", "coordinate-axes"])
    def test_no_socle_witness_falls_back_to_intersection(
            self, monkeypatch, ring, associated):
        """No variable is regular and no generator of any (I : x_i) is a
        socle element, so (I : M) is intersected and decides, as the colon
        calculus does."""
        h = ring()
        assert not any(socle_generators(h))
        intersected = count_calls(monkeypatch, IdealHandle,
                                  "_colon_by_maximal_ideal")
        assert h.maximal_ideal_associated() == associated
        assert len(intersected) == 1
        assert (not h.quotient(h.maximal_ideal()).equals(h)) == associated

    def test_homogeneous_regular_variable_needs_no_colon(self, monkeypatch):
        h = tilted_line_and_plane()
        colons = count_calls(monkeypatch, IdealHandle, "quotient_element")
        assert not h.maximal_ideal_associated()
        assert not colons

    @pytest.mark.parametrize("names,gens", [
        (("x", "y", "z"), lambda x, y, z: (x * y - z,)),
        (("x", "y"), lambda x, y: (y - x ** 2,)),
    ], ids=["xy-z", "y-x^2"])
    def test_non_homogeneous_uses_colon(self, monkeypatch, names, gens):
        c = ctx(*names)
        h = handle(c, *gens(*variables(QQ, c)))
        assert not h.is_homogeneous
        colons = count_calls(monkeypatch, IdealHandle, "quotient_element")
        assert not h.maximal_ideal_associated()
        assert colons

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
    def test_candidate_stream(self):
        """A candidate is the support of a sum of variables: singles, then
        pairs, then triples, then all variables. Over at most three
        variables the sum of all of them comes once, in its own size."""
        assert list(groebner.regular_element_candidates(4)) == [
            (0,), (1,), (2,), (3,),
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
            (0, 1, 2, 3)]
        for count in range(4):
            stream = list(groebner.regular_element_candidates(count))
            assert len(stream) == len(set(stream)) == 2 ** count - 1
            assert stream.count(tuple(range(count))) == min(count, 1)

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
        """No variable or pair sum is regular on (xy, xz, yz); x + y + z
        is, and the maximal ideal is associated after cutting by it."""
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

    def test_sum_of_all_variables_depth_one(self):
        """No variable, pair sum or triple sum is regular on the six
        squarefree quadrics in four variables; a + b + c + d is, and the
        maximal ideal is associated after cutting by it."""
        c = ctx("a", "b", "c", "d")
        a, b, cc, d = variables(QQ, c)
        result = handle(c, a * b, a * cc, a * d, b * cc, b * d,
                        cc * d).depth_at_least_two()
        assert result.verdict is False
        assert result.regular_element == a + b + cc + d

    def test_sum_of_all_variables_depth_two(self):
        """The ten squarefree cubics in five variables: depth 2, first
        certified by the sum of all variables."""
        c = ctx("a", "b", "c", "d", "e")
        xs = variables(QQ, c)
        cubics = [p * q * r for p, q, r in itertools.combinations(xs, 3)]
        result = handle(c, *cubics).depth_at_least_two()
        assert result.verdict is True
        assert result.regular_element == sum(xs[1:], xs[0])

    def test_tilted_line_and_plane_depth_one(self, monkeypatch):
        """x is regular; the cut by it has M associated and no regular
        variable, and its socle test reads each (I : x_i) off a moved
        basis instead of computing a colon."""
        h = tilted_line_and_plane()
        x = variables(QQ, h.context)[0]
        colons = count_calls(monkeypatch, IdealHandle, "quotient_element")
        result = h.depth_at_least_two()
        assert (result.verdict, result.regular_element) == (False, x)
        assert not colons

    def test_twisted_cubic_depth_two_without_colon(self, monkeypatch):
        h = twisted_cubic()
        a = variables(QQ, h.context)[0]
        colons = count_calls(monkeypatch, IdealHandle, "quotient_element")
        result = h.depth_at_least_two()
        assert (result.verdict, result.regular_element) == (True, a)
        assert not colons

    def test_embedded_origin_depth_zero(self):
        result = embedded_origin().depth_at_least_two()
        assert (result.verdict, result.regular_element) == (False, None)

    @pytest.mark.parametrize("names,gens,verdict", [
        (("x", "y", "z"), lambda x, y, z: (x * y - z,), True),
        (("x", "y"), lambda x, y: (y - x ** 2,), False),
    ], ids=["xy-z", "y-x^2"])
    def test_non_homogeneous_uses_colon(self, monkeypatch, names, gens,
                                        verdict):
        c = ctx(*names)
        h = handle(c, *gens(*variables(QQ, c)))
        colons = count_calls(monkeypatch, IdealHandle, "quotient_element")
        result = h.depth_at_least_two()
        assert (result.verdict, result.regular_element) == (
            verdict, variables(QQ, c)[0])
        assert colons

    def test_new_groebner_runs_draw_on_the_step_budget(self):
        """Two lines in the tilted plane x + y1 - 2*y2. The generators are
        a reduced basis with coprime leading terms, so the handle's own
        basis fits in a budget of zero steps. The last variable y2 is a
        zero-divisor and no generator of (I : y2) is a socle element, so
        the socle test moves x last, and that basis needs one step."""
        c = ctx("x", "y1", "y2")
        x, y1, y2 = variables(QQ, c)
        gens = handle(c, y1 * y2, x + y1 - 2 * y2).groebner_basis()
        h = IdealHandle(QQ, c, gens, gb_step_budget=0)
        assert h.groebner_basis() == gens
        with pytest.raises(BudgetExceededError):
            h.depth_at_least_two()

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


def power_product(forms, e):
    """The product of forms[i] ** e[i] over i."""
    g = Polynomial.constant(forms[0].field, forms[0].context, 1)
    for form, p in zip(forms, e):
        g = g * form ** p
    return g


@st.composite
def homogeneous_ideals(draw):
    """Homogeneous ideals in at most four variables over Q, GF(2) and
    GF(32003): monomial ideals under a random unitriangular change of
    coordinates, or binomial ideals."""
    field = draw(st.sampled_from(FIELDS))
    v = draw(st.integers(2, 4))
    c = ctx(*(f"x{i}" for i in range(v)))
    xs = variables(field, c)
    zero = Polynomial(field, c)
    gens = []
    if draw(st.booleans()):
        forms = [xs[i] + sum((draw(st.integers(-2, 2)) * xs[j]
                              for j in range(i + 1, v)), zero)
                 for i in range(v)]
        vectors = st.tuples(*[st.integers(0, 2)] * v).filter(any)
        gens = [power_product(forms, e)
                for e in draw(st.lists(vectors, min_size=1, max_size=3))]
    else:
        def monomial(d):
            g = Polynomial.constant(field, c, 1)
            for i in draw(st.lists(st.integers(0, v - 1),
                                   min_size=d, max_size=d)):
                g = g * xs[i]
            return g

        for _ in range(draw(st.integers(1, 3))):
            d = draw(st.integers(1, 3))
            coeff = draw(st.sampled_from((1, -1, 2)))
            gens.append(monomial(d) - coeff * monomial(d))
    return IdealHandle(field, c, gens)


def unitriangular_images(seed, count):
    """Seeded homogeneous ideals over Q and GF(32003): the ideals
    (x) cap (y1..ya) = (x*y1, .., x*ya), with up to one more variable, and
    small random monomial ideals, each sent through a random unitriangular
    change of coordinates x_i -> x_i + sum over j > i of c_ij * x_j."""
    rng = random.Random(seed)
    for n in range(count):
        field = (QQ, FieldDescriptor(32003))[n % 2]
        if n % 3 == 0:
            a, extra = rng.randint(1, 3), rng.randint(0, 1)
            v = 1 + a + extra
            exps = [tuple(int(j in (0, k)) for j in range(v))
                    for k in range(1, a + 1)]
        else:
            v = rng.randint(2, 4)
            exps = random_monomial_ideal(rng, v, 4)
        c = ctx(*(f"x{i}" for i in range(v)))
        xs = variables(field, c)
        forms = [sum((rng.randint(-2, 2) * xs[j] for j in range(i + 1, v)),
                     xs[i]) for i in range(v)]
        yield IdealHandle(field, c, [power_product(forms, e) for e in exps])


IMAGES = list(unitriangular_images(2031, 24))


class TestHomogeneousCrossEngine:
    @settings(deadline=None, max_examples=40)
    @given(homogeneous_ideals())
    @example(embedded_origin(FieldDescriptor(2)))
    @example(tilted_line_and_plane(FieldDescriptor(32003)))
    @example(twisted_cubic())
    @example(coordinate_squares())
    @example(coordinate_axes(FieldDescriptor(2)))
    def test_socle_test_and_depth_match_colon_calculus(self, h):
        if h.is_unit_ideal:
            return
        expected = depth_by_colon(h.spawn(h.generators))
        result = h.depth_at_least_two()
        assert h.maximal_ideal_associated() == (expected == (False, None))
        assert (result.verdict, result.regular_element) == expected

    @pytest.mark.parametrize("h", IMAGES, ids=[
        f"{h.field}-{n}" for n, h in enumerate(IMAGES)])
    def test_unitriangular_images_match_colon_calculus(self, h):
        """The one-pass socle test and the depth search agree with the
        colon calculus on linear images of monomial ideals, where a regular
        variable, a socle element among the (I : x_i) and the intersection
        of the (I : x_i) all get to decide."""
        expected = depth_by_colon(h.spawn(h.generators))
        m_assoc = h.maximal_ideal_associated()
        assert m_assoc == (not h.quotient(h.maximal_ideal()).equals(h))
        assert m_assoc == (expected == (False, None))
        result = h.depth_at_least_two()
        assert (result.verdict, result.regular_element) == expected

    def test_unitriangular_images_reach_every_path(self, monkeypatch):
        """Among the images, a regular variable decides some, a socle
        element among the (I : x_i) others, and the intersection of the
        (I : x_i) the rest."""
        intersected = count_calls(monkeypatch, IdealHandle,
                                  "_colon_by_maximal_ideal")
        paths = set()
        for h in IMAGES:
            h = h.spawn(h.generators)
            m_assoc = h.maximal_ideal_associated()
            paths.add("intersection" if intersected else m_assoc)
            intersected.clear()
        assert paths == {False, True, "intersection"}

    @settings(deadline=None, max_examples=30)
    @given(homogeneous_ideals())
    @example(embedded_origin())
    @example(embedded_origin(FieldDescriptor(2)))
    @example(embedded_origin(FieldDescriptor(32003)))
    @example(twisted_cubic(FieldDescriptor(32003)))
    def test_colon_by_variable_matches_colon_calculus(self, h):
        """(I : x_i) read off the basis with x_i moved last has the same
        reduced basis as the colon computed by elimination."""
        if h.is_unit_ideal:
            return
        for i, x in enumerate(variables(h.field, h.context)):
            assert h._colon_by_variable(i).equals(h.quotient_element(x))
