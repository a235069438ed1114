"""Minimal primes, associated primes, decomposition and localization of
monomial ideals, cross-checked against brute force and the Groebner
engine."""

import functools
import itertools
import random

import pytest

from noncat.analyzer import monomial_depth
from noncat.errors import EmptyLocalizationError, UnitIdealError, UnsupportedInputError
from noncat.groebner import DEFAULT_REGULAR_CANDIDATE_BUDGET, IdealHandle
from noncat.monomial import MonomialIdeal, MonomialPrime
from noncat.poly import FieldDescriptor, Polynomial, exps_divides, variables

from conftest import (
    QQ,
    brute_dimension,
    brute_minimal_covers,
    ctx,
    depth_by_colon,
    random_monomial_ideal,
    ref_components,
    ref_depth,
)


def mono(context, *vectors):
    return MonomialIdeal(context, vectors)


def primes_of(context, *name_groups):
    return tuple(sorted((MonomialPrime.of(context, *names) for names in name_groups),
                        key=lambda p: p.sort_key))


class TestMinimalGenerators:
    def test_divisible_generators_dropped(self):
        c = ctx("x", "y")
        ideal = mono(c, (1, 1), (2, 1), (1, 2))
        assert ideal.gens == ((1, 1),)

    def test_unit_detection(self):
        c = ctx("x")
        assert mono(c, (0,)).is_unit
        assert not mono(c, (1,)).is_unit
        assert mono(c).is_zero

    @pytest.mark.parametrize("vector,message", [
        ((1,), "exponent vector length does not match context"),
        ((1, 0, 0), "exponent vector length does not match context"),
        ((1, -1), "exponents must be nonnegative")])
    def test_malformed_exponent_vector(self, vector, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mono(ctx("x", "y"), (1, 1), vector)

    @pytest.mark.parametrize("call,message", [
        (lambda i: i.irreducible_components(),
         "the unit ideal has no decomposition"),
        (lambda i: i.dimension(), "the unit ideal has no Krull dimension"),
        (lambda i: i.localize(MonomialPrime.maximal(2)),
         "cannot localize the unit ideal")],
        ids=["irreducible_components", "dimension", "localize"])
    def test_unit_ideal_refused(self, call, message):
        unit = mono(ctx("x", "y"), (1, 0), (0, 0))
        with pytest.raises(UnitIdealError, match=f"^{message}$"):
            call(unit)


class TestIdealValue:
    def test_from_polynomials_skips_zero(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        zero = Polynomial(QQ, c)
        assert MonomialIdeal.from_polynomials(
            c, (zero, x * y, zero, y ** 2)) == mono(c, (1, 1), (0, 2))
        assert MonomialIdeal.from_polynomials(c, (zero,)).is_zero

    def test_intersect_across_contexts_refused(self):
        with pytest.raises(ValueError, match="^monomial ideals over "
                                             "different contexts$"):
            mono(ctx("x", "y"), (1, 0)).intersect(mono(ctx("x", "z"), (1, 0)))

    def test_repr(self):
        c = ctx("x", "y")
        assert repr(mono(c, (0, 2), (1, 0))) == "MonomialIdeal(x, y^2)"
        assert repr(mono(c, (2, 1))) == "MonomialIdeal(x^2*y)"
        assert repr(mono(c)) == "MonomialIdeal(0)"
        assert repr(mono(c, (1, 0), (0, 0))) == "MonomialIdeal(1)"

    def test_hash_agrees_with_equality(self):
        """Equal ideals, whatever generators present them, hash alike;
        another context or another ideal is unequal."""
        c = ctx("x", "y")
        a = mono(c, (1, 0), (0, 2), (1, 1))
        b = mono(c, (0, 2), (1, 0), (0, 2))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, mono(c, (1, 0), (0, 1))}) == 2
        assert a != mono(ctx("x", "z"), (1, 0), (0, 2))
        assert a != mono(c, (1, 0), (0, 1))
        assert a != a.gens


class TestPrimeValue:
    """A monomial prime is the bitmask of its variables, bit i for variable
    i: it compares and hashes by that int alone, and prints as
    MonomialPrime(mask=...)."""

    def test_equality_and_hash_follow_the_mask(self):
        c = ctx("x", "y", "z")
        p = MonomialPrime.of(c, "x", "z")
        assert p == MonomialPrime(0b101)
        assert p == MonomialPrime(mask=5)
        assert p != MonomialPrime.of(c, "x")
        assert hash(p) == hash(MonomialPrime(0b101))
        assert hash(p) == hash((5,))
        assert len({p, MonomialPrime.of(c, "z", "x"), MonomialPrime.of(c)}) == 2

    def test_unequal_to_its_mask(self):
        assert MonomialPrime(1) != 1
        assert MonomialPrime(1) != (1,)

    def test_repr(self):
        assert repr(MonomialPrime(2)) == "MonomialPrime(mask=2)"
        assert repr(MonomialPrime(0)) == "MonomialPrime(mask=0)"

    def test_the_mask_is_its_one_field(self):
        p = MonomialPrime(0b11)
        assert MonomialPrime.__slots__ == ("mask",)
        assert not hasattr(p, "indices")
        with pytest.raises(AttributeError):
            p.other = 1

    def test_of_counts_a_repeated_name_once(self):
        c = ctx("x", "y", "z")
        assert MonomialPrime.of(c, "z", "x", "z").mask == 0b101
        assert MonomialPrime.of(c).mask == 0

    def test_maximal_rank_and_containment(self):
        c = ctx("x", "y", "z", "v")
        top = MonomialPrime.maximal(4)
        assert top.mask == 0b1111 and MonomialPrime.maximal(0).mask == 0
        assert top.quotient_dim(4) == 0
        xz = MonomialPrime.of(c, "x", "z")
        assert xz.quotient_dim(4) == 2 and MonomialPrime(0).quotient_dim(4) == 4
        assert top.contains(xz) and xz.contains(xz)
        assert xz.contains(MonomialPrime(0))
        assert not xz.contains(MonomialPrime.of(c, "x", "y"))
        assert not xz.contains(top)

    def test_support_names_and_render_read_the_set_bits(self):
        c = ctx("x", "y", "z", "v")
        p = MonomialPrime.of(c, "v", "y")
        assert p.support == (1, 3)
        assert p.names(c) == ("y", "v")
        assert p.render(c) == "(y,v)"
        assert MonomialPrime(0).support == ()
        assert MonomialPrime(0).render(c) == "(0)"

    def test_sort_key_is_rank_then_ascending_indices(self):
        """The order of Ass, Min and every rendering: by rank, then by the
        ascending index tuples compared lexicographically, as when a prime
        was a frozenset of indices."""
        v = 5
        primes = [MonomialPrime(m) for m in range(1 << v)]
        random.Random(5).shuffle(primes)
        by_sets = sorted(primes, key=lambda p: (
            bin(p.mask).count("1"), [i for i in range(v) if p.mask >> i & 1]))
        assert sorted(primes, key=lambda p: p.sort_key) == by_sets
        assert [p.support for p in by_sets] == [
            s for r in range(v + 1) for s in itertools.combinations(range(v), r)]


class TestMinimalPrimes:
    def test_two_plane_example(self):
        c = ctx("x", "y", "z", "v")
        ideal = mono(c, (1, 1, 0, 0), (1, 0, 1, 0))  # (x*y, x*z)
        assert ideal.minimal_primes() == primes_of(c, ("x",), ("y", "z"))

    def test_single_product(self):
        c = ctx("x", "y")
        assert mono(c, (1, 1)).minimal_primes() == primes_of(c, ("x",), ("y",))

    def test_radical_applied(self):
        c = ctx("x", "y")
        assert mono(c, (2, 1)).minimal_primes() == primes_of(c, ("x",), ("y",))

    def test_zero_ideal(self):
        c = ctx("x", "y")
        assert mono(c).minimal_primes() == (MonomialPrime(0),)

    def test_unit_ideal_raises(self):
        c = ctx("x")
        with pytest.raises(UnitIdealError):
            mono(c, (0,)).minimal_primes()

    def test_brute_force_agreement(self):
        """Min is filtered out of Ass, so non-squarefree ideals, which can
        have embedded primes, check that filter too."""
        rng = random.Random(11)
        for squarefree in (True, False):
            for _ in range(120):
                v = rng.randint(1, 5)
                c = ctx(*[f"v{i}" for i in range(v)])
                gens = random_monomial_ideal(rng, v, 6, squarefree=squarefree)
                ideal = mono(c, *gens)
                supports = [frozenset(i for i, e in enumerate(g) if e)
                            for g in ideal.gens]
                expected = brute_minimal_covers(supports, v)
                assert {p.mask for p in ideal.minimal_primes()} == {
                    sum(1 << i for i in s) for s in expected}


class TestAssociatedPrimes:
    def test_squarefree_example(self):
        c = ctx("x", "y", "z", "v")
        ideal = mono(c, (1, 1, 0, 0), (1, 0, 1, 0))
        assert ideal.associated_primes() == primes_of(c, ("x",), ("y", "z"))

    def test_embedded_prime(self):
        c = ctx("x", "y")
        ideal = mono(c, (2, 0), (1, 1))  # (x^2, x*y) = (x) cap (x^2, y)
        assert ideal.associated_primes() == primes_of(c, ("x",), ("x", "y"))

    def test_zero_ideal(self):
        c = ctx("x", "y")
        assert mono(c).associated_primes() == (MonomialPrime(0),)

    def test_min_subset_ass_squarefree_equality(self):
        rng = random.Random(23)
        for _ in range(120):
            v = rng.randint(1, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            squarefree = rng.random() < 0.5
            ideal = mono(c, *random_monomial_ideal(rng, v, 5,
                                                   squarefree=squarefree))
            if ideal.is_unit:
                continue
            mins = set(ideal.minimal_primes())
            ass = set(ideal.associated_primes())
            assert mins <= ass
            if ideal.is_squarefree:
                assert mins == ass

    def test_irreducible_components_are_pure_powers(self):
        """Each component is an exponent vector a standing for the ideal
        (x_i^a_i : a_i > 0). The components are the irredundant ones: none
        contains another, and together they intersect back to I. For a
        squarefree I they are the indicator vectors of the minimal vertex
        covers of the generators' supports."""
        def pure_powers(context, a):
            zero = (0,) * context.count
            return mono(context, *(zero[:i] + (x,) + zero[i + 1:]
                                   for i, x in enumerate(a) if x))

        def contains(a, b):
            return all(0 < x <= y for x, y in zip(a, b) if y)

        c = ctx("x", "y", "z")
        example = mono(c, (2, 1, 0), (0, 1, 2))  # (x^2*y, y*z^2)
        # (y) cap (x^2, z^2)
        assert set(example.irreducible_components()) == {(0, 1, 0), (2, 0, 2)}
        assert mono(c).irreducible_components() == ((0, 0, 0),)
        rng = random.Random(29)
        ideals = [example, mono(c), mono(ctx("x"))]
        for _ in range(80):
            v = rng.randint(1, 5)
            ideals.append(mono(ctx(*[f"v{i}" for i in range(v)]),
                               *random_monomial_ideal(rng, v, 5, max_exp=3)))
        squarefree = []
        for n in range(5, 13):  # the cycles C_5 .. C_12
            squarefree.append(mono(ctx(*[f"x{i}" for i in range(n)]), *(
                tuple(int(j in (i, (i + 1) % n)) for j in range(n))
                for i in range(n))))
        rng = random.Random(31)
        for v in (6, 8, 10, 12):
            squarefree.append(mono(ctx(*[f"v{i}" for i in range(v)]), *(
                random_monomial_ideal(rng, v, 8, squarefree=True))))
        for ideal in ideals + squarefree:
            comps = ideal.irreducible_components()
            assert all(len(a) == ideal.context.count for a in comps)
            assert not any(a != b and contains(a, b)
                           for a in comps for b in comps)
            back = pure_powers(ideal.context, comps[0])
            for a in comps[1:]:
                back = back.intersect(pure_powers(ideal.context, a))
            assert back == ideal
        for ideal in squarefree:
            v = ideal.context.count
            covers = brute_minimal_covers(
                [[i for i, e in enumerate(g) if e] for g in ideal.gens], v)
            assert sorted(ideal.irreducible_components()) == sorted(
                tuple(int(i in s) for i in range(v)) for s in covers)

    def test_primary_component_example(self):
        c = ctx("x", "y")
        ideal = mono(c, (2, 1))  # (x^2*y) = (x^2) cap (y)
        comps = dict(ideal.primary_components())
        px = MonomialPrime.of(c, "x")
        py = MonomialPrime.of(c, "y")
        assert comps[px] == mono(c, (2, 0))
        assert comps[py] == mono(c, (0, 1))


    def test_primary_components_match_ass_and_intersect_to_ideal(self):
        rng = random.Random(67)
        checked = embedded = 0
        while checked < 60:
            v = rng.randint(1, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 5))
            if ideal.is_unit:
                continue
            checked += 1
            pairs = ideal.primary_components()
            assert tuple(p for p, _ in pairs) == ideal.associated_primes()
            for p, component in pairs:
                assert component.associated_primes() == (p,)
            assert functools.reduce(MonomialIdeal.intersect,
                                    (q for _, q in pairs)) == ideal
            embedded += len(pairs) > len(ideal.minimal_primes())
        assert embedded >= 10



class TestIrreducibleComponents:
    """The critical-generator decomposition returns the tuple of the
    pairwise containment scan in conftest.ref_components, in its order,
    since Ass, Min and every report are read off that tuple."""

    def test_small_ideals_match_the_containment_scan(self):
        """3,000 seeded ideals in one to six variables with exponents up
        to 3, and the zero ideal in each."""
        rng = random.Random(83)
        ideals = [mono(ctx(*[f"v{i}" for i in range(v)])) for v in range(1, 7)]
        while len(ideals) < 3000:
            v = rng.randint(1, 6)
            ideals.append(mono(ctx(*[f"v{i}" for i in range(v)]),
                               *random_monomial_ideal(rng, v, 6, max_exp=3)))
        wrong = [ideal for ideal in ideals if ideal.irreducible_components()
                 != ref_components(ideal.gens, ideal.context.count)]
        assert wrong == []

    def test_wide_sparse_rings_match_the_containment_scan(self):
        """Rings in 12 to 20 variables with 8 generators of support 2 to 4
        and exponents up to 2, where the components run to hundreds; their
        depth verdicts match the pair graph of conftest.ref_depth."""
        rng = random.Random(89)
        sizes = []
        for v in (12, 16, 20):
            for _ in range(4):
                gens = []
                for _ in range(8):
                    support = rng.sample(range(v), rng.randint(2, 4))
                    gens.append(tuple(rng.randint(1, 2) if i in support else 0
                                      for i in range(v)))
                ideal = mono(ctx(*[f"v{i}" for i in range(v)]), *gens)
                comps = ideal.irreducible_components()
                assert comps == ref_components(ideal.gens, v)
                assert ideal.depth_at_least_two() == ref_depth(ideal), ideal
                sizes.append(len(comps))
        assert max(sizes) >= 100

    def test_cycles_have_perrin_many_components(self):
        """The edge ideal of the cycle C_n has Perrin(n) minimal vertex
        covers, each a component: 853 for C_24, which the containment
        scan took seconds to reach."""
        perrin = [3, 0, 2]
        while len(perrin) <= 24:
            perrin.append(perrin[-2] + perrin[-3])
        for n in range(5, 25):
            cycle = mono(ctx(*[f"x{i}" for i in range(n)]), *(
                tuple(int(j in (i, (i + 1) % n)) for j in range(n))
                for i in range(n)))
            comps = cycle.irreducible_components()
            assert len(set(comps)) == len(comps) == perrin[n], n
        assert perrin[24] == 853


class TestLocalize:
    def test_family_localization(self):
        names = ("x", "y1", "y2", "z1", "z2")
        c = ctx(*names)
        ideal = mono(c, (1, 1, 0, 0, 0), (1, 0, 1, 0, 0))  # (x*y1, x*y2)
        q = MonomialPrime.of(c, "y1", "y2", "z1", "z2")
        local = ideal.localize(q)
        assert local.context.names == ("y1", "y2", "z1", "z2")
        assert local == MonomialIdeal(local.context,
                                      ((1, 0, 0, 0), (0, 1, 0, 0)))

    def test_localize_at_small_prime(self):
        c = ctx("x", "y", "z", "v")
        ideal = mono(c, (1, 1, 0, 0), (1, 0, 1, 0))
        local = ideal.localize(MonomialPrime.of(c, "x"))
        assert local.context.names == ("x",)
        assert local.gens == ((1,),)

    def test_localize_at_maximal_is_identity(self):
        c = ctx("x", "y")
        ideal = mono(c, (1, 1))
        local = ideal.localize(MonomialPrime.of(c, "x", "y"))
        assert local.context.names == c.names and local.gens == ideal.gens

    def test_empty_localization_signalled(self):
        c = ctx("x", "y", "z")
        ideal = mono(c, (1, 1, 0))  # (x*y); (z) contains no minimal prime
        with pytest.raises(EmptyLocalizationError):
            ideal.localize(MonomialPrime.of(c, "z"))


class TestCrossEngine:
    def test_dimension_agreement(self):
        rng = random.Random(37)
        for _ in range(60):
            v = rng.randint(1, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 5))
            if ideal.is_unit:
                continue
            expected = brute_dimension(ideal.gens, v)
            assert ideal.dimension() == expected
            h = IdealHandle(QQ, c, ideal.to_polynomials(QQ))
            assert h.krull_dimension() == expected
            mins = ideal.minimal_primes()
            assert ideal.dimension() == v - min(p.mask.bit_count()
                                                for p in mins)

    def test_monomial_regularity_matches_colon_test(self):
        rng = random.Random(53)
        for _ in range(40):
            v = rng.randint(2, 4)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 4))
            if ideal.is_unit:
                continue
            h = IdealHandle(QQ, c, ideal.to_polynomials(QQ))
            xs = variables(QQ, c)
            for _ in range(4):
                support = tuple(i for i in range(v) if rng.randint(0, 1))
                if not support:
                    continue
                f = sum((xs[i] for i in support[1:]), xs[support[0]])
                by_avoidance = ideal.is_regular(support)
                if h.contains(f):
                    assert not by_avoidance
                    continue
                assert h.is_regular_element(f) == by_avoidance

    def test_ass_and_socle_test_match_colon_calculus(self):
        def socle_by_colon(h):
            return not h.quotient(h.maximal_ideal()).equals(h)

        rng = random.Random(71)
        for _ in range(30):
            v = rng.randint(1, 4)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 4))
            if ideal.is_unit:
                continue
            ass = set(ideal.associated_primes())
            supports = [sum(1 << i for i, e in enumerate(g) if e)
                        for g in ideal.gens]
            for size in range(1, v + 1):
                for combo in itertools.combinations(range(v), size):
                    prime = MonomialPrime(sum(1 << i for i in combo))
                    if not all(prime.mask & s for s in supports):
                        continue
                    # localizing at the top prime changes nothing
                    local = ideal.localize(prime)
                    lh = IdealHandle(QQ, local.context,
                                     local.to_polynomials(QQ))
                    by_colon = socle_by_colon(lh)
                    assert lh.maximal_ideal_associated() == by_colon
                    assert (prime in ass) == by_colon

    def test_depth_matches_colon_calculus(self):
        """Both engines' depth >= 2 on monomial input, the analyzer's
        monomial_depth and the handle's own search, agree in verdict and
        certificate with a reference that uses only the colon calculus."""
        rng = random.Random(89)
        for field in (QQ, FieldDescriptor(32003)):
            checked = 0
            while checked < 20:
                v = rng.randint(2, 5)
                c = ctx(*[f"v{i}" for i in range(v)])
                ideal = mono(c, *random_monomial_ideal(rng, v, 4))
                if ideal.is_unit:
                    continue
                checked += 1
                h = IdealHandle(field, c, ideal.to_polynomials(field))
                expected = depth_by_colon(h)
                for result in (monomial_depth(field, ideal,
                                              DEFAULT_REGULAR_CANDIDATE_BUDGET),
                               h.depth_at_least_two()):
                    assert (result.verdict, result.regular_element) == expected

    def test_handle_never_asks_the_monomial_engine(self):
        """On monomial input the handle's socle test, depth search and
        dimension run the Groebner engine: the handle's MonomialIdeal is
        never decomposed, so the checks above compare two engines."""
        rng = random.Random(97)
        checked = 0
        while checked < 20:
            v = rng.randint(2, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 4))
            if ideal.is_unit:
                continue
            checked += 1
            h = IdealHandle(QQ, c, ideal.to_polynomials(QQ))
            assert h.maximal_ideal_associated() == \
                ideal.maximal_ideal_associated()
            assert h.depth_at_least_two().verdict == (
                False if ideal.maximal_ideal_associated()
                else ideal.depth_at_least_two())
            assert h.krull_dimension() == ideal.dimension()
            assert h.monomial_ideal() == ideal
            assert h.monomial_ideal()._decomposition is None

    def test_from_polynomials_rejects_sums(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        with pytest.raises(UnsupportedInputError):
            MonomialIdeal.from_polynomials(c, (x + y,))


def hochster_depth_at_least_two(ideal):
    """depth >= 2 for a squarefree ideal I_Delta by Hochster's formula on
    brute-force facets: the faces are the variable sets whose product lies
    outside I. Depth >= 2 exactly when the facet graph (two facets joined
    when they share a variable) is connected and no facet is empty (I = M)
    or a single, hence isolated, vertex."""
    v = ideal.context.count
    faces = [f for f in itertools.product((0, 1), repeat=v)
             if not any(exps_divides(g, f) for g in ideal.gens)]
    facets = [set(i for i, x in enumerate(f) if x) for f in faces
              if not any(g != f and all(a <= b for a, b in zip(f, g))
                         for g in faces)]
    if any(len(f) <= 1 for f in facets):
        return False
    reached, stack = {0}, [0]
    while stack:
        k = stack.pop()
        for j, f in enumerate(facets):
            if j not in reached and f & facets[k]:
                reached.add(j)
                stack.append(j)
    return len(reached) == len(facets)


def antichains(masks):
    """Every antichain of the given variable-set bitmasks."""
    if not masks:
        yield ()
        return
    first, rest = masks[0], masks[1:]
    yield from antichains(rest)
    apart = [m for m in rest if m & first not in (m, first)]
    for chain in antichains(apart):
        yield (first,) + chain


class TestDepthRule:
    """MonomialIdeal.depth_at_least_two, read off the irreducible
    components, against oracles that share none of its code."""

    def test_every_squarefree_ideal_matches_hochster(self):
        checked = 0
        for v in range(1, 5):
            c = ctx(*[f"v{i}" for i in range(v)])
            for chain in antichains(list(range(1, 1 << v))):
                ideal = mono(c, *(tuple(m >> i & 1 for i in range(v))
                                  for m in chain))
                assert ideal.depth_at_least_two() == \
                    hochster_depth_at_least_two(ideal), ideal
                checked += 1
        # Dedekind numbers minus the unit ideal: 2 + 5 + 19 + 167
        assert checked == 193

    def test_non_squarefree_ideals_match_colon_calculus(self):
        rng = random.Random(1601)
        checked = 0
        while checked < 40:
            v = rng.randint(2, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 4, max_exp=3))
            if ideal.is_unit or ideal.is_squarefree:
                continue
            checked += 1
            h = IdealHandle(QQ, c, ideal.to_polynomials(QQ))
            assert ideal.depth_at_least_two() == depth_by_colon(h)[0], ideal

    def test_relabelling_variables_keeps_the_verdict(self):
        rng = random.Random(1602)
        for _ in range(200):
            v = rng.randint(2, 6)
            c = ctx(*[f"v{i}" for i in range(v)])
            gens = random_monomial_ideal(rng, v, 5, max_exp=3)
            perm = rng.sample(range(v), v)
            ideal = mono(c, *gens)
            if ideal.is_unit:
                continue
            moved = mono(c, *(tuple(g[perm[i]] for i in range(v))
                              for g in gens))
            assert ideal.depth_at_least_two() == moved.depth_at_least_two()

    def test_cycles_and_random_ideals_match_oracles(self):
        """The pieces of the degree complexes decide as the oracles do: the
        edge ideals of the cycles C_5 .. C_24 (depth 2 or more) against the
        pair graph of conftest.ref_depth and, up to C_12, Hochster; the
        Stanley-Reisner ideals of random complexes in 6-8 variables against
        Hochster, random non-squarefree ideals against the colon
        calculus."""
        cycles = [mono(ctx(*[f"x{i}" for i in range(n)]), *(
            tuple(int(j in (i, (i + 1) % n)) for j in range(n))
            for i in range(n))) for n in range(5, 25)]
        for ideal in cycles:
            assert ideal.depth_at_least_two() is True
            assert ref_depth(ideal) is True
            if ideal.context.count <= 12:
                assert hochster_depth_at_least_two(ideal) is True
        rng = random.Random(1603)
        verdicts = []
        for _ in range(60):
            v = rng.randint(6, 8)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = None
            for _ in range(rng.randint(2, 5)):
                # the prime of a random facet: the variables outside it
                facet = rng.sample(range(v), rng.randint(1, 4))
                prime = mono(c, *(tuple(int(j == i) for j in range(v))
                                  for i in range(v) if i not in facet))
                ideal = prime if ideal is None else ideal.intersect(prime)
            verdict = ideal.depth_at_least_two()
            assert verdict == hochster_depth_at_least_two(ideal), ideal
            verdicts.append(verdict)
        checked = 0
        while checked < 30:
            v = rng.randint(3, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            ideal = mono(c, *random_monomial_ideal(rng, v, 5, max_exp=3))
            if ideal.is_unit or ideal.is_squarefree:
                continue
            checked += 1
            h = IdealHandle(QQ, c, ideal.to_polynomials(QQ))
            verdict = ideal.depth_at_least_two()
            assert verdict == depth_by_colon(h)[0], ideal
            verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_random_ideals_match_the_pair_graph(self):
        """3,000 seeded ideals in one to seven variables, two in five
        squarefree, against the pair graph of conftest.ref_depth."""
        rng = random.Random(1604)
        verdicts = []
        while len(verdicts) < 3000:
            v = rng.randint(1, 7)
            ideal = mono(ctx(*[f"v{i}" for i in range(v)]),
                         *random_monomial_ideal(rng, v, 7,
                                                max_exp=rng.randint(1, 3),
                                                squarefree=rng.random() < 0.4))
            if ideal.is_unit:
                continue
            verdict = ideal.depth_at_least_two()
            assert verdict == ref_depth(ideal), ideal
            verdicts.append(verdict)
        assert 500 < verdicts.count(True) < 2500

    #: depth < 2, seen only in a covering degree above all ones
    HIGHER_DEGREE = (
        (4, ("x1^2*x3^2", "x0*x1*x2^2", "x0*x1^2*x2", "x1*x2^2*x3^2")),
        (4, ("x0*x3^2", "x2^2*x3^2", "x1^2*x2^2", "x0*x1^2*x2")),
        (4, ("x1*x2*x3", "x1^2*x2^2", "x0*x2*x3^2", "x0^2*x3^2",
             "x0^2*x1*x3")),
        (5, ("x4^2", "x0^2*x2", "x1*x2*x3^2", "x0*x1^2*x3^2",
             "x0^2*x1^2*x4")),
        (5, ("x3^2*x4", "x0*x2*x4", "x0*x1^2", "x2*x3*x4^2", "x1^2*x4^2")),
        (5, ("x4^2", "x2^2*x3", "x1^2*x3", "x0^2*x2^2*x4",
             "x0^2*x1^2*x4")),
    )

    @pytest.mark.parametrize("v, gens", HIGHER_DEGREE)
    def test_rings_only_a_higher_degree_decides(self, v, gens):
        """No component misses a single variable, so (a) never fires, and
        the variables outside the components form one piece, so the
        complex at degree 0 is connected: a rule that read only the
        all-ones covering degree would call these rings depth >= 2."""
        c = ctx(*[f"x{i}" for i in range(v)])
        exps = []
        for g in gens:
            e = [0] * v
            for factor in g.split("*"):
                name, _, p = factor.partition("^")
                e[int(name[1:])] = int(p or 1)
            exps.append(tuple(e))
        ideal = mono(c, *exps)
        outside = [{i for i, x in enumerate(b) if not x}
                   for b in ideal.irreducible_components()]
        assert all(len(out) >= 2 for out in outside)
        piece = set(outside[0])
        for _ in outside:
            piece.update(*(out for out in outside if out & piece))
        assert all(out <= piece for out in outside)
        assert not ideal.maximal_ideal_associated()
        h = IdealHandle(QQ, c, ideal.to_polynomials(QQ))
        assert ideal.depth_at_least_two() is False
        assert ref_depth(ideal) is False
        assert depth_by_colon(h)[0] is False
