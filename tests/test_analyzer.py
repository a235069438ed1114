"""The ring classifiers: completion-of-domain/UFD tests, noncatenarity
verdicts with witnesses, forced catenarity, the universal-catenarity
obstruction and the regularity check."""

import random

import pytest

from noncat.analyzer import (
    AnalysisConfig,
    analyze,
    check_domain_completion,
    check_forced_catenary,
    check_noncat_domain,
    check_noncat_ufd,
    check_regularity_at_min,
    check_ufd_completion,
    check_universal_catenarity_obstruction,
    find_ufd_witness_prime,
)
from noncat.errors import (
    ChainInfeasibleError,
    UnitIdealError,
    UnsupportedInputError,
)
from noncat.families import FamilySpec, instantiate
from noncat.groebner import IdealHandle
from noncat.monomial import MonomialIdeal, MonomialPrime
from noncat.poly import (
    FieldDescriptor,
    Polynomial,
    RingPresentation,
    VariableContext,
    variables,
)
from noncat.spectra import build_poset, construct_chain, verify_chain

from conftest import QQ, ctx, random_monomial_ideal


def ring_of(context, *gens, field=QQ):
    return RingPresentation(field, context, gens)


def two_plane_ring():
    c = ctx("x", "y", "z", "v")
    x, y, z, v = variables(QQ, c)
    return ring_of(c, x * y, x * z)


def family_ring(a, b):
    names = ["x"] + [f"y{i}" for i in range(1, a + 1)] \
        + [f"z{i}" for i in range(1, b + 1)]
    c = ctx(*names)
    xs = variables(QQ, c)
    return ring_of(c, *(xs[0] * xs[i] for i in range(1, a + 1)))


class TestDomainCompletion:
    def test_two_plane_true(self):
        assert check_domain_completion(two_plane_ring()) is True

    def test_embedded_maximal_false(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert check_domain_completion(ring_of(c, x ** 2, x * y)) is False

    def test_field_case_true(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert check_domain_completion(ring_of(c, x, y)) is True

    def test_unit_ideal_rejected(self):
        c = ctx("x")
        one = Polynomial.constant(QQ, c, 1)
        with pytest.raises(UnitIdealError):
            check_domain_completion(ring_of(c, one))


class TestNoncatDomain:
    def test_two_plane_witness(self):
        flag, p, chain = check_noncat_domain(two_plane_ring())
        assert flag is True
        assert p == MonomialPrime.of(two_plane_ring().context, "y", "z")
        assert chain is not None and chain.length == 2

    def test_catenary_family_false(self):
        flag, p, chain = check_noncat_domain(family_ring(3, 0))
        assert flag is False and p is None

    def test_power_series_ring_false(self):
        c = ctx("x", "y", "z")
        flag, _, _ = check_noncat_domain(ring_of(c))
        assert flag is False

    def test_non_monomial_unsupported(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        with pytest.raises(UnsupportedInputError):
            check_noncat_domain(ring_of(c, x ** 2 - y))


class TestUfdCompletion:
    def test_family_true_with_certificate(self):
        verdict, cert = check_ufd_completion(family_ring(2, 2))
        assert verdict is True and cert is not None

    def test_depth_one_false(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        verdict, _ = check_ufd_completion(ring_of(c, x * y))
        assert verdict is False

    def test_dvr_true(self):
        c = ctx("x")
        verdict, _ = check_ufd_completion(ring_of(c))
        assert verdict is True

    def test_field_true(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        verdict, _ = check_ufd_completion(ring_of(c, x, y))
        assert verdict is True


class TestNoncatUfd:
    def test_family_2_2_true(self):
        verdict, p, witness = check_noncat_ufd(family_ring(2, 2))
        assert verdict is True
        assert witness is not None

    def test_two_plane_false(self):
        verdict, _, _ = check_noncat_ufd(two_plane_ring())
        assert verdict is False

    def test_small_b_false(self):
        # a = 2, b = 1 gives profile {3, 2}; no prime with dim > 2
        verdict, _, _ = check_noncat_ufd(family_ring(2, 1))
        assert verdict is False


class TestUfdWitnessPrime:
    def test_family_2_2(self):
        witness = find_ufd_witness_prime(family_ring(2, 2))
        c = family_ring(2, 2).context
        assert witness.prime == MonomialPrime.of(c, "y1", "y2", "z1", "z2")
        assert str(witness.regular_start) == "z1"
        assert witness.localized_depth.verdict is True
        assert witness.height + 1 < 4

    def test_two_plane_none(self):
        assert find_ufd_witness_prime(two_plane_ring()) is None

    def test_family_3_2(self):
        witness = find_ufd_witness_prime(family_ring(3, 2))
        c = family_ring(3, 2).context
        assert witness.prime == MonomialPrime.of(c, "y1", "y2", "y3",
                                                 "z1", "z2")

    def test_regular_start_is_a_sum_of_two_variables(self):
        """No variable of the chain node is a usable start here, so the
        witness starts with x0 + x2, decided on the monomial cut."""
        c = ctx("x0", "x1", "x2", "x3", "x4")
        x0, x1, x2, x3, x4 = variables(QQ, c)
        report = analyze(ring_of(c, x1 * x3, x0 * x2 ** 2 * x3,
                                 x2 * x3 ** 2))
        assert report.witnesses.ufd_witness_prime == ("x0", "x1", "x2", "x4")
        assert any(n.startswith("ufd_witness: regular sequence starts with "
                                "x0 + x2;") for n in report.notes)

    def test_witness_conditions_reverify(self):
        """A returned witness passes the independent condition checks:
        dim 1, height deficiency, regular start avoiding the prime after
        cutting, and localized depth."""
        for a, b in ((2, 2), (2, 3), (3, 2)):
            ring = family_ring(a, b)
            witness = find_ufd_witness_prime(ring)
            mono = MonomialIdeal.from_polynomials(
                ring.context, ring.generators)
            v = ring.context.count
            assert witness.prime.quotient_dim(v) == 1
            poset = build_poset(mono)
            assert poset.height(witness.prime) + 1 < mono.dimension()
            x = witness.regular_start
            handle = IdealHandle.from_presentation(ring)
            assert handle.is_regular_element(x)
            cut = mono.plus([x.pairs()[0][1]])
            assert witness.prime not in cut.associated_primes()
            local = mono.localize(witness.prime)
            lhandle = IdealHandle(QQ, local.context,
                                  local.to_polynomials(QQ))
            assert lhandle.depth_at_least_two().verdict is True

    def test_search_conclusive_or_subposet_gap(self):
        """On random monomial rings where some minimal prime has
        2 < dim(T/P) < dim T, the witness search either succeeds (and the
        witness verifies) or the avoidance chain provably leaves the
        monomial subposet; a silent miss would fail both branches."""
        rng = random.Random(97)
        qualifying = succeeded = 0
        for _ in range(200):
            v = rng.randint(4, 6)
            c = ctx(*[f"v{i}" for i in range(v)])
            mono = MonomialIdeal(c, random_monomial_ideal(rng, v, 3,
                                                          squarefree=True))
            if mono.is_unit:
                continue
            dim = mono.dimension()
            starts = [p for p in mono.minimal_primes()
                      if 2 < p.quotient_dim(v) < dim]
            if not starts:
                continue
            qualifying += 1
            ring = ring_of(c, *mono.to_polynomials(QQ))
            witness = find_ufd_witness_prime(ring)
            if witness is not None:
                assert witness.prime.quotient_dim(v) == 1
                assert witness.localized_depth.verdict is True
                succeeded += 1
            else:
                with pytest.raises(ChainInfeasibleError):
                    construct_chain(build_poset(mono), starts[0])
        assert qualifying >= 10
        assert succeeded >= 3


class TestForcedCatenary:
    def test_catenary_family_forces_domains(self):
        domain_forced, _, _ = check_forced_catenary(family_ring(4, 0))
        assert domain_forced is True

    def test_mixed_class_ring(self):
        # profile {4, 2} with depth 2: noncatenary-domain completion that
        # also completes a catenary UFD
        c = ctx("x", "y", "z", "v", "w")
        x, y, z, v, w = variables(QQ, c)
        ring = ring_of(c, x * y, x * z, x * w)
        domain_forced, ufd_forced, mixed = check_forced_catenary(ring)
        assert mixed is True
        assert ufd_forced is True
        assert domain_forced is False
        flag, _, _ = check_noncat_domain(ring)
        assert flag is True

    def test_ufd_family_not_forced(self):
        _, ufd_forced, _ = check_forced_catenary(family_ring(2, 2))
        assert ufd_forced is False


class TestObstruction:
    def test_catenary_family_obstructed(self):
        assert check_universal_catenarity_obstruction(family_ring(4, 0)) is True

    def test_power_series_ring_clean(self):
        c = ctx("x", "y")
        assert check_universal_catenarity_obstruction(ring_of(c)) is False

    def test_two_plane_obstructed(self):
        assert check_universal_catenarity_obstruction(two_plane_ring()) is True


class TestRegularityAtMin:
    def test_two_plane_regular(self):
        assert check_regularity_at_min(two_plane_ring()) is True

    def test_fat_component_fails(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        # (x^2*y): the (x)-primary component is (x^2), not (x)
        assert check_regularity_at_min(ring_of(c, x ** 2 * y)) is False

    def test_product_of_lines_regular(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert check_regularity_at_min(ring_of(c, x * y)) is True

    def test_embedded_primes_unsupported(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        with pytest.raises(UnsupportedInputError):
            check_regularity_at_min(ring_of(c, x ** 2, x * y))

    def test_char_p_unsupported(self):
        f5 = FieldDescriptor(5)
        c = ctx("x", "y")
        x, y = variables(f5, c)
        with pytest.raises(UnsupportedInputError):
            check_regularity_at_min(ring_of(c, x * y, field=f5))


class TestAnalyzeReports:
    def test_two_plane_full_report(self):
        report = analyze(two_plane_ring())
        assert report.dim == 3
        assert report.profile == (3, 2)
        assert report.semantics == "monomial-exact"
        assert [tuple(p.gens) for p in report.minimal_primes] == \
            [("x",), ("y", "z")]
        assert report.associated_primes == (("x",), ("y", "z"))
        assert report.verdicts["noncat_domain"] is True
        assert report.verdicts["noncat_ufd"] is False
        assert report.verdicts["regularity_at_min"] is True
        assert report.witnesses.P == ("y", "z")
        assert report.witnesses.chain == (("y", "z"), ("y", "z", "v"),
                                          ("x", "y", "z", "v"))
        assert report.inconclusive == ()

    def test_non_monomial_partial_report(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        report = analyze(ring_of(c, x * y - z ** 2))
        assert report.semantics == "unverified-completion"
        assert report.dim == 2
        assert report.minimal_primes is None
        assert report.profile is None
        assert report.conditions["lech_ii"] is True
        assert report.verdicts["noncat_domain"] is None
        assert any("unsupported input class" in s for s in report.inconclusive)

    def test_char_p_note(self):
        f7 = FieldDescriptor(7)
        c = ctx("x", "y", "z", "v")
        x, y, z, v = variables(f7, c)
        report = analyze(ring_of(c, x * y, x * z, field=f7))
        assert report.verdicts["noncat_domain"] is True
        assert report.verdicts["regularity_at_min"] is None
        assert any(s.startswith("char_p") for s in report.notes)

    def test_field_case_report(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        report = analyze(ring_of(c, x, y))
        assert report.dim == 0
        assert report.verdicts["domain_completion"] is True
        assert report.verdicts["ufd_completion"] is True
        assert report.verdicts["noncat_domain"] is False

    def test_dvr_report(self):
        c = ctx("x",)
        report = analyze(ring_of(c))
        assert report.dim == 1
        assert report.verdicts["ufd_completion"] is True
        assert report.conditions["depth_ge2"] is False

    def test_witnesses_reverify_from_scratch(self):
        """Every true verdict's witness re-verifies against fresh
        computations."""
        for ring in (two_plane_ring(), family_ring(2, 2), family_ring(3, 2)):
            report = analyze(ring)
            mono = MonomialIdeal.from_polynomials(ring.context,
                                                  ring.generators)
            poset = build_poset(mono)
            handle = IdealHandle.from_presentation(ring)
            if report.verdicts["noncat_domain"]:
                flag, p, chain = check_noncat_domain(ring)
                assert flag and verify_chain(poset, chain, p) == []
                d = p.quotient_dim(ring.context.count)
                assert 1 < d < report.dim
            if report.conditions["depth_ge2"]:
                f = _parse_witness(report.witnesses.regular_element, ring)
                assert handle.is_regular_element(f)
                assert not handle.plus(f).maximal_ideal_associated()
            if report.verdicts["noncat_ufd"]:
                assert report.witnesses.ufd_witness_prime is not None
                q = MonomialPrime.of(ring.context,
                                     *report.witnesses.ufd_witness_prime)
                assert q.quotient_dim(ring.context.count) == 1
                assert poset.height(q) + 1 < report.dim


def _parse_witness(text, ring):
    """Rebuild a witness polynomial from its rendered sum of variables."""
    out = Polynomial.zero_poly(ring.field, ring.context)
    for part in text.split(" + "):
        out = out + Polynomial.variable(ring.field, ring.context, part.strip())
    return out


class TestMonomialEngineOnly:
    def test_monomial_rings_never_run_buchberger(self, monkeypatch):
        ufd_ring, _ = instantiate(FamilySpec("example_ufd", (2, 2)))
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        embedded = ring_of(c, x ** 2, x * y)

        def refuse(*args, **kwargs):
            raise AssertionError("buchberger ran on monomial input")

        monkeypatch.setattr("noncat.groebner.buchberger", refuse)
        report = analyze(ufd_ring)
        assert report.semantics == "monomial-exact"
        assert report.verdicts["noncat_ufd"] is True
        report = analyze(embedded)
        assert report.semantics == "monomial-exact"
        assert report.associated_primes == (("x",), ("x", "y"))
        assert report.conditions["depth_ge2"] is False


class TestImplicationLattice:
    def _assert_implications(self, report):
        v = report.verdicts
        if v["noncat_ufd"] is True:
            assert v["noncat_domain"] is True
            assert v["forced_cat_ufd"] is not True
            assert report.dim > 3
        if v["noncat_domain"] is True:
            assert v["forced_cat_domain"] is not True
            assert v["universally_catenary_obstructed"] is True
        if v["ufd_completion"] is True and report.dim <= 3:
            assert v["noncat_ufd"] is not True

    def test_on_named_rings(self):
        rings = [two_plane_ring(), family_ring(2, 2), family_ring(3, 2),
                 family_ring(4, 0), family_ring(2, 1)]
        for ring in rings:
            self._assert_implications(analyze(ring))

    def test_on_random_monomial_rings(self):
        rng = random.Random(123)
        analyzed = 0
        for _ in range(30):
            v = rng.randint(2, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            mono = MonomialIdeal(c, random_monomial_ideal(rng, v, 4))
            if mono.is_unit:
                continue
            report = analyze(ring_of(c, *mono.to_polynomials(QQ)))
            self._assert_implications(report)
            analyzed += 1
        assert analyzed >= 25
