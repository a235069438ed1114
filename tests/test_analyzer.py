"""The ring classifiers: completion-of-domain/UFD tests, noncatenarity
verdicts with witnesses, forced catenarity, the universal-catenarity
obstruction and the regularity check."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncat import analyzer, groebner
from noncat.analyzer import (
    VERDICT_KEYS,
    AnalysisConfig,
    PrimeSummary,
    Witnesses,
    _Analysis,
    _Facts,
    _implications,
    _verdicts,
    analyze,
)
from noncat.cli import main
from noncat.errors import ChainInfeasibleError, UnitIdealError
from noncat.families import FamilySpec, instantiate
from noncat.groebner import IdealHandle
from noncat.monomial import MonomialIdeal, MonomialPrime
from noncat.poly import (
    DEFAULT_GB_STEP_BUDGET,
    FieldDescriptor,
    Polynomial,
    RingPresentation,
    variables,
)
from noncat.spectra import construct_chain, verify_chain

from conftest import (
    QQ,
    brute_minimal_covers,
    count_calls,
    ctx,
    random_monomial_ideal,
    ref_height,
)

ROOT = Path(__file__).resolve().parent.parent


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


def verdict(ring, name):
    return analyze(ring).verdicts[name]


def ufd_witness(ring):
    return _Analysis.from_presentation(ring).ufd_search


class TestDomainCompletion:
    def test_two_plane_true(self):
        assert verdict(two_plane_ring(), "domain_completion") is True

    def test_embedded_maximal_false(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert verdict(ring_of(c, x ** 2, x * y), "domain_completion") is False

    def test_field_case_true(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert verdict(ring_of(c, x, y), "domain_completion") is True

    def test_unit_ideal_rejected(self):
        c = ctx("x")
        one = Polynomial.constant(QQ, c, 1)
        with pytest.raises(UnitIdealError):
            analyze(ring_of(c, one))


class TestNoncatDomain:
    def test_two_plane_witness(self):
        report = analyze(two_plane_ring())
        assert report.verdicts["noncat_domain"] is True
        assert report.witnesses.P == ("y", "z")
        assert len(report.witnesses.chain) == 3  # a chain of length 2

    def test_catenary_family_false(self):
        report = analyze(family_ring(3, 0))
        assert report.verdicts["noncat_domain"] is False
        assert report.witnesses.P is None

    def test_power_series_ring_false(self):
        c = ctx("x", "y", "z")
        assert verdict(ring_of(c), "noncat_domain") is False

    def test_non_monomial_unsupported(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        report = analyze(ring_of(c, x ** 2 - y ** 3))
        assert report.verdicts["noncat_domain"] is None
        assert f"noncat_domain: {NO_MIN}" in report.inconclusive


class TestUfdCompletion:
    def test_family_true_with_certificate(self):
        report = analyze(family_ring(2, 2))
        assert report.verdicts["ufd_completion"] is True
        assert report.witnesses.regular_element is not None

    def test_depth_one_false(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert verdict(ring_of(c, x * y), "ufd_completion") is False

    def test_dvr_true(self):
        c = ctx("x")
        assert verdict(ring_of(c), "ufd_completion") is True

    def test_field_true(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert verdict(ring_of(c, x, y), "ufd_completion") is True


class TestNoncatUfd:
    def test_family_2_2_true(self):
        report = analyze(family_ring(2, 2))
        assert report.verdicts["noncat_ufd"] is True
        assert report.witnesses.ufd_witness_prime is not None

    def test_two_plane_false(self):
        assert verdict(two_plane_ring(), "noncat_ufd") is False

    def test_small_b_false(self):
        # a = 2, b = 1 gives profile {3, 2}; no prime with dim > 2
        assert verdict(family_ring(2, 1), "noncat_ufd") is False


class TestUfdWitnessPrime:
    def test_family_2_2(self):
        witness = ufd_witness(family_ring(2, 2))
        c = family_ring(2, 2).context
        assert witness.prime == MonomialPrime.of(c, "y1", "y2", "z1", "z2")
        assert str(witness.regular_start) == "z1"
        assert witness.localized_depth.verdict is True
        assert witness.height + 1 < 4

    def test_two_plane_none(self):
        assert ufd_witness(two_plane_ring()) is None

    def test_family_3_2(self):
        witness = ufd_witness(family_ring(3, 2))
        c = family_ring(3, 2).context
        assert witness.prime == MonomialPrime.of(c, "y1", "y2", "y3",
                                                 "z1", "z2")

    def test_regular_start_is_a_sum_of_two_variables(self):
        """No variable of the chain node is regular here, so the witness
        starts with x0 + x2."""
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
            witness = ufd_witness(ring)
            mono = MonomialIdeal.from_polynomials(
                ring.context, ring.generators)
            v = ring.context.count
            assert witness.prime.quotient_dim(v) == 1
            assert ref_height(mono, witness.prime) + 1 < mono.dimension()
            x = witness.regular_start
            handle = IdealHandle.from_presentation(ring)
            assert handle.is_regular_element(x)
            cut = MonomialIdeal(mono.context, mono.gens + (x.pairs()[0][1],))
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
            witness = ufd_witness(ring)
            if witness is not None:
                assert witness.prime.quotient_dim(v) == 1
                assert witness.localized_depth.verdict is True
                # the witness chose its start without a cut test; a
                # variable start still keeps the prime out of Ass(T/fT)
                start = witness.regular_start
                if start.is_term:
                    cut = MonomialIdeal(c, mono.gens + (start.pairs()[0][1],))
                    assert witness.prime not in cut.associated_primes()
                succeeded += 1
            else:
                with pytest.raises(ChainInfeasibleError):
                    construct_chain(mono, starts[0])
        assert qualifying >= 10
        assert succeeded >= 3


def corpus_rings(monkeypatch):
    """The benchmark's 60-ring criterion-8 corpus, as presentations."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import corpus
    rings = []
    for v, gens in corpus():
        c = ctx(*(f"v{i}" for i in range(v)))
        rings.append(ring_of(c, *(Polynomial(QQ, c, ((1, e),))
                                  for e in gens)))
    return rings


def family_rings():
    """example_ufd(a, b) for 2 <= a, b <= 5 and prop42(m, n) for
    3 <= m < n <= 8."""
    specs = [("example_ufd", (a, b)) for a in range(2, 6)
             for b in range(2, 6)]
    specs += [("prop42", (m, n)) for m in range(3, 8)
              for n in range(m + 1, 9)]
    return [instantiate(FamilySpec(kind, params))[0]
            for kind, params in specs]


class TestWitnessChains:
    def test_one_chain_per_prime(self, monkeypatch):
        """Both witness searches share one avoidance chain per minimal
        prime: an analysis never builds the chain of a prime twice."""
        starts = count_starts(monkeypatch)
        analyze(instantiate(FamilySpec("example_ufd", (2, 2)))[0])
        assert len(starts) == 1
        families = family_rings()
        total = 0
        for ring in corpus_rings(monkeypatch) + families:
            starts.clear()
            analyze(ring)
            assert len(starts) == len(set(starts)), ring.render()
            total += len(starts)
        # 20 chains on the corpus, one on each family ring
        assert total == 20 + len(families)

    def test_ufd_witness_height(self, monkeypatch):
        """Every interior chain node has the start P as its only minimal
        prime, so the witness prime Q' has height dim(T/P) - 1, which is
        below dim T - 1 since dim(T/P) < dim T."""
        found = 0
        for ring in corpus_rings(monkeypatch) + family_rings():
            analysis = _Analysis.from_presentation(ring)
            witness = analysis.ufd_search
            if witness is None:
                continue
            start = analysis._qualifying_prime
            assert witness.height == \
                start.quotient_dim(ring.context.count) - 1, ring.render()
            mono = MonomialIdeal.from_polynomials(ring.context,
                                                  ring.generators)
            assert witness.height == ref_height(mono, witness.prime)
            found += 1
        assert found >= 32

    def test_every_chain_verified_once(self, monkeypatch, capsys):
        """Each chain is verified once, when it is built, whichever
        witness search asks for it first: analyze, then the UFD witness
        search on its own, which never reads the noncat_domain witness.
        In the CLI, analyze and the chain command share the chain too:
        across every demo script and format, each (ideal, start) is
        built once and every printed chain has been verified."""
        attempts, built, verified = [], [], []
        construct, verify = analyzer.construct_chain, analyzer.verify_chain

        def constructed(ideal, start):
            attempts.append((ideal, start))
            chain = construct(ideal, start)
            built.append(chain)
            return chain

        def checked(ideal, chain, start=None):
            verified.append(chain)
            return verify(ideal, chain, start)

        monkeypatch.setattr(analyzer, "construct_chain", constructed)
        monkeypatch.setattr(analyzer, "verify_chain", checked)
        rings = corpus_rings(monkeypatch) + family_rings()
        for search in (analyze, ufd_witness):
            built.clear()
            verified.clear()
            for ring in rings:
                search(ring)
            assert len(built) >= 32
            assert len(verified) == len(built)
            assert all(v is b for v, b in zip(verified, built))
        total = 0
        for script in sorted((ROOT / "demos" / "scripts").glob("*.ncat")):
            for fmt in ("text", "json", "dot"):
                attempts.clear()
                built.clear()
                verified.clear()
                main([str(script), "--format", fmt])
                capsys.readouterr()
                # each analysis holds its own MonomialIdeal, kept alive
                # by `attempts`, so ids tell the analyses apart
                keys = [(id(ideal), start) for ideal, start in attempts]
                assert len(keys) == len(set(keys)), (script.name, fmt)
                assert len(verified) == len(built)
                assert all(v is b for v, b in zip(verified, built))
                total += len(built)
        # 12 witness chains of analyze and 6 of the 11 chain commands;
        # the other 5 start where analyze of the same ideal already built,
        # and family example_ufd(2, 2) shares the analysis of the ideal J
        # that ufd_family.ncat writes out by hand
        assert total == 18


def count_starts(monkeypatch):
    """The start primes of every avoidance chain the analyzer builds."""
    starts = []
    original = analyzer.construct_chain

    def counted(ideal, start):
        starts.append(start)
        return original(ideal, start)

    monkeypatch.setattr(analyzer, "construct_chain", counted)
    return starts


FORCED = ("forced_cat_domain", "forced_cat_ufd", "mixed_class")


def forced(report):
    """(domain_forced, ufd_forced, mixed) of a report."""
    return tuple(report.verdicts[name] for name in FORCED)


class TestForcedCatenary:
    def test_catenary_family_forces_domains(self):
        domain_forced, _, _ = forced(analyze(family_ring(4, 0)))
        assert domain_forced is True

    def test_mixed_class_ring(self):
        # profile {4, 2} with depth 2: noncatenary-domain completion that
        # also completes a catenary UFD
        c = ctx("x", "y", "z", "v", "w")
        x, y, z, v, w = variables(QQ, c)
        ring = ring_of(c, x * y, x * z, x * w)
        report = analyze(ring)
        domain_forced, ufd_forced, mixed = forced(report)
        assert mixed is True
        assert ufd_forced is True
        assert domain_forced is False
        assert report.verdicts["noncat_domain"] is True

    def test_ufd_family_not_forced(self):
        _, ufd_forced, _ = forced(analyze(family_ring(2, 2)))
        assert ufd_forced is False

    def test_non_monomial_needs_minimal_primes(self):
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        report = analyze(ring_of(c, x * y - z ** 2))
        assert forced(report) == (None, None, None)
        for name in FORCED:
            assert f"{name}: {NO_MIN}" in report.inconclusive

    def test_non_monomial_dvr_decided_by_its_carve_out(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        report = analyze(ring_of(c, y - x ** 2))
        assert forced(report) == (True, True, False)
        assert report.verdicts["noncat_domain"] is False
        assert report.inconclusive == ()


class TestObstruction:
    def test_catenary_family_obstructed(self):
        assert verdict(family_ring(4, 0),
                       "universally_catenary_obstructed") is True

    def test_power_series_ring_clean(self):
        c = ctx("x", "y")
        assert verdict(ring_of(c),
                       "universally_catenary_obstructed") is False

    def test_two_plane_obstructed(self):
        assert verdict(two_plane_ring(),
                       "universally_catenary_obstructed") is True


class TestRegularityAtMin:
    def test_two_plane_regular(self):
        assert verdict(two_plane_ring(), "regularity_at_min") is True

    def test_fat_component_fails(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        # (x^2*y): the (x)-primary component is (x^2), not (x)
        assert verdict(ring_of(c, x ** 2 * y), "regularity_at_min") is False

    def test_product_of_lines_regular(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        assert verdict(ring_of(c, x * y), "regularity_at_min") is True

    def test_embedded_primes_not_reduced(self):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        # (x^2, x*y) = (x) cap (x^2, y): the embedded prime (x, y) lies
        # over (0) in any domain completing to T, and T is not regular there
        assert verdict(ring_of(c, x ** 2, x * y),
                       "regularity_at_min") is False

    def test_char_p_unsupported(self):
        f5 = FieldDescriptor(5)
        c = ctx("x", "y")
        x, y = variables(f5, c)
        report = analyze(ring_of(c, x * y, field=f5))
        assert report.verdicts["regularity_at_min"] is None
        assert f"regularity_at_min: {CHAR_P}" in report.inconclusive

    def test_reducedness_matches_groebner_oracle(self):
        """Over Q the check is true exactly when I is radical, that is,
        when I equals the Groebner intersection of the primes given by
        the brute-force minimal vertex covers."""
        rng = random.Random(8808)
        c = ctx("a", "b", "c", "d")
        xs = variables(QQ, c)
        outcomes = set()
        for _ in range(60):
            gens = random_monomial_ideal(rng, 4, 4)
            ring = ring_of(c, *(Polynomial(QQ, c, ((1, e),)) for e in gens))
            supports = [{i for i, e in enumerate(g) if e} for g in gens]
            radical = None
            for cover in sorted(brute_minimal_covers(supports, 4), key=sorted):
                prime = IdealHandle(QQ, c, [xs[i] for i in sorted(cover)])
                radical = (prime if radical is None
                           else radical.intersection(prime))
            reduced = IdealHandle.from_presentation(ring).equals(radical)
            assert verdict(ring, "regularity_at_min") is reduced, gens
            outcomes.add(reduced)
        assert outcomes == {True, False}


class TestConfig:
    def test_defaults_and_keywords(self):
        config = AnalysisConfig()
        assert config.gb_step_budget == DEFAULT_GB_STEP_BUDGET
        assert config.regular_candidate_budget == \
            groebner.DEFAULT_REGULAR_CANDIDATE_BUDGET
        assert AnalysisConfig(regular_candidate_budget=7) == AnalysisConfig(
            DEFAULT_GB_STEP_BUDGET, 7)
        assert AnalysisConfig(0, 0).gb_step_budget == 0

    @pytest.mark.parametrize("value", [-5, 2.5, "10", None, True])
    @pytest.mark.parametrize("name", ["gb_step_budget",
                                      "regular_candidate_budget"])
    def test_bad_budget_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            AnalysisConfig(**{name: value})


class TestReportValues:
    """Report parts compare and hash by type and fields, print as
    Name(field=value, ...), and take keywords and defaults."""

    def test_witnesses_default_to_none(self):
        assert Witnesses() == Witnesses(None, None, None, None)
        assert Witnesses(P=("x",)) != Witnesses(chain=("x",))
        assert repr(Witnesses()) == ("Witnesses(P=None, chain=None, "
                                     "regular_element=None, "
                                     "ufd_witness_prime=None)")
        assert hash(Witnesses(P=("x",))) == hash((("x",), None, None, None))

    def test_config_hash_and_repr(self):
        assert hash(AnalysisConfig(5, 6)) == hash((5, 6))
        assert repr(AnalysisConfig(5, 6)) == (
            "AnalysisConfig(gb_step_budget=5, regular_candidate_budget=6)")
        assert AnalysisConfig(5, 6) != (5, 6)

    def test_prime_summaries_of_a_report(self):
        report = analyze(two_plane_ring())
        assert report.minimal_primes == (PrimeSummary(("x",), 3, 0),
                                         PrimeSummary(("y", "z"), 2, 0))
        assert repr(report.minimal_primes[0]) == (
            "PrimeSummary(gens=('x',), dim=3, height=0)")
        assert report == analyze(two_plane_ring())
        with pytest.raises(TypeError):  # its conditions are a dict
            hash(report)


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
        # the remark is not a fact of T, so every fact is still exact
        assert report.semantics == "monomial-exact"

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
            handle = IdealHandle.from_presentation(ring)
            if report.verdicts["noncat_domain"]:
                chain = tuple(MonomialPrime.of(ring.context, *names)
                              for names in report.witnesses.chain)
                p = MonomialPrime.of(ring.context, *report.witnesses.P)
                assert verify_chain(mono, chain, p) == []
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
                assert ref_height(mono, q) + 1 < report.dim

    @pytest.mark.parametrize("names,degree,depth_ge2", [
        ("abcd", 2, False), ("abcde", 3, True)])
    def test_squarefree_powers_decided(self, names, degree, depth_ge2):
        """All squarefree monomials of one degree: no sum of at most three
        variables certifies depth, the sum of all variables does."""
        c = ctx(*names)
        xs = variables(QQ, c)
        gens = []
        for combo in itertools.combinations(xs, degree):
            g = combo[0]
            for x in combo[1:]:
                g = g * x
            gens.append(g)
        report = analyze(ring_of(c, *gens))
        assert report.conditions["depth_ge2"] is depth_ge2
        assert report.verdicts["ufd_completion"] is depth_ge2
        assert report.verdicts["forced_cat_ufd"] is depth_ge2
        assert report.inconclusive == ()


def _parse_witness(text, ring):
    """Rebuild a witness polynomial from its rendered sum of variables."""
    out = Polynomial(ring.field, ring.context)
    for part in text.split(" + "):
        out = out + Polynomial.variable(ring.field, ring.context, part.strip())
    return out


@st.composite
def monomial_ideals(draw, max_vars=5, max_gens=4):
    """(variable count, exponent vectors) of a nonunit monomial ideal."""
    v = draw(st.integers(1, max_vars))
    exps = st.tuples(*[st.integers(0, 2)] * v).filter(any)
    return v, draw(st.lists(exps, max_size=max_gens))


def monomial_ring(field, v, vectors):
    c = ctx(*(f"x{i}" for i in range(v)))
    return ring_of(c, *(Polynomial(field, c, ((field.one, e),))
                        for e in vectors), field=field)


class TestVerdictInvariance:
    @settings(deadline=None)
    @given(monomial_ideals(), st.data())
    def test_permuting_variables(self, case, data):
        v, vectors = case
        perm = data.draw(st.permutations(range(v)))
        moved = [tuple(e[k] for k in perm) for e in vectors]
        a = analyze(monomial_ring(QQ, v, vectors))
        b = analyze(monomial_ring(QQ, v, moved))
        assert a.dim == b.dim
        assert a.profile == b.profile
        assert a.conditions == b.conditions
        assert a.verdicts == b.verdicts

    @settings(deadline=None)
    @given(monomial_ideals())
    def test_prime_field(self, case):
        v, vectors = case
        a = analyze(monomial_ring(QQ, v, vectors))
        b = analyze(monomial_ring(FieldDescriptor(32003), v, vectors))
        assert a.conditions == b.conditions
        assert b.verdicts.pop("regularity_at_min") is None
        del a.verdicts["regularity_at_min"]
        assert a.verdicts == b.verdicts


class TestLocalFacts:
    """T = K[[x]]/I sees I only near the origin, where x1 - 1 is a unit:
    J and J cap (x1 - 1) present one T, so every value the second report
    gives must be the first one's."""

    @staticmethod
    def values(report):
        return {"dim": report.dim, "profile": report.profile,
                **report.conditions, **report.verdicts}

    @settings(deadline=None, max_examples=80)
    @given(monomial_ideals(max_vars=4, max_gens=3))
    def test_component_away_from_origin(self, case):
        v, vectors = case
        ring = monomial_ring(QQ, v, vectors)
        x1 = variables(QQ, ring.context)[0]
        away = IdealHandle.from_presentation(ring).intersection(IdealHandle(
            QQ, ring.context, [x1 - Polynomial.constant(QQ, ring.context, 1)]))
        want = self.values(analyze(ring))
        got = self.values(_Analysis(away, AnalysisConfig()).report)
        decided = {k: value for k, value in got.items() if value is not None}
        assert decided == {k: want[k] for k in decided}


def tilted_ring(number):
    """(l_x) cap (l_y1, l_y2) over Q[x,y1,y2,z1] for linear forms after a
    unitriangular change of coordinates, every coefficient given through
    number: depth >= 2 and dim 3, but not monomial."""
    c = ctx("x", "y1", "y2", "z1")

    def form(*coeffs):
        return Polynomial(QQ, c, ((number(k), tuple(int(i == j)
                                                     for j in range(4)))
                                  for i, k in enumerate(coeffs) if k))

    lx, ly1, ly2 = form(1, 2, -1, 0), form(0, 1, -2, 1), form(0, 0, 1, 2)
    return ring_of(c, lx * ly1, lx * ly2)


def twisted_cubic_ring(number):
    """The cone over the twisted cubic, (ac - b^2, ad - bc, bd - c^2) of
    dim 2 and depth 2, every coefficient given through number."""
    c = ctx("a", "b", "c", "d")
    return ring_of(c, *(Polynomial(QQ, c, ((number(1), p), (number(-1), q)))
                        for p, q in [((1, 0, 1, 0), (0, 2, 0, 0)),
                                     ((1, 0, 0, 1), (0, 1, 1, 0)),
                                     ((0, 1, 0, 1), (0, 0, 2, 0))]))


class TestCoefficientTypes:
    """Coefficients given as Fraction(n) or as n present one ring."""

    @pytest.mark.parametrize("build,dim", [(tilted_ring, 3),
                                           (twisted_cubic_ring, 2)])
    def test_fraction_and_int_coefficients(self, build, dim):
        def typed(polys):
            return [(type(k), k, e) for p in polys for k, e in p.pairs()]

        by_int, by_fraction = build(int), build(Fraction)
        assert typed(by_int.generators) == typed(by_fraction.generators)
        assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
        bases = [IdealHandle.from_presentation(r).groebner_basis()
                 for r in (by_int, by_fraction)]
        assert typed(bases[0]) == typed(bases[1])
        assert hash(bases[0]) == hash(bases[1])
        reports = [json.dumps(analyze(r).to_json_dict())
                   for r in (by_int, by_fraction)]
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert report["dim"] == dim and report["conditions"]["depth_ge2"]


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

    def test_monomial_rings_never_ask_the_handle(self, monkeypatch):
        """The analyzer picks the monomial engine for every fact of a
        monomial ring: no socle test, depth search or dimension is asked
        of the Groebner engine, witnesses and localized depth included."""
        c = ctx("x", "y", "z")
        x, y, z = variables(QQ, c)
        rings = [instantiate(FamilySpec("example_ufd", (2, 2)))[0],
                 instantiate(FamilySpec("prop41", (4, 9)))[0],
                 ring_of(c, x ** 2, x * y), ring_of(c, x * y, x * z)]
        calls = [count_calls(monkeypatch, groebner.IdealHandle, name)
                 for name in ("maximal_ideal_associated",
                              "depth_at_least_two", "krull_dimension")]
        reports = [analyze(ring) for ring in rings]
        assert all(r.semantics == "monomial-exact" for r in reports)
        assert reports[0].witnesses.ufd_witness_prime is not None
        assert calls == [[], [], []]

    @pytest.mark.parametrize("n", range(5, 15))
    def test_cycle_depth_two_without_buchberger(self, monkeypatch, n):
        """The Stanley-Reisner ring of the n-cycle is Cohen-Macaulay of
        dimension 2. From n = 7 no sum of at most three variables is
        regular, and from n = 11 the default candidate budget ends before
        the sum of all variables, which is the certificate either way."""
        c = ctx(*(f"x{i}" for i in range(1, n + 1)))
        xs = variables(QQ, c)
        gens = [xs[i] * xs[j] for i, j in itertools.combinations(range(n), 2)
                if j - i not in (1, n - 1)]
        runs = count_calls(monkeypatch, groebner, "buchberger")
        report = analyze(ring_of(c, *gens))
        assert report.conditions["depth_ge2"] is True
        assert report.verdicts["ufd_completion"] is True
        assert report.inconclusive == ()
        assert not runs
        if n >= 7:
            assert report.witnesses.regular_element == str(sum(xs[1:], xs[0]))


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


# The facts each verdict of the table reads.
READS = {
    "domain_completion": {"carve_out", "m_assoc"},
    "ufd_completion": {"carve_out", "depth2"},
    "noncat_domain": {"carve_out", "m_assoc", "profile"},
    "noncat_ufd": {"carve_out", "depth2", "profile"},
    "forced_cat_domain": {"carve_out", "m_assoc", "profile"},
    "forced_cat_ufd": {"carve_out", "depth2", "profile"},
    "mixed_class": {"carve_out", "depth2", "profile"},
    "universally_catenary_obstructed": {"profile"},
    "regularity_at_min": {"reduced"},
}
NO_MIN = ("unsupported input class (minimal primes are not computed for "
          "non-monomial ideals)")
CHAR_P = ("unsupported (regularity remark check unavailable in "
          "characteristic p)")
NO_LOCAL_DIM = ("unsupported input class (the local dimension is only "
                "computed for monomial or homogeneous ideals)")


def fact_records():
    """Every fact record the engines can produce: each profile that is a
    multiset of dims 0..6 (each dim at most twice) with dim its maximum,
    or no profile with any dim; each socle-test outcome with the depth
    outcomes it allows (M associated means depth 0); reducedness known or
    not; and the field and DVR carve-outs."""
    socle_depth = ((True, False), (False, True), (False, False),
                   (False, None))
    for counts in itertools.product(range(3), repeat=7):
        if any(counts):
            profile = tuple(d for d in range(6, -1, -1)
                            for _ in range(counts[d]))
            for m_assoc, depth2 in socle_depth:
                for reduced in (True, False, None):
                    yield (profile[0], m_assoc, depth2, None, profile,
                           reduced)
    for dim in (*range(7), None):
        for m_assoc, depth2 in socle_depth:
            yield dim, m_assoc, depth2, None, None, None
    for reduced in (True, None):
        yield 0, True, False, "field", (0,), reduced
        for depth2 in (False, None):
            yield 1, False, depth2, "dvr", (1,), reduced


def facts_of(dim, m_assoc, depth2, carve_out, profile, reduced):
    missing = {}
    if dim is None:
        missing["dim"] = NO_LOCAL_DIM
    if depth2 is None:
        missing["depth2"] = "inconclusive: no regular element"
    if profile is None:
        missing["profile"] = missing["reduced"] = NO_MIN
    elif reduced is None:
        missing["reduced"] = CHAR_P
    return _Facts(dim, m_assoc, depth2, carve_out, profile, reduced,
                  missing)


class TestVerdictTable:
    """_verdicts on every fact record the engines can produce, against
    the paper's table written out independently."""

    def test_every_fact_record(self):
        seen = 0
        for record in fact_records():
            dim, m_assoc, depth2, carve_out, profile, reduced = record
            facts = facts_of(*record)
            conditions, verdicts, inconclusive = _verdicts(facts)
            assert _implications(verdicts, dim) == [], record
            values = dict(m_assoc=m_assoc, depth2=depth2,
                          carve_out=carve_out or "none", profile=profile,
                          reduced=reduced)
            missing = {name for name, value in values.items()
                       if value is None}
            for name, value in verdicts.items():
                if value is None:
                    assert READS[name] & missing, (record, name)
                else:
                    assert name not in inconclusive, (record, name)
            assert conditions["depth_ge2"] is depth2
            assert ("depth_ge2" in inconclusive) == (depth2 is None)
            if dim is None:
                assert list(inconclusive.items())[0] == (
                    "dim", f"dim: {NO_LOCAL_DIM}")
            else:
                assert "dim" not in inconclusive
            if profile is None:
                assert [v for k, v in inconclusive.items()
                        if k not in ("dim", "depth_ge2")] == [
                    f"{name}: {NO_MIN}" for name in VERDICT_KEYS
                    if name not in ("domain_completion", "ufd_completion")]
            elif not missing:
                assert verdicts == reference_table(*record), record
            seen += 1
        assert seen > 25000


def reference_table(dim, m_assoc, depth2, carve_out, profile, reduced):
    """The README's verdict table, with forced catenarity as "T completes
    some domain (UFD), and every such one is catenary"."""
    domain = carve_out == "field" or not m_assoc
    ufd = carve_out is not None or depth2
    noncat_domain = domain and any(1 < d < dim for d in profile)
    noncat_ufd = depth2 and any(2 < d < dim for d in profile)
    return {
        "domain_completion": domain,
        "noncat_domain": noncat_domain,
        "ufd_completion": ufd,
        "noncat_ufd": noncat_ufd,
        "forced_cat_domain": domain and not noncat_domain,
        "forced_cat_ufd": ufd and not noncat_ufd,
        "mixed_class": noncat_domain and ufd and not noncat_ufd and dim > 3,
        "universally_catenary_obstructed": len(set(profile)) > 1,
        "regularity_at_min": reduced,
    }
