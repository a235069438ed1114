"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run pytest with -s to see them) and enforcing the stated runtime
limits."""

import contextlib
import random
import time

from noncat.analyzer import analyze
from noncat.families import FamilySpec, instantiate
from noncat.groebner import IdealHandle
from noncat.monomial import MonomialIdeal, MonomialPrime
from noncat.poly import Polynomial, RingPresentation, variables
from noncat.spectra import construct_chain, verify_chain

from conftest import (
    QQ,
    brute_dimension,
    brute_minimal_covers,
    ctx,
    la_membership,
    monomials_of_degree,
    random_monomial_ideal,
    random_nonzero_polynomial,
)


@contextlib.contextmanager
def criterion(number, detail):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {detail}")
        raise
    print(f"PASS criterion {number}: {detail}")


def timed_analyze(ring, limit):
    start = time.perf_counter()
    report = analyze(ring)
    elapsed = time.perf_counter() - start
    assert elapsed < limit, f"analysis took {elapsed:.2f}s, limit {limit}s"
    return report


def test_criterion_1_quasi_excellent_domain_example():
    with criterion(1, "two-plane example: profile {3,2}, noncatenary-domain "
                      "completion, regular at minimal primes, < 1 s"):
        ring, _ = instantiate(FamilySpec("example_domain"))
        report = timed_analyze(ring, 1.0)
        assert report.associated_primes == (("x",), ("y", "z"))
        assert [tuple(p.gens) for p in report.minimal_primes] == \
            [("x",), ("y", "z")]
        assert report.dim == 3
        assert report.profile == (3, 2)
        assert report.verdicts["noncat_domain"] is True
        assert report.verdicts["noncat_ufd"] is False
        assert report.verdicts["regularity_at_min"] is True


def test_criterion_2_catenary_but_not_universally_catenary_family():
    with criterion(2, "catenary family n=2..6: profile {n,1}, forced "
                      "catenary, obstructed, < 1 s each"):
        for n in range(2, 7):
            ring, _ = instantiate(FamilySpec("example_catenary", (n,)))
            report = timed_analyze(ring, 1.0)
            assert report.profile == (n, 1)
            assert report.verdicts["noncat_domain"] is False
            assert report.verdicts["forced_cat_domain"] is True
            assert report.verdicts["universally_catenary_obstructed"] is True


def test_criterion_3_noncatenary_ufd_family():
    with criterion(3, "UFD family (2,2),(2,3),(3,2),(4,5): noncatenary-UFD "
                      "completion with certificates, < 5 s each"):
        for a, b in ((2, 2), (2, 3), (3, 2), (4, 5)):
            ring, _ = instantiate(FamilySpec("example_ufd", (a, b)))
            report = timed_analyze(ring, 5.0)
            assert report.verdicts["noncat_ufd"] is True
            assert report.conditions["depth_ge2"] is True
            assert report.witnesses.regular_element is not None
            expected_q = tuple([f"y{i}" for i in range(1, a + 1)]
                               + [f"z{i}" for i in range(1, b + 1)])
            assert report.witnesses.ufd_witness_prime == expected_q
            assert report.dim == a + b
            assert report.profile == (a + b, b + 1)
            assert report.dim > 3


def test_criterion_4_two_chain_lengths():
    with criterion(4, "parameterized family (m,n)=(2,3),(3,5),(4,9): chains "
                      "of lengths n and m, verifier clean, < 2 s each"):
        for m, n in ((2, 3), (3, 5), (4, 9)):
            start_time = time.perf_counter()
            ring, _ = instantiate(FamilySpec("prop41", (m, n)))
            a = n - m + 1
            mono = MonomialIdeal.from_polynomials(ring.context,
                                                  ring.generators)
            p_line = MonomialPrime.of(ring.context, "x")
            p_block = MonomialPrime.of(ring.context,
                                       *[f"y{i}" for i in range(1, a + 1)])
            long_chain = construct_chain(mono, p_line)
            short_chain = construct_chain(mono, p_block)
            assert len(long_chain) - 1 == n
            assert len(short_chain) - 1 == m
            assert verify_chain(mono, long_chain, p_line) == []
            assert verify_chain(mono, short_chain, p_block) == []
            elapsed = time.perf_counter() - start_time
            assert elapsed < 2.0, f"chains took {elapsed:.2f}s"


def test_criterion_5_depth_calibration():
    with criterion(5, "depth calibration: (x*y) has depth exactly 1 via "
                      "f = x+y; the plane has depth >= 2"):
        c = ctx("x", "y")
        x, y = variables(QQ, c)
        hyperbola = IdealHandle(QQ, c, (x * y,))
        assert not hyperbola.maximal_ideal_associated()  # depth >= 1
        result = hyperbola.depth_at_least_two()
        assert result.verdict is False
        assert result.regular_element == x + y
        # the certificate: f is regular and M is associated after cutting
        assert hyperbola.is_regular_element(x + y)
        assert hyperbola.plus(x + y).maximal_ideal_associated()

        plane = IdealHandle(QQ, c, ())
        assert plane.depth_at_least_two().verdict is True


def test_criterion_6_oracle_equivalence():
    with criterion(6, ">= 200 random squarefree monomial ideals: monomial "
                      "Min/dim vs Groebner dim vs brute force; colon "
                      "regularity vs Ass-avoidance"):
        rng = random.Random(60006)
        checked = regularity_checked = 0
        while checked < 200:
            v = rng.randint(1, 5)
            c = ctx(*[f"v{i}" for i in range(v)])
            gens = random_monomial_ideal(rng, v, 6, squarefree=True)
            mono = MonomialIdeal(c, gens)
            if mono.is_unit:
                continue
            checked += 1
            supports = [frozenset(i for i, e in enumerate(g) if e)
                        for g in mono.gens]
            assert {p.mask for p in mono.minimal_primes()} == {
                sum(1 << i for i in s)
                for s in brute_minimal_covers(supports, v)}
            expected_dim = brute_dimension(mono.gens, v)
            assert mono.dimension() == expected_dim
            handle = IdealHandle(QQ, c, mono.to_polynomials(QQ))
            assert handle.krull_dimension() == expected_dim
            xs = variables(QQ, c)
            for _ in range(2):
                support = tuple(i for i in range(v) if rng.randint(0, 1))
                if not support:
                    continue
                f = sum((xs[i] for i in support[1:]), xs[support[0]])
                if handle.contains(f):
                    assert not mono.is_regular(support)
                    continue
                assert handle.is_regular_element(f) == \
                    mono.is_regular(support)
                regularity_checked += 1
        assert checked >= 200
        assert regularity_checked >= 100


def test_criterion_7_groebner_properties():
    with criterion(7, "reduced-basis canonicity under shuffling (100 "
                      "ideals); membership vs linear-algebra oracle"):
        rng = random.Random(70007)
        c3 = ctx("x", "y", "z")
        from noncat.groebner import buchberger
        for _ in range(100):
            gens = [random_nonzero_polynomial(rng, c3)
                    for _ in range(rng.randint(1, 4))]
            reference = buchberger(gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == reference

        oracle_checks = 0
        for _ in range(20):
            gens = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 2)
                monos = list(monomials_of_degree(3, d))
                terms = [(rng.choice((-2, -1, 1, 2)), rng.choice(monos))
                         for _ in range(rng.randint(1, 2))]
                g = Polynomial(QQ, c3, terms)
                if not g.is_zero:
                    gens.append(g)
            handle = IdealHandle(QQ, c3, gens)
            for d in range(0, 5):
                for e in monomials_of_degree(3, d):
                    f = Polynomial(QQ, c3, ((1, e),))
                    assert handle.contains(f) == la_membership(f, gens)
                    oracle_checks += 1
        assert oracle_checks >= 500


def test_criterion_8_implication_lattice():
    with criterion(8, "implication lattice over the named rings plus 100 "
                      "random monomial rings (<= 8 variables): zero "
                      "violations"):
        rings = [instantiate(FamilySpec("example_domain"))[0]]
        for n in range(2, 7):
            rings.append(instantiate(FamilySpec("example_catenary", (n,)))[0])
        for a, b in ((2, 2), (2, 3), (3, 2), (4, 5)):
            rings.append(instantiate(FamilySpec("example_ufd", (a, b)))[0])
        for m, n in ((2, 3), (3, 5), (4, 9)):
            rings.append(instantiate(FamilySpec("prop41", (m, n)))[0])

        rng = random.Random(80008)
        produced = 0
        while produced < 100:
            v = rng.randint(2, 8)
            c = ctx(*[f"v{i}" for i in range(v)])
            mono = MonomialIdeal(c, random_monomial_ideal(rng, v, 5))
            if mono.is_unit:
                continue
            rings.append(RingPresentation(QQ, c, mono.to_polynomials(QQ)))
            produced += 1

        violations = []
        for ring in rings:
            report = analyze(ring)
            v = report.verdicts
            if v["noncat_ufd"] is True:
                if v["noncat_domain"] is not True:
                    violations.append((ring.render(), "ufd->domain"))
                if v["forced_cat_ufd"] is True:
                    violations.append((ring.render(), "ufd->not forced_ufd"))
                if not report.dim > 3:
                    violations.append((ring.render(), "ufd->dim>3"))
            if v["noncat_domain"] is True:
                if v["forced_cat_domain"] is True:
                    violations.append((ring.render(), "domain->not forced"))
                if v["universally_catenary_obstructed"] is not True:
                    violations.append((ring.render(), "domain->obstructed"))
            if v["ufd_completion"] is True and report.dim <= 3:
                if v["noncat_ufd"] is True:
                    violations.append((ring.render(), "dim<=3 ufd->catenary"))
        assert violations == []
