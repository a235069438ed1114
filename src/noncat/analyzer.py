"""Ring classification: decide which kinds of local domains and UFDs can
have the presented complete local ring as their completion, and attach
checkable witnesses to every positive verdict.

The positive classifications are characterized by conditions on T alone:

* completion of a local domain: no element of the prime subring is a
  zero divisor (automatic over a field) and, unless T is a field, the
  maximal ideal is not associated;
* completion of a noncatenary local domain: additionally some minimal
  prime P has 1 < dim(T/P) < dim T;
* completion of a local UFD: T is a field, a DVR, or has depth > 1;
* completion of a noncatenary local UFD: depth > 1 and some minimal
  prime P has 2 < dim(T/P) < dim T.

Witnesses are the qualifying minimal prime, a saturated avoidance chain
from it, a depth certificate, and a dimension-one prime with small height
and localized depth > 1. Inconclusive searches are reported as such and
never coerced to a negative verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .errors import ChainInfeasibleError, UnitIdealError, UnsupportedInputError
from .groebner import (
    DEFAULT_REGULAR_CANDIDATE_BUDGET,
    DepthResult,
    IdealHandle,
)
from .monomial import MonomialPrime
from .poly import (DEFAULT_GB_STEP_BUDGET, Polynomial, RingPresentation,
                   variables)
from .spectra import (
    DEFAULT_MAX_POSET_VARS,
    build_poset,
    construct_chain,
    noncat_profile,
    verify_chain,
)

SEMANTICS_EXACT = "monomial-exact"
SEMANTICS_UNVERIFIED = "unverified-completion"

CONDITION_KEYS = ("lech_i", "lech_ii", "depth_ge1", "depth_ge2",
                  "exists_P_domain", "exists_P_ufd", "equidimensional")
VERDICT_KEYS = ("domain_completion", "noncat_domain", "ufd_completion",
                "noncat_ufd", "forced_cat_domain", "forced_cat_ufd",
                "mixed_class", "universally_catenary_obstructed",
                "regularity_at_min")


@dataclass(frozen=True)
class AnalysisConfig:
    gb_step_budget: int = DEFAULT_GB_STEP_BUDGET
    regular_candidate_budget: int = DEFAULT_REGULAR_CANDIDATE_BUDGET
    max_poset_vars: int = DEFAULT_MAX_POSET_VARS  # CLI poset and DOT only


@dataclass(frozen=True)
class PrimeSummary:
    gens: tuple
    dim: int
    height: int


@dataclass(frozen=True)
class Witnesses:
    P: tuple | None = None
    chain: tuple | None = None
    regular_element: str | None = None
    ufd_witness_prime: tuple | None = None


@dataclass(frozen=True)
class UfdWitness:
    """A dimension-one prime Q' with height(Q') + 1 < dim T, reached as the
    last interior node of an avoidance chain, together with a regular
    element inside the chain's second-to-last node and a certificate that
    the localization at Q' has depth > 1."""

    prime: MonomialPrime
    chain: object
    height: int
    regular_start: Polynomial
    localized_depth: DepthResult


@dataclass(frozen=True)
class AnalysisReport:
    ring: str
    dim: int
    semantics: str
    minimal_primes: tuple | None
    associated_primes: tuple | None
    profile: tuple | None
    conditions: dict
    verdicts: dict
    witnesses: Witnesses
    inconclusive: tuple
    notes: tuple

    def to_json_dict(self):
        return {
            "ring": self.ring,
            "dim": self.dim,
            "semantics": self.semantics,
            "minimal_primes": None if self.minimal_primes is None else [
                {"gens": list(p.gens), "dim": p.dim, "height": p.height}
                for p in self.minimal_primes],
            "associated_primes": None if self.associated_primes is None else [
                list(names) for names in self.associated_primes],
            "profile": None if self.profile is None else list(self.profile),
            "conditions": dict(self.conditions),
            "verdicts": dict(self.verdicts),
            "witnesses": {
                "P": None if self.witnesses.P is None else list(self.witnesses.P),
                "chain": None if self.witnesses.chain is None else [
                    list(names) for names in self.witnesses.chain],
                "regular_element": self.witnesses.regular_element,
                "ufd_witness_prime": (
                    None if self.witnesses.ufd_witness_prime is None
                    else list(self.witnesses.ufd_witness_prime)),
            },
            "inconclusive": list(self.inconclusive),
            "notes": list(self.notes),
        }


class _Analysis:
    """Every computed fact about one ideal, each computed at most once: the
    handle caches the basis, Min, Ass, dim and the socle test, this class
    the depth search, poset, profile, verdicts and report. The CLI keeps
    one per ideal, so all its commands on that ideal share the work."""

    def __init__(self, handle, config):
        if handle.is_unit_ideal:
            raise UnitIdealError("the unit ideal does not present a ring")
        self.handle = handle
        self.config = config
        self.context = handle.context
        self.field = handle.field
        self.v = handle.context.count
        self.mono = handle.monomial_ideal()
        self.ring = RingPresentation(handle.field, handle.context,
                                     handle.generators).render()

    @classmethod
    def from_presentation(cls, ring, config=None):
        config = config or AnalysisConfig()
        return cls(IdealHandle.from_presentation(ring, config.gb_step_budget),
                   config)

    # -- shared facts --

    @property
    def dim(self):
        return self.handle.krull_dimension()

    @cached_property
    def is_field_case(self):
        return self.handle.is_maximal_ideal

    @property
    def is_dvr_case(self):
        return self.v == 1 and self.handle.is_zero_ideal

    @cached_property
    def depth(self):
        return self.handle.depth_at_least_two(
            self.config.regular_candidate_budget)

    @cached_property
    def poset(self):
        self.require_monomial("the spectrum poset")
        return build_poset(self.mono, self.config.max_poset_vars)

    def require_monomial(self, what):
        if self.mono is None:
            raise UnsupportedInputError(
                f"{what} needs minimal primes, which are only computed for "
                "monomial ideals")

    @cached_property
    def profile(self):
        self.require_monomial("the noncatenarity profile")
        return noncat_profile(self.mono)

    # -- the individual checkers --

    @cached_property
    def domain_completion(self):
        """Completion-of-a-domain test: automatic prime-subring condition
        plus the socle test, with the field carve-out."""
        return (self.is_field_case
                or not self.handle.maximal_ideal_associated())

    def _qualifying_prime(self, lower):
        """First minimal prime (canonical order) with
        lower < dim(T/P) < dim T, or None."""
        for p in self.mono.minimal_primes():
            d = p.quotient_dim(self.v)
            if lower < d < self.dim:
                return p
        return None

    @cached_property
    def noncat_domain(self):
        self.require_monomial("the noncatenary-domain verdict")
        if not self.domain_completion:
            return False, None, None
        p = self._qualifying_prime(1)
        if p is None:
            return False, None, None
        # the verdict stands on the characterization conditions; the chain
        # witness may leave the monomial subposet, in which case it is
        # reported as unavailable rather than faked
        try:
            chain = construct_chain(self.poset, p)
        except ChainInfeasibleError:
            return True, p, None
        problems = verify_chain(self.poset, chain, p)
        if problems:
            raise AssertionError(f"chain witness failed verification: {problems}")
        return True, p, chain

    @cached_property
    def ufd_completion(self):
        """Field, DVR, or depth > 1; tri-state because the depth search can
        be inconclusive on non-monomial input."""
        if self.is_field_case or self.is_dvr_case:
            return True, None
        d = self.depth
        return d.verdict, d.regular_element

    @cached_property
    def noncat_ufd(self):
        self.require_monomial("the noncatenary-UFD verdict")
        p = self._qualifying_prime(2)
        if p is None:
            return False, None, None
        if not self.depth.verdict:
            return False, p, None
        witness = self.ufd_witness
        if self.dim <= 3:
            raise AssertionError("noncatenary UFD verdict with dim <= 3")
        return True, p, witness

    @cached_property
    def ufd_witness(self):
        """Search for the dimension-one witness prime Q' described in the
        module docstring; None when no qualifying minimal prime exists or
        the certificate search is inconclusive."""
        self.require_monomial("the UFD witness prime")
        p = self._qualifying_prime(2)
        if p is None:
            return None
        try:
            chain = construct_chain(self.poset, p)
        except ChainInfeasibleError:
            return None
        qprime = chain.primes[-2]
        if qprime.quotient_dim(self.v) != 1:
            raise AssertionError("chain's last interior node has dim != 1")
        height = self.poset.height(qprime)
        if not height + 1 < self.dim:
            return None
        second = chain.primes[-3]
        x_elem = self._witness_regular_start(second)
        if x_elem is None:
            return None
        local = self.mono.localize(qprime)
        lhandle = IdealHandle(self.field, local.context,
                              local.to_polynomials(self.field),
                              self.config.gb_step_budget)
        ldepth = lhandle.depth_at_least_two(self.config.regular_candidate_budget)
        if ldepth.verdict is not True:
            return None
        return UfdWitness(qprime, chain, height, x_elem, ldepth)

    def _witness_regular_start(self, inside):
        """The first variable, else the first sum of two variables, of the
        prime `inside` that is regular on T. No cut test is needed: for f
        regular and in Q' (above `inside`), Q' is associated to T/fT
        exactly when depth T_Q' = 1, which the localized depth certificate
        decides."""
        xs = variables(self.field, self.context)
        indices = sorted(inside.indices)
        for cut in itertools.chain(((i,) for i in indices),
                                   itertools.combinations(indices, 2)):
            f = sum((xs[k] for k in cut[1:]), xs[cut[0]])
            if self.mono.is_regular([e for _, e in f.pairs()]):
                return f
        return None

    @cached_property
    def forced_catenary(self):
        """The three forced-catenarity condition bundles: every domain
        completing to T is catenary; every UFD completing to T is
        catenary; T completes both a noncatenary domain and a catenary
        UFD (which needs dim T > 3 and a dim-2 minimal prime)."""
        self.require_monomial("the forced-catenarity verdicts")
        domain_prime = self._qualifying_prime(1)
        domain_forced = (domain_prime is None
                         and not self.handle.maximal_ideal_associated())
        if self._qualifying_prime(2) is not None:
            return domain_forced, False, False
        # no minimal prime has 2 < dim(T/P) < dim T, so a domain-qualifying
        # minimal prime has dim(T/P) = 2
        depth2 = self.depth.verdict
        mixed = depth2 if domain_prime is not None and self.dim > 3 else False
        return domain_forced, depth2, mixed

    @cached_property
    def universally_catenary_obstructed(self):
        """Nonequidimensional T: no domain completing to it can be
        universally catenary."""
        self.require_monomial("the equidimensionality test")
        return len(set(self.profile)) > 1

    @cached_property
    def regularity_at_min(self):
        """Whether T is reduced, which for monomial I means squarefree: the
        quasi-excellence condition in characteristic zero. Reduced is R0
        plus S1 (Serre; Matsumura, Commutative Ring Theory, Thm 23.8), so
        T is regular at its minimal primes and has no embedded prime. An
        embedded Q in Ass T meets any domain A completing to T in (0),
        because T is flat over A; T_Q, of depth 0 and positive dimension,
        is then a non-regular local ring of the generic formal fibre, so no
        such A is quasi-excellent and the answer is false."""
        self.require_monomial("the regularity-at-minimal-primes check")
        if self.field.is_prime_field:
            raise UnsupportedInputError(
                "regularity remark check unavailable in characteristic p")
        return self.mono.is_squarefree

    @cached_property
    def report(self):
        return _report(self)


def _implications(verdicts, dim):
    """The structural implication lattice; violations are internal bugs."""
    checks = []
    if verdicts["noncat_ufd"] is True:
        checks.append(("noncat_ufd implies noncat_domain",
                       verdicts["noncat_domain"] is True))
        checks.append(("noncat_ufd implies not forced_cat_ufd",
                       verdicts["forced_cat_ufd"] is not True))
        checks.append(("noncat_ufd implies dim > 3", dim > 3))
    if verdicts["noncat_domain"] is True:
        checks.append(("noncat_domain implies not forced_cat_domain",
                       verdicts["forced_cat_domain"] is not True))
        checks.append(("noncat_domain implies the universal-catenarity "
                       "obstruction",
                       verdicts["universally_catenary_obstructed"] is True))
    if verdicts["ufd_completion"] is True and dim <= 3:
        checks.append(("ufd completion of dim <= 3 implies not noncat_ufd",
                       verdicts["noncat_ufd"] is not True))
    return [name for name, ok in checks if not ok]


def _report(a):
    """The AnalysisReport of an analysis; every positive verdict carries its
    witness."""
    notes = []
    inconclusive = []

    if a.mono is None:
        semantics = SEMANTICS_UNVERIFIED
        notes.append(
            "completion_semantics: unverified (non-monomial presentation; "
            "primary decomposition may change under completion)")
    else:
        semantics = SEMANTICS_EXACT
    if a.field.is_prime_field:
        notes.append("char_p: regularity remark check unavailable")

    conditions = dict.fromkeys(CONDITION_KEYS)
    verdicts = dict.fromkeys(VERDICT_KEYS)
    conditions["lech_i"] = True  # field coefficients: the prime subring acts
    notes.append("lech_i: satisfied by construction over a field")
    conditions["lech_ii"] = not a.handle.maximal_ideal_associated()
    conditions["depth_ge1"] = conditions["lech_ii"]
    depth = a.depth
    conditions["depth_ge2"] = depth.verdict
    if depth.verdict is None:
        inconclusive.append(f"depth_ge2: {depth.detail}")

    minimal = associated = profile = None
    if a.mono is not None:
        profile = a.profile
        minimal = tuple(
            PrimeSummary(p.names(a.context), p.quotient_dim(a.v), 0)
            for p in a.mono.minimal_primes())
        associated = tuple(p.names(a.context)
                           for p in a.mono.associated_primes())
        conditions["exists_P_domain"] = a._qualifying_prime(1) is not None
        conditions["exists_P_ufd"] = a._qualifying_prime(2) is not None
        conditions["equidimensional"] = not a.universally_catenary_obstructed

    verdicts["domain_completion"] = a.domain_completion
    ufd_ok, _ = a.ufd_completion
    verdicts["ufd_completion"] = ufd_ok

    regular_element = P = chain_names = ufd_witness_prime = None
    if depth.verdict is True:
        regular_element = str(depth.regular_element)
    elif depth.verdict is False and depth.regular_element is not None:
        notes.append(f"depth_ge2 refuted: {depth.detail}")

    if a.mono is None:
        for name in VERDICT_KEYS:
            if name not in ("domain_completion", "ufd_completion"):
                inconclusive.append(
                    f"{name}: unsupported input class (minimal primes are "
                    "not computed for non-monomial ideals)")
    else:
        flag, p, chain = a.noncat_domain
        verdicts["noncat_domain"] = flag
        if flag:
            P = p.names(a.context)
            if chain is None:
                inconclusive.append(
                    "chain witness: no saturated avoidance chain exists "
                    "within the monomial subposet; the verdict stands on "
                    "the characterization conditions")
            else:
                chain_names = tuple(q.names(a.context) for q in chain.primes)
        flag, p, ufd_witness = a.noncat_ufd
        verdicts["noncat_ufd"] = flag
        if flag and ufd_witness is None:
            inconclusive.append(
                "ufd_witness_prime: certificate search inconclusive; the "
                "verdict stands on the characterization conditions")
        if ufd_witness is not None:
            ufd_witness_prime = ufd_witness.prime.names(a.context)
            notes.append(
                "ufd_witness: regular sequence starts with "
                f"{ufd_witness.regular_start}; localized depth certificate "
                f"{ufd_witness.localized_depth.regular_element} at "
                f"{ufd_witness.prime.render(a.context)} "
                f"(height {ufd_witness.height}, dim 1)")
        domain_forced, ufd_forced, mixed = a.forced_catenary
        verdicts["forced_cat_domain"] = domain_forced
        verdicts["forced_cat_ufd"] = ufd_forced
        verdicts["mixed_class"] = mixed
        verdicts["universally_catenary_obstructed"] = (
            a.universally_catenary_obstructed)
        try:
            verdicts["regularity_at_min"] = a.regularity_at_min
        except UnsupportedInputError as exc:
            inconclusive.append(f"regularity_at_min: unsupported ({exc})")

    problems = _implications(verdicts, a.dim)
    if problems:
        raise AssertionError(f"implication lattice violated: {problems}")

    return AnalysisReport(
        ring=a.ring,
        dim=a.dim,
        semantics=semantics,
        minimal_primes=minimal,
        associated_primes=associated,
        profile=profile,
        conditions=conditions,
        verdicts=verdicts,
        witnesses=Witnesses(P, chain_names, regular_element,
                            ufd_witness_prime),
        inconclusive=tuple(inconclusive),
        notes=tuple(notes),
    )


def analyze(ring, config=None):
    """Full classification of the ring presentation; returns an
    AnalysisReport whose every positive verdict carries its witness."""
    return _Analysis.from_presentation(ring, config).report


# -- standalone checkers (thin wrappers over the shared analysis state) --

def check_domain_completion(ring, config=None):
    return _Analysis.from_presentation(ring, config).domain_completion


def check_noncat_domain(ring, config=None):
    """(flag, witness prime, witness chain)."""
    return _Analysis.from_presentation(ring, config).noncat_domain


def check_ufd_completion(ring, config=None):
    """(verdict, depth certificate); the verdict is None only when the
    depth search on non-monomial input is inconclusive."""
    return _Analysis.from_presentation(ring, config).ufd_completion


def check_noncat_ufd(ring, config=None):
    """(verdict, qualifying prime, UfdWitness or None). Monomial input
    only, where depth is always decided, so the verdict is a bool."""
    return _Analysis.from_presentation(ring, config).noncat_ufd


def find_ufd_witness_prime(ring, config=None):
    """The dimension-one witness prime search; None when no minimal prime
    qualifies or the search is inconclusive."""
    return _Analysis.from_presentation(ring, config).ufd_witness


def check_forced_catenary(ring, config=None):
    """(domain_forced, ufd_forced, mixed)."""
    return _Analysis.from_presentation(ring, config).forced_catenary


def check_universal_catenarity_obstruction(ring, config=None):
    return _Analysis.from_presentation(ring, config).universally_catenary_obstructed


def check_regularity_at_min(ring, config=None):
    return _Analysis.from_presentation(ring, config).regularity_at_min
