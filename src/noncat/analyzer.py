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
from .monomial import MonomialIdeal, MonomialPrime
from .poly import DEFAULT_GB_STEP_BUDGET, Polynomial
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
    """Shared computation state for one ring; every fact is computed at
    most once."""

    def __init__(self, ring, config=None):
        self.ring = ring
        self.config = config or AnalysisConfig()
        self.handle = IdealHandle.from_presentation(
            ring, self.config.gb_step_budget)
        if self.handle.is_unit_ideal:
            raise UnitIdealError("the unit ideal does not present a ring")
        self.context = ring.context
        self.field = ring.field
        self.v = ring.context.count
        self.mono = self.handle.monomial_ideal()

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
        self.require_monomial("spectrum poset")
        return build_poset(self.mono)

    def require_monomial(self, what):
        if self.mono is None:
            raise UnsupportedInputError(
                f"{what} needs minimal primes, which are only computed for "
                "monomial ideals")

    @cached_property
    def profile(self):
        self.require_monomial("noncatenarity profile")
        return noncat_profile(self.mono)

    # -- the individual checkers --

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

    def noncat_domain(self):
        self.require_monomial("the noncatenary-domain verdict")
        if not self.domain_completion():
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

    def ufd_completion(self):
        """Field, DVR, or depth > 1; tri-state because the depth search can
        be inconclusive."""
        if self.is_field_case or self.is_dvr_case:
            return True, None
        d = self.depth
        return d.verdict, d.regular_element

    def noncat_ufd(self):
        self.require_monomial("the noncatenary-UFD verdict")
        p = self._qualifying_prime(2)
        if p is None:
            return False, None, None
        verdict = self.depth.verdict
        if verdict is None:
            return None, p, None
        if not verdict:
            return False, p, None
        witness = self.ufd_witness()
        if self.dim <= 3:
            raise AssertionError("noncatenary UFD verdict with dim <= 3")
        return True, p, witness

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
        x_elem = self._witness_regular_start(second, qprime)
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

    def _witness_regular_start(self, inside, avoid):
        """A regular element f inside the prime `inside` such that `avoid`
        stays unassociated after cutting by f: a variable whose cut leaves
        `avoid` out of Ass, else a sum of two variables whose cut has no
        associated prime containing `avoid`. Both tests run on the
        monomial cut (MonomialIdeal.cut), which fixes `avoid` because
        `avoid` contains `inside`."""
        indices = sorted(inside.indices)
        unit = [tuple(1 if j == i else 0 for j in range(self.v))
                for i in range(self.v)]
        for i in indices:
            if (self.mono.is_regular([unit[i]])
                    and avoid not in self.mono.cut([i]).associated_primes()):
                return Polynomial.variable(self.field, self.context, i)
        for pair in itertools.combinations(indices, 2):
            if not self.mono.is_regular([unit[k] for k in pair]):
                continue
            ass = self.mono.cut(pair).associated_primes()
            if not any(q.contains(avoid) for q in ass):
                i, j = pair
                return (Polynomial.variable(self.field, self.context, i)
                        + Polynomial.variable(self.field, self.context, j))
        return None

    def forced_catenary(self):
        """The three forced-catenarity condition bundles: every domain
        completing to T is catenary; every UFD completing to T is
        catenary; T completes both a noncatenary domain and a catenary
        UFD (which needs dim T > 3 and a dim-2 minimal prime)."""
        self.require_monomial("the forced-catenarity verdicts")
        profile = self.profile
        dims_domain_ok = all(d <= 1 or d == self.dim for d in profile)
        dims_ufd_ok = all(d <= 2 or d == self.dim for d in profile)
        has_dim2 = any(d == 2 for d in profile)
        depth1 = not self.handle.maximal_ideal_associated()
        depth2 = self.depth.verdict
        domain_forced = depth1 and dims_domain_ok
        ufd_forced = depth2 if dims_ufd_ok else False
        mixed = depth2 if (dims_ufd_ok and has_dim2 and self.dim > 3) else False
        return domain_forced, ufd_forced, mixed

    def universally_catenary_obstructed(self):
        """Nonequidimensional T: no domain completing to it can be
        universally catenary."""
        self.require_monomial("the equidimensionality test")
        return len(set(self.profile)) > 1

    def regularity_at_min(self):
        """Sufficient quasi-excellence check: requires characteristic zero
        and no embedded primes; true when each minimal prime's primary
        component is the prime itself, so each localization there is
        regular."""
        self.require_monomial("the regularity-at-minimal-primes check")
        if self.field.is_prime_field:
            raise UnsupportedInputError(
                "regularity remark check unavailable in characteristic p")
        mins = self.mono.minimal_primes()
        ass = self.mono.associated_primes()
        if set(ass) != set(mins):
            raise UnsupportedInputError(
                "embedded primes present; the regularity check only covers "
                "ideals with Ass = Min")
        for p in mins:
            if p.indices:
                prime_ideal = MonomialIdeal(
                    self.context,
                    (tuple(1 if j == i else 0 for j in range(self.v))
                     for i in p.indices))
            else:
                prime_ideal = MonomialIdeal(self.context, ())
            if self.mono.primary_component(p) != prime_ideal:
                return False
        return True


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


def analyze(ring, config=None):
    """Full classification of the ring presentation; returns an
    AnalysisReport whose every positive verdict carries its witness."""
    a = _Analysis(ring, config)
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
        conditions["exists_P_domain"] = any(1 < d < a.dim for d in profile)
        conditions["exists_P_ufd"] = any(2 < d < a.dim for d in profile)
        conditions["equidimensional"] = len(set(profile)) == 1

    verdicts["domain_completion"] = a.domain_completion()
    ufd_ok, _ = a.ufd_completion()
    verdicts["ufd_completion"] = ufd_ok

    if depth.verdict is True:
        witnesses = Witnesses(regular_element=str(depth.regular_element))
    else:
        witnesses = Witnesses()
        if depth.verdict is False and depth.regular_element is not None:
            notes.append(f"depth_ge2 refuted: {depth.detail}")

    if a.mono is None:
        for name in ("noncat_domain", "noncat_ufd", "forced_cat_domain",
                     "forced_cat_ufd", "mixed_class",
                     "universally_catenary_obstructed", "regularity_at_min"):
            inconclusive.append(
                f"{name}: unsupported input class (minimal primes are not "
                "computed for non-monomial ideals)")
    else:
        flag, p, chain = a.noncat_domain()
        verdicts["noncat_domain"] = flag
        if flag:
            witnesses = Witnesses(
                P=p.names(a.context),
                chain=None if chain is None else tuple(
                    q.names(a.context) for q in chain.primes),
                regular_element=witnesses.regular_element)
            if chain is None:
                inconclusive.append(
                    "chain witness: no saturated avoidance chain exists "
                    "within the monomial subposet; the verdict stands on "
                    "the characterization conditions")
        flag, p, ufd_witness = a.noncat_ufd()
        verdicts["noncat_ufd"] = flag
        if flag is None:
            inconclusive.append(
                "noncat_ufd: depth search inconclusive; the verdict is "
                "neither claimed nor denied")
        if flag and ufd_witness is None:
            inconclusive.append(
                "ufd_witness_prime: certificate search inconclusive; the "
                "verdict stands on the characterization conditions")
        if ufd_witness is not None:
            witnesses = Witnesses(
                P=witnesses.P,
                chain=witnesses.chain,
                regular_element=witnesses.regular_element,
                ufd_witness_prime=ufd_witness.prime.names(a.context))
            notes.append(
                "ufd_witness: regular sequence starts with "
                f"{ufd_witness.regular_start}; localized depth certificate "
                f"{ufd_witness.localized_depth.regular_element} at "
                f"{ufd_witness.prime.render(a.context)} "
                f"(height {ufd_witness.height}, dim 1)")
        domain_forced, ufd_forced, mixed = a.forced_catenary()
        verdicts["forced_cat_domain"] = domain_forced
        verdicts["forced_cat_ufd"] = ufd_forced
        verdicts["mixed_class"] = mixed
        if ufd_forced is None:
            inconclusive.append(
                "forced_cat_ufd: depth search inconclusive")
        if mixed is None:
            inconclusive.append("mixed_class: depth search inconclusive")
        verdicts["universally_catenary_obstructed"] = (
            a.universally_catenary_obstructed())
        try:
            verdicts["regularity_at_min"] = a.regularity_at_min()
        except UnsupportedInputError as exc:
            inconclusive.append(f"regularity_at_min: unsupported ({exc})")

    problems = _implications(verdicts, a.dim)
    if problems:
        raise AssertionError(f"implication lattice violated: {problems}")

    return AnalysisReport(
        ring=a.ring.render(),
        dim=a.dim,
        semantics=semantics,
        minimal_primes=minimal,
        associated_primes=associated,
        profile=profile,
        conditions=conditions,
        verdicts=verdicts,
        witnesses=witnesses,
        inconclusive=tuple(inconclusive),
        notes=tuple(notes),
    )


# -- standalone checkers (thin wrappers over the shared analysis state) --

def check_domain_completion(ring, config=None):
    return _Analysis(ring, config).domain_completion()


def check_noncat_domain(ring, config=None):
    """(flag, witness prime, witness chain)."""
    return _Analysis(ring, config).noncat_domain()


def check_ufd_completion(ring, config=None):
    """(verdict or None when inconclusive, depth certificate)."""
    return _Analysis(ring, config).ufd_completion()


def check_noncat_ufd(ring, config=None):
    """(verdict or None, qualifying prime, UfdWitness or None)."""
    return _Analysis(ring, config).noncat_ufd()


def find_ufd_witness_prime(ring, config=None):
    """The dimension-one witness prime search; None when no minimal prime
    qualifies or the search is inconclusive."""
    return _Analysis(ring, config).ufd_witness()


def check_forced_catenary(ring, config=None):
    """(domain_forced, ufd_forced, mixed)."""
    return _Analysis(ring, config).forced_catenary()


def check_universal_catenarity_obstruction(ring, config=None):
    return _Analysis(ring, config).universally_catenary_obstructed()


def check_regularity_at_min(ring, config=None):
    return _Analysis(ring, config).regularity_at_min()
