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

`analyze` is the one entry point. It gathers the facts these conditions
read into one record (_Facts), decides every verdict from it in one pure
function (_verdicts), then attaches witnesses to the true verdicts: the
qualifying minimal prime, a saturated avoidance chain from it, a depth
certificate, and a dimension-one prime with small height and localized
depth > 1. Each verdict is True, False or None; a None verdict reads a
fact no engine supplies, and the report's `inconclusive` gives the reason.
Witness searches and the chain command share one verified chain per prime.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import ChainInfeasibleError, UnitIdealError, UnsupportedInputError
from .groebner import (
    DEFAULT_REGULAR_CANDIDATE_BUDGET,
    DepthResult,
    IdealHandle,
    regular_element_candidates,
    variable_sum,
)
from .poly import DEFAULT_GB_STEP_BUDGET, RingPresentation, _Value
from .spectra import construct_chain, noncat_profile, verify_chain

SEMANTICS_EXACT = "monomial-exact"
SEMANTICS_UNVERIFIED = "unverified-completion"

CONDITION_KEYS = ("lech_i", "lech_ii", "depth_ge1", "depth_ge2",
                  "exists_P_domain", "exists_P_ufd", "equidimensional")
VERDICT_KEYS = ("domain_completion", "noncat_domain", "ufd_completion",
                "noncat_ufd", "forced_cat_domain", "forced_cat_ufd",
                "mixed_class", "universally_catenary_obstructed",
                "regularity_at_min")

# the report keys that read each fact, in the order of `inconclusive`
_READERS = {"dim": ("dim",), "depth2": ("depth_ge2",), "profile": (
    "noncat_domain", "noncat_ufd", "forced_cat_domain", "forced_cat_ufd",
    "mixed_class", "universally_catenary_obstructed"),
    "reduced": ("regularity_at_min",)}
_NO_MIN = ("unsupported input class (minimal primes are not computed for "
           "non-monomial ideals)")
_NO_LOCAL_DIM = ("unsupported input class (the local dimension is only "
                 "computed for monomial or homogeneous ideals)")
_CHAR_P = ("unsupported (regularity remark check unavailable in "
           "characteristic p)")


class AnalysisConfig(_Value):
    """The work budgets of an analysis, each an int >= 0: reduction steps
    per Groebner computation, and regular-element candidates tried by the
    depth search. The step budget bounds each computation on its own, each
    Buchberger run, linear meet and division, not the analysis as a
    whole."""

    __slots__ = ("gb_step_budget", "regular_candidate_budget")

    def __init__(self, gb_step_budget=DEFAULT_GB_STEP_BUDGET,
                 regular_candidate_budget=DEFAULT_REGULAR_CANDIDATE_BUDGET):
        for name, value in (("gb_step_budget", gb_step_budget),
                            ("regular_candidate_budget",
                             regular_candidate_budget)):
            if type(value) is not int or value < 0:
                raise ValueError(
                    f"{name} must be an integer >= 0, got {value!r}")
        self.gb_step_budget = gb_step_budget
        self.regular_candidate_budget = regular_candidate_budget


class PrimeSummary(_Value):
    __slots__ = ("gens", "dim", "height")

    def __init__(self, gens, dim, height):
        self.gens = gens
        self.dim = dim
        self.height = height


class Witnesses(_Value):
    __slots__ = ("P", "chain", "regular_element", "ufd_witness_prime")

    def __init__(self, P=None, chain=None, regular_element=None,
                 ufd_witness_prime=None):
        self.P = P
        self.chain = chain
        self.regular_element = regular_element
        self.ufd_witness_prime = ufd_witness_prime


class UfdWitness(_Value):
    """A dimension-one prime Q' with height(Q') + 1 < dim T, reached as the
    last interior node of an avoidance chain, together with a regular
    element inside the chain's second-to-last node and a certificate that
    the localization at Q' has depth > 1."""

    __slots__ = ("prime", "height", "regular_start", "localized_depth")

    def __init__(self, prime, height, regular_start, localized_depth):
        self.prime = prime  # a MonomialPrime
        self.height = height
        self.regular_start = regular_start  # a Polynomial
        self.localized_depth = localized_depth  # a DepthResult


class AnalysisReport(_Value):
    __slots__ = ("ring", "dim", "semantics", "minimal_primes",
                 "associated_primes", "profile", "conditions", "verdicts",
                 "witnesses", "inconclusive", "notes")

    def __init__(self, ring, dim, semantics, minimal_primes,
                 associated_primes, profile, conditions, verdicts, witnesses,
                 inconclusive, notes):
        self.ring = ring
        self.dim = dim
        self.semantics = semantics
        self.minimal_primes = minimal_primes
        self.associated_primes = associated_primes
        self.profile = profile
        self.conditions = conditions
        self.verdicts = verdicts
        self.witnesses = witnesses
        self.inconclusive = inconclusive
        self.notes = notes

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


class _Facts(_Value):
    """The facts the verdict table reads, each local to the origin. A fact
    that no engine supplies is None, and `missing` maps its name
    ("dim", "depth2", "profile" or "reduced") to the reason."""

    __slots__ = ("dim", "m_assoc", "depth2", "carve_out", "profile",
                 "reduced", "missing")

    def __init__(self, dim, m_assoc, depth2, carve_out, profile, reduced,
                 missing):
        self.dim = dim
        self.m_assoc = m_assoc
        self.depth2 = depth2
        # "field" or "dvr": T is regular of dim <= 1
        self.carve_out = carve_out
        # dim(T/P) over the minimal primes P
        self.profile = profile
        # decides regularity_at_min in characteristic 0
        self.reduced = reduced
        self.missing = missing


def _verdicts(facts):
    """The paper's table: (conditions, verdicts, inconclusive) from the
    facts alone. A value that reads a missing fact is None, and
    `inconclusive` holds the reason under its key (a missing depth only
    under depth_ge2); a missing dim comes with a missing profile."""
    lech_ii = not facts.m_assoc
    domain = facts.carve_out == "field" or lech_ii
    ufd = True if facts.carve_out else facts.depth2
    conditions = dict.fromkeys(CONDITION_KEYS)
    conditions.update(lech_i=True, lech_ii=lech_ii, depth_ge1=lech_ii,
                      depth_ge2=facts.depth2)
    verdicts = dict.fromkeys(VERDICT_KEYS)
    verdicts.update(domain_completion=domain, ufd_completion=ufd,
                    regularity_at_min=facts.reduced)
    inconclusive = {key: f"{key}: {facts.missing[fact]}"
                    for fact, keys in _READERS.items()
                    if fact in facts.missing for key in keys}
    profile, dim = facts.profile, facts.dim
    if profile is not None:
        domain_p = any(1 < d < dim for d in profile)
        ufd_p = any(2 < d < dim for d in profile)
        equidimensional = len(set(profile)) == 1
        conditions.update(exists_P_domain=domain_p, exists_P_ufd=ufd_p,
                          equidimensional=equidimensional)
        verdicts.update(
            noncat_domain=domain and domain_p,
            noncat_ufd=ufd_p and ufd,
            forced_cat_domain=domain and not domain_p,
            forced_cat_ufd=not ufd_p and ufd,
            # with no UFD-qualifying prime a domain-qualifying one has
            # dim(T/P) = 2, and the catenary UFD needs dim T > 3
            mixed_class=not ufd_p and domain_p and dim > 3 and ufd,
            universally_catenary_obstructed=not equidimensional)
    return conditions, verdicts, inconclusive


def monomial_depth(field, mono, candidate_budget):
    """Depth >= 2 of a monomial I from the monomial engine, certified by the
    first regular candidate in the budget, else the sum of all variables."""
    if mono.maximal_ideal_associated():
        return DepthResult(False, None,
                           "depth 0: the maximal ideal is associated")
    v = mono.context.count
    support = next((s for s in itertools.islice(
        regular_element_candidates(v), candidate_budget)
        if mono.is_regular(s)), tuple(range(v)))
    return DepthResult.certified(variable_sum(field, mono.context, support),
                                 mono.depth_at_least_two())


class _Analysis:
    """One ideal's analysis in three steps, each computed at most once: the
    facts the verdict table reads, the table, and the witnesses of its true
    verdicts, whose chains read the monomial engine's Min and Ass. Each fact
    has one engine, picked here: the monomial engine for monomial I, the
    Groebner engine (the handle) for any other. The handle caches the
    basis and the socle test, the monomial ideal its decomposition. The CLI
    keeps one analysis per presented ring, so all its commands on that
    ring share the work; the spectrum poset is walked only to be
    rendered."""

    def __init__(self, handle, config):
        if any(not any(e) for g in handle.generators for _, e in g.pairs()):
            raise UnitIdealError(
                "the ideal is not inside the maximal ideal: a generator with "
                "a nonzero constant term is a unit in K[[x]], so T = 0")
        self.handle = handle
        self.config = config
        self.context = handle.context
        self.field = handle.field
        self.v = handle.context.count
        self.mono = handle.monomial_ideal()
        self.ring = RingPresentation(handle.field, handle.context,
                                     handle.generators).render()
        self._chains = {}  # start prime -> its chain or ChainInfeasibleError

    @classmethod
    def from_presentation(cls, ring, config=None):
        config = config or AnalysisConfig()
        return cls(IdealHandle.from_presentation(ring, config.gb_step_budget),
                   config)

    @cached_property
    def depth(self):
        budget = self.config.regular_candidate_budget
        if self.mono is None:
            return self.handle.depth_at_least_two(budget)
        return monomial_depth(self.field, self.mono, budget)

    def require_monomial(self, what):
        """The monomial ideal, for what needs its minimal primes."""
        if self.mono is None:
            raise UnsupportedInputError(
                f"{what} needs minimal primes, which are only computed for "
                "monomial ideals")
        return self.mono

    @cached_property
    def facts(self):
        """T is a field when its embedding dimension is 0 and a DVR when it
        is 1 and M is not associated; either is a domain of dimension edim.
        Otherwise the monomial engine supplies the profile and whether T is
        reduced (I squarefree), which decides regularity_at_min in
        characteristic zero (README, "Scope and semantics"). Other I gets
        dim only when homogeneous, where the global dim is the local one.
        An exhausted depth search is refuted when dim T <= 1, since
        depth <= dim T/P for every associated P (Bruns-Herzog 1.2.13)."""
        handle, mono = self.handle, self.mono
        m_assoc = (handle.maximal_ideal_associated() if mono is None
                   else mono.maximal_ideal_associated())
        edim = handle.embedding_dimension()
        missing = {}
        carve_out = ("field" if edim == 0
                     else "dvr" if edim == 1 and not m_assoc else None)
        profile = reduced = None
        if carve_out:
            dim, profile, reduced = edim, (edim,), True
        elif mono is not None:
            dim, profile = mono.dimension(), noncat_profile(mono)
            reduced = mono.is_squarefree
        else:
            dim = handle.krull_dimension() if handle.is_homogeneous else None
            missing["profile"] = missing["reduced"] = _NO_MIN
            if dim is None:
                missing["dim"] = _NO_LOCAL_DIM
        depth2 = self.depth.verdict
        if depth2 is None and dim is not None and dim <= 1:
            depth2 = False
        elif depth2 is None:
            missing["depth2"] = self.depth.detail
        if reduced is not None and self.field.is_prime_field:
            reduced, missing["reduced"] = None, _CHAR_P
        return _Facts(dim, m_assoc, depth2, carve_out, profile, reduced,
                      missing)

    @cached_property
    def table(self):
        return _verdicts(self.facts)

    @cached_property
    def _qualifying_prime(self):
        """First minimal prime (canonical order) with dim(T/P) < dim T, or
        None. Min is sorted by size, so this P has the largest dim(T/P)
        below dim T: the domain witness needs it above 1, the UFD witness
        above 2, and no other prime can serve either when it does not."""
        return next((p for p in self.mono.minimal_primes()
                     if p.quotient_dim(self.v) < self.facts.dim), None)

    def chain(self, p):
        """The avoidance chain from the minimal prime p, or the error that
        it leaves the monomial subposet; built and verified once per prime,
        for both witness searches and the CLI's chain command."""
        if p not in self._chains:
            try:
                chain = construct_chain(self.mono, p)
            except ChainInfeasibleError as exc:
                chain = exc
            else:
                problems = verify_chain(self.mono, chain, p)
                if problems:
                    raise AssertionError(
                        f"chain witness failed verification: {problems}")
            self._chains[p] = chain
        return self._chains[p]

    @cached_property
    def noncat_domain(self):
        """(P, chain) on a true noncat_domain verdict, else (None, None).
        The chain is None when it leaves the monomial subposet, rather
        than faked; the verdict stands on the characterization
        conditions."""
        if not self.table[1]["noncat_domain"]:
            return None, None
        p = self._qualifying_prime
        chain = self.chain(p)
        return p, None if isinstance(chain, ChainInfeasibleError) else chain

    @cached_property
    def ufd_search(self):
        """The UfdWitness of the qualifying prime P, the domain witness's,
        when 2 < dim(T/P), whatever the depth: the prime Q' of the module
        docstring, reached by the avoidance chain from P. None when no
        minimal prime qualifies or the search is inconclusive. Every
        interior chain node has P as its only minimal prime, so
        height(Q') = |Q'| - |P| = dim(T/P) - 1 < dim T - 1."""
        p = self._qualifying_prime
        if p is None or p.quotient_dim(self.v) <= 2:
            return None
        chain = self.chain(p)
        if isinstance(chain, ChainInfeasibleError):
            return None
        qprime = chain[-2]
        if qprime.quotient_dim(self.v) != 1:
            raise AssertionError("chain's last interior node has dim != 1")
        x_elem = self._witness_regular_start(chain[-3])
        if x_elem is None:
            return None
        ldepth = monomial_depth(self.field, self.mono.localize(qprime),
                                self.config.regular_candidate_budget)
        if ldepth.verdict is not True:
            return None
        height = qprime.mask.bit_count() - p.mask.bit_count()
        return UfdWitness(qprime, height, x_elem, ldepth)

    def _witness_regular_start(self, inside):
        """The first variable, else the first sum of two variables, of the
        prime `inside` that is regular on T. No cut test is needed: for f
        regular and in Q' (above `inside`), Q' is associated to T/fT
        exactly when depth T_Q' = 1, which the localized depth certificate
        decides."""
        support = next((s for size in (1, 2) for s in
                        itertools.combinations(inside.support, size)
                        if self.mono.is_regular(s)), None)
        return (None if support is None
                else variable_sum(self.field, self.context, support))

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
    if verdicts["ufd_completion"] is True and dim is not None and dim <= 3:
        checks.append(("ufd completion of dim <= 3 implies not noncat_ufd",
                       verdicts["noncat_ufd"] is not True))
    return [name for name, ok in checks if not ok]


def _report(a):
    """The AnalysisReport of an analysis: the table's verdicts, with a
    witness attached to every true one."""
    conditions, verdicts, entries = a.table
    entries = dict(entries)
    notes = []
    minimal = associated = None
    if a.mono is not None:
        minimal = tuple(
            PrimeSummary(p.names(a.context), p.quotient_dim(a.v), 0)
            for p in a.mono.minimal_primes())
        associated = tuple(p.names(a.context)
                           for p in a.mono.associated_primes())
    if a.field.is_prime_field:
        notes.append("char_p: regularity remark check unavailable")
    notes.append("lech_i: satisfied by construction over a field")

    depth = a.depth
    regular_element = P = chain_names = ufd_witness_prime = None
    if depth.verdict is True:
        regular_element = str(depth.regular_element)
    elif depth.verdict is False and depth.regular_element is not None:
        notes.append(f"depth_ge2 refuted: {depth.detail}")
    elif depth.verdict is None and a.facts.depth2 is False:
        notes.append(f"depth_ge2 refuted: dim T = {a.facts.dim}, and "
                     "depth T <= dim T/P for every associated P")

    if verdicts["noncat_domain"]:
        p, chain = a.noncat_domain
        P = p.names(a.context)
        if chain is None:
            entries["noncat_domain"] = (
                "chain witness: no saturated avoidance chain exists "
                "within the monomial subposet; the verdict stands on "
                "the characterization conditions")
        else:
            chain_names = tuple(q.names(a.context) for q in chain)
    if verdicts["noncat_ufd"]:
        ufd_witness = a.ufd_search
        if ufd_witness is None:
            entries["noncat_ufd"] = (
                "ufd_witness_prime: certificate search inconclusive; the "
                "verdict stands on the characterization conditions")
        else:
            ufd_witness_prime = ufd_witness.prime.names(a.context)
            notes.append(
                "ufd_witness: regular sequence starts with "
                f"{ufd_witness.regular_start}; localized depth certificate "
                f"{ufd_witness.localized_depth.regular_element} at "
                f"{ufd_witness.prime.render(a.context)} "
                f"(height {ufd_witness.height}, dim 1)")

    problems = _implications(verdicts, a.facts.dim)
    if problems:
        raise AssertionError(f"implication lattice violated: {problems}")

    return AnalysisReport(
        ring=a.ring,
        dim=a.facts.dim,
        # the char-p regularity remark is not a fact of T
        semantics=(SEMANTICS_EXACT if set(a.facts.missing) <= {"reduced"}
                   else SEMANTICS_UNVERIFIED),
        minimal_primes=minimal,
        associated_primes=associated,
        profile=a.facts.profile,
        conditions=conditions,
        verdicts=verdicts,
        witnesses=Witnesses(P, chain_names, regular_element,
                            ufd_witness_prime),
        inconclusive=tuple(entries[k] for k in
                           ("dim", "depth_ge2") + VERDICT_KEYS
                           if k in entries),
        notes=tuple(notes),
    )


def analyze(ring, config=None):
    """Full classification of the ring presentation; returns an
    AnalysisReport whose every positive verdict carries its witness."""
    return _Analysis.from_presentation(ring, config).report
