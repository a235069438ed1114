"""Classify complete local rings K[[x1..xv]]/I by which local domains and
unique factorization domains can have them as completions, with checkable
witnesses: minimal and associated primes, noncatenarity profiles, depth
certificates and saturated avoidance chains."""

from .analyzer import AnalysisConfig, AnalysisReport, analyze
from .dsl import parse_script, render_script
from .errors import (
    BudgetExceededError,
    ChainInfeasibleError,
    ContextMismatchError,
    DegenerateInputError,
    EmptyLocalizationError,
    FamilyParameterError,
    NoncatError,
    ParseError,
    UnitIdealError,
    UnsupportedInputError,
)
from .families import FamilySpec, expected_mismatches, instantiate
from .groebner import DepthResult, IdealHandle, buchberger, s_polynomial
from .monomial import MonomialIdeal, MonomialPrime
from .poly import (
    GREVLEX,
    FieldDescriptor,
    Polynomial,
    RingPresentation,
    VariableContext,
    divide,
    variables,
)
from .spectra import (
    build_poset,
    chain_dot,
    construct_chain,
    noncat_profile,
    poset_dot,
    verify_chain,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig", "AnalysisReport", "analyze",
    "parse_script", "render_script",
    "BudgetExceededError", "ChainInfeasibleError", "ContextMismatchError",
    "DegenerateInputError", "EmptyLocalizationError", "FamilyParameterError",
    "NoncatError", "ParseError", "UnitIdealError", "UnsupportedInputError",
    "FamilySpec", "expected_mismatches", "instantiate",
    "DepthResult", "IdealHandle", "buchberger", "s_polynomial",
    "MonomialIdeal", "MonomialPrime",
    "GREVLEX", "FieldDescriptor", "Polynomial", "RingPresentation",
    "VariableContext", "divide", "variables",
    "build_poset", "chain_dot", "construct_chain", "noncat_profile",
    "poset_dot", "verify_chain",
]
