"""Exception types shared across the package."""


class NoncatError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(NoncatError):
    """Operands live in different variable contexts or coefficient fields."""


class BudgetExceededError(NoncatError):
    """A configured resource budget (Groebner steps, poset size) ran out."""


class DegenerateInputError(NoncatError):
    """Input violates an operation precondition, e.g. a regularity test on
    an element that already lies in the ideal."""


class UnitIdealError(NoncatError):
    """The unit ideal was supplied where a proper ideal is required."""


class UnsupportedInputError(NoncatError):
    """The input class is outside what the requested analysis supports."""


class EmptyLocalizationError(NoncatError):
    """Localization at a prime that contains no minimal prime of the ideal."""


class ChainInfeasibleError(NoncatError):
    """Saturated-chain construction found no eligible extension at a step."""


class FamilyParameterError(NoncatError):
    """Family parameters violate the family's defining inequalities."""


class ParseError(NoncatError):
    """Script error carrying position, error class and expected tokens."""

    def __init__(self, message, line, column, code="syntax", expected=()):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.code = code  # "lexical" | "syntax" | "semantic"
        self.expected = frozenset(expected)
