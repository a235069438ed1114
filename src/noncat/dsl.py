"""The input script language: ring and ideal declarations followed by
commands, parsed by a one-pass lexer and a recursive-descent parser.

    ring  := "ring" ("Q" | "F" INT) "[" IDENT ("," IDENT)* "]"
    ideal := "ideal" IDENT "=" expr
    expr  := "(" poly ("," poly)* ")" | "intersect" "(" expr "," expr ")"
             | IDENT
    poly  := signed sum of terms; term := coeff? ("*"? IDENT ("^" INT)?)*
    cmd   := ("analyze" | "profile" | "poset") IDENT
             | "chain" IDENT "from" "(" IDENT ("," IDENT)* ")"
             | "family" NAME ("(" INT ("," INT)* ")")?

"#" starts a comment running to the end of the line. The lexer scans each
line once with one pattern of named groups (ASCII identifier, integer,
punctuation, or a lexical error at any other non-space character), and
the group that matched names the token's kind. Errors carry line, column,
an error class (lexical, syntax or semantic) and the expected token set.
A script parses into the tuple of its resolved statements: each polynomial
is built once against the active ring, each of the four commands is one
Command record, and a family statement is its FamilySpec. render_script
emits canonical text that reparses to an equal tuple.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FamilyParameterError, ParseError
from .families import FAMILY_KINDS, FamilySpec
from .poly import FieldDescriptor, Polynomial, VariableContext, _Value

# no group around the alternatives, or lastgroup would name none of them
_SCAN = re.compile(r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
                   r"|(?P<punct>[()\[\],=+\-*^/])|(?P<bad>\S)")


class Token(_Value):
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind  # "ident" | "int" | punctuation text | "eof"
        self.text = text
        self.line = line
        self.column = column


def _lex(text):
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        for m in _SCAN.finditer(raw.partition("#")[0]):
            kind, tok = m.lastgroup, m.group()
            if kind == "bad":
                raise ParseError(f"unexpected character {tok!r}",
                                 lineno, m.start() + 1, code="lexical")
            tokens.append(Token(tok if kind == "punct" else kind, tok,
                                lineno, m.start() + 1))
    tokens.append(Token("eof", "", text.count("\n") + 1, 1))
    return tokens


# -- script model --

class RingStmt(_Value):
    __slots__ = ("field", "names")

    def __init__(self, field, names):
        self.field = field
        self.names = names


class GenList(_Value):
    __slots__ = ("polys",)

    def __init__(self, polys):
        self.polys = polys


class Intersect(_Value):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Ref(_Value):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class IdealStmt(_Value):
    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr


class Command(_Value):
    """A command on a declared ideal: `verb` is analyze, profile, poset or
    chain, and `start` names the variables of a chain's start prime (empty
    for the other verbs)."""

    __slots__ = ("verb", "ideal", "start")

    def __init__(self, verb, ideal, start=()):
        self.verb = verb
        self.ideal = ideal
        self.start = start


_VERBS = ("analyze", "profile", "poset", "chain")
_STATEMENTS = frozenset({"ring", "ideal", "family", *_VERBS})
KEYWORDS = _STATEMENTS | {"intersect", "from"}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.field = None
        self.context = None
        self.ideal_contexts = {}

    # -- token plumbing --

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None, code="syntax", expected=()):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column,
                         code=code, expected=expected)

    def expect(self, kind, expected_label=None):
        tok = self.peek()
        if tok.kind != kind:
            label = expected_label or kind
            self.error(f"expected {label}, found {tok.text or 'end of input'!r}",
                       expected={label})
        return self.advance()

    def accept(self, kind):
        return self.advance() if self.peek().kind == kind else None

    def ident(self, role="identifier"):
        tok = self.expect("ident", role)
        if tok.text in KEYWORDS:
            self.error(f"{tok.text!r} is a reserved word and cannot name a "
                       f"{role}", tok, code="semantic")
        return tok

    def comma_list(self, item, close):
        """item ("," item)* close: the items as a tuple."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(close)
        return tuple(items)

    def variables(self, close, context=None):
        """Distinct variable names (of `context`, if given) up to `close`;
        a repeated name is reported where it repeats, once the list ends."""
        def variable():
            tok = self.ident("variable")
            if context is not None and tok.text not in context:
                self.error(f"unknown variable {tok.text!r}", tok,
                           code="semantic")
            return tok

        toks = self.comma_list(variable, close)
        names = tuple(tok.text for tok in toks)
        for i, tok in enumerate(toks):
            if tok.text in names[:i]:
                self.error("duplicate variable name", tok, code="semantic")
        return names

    # -- grammar --

    def parse_script(self):
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return tuple(statements)

    def parse_statement(self):
        tok = self.peek()
        word = tok.text if tok.kind == "ident" else None
        if word == "ring":
            return self.parse_ring()
        if word == "ideal":
            return self.parse_ideal()
        if word == "chain":
            return self.parse_chain()
        if word in _VERBS:
            self.advance()
            return Command(word, self.require_ideal_name())
        if word == "family":
            return self.parse_family()
        self.error(f"unknown statement {word!r}" if tok.kind == "ident" else
                   f"expected a statement, found {tok.text!r}",
                   expected=_STATEMENTS)

    def parse_ring(self):
        self.advance()
        tok = self.expect("ident", "field (Q or F p)")
        if tok.text == "Q":
            field = FieldDescriptor(0)
        elif tok.text == "F":
            p = int(self.expect("int", "prime characteristic").text)
            field = self._prime_field(p, tok)
        elif re.fullmatch(r"F\d+", tok.text):
            field = self._prime_field(int(tok.text[1:]), tok)
        else:
            self.error(f"expected field Q or F p, found {tok.text!r}", tok,
                       expected={"Q", "F"})
        self.expect("[")
        names = self.variables("]")
        self.field = field
        self.context = VariableContext(names)
        return RingStmt(field, names)

    def _prime_field(self, p, tok):
        if p == 0:
            self.error("F 0 is not a prime field; write Q for the rationals",
                       tok, code="semantic")
        try:
            return FieldDescriptor(p)
        except ValueError as exc:
            self.error(str(exc), tok, code="semantic")

    def parse_ideal(self):
        self.advance()
        name = self.ident("ideal").text
        self.expect("=")
        if self.context is None:
            self.error("no ring declared before the ideal", code="semantic")
        expr = self.parse_expr()
        self.ideal_contexts[name] = (self.field, self.context)
        return IdealStmt(name, expr)

    def parse_expr(self):
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            return GenList(self.comma_list(self.parse_poly, ")"))
        if tok.kind == "ident" and tok.text == "intersect":
            self.advance()
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return Intersect(left, right)
        if tok.kind == "ident":
            name = self.require_ideal_name()
            if self.ideal_contexts[name] != (self.field, self.context):
                self.error(f"ideal {name!r} belongs to another ring", tok,
                           code="semantic")
            return Ref(name)
        self.error(f"expected an ideal expression, found {tok.text!r}",
                   expected={"(", "intersect", "IDENT"})

    # -- polynomials --

    def parse_poly(self):
        """Signed terms, the first sign optional, as one Polynomial."""
        terms = []
        while True:
            tok = self.peek()
            if tok.kind in ("+", "-"):
                self.advance()
            elif terms:
                return Polynomial(self.field, self.context, terms)
            terms.append(self.parse_term(-1 if tok.kind == "-" else 1))

    def parse_term(self, sign):
        """The term's (coefficient, exponents) pair."""
        coeff = sign
        exps = [0] * self.context.count
        start = self.pos
        tok = self.accept("int")
        if tok is not None:
            num = int(tok.text)
            if self.accept("/"):
                den_tok = self.expect("int", "denominator")
                den = int(den_tok.text)
                if den == 0:
                    self.error("zero denominator", den_tok, code="semantic")
                if (self.field.is_prime_field
                        and den % self.field.characteristic == 0):
                    self.error("denominator is zero in the coefficient field",
                               den_tok, code="semantic")
                num = Fraction(num, den)
            coeff *= num
        while True:
            starred = self.accept("*") is not None
            tok = self.peek()
            if tok.kind != "ident" or (tok.text in KEYWORDS and not starred):
                if starred:
                    self.error("expected a variable after '*'",
                               expected={"IDENT"})
                break
            var_tok = self.advance()
            if var_tok.text in KEYWORDS:
                self.error(f"{var_tok.text!r} is a reserved word", var_tok,
                           code="semantic")
            if var_tok.text not in self.context:
                self.error(f"unknown variable {var_tok.text!r}", var_tok,
                           code="semantic")
            power = 1
            if self.accept("^"):
                power = int(self.expect("int", "exponent").text)
            exps[self.context.index(var_tok.text)] += power
        if self.pos == start:
            self.error(f"expected a term, found {self.peek().text!r}",
                       expected={"INT", "IDENT"})
        return coeff, tuple(exps)

    # -- commands --

    def require_ideal_name(self):
        tok = self.ident("ideal")
        if tok.text not in self.ideal_contexts:
            self.error(f"undeclared ideal {tok.text!r}", tok, code="semantic")
        return tok.text

    def parse_chain(self):
        self.advance()
        name = self.require_ideal_name()
        tok = self.expect("ident", "from")
        if tok.text != "from":
            self.error(f"expected 'from', found {tok.text!r}", tok,
                       expected={"from"})
        self.expect("(")
        _, context = self.ideal_contexts[name]
        return Command("chain", name, self.variables(")", context))

    def parse_family(self):
        self.advance()
        tok = self.expect("ident", "family name")
        if tok.text not in FAMILY_KINDS:
            self.error(f"unknown family {tok.text!r}", tok, code="semantic",
                       expected=set(FAMILY_KINDS))
        params = ()
        if self.accept("("):
            params = self.comma_list(
                lambda: int(self.expect("int", "parameter").text), ")")
        try:
            return FamilySpec(tok.text, params)
        except FamilyParameterError as exc:
            self.error(str(exc), tok, code="semantic")


def parse_script(text):
    """Parse script text into the tuple of its resolved statements."""
    return _Parser(_lex(text)).parse_script()


# -- canonical rendering --

def _render_expr(expr):
    if isinstance(expr, GenList):
        return "(" + ", ".join(str(p) for p in expr.polys) + ")"
    if isinstance(expr, Intersect):
        return f"intersect({_render_expr(expr.left)}, {_render_expr(expr.right)})"
    if isinstance(expr, Ref):
        return expr.name
    raise TypeError(f"not an ideal expression: {expr!r}")


def render_script(script):
    """Canonical text for a tuple of statements; reparses to an equal
    tuple."""
    lines = []
    for stmt in script:
        if isinstance(stmt, RingStmt):
            field = "Q" if stmt.field.characteristic == 0 \
                else f"F {stmt.field.characteristic}"
            lines.append(f"ring {field}[{', '.join(stmt.names)}]")
        elif isinstance(stmt, IdealStmt):
            lines.append(f"ideal {stmt.name} = {_render_expr(stmt.expr)}")
        elif isinstance(stmt, Command):
            start = f" from ({', '.join(stmt.start)})" \
                if stmt.verb == "chain" else ""
            lines.append(f"{stmt.verb} {stmt.ideal}{start}")
        elif isinstance(stmt, FamilySpec):
            args = ", ".join(map(str, stmt.params))
            lines.append(f"family {stmt.kind}({args})" if args
                         else f"family {stmt.kind}")
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return "\n".join(lines) + "\n"
