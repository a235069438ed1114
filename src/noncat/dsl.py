"""The input script language: ring and ideal declarations followed by
commands, parsed by a hand-rolled lexer and recursive-descent parser.

    ring  := "ring" ("Q" | "F" INT) "[" IDENT ("," IDENT)* "]"
    ideal := "ideal" IDENT "=" expr
    expr  := "(" poly ("," poly)* ")" | "intersect" "(" expr "," expr ")"
             | IDENT
    poly  := signed sum of terms; term := coeff? ("*"? IDENT ("^" INT)?)*
    cmd   := ("analyze" | "profile" | "poset") IDENT
             | "chain" IDENT "from" "(" IDENT ("," IDENT)* ")"
             | "family" NAME ("(" INT ("," INT)* ")")?

"#" starts a comment running to the end of the line. Errors carry line,
column, an error class (lexical, syntax or semantic) and the expected
token set. Scripts parse into resolved values (polynomials are built
against the active ring), and render_script emits canonical text that
reparses to an equal Script.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FamilyParameterError, ParseError
from .families import FAMILY_KINDS, FamilySpec, check_constraints
from .poly import FieldDescriptor, Polynomial, VariableContext, _Value

KEYWORDS = frozenset({"ring", "ideal", "intersect", "analyze", "profile",
                      "poset", "chain", "from", "family"})

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[()\[\],=+\-*^/]")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {ch!r}",
                                 lineno, pos + 1, code="lexical")
            tok = m.group(0)
            if tok[0].isdigit():
                kind = "int"
            elif tok[0].isalpha() or tok[0] == "_":
                kind = "ident"
            else:
                kind = tok
            tokens.append(Token(kind, tok, lineno, pos + 1))
            pos = m.end()
    last_line = text.count("\n") + 1
    tokens.append(Token("eof", "", last_line, 1))
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


class AnalyzeCmd(_Value):
    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal


class ProfileCmd(_Value):
    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal


class PosetCmd(_Value):
    __slots__ = ("ideal",)

    def __init__(self, ideal):
        self.ideal = ideal


class ChainCmd(_Value):
    __slots__ = ("ideal", "from_vars")

    def __init__(self, ideal, from_vars):
        self.ideal = ideal
        self.from_vars = from_vars


class FamilyCmd(_Value):
    __slots__ = ("kind", "params")

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params


class Script(_Value):
    __slots__ = ("statements",)

    def __init__(self, statements):
        self.statements = statements


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
        if self.peek().kind == kind:
            return self.advance()
        return None

    def ident(self, role="identifier"):
        tok = self.expect("ident", role)
        if tok.text in KEYWORDS:
            self.error(f"{tok.text!r} is a reserved word and cannot name a "
                       f"{role}", tok, code="semantic")
        return tok

    # -- grammar --

    def parse_script(self):
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.parse_statement())
        return Script(tuple(statements))

    def parse_statement(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.error(f"expected a statement, found {tok.text!r}",
                       expected={"ring", "ideal", "analyze", "profile",
                                 "poset", "chain", "family"})
        if tok.text == "ring":
            return self.parse_ring()
        if tok.text == "ideal":
            return self.parse_ideal()
        if tok.text in ("analyze", "profile", "poset"):
            self.advance()
            name = self.require_ideal_name()
            return {"analyze": AnalyzeCmd, "profile": ProfileCmd,
                    "poset": PosetCmd}[tok.text](name)
        if tok.text == "chain":
            return self.parse_chain()
        if tok.text == "family":
            return self.parse_family()
        self.error(f"unknown statement {tok.text!r}",
                   expected={"ring", "ideal", "analyze", "profile", "poset",
                             "chain", "family"})

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
        names = [self.ident("variable").text]
        while self.accept(","):
            names.append(self.ident("variable").text)
        self.expect("]")
        if len(set(names)) != len(names):
            self.error("duplicate variable name", tok, code="semantic")
        self.field = field
        self.context = VariableContext(names)
        return RingStmt(field, tuple(names))

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
            polys = [self.parse_poly()]
            while self.accept(","):
                polys.append(self.parse_poly())
            self.expect(")")
            return GenList(tuple(polys))
        if tok.kind == "ident" and tok.text == "intersect":
            self.advance()
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(")")
            return Intersect(left, right)
        if tok.kind == "ident":
            name = self.ident("ideal").text
            if name not in self.ideal_contexts:
                self.error(f"undeclared ideal {name!r}", tok, code="semantic")
            if self.ideal_contexts[name] != (self.field, self.context):
                self.error(f"ideal {name!r} belongs to another ring", tok,
                           code="semantic")
            return Ref(name)
        self.error(f"expected an ideal expression, found {tok.text!r}",
                   expected={"(", "intersect", "IDENT"})

    # -- polynomials --

    def parse_poly(self):
        terms = []
        sign = 1
        if self.accept("-"):
            sign = -1
        else:
            self.accept("+")
        terms.append(self.parse_term(sign))
        while self.peek().kind in ("+", "-"):
            sign = 1 if self.advance().kind == "+" else -1
            terms.append(self.parse_term(sign))
        out = terms[0]
        for t in terms[1:]:
            out = out + t
        return out

    def parse_term(self, sign):
        coeff = sign
        exps = [0] * self.context.count
        saw_factor = False
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
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
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            saw_factor = True
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
            saw_factor = True
        if not saw_factor:
            self.error(f"expected a term, found {self.peek().text!r}",
                       expected={"INT", "IDENT"})
        return Polynomial(self.field, self.context, ((coeff, tuple(exps)),))

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
        names = [self._chain_var(context)]
        while self.accept(","):
            names.append(self._chain_var(context))
        self.expect(")")
        return ChainCmd(name, tuple(names))

    def _chain_var(self, context):
        tok = self.ident("variable")
        if tok.text not in context:
            self.error(f"unknown variable {tok.text!r}", tok, code="semantic")
        return tok.text

    def parse_family(self):
        self.advance()
        tok = self.expect("ident", "family name")
        if tok.text not in FAMILY_KINDS:
            self.error(f"unknown family {tok.text!r}", tok, code="semantic",
                       expected=set(FAMILY_KINDS))
        params = []
        if self.peek().kind == "(":
            self.advance()
            params.append(int(self.expect("int", "parameter").text))
            while self.accept(","):
                params.append(int(self.expect("int", "parameter").text))
            self.expect(")")
        try:
            check_constraints(FamilySpec(tok.text, tuple(params)))
        except FamilyParameterError as exc:
            self.error(str(exc), tok, code="semantic")
        return FamilyCmd(tok.text, tuple(params))


def parse_script(text):
    """Parse script text into a fully resolved Script."""
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
    """Canonical text for a Script; reparses to an equal Script."""
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, RingStmt):
            field = "Q" if stmt.field.characteristic == 0 \
                else f"F {stmt.field.characteristic}"
            lines.append(f"ring {field}[{', '.join(stmt.names)}]")
        elif isinstance(stmt, IdealStmt):
            lines.append(f"ideal {stmt.name} = {_render_expr(stmt.expr)}")
        elif isinstance(stmt, AnalyzeCmd):
            lines.append(f"analyze {stmt.ideal}")
        elif isinstance(stmt, ProfileCmd):
            lines.append(f"profile {stmt.ideal}")
        elif isinstance(stmt, PosetCmd):
            lines.append(f"poset {stmt.ideal}")
        elif isinstance(stmt, ChainCmd):
            lines.append(f"chain {stmt.ideal} from ({', '.join(stmt.from_vars)})")
        elif isinstance(stmt, FamilyCmd):
            if stmt.params:
                args = ", ".join(str(p) for p in stmt.params)
                lines.append(f"family {stmt.kind}({args})")
            else:
                lines.append(f"family {stmt.kind}")
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return "\n".join(lines) + "\n"
