"""Script parsing: grammar coverage, error classes with positions, and
the render/parse round trip."""

import random
from fractions import Fraction

import pytest

from conftest import random_polynomial
from noncat.dsl import (
    Command,
    IdealStmt,
    Intersect,
    Ref,
    RingStmt,
    Token,
    _lex,
    parse_script,
    render_script,
)
from noncat.errors import ParseError
from noncat.families import FamilySpec
from noncat.poly import FieldDescriptor, Polynomial, VariableContext


class TestGrammar:
    def test_intersect_script(self):
        script = parse_script(
            "ring Q[x,y,z,v]  ideal I = intersect((x),(y,z))  analyze I")
        ring, ideal, cmd = script
        assert isinstance(ring, RingStmt) and ring.names == ("x", "y", "z", "v")
        assert isinstance(ideal, IdealStmt) and isinstance(ideal.expr, Intersect)
        assert cmd == Command("analyze", "I")

    def test_polynomial_syntax(self):
        script = parse_script(
            "ring Q[x,y,z]\nideal I = (3*x^2*y - 1/2*z, x y, 2x^3)")
        (genlist,) = [s.expr for s in script if isinstance(s, IdealStmt)]
        ctx = VariableContext(("x", "y", "z"))
        f = Polynomial(FieldDescriptor(0), ctx,
                       ((3, (2, 1, 0)), (Fraction(-1, 2), (0, 0, 1))))
        assert genlist.polys[0] == f
        assert str(genlist.polys[1]) == "x*y"
        assert str(genlist.polys[2]) == "2*x^3"

    def test_prime_field_declarations(self):
        for text in ("ring F 7[x,y]", "ring F7[x,y]"):
            (stmt,) = parse_script(text)
            assert stmt.field == FieldDescriptor(7)

    def test_all_commands(self):
        script = parse_script("""
            ring Q[x,y1,y2,z1,z2]   # the usual family ring
            ideal I = (x*y1, x*y2)
            ideal J = I
            analyze I
            profile J
            poset I
            chain I from (y1, y2)
            family example_ufd(2, 2)
            family example_domain
        """)
        assert type(script) is tuple
        kinds = [type(s) for s in script]
        assert kinds == [RingStmt, IdealStmt, IdealStmt, Command, Command,
                         Command, Command, FamilySpec, FamilySpec]
        assert script[3:7] == (Command("analyze", "I"),
                               Command("profile", "J"),
                               Command("poset", "I"),
                               Command("chain", "I", ("y1", "y2")))
        assert script[2].expr == Ref("I")
        assert script[7:] == (FamilySpec("example_ufd", (2, 2)),
                              FamilySpec("example_domain"))

    def test_negative_and_fraction_coefficients(self):
        script = parse_script("ring Q[x,y]\nideal I = (-x + 2/3*y, +y)")
        genlist = script[1].expr
        assert str(genlist.polys[0]) in ("-x + 2/3*y", "2/3*y - x")

    def test_coefficients_mod_p(self):
        script = parse_script("ring F 5[x]\nideal I = (7*x, 1/2*x)")
        genlist = script[1].expr
        assert str(genlist.polys[0]) == "2*x"
        assert str(genlist.polys[1]) == "3*x"  # 1/2 = 3 mod 5

    def test_like_terms_combine(self):
        def gens(text):
            return parse_script(text)[1].expr.polys

        zero, y = gens("ring Q[x,y]\nideal I = (2/3*x - x + 1/3*x, y)")
        assert zero.is_zero and str(y) == "y"
        (double,) = gens("ring Q[x]\nideal I = (x + x)")
        assert str(double) == "2*x"
        (zero,) = gens("ring F 5[x]\nideal I = (3*x + 2*x)")
        assert zero.is_zero


class TestLexer:
    def test_token_positions(self):
        text = ("ring Q[x,\ty]  \r\n# only a comment\r\n"
                "\tideal  I = (x^2 -\t1/3*y)   \r\n\r\nanalyze I\t# done\r\n")
        assert [(t.kind, t.text, t.line, t.column) for t in _lex(text)] == [
            ("ident", "ring", 1, 1), ("ident", "Q", 1, 6), ("[", "[", 1, 7),
            ("ident", "x", 1, 8), (",", ",", 1, 9), ("ident", "y", 1, 11),
            ("]", "]", 1, 12),
            ("ident", "ideal", 3, 2), ("ident", "I", 3, 9), ("=", "=", 3, 11),
            ("(", "(", 3, 13), ("ident", "x", 3, 14), ("^", "^", 3, 15),
            ("int", "2", 3, 16), ("-", "-", 3, 18), ("int", "1", 3, 20),
            ("/", "/", 3, 21), ("int", "3", 3, 22), ("*", "*", 3, 23),
            ("ident", "y", 3, 24), (")", ")", 3, 25),
            ("ident", "analyze", 5, 1), ("ident", "I", 5, 9),
            ("eof", "", 6, 1)]

    def test_bad_character_after_whitespace(self):
        with pytest.raises(ParseError) as err:
            _lex("ring Q[x]\nideal I = (x  \t $)")
        assert err.value.code == "lexical"
        assert (err.value.line, err.value.column) == (2, 17)
        assert "'$'" in str(err.value)

    def test_non_ascii_letter_is_lexical(self):
        with pytest.raises(ParseError) as err:
            parse_script("ring Q[x]\nideal I = (x \u00e9)")
        assert err.value.code == "lexical"
        assert (err.value.line, err.value.column) == (2, 14)


class TestErrors:
    def expect_error(self, text, code, fragment=""):
        with pytest.raises(ParseError) as err:
            parse_script(text)
        assert err.value.code == code
        assert fragment in str(err.value)
        return err.value

    def test_ideal_without_ring(self):
        e = self.expect_error("ideal I = (x)", "semantic", "no ring declared")
        assert e.line == 1

    def test_lexical_error(self):
        e = self.expect_error("ring Q[x]\nideal I = (x$y)", "lexical")
        assert e.line == 2

    def test_syntax_error_carries_expected(self):
        with pytest.raises(ParseError) as err:
            parse_script("ring Q[x")
        assert err.value.code == "syntax"
        assert err.value.expected

    def test_undeclared_ideal(self):
        self.expect_error("ring Q[x]\nanalyze J", "semantic", "undeclared")

    def test_reference_to_another_ring(self):
        e = self.expect_error(
            "ring Q[x,y]\nideal I = (x)\nring Q[x,y,z]\n"
            "ideal J = intersect(I, (z))", "semantic", "another ring")
        assert (e.line, e.column) == (4, 21)

    def test_unknown_variable(self):
        self.expect_error("ring Q[x]\nideal I = (w)", "semantic",
                          "unknown variable")

    def test_unknown_chain_variable(self):
        self.expect_error("ring Q[x,y]\nideal I = (x*y)\nchain I from (q)",
                          "semantic", "unknown variable")

    def test_unknown_family(self):
        self.expect_error("family example_void", "semantic", "unknown family")

    def test_family_constraint_violation(self):
        self.expect_error("family example_ufd(1, 2)", "semantic", "a > 1")

    def test_composite_characteristic(self):
        self.expect_error("ring F 6[x]", "semantic", "prime")
        for text in ("ring F0[x,y]", "ring F 0[x,y]"):
            self.expect_error(text, "semantic", "write Q")

    def test_reserved_word_as_variable(self):
        self.expect_error("ring Q[from]", "semantic", "reserved")

    def test_repeated_ring_variable(self):
        e = self.expect_error("ring Q[x, x]", "semantic", "duplicate variable")
        assert (e.line, e.column) == (1, 11)

    def test_repeated_chain_variable(self):
        e = self.expect_error(
            "ring Q[x,y]\nideal I = (x*y)\nchain I from (x, x)", "semantic",
            "duplicate variable")
        assert (e.line, e.column) == (3, 18)

    def test_position_reported(self):
        e = self.expect_error("ring Q[x,y]\nideal I = (x*\n)", "syntax")
        assert (e.line, e.column) == (3, 1)

    @pytest.mark.parametrize("text,code,position,message,expected", [
        ("ring Q[x]\nideal I = (1/0*x)", "semantic", (2, 14),
         "zero denominator", set()),
        ("ring F 3[x]\nideal I = (1/3*x)", "semantic", (2, 14),
         "denominator is zero in the coefficient field", set()),
        ("ring R[x]", "syntax", (1, 6),
         "expected field Q or F p, found 'R'", {"F", "Q"}),
        ("ring Q[x]\nideal I = 3", "syntax", (2, 11),
         "expected an ideal expression, found '3'",
         {"(", "IDENT", "intersect"}),
        ("ring Q[x]\nideal I = (x + )", "syntax", (2, 16),
         "expected a term, found ')'", {"IDENT", "INT"}),
        ("ring Q[x]\nideal I = (x)\nchain I to (x)", "syntax", (3, 9),
         "expected 'from', found 'to'", {"from"}),
        ("ring Q[x]\nideal I = (x*ring)", "semantic", (2, 14),
         "'ring' is a reserved word", set()),
    ], ids=["zero-denominator", "denominator-zero-mod-p", "unknown-field",
            "ideal-expression", "term", "chain-from", "reserved-in-term"])
    def test_error_branch(self, text, code, position, message, expected):
        e = self.expect_error(text, code)
        assert (e.line, e.column) == position
        assert str(e) == f"line {position[0]}, col {position[1]}: {message}"
        assert e.expected == expected

    def test_family_inequality_is_checked_by_the_spec(self):
        e = self.expect_error("family prop41(3, 3)", "semantic")
        assert str(e) == ("line 1, col 8: prop41 requires m < n "
                          "(got m = 3, n = 3)")


class TestValueSemantics:
    """Script nodes compare and hash by type and fields, and print as
    Name(field=value, ...)."""

    def test_commands_of_distinct_verbs_are_unequal(self):
        assert Command("analyze", "I") != Command("profile", "I")
        assert Command("analyze", "I") != Command("poset", "I")
        assert Command("chain", "I", ("x",)) != Command("chain", "I", ("y",))
        assert Command("analyze", "I") == Command("analyze", "I", ())

    def test_equal_fields_of_distinct_types_are_unequal(self):
        assert Ref("I") != Command("analyze", "I")
        assert Command("analyze", "I") != "I"
        assert Command("analyze", "I") != ("analyze", "I", ())

    def test_equal_instances_hash_as_their_fields(self):
        def nodes():
            return [Command("analyze", "I"), Command("chain", "I", ("x", "y")),
                    FamilySpec("prop41", (2, 4)), Token("int", "3", 2, 7),
                    Intersect(Ref("I"), Ref("J"))]

        for a, b in zip(nodes(), nodes()):
            assert a == b and a is not b
            assert hash(a) == hash(b)
        assert hash(Command("analyze", "I")) == hash(("analyze", "I", ()))
        assert hash(Command("chain", "I", ("x",))) == hash(
            ("chain", "I", ("x",)))
        assert hash(Token("eof", "", 3, 1)) == hash(("eof", "", 3, 1))
        assert len({Command("analyze", "I"), Command("analyze", "I"),
                    Command("profile", "I")}) == 2

    def test_repr_names_each_field(self):
        assert repr(Command("analyze", "I")) == (
            "Command(verb='analyze', ideal='I', start=())")
        assert repr(Command("chain", "I", ("x",))) == (
            "Command(verb='chain', ideal='I', start=('x',))")
        assert repr(FamilySpec("prop41", (2, 4))) == (
            "FamilySpec(kind='prop41', params=(2, 4))")
        assert repr(Token("int", "3", 2, 7)) == (
            "Token(kind='int', text='3', line=2, column=7)")
        assert repr(Intersect(Ref("I"), Ref("J"))) == (
            "Intersect(left=Ref(name='I'), right=Ref(name='J'))")

    def test_keyword_construction(self):
        assert FamilySpec(params=(3,), kind="example_catenary") == FamilySpec(
            "example_catenary", (3,))
        assert Token(kind="eof", text="", line=1, column=1) == Token(
            "eof", "", 1, 1)

    def test_parsed_script_equals_itself(self):
        text = "ring Q[x,y]\nideal I = intersect((x), (y))\nchain I from (x)"
        assert parse_script(text) == parse_script(text)
        assert hash(parse_script(text)) == hash(parse_script(text))


class TestRoundTrip:
    def _corpus(self, rng):
        names = ["x", "y", "z", "w"]
        scripts = []
        for _ in range(40):
            lines = [f"ring Q[{', '.join(names[:rng.randint(1, 4)])}]"]
            declared = []
            nvars = lines[0].count(",") + 1
            for i in range(rng.randint(1, 3)):
                name = f"I{i}"
                if declared and rng.random() < 0.3:
                    expr = rng.choice(declared)
                elif rng.random() < 0.4 and declared:
                    expr = f"intersect(({self._poly(rng, nvars)}), {rng.choice(declared)})"
                else:
                    polys = ", ".join(self._poly(rng, nvars)
                                      for _ in range(rng.randint(1, 2)))
                    expr = f"({polys})"
                lines.append(f"ideal {name} = {expr}")
                declared.append(name)
            lines.append(f"analyze {rng.choice(declared)}")
            if rng.random() < 0.5:
                lines.append(f"profile {rng.choice(declared)}")
            if rng.random() < 0.3:
                lines.append("family example_ufd(2, 3)")
            scripts.append("\n".join(lines))
        return scripts

    def _poly(self, rng, nvars):
        names = ["x", "y", "z", "w"][:nvars]
        pieces = []
        for i in range(rng.randint(1, 3)):
            coeff = rng.choice(["", "2*", "3*", "1/2*"])
            factors = "*".join(
                f"{rng.choice(names)}^{rng.randint(1, 3)}"
                if rng.random() < 0.4 else rng.choice(names)
                for _ in range(rng.randint(1, 2)))
            sign = rng.choice(["+", "-"])
            if i == 0:
                pieces.append(f"-{coeff}{factors}" if sign == "-"
                              else f"{coeff}{factors}")
            else:
                pieces.append(f" {sign} {coeff}{factors}")
        return "".join(pieces)

    def test_render_reparses_identically(self):
        rng = random.Random(808)
        for text in self._corpus(rng):
            script = parse_script(text)
            rendered = render_script(script)
            assert parse_script(rendered) == script
            # rendering is a fixed point
            assert render_script(parse_script(rendered)) == rendered

    def test_polynomials_parse_back(self):
        """str(f) of a random polynomial parses back to f itself."""
        rng = random.Random(34)
        ctx = VariableContext(("x", "y", "z"))
        for field, decl in ((FieldDescriptor(0), "Q"),
                            (FieldDescriptor(32003), "F 32003")):
            for _ in range(60):
                f = random_polynomial(rng, ctx, max_terms=5, field=field)
                script = parse_script(f"ring {decl}[x, y, z]\nideal I = ({f})")
                (g,) = script[1].expr.polys
                assert g == f, str(f)

    def test_every_verb_round_trips(self):
        text = ("ring Q[x, y, z]\n"
                "ideal I = (x*y, x*z)\n"
                "analyze I\n"
                "profile I\n"
                "poset I\n"
                "chain I from (y, z)\n")
        script = parse_script(text)
        assert [s.verb for s in script[2:]] == [
            "analyze", "profile", "poset", "chain"]
        assert render_script(script) == text
        assert parse_script(render_script(script)) == script

    def test_named_round_trip(self):
        text = ("ring Q[x, y, z, v]\n"
                "ideal I = intersect((x), (y, z))\n"
                "analyze I\n"
                "chain I from (y, z)\n"
                "family prop42(3, 5)\n"
                "family example_domain\n")
        script = parse_script(text)
        assert render_script(script) == text
