"""The command-line pipeline: dispatch, output formats, the published
JSON schema, and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from noncat import analyzer, groebner, spectra
from noncat.analyzer import AnalysisConfig, analyze
from noncat.cli import REPORT_SCHEMA, main, report_text, run_script
from noncat.dsl import Command, parse_script
from noncat.families import (
    FamilySpec,
    expected_mismatches,
    instantiate,
)
from noncat.monomial import MonomialIdeal

from conftest import count_calls

ROOT = Path(__file__).resolve().parent.parent
# the environment of a `python -m noncat.cli` subprocess
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                           if "PYTHONPATH" in os.environ else [])))


def invoke(capsys, script_text, *flags, tmp_path=None):
    """Run main() on a script written to a temp file; returns
    (exit code, stdout, stderr)."""
    path = tmp_path / "script.ncat"
    path.write_text(script_text)
    code = main([str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_intersect_script_json(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys,
            "ring Q[x,y,z,v]  ideal I = intersect((x),(y,z))  analyze I",
            "--format", "json", tmp_path=tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["noncat_domain"] is True
        assert payload["witnesses"]["P"] == ["y", "z"]
        assert payload["profile"] == [3, 2]

    def test_overlapping_linear_intersection_json(self, capsys, tmp_path):
        """(x, y) cap (y, z) = (y, x*z): the spans share y."""
        code, out, _ = invoke(
            capsys, "ring Q[x,y,z]\nideal I = intersect((x, y), (y, z))\n"
                    "analyze I\n", "--format", "json", tmp_path=tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"] == "Q[[x,y,z]]/(x*z, y)"
        assert payload["dim"] == 1
        assert payload["semantics"] == "monomial-exact"

    def test_text_format(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[x,y]\nideal I = (x*y)\nanalyze I",
            tmp_path=tmp_path)
        assert code == 0
        assert "noncat_domain=false" in out
        assert "depth_ge2=false" in out

    def test_non_monomial_partial_exits_2(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[x,y,z]\nideal I = (x*y - z^2)\nanalyze I",
            "--format", "json", tmp_path=tmp_path)
        assert code == 2
        payload = json.loads(out)
        assert payload["semantics"] == "unverified-completion"
        assert payload["verdicts"]["noncat_domain"] is None

    def test_unit_ideal_exits_2(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "ring Q[x]\nideal I = (1)\nanalyze I",
                              tmp_path=tmp_path)
        assert code == 2
        assert "unsupported input class" in err


class TestSchema:
    def test_schema_is_valid(self):
        jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)

    def test_family_reports_validate(self):
        specs = [FamilySpec("example_domain"),
                 FamilySpec("example_catenary", (3,)),
                 FamilySpec("example_ufd", (2, 2)),
                 FamilySpec("prop41", (2, 4)),
                 FamilySpec("prop42", (3, 5))]
        for spec in specs:
            ring, _ = instantiate(spec)
            payload = analyze(ring).to_json_dict()
            jsonschema.validate(payload, REPORT_SCHEMA)

    def test_partial_report_validates(self, capsys, tmp_path):
        _, out, _ = invoke(
            capsys, "ring Q[x,y]\nideal I = (x^2 - y)\nanalyze I",
            "--format", "json", tmp_path=tmp_path)
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)

    def test_witnessless_report_validates_with_nulls(self, capsys, tmp_path):
        # the catenary family: every verdict negative, so no witnesses
        code, out, _ = invoke(capsys, "family example_catenary(3)",
                              "--format", "json", tmp_path=tmp_path)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert all(v is None for v in payload["witnesses"].values())


class TestOtherCommands:
    def test_runner_reads_each_verb_of_a_built_command(self):
        """The runner takes a tuple of statements built by hand as it takes
        a parsed one, and dispatches each Command on its verb."""
        ring, ideal = parse_script("ring Q[x,y,z,v]\nideal I = (x*y, x*z)")
        outputs = run_script((ring, ideal, Command("profile", "I"),
                              Command("chain", "I", ("y", "z"))),
                             AnalysisConfig(), "text")
        assert list(outputs) == ["profile {3, 2}",
                                 "(y,z) < (y,z,v) < (x,y,z,v)  (length 2)"]

    def test_runner_refuses_what_is_not_a_statement(self):
        outputs = run_script(("analyze I",), AnalysisConfig(), "text")
        with pytest.raises(TypeError, match="not a statement: 'analyze I'"):
            next(outputs)

    def test_profile_text(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[x,y,z,v]\nideal I = (x*y, x*z)\nprofile I",
            tmp_path=tmp_path)
        assert code == 0
        assert out.strip() == "profile {3, 2}"

    @pytest.mark.parametrize("script,dim", [
        ("ring Q[x,y]\nideal I = (y - x^2)", 1),
        ("ring Q[x]\nideal I = (x + x^2)", 0)], ids=["dvr", "field"])
    def test_profile_of_regular_ring(self, capsys, tmp_path, script, dim):
        """profile reads the analysis, so a DVR or field that is not
        presented by a monomial ideal gets the profile analyze reports."""
        code, out, _ = invoke(capsys, script + "\nprofile I",
                              tmp_path=tmp_path)
        assert (code, out) == (0, f"profile {{{dim}}}\n")
        code, out, _ = invoke(capsys, script + "\nprofile I",
                              "--format", "json", tmp_path=tmp_path)
        payload = json.loads(out)
        assert code == 0
        assert (payload["dim"], payload["profile"]) == (dim, [dim])

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_profile_of_non_monomial_runs_no_depth_search(
            self, capsys, tmp_path, monkeypatch, fmt):
        searches = count_calls(monkeypatch, groebner.IdealHandle,
                               "depth_at_least_two")
        code, out, err = invoke(
            capsys, "ring Q[x,y,z]\nideal I = (x*y - z^2)\nprofile I",
            "--format", fmt, tmp_path=tmp_path)
        assert code == 2 and out == ""
        assert err == ("unsupported input class: the noncatenarity profile "
                       "needs minimal primes, which are only computed for "
                       "monomial ideals\n")
        assert searches == []

    def test_profile_under_dot_is_refused_before_any_analysis(
            self, capsys, tmp_path, monkeypatch):
        components = count_calls(monkeypatch, MonomialIdeal,
                                 "irreducible_components")
        searches = count_calls(monkeypatch, MonomialIdeal,
                               "depth_at_least_two")
        code, out, err = invoke(
            capsys, "ring Q[x,y1,y2,z1,z2]\nideal I = (x*y1, x*y2)\n"
            "profile I", "--format", "dot", tmp_path=tmp_path)
        assert (code, out) == (2, "")
        assert err == ("unsupported input class: the profile command has "
                       "no dot rendering\n")
        assert components == [] and searches == []

    @pytest.mark.parametrize("before", ["", "analyze I\n"],
                             ids=["alone", "after-analyze"])
    def test_infeasible_chain_exits_2(self, capsys, tmp_path, monkeypatch,
                                      before):
        """No eligible variable lies above (x,y). After analyze, the chain
        command raises the error analyze cached, without a second try."""
        built = count_calls(monkeypatch, analyzer, "construct_chain")
        script = ("ring Q[x,y,z,w]\nideal I = (x^2*z, y^2*z*w)\n"
                  f"{before}chain I from (x, y)\n")
        code, _, err = invoke(capsys, script, tmp_path=tmp_path)
        assert code == 2
        assert err == ("unsupported input class: no eligible variable at "
                       "step 1 above (x,y)\n")
        assert len(built) == 1

    def test_chain_dot_four_nodes_three_edges(self, capsys, tmp_path):
        script = ("ring Q[x,y1,y2,z1,z2]\n"
                  "ideal I = (x*y1, x*y2)\n"
                  "chain I from (y1,y2)\n")
        code, out, _ = invoke(capsys, script, "--format", "dot",
                              tmp_path=tmp_path)
        assert code == 0
        nodes = [l for l in out.splitlines()
                 if l.strip().startswith('"') and "->" not in l]
        edges = [l for l in out.splitlines() if "->" in l]
        assert len(nodes) == 4 and len(edges) == 3

    @pytest.mark.parametrize("fmt", ["text", "json", "dot"])
    def test_chain_on_non_monomial_exits_2(self, capsys, tmp_path, fmt):
        script = "ring Q[x,y,z]\nideal I = (x*y - z^2)\nchain I from (x)\n"
        code, out, err = invoke(capsys, script, "--format", fmt,
                                tmp_path=tmp_path)
        assert code == 2 and out == ""
        assert err == ("unsupported input class: the chain command needs "
                       "minimal primes, which are only computed for "
                       "monomial ideals\n")

    def test_chain_from_non_minimal_exits_2(self, capsys, tmp_path):
        script = ("ring Q[x,y1,y2,z1,z2]\nideal I = (x*y1, x*y2)\n"
                  "chain I from (z1)\n")
        code, _, err = invoke(capsys, script, tmp_path=tmp_path)
        assert code == 2 and "not a minimal prime" in err

    def test_poset_json(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[x,y,z,v]\nideal I = (x*y, x*z)\nposet I",
            "--format", "json", tmp_path=tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["nodes"]) == 10
        gens = {tuple(n["gens"]) for n in payload["nodes"]}
        assert ("x",) in gens and ("y", "z") in gens

    def test_family_command(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "family example_ufd(2, 2)",
                              "--format", "json", tmp_path=tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdicts"]["noncat_ufd"] is True
        assert payload["witnesses"]["ufd_witness_prime"] == \
            ["y1", "y2", "z1", "z2"]

    def test_family_above_poset_cap(self, capsys, tmp_path):
        # 17 variables: analyze needs no poset node list, so no cap applies
        code, out, _ = invoke(capsys, "family example_ufd(8, 8)",
                              "--format", "json", tmp_path=tmp_path)
        assert code == 0
        _, expected = instantiate(FamilySpec("example_ufd", (8, 8)))
        assert expected_mismatches(json.loads(out), expected) == []

    def test_multiple_commands_one_line_each(self, capsys, tmp_path):
        script = ("ring Q[x,y,z,v]\nideal I = (x*y, x*z)\n"
                  "profile I\nprofile I\n")
        code, out, _ = invoke(capsys, script, "--format", "json",
                              tmp_path=tmp_path)
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


class TestMonomialClassFromBasis:
    """(x+y, y) equals (x, y): the class is read off the reduced basis,
    not the presented generators."""

    SCRIPT = "ring Q[x,y,z]\nideal I = (x+y, y)\n"

    def test_analyze_is_monomial_exact(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, self.SCRIPT + "analyze I",
                              "--format", "json", tmp_path=tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["semantics"] == "monomial-exact"
        assert [p["gens"] for p in payload["minimal_primes"]] == [["x", "y"]]

    def test_profile_poset_and_chain(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, self.SCRIPT + "profile I\nposet I\nchain I from (x,y)",
            tmp_path=tmp_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "profile {1}"
        assert lines[-1] == "(x,y) < (x,y,z)  (length 1)"


class TestSharedAnalysis:
    """All commands on one ideal read one analysis state."""

    def test_dot_analyze_does_the_work_of_text(self, capsys, tmp_path,
                                               monkeypatch):
        counts = {}
        for fmt in ("text", "dot"):
            with monkeypatch.context() as m:
                components = count_calls(m, MonomialIdeal,
                                         "irreducible_components")
                code, _, _ = invoke(
                    capsys, "ring Q[x,y,z,v]\nideal I = (x*y, x*z)\nanalyze I",
                    "--format", fmt, tmp_path=tmp_path)
                assert code == 0
                counts[fmt] = len(components)
        assert counts["dot"] == counts["text"]

    @pytest.mark.parametrize("command,fmt", [
        ("analyze", "text"), ("analyze", "json"), ("analyze", "dot"),
        ("profile", "text"), ("profile", "json"),
        ("chain I from (x)", "text"), ("chain I from (x)", "json"),
        ("chain I from (x)", "dot"),
        ("poset", "text"), ("poset", "json"), ("poset", "dot")])
    def test_posets_built_only_for_renderings(self, capsys, tmp_path,
                                              monkeypatch, command, fmt):
        """Witness chains read the monomial ideal, so the poset is walked
        only by the poset command, once per command."""
        walks = count_calls(monkeypatch, spectra, "build_poset")
        run = (command if " " in command else f"{command} I")
        script = ("ring Q[x,y,z,v]\nideal I = (x*y, x*z)\n"
                  "ideal J = (x*y, x*z, x*v)\n"
                  f"{run}\n{run}\n{run.replace(' I', ' J', 1)}\n")
        code, out, _ = invoke(capsys, script, "--format", fmt,
                              tmp_path=tmp_path)
        assert code == 0 and len(out.splitlines()) >= 3
        assert len(walks) == (3 if command == "poset" else 0)

    def test_family_shares_the_analysis_of_the_same_ring(self, monkeypatch):
        """family example_ufd(2, 2) presents (x*y1, x*y2) over
        Q[x,y1,y2,z1,z2], which ufd_family.ncat then writes out by hand as
        J: analyze J reads the family's analysis, so the (y1,y2) witness
        chain is built once, and the chain command from (x) builds the
        only other chain."""
        built = count_calls(monkeypatch, analyzer, "construct_chain")
        outputs = run_script(parse_script(
            (ROOT / "demos" / "scripts" / "ufd_family.ncat").read_text()),
            AnalysisConfig(), "json")
        family = json.loads(next(outputs))
        assert family["witnesses"]["chain"][0] == ["y1", "y2"]
        assert len(built) == 1
        assert json.loads(next(outputs)) == family
        assert len(built) == 1
        assert len(list(outputs)) == 2
        assert len(built) == 2

    def test_each_family_statement_constructs_one_spec(self, monkeypatch):
        """The parser's FamilySpec is the statement the runner reads."""
        specs = count_calls(monkeypatch, FamilySpec, "__init__")
        outputs = run_script(parse_script(
            "family example_domain\nfamily prop41(2, 4)\n"),
            AnalysisConfig(), "json")
        assert len(list(outputs)) == 2
        assert len(specs) == 2

    def test_second_analyze_runs_no_buchberger(self, monkeypatch):
        calls = count_calls(monkeypatch, groebner, "buchberger")
        outputs = run_script(parse_script(
            "ring Q[x,y,z]\nideal I = (x*y - z^2, x^2 - y*z)\n"
            "analyze I\nanalyze I\n"), AnalysisConfig(), "text")
        first = next(outputs)
        ran = len(calls)
        assert ran > 0
        assert next(outputs) == first
        assert len(calls) == ran

    def test_twisted_cubic_analyze_makes_no_colon(self, monkeypatch):
        """Homogeneous input: the socle test and depth read one revlex
        basis per candidate instead of colon ideals."""
        colons = count_calls(monkeypatch, groebner.IdealHandle,
                             "quotient_element")
        out = next(run_script(parse_script(
            "ring Q[a,b,c,d]\nideal C = (a*c - b^2, a*d - b*c, b*d - c^2)\n"
            "analyze C\n"), AnalysisConfig(), "json"))
        report = json.loads(out)
        assert report["conditions"]["depth_ge2"] is True
        assert report["witnesses"]["regular_element"] == "a"
        assert colons == []

    def test_homogeneous_depth_0_analyze_makes_no_colon(self, monkeypatch):
        """No variable is regular and M is associated: the socle test
        reads each (I : x_i) off the basis with x_i moved last."""
        colons = count_calls(monkeypatch, groebner.IdealHandle,
                             "quotient_element")
        out = next(run_script(parse_script(
            "ring Q[x,y,z]\n"
            "ideal I = intersect((x + y), (x^2, y^2, z^2, x*y, x*z, y*z))\n"
            "analyze I\n"), AnalysisConfig(), "json"))
        assert json.loads(out)["conditions"]["depth_ge2"] is False
        assert colons == []

    @pytest.mark.parametrize("ideal,depth_ge2", [
        ("(x*y - z)", True),
    ], ids=["non-homogeneous"])
    def test_colon_path_still_taken(self, monkeypatch, ideal, depth_ge2):
        """Non-homogeneous input: the colon calculus decides, as before."""
        colons = count_calls(monkeypatch, groebner.IdealHandle,
                             "quotient_element")
        out = next(run_script(parse_script(
            f"ring Q[x,y,z]\nideal I = {ideal}\nanalyze I\n"),
            AnalysisConfig(), "json"))
        assert json.loads(out)["conditions"]["depth_ge2"] is depth_ge2
        assert colons

    @pytest.mark.parametrize("field", ["Q", "F32003"])
    @pytest.mark.parametrize("names,ideal,dim,depth_ge2", [
        ("x,y1,y2", "intersect((x + y1 - 2*y2), (y1 + y2, y2))", 2, False),
        ("x,y1,y2,y3",
         "intersect((x - y1 + 2*y2), (y1 + 2*y2 - y3, y2 - 2*y3, y3))",
         3, False),
    ], ids=["tilted-line-and-plane", "tilted-hyperplane-3-0"])
    def test_tilted_family_rings_run_no_buchberger(self, monkeypatch, field,
                                                   names, ideal, dim,
                                                   depth_ge2):
        """A family ring written as a meet of linear forms with one side
        principal is analyzed with no Buchberger run and no
        interreduction: its basis is one row reduction, and each moved
        basis the meet of the moved operands."""
        runs = count_calls(monkeypatch, groebner, "buchberger")
        reductions = count_calls(monkeypatch, groebner, "_reduce_basis")
        report = json.loads(next(run_script(parse_script(
            f"ring {field}[{names}]\nideal I = {ideal}\nanalyze I\n"),
            AnalysisConfig(), "json")))
        assert report["dim"] == dim
        assert report["conditions"]["depth_ge2"] is depth_ge2
        assert not runs and not reductions

    def test_non_homogeneous_depth_tests_membership_once(self, monkeypatch):
        """Each depth candidate f is tested for membership in I once, by
        is_regular_element, before its colon (I : f) is compared to I."""
        members = count_calls(monkeypatch, groebner.IdealHandle, "contains")
        outputs = run_script(parse_script(
            "ring Q[x,y,z,v]\nideal I = (x*y - z^3, x*z)\n"
            "ideal J = (x*y - v^2*z, x*z - y^3)\nanalyze I\nanalyze J\n"),
            AnalysisConfig(), "text")
        assert len(list(outputs)) == 2
        assert len(members) == 26

    def test_unused_unit_ideal_exits_0(self, capsys, tmp_path):
        code, out, err = invoke(capsys, "ring Q[x]\nideal I = (1)\n",
                                tmp_path=tmp_path)
        assert (code, out, err) == (0, "", "")

    def test_dot_analyze_without_chain_witness(self, capsys, tmp_path):
        """A noncatenary-domain verdict whose chain leaves the monomial
        subposet: the witness diagram draws Ass and M, with no edge."""
        script = ("ring Q[x0,x1,x2,x3]\n"
                  "ideal I = (x1*x3, x0*x1^2*x2^2*x3, x0*x2*x3^2)\n"
                  "analyze I\n")
        code, out, _ = invoke(capsys, script, "--format", "json",
                              tmp_path=tmp_path)
        payload = json.loads(out)
        assert payload["verdicts"]["noncat_domain"] is True
        assert payload["witnesses"]["chain"] is None
        code, out, _ = invoke(capsys, script, "--format", "dot",
                              tmp_path=tmp_path)
        assert code == 0
        assert out.startswith("digraph prime_chains {")
        assert "->" not in out

    def test_reference_to_another_ring_is_parse_error(self, capsys,
                                                      tmp_path):
        code, out, err = invoke(
            capsys, "ring Q[x,y]\nideal I = (x)\nring Q[x,y,z]\n"
            "ideal J = intersect(I, (z))\nanalyze J\n", tmp_path=tmp_path)
        assert code == 1 and out == ""
        assert "parse error" in err


class TestWitnessDiagram:
    """DOT analyze draws the report's witness chain with Ass and M, so it
    walks no poset and stops at no variable cap."""

    @pytest.mark.parametrize("n", [16, 18, 22])
    def test_cycle_edge_ideals(self, capsys, tmp_path, n):
        """The n-cycle's edge ideal has 2^n variable subsets, but its
        diagram grows with the report."""
        names = ", ".join(f"x{i}" for i in range(n))
        gens = ", ".join(f"x{i}*x{(i + 1) % n}" for i in range(n))
        code, out, _ = invoke(
            capsys, f"ring Q[{names}]\nideal I = ({gens})\nanalyze I\n",
            "--format", "dot", tmp_path=tmp_path)
        assert code == 0 and out.startswith("digraph prime_chains {")
        assert n != 16 or len(out.encode()) < 10_000

    @pytest.mark.parametrize("v", [18, 40])
    def test_above_poset_cap(self, capsys, tmp_path, v):
        names = ",".join(f"v{i}" for i in range(v))
        script = f"ring Q[{names}]\nideal I = (v0*v1)\nanalyze I\n"
        code, out, _ = invoke(capsys, script, "--format", "dot",
                              tmp_path=tmp_path)
        assert code == 0
        assert out.splitlines()[2:] == [
            '  "(v0)" [shape=box,style=filled,fillcolor=lightgray];',
            '  "(v1)" [shape=box,style=filled,fillcolor=lightgray];',
            f'  "({names})" [penwidth=2];',
            "}"]


class TestRegularityAtMin:
    SCRIPT = "ring {}[x,y,z]\nideal I = (x^2, x*y)\nanalyze I\n"

    def test_embedded_prime_reads_false(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, self.SCRIPT.format("Q"),
                              "--format", "json", tmp_path=tmp_path)
        report = json.loads(out)
        assert code == 0
        assert report["verdicts"]["regularity_at_min"] is False
        assert report["inconclusive"] == []

    def test_characteristic_p_still_refused(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, self.SCRIPT.format("F 5"),
                              "--format", "json", tmp_path=tmp_path)
        report = json.loads(out)
        assert code == 0
        assert report["verdicts"]["regularity_at_min"] is None
        assert report["inconclusive"] == [
            "regularity_at_min: unsupported (regularity remark check "
            "unavailable in characteristic p)"]


class TestRegularCarveOuts:
    """T a field or a DVR, read off the embedding dimension. Each of these
    rings is regular of dimension at most one, so every verdict is that of
    a regular local ring, with dim and profile local to the origin, every
    fact is exact, and analyze exits as profile does."""

    REGULAR = {
        "domain_completion": True, "noncat_domain": False,
        "ufd_completion": True, "noncat_ufd": False,
        "forced_cat_domain": True, "forced_cat_ufd": True,
        "mixed_class": False, "universally_catenary_obstructed": False,
        "regularity_at_min": True}

    @pytest.mark.parametrize("script,dim,code", [
        ("ring Q[x,y]\nideal I = (y)", 1, 0),
        ("ring Q[x,y]\nideal I = (x, y)", 0, 0),
        ("ring Q[x]\nideal I = (x + x^2)", 0, 0),
        ("ring Q[x,y]\nideal I = (y - x^2)", 1, 0),
        ("ring Q[x,y,z]\nideal I = intersect((x,y),(z-1))", 1, 0),
    ], ids=["dvr-monomial", "field-monomial", "field", "dvr",
            "dvr-component-away-from-origin"])
    def test_regular_ring(self, capsys, tmp_path, script, dim, code):
        got, out, _ = invoke(capsys, script + "\nanalyze I\n",
                             "--format", "json", tmp_path=tmp_path)
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert got == code
        assert (report["dim"], report["profile"]) == (dim, [dim])
        assert report["semantics"] == "monomial-exact"
        assert report["verdicts"] == self.REGULAR
        assert report["inconclusive"] == []
        profile_code, _, _ = invoke(capsys, script + "\nprofile I\n",
                                    tmp_path=tmp_path)
        assert got == profile_code


class TestIdealOutsideMaximal:
    """A generator with a nonzero constant term is a unit in K[[x]], so
    T = 0: no report, exit 2."""

    @pytest.mark.parametrize("script", [
        "ring Q[x,y]\nideal I = (x - y - 1)",
        "ring Q[x,y,z]\nideal I = (x*y - z - 1)",
        "ring Q[x]\nideal I = (x - 1)",
    ], ids=["x-y-1", "xy-z-1", "x-1"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_rejected(self, capsys, tmp_path, script, fmt):
        code, out, err = invoke(capsys, script + "\nanalyze I\n",
                                "--format", fmt, tmp_path=tmp_path)
        assert (code, out) == (2, "")
        assert "unsupported input class" in err
        assert "nonzero constant term" in err

    def test_global_dim_is_not_reported(self, capsys, tmp_path):
        """K[x,y,z]/((x^2, y) cap (z - 1)) has dimension 2, but its
        localization at the origin is K[x,y,z]/(x^2, y) there, of
        dimension 1: a non-homogeneous ring gets no dim."""
        script = ("ring Q[x,y,z]\nideal I = intersect((x^2, y), (z - 1))\n"
                  "analyze I\n")
        code, out, _ = invoke(capsys, script, "--format", "json",
                              tmp_path=tmp_path)
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert code == 2
        assert report["semantics"] == "unverified-completion"
        assert report["dim"] is None and report["profile"] is None
        assert report["inconclusive"][0].startswith("dim: ")
        assert not any(word in report["inconclusive"][0]
                       for word in ("inconclusive", "budget"))
        code, out, _ = invoke(capsys, script, tmp_path=tmp_path)
        assert code == 2
        dim_row = next(line for line in out.splitlines()
                       if line.startswith("dim T"))
        assert dim_row.split() == ["dim", "T", "inconclusive"]

    def test_component_away_from_origin_is_analyzed(self, capsys, tmp_path):
        """(x, y) cap (z - 1) lies in M although z - 1 does not."""
        code, out, _ = invoke(
            capsys, "ring Q[x,y,z]\nideal I = intersect((x,y),(z-1))\n"
                    "analyze I\n", tmp_path=tmp_path)
        assert code == 0
        assert out.startswith("ring ")
        assert "dim T" in out


class TestRegularCandidateBudget:
    """For monomial input the candidate budget bounds only the choice of
    the certificate; depth is decided without it."""

    def test_zero_budget_monomial_stays_decided(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[x,y1,y2,z1,z2]\nideal I = (x*y1, x*y2)\n"
                    "analyze I\n",
            "--budget-regular-candidates", "0", "--format", "json",
            tmp_path=tmp_path)
        report = json.loads(out)
        assert code == 0
        assert report["conditions"]["depth_ge2"] is True
        assert report["verdicts"]["ufd_completion"] is True
        assert report["verdicts"]["noncat_ufd"] is True
        assert report["witnesses"]["regular_element"] == "x + y1 + y2 + z1 + z2"
        assert report["inconclusive"] == []

    def test_zero_budget_homogeneous_stays_inconclusive(self, capsys,
                                                        tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[a,b,c,d]\n"
                    "ideal C = (a*c - b^2, a*d - b*c, b*d - c^2)\nanalyze C\n",
            "--budget-regular-candidates", "0", "--format", "json",
            tmp_path=tmp_path)
        report = json.loads(out)
        assert code == 2
        assert report["conditions"]["depth_ge2"] is None
        assert report["verdicts"]["ufd_completion"] is None
        assert report["inconclusive"][0] == (
            "depth_ge2: inconclusive: no regular element among the first 0 "
            "candidates")

    def test_zero_budget_refuted_by_dim_one(self, capsys, tmp_path):
        """A search that ends without a regular element refutes depth >= 2
        when dim T <= 1, since depth T <= dim T/P for associated P."""
        code, out, _ = invoke(
            capsys, "ring Q[x,y]\nideal I = (x^2 - y^2)\nanalyze I\n",
            "--budget-regular-candidates", "0", "--format", "json",
            tmp_path=tmp_path)
        report = json.loads(out)
        assert code == 2
        assert report["dim"] == 1
        assert report["conditions"]["depth_ge2"] is False
        assert report["verdicts"]["ufd_completion"] is False
        assert not any(s.startswith("depth_ge2")
                       for s in report["inconclusive"])
        assert ("depth_ge2 refuted: dim T = 1, and depth T <= dim T/P for "
                "every associated P") in report["notes"]


class TestStamp:
    """A report is stamped monomial-exact exactly when every value is
    exact for T: no dim, profile, condition or verdict is null, except
    regularity_at_min in characteristic p, whose remark is not a fact of
    T. Every other report is stamped unverified-completion and exits 2."""

    EXTRA = ("ring F7[x,y,z,v]\nideal A = (x*y, x*z)\nanalyze A\n"
             "ring F7[x,y]\nideal B = (y - x^2)\nanalyze B\n"
             "ring Q[x,y,z]\nideal C = intersect((x^2, y), (z - 1))\n"
             "analyze C\n")

    def test_stamp_reads_the_nulls(self, capsys, tmp_path):
        scripts = [p.read_text() for p in
                   sorted((ROOT / "demos" / "scripts").glob("*.ncat"))]
        stamps = set()
        for text in scripts + [self.EXTRA]:
            code, out, _ = invoke(capsys, text, "--format", "json",
                                  tmp_path=tmp_path)
            reports = [r for r in map(json.loads, out.splitlines())
                       if "semantics" in r]
            for r in reports:
                values = [r["dim"], r["profile"], *r["conditions"].values(),
                          *(v for k, v in r["verdicts"].items()
                            if k != "regularity_at_min")]
                exact = None not in values
                assert (r["semantics"] == "monomial-exact") == exact, r
                assert bool(r["inconclusive"]) == (
                    not exact or r["verdicts"]["regularity_at_min"] is None)
                stamps.add(r["semantics"])
            flagged = any(r["semantics"] != "monomial-exact"
                          for r in reports)
            assert code == (2 if flagged else 0)
        assert stamps == {"monomial-exact", "unverified-completion"}


class TestExitCodes:
    def test_parse_error_exits_1(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "ideal I = (x)", tmp_path=tmp_path)
        assert code == 1
        assert "parse error" in err

    def test_large_prime_characteristic_exits_0(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring F 2305843009213693951[x,y]\nideal I = (x*y)\n"
                    "analyze I\n", tmp_path=tmp_path)
        assert code == 0
        assert out.startswith("ring               F2305843009213693951[[x,y]]")

    def test_characteristic_from_2_to_the_64_exits_1(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "ring F 18446744073709551629[x,y]\nideal I = (x)\n",
            tmp_path=tmp_path)
        assert code == 1
        assert "parse error (semantic): line 1, col 6" in err
        assert "below 2^64" in err

    def test_high_exponent_homogeneous_exits_2(self, capsys, tmp_path):
        """The socle test moves a variable last and substitutes into
        x^999 - y^999; the report comes out, with no traceback."""
        code, out, err = invoke(
            capsys, "ring Q[x,y]\nideal I = (x^999 - y^999)\nanalyze I\n",
            tmp_path=tmp_path)
        assert code == 2 and err == ""
        assert out.startswith("ring             Q[[x,y]]/(x^999 - y^999)")
        assert "depth_ge2=false" in out

    def test_budget_exceeded_exits_3(self, capsys, tmp_path):
        script = ("ring Q[x,y,z]\n"
                  "ideal I = (x^2 + y*z, y^2 + x*z, z^2 + x*y)\n"
                  "analyze I\n")
        code, _, err = invoke(capsys, script, "--budget-gb-steps", "2",
                              tmp_path=tmp_path)
        assert code == 3
        assert "budget" in err

    def test_tilted_budget_exceeded_exits_3(self, capsys, tmp_path):
        """Two lines in a tilted plane. The generators are a reduced basis
        with coprime leading terms, so the handle's own basis fits in a
        budget of zero steps. The last variable y2 is a zero-divisor and no
        generator of (I : y2) is a socle element, so the socle test moves x
        last, and that basis, which needs one step, runs out of budget."""
        script = ("ring Q[x,y1,y2]\n"
                  "ideal I = (y1*y2, x + y1 - 2*y2)\n"
                  "analyze I\n")
        code, out, err = invoke(capsys, script, "--budget-gb-steps", "0",
                                tmp_path=tmp_path)
        assert code == 3 and out == ""
        assert "groebner step budget exceeded" in err

    def test_linear_intersection_budget_exceeded_exits_3(self, capsys,
                                                         tmp_path):
        """An intersection of linear forms, rank 2 on both sides, draws on
        the step budget in its Buchberger run."""
        script = ("ring Q[x,y,z,w]\n"
                  "ideal I = intersect((x, y), (x + z, y + w))\n"
                  "analyze I\n")
        code, out, err = invoke(capsys, script, "--budget-gb-steps", "0",
                                tmp_path=tmp_path)
        assert code == 3 and out == ""
        assert "groebner step budget exceeded" in err

    @pytest.mark.parametrize("v", [18, 40])
    @pytest.mark.parametrize("command,fmt", [("poset", "text"),
                                             ("poset", "json"),
                                             ("poset", "dot")])
    def test_poset_cap_exits_3(self, capsys, tmp_path, command, fmt, v):
        """Every whole-poset rendering stops at the cap. The 40-variable
        ring finishing at all shows the cap is checked before the 2^v
        walk starts."""
        names = ",".join(f"v{i}" for i in range(v))
        script = f"ring Q[{names}]\nideal I = (v0*v1)\n{command} I\n"
        code, out, err = invoke(capsys, script, "--format", fmt,
                                tmp_path=tmp_path)
        assert code == 3 and out == ""
        assert "resource budget exceeded" in err

    @pytest.mark.parametrize("flag", ["--budget-gb-steps",
                                      "--budget-regular-candidates"])
    def test_negative_count_exits_2(self, capsys, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "ring Q[x,y]\nideal I = (x*y)\nanalyze I\n",
                   flag, "-1", tmp_path=tmp_path)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "usage:" in err and "nonnegative" in err

    def test_non_integer_count_exits_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "ring Q[x,y]\nideal I = (x*y)\nanalyze I\n",
                   "--budget-gb-steps", "abc", tmp_path=tmp_path)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "usage:" in err
        assert "expected a nonnegative integer, got 'abc'" in err

    def test_poset_cap_is_not_an_option(self, capsys, tmp_path):
        """The 16-variable poset cap is fixed: the flag that moved it is
        gone, so argparse refuses it."""
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "ring Q[x,y]\nideal I = (x*y)\nposet I\n",
                   "--max-poset-vars", "20", tmp_path=tmp_path)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "usage:" in err and "unrecognized arguments" in err

    def test_missing_file_exits_1(self, capsys):
        code = main(["/nonexistent/script.ncat"])
        captured = capsys.readouterr()
        assert code == 1 and "cannot read" in captured.err

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.ncat"
        path.write_bytes(b"ring Q[x,y]\n\xff\n")
        code = main([str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("cannot read script: ")
        assert "can't decode byte 0xff" in captured.err

    @staticmethod
    def run_stdin(data):
        """(exit code, stdout, stderr) of `noncat -` fed `data` in a
        subprocess, so that stdin is a real byte stream."""
        proc = subprocess.run([sys.executable, "-m", "noncat.cli", "-"],
                              input=data, env=CLI_ENV, capture_output=True,
                              timeout=60)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def test_stdin_script(self):
        code, out, err = self.run_stdin(
            "ring Q[x,y]\nideal I = (x*y)\nprofile I\n".encode())
        assert (code, out, err) == (0, "profile {1, 1}\n", "")

    def test_non_utf8_stdin_exits_1(self):
        """Bytes on stdin are decoded as strictly as a file's."""
        code, out, err = self.run_stdin(b"ring Q[x]\n\xff\n")
        assert code == 1 and out == ""
        assert err.startswith("cannot read script: ")
        assert "can't decode byte 0xff" in err

    def test_closed_output_exits_1_quietly(self, tmp_path):
        """A reader that closes stdout after one line, as `noncat s | head
        -1` does, gets exit 1 and nothing on stderr: no traceback, and no
        failed flush at interpreter exit. The script prints far more than
        a pipe holds, so the closed pipe is always written to."""
        script = tmp_path / "script.ncat"
        script.write_text("ring Q[x,y]\nideal I = (x*y)\n"
                          + "analyze I\n" * 2000)
        with open(tmp_path / "err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "noncat.cli", str(script)],
                env=CLI_ENV, stdout=subprocess.PIPE, stderr=err)
            assert proc.stdout.readline().startswith(b"ring ")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
        assert (tmp_path / "err").read_bytes() == b""

    def test_fuzzed_invalid_inputs_never_exit_0(self, capsys, tmp_path):
        rng = random.Random(999)
        base = "ring Q[x,y]\nideal I = (x*y)\nanalyze I\n"
        mutations = [
            base.replace("ring", "rng"),
            base.replace("(", "", 1),
            base[: len(base) // 2],
            base.replace("I", "J", 1),
            "analyze I\n",
            "ring Q[x,y]\nideal I = (x*y)\nchain I from (q)\n",
            "family prop41(9, 3)\n",
            "ring Q[x+y]\n",
            "".join(rng.choice("ringdeal()=xyz*^, \n") for _ in range(60)),
            base + "\x00garbage",
        ]
        for text in mutations:
            code, _, err = invoke(capsys, text, tmp_path=tmp_path)
            assert code != 0, f"mutation unexpectedly accepted: {text!r}"


class TestReportText:
    def test_renders_every_section(self):
        ring, _ = instantiate(FamilySpec("example_ufd", (2, 2)))
        text = report_text(analyze(ring))
        for fragment in ("ring", "profile", "minimal primes", "verdicts",
                         "ufd witness Q'", "regular element"):
            assert fragment in text

    def test_zero_prime_is_labelled_like_the_poset(self, capsys, tmp_path):
        """The zero ideal's one minimal and associated prime reads (0) in
        the report, as in the poset rendering, never ()."""
        code, out, _ = invoke(
            capsys, "ring Q[x,y]\nideal D = (0)\nanalyze D\nposet D\n",
            tmp_path=tmp_path)
        assert code == 0 and "()" not in out
        lines = out.splitlines()
        assert "minimal primes     (0)  dim 2  height 0" in lines
        assert "associated primes  (0)" in lines
        assert "(0)  dim 2  height 0  [min,ass]" in lines
