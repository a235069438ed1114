"""The command-line pipeline: dispatch, output formats, the published
JSON schema, and exit codes."""

import json
import random

import jsonschema
import pytest

from noncat.analyzer import analyze
from noncat.cli import REPORT_SCHEMA, main, report_text
from noncat.families import (
    FAMILY_KINDS,
    FamilySpec,
    expected_mismatches,
    instantiate,
)


def run_cli(capsys, text, *args):
    code = main([*args]) if text is None else None
    return code


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
    def test_profile_text(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "ring Q[x,y,z,v]\nideal I = (x*y, x*z)\nprofile I",
            tmp_path=tmp_path)
        assert code == 0
        assert out.strip() == "profile {3, 2}"

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


class TestExitCodes:
    def test_parse_error_exits_1(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "ideal I = (x)", tmp_path=tmp_path)
        assert code == 1
        assert "parse error" in err

    def test_budget_exceeded_exits_3(self, capsys, tmp_path):
        script = ("ring Q[x,y,z]\n"
                  "ideal I = (x^2 + y*z, y^2 + x*z, z^2 + x*y)\n"
                  "analyze I\n")
        code, _, err = invoke(capsys, script, "--budget-gb-steps", "2",
                              tmp_path=tmp_path)
        assert code == 3
        assert "budget" in err

    def test_poset_cap_exits_3(self, capsys, tmp_path):
        names = ",".join(f"v{i}" for i in range(18))
        script = (f"ring Q[{names}]\nideal I = (v0*v1)\nposet I\n")
        code, _, err = invoke(capsys, script, tmp_path=tmp_path)
        assert code == 3

    def test_missing_file_exits_1(self, capsys):
        code = main(["/nonexistent/script.ncat"])
        captured = capsys.readouterr()
        assert code == 1 and "cannot read" in captured.err

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
