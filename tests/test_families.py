"""The golden family corpus: instantiation, parameter validation, and
field-for-field agreement between the expected and actual reports."""

import itertools

import pytest

from noncat.analyzer import analyze
from noncat.errors import FamilyParameterError
from noncat.families import (
    FAMILY_KINDS,
    FamilySpec,
    expected_mismatches,
    instantiate,
)
from noncat.groebner import IdealHandle
from noncat.poly import RATIONALS, variables


def closed_form(kind, params):
    """(a, b) of the family ring K[[x, y1..ya, z1..zb]]/((x) cap (y1..ya))
    as the paper gives it for each kind."""
    if kind == "example_domain":
        return 2, 1
    if kind == "example_catenary":
        return params[0], 0
    if kind == "example_ufd":
        return params
    m, n = params
    return n - m + 1, m - 1


def valid_specs(max_variables):
    """Every valid spec whose ring has at most `max_variables` variables,
    found by trying all small parameters and keeping those that construct."""
    specs = []
    for kind in FAMILY_KINDS:
        for params in [(), *((n,) for n in range(max_variables + 1)),
                       *itertools.product(range(max_variables + 1), repeat=2)]:
            try:
                spec = FamilySpec(kind, params)
            except FamilyParameterError:
                continue
            if 1 + sum(closed_form(kind, params)) <= max_variables:
                specs.append(spec)
    return specs


class TestInstantiation:
    def test_ufd_2_2_shape(self):
        ring, expected = instantiate(FamilySpec("example_ufd", (2, 2)))
        assert ring.context.names == ("x", "y1", "y2", "z1", "z2")
        assert [str(g) for g in ring.generators] == ["x*y1", "x*y2"]
        assert expected["dim"] == 4
        assert expected["profile"] == [4, 3]

    def test_prop41_parameter_translation(self):
        # (m, n) = (2, 3) gives a = 2, b = 1
        ring, expected = instantiate(FamilySpec("prop41", (2, 3)))
        assert ring.context.names == ("x", "y1", "y2", "z1")
        assert expected["profile"] == [3, 2]

    def test_catenary_2_shape(self):
        ring, expected = instantiate(FamilySpec("example_catenary", (2,)))
        assert ring.context.names == ("x", "y1", "y2")
        assert expected["profile"] == [2, 1]

    def test_domain_example_names(self):
        ring, expected = instantiate(FamilySpec("example_domain"))
        assert ring.context.names == ("x", "y", "z", "v")
        assert [str(g) for g in ring.generators] == ["x*y", "x*z"]
        assert expected["profile"] == [3, 2]


class TestConstraints:
    @pytest.mark.parametrize("kind,params,fragment", [
        ("example_catenary", (1,), "n > 1"),
        ("example_ufd", (1, 2), "a > 1"),
        ("example_ufd", (2, 1), "b > 1"),
        ("prop41", (1, 3), "m > 1"),
        ("prop41", (3, 3), "m < n"),
        ("prop42", (2, 4), "m > 2"),
        ("prop42", (4, 3), "m < n"),
    ])
    def test_violations_name_the_inequality(self, kind, params, fragment):
        with pytest.raises(FamilyParameterError) as err:
            FamilySpec(kind, params)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("kind,params,message", [
        ("example_catenary", (-1,),
         "example_catenary requires n > 1 (got n = -1)"),
        ("example_ufd", (0, 0), "example_ufd requires a > 1 (got a = 0)"),
        ("prop41", (1, 0), "prop41 requires m > 1 (got m = 1)"),
        ("prop42", (3, -1), "prop42 requires m < n (got m = 3, n = -1)"),
        ("prop41", (1.5,), "prop41 takes 2 parameter(s), got 1"),
        ("prop41", (1, 0.5), "prop41 parameters must be integers, got 0.5"),
    ])
    def test_first_violation_is_reported(self, kind, params, message):
        """Arity, then integrality, then each lower bound in parameter
        order, then m < n."""
        with pytest.raises(FamilyParameterError) as err:
            FamilySpec(kind, params)
        assert str(err.value) == message

    def test_unknown_kind(self):
        with pytest.raises(FamilyParameterError):
            FamilySpec("example_field", ())

    def test_wrong_arity(self):
        with pytest.raises(FamilyParameterError):
            FamilySpec("example_ufd", (2,))

    def test_params_are_stored_as_a_tuple(self):
        spec = FamilySpec("example_catenary", [3])
        assert spec.params == (3,)
        assert spec == FamilySpec("example_catenary", (3,))
        assert hash(spec) == hash(("example_catenary", (3,)))
        assert FamilySpec(kind="example_domain") == FamilySpec(
            "example_domain", ())
        assert repr(FamilySpec("prop41", (2, 4))) == (
            "FamilySpec(kind='prop41', params=(2, 4))")

    @pytest.mark.parametrize("params", [(2.5,), ("3",), (True,), (None,)])
    def test_non_integer_params_rejected(self, params):
        with pytest.raises(FamilyParameterError, match="must be integers"):
            FamilySpec("example_catenary", params)

    def test_non_integer_second_param_rejected(self):
        with pytest.raises(FamilyParameterError, match="got 2.0"):
            FamilySpec("example_ufd", (2, 2.0))

    def test_valid_spec_constructs(self):
        spec = FamilySpec("prop42", (3, 5))
        assert (spec.kind, spec.params) == ("prop42", (3, 5))


class TestSpecGrid:
    SPECS = valid_specs(10)

    def test_grid_covers_every_kind(self):
        assert len(self.SPECS) == 79
        assert {spec.kind for spec in self.SPECS} == set(FAMILY_KINDS)

    @pytest.mark.parametrize(
        "spec", SPECS, ids=lambda s: f"{s.kind}{s.params}".replace(" ", ""))
    def test_ring_and_report_match_the_closed_form(self, spec):
        a, b = closed_form(spec.kind, spec.params)
        ring, expected = instantiate(spec)
        names = (("x", "y", "z", "v") if spec.kind == "example_domain" else
                 ("x", *(f"y{i}" for i in range(1, a + 1)),
                  *(f"z{i}" for i in range(1, b + 1))))
        assert ring.context.names == names
        x, *rest = variables(RATIONALS, ring.context)
        meet = IdealHandle(RATIONALS, ring.context, (x,)).intersection(
            IdealHandle(RATIONALS, ring.context, rest[:a]))
        assert ring.generators == meet.generators
        assert expected["dim"] == a + b
        assert expected["profile"] == [a + b, b + 1]
        report = analyze(ring).to_json_dict()
        assert expected_mismatches(report, expected) == []


class TestExpectedAgainstActual:
    @pytest.mark.parametrize("spec", [
        FamilySpec("example_domain"),
        FamilySpec("example_catenary", (2,)),
        FamilySpec("example_catenary", (5,)),
        FamilySpec("example_ufd", (2, 2)),
        FamilySpec("example_ufd", (3, 2)),
        FamilySpec("example_ufd", (2, 4)),
        FamilySpec("prop41", (2, 3)),
        FamilySpec("prop41", (3, 6)),
        FamilySpec("prop42", (3, 4)),
        FamilySpec("prop42", (4, 7)),
    ])
    def test_reports_match(self, spec):
        ring, expected = instantiate(spec)
        assert ring.context.count <= 12
        report = analyze(ring).to_json_dict()
        assert expected_mismatches(report, expected) == []

    def test_prop42_always_satisfies_ufd_conditions(self):
        for m, n in itertools.combinations(range(3, 8), 2):
            ring, _ = instantiate(FamilySpec("prop42", (m, n)))
            report = analyze(ring)
            assert report.verdicts["noncat_ufd"] is True

    def test_prop41_with_m_two_never_does(self):
        for n in range(3, 7):
            ring, _ = instantiate(FamilySpec("prop41", (2, n)))
            report = analyze(ring)
            assert report.verdicts["noncat_ufd"] is False
            assert report.verdicts["noncat_domain"] is True


class TestMismatchHelper:
    def test_reports_differences(self):
        actual = {"dim": 3, "verdicts": {"noncat_domain": True}}
        problems = expected_mismatches(
            actual, {"dim": 4, "verdicts": {"noncat_domain": True,
                                            "noncat_ufd": False}})
        assert any("dim" in p for p in problems)
        assert any("noncat_ufd" in p for p in problems)

    def test_mapping_expected_where_the_report_has_a_value(self):
        actual = {"verdicts": True, "witnesses": {"P": ["y"]}}
        assert expected_mismatches(actual, {
            "verdicts": {"noncat_domain": True},
            "witnesses": {"P": ["y", "z"]}}) == [
            "verdicts: expected a mapping, got True",
            "witnesses.P: expected ['y', 'z'], got ['y']"]

    def test_accepts_subset(self):
        actual = {"dim": 3, "profile": [3, 2], "extra": "ignored"}
        assert expected_mismatches(actual, {"dim": 3}) == []
