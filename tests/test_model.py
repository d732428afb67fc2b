import math

import pytest

from relaygain import Flow, LinkGains, OperatingPoint, Protocol, RelayCandidate, ValidationError
from relaygain.model import _check_finite, _check_positive


class TestLinkGains:
    @pytest.mark.parametrize("bad", [(-1.0, 1, 1), (1, math.inf, 1), (1, 1, math.nan),
                                     (0.0, 1, 1), (1, 0.0, 1), (1, 1, -0.0)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationError):
            LinkGains(*bad)

    def test_integer_past_the_float_range_is_invalid(self):
        # float() of such an integer raises OverflowError, not a ValidationError
        for bad in (10 ** 400, -10 ** 400, 10 ** 5000):
            with pytest.raises(ValidationError) as err:
                LinkGains(1.0, bad, 1.0)
            assert str(err.value) == "h13 must be finite, got an integer past the float range"


class TestOperatingPoint:
    def test_epsilon2_is_derived(self):
        op = OperatingPoint(epsilon=0.5, k=3.0)
        assert op.epsilon2 == 1.5

    @pytest.mark.parametrize("eps,k", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                       (math.inf, 1.0), (1.0, math.nan)])
    def test_rejects_invalid(self, eps, k):
        with pytest.raises(ValidationError):
            OperatingPoint(eps, k)

    def test_integer_past_the_float_range_is_invalid(self):
        with pytest.raises(ValidationError, match="^k must be finite, got an integer past"):
            OperatingPoint(1.0, 10 ** 309)


def test_protocol_is_two_valued():
    assert {p.value for p in Protocol} == {"NCP", "CP"}


class TestNames:
    """Names reach one-line messages and output lines, so they must be printable."""

    @pytest.mark.parametrize("bad", ["a\nb", "\r", "\u2028", "\x00"])
    def test_candidate_id_must_be_printable(self, bad):
        with pytest.raises(ValidationError) as err:
            RelayCandidate(bad, 1.0, 1.0)
        assert str(err.value) == f"candidate id must be printable, got {bad!r}"
        assert "\n" not in str(err.value)

    def test_candidate_id_keeps_its_type_message(self):
        for bad in ("", 7, None):
            with pytest.raises(ValidationError, match="^candidate id must be a non-empty string"):
                RelayCandidate(bad, 1.0, 1.0)

    @pytest.mark.parametrize("source, destination, name, bad", [
        ("x\ny", "t", "source", "x\ny"), ("s", "\u2028", "destination", "\u2028"),
        (7, "t", "source", 7), ("s", None, "destination", None)])
    def test_flow_names_must_be_printable_strings(self, source, destination, name, bad):
        with pytest.raises(ValidationError) as err:
            Flow(source, destination, 1.0, 1.0, 1.0)
        assert str(err.value) == f"flow {name} must be a printable string, got {bad!r}"


class _Float(float):
    pass


class TestChecks:
    """The exact-float fast path of _check_finite and _check_positive leaves every
    other input on the general path: its messages and its conversion to float."""

    @pytest.mark.parametrize("value, message", [
        (True, "v must be a real number, got True"),
        (False, "v must be a real number, got False"),
        ("1.0", "v must be a real number, got '1.0'"),
        (None, "v must be a real number, got None"),
        (10 ** 400, "v must be finite, got an integer past the float range"),
        (math.inf, "v must be finite, got inf"),
        (-math.inf, "v must be finite, got -inf"),
        (math.nan, "v must be finite, got nan"),
        (_Float("inf"), "v must be finite, got inf"),
        (_Float("nan"), "v must be finite, got nan"),
    ])
    @pytest.mark.parametrize("check", [_check_finite, _check_positive])
    def test_rejected_values_keep_their_messages(self, check, value, message):
        with pytest.raises(ValidationError) as err:
            check("v", value)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, message", [
        (0.0, "v must be > 0, got 0.0"), (-0.0, "v must be > 0, got -0.0"),
        (-1.5, "v must be > 0, got -1.5"), (0, "v must be > 0, got 0.0"),
        (-3, "v must be > 0, got -3.0"), (_Float(-2.0), "v must be > 0, got -2.0"),
        (-5e-324, "v must be > 0, got -5e-324"),
    ])
    def test_non_positive_values_keep_their_messages(self, value, message):
        assert _check_finite("v", value) == value
        with pytest.raises(ValidationError) as err:
            _check_positive("v", value)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [1.5, 5e-324, 1.7976931348623157e308, 3, 2 ** 100,
                                       _Float(2.5)])
    @pytest.mark.parametrize("check", [_check_finite, _check_positive])
    def test_accepted_values_come_back_as_floats(self, check, value):
        result = check("v", value)
        assert type(result) is float and result == value
