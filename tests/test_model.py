import math

import pytest

from relaygain import LinkGains, OperatingPoint, Protocol, ValidationError
from relaygain.errors import DeadLinkError


class TestLinkGains:
    def test_zero_gain_is_representable(self):
        gains = LinkGains(0.0, 1.0, 2.0)
        assert gains.h12 == 0.0

    def test_require_alive_raises_with_link_name(self):
        gains = LinkGains(1.0, 0.0, 2.0)
        with pytest.raises(DeadLinkError) as err:
            gains.require_alive("h13", "h23")
        assert err.value.link == "h13"

    @pytest.mark.parametrize("bad", [(-1.0, 1, 1), (1, math.inf, 1), (1, 1, math.nan)])
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
