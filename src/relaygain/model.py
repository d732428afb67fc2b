"""Domain vocabulary: channel gains, operating points, relay candidates and
flows, protocols, allocations.

All rates are in nats (natural logarithm throughout); gain ratios are
base-invariant. The shared resource budget is normalized to one unit,
of which a transmitter holding share ``beta`` achieves

    R = beta * ln(1 + h * eps / beta)

for channel energy gain ``h`` and transmit-energy-to-received-noise
ratio (TERN) ``eps``. All operations are pure.

Records are immutable named tuples: they unpack, index and compare equal
to plain tuples of their fields. A record that validates its fields does
so in ``__new__``, on a subclass of its named-tuple base (a NamedTuple
body may not define ``__new__``); ``_replace`` and ``_make`` skip it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import ValidationError


class Protocol(str, Enum):
    """The two transmission modes for a source/partner pair."""

    NCP = "NCP"  # both users transmit directly over disjoint resource shares
    CP = "CP"    # partner decodes the source first, then forwards both messages


def _past_float_range(name: str) -> ValidationError:
    """The error for an integer that float() cannot convert (OverflowError)."""
    return ValidationError(f"{name} must be finite, got an integer past the float range")


def _check_finite(name: str, value: float) -> float:
    if type(value) is float and math.isfinite(value):
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise _past_float_range(name) from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    if type(value) is float and 0.0 < value < math.inf:
        return value
    value = _check_finite(name, value)
    if value <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


class _LinkGains(NamedTuple):
    h12: float
    h13: float
    h23: float


class LinkGains(_LinkGains):
    """Channel energy gains of a source(1)/relay(2)/destination(3) triple.

    Each gain is a path-loss gain d^-eta, positive and finite; a zero gain,
    as where d^-eta underflows, is a ValidationError naming the link.
    """

    __slots__ = ()

    def __new__(cls, h12: float, h13: float, h23: float):
        return tuple.__new__(cls, (_check_positive("h12", h12), _check_positive("h13", h13),
                                   _check_positive("h23", h23)))


class _OperatingPoint(NamedTuple):
    epsilon: float
    k: float


class OperatingPoint(_OperatingPoint):
    """TERN of user 1 and the fairness rate ratio k = R2/R1 = eps2/eps1.

    User 2's TERN is always derived as ``k * epsilon`` and never stored.
    """

    __slots__ = ()

    def __new__(cls, epsilon: float, k: float):
        return tuple.__new__(cls, (_check_positive("epsilon", epsilon), _check_positive("k", k)))

    @property
    def epsilon2(self) -> float:
        return self.k * self.epsilon


class _RelayCandidate(NamedTuple):
    id: str
    h_sr: float
    h_rd: float


class RelayCandidate(_RelayCandidate):
    """A potential partner with its source-side and destination-side gains."""

    __slots__ = ()

    def __new__(cls, id: str, h_sr: float, h_rd: float):
        if not isinstance(id, str) or not id:
            raise ValidationError(f"candidate id must be a non-empty string, got {id!r}")
        if not id.isprintable():
            raise ValidationError(f"candidate id must be printable, got {id!r}")
        return tuple.__new__(cls, (id, _check_positive("h_sr", h_sr),
                                   _check_positive("h_rd", h_rd)))


class _Flow(NamedTuple):
    source: str
    destination: str
    h_sd: float
    epsilon: float
    k: float
    rate: float | None = None
    candidates: tuple[RelayCandidate, ...] = ()


class Flow(_Flow):
    """One source->destination demand with its own operating point and candidates."""

    __slots__ = ()

    def __new__(cls, source: str, destination: str, h_sd: float, epsilon: float, k: float,
                rate: float | None = None, candidates: tuple[RelayCandidate, ...] = ()):
        for name, value in (("source", source), ("destination", destination)):
            if not (isinstance(value, str) and value.isprintable()):
                raise ValidationError(f"flow {name} must be a printable string, got {value!r}")
        return tuple.__new__(cls, (
            source, destination, _check_positive("h_sd", h_sd),
            _check_positive("epsilon", epsilon), _check_positive("k", k),
            None if rate is None else _check_positive("rate", rate), tuple(candidates)))


class _Allocation(NamedTuple):
    protocol: Protocol
    beta: float
    base_rate: float
    rate2: float
    sum_rate: float


class Allocation(_Allocation):
    """Optimal resource split for one protocol under the fairness constraint.

    ``beta`` is user 1's share, ``base_rate`` user 1's rate R1;
    rate2 = k*R1 and sum_rate = (k+1)*R1 are carried for convenience.
    """

    __slots__ = ()

    def __new__(cls, protocol: Protocol, beta: float, base_rate: float, rate2: float,
                sum_rate: float):
        if not 0.0 < beta < 1.0:
            raise ValidationError(f"beta must lie in (0, 1), got {beta!r}")
        if base_rate < 0.0:
            raise ValidationError(f"base_rate must be >= 0, got {base_rate!r}")
        return tuple.__new__(cls, (protocol, beta, base_rate, rate2, sum_rate))


class GainReport(NamedTuple):
    """Ratio of CP to NCP base rate (equals the sum-rate ratio)."""

    gain: float
    ncp: Allocation
    cp: Allocation
    collaborate: bool
