"""Domain vocabulary: channel gains, operating points, relay candidates and
flows, protocols, allocations.

All rates are in nats (natural logarithm throughout); gain ratios are
base-invariant. The shared resource budget is normalized to one unit,
of which a transmitter holding share ``beta`` achieves

    R = beta * ln(1 + h * eps / beta)

for channel energy gain ``h`` and transmit-energy-to-received-noise
ratio (TERN) ``eps``. All types are immutable and all operations pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DeadLinkError, ValidationError


class Protocol(str, Enum):
    """The two transmission modes for a source/partner pair."""

    NCP = "NCP"  # both users transmit directly over disjoint resource shares
    CP = "CP"    # partner decodes the source first, then forwards both messages


def _check_finite(name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = _check_finite(name, value)
    if value <= 0.0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


@dataclass(frozen=True)
class LinkGains:
    """Channel energy gains of a source(1)/relay(2)/destination(3) triple.

    A gain of exactly zero marks a dead link; it is representable, but any
    solver whose equations involve that link raises DeadLinkError instead
    of producing infinities.
    """

    h12: float
    h13: float
    h23: float

    def __post_init__(self):
        for name in ("h12", "h13", "h23"):
            value = _check_finite(name, getattr(self, name))
            if value < 0.0:
                raise ValidationError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)

    def require_alive(self, *links: str) -> None:
        for link in links:
            if getattr(self, link) == 0.0:
                raise DeadLinkError(link)


@dataclass(frozen=True)
class OperatingPoint:
    """TERN of user 1 and the fairness rate ratio k = R2/R1 = eps2/eps1.

    User 2's TERN is always derived as ``k * epsilon`` and never stored.
    """

    epsilon: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_positive("epsilon", self.epsilon))
        object.__setattr__(self, "k", _check_positive("k", self.k))

    @property
    def epsilon2(self) -> float:
        return self.k * self.epsilon


@dataclass(frozen=True)
class RelayCandidate:
    """A potential partner with its source-side and destination-side gains."""

    id: str
    h_sr: float
    h_rd: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError(f"candidate id must be a non-empty string, got {self.id!r}")
        object.__setattr__(self, "h_sr", _check_positive("h_sr", self.h_sr))
        object.__setattr__(self, "h_rd", _check_positive("h_rd", self.h_rd))


@dataclass(frozen=True)
class Flow:
    """One source->destination demand with its own operating point and candidates."""

    source: str
    destination: str
    h_sd: float
    epsilon: float
    k: float
    rate: float | None = None
    candidates: tuple[RelayCandidate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "h_sd", _check_positive("h_sd", self.h_sd))
        object.__setattr__(self, "epsilon", _check_positive("epsilon", self.epsilon))
        object.__setattr__(self, "k", _check_positive("k", self.k))
        if self.rate is not None:
            object.__setattr__(self, "rate", _check_positive("rate", self.rate))
        object.__setattr__(self, "candidates", tuple(self.candidates))


@dataclass(frozen=True)
class Allocation:
    """Optimal resource split for one protocol under the fairness constraint.

    ``beta`` is user 1's share, ``base_rate`` user 1's rate R1;
    rate2 = k*R1 and sum_rate = (k+1)*R1 are carried for convenience.
    """

    protocol: Protocol
    beta: float
    base_rate: float
    rate2: float
    sum_rate: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValidationError(f"beta must lie in (0, 1), got {self.beta!r}")
        if self.base_rate < 0.0:
            raise ValidationError(f"base_rate must be >= 0, got {self.base_rate!r}")


@dataclass(frozen=True)
class GainReport:
    """Ratio of CP to NCP base rate (equals the sum-rate ratio)."""

    gain: float
    ncp: Allocation
    cp: Allocation
    collaborate: bool
