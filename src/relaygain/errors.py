"""Exception hierarchy for relaygain.

Every solver failure is a structured exception carrying the offending
quantities, so callers (and the CLI exit-code mapping) can distinguish
bad inputs (ValidationError) from numerical/feasibility failures.
"""

from __future__ import annotations


class RelayGainError(Exception):
    """Base class for all relaygain errors."""


class ValidationError(RelayGainError, ValueError):
    """Invalid argument or malformed input document."""


class NoSignChangeError(RelayGainError):
    """Root bracketing failed: f has the same sign at both endpoints."""

    def __init__(self, lo: float, hi: float, f_lo: float, f_hi: float):
        self.lo, self.hi, self.f_lo, self.f_hi = lo, hi, f_lo, f_hi
        super().__init__(
            f"no sign change on [{lo!r}, {hi!r}]: f(lo)={f_lo!r}, f(hi)={f_hi!r}"
        )


class NaNResidualError(RelayGainError):
    """A residual evaluated to NaN, so it has no sign to bracket a root with."""

    def __init__(self, x: float):
        self.x = x
        super().__init__(f"residual is NaN at {x!r}: no sign to bracket a root with")


class IterationLimitError(RelayGainError):
    """A root solve exceeded max_iter; carries the last bracket reached."""

    def __init__(self, lo: float, hi: float, iterations: int):
        self.lo, self.hi, self.iterations = lo, hi, iterations
        super().__init__(
            f"no convergence after {iterations} iterations; last bracket [{lo!r}, {hi!r}]"
        )


class InfeasibleRateError(RelayGainError):
    """A demand at or above what it must stay below: `quantity` and `limit` name
    the pair, such as a rate and its chord bound, or a slot's target and its chord."""

    def __init__(self, protocol: str, rate: float, bound: float, quantity: str, limit: str):
        self.protocol, self.rate, self.bound = protocol, rate, bound
        super().__init__(
            f"{protocol}: {quantity} {rate!r} is not servable "
            f"(requires {quantity} < {limit} {bound!r})"
        )


class NoFeasibleOptionError(RelayGainError):
    """Relay selection found no protocol/candidate combination that is feasible."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("no feasible option: " + "; ".join(self.violations))


class GeometryError(RelayGainError):
    """Degenerate node placement (coincident nodes or overflowing gains)."""
