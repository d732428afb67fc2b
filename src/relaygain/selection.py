"""Relay selection among candidate partners, and per-flow network decisions.

Rate mode ranks candidates by the low-TERN score

    min{h_sr, h_rd * k/(k+1)} / h_sd

(the limit the collaboration gain approaches as eps -> 0), confirms the
top candidate with the exact solvers at the actual operating point, and
falls back to direct transmission unless the confirmed gain exceeds one.

Resource mode screens every (candidate, protocol) option against the
chord feasibility bounds and picks the feasible option with the least
total resource usage. Both users of a pair are billed: the partner's
own-traffic slot depends on its downlink, so direct-transmission options
are costed per candidate pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .allocation import collaboration_gain
from .energy import _pair_slots, _solve_slot, feasibility_bound
from .errors import NoFeasibleOptionError, RelayGainError, ValidationError
from .model import Flow, LinkGains, OperatingPoint, Protocol, RelayCandidate, _check_positive

# eps*h above this marks the rough high-TERN advisory: direct transmission
# tends to win once received energy dwarfs noise.
ADVISORY_THRESHOLD = 10.0


@dataclass(frozen=True)
class SelectionDecision:
    """Chosen protocol, chosen relay (absent for NCP) and the driving number."""

    protocol: Protocol
    relay_id: str | None
    criterion_value: float
    exact_gain: float | None = None
    high_tern_advisory: bool = False

    def __post_init__(self):
        if (self.protocol is Protocol.NCP) != (self.relay_id is None):
            raise ValidationError("relay_id must be present exactly when protocol is CP")


@dataclass(frozen=True)
class FlowResult:
    """Per-flow outcome: a decision, or the error that prevented one."""

    source: str
    destination: str
    decision: SelectionDecision | None
    error: str | None = None


def rate_energy_score(h_sd: float, cand: RelayCandidate, k: float) -> float:
    """Low-TERN gain score of a candidate; invariant under common gain scaling."""
    h_sd = _check_positive("h_sd", h_sd)
    k = _check_positive("k", k)
    return min(cand.h_sr, cand.h_rd * k / (k + 1.0)) / h_sd


def _pair_gains(h_sd: float, cand: RelayCandidate) -> LinkGains:
    return LinkGains(h12=cand.h_sr, h13=h_sd, h23=cand.h_rd)


def _advisory(op: OperatingPoint, *gains: float) -> bool:
    return op.epsilon * min(gains) > ADVISORY_THRESHOLD


def select_relay_rate(h_sd: float, candidates: list[RelayCandidate] | tuple[RelayCandidate, ...],
                      op: OperatingPoint, confirm_all: bool = False) -> SelectionDecision:
    """Pick a relay (or none) to maximize rate at the given operating point.

    With confirm_all=True every candidate is confirmed with the exact
    solvers and the best exact gain wins; otherwise only the top-scored
    candidate is confirmed, per the two-stage procedure.
    """
    h_sd = _check_positive("h_sd", h_sd)
    if not candidates:
        return SelectionDecision(Protocol.NCP, None, 0.0,
                                 high_tern_advisory=_advisory(op, h_sd))
    ranked = sorted(candidates, key=lambda c: (-rate_energy_score(h_sd, c, op.k), c.id))

    def confirmed(cand: RelayCandidate) -> float:
        return collaboration_gain(_pair_gains(h_sd, cand), op).gain

    best: tuple[float, RelayCandidate] | None = None
    last_error: RelayGainError | None = None
    for cand in ranked:
        try:
            gain = confirmed(cand)
        except RelayGainError as exc:
            last_error = exc
            continue
        if not confirm_all:
            best = (gain, cand)
            break
        if best is None or gain > best[0]:
            best = (gain, cand)
    if best is None:
        raise last_error if last_error is not None else ValidationError("no usable candidate")
    gain, cand = best
    advisory = _advisory(op, h_sd, cand.h_sr, cand.h_rd)
    if gain > 1.0:
        return SelectionDecision(Protocol.CP, cand.id, rate_energy_score(h_sd, cand, op.k),
                                 exact_gain=gain, high_tern_advisory=advisory)
    return SelectionDecision(Protocol.NCP, None, rate_energy_score(h_sd, cand, op.k),
                             exact_gain=gain, high_tern_advisory=advisory)


def _pair_usage(protocol: Protocol, h_sd: float, pair: LinkGains | None,
                op: OperatingPoint, rate: float) -> float:
    """Total resource used by the pair (source slot + partner slot), for a rate
    that `select_relay_resource` has checked against the pair's bound."""
    if pair is None:
        return _solve_slot(h_sd, op.epsilon, rate)
    h_first = pair.h13 if protocol is Protocol.NCP else pair.h12
    beta1, beta2 = _pair_slots(protocol, h_first, pair.h23, op, rate)
    return beta1 + beta2


def select_relay_resource(h_sd: float, candidates: list[RelayCandidate] | tuple[RelayCandidate, ...],
                          op: OperatingPoint, rate: float) -> SelectionDecision:
    """Pick the feasible (candidate, protocol) option with least total usage."""
    h_sd = _check_positive("h_sd", h_sd)
    rate = _check_positive("rate", rate)
    eps, k = op.epsilon, op.k

    options: list[tuple[float, int, str, Protocol, str | None, RelayCandidate | None]] = []
    violations: list[str] = []

    def consider(protocol: Protocol, cand: RelayCandidate | None, pair: LinkGains | None,
                 label: str):
        bound = eps * (h_sd if pair is None else feasibility_bound(protocol, pair, k))
        if rate < bound:
            total = _pair_usage(protocol, h_sd, pair, op, rate)
            rank = 0 if protocol is Protocol.NCP else 1
            options.append((total, rank, cand.id if cand else "", protocol,
                            cand.id if protocol is Protocol.CP else None, cand))
        else:
            violations.append(f"{label}: rate {rate!r} >= bound {bound!r}")

    if not candidates:
        consider(Protocol.NCP, None, None, "NCP(direct)")
    for cand in sorted(candidates, key=lambda c: c.id):
        pair = _pair_gains(h_sd, cand)
        consider(Protocol.NCP, cand, pair, f"NCP(pair {cand.id})")
        consider(Protocol.CP, cand, pair, f"CP({cand.id})")

    if not options:
        raise NoFeasibleOptionError(violations)
    total, _, _, protocol, relay_id, cand = min(options)
    involved = (h_sd,) if cand is None else (h_sd, cand.h_sr, cand.h_rd)
    return SelectionDecision(protocol, relay_id, total,
                             high_tern_advisory=_advisory(op, *involved))


def evaluate_network(flows: list[Flow] | tuple[Flow, ...], mode: str) -> list[FlowResult]:
    """Apply the per-flow selection independently; errors never abort the batch."""
    if mode not in ("rate", "resource"):
        raise ValidationError(f"mode must be 'rate' or 'resource', got {mode!r}")
    if not flows:
        raise ValidationError("flows must be non-empty")
    results = []
    for flow in flows:
        op = OperatingPoint(flow.epsilon, flow.k)
        try:
            if mode == "rate":
                decision = select_relay_rate(flow.h_sd, flow.candidates, op)
            else:
                if flow.rate is None:
                    raise ValidationError(
                        f"flow {flow.source}->{flow.destination} needs 'rate' in resource mode")
                decision = select_relay_resource(flow.h_sd, flow.candidates, op, flow.rate)
            results.append(FlowResult(flow.source, flow.destination, decision))
        except RelayGainError as exc:
            results.append(FlowResult(flow.source, flow.destination, None, error=str(exc)))
    return results
