"""Relay selection among candidate partners, and per-flow network decisions.

Rate mode ranks candidates by the low-TERN score

    min{h_sr, h_rd * k/(k+1)} / h_sd,

the CP chord bound over the direct gain. It equals the limit the
collaboration gain approaches as eps -> 0 (bounds.low_tern_gain_limit)
only where h_rd >= h_sd, since that limit divides by min{h_sd, h_rd}: at
h_sd = 1, h_sr = 4, h_rd = 0.5, k = 1 the score is 0.25 and the limit 0.5.
The top-scored candidate is confirmed with the exact solvers at the actual
operating point, and selection falls back to direct transmission unless
the confirmed gain exceeds one. A confirm is collaboration_gain on raw
floats, with no records built: allocation._gain of the NCP and then the
CP base rate from allocation._rates, so the same bits and the same errors.

Resource mode screens every (candidate, protocol) option for servability:
the rate must lie below the chord feasibility bound and both users' slots
must exist. It picks the servable option with the least total resource
usage. Both users of a pair are billed: the partner's own-traffic slot
depends on its downlink, so direct-transmission options are costed per
candidate pair. The shares at an option's two Newton starts bound its total
from below (energy._slot_bound). Options are solved in ascending bound
order until the next bound exceeds the best total, when no remaining option
can win or tie. Each start is computed once (energy._slot_start) and serves
both the bound and the solve: user 1's start, bound and slot once per
first-hop gain, so once for all NCP pairs, and each partner's start once
per option. The decision is the one solving every
option gives. A slot error is the one the first failing option in
candidate order raises; an option pruned by its bound is never solved, so
its slot cannot fail the selection. The violations of NoFeasibleOptionError
are formatted only when it is raised.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .allocation import _gain, _rates
# unused here; bench/spans.py hooks the gain where this module binds it
from .allocation import collaboration_gain  # noqa: F401
from .energy import _pair_slots, _shortfall, _slot_bound, _slot_start, _solve_slot
from .errors import NoFeasibleOptionError, RelayGainError, ValidationError
from .model import Flow, OperatingPoint, Protocol, RelayCandidate, _check_positive

# eps*h above this marks the rough high-TERN advisory: direct transmission
# tends to win once received energy dwarfs noise.
ADVISORY_THRESHOLD = 10.0


class _SelectionDecision(NamedTuple):
    protocol: Protocol
    relay_id: str | None
    criterion_value: float
    exact_gain: float | None = None
    high_tern_advisory: bool = False


class SelectionDecision(_SelectionDecision):
    """Chosen protocol, chosen relay (absent for NCP) and the driving number."""

    __slots__ = ()

    def __new__(cls, protocol: Protocol, relay_id: str | None, criterion_value: float,
                exact_gain: float | None = None, high_tern_advisory: bool = False):
        if (protocol is Protocol.NCP) != (relay_id is None):
            raise ValidationError("relay_id must be present exactly when protocol is CP")
        return tuple.__new__(cls, (protocol, relay_id, criterion_value, exact_gain,
                                   high_tern_advisory))


class FlowResult(NamedTuple):
    """Per-flow outcome: a decision, or the error that prevented one."""

    source: str
    destination: str
    decision: SelectionDecision | None
    error: str | None = None


def rate_energy_score(h_sd: float, cand: RelayCandidate, k: float) -> float:
    """Low-TERN score of a candidate, the CP chord bound over h_sd; invariant under
    common gain scaling."""
    return _score(_check_positive("h_sd", h_sd), cand, _check_positive("k", k))


def _score(h_sd: float, cand: RelayCandidate, k: float) -> float:
    """rate_energy_score on values already validated."""
    return min(cand.h_sr, cand.h_rd * k / (k + 1.0)) / h_sd


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
    eps, k = op.epsilon, op.k
    ranked = sorted(candidates, key=lambda c: (-_score(h_sd, c, k), c.id))
    best: tuple[float, RelayCandidate] | None = None
    last_error: RelayGainError | None = None
    for cand in ranked:
        try:
            # collaboration_gain(LinkGains(cand.h_sr, h_sd, cand.h_rd), op).gain, NCP solved first
            gain = _gain(_rates(k, h_sd, cand.h_rd, eps, k)[1],
                         _rates(k + 1.0, cand.h_sr, cand.h_rd, eps, k)[1])
        except RelayGainError as exc:
            last_error = exc
            continue
        if not confirm_all:
            best = (gain, cand)
            break
        if best is None or gain > best[0]:
            best = (gain, cand)
    if best is None:
        raise last_error
    gain, cand = best
    advisory = _advisory(op, h_sd, cand.h_sr, cand.h_rd)
    if gain > 1.0:
        return SelectionDecision(Protocol.CP, cand.id, _score(h_sd, cand, k),
                                 exact_gain=gain, high_tern_advisory=advisory)
    return SelectionDecision(Protocol.NCP, None, _score(h_sd, cand, k),
                             exact_gain=gain, high_tern_advisory=advisory)


def select_relay_resource(h_sd: float, candidates: list[RelayCandidate] | tuple[RelayCandidate, ...],
                          op: OperatingPoint, rate: float) -> SelectionDecision:
    """Pick the feasible (candidate, protocol) option with least total usage."""
    h_sd = _check_positive("h_sd", h_sd)
    rate = _check_positive("rate", rate)
    eps, k = op.epsilon, op.k

    if not candidates:
        # direct transmission: the slot's own guard is the bound
        if not rate < eps * h_sd:
            raise NoFeasibleOptionError([f"NCP(direct): rate {rate!r} >= bound {eps * h_sd!r}"])
        return SelectionDecision(Protocol.NCP, None, _solve_slot(h_sd, eps, rate),
                                 high_tern_advisory=_advisory(op, h_sd))

    # user 1's slot depends only on its first-hop gain: its Newton start, bound and
    # value are taken once per gain; each partner's start serves its bound and its solve
    firsts: dict[float, tuple[tuple, float]] = {}
    slots: dict[float, float] = {}
    options: list[tuple[float, int, str, Protocol, RelayCandidate, float, float, tuple]] = []
    failed: list[tuple[Protocol, str, tuple[str, float, str, float]]] = []
    # the partner's TERN, and its target k*rate under NCP, (k + 1)*rate under CP
    partner_eps, targets = k * eps, (k * rate, (k + 1.0) * rate)
    for cand in sorted(candidates, key=lambda c: c.id):
        for rank, protocol, h_first in ((0, Protocol.NCP, h_sd), (1, Protocol.CP, cand.h_sr)):
            shortfall = _shortfall(protocol, h_first, cand.h_rd, eps, k, rate)
            if shortfall is None:
                if h_first not in firsts:
                    start = _slot_start(h_first, eps, rate)
                    firsts[h_first] = start, _slot_bound(h_first, eps, rate, start=start)
                target = targets[rank]
                start = _slot_start(cand.h_rd, partner_eps, target)
                options.append((firsts[h_first][1]
                                + _slot_bound(cand.h_rd, partner_eps, target, start=start),
                                rank, cand.id, protocol, cand, h_first, target, start))
            else:
                failed.append((protocol, cand.id, shortfall))
    if not options:
        raise NoFeasibleOptionError([
            "{}: {} {!r} >= {} {!r}".format(
                f"NCP(pair {cand_id})" if protocol is Protocol.NCP else f"CP({cand_id})",
                *shortfall)
            for protocol, cand_id, shortfall in failed])
    # an option's total is at least its bound: once the next bound exceeds the best
    # total, no option left can win or tie it
    best = None
    try:
        for bound, rank, cand_id, protocol, cand, h_first, target, start in sorted(options):
            if best is not None and bound > best[0]:
                break
            if h_first not in slots:
                slots[h_first] = _solve_slot(h_first, eps, rate, start=firsts[h_first][0])
            option = (slots[h_first] + _solve_slot(cand.h_rd, partner_eps, target, start=start),
                      rank, cand_id, protocol, cand)
            if best is None or option < best:
                best = option
    except RelayGainError:
        # raise the error of the first failing option in candidate order, whichever
        # failing option the bounds reached first
        for _, _, _, protocol, cand, h_first, _, _ in options:
            _pair_slots(protocol, h_first, cand.h_rd, eps, k, rate)
        raise
    total, _, _, protocol, cand = best
    if total == math.inf:
        raise ValidationError(f"{protocol.value}: the least total usage lies outside the float "
                              "range")
    return SelectionDecision(protocol, cand.id if protocol is Protocol.CP else None, total,
                             high_tern_advisory=_advisory(op, h_sd, cand.h_sr, cand.h_rd))


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
