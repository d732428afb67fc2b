import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import relaygain.energy as energy
import relaygain.selection as selection
from relaygain import (Flow, LinkGains, OperatingPoint, Protocol, RelayCandidate,
                       SelectionDecision, collaboration_gain, evaluate_network,
                       rate_energy_score, select_relay_rate, select_relay_resource)
from relaygain.energy import _pair_slots, _shortfall, _slot_bound
from relaygain.errors import NoFeasibleOptionError, RelayGainError, ValidationError
from support import bench_module


class TestScore:
    def test_balanced_candidate(self):
        assert rate_energy_score(1.0, RelayCandidate("a", 4.0, 4.0), 1.0) == 2.0

    def test_second_hop_bottleneck(self):
        assert rate_energy_score(1.0, RelayCandidate("a", 9.0, 1.0), 1.0) == 0.5

    def test_colocated_relay_never_wins(self):
        for k in (0.2, 1.0, 5.0):
            score = rate_energy_score(2.0, RelayCandidate("a", 2.0, 2.0), k)
            assert score == pytest.approx(k / (k + 1.0))
            assert score < 1.0

    @settings(max_examples=60, deadline=None)
    @given(scale=st.floats(1e-3, 1e3), h_sd=st.floats(0.1, 10),
           h_sr=st.floats(0.1, 10), h_rd=st.floats(0.1, 10), k=st.floats(0.1, 10))
    def test_scale_invariance(self, scale, h_sd, h_sr, h_rd, k):
        base = rate_energy_score(h_sd, RelayCandidate("a", h_sr, h_rd), k)
        scaled = rate_energy_score(h_sd * scale,
                                   RelayCandidate("a", h_sr * scale, h_rd * scale), k)
        assert scaled == pytest.approx(base, rel=1e-12)


def smaller_draws(seed, count):
    """(h_sd, candidate, k): gains and k log-uniform in e^±30, then exact ties of
    h_sr with h_rd*k/(k + 1) and of h_sd with either gain, then NaN gains (unvalidated,
    through _replace), which tell min()'s rule from its mirror image where a tie cannot."""
    rng = random.Random(seed)
    for _ in range(count):
        h_sd, h_sr, h_rd, k = (math.exp(rng.uniform(-30.0, 30.0)) for _ in range(4))
        yield h_sd, RelayCandidate("a", h_sr, h_rd), k
    for h_sr, h_rd, k in ((0.7, 1.4, 1.0), (3.0, 6.0, 1.0), (1.0, 4.0, 1.0 / 3.0),
                          (2.0, 4.0, 1.0)):
        assert h_sr == h_rd * k / (k + 1.0)
        yield 1.0, RelayCandidate("a", h_sr, h_rd), k
        yield h_sr, RelayCandidate("a", h_sr, h_rd), k
        yield h_rd, RelayCandidate("a", h_sr, h_rd), k
    for h_sr, h_rd in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
        yield 1.0, RelayCandidate("a", 1.0, 1.0)._replace(h_sr=h_sr, h_rd=h_rd), 1.0
        yield math.nan, RelayCandidate("a", 2.0, 3.0)._replace(h_sr=h_sr, h_rd=h_rd), 1.0


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestSmallerAsMin:
    """_score and _advisory take the smaller gain without calling min(), by min()'s
    own rule: the first unless a later one is strictly less."""

    def test_score(self):
        for h_sd, cand, k in smaller_draws(47, 3000):
            want = min(cand.h_sr, cand.h_rd * k / (k + 1.0)) / h_sd
            assert same(selection._score(h_sd, cand, k), want), (h_sd, cand, k)

    def test_advisory(self):
        for h_sd, cand, k in smaller_draws(53, 3000):
            # eps at the threshold over each gain, and twice that
            for h in (h_sd, cand.h_sr, cand.h_rd):
                for eps in (selection.ADVISORY_THRESHOLD / h,
                            2.0 * selection.ADVISORY_THRESHOLD / h):
                    if not 0.0 < eps < math.inf:
                        continue
                    op = OperatingPoint(eps, k)
                    got = selection._advisory(op, h_sd, cand.h_sr, cand.h_rd)
                    assert got is (eps * min(h_sd, cand.h_sr, cand.h_rd)
                                   > selection.ADVISORY_THRESHOLD), (h_sd, cand, eps)
                    assert selection._advisory(op, h_sd) is (
                        eps * h_sd > selection.ADVISORY_THRESHOLD)


class TestSelectRelayRate:
    def test_strong_candidate_selected(self):
        op = OperatingPoint(1e-4, 1.0)
        decision = select_relay_rate(
            1.0, [RelayCandidate("a", 4.0, 4.0), RelayCandidate("b", 9.0, 1.0)], op)
        assert decision.protocol is Protocol.CP
        assert decision.relay_id == "a"
        assert decision.criterion_value == pytest.approx(2.0)
        assert decision.exact_gain == pytest.approx(2.0, rel=1e-2)

    def test_high_tern_falls_back_to_direct(self):
        decision = select_relay_rate(1.0, [RelayCandidate("a", 1.0, 1.0)],
                                     OperatingPoint(1e8, 1.0))
        assert decision.protocol is Protocol.NCP
        assert decision.relay_id is None
        assert decision.exact_gain == pytest.approx(2.0 / 3.0, rel=1e-2)
        assert decision.high_tern_advisory

    def test_empty_candidates_forces_direct(self):
        decision = select_relay_rate(1.0, [], OperatingPoint(1.0, 1.0))
        assert decision.protocol is Protocol.NCP
        assert decision.relay_id is None
        assert decision.exact_gain is None

    def test_tie_breaks_by_identifier(self):
        op = OperatingPoint(1e-4, 1.0)
        cands = [RelayCandidate("b", 4.0, 4.0), RelayCandidate("a", 4.0, 4.0)]
        assert select_relay_rate(1.0, cands, op).relay_id == "a"


def gain_confirmed_rate(h_sd, candidates, op, confirm_all=False):
    """select_relay_rate with each candidate confirmed by collaboration_gain: the
    reference that its raw-float confirms must match bitwise, errors included."""
    ranked = sorted(candidates, key=lambda c: (-rate_energy_score(h_sd, c, op.k), c.id))
    best = last_error = None
    for cand in ranked:
        try:
            gain = collaboration_gain(LinkGains(cand.h_sr, h_sd, cand.h_rd), op).gain
        except RelayGainError as exc:
            last_error = exc
            continue
        if best is None or gain > best[0]:
            best = (gain, cand)
        if not confirm_all:
            break
    if best is None:
        raise last_error
    gain, cand = best
    return SelectionDecision(Protocol.CP if gain > 1.0 else Protocol.NCP,
                             cand.id if gain > 1.0 else None,
                             rate_energy_score(h_sd, cand, op.k), exact_gain=gain,
                             high_tern_advisory=selection._advisory(op, h_sd, cand.h_sr,
                                                                     cand.h_rd))


def rate_outcome(select, h_sd, candidates, op, confirm_all):
    try:
        d = select(h_sd, candidates, op, confirm_all=confirm_all)
    except RelayGainError as exc:
        return type(exc), str(exc)
    return (d.protocol, d.relay_id, d.criterion_value.hex(), d.exact_gain.hex(),
            d.high_tern_advisory)


class TestRateConfirm:
    """A confirm computes collaboration_gain's ratio from allocation._rates."""

    @pytest.mark.parametrize("confirm_all", [False, True])
    @pytest.mark.parametrize("seed, lo, hi", [(4, 0.05, 20.0), (5, 1e-30, 1e30),
                                              (6, 1e-300, 1e300)])
    def test_seeded_draws_match_collaboration_gain(self, seed, lo, hi, confirm_all):
        raised = 0
        for h_sd, cands, op, _ in random_flows(seed, 400, lo, hi):
            if not cands:
                continue
            got = rate_outcome(select_relay_rate, h_sd, cands, op, confirm_all)
            assert got == rate_outcome(gain_confirmed_rate, h_sd, cands, op, confirm_all), (
                h_sd, cands, op)
            raised += not isinstance(got[0], Protocol)
        # the wide draws reach share solves that raise
        assert (raised > 0) is (hi > 20.0)

    @pytest.mark.parametrize("confirm_all", [False, True])
    def test_failing_share_solve_raises_as_collaboration_gain(self, confirm_all):
        # the CP share of gains (1e12, 1, 1e-12) at k = 0.01 has no sign change
        op, cand = OperatingPoint(1.0, 0.01), RelayCandidate("a", 1e12, 1e-12)
        with pytest.raises(RelayGainError) as want:
            collaboration_gain(LinkGains(1e12, 1.0, 1e-12), op)
        with pytest.raises(RelayGainError) as got:
            select_relay_rate(1.0, [cand], op, confirm_all=confirm_all)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
        assert type(got.value).__name__ == "NoSignChangeError"
        # confirming every candidate passes over the one that raises
        b = RelayCandidate("b", 8.0, 8.0)
        d = select_relay_rate(1.0, [cand, b], op, confirm_all=True)
        assert (d.criterion_value, d.exact_gain) == (
            rate_energy_score(1.0, b, op.k), collaboration_gain(LinkGains(8.0, 1.0, 8.0), op).gain)


class TestSelectRelayResource:
    def test_both_feasible_winner_by_usage(self):
        decision = select_relay_resource(1.0, [RelayCandidate("r", 8.0, 8.0)],
                                         OperatingPoint(1.0, 1.0), rate=0.9)
        assert decision.protocol is Protocol.CP
        assert decision.relay_id == "r"
        # frozen oracle totals: NCP pair 4.605069, CP 0.983004
        assert decision.criterion_value == pytest.approx(0.9830038, abs=1e-6)

    def test_infeasible_direct_forces_collaboration(self):
        decision = select_relay_resource(0.5, [RelayCandidate("r", 8.0, 8.0)],
                                         OperatingPoint(1.0, 1.0), rate=0.7)
        assert decision.protocol is Protocol.CP
        assert decision.relay_id == "r"

    def test_least_total_above_float_range_is_a_validation_error(self):
        # the one feasible option's two slots, ~9.03e307 each, sum to inf; a partner
        # with twice the gain needs a smaller slot, and its total is finite
        op, rate = OperatingPoint(4e292, 1.0), math.nextafter(4e292, 0)
        with pytest.raises(ValidationError, match="^NCP: the least total usage lies outside"):
            select_relay_resource(1.0, [RelayCandidate("a", 1.0, 1.0)], op, rate)
        decision = select_relay_resource(
            1.0, [RelayCandidate("a", 1.0, 1.0), RelayCandidate("b", 1.0, 2.0)], op, rate)
        assert math.isfinite(decision.criterion_value)

    def test_nothing_feasible_is_structured(self):
        with pytest.raises(NoFeasibleOptionError) as err:
            select_relay_resource(0.1, [RelayCandidate("r", 0.2, 0.2)],
                                  OperatingPoint(1.0, 1.0), rate=0.5)
        assert len(err.value.violations) == 2

    def test_partner_target_on_its_chord_is_a_violation(self):
        # rate < 2.5*1.2 holds, but 0.2*rate rounds onto the partner's chord 1.2*(0.2*2.5)
        op, rate = OperatingPoint(2.5, 0.2), 2.9999999999999996
        pair_a, pair_b = RelayCandidate("a", 1.0, 1.2), RelayCandidate("b", 10.0, 10.0)
        with pytest.raises(NoFeasibleOptionError) as err:
            select_relay_resource(2.0, [pair_a], op, rate)
        assert err.value.violations == [
            "NCP(pair a): partner target 0.6 >= chord 0.6",
            "CP(a): rate 2.9999999999999996 >= bound 0.5"]
        decision = select_relay_resource(2.0, [pair_a, pair_b], op, rate)
        assert (decision.protocol, decision.relay_id) == (Protocol.NCP, None)
        assert decision.criterion_value == pytest.approx(3.34457410437, rel=1e-11)

    def test_violations_in_candidate_order(self):
        # b fails both protocols on the rate bound; a fails NCP on the partner's chord
        # (0.2*rate rounds onto 1.2*(0.2*2.5)) and CP on the rate bound
        op, rate = OperatingPoint(2.5, 0.2), 2.9999999999999996
        with pytest.raises(NoFeasibleOptionError) as err:
            select_relay_resource(2.0, [RelayCandidate("b", 0.5, 0.25),
                                        RelayCandidate("a", 1.0, 1.2)], op, rate)
        assert err.value.violations == [
            "NCP(pair a): partner target 0.6 >= chord 0.6",
            "CP(a): rate 2.9999999999999996 >= bound 0.5",
            "NCP(pair b): rate 2.9999999999999996 >= bound 0.625",
            "CP(b): rate 2.9999999999999996 >= bound 0.10416666666666669"]
        assert str(err.value) == "no feasible option: " + "; ".join(err.value.violations)

    def test_winner_minimal_among_feasible_options(self):
        from relaygain.energy import _solve_slot
        rng = random.Random(13)
        for _ in range(25):
            h_sd = math.exp(rng.uniform(math.log(0.3), math.log(3)))
            op = OperatingPoint(1.0, 10 ** rng.uniform(-0.5, 0.5))
            cands = [RelayCandidate(f"c{i}",
                                    math.exp(rng.uniform(math.log(0.3), math.log(3))),
                                    math.exp(rng.uniform(math.log(0.3), math.log(3))))
                     for i in range(rng.randint(1, 4))]
            rate = 0.2 * h_sd
            totals = []
            for c in cands:
                k = op.k
                if rate < min(h_sd, c.h_rd):
                    totals.append(_solve_slot(h_sd, 1.0, rate)
                                  + _solve_slot(c.h_rd, k, k * rate))
                if rate < min(c.h_sr, c.h_rd * k / (k + 1)):
                    totals.append(_solve_slot(c.h_sr, 1.0, rate)
                                  + _solve_slot(c.h_rd, k, (k + 1) * rate))
            decision = select_relay_resource(h_sd, cands, op, rate)
            assert decision.criterion_value == pytest.approx(min(totals), rel=1e-10)

    def test_no_candidates_uses_direct_slot_only(self):
        decision = select_relay_resource(1.0, [], OperatingPoint(1.0, 1.0), rate=0.2)
        assert decision.protocol is Protocol.NCP
        assert decision.criterion_value == pytest.approx(0.0751766918, abs=1e-9)


def exhaustive_resource(h_sd, candidates, op, rate):
    """Reference resource selection: _pair_slots on every servable option, in
    candidate order, and the least (total, rank, id)."""
    eps, k = op.epsilon, op.k
    if not candidates:
        return select_relay_resource(h_sd, candidates, op, rate)
    options, violations = [], []
    for cand in sorted(candidates, key=lambda c: c.id):
        for rank, protocol, h_first, label in ((0, Protocol.NCP, h_sd, f"NCP(pair {cand.id})"),
                                               (1, Protocol.CP, cand.h_sr, f"CP({cand.id})")):
            shortfall = _shortfall(protocol, h_first, cand.h_rd, eps, k, rate)
            if shortfall is None:
                beta1, beta2 = _pair_slots(protocol, h_first, cand.h_rd, eps, k, rate)
                options.append((beta1 + beta2, rank, cand.id, protocol, cand))
            else:
                quantity, value, limit, limit_value = shortfall
                violations.append(f"{label}: {quantity} {value!r} >= {limit} {limit_value!r}")
    if not options:
        raise NoFeasibleOptionError(violations)
    total, _, _, protocol, cand = min(options)
    return SelectionDecision(protocol, cand.id if protocol is Protocol.CP else None, total,
                             high_tern_advisory=selection._advisory(op, h_sd, cand.h_sr, cand.h_rd))


def outcome(select, h_sd, candidates, op, rate):
    """What a selection gives, comparable bit for bit: a decision or a structured
    error. Any other exception fails the test that asks."""
    try:
        d = select(h_sd, candidates, op, rate)
    except RelayGainError as exc:
        return type(exc), str(exc)
    return d.protocol, d.relay_id, d.criterion_value.hex(), d.exact_gain, d.high_tern_advisory


def random_flows(seed, count, lo, hi):
    """(h_sd, candidates, op, rate): gains, eps and k log-uniform in [lo, hi], 0-8
    candidates, the rate 1e-3 to 4 times the direct chord bound."""
    rng = random.Random(seed)
    for _ in range(count):
        h_sd, eps, k = (math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(3))
        rate = math.exp(rng.uniform(math.log(1e-3), math.log(4.0))) * eps * h_sd
        cands = [RelayCandidate(f"c{j}", math.exp(rng.uniform(math.log(lo), math.log(hi))),
                                math.exp(rng.uniform(math.log(lo), math.log(hi))))
                 for j in range(rng.randint(0, 8))]
        yield h_sd, cands, OperatingPoint(eps, k), rate


def bench_flow_pool():
    for f in bench_module("workloads").flow_pool():
        yield (f["h_sd"], [RelayCandidate(*c) for c in f["candidates"]],
               OperatingPoint(f["epsilon"], f["k"]), f["rate"])


# the inputs of test_slot_extremes_do_not_abort_batch, and the FOUND k*eps overflow
# of CHANGES.md: gains (1, 1, 1), eps = 1e10, k = 1e299
EXTREME_FLOWS = [
    (1.0, [], OperatingPoint(1.0, 1.0), 1e-306),
    (1e300, [RelayCandidate("r", 1e300, 1e300)], OperatingPoint(1.0, 1.0), 1e-5),
    (1.0, [RelayCandidate("a", 1.0, 1.0)], OperatingPoint(1e10, 1e299), 1.0),
    # both options raise: CP has the lower bound, but NCP comes first in candidate order
    (1.5e-306, [RelayCandidate("a", 1.0, 1e10)], OperatingPoint(1.0, 1e-5), 1e-306),
]


class TestPrunedResourceSelection:
    """Bound-ordered pruning decides exactly what solving every option decides."""

    @pytest.mark.parametrize("seed, lo, hi", [(1, 0.05, 20.0), (2, 1e-30, 1e30)])
    def test_seeded_flows_match_exhaustive(self, seed, lo, hi):
        for flow in random_flows(seed, 500, lo, hi):
            assert outcome(select_relay_resource, *flow) == outcome(exhaustive_resource, *flow), flow

    def test_bench_flow_pool_matches_exhaustive(self):
        flows = list(bench_flow_pool())
        assert len(flows) == 3000
        for flow in flows:
            assert outcome(select_relay_resource, *flow) == outcome(exhaustive_resource, *flow), flow

    def test_extreme_flows_match_exhaustive(self):
        outcomes = [outcome(select_relay_resource, *flow) for flow in EXTREME_FLOWS]
        assert outcomes == [outcome(exhaustive_resource, *flow) for flow in EXTREME_FLOWS]
        assert outcomes[2] == (ValidationError,
                               "the share for rate 1e+299 is below the normal float range")
        assert outcomes[3] == (ValidationError,
                               "the share for rate 1e-311 is below the normal float range")

    def test_exact_ties_break_as_exhaustive(self):
        # NCP totals depend on h_sd and h_rd only: a and b tie, and so do their bounds;
        # the chosen candidate's h_sr sets the advisory, so the tie must go to "a"
        op = OperatingPoint(20.0, 1.0)
        for cands in ([RelayCandidate("b", 0.1, 2.0), RelayCandidate("a", 5.0, 2.0)],
                      [RelayCandidate("a", 5.0, 2.0), RelayCandidate("b", 0.1, 2.0)],
                      [RelayCandidate("b", 3.0, 3.0), RelayCandidate("a", 3.0, 3.0)]):
            for rate in (1.0, 5.0, 10.0, 30.0):
                flow = (1.0, cands, op, rate)
                assert outcome(select_relay_resource, *flow) == outcome(exhaustive_resource, *flow)
        d = select_relay_resource(1.0, [RelayCandidate("b", 0.1, 2.0),
                                        RelayCandidate("a", 5.0, 2.0)], op, 1.0)
        assert (d.protocol, d.relay_id, d.high_tern_advisory) == (Protocol.NCP, None, True)

    def test_wide_draws_raise_no_foreign_error(self):
        """Over gains, eps and k in 1e-300..1e300 no ValueError or OverflowError escapes.
        Pruning changes an outcome only where the exhaustive scan raised: every option
        that raises then has a bound above the chosen total."""
        pruned = 0
        for h_sd, cands, op, rate in random_flows(3, 1500, 1e-300, 1e300):
            if not 0.0 < rate < math.inf:
                continue
            got = outcome(select_relay_resource, h_sd, cands, op, rate)
            want = outcome(exhaustive_resource, h_sd, cands, op, rate)
            if got == want:
                continue
            assert want[0] is ValidationError and isinstance(got[0], Protocol), (got, want)
            pruned += 1
            eps, k = op.epsilon, op.k
            for cand in cands:
                for protocol, h_first in ((Protocol.NCP, h_sd), (Protocol.CP, cand.h_sr)):
                    if _shortfall(protocol, h_first, cand.h_rd, eps, k, rate) is not None:
                        continue
                    try:
                        _pair_slots(protocol, h_first, cand.h_rd, eps, k, rate)
                    except ValidationError:
                        kappa = k if protocol is Protocol.NCP else k + 1.0
                        bound = (_slot_bound(h_first, eps, rate)
                                 + _slot_bound(cand.h_rd, k * eps, kappa * rate))
                        assert bound > float.fromhex(got[2])
        assert pruned > 0

    def test_pruned_option_that_would_raise(self):
        # NCP's partner target k*rate = 1e-309 has a share below the normal float range,
        # but NCP's direct slot alone (r = 2/3) exceeds CP's total; the exhaustive scan
        # solves NCP first and raises, the pruned one never solves it
        flow = (1.5e-4, [RelayCandidate("a", 1.0, 1e302)], OperatingPoint(1.0, 1e-305), 1e-4)
        assert outcome(exhaustive_resource, *flow) == (
            ValidationError, "the share for rate 1e-309 is below the normal float range")
        d = select_relay_resource(*flow)
        assert (d.protocol, d.relay_id) == (Protocol.CP, "a")
        assert d.criterion_value == pytest.approx(3.623398928639826e-05, rel=1e-15)
        assert _slot_bound(1.5e-4, 1.0, 1e-4) > d.criterion_value

    def test_slot_solves_go_through_the_hooked_names(self, monkeypatch):
        """The benchmark counts slot solves by wrapping _solve_slot where energy and
        selection bind it; every solve of the pruned selection passes one of them."""
        solves = []
        solve_slot = energy._solve_slot

        def counting(*args, **kwargs):
            solves.append(args)
            return solve_slot(*args, **kwargs)

        monkeypatch.setattr(energy, "_solve_slot", counting)
        monkeypatch.setattr(selection, "_solve_slot", counting)
        cands = [RelayCandidate("a", 4.0, 4.0), RelayCandidate("b", 2.0, 0.5),
                 RelayCandidate("c", 0.8, 3.0), RelayCandidate("d", 6.0, 1.5)]
        d = select_relay_resource(1.0, cands, OperatingPoint(1.0, 1.0), 0.3)
        assert (d.protocol, d.relay_id) == (Protocol.NCP, None)
        assert d.criterion_value == 0.22042986849346258
        # seven servable options: 14 solves exhaustively; the direct slot once, and
        # only the options whose bounds reach the best total
        assert len(solves) == 6
        assert solves.count((1.0, 1.0, 0.3)) == 1

    def test_user1_slot_is_shared_by_first_hop_gain(self, monkeypatch):
        """User 1's slot depends only on its first-hop gain: a CP option whose h_sr
        equals h_sd reuses the NCP direct slot instead of solving it again."""
        solves = []
        solve_slot = energy._solve_slot

        def counting(*args, **kwargs):
            solves.append(args)
            return solve_slot(*args, **kwargs)

        monkeypatch.setattr(energy, "_solve_slot", counting)
        monkeypatch.setattr(selection, "_solve_slot", counting)
        flow = (1.0, [RelayCandidate("a", 1.0, 4.0), RelayCandidate("b", 1.0, 0.7)],
                OperatingPoint(1.0, 1.0), 0.5)
        d = select_relay_resource(*flow)
        assert (d.protocol, d.relay_id) == (Protocol.NCP, None)
        assert d.criterion_value == float.fromhex("0x1.18fab33a65540p-1")
        assert len(solves) == 3
        assert solves.count((1.0, 1.0, 0.5)) == 1
        monkeypatch.undo()
        assert outcome(select_relay_resource, *flow) == outcome(exhaustive_resource, *flow)

    def test_each_slot_start_is_computed_once(self, monkeypatch):
        """Each distinct (h, eps_user, target) of a servable option gets one Newton start,
        which bounds its slot and, if the option is solved, starts the solve."""
        starts, solves = [], []
        slot_start, solve_slot = energy._slot_start, energy._solve_slot

        def counting_start(*args):
            starts.append(args)
            return slot_start(*args)

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return solve_slot(*args, **kwargs)

        monkeypatch.setattr(energy, "_slot_start", counting_start)
        monkeypatch.setattr(selection, "_slot_start", counting_start)
        monkeypatch.setattr(energy, "_solve_slot", counting_solve)
        monkeypatch.setattr(selection, "_solve_slot", counting_solve)
        # "e" shares its first-hop gain with the direct link, so CP via "e" reuses
        # user 1's start of the NCP options
        h_sd, op, rate = 1.0, OperatingPoint(1.0, 2.0), 0.3
        cands = [RelayCandidate("a", 4.0, 4.0), RelayCandidate("b", 2.0, 0.5),
                 RelayCandidate("c", 0.8, 3.0), RelayCandidate("d", 6.0, 1.5),
                 RelayCandidate("e", 1.0, 2.5)]
        d = select_relay_resource(h_sd, cands, op, rate)
        assert (d.protocol, d.relay_id) == (Protocol.NCP, None)
        eps, k = op.epsilon, op.k
        wanted = set()
        for cand in cands:
            for protocol, h_first, kappa in ((Protocol.NCP, h_sd, k),
                                             (Protocol.CP, cand.h_sr, k + 1.0)):
                if _shortfall(protocol, h_first, cand.h_rd, eps, k, rate) is None:
                    wanted |= {(h_first, eps, rate), (cand.h_rd, k * eps, kappa * rate)}
        # ten servable options: five first-hop gains and ten partner slots
        assert len(wanted) == 15
        assert sorted(starts) == sorted(wanted)
        # the solved options start from the starts their bounds took
        assert len(solves) == 7


class TestEvaluateNetwork:
    def test_chained_flows(self):
        # one flow relays through a middle user which itself transmits directly
        flows = [
            Flow("u1", "u3", h_sd=1.0, epsilon=1e-3, k=1.0,
                 candidates=(RelayCandidate("u2", 8.0, 8.0),)),
            Flow("u2", "u4", h_sd=1.0, epsilon=1e-3, k=1.0),
        ]
        results = evaluate_network(flows, "rate")
        assert results[0].decision.protocol is Protocol.CP
        assert results[0].decision.relay_id == "u2"
        assert results[1].decision.protocol is Protocol.NCP

    def test_relay_chain_both_directions(self):
        flows = [
            Flow("u1", "u3", h_sd=0.5, epsilon=1e-3, k=1.0,
                 candidates=(RelayCandidate("u2", 6.0, 6.0),)),
            Flow("u2", "u4", h_sd=0.4, epsilon=1e-3, k=1.0,
                 candidates=(RelayCandidate("u3", 5.0, 5.0),)),
        ]
        results = evaluate_network(flows, "rate")
        assert results[0].decision.relay_id == "u2"
        assert results[1].decision.relay_id == "u3"

    def test_errors_do_not_abort_batch(self):
        flows = [
            Flow("u1", "u2", h_sd=0.1, epsilon=1.0, k=1.0, rate=0.5),
            Flow("u3", "u4", h_sd=1.0, epsilon=1.0, k=1.0, rate=0.2),
        ]
        results = evaluate_network(flows, "resource")
        assert results[0].decision is None and "no feasible option" in results[0].error
        assert results[1].decision is not None

    def test_slot_extremes_do_not_abort_batch(self):
        flows = [
            Flow("u1", "u2", h_sd=1.0, epsilon=1.0, k=1.0, rate=1e-306),
            Flow("u3", "u4", h_sd=1e300, epsilon=1.0, k=1.0, rate=1e-5,
                 candidates=(RelayCandidate("r", 1e300, 1e300),)),
        ]
        results = evaluate_network(flows, "resource")
        assert results[0].decision is None
        assert "below the normal float range" in results[0].error
        # two slots of 1.4107315187845726e-8 each (50-digit mpmath Lambert-W solve)
        assert results[1].decision.protocol is Protocol.NCP
        assert results[1].decision.criterion_value == pytest.approx(2.8214630375691452e-8,
                                                                    rel=1e-12)

    def test_missing_rate_reported_per_flow(self):
        flows = [Flow("u1", "u2", h_sd=1.0, epsilon=1.0, k=1.0)]
        results = evaluate_network(flows, "resource")
        assert results[0].decision is None
        assert "rate" in results[0].error

    def test_output_order_matches_input(self):
        flows = [Flow(f"s{i}", f"d{i}", h_sd=1.0, epsilon=1.0, k=1.0)
                 for i in range(5)]
        results = evaluate_network(flows, "rate")
        assert [r.source for r in results] == [f"s{i}" for i in range(5)]

    def test_rejects_bad_mode_and_empty(self):
        with pytest.raises(ValidationError):
            evaluate_network([], "rate")
        with pytest.raises(ValidationError):
            evaluate_network([Flow("a", "b", 1.0, 1.0, 1.0)], "nope")


class TestDecisionConsistency:
    def test_cp_decision_reproducible_from_solvers(self):
        op = OperatingPoint(1e-3, 0.8)
        cand = RelayCandidate("r", 6.0, 7.0)
        decision = select_relay_rate(1.0, [cand], op)
        gains = LinkGains(h12=cand.h_sr, h13=1.0, h23=cand.h_rd)
        assert decision.exact_gain == pytest.approx(
            collaboration_gain(gains, op).gain, rel=1e-12)
