import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from relaygain import (Flow, LinkGains, OperatingPoint, Protocol, RelayCandidate,
                       collaboration_gain, evaluate_network, rate_energy_score,
                       select_relay_rate, select_relay_resource)
from relaygain.errors import NoFeasibleOptionError, ValidationError


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

    def test_never_collaborates_at_a_loss(self):
        rng = random.Random(99)
        for _ in range(200):
            h_sd = math.exp(rng.uniform(math.log(0.1), math.log(10)))
            op = OperatingPoint(10 ** rng.uniform(-4, 2), 10 ** rng.uniform(-1, 1))
            cands = [RelayCandidate(f"c{i}",
                                    math.exp(rng.uniform(math.log(0.1), math.log(10))),
                                    math.exp(rng.uniform(math.log(0.1), math.log(10))))
                     for i in range(rng.randint(1, 4))]
            decision = select_relay_rate(h_sd, cands, op)
            if decision.protocol is Protocol.CP:
                assert decision.exact_gain is not None and decision.exact_gain > 1.0

    def test_score_ranking_matches_exact_argmax_at_low_tern(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 25:
            h_sd = math.exp(rng.uniform(math.log(0.25), math.log(4)))
            k = 10 ** rng.uniform(-1, 1)
            cands = [RelayCandidate(f"c{i}",
                                    math.exp(rng.uniform(math.log(0.25), math.log(4))),
                                    math.exp(rng.uniform(math.log(0.25), math.log(4))))
                     for i in range(rng.randint(2, 6))]
            scores = sorted(rate_energy_score(h_sd, c, k) for c in cands)
            if scores[-1] - scores[-2] < 0.01 * scores[-2]:
                continue
            checked += 1
            op = OperatingPoint(1e-4, k)
            fast = select_relay_rate(h_sd, cands, op)
            full = select_relay_rate(h_sd, cands, op, confirm_all=True)
            assert (fast.protocol, fast.relay_id) == (full.protocol, full.relay_id)


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
