"""Tests for acceptance rules and the classical (unbounded) baseline."""

import random

import pytest

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import star
from repro.sim.engine import Simulation
from repro.sim.matching import ACCEPTANCE_RULES, resolve_proposals
from repro.sim.protocol import NodeProtocol


def _resolve(proposals: dict, seed: int = 0, rule: str = "uniform"):
    """Resolve a ``{proposer: target}`` map on one shared stream."""
    rng = random.Random(seed)
    return resolve_proposals(
        list(proposals), list(proposals.values()), rule, lambda _t: rng
    )


class TestBoundedRules:
    def test_uniform_is_default(self):
        matches = _resolve({1: 9, 2: 9})
        assert len(matches) == 1

    def test_lowest_uid_rule(self):
        matches = _resolve({5: 9, 2: 9, 7: 9}, rule="lowest_uid")
        assert matches == [(2, 9)]

    def test_highest_uid_rule(self):
        matches = _resolve({5: 9, 2: 9, 7: 9}, rule="highest_uid")
        assert matches == [(7, 9)]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            _resolve({1: 2}, rule="fifo")

    def test_all_rules_preserve_one_connection_per_node(self):
        proposals = {1: 9, 2: 9, 3: 8, 4: 8}
        for rule in ACCEPTANCE_RULES:
            matches = _resolve(proposals, 1, rule=rule)
            nodes = [x for pair in matches for x in pair]
            assert len(nodes) == len(set(nodes))


class TestUnbounded:
    def test_every_proposal_to_non_proposer_connects(self):
        matches = _resolve({1: 9, 2: 9, 3: 9}, rule="unbounded")
        assert sorted(matches) == [(1, 9), (2, 9), (3, 9)]

    def test_proposer_still_cannot_receive(self):
        matches = _resolve({1: 2, 2: 3}, rule="unbounded")
        assert matches == [(2, 3)]

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            _resolve({1: 1}, rule="unbounded")


class PushyNode(NodeProtocol):
    """Everyone proposes to the hub; counts how many connections land."""

    def __init__(self, uid, is_hub):
        super().__init__(uid)
        self.is_hub = is_hub
        self.connections = 0

    def advertise(self, round_index, neighbor_uids):
        return 0

    def propose(self, round_index, neighbors):
        if self.is_hub or not neighbors:
            return None
        return min(view.uid for view in neighbors)  # the hub has uid 1

    def interact(self, responder, channel, round_index):
        channel.charge_bits(1)
        self.connections += 1
        responder.connections += 1


def run_star_round(acceptance):
    topo = star(8)
    nodes = {
        v: PushyNode(uid=v + 1, is_hub=(v == 0)) for v in range(topo.n)
    }
    sim = Simulation(
        StaticDynamicGraph(topo), nodes, b=0, seed=3, acceptance=acceptance
    )
    sim.step()
    return nodes[0].connections


class TestEngineIntegration:
    def test_bounded_hub_accepts_one(self):
        assert run_star_round("uniform") == 1

    def test_unbounded_hub_accepts_all(self):
        # All 7 leaves propose to the hub; classical model takes them all.
        assert run_star_round("unbounded") == 7

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_star_round("broadcast")

    def test_deterministic_rules_in_engine(self):
        assert run_star_round("lowest_uid") == 1
        assert run_star_round("highest_uid") == 1
