"""Tests for proposal resolution — the model's connection rules."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ProtocolViolationError
from repro.sim.matching import (
    ACCEPTANCE_RULES,
    resolve_proposals,
    shared_stream,
)

RULES = sorted(ACCEPTANCE_RULES) + ["unbounded"]


def reference_resolve(proposals: dict, stream_for, rule: str = "uniform"):
    """The §2 rule written out over a ``{proposer: target}`` dict — the
    test-only reference :func:`resolve_proposals` is pinned to.

    Proposals to proposers are lost; each remaining target, in sorted
    order, accepts all its senders (``unbounded``), the smallest or
    largest UID, or — under ``uniform`` — ``choice`` over its ascending
    senders on ``stream_for(target)``, called only when contested.
    """
    for proposer, target in proposals.items():
        if proposer == target:
            raise ProtocolViolationError(f"node {proposer} proposed to itself")
    incoming: dict[int, list[int]] = {}
    for proposer, target in proposals.items():
        if target not in proposals:
            incoming.setdefault(target, []).append(proposer)
    matches = []
    for target in sorted(incoming):
        senders = sorted(incoming[target])
        if rule == "unbounded":
            matches.extend((sender, target) for sender in senders)
        elif rule == "lowest_uid":
            matches.append((senders[0], target))
        elif rule == "highest_uid":
            matches.append((senders[-1], target))
        elif len(senders) == 1:
            matches.append((senders[0], target))
        else:
            matches.append((stream_for(target).choice(senders), target))
    return matches


def _as_arrays(proposals: dict):
    proposers = np.array(sorted(proposals), dtype=np.int64)
    targets = np.array([proposals[p] for p in sorted(proposals)],
                       dtype=np.int64)
    return proposers, targets


def _resolve(proposals: dict, rng=None, rule: str = "uniform"):
    """Resolve a ``{proposer: target}`` map on one shared stream."""
    rng = rng if rng is not None else random.Random(0)
    return resolve_proposals(
        list(proposals), list(proposals.values()), rule, lambda _t: rng
    )


class TestBasicRules:
    def test_single_proposal_connects(self):
        matches = _resolve({1: 2})
        assert matches == [(1, 2)]

    def test_proposer_cannot_receive(self):
        # 1 -> 2 and 2 -> 3: node 2 proposed, so 1's proposal is lost.
        matches = _resolve({1: 2, 2: 3})
        assert matches == [(2, 3)]

    def test_one_acceptance_per_target(self):
        matches = _resolve({1: 9, 2: 9, 3: 9})
        assert len(matches) == 1
        initiator, responder = matches[0]
        assert responder == 9
        assert initiator in {1, 2, 3}

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            _resolve({1: 1})
        with pytest.raises(ProtocolViolationError):
            _resolve({1: 1, 2: 3})

    def test_empty_input(self):
        assert _resolve({}) == []

    def test_disjoint_pairs_all_connect(self):
        matches = _resolve({1: 2, 3: 4, 5: 6})
        assert sorted(matches) == [(1, 2), (3, 4), (5, 6)]

    def test_deterministic_given_seed(self):
        proposals = {i: 99 for i in range(1, 8)}
        a = _resolve(proposals, random.Random(42))
        b = _resolve(proposals, random.Random(42))
        assert a == b


class TestAcceptanceUniformity:
    def test_acceptance_roughly_uniform(self):
        counts = Counter()
        for seed in range(3000):
            matches = _resolve({1: 9, 2: 9, 3: 9}, random.Random(seed))
            counts[matches[0][0]] += 1
        assert set(counts) == {1, 2, 3}
        assert min(counts.values()) > 800  # each ~1000 of 3000


class TestDeterministicRules:
    """Direct coverage for lowest_uid/highest_uid (previously only
    exercised through the engine's acceptance plumbing)."""

    def test_lowest_uid_picks_minimum_sender(self):
        matches = _resolve({8: 1, 3: 1, 5: 1}, rule="lowest_uid")
        assert matches == [(3, 1)]

    def test_highest_uid_picks_maximum_sender(self):
        matches = _resolve({8: 1, 3: 1, 5: 1}, rule="highest_uid")
        assert matches == [(8, 1)]

    def test_rules_consume_no_randomness(self):
        # Deterministic rules must never ask for a stream, so runs with
        # different rules stay comparable draw-for-draw downstream.
        for rule in ("lowest_uid", "highest_uid", "unbounded"):
            asked = []
            resolve_proposals(
                [1, 2, 3], [9, 9, 8], rule, lambda t: asked.append(t)
            )
            assert asked == []

    def test_multiple_targets_sorted_output(self):
        matches = _resolve({5: 2, 6: 2, 7: 4, 8: 4}, rule="lowest_uid")
        assert matches == [(5, 2), (7, 4)]


class TestUnboundedBaseline:
    def test_all_proposals_to_idle_target_connect(self):
        matches = _resolve({1: 9, 2: 9, 3: 9}, rule="unbounded")
        assert matches == [(1, 9), (2, 9), (3, 9)]

    def test_output_ordered_by_target_then_sender(self):
        matches = _resolve({7: 2, 1: 4, 3: 2, 5: 4}, rule="unbounded")
        assert matches == [(3, 2), (7, 2), (1, 4), (5, 4)]

    def test_proposer_targets_lost(self):
        # 3 proposed, so proposals aimed at 3 die; 3's own survives.
        matches = _resolve({1: 3, 2: 3, 3: 9}, rule="unbounded")
        assert matches == [(3, 9)]

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            _resolve({4: 4}, rule="unbounded")

    def test_empty(self):
        assert _resolve({}, rule="unbounded") == []


class TestArrayResolver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_proposals([1], [2], "fifo", lambda _t: random.Random(0))

    def test_uniform_requires_rng(self):
        with pytest.raises(ConfigurationError):
            resolve_proposals([1], [2], "uniform")

    def test_self_proposal_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals(np.array([3]), np.array([3]), "lowest_uid")

    def test_duplicate_proposers_rejected(self):
        with pytest.raises(ProtocolViolationError):
            resolve_proposals([3, 3], [1, 2], "lowest_uid")

    def test_returns_python_ints(self):
        # Both the one-proposal path and the array body.
        for proposers, targets in (([1], [2]), ([1, 3], [2, 4])):
            matches = resolve_proposals(
                np.array(proposers), np.array(targets), "lowest_uid"
            )
            assert matches == list(zip(proposers, targets))
            assert all(type(x) is int for pair in matches for x in pair)

    @pytest.mark.parametrize("rule", RULES)
    def test_agrees_with_dict_resolver_on_fixed_cases(self, rule):
        cases = [
            {},
            {1: 2},
            {1: 9, 2: 9, 3: 9},
            {1: 2, 2: 3},
            {5: 2, 6: 2, 7: 4, 8: 4, 2: 6},
        ]
        for proposals in cases:
            rng_ref, rng = random.Random(17), random.Random(17)
            expected = reference_resolve(proposals, lambda _t: rng_ref, rule)
            got = resolve_proposals(
                *_as_arrays(proposals), rule, lambda _t: rng
            )
            assert got == expected, (rule, proposals)


class _Streams:
    """A ``stream_for`` that records its calls and the streams it gave
    out, in one of the two disciplines the engines and the live layer
    use: one stream shared by every target, or one stream per target."""

    def __init__(self, seed: int, per_target: bool):
        self.seed = seed
        self.per_target = per_target
        self.calls: list[int] = []
        self.streams: dict[int, random.Random] = {}

    def __call__(self, target: int) -> random.Random:
        self.calls.append(target)
        key = target if self.per_target else None
        if key not in self.streams:
            self.streams[key] = random.Random(f"{self.seed}/{key}")
        return self.streams[key]

    def state(self):
        """Every drawn stream's next value (its post-call position)."""
        return {key: stream.random() for key, stream in self.streams.items()}


@given(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=30),
        values=st.integers(min_value=0, max_value=30),
        min_size=0,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from(RULES),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_array_resolver_agrees_with_dict_resolver(
    proposals, seed, rule, per_target
):
    """Property: on any proposal map, under every rule and either stream
    discipline, the resolver returns the reference's matches exactly —
    pair values, list order — asks for streams for the same targets in
    the same order, and leaves every stream it drew from in the same
    state (the byte-identical matching guarantee both engines, their
    cohorts and the live proposee rely on)."""
    proposals = {p: t for p, t in proposals.items() if p != t}
    ref_streams = _Streams(seed, per_target)
    streams = _Streams(seed, per_target)
    expected = reference_resolve(proposals, ref_streams, rule)
    got = resolve_proposals(*_as_arrays(proposals), rule, streams)
    assert got == expected
    assert streams.calls == ref_streams.calls
    assert streams.state() == ref_streams.state()
    # Lists in, on shared_stream: derived once, and only when contested.
    derived = []

    def derive():
        derived.append(seed)
        return random.Random(f"{seed}/None")

    got_lists = resolve_proposals(
        list(proposals), list(proposals.values()), rule, shared_stream(derive)
    )
    assert len(derived) == min(len(ref_streams.calls), 1)
    if not per_target:
        assert got_lists == expected


@given(
    st.dictionaries(
        keys=st.integers(min_value=0, max_value=30),
        values=st.integers(min_value=0, max_value=30),
        min_size=0,
        max_size=25,
    ),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_matching_invariants(proposals, seed):
    proposals = {p: t for p, t in proposals.items() if p != t}
    matches = _resolve(proposals, random.Random(seed))

    participants = [node for pair in matches for node in pair]
    # Invariant: one connection per node.
    assert len(participants) == len(set(participants))
    for initiator, responder in matches:
        # Initiators proposed to exactly that responder.
        assert proposals[initiator] == responder
        # Responders never proposed.
        assert responder not in proposals
    # Every proposal to a non-proposing target with no competition connects.
    incoming = Counter(t for p, t in proposals.items() if t not in proposals)
    for target, count in incoming.items():
        if count >= 1:
            assert any(resp == target for _, resp in matches)
