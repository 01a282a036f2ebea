"""Tests for Transfer(ε): correctness, direction, and bit budget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import ceil_log2
from repro.commcplx.transfer import (
    TransferOutcome,
    TransferProtocol,
    trials_for_error,
)
from repro.errors import ConfigurationError
from repro.sim.channel import Channel, ChannelPolicy


def make_protocol(upper_n=64, epsilon=1e-3):
    return TransferProtocol(upper_n=upper_n, epsilon=epsilon)


def reference_locate(proto, labels_a, labels_b, rng, channel=None):
    """The per-level search: one full-prefix EQTest at every level.

    Kept as the reference :meth:`TransferProtocol.locate` must reproduce
    outcome for outcome, draw for draw and bit for bit.
    """
    set_a = frozenset(labels_a)
    set_b = frozenset(labels_b)
    proto._validate(set_a, "a")
    proto._validate(set_b, "b")

    bits_before = proto.tester.stats.bits
    calls_before = proto.tester.stats.calls
    lo, hi = 1, proto.upper_n
    while lo != hi:
        mid = (lo + hi) // 2
        prefix_a = [x for x in set_a if lo <= x <= mid]
        prefix_b = [x for x in set_b if lo <= x <= mid]
        equal = proto.tester.test(
            prefix_a, prefix_b, proto.trials_per_call, rng, channel
        )
        if equal:
            lo = mid + 1
        else:
            hi = mid
    chosen = lo

    in_a = chosen in set_a
    in_b = chosen in set_b
    consistent = in_a != in_b
    # Each side reveals whether it owns the chosen label (1 bit each),
    # then the owner ships the token.
    ownership_bits = 2
    if channel is not None:
        channel.charge_bits(ownership_bits, label="transfer-ownership")
        if consistent:
            channel.charge_token()
    eq_calls = proto.tester.stats.calls - calls_before
    control_bits = proto.tester.stats.bits - bits_before + ownership_bits
    return TransferOutcome(
        token_id=chosen if consistent else None,
        moved_to_a=consistent and in_b,
        moved_to_b=consistent and in_a,
        consistent=consistent,
        eq_calls=eq_calls,
        control_bits=control_bits,
    )


class FewPointsRandom(random.Random):
    """Draws evaluation points from {0, 1, 2} only.  Point 0 makes every
    fingerprint collide, so unequal prefixes often test "equal" and the
    search steps past differing labels."""

    def randrange(self, *args):
        return super().randrange(*args) % 3


def run_both(upper_n, epsilon, a, b, seed, rng_class=random.Random):
    """Run ``locate`` and ``reference_locate`` on fresh, identical state;
    return ``(outcome, rng, channel, protocol)`` for each."""
    runs = []
    for search in (TransferProtocol.locate, reference_locate):
        proto = TransferProtocol(upper_n=upper_n, epsilon=epsilon)
        rng = rng_class(seed)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**9))
        outcome = search(proto, a, b, rng, channel)
        runs.append((outcome, rng, channel, proto))
    return runs


def observed(run):
    """Everything a search may affect, for comparing two runs."""
    outcome, rng, channel, proto = run
    return (outcome, rng.getstate(), channel.bits.total_bits,
            channel.bits.by_label(), channel.tokens_moved, proto.tester.stats)


def assert_equivalent(new, ref):
    assert observed(new) == observed(ref)


class TestTrialsForError:
    def test_tighter_epsilon_needs_more_trials(self):
        assert trials_for_error(64, 1e-6) > trials_for_error(64, 0.4)

    def test_minimum_one(self):
        assert trials_for_error(4, 0.9) >= 1

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            trials_for_error(64, 0.0)
        with pytest.raises(ConfigurationError):
            trials_for_error(64, 1.0)


class TestLocateCorrectness:
    def test_finds_smallest_difference(self):
        proto = make_protocol()
        rng = random.Random(0)
        outcome = proto.locate({3, 10, 20}, {10, 20, 40}, rng)
        assert outcome.token_id == 3
        assert outcome.moved_to_b  # a owns 3, so it moves a -> b
        assert outcome.consistent

    def test_direction_b_to_a(self):
        proto = make_protocol()
        outcome = proto.locate({10}, {5, 10}, random.Random(1))
        assert outcome.token_id == 5
        assert outcome.moved_to_a

    def test_equal_sets_no_transfer(self):
        proto = make_protocol()
        outcome = proto.locate({4, 9}, {4, 9}, random.Random(2))
        assert outcome.token_id is None
        assert not outcome.moved
        assert not outcome.consistent

    def test_empty_vs_nonempty(self):
        proto = make_protocol()
        outcome = proto.locate(set(), {7, 30}, random.Random(3))
        assert outcome.token_id == 7
        assert outcome.moved_to_a

    def test_both_empty(self):
        proto = make_protocol()
        outcome = proto.locate(set(), set(), random.Random(4))
        assert outcome.token_id is None
        assert not outcome.moved

    def test_difference_at_universe_edge(self):
        proto = make_protocol(upper_n=64)
        outcome = proto.locate({64}, set(), random.Random(5))
        assert outcome.token_id == 64
        assert outcome.moved_to_b

    def test_difference_at_one(self):
        proto = make_protocol(upper_n=64)
        outcome = proto.locate({1}, set(), random.Random(6))
        assert outcome.token_id == 1

    def test_smallest_of_many_differences(self):
        proto = make_protocol(upper_n=128)
        a = {2, 4, 6, 100}
        b = {2, 5, 7, 128}
        # Symmetric difference {4, 5, 6, 7, 100, 128}; smallest is 4.
        outcome = proto.locate(a, b, random.Random(7))
        assert outcome.token_id == 4


class TestBudget:
    def test_control_bits_within_worst_case(self):
        proto = make_protocol(upper_n=256, epsilon=1e-4)
        rng = random.Random(0)
        for _ in range(20):
            a = set(rng.sample(range(1, 257), 30))
            b = set(rng.sample(range(1, 257), 30))
            outcome = proto.locate(a, b, rng)
            assert outcome.control_bits <= proto.worst_case_control_bits()

    def test_worst_case_is_polylog(self):
        small = make_protocol(upper_n=2**6).worst_case_control_bits()
        large = make_protocol(upper_n=2**12).worst_case_control_bits()
        # Doubling log N should grow the bound by ~2^2-ish, far below the
        # 2^6 factor a linear dependence on N would give.
        assert large < 8 * small

    def test_channel_charged_and_token_counted(self):
        proto = make_protocol(upper_n=32)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
        outcome = proto.locate({5}, {9}, random.Random(0), channel=channel)
        assert outcome.moved
        assert channel.tokens_moved == 1
        assert channel.bits.total_bits == outcome.control_bits

    def test_eq_calls_bounded_by_log_n(self):
        proto = make_protocol(upper_n=256)
        outcome = proto.locate({17}, {200}, random.Random(0))
        assert outcome.eq_calls <= ceil_log2(256)


class TestReferenceEquivalence:
    def test_equal_sets_draw_nothing_and_walk_the_spine(self):
        for upper_n in (2, 3, 64, 1000, 4097):
            proto = make_protocol(upper_n=upper_n)
            rng = random.Random(9)
            state = rng.getstate()
            channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
            outcome = proto.locate({1, upper_n}, {upper_n, 1}, rng, channel)
            spine = upper_n.bit_length() - 1
            assert rng.getstate() == state
            assert outcome.eq_calls == spine
            assert proto.tester.stats.calls == spine
            assert proto.tester.stats.trials == spine * proto.trials_per_call
            assert channel.bits.by_label()["eqtest"] == (
                spine * proto.trials_per_call * proto.tester.bits_per_trial
            )
            assert not outcome.moved

    def test_one_eqtest_message_per_search(self):
        proto = make_protocol(upper_n=256)
        channel = Channel(1, 1, 2, ChannelPolicy(max_control_bits=10**6))
        outcome = proto.locate({3, 40}, {40, 77}, random.Random(0), channel)
        assert outcome.eq_calls > 1
        # One eqtest charge plus the ownership bits.
        assert channel.bits.messages == 2

    def test_false_equal_levels_match_reference(self):
        # With colliding evaluation points some levels wrongly report
        # "equal" and step past a differing label; the search must follow
        # the reference there too.
        wrong = 0
        a = set(range(1, 40, 2))
        b = set(range(2, 41, 2)) | {7, 9}
        for seed in range(100):
            new, ref = run_both(48, 0.5, a, b, seed, FewPointsRandom)
            assert_equivalent(new, ref)
            wrong += new[0].token_id != 1
        assert wrong > 0


@st.composite
def transfer_inputs(draw):
    upper_n = draw(st.one_of(
        st.sampled_from([2, 3, 4, 7, 8, 1023, 1024, 4097]),
        st.integers(min_value=2, max_value=5000),
    ))
    pool = draw(st.lists(
        st.integers(min_value=1, max_value=upper_n), max_size=16, unique=True
    ))
    members = st.sets(st.sampled_from(pool)) if pool else st.just(set())
    epsilon = draw(st.sampled_from([0.9, 0.5, 1e-2, 1e-6]))
    return upper_n, epsilon, draw(members), draw(members)


@given(
    transfer_inputs(),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([random.Random, FewPointsRandom]),
)
@settings(max_examples=300, deadline=None)
def test_locate_matches_reference(inputs, seed, rng_class):
    """Same outcome, draws, bits, tokens and EQTest stats as the
    per-level search, for sets drawn from one shared pool."""
    upper_n, epsilon, a, b = inputs
    new, ref = run_both(upper_n, epsilon, a, b, seed, rng_class)
    assert_equivalent(new, ref)


class TestValidation:
    def test_rejects_labels_outside_universe(self):
        proto = make_protocol(upper_n=16)
        with pytest.raises(ConfigurationError):
            proto.locate({17}, set(), random.Random(0))
        with pytest.raises(ConfigurationError):
            proto.locate(set(), {0}, random.Random(0))


@given(
    st.sets(st.integers(min_value=1, max_value=64), max_size=20),
    st.sets(st.integers(min_value=1, max_value=64), max_size=20),
    st.integers(min_value=0, max_value=500),
)
@settings(max_examples=150, deadline=None)
def test_transfer_property(a, b, seed):
    """With tight epsilon, Transfer finds min(symdiff) and moves it right."""
    proto = TransferProtocol(upper_n=64, epsilon=1e-6)
    outcome = proto.locate(a, b, random.Random(seed))
    sym = (a | b) - (a & b)
    if not sym:
        assert outcome.token_id is None
        assert not outcome.moved
    else:
        # epsilon 1e-6 over <=500 runs: treat failure as test failure.
        expected = min(sym)
        assert outcome.token_id == expected
        assert outcome.consistent
        if expected in a:
            assert outcome.moved_to_b
        else:
            assert outcome.moved_to_a
