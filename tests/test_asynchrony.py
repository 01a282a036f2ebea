"""Tests for the asynchrony layer: timing models, the event queue, the
event-driven engine, and the timing registry surface threaded through
every layer (run_gossip, RunSpec, sweeps, the fluent API, the CLI,
scenarios)."""

import numpy as np
import pytest

from repro.api import Experiment
from repro.asynchrony import (
    TICKS_PER_ROUND,
    AsyncSimulation,
    EventQueue,
    GilbertElliottPauses,
    HeterogeneousRates,
    Synchronous,
    UniformJitter,
    build_timing,
)
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.errors import ConfigurationError, ProtocolViolationError
from repro.experiments import RunSpec, SweepSpec, execute_run, run_sweep
from repro.experiments.fastpath import trace_signature
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import expander, star
from repro.registry import TIMING_REGISTRY
from repro.sim.channel import ChannelPolicy
from repro.sim.faults import SleepCycle
from repro.sim.termination import all_hold_tokens
from repro.workloads.scenarios import (
    commute_mixed_devices_scenario,
    stadium_desync_scenario,
)

N = 20
SEED = 9


def _sim(timing=None, fault=None, n=N, seed=SEED, k=2, **kwargs):
    instance = uniform_instance(n=n, k=k, seed=seed)
    nodes = build_nodes("sharedbit", instance, seed=seed)
    sim = AsyncSimulation(
        StaticDynamicGraph(expander(n=n, degree=4, seed=1)), nodes,
        b=1, seed=seed,
        channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        timing=timing, faults=fault, **kwargs,
    )
    return sim, instance


class TestEventQueue:
    def test_cohorts_pop_in_time_then_vertex_order(self):
        queue = EventQueue()
        queue.push(30, 2, 1)
        queue.push(10, 5, 1)
        queue.push(10, 1, 1)
        queue.push(20, 0, 1)
        assert queue.peek_ticks() == 10
        assert queue.pop_cohort() == (10, [(1, 1), (5, 1)])
        assert queue.pop_cohort() == (20, [(0, 1)])
        assert queue.pop_cohort() == (30, [(2, 1)])
        assert queue.peek_ticks() is None
        assert len(queue) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop_cohort()

    def test_pop_window_drains_all_cohorts_below_boundary(self):
        queue = EventQueue()
        queue.push(30, 2, 1)
        queue.push(10, 5, 1)
        queue.push(10, 1, 1)
        queue.push(20, 0, 1)
        queue.push(45, 3, 2)
        cohorts = queue.pop_window(40)
        assert cohorts == [
            (10, [(1, 1), (5, 1)]),
            (20, [(0, 1)]),
            (30, [(2, 1)]),
        ]
        assert len(queue) == 1  # the event past the boundary stays queued

    def test_pop_window_empty_and_boundary_exclusive(self):
        queue = EventQueue()
        queue.push(40, 0, 1)
        assert queue.pop_window(40) == []  # strictly below the boundary
        assert queue.pop_window(41) == [(40, [(0, 1)])]
        assert queue.pop_window(99) == []

    def test_pop_window_equals_repeated_pop_cohort(self):
        events = [(17, 4, 2), (5, 1, 1), (5, 3, 1), (9, 0, 1), (17, 2, 2)]
        a, b = EventQueue(), EventQueue()
        for ticks, vertex, cycle in events:
            a.push(ticks, vertex, cycle)
            b.push(ticks, vertex, cycle)
        windowed = a.pop_window(20)
        one_by_one = []
        while len(b):
            one_by_one.append(b.pop_cohort())
        assert windowed == one_by_one


class TestTimingModels:
    def test_registry_surface(self):
        assert set(TIMING_REGISTRY.names()) == {
            "synchronous", "jitter", "heterogeneous", "bursty",
        }

    def test_synchronous_is_null_and_exact(self):
        timing = Synchronous(8, 3)
        assert timing.is_null
        assert timing.activation_ticks(0, 1) == TICKS_PER_ROUND
        assert timing.activation_ticks(7, 5) == 5 * TICKS_PER_ROUND

    def test_build_timing_normalizes_null(self):
        assert build_timing(None, 8, 3) is None
        assert build_timing({"kind": "synchronous"}, 8, 3) is None
        model = build_timing({"kind": "jitter", "jitter": 0.25}, 8, 3)
        assert isinstance(model, UniformJitter)
        assert model.jitter == 0.25

    def test_build_timing_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            build_timing({"kind": "jitter", "nope": 1}, 8, 3)
        with pytest.raises(ConfigurationError):
            build_timing({"kind": "warp"}, 8, 3)

    @pytest.mark.parametrize("model", [
        UniformJitter(6, 5, jitter=0.7),
        HeterogeneousRates(6, 5),
        GilbertElliottPauses(6, 5, p_pause=0.3, p_resume=0.4),
    ])
    def test_schedules_monotone_and_past_round_one(self, model):
        for vertex in range(model.n):
            previous = 0
            for cycle in range(1, 30):
                ticks = model.activation_ticks(vertex, cycle)
                assert ticks > previous
                assert ticks >= TICKS_PER_ROUND
                previous = ticks

    def test_schedules_pure_functions_of_seed(self):
        # Same seed, fresh instance, any access order: same schedule.
        a = GilbertElliottPauses(6, 5, p_pause=0.3, p_resume=0.4)
        b = GilbertElliottPauses(6, 5, p_pause=0.3, p_resume=0.4)
        forward = [a.activation_ticks(2, c) for c in range(1, 20)]
        backward = [b.activation_ticks(2, c) for c in range(19, 0, -1)]
        assert forward == backward[::-1]

    def test_jitter_draws_are_per_cycle(self):
        model = UniformJitter(4, 1, jitter=0.9)
        offsets = {
            model.activation_ticks(0, c) - c * TICKS_PER_ROUND
            for c in range(1, 20)
        }
        assert len(offsets) > 1  # fresh draw per cycle, not a fixed phase

    def test_heterogeneous_assigns_all_classes(self):
        model = HeterogeneousRates(60, 2, rates=(0.5, 1.0, 2.0))
        seen = {model.rate_of(v) for v in range(60)}
        assert seen == {0.5, 1.0, 2.0}

    def test_heterogeneous_weights_validated(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousRates(4, 1, rates=(1.0, 2.0), weights=(1.0,))
        with pytest.raises(ConfigurationError):
            HeterogeneousRates(4, 1, rates=(0.0,))

    def test_jitter_range_validated(self):
        with pytest.raises(ConfigurationError):
            UniformJitter(4, 1, jitter=1.0)
        with pytest.raises(ConfigurationError):
            UniformJitter(4, 1, jitter=-0.1)

    def test_bursty_params_validated(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottPauses(4, 1, p_pause=1.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottPauses(4, 1, pause_scale=0.5)

    @pytest.mark.parametrize("make", [
        lambda: UniformJitter(30, SEED, jitter=0.7),
        lambda: HeterogeneousRates(30, SEED),
        lambda: GilbertElliottPauses(30, SEED, p_pause=0.3, p_resume=0.4),
    ])
    def test_batch_schedules_bit_identical_to_scalar(self, make):
        # The batched engine derives its whole window schedule through
        # activation_ticks_batch; determinism demands exact equality
        # with per-event scalar calls — including across jitter's
        # 8-cycle PRF blocks and repeated vertices in one batch.
        batch_model, scalar_model = make(), make()
        rng = np.random.RandomState(7)
        vertices = rng.randint(0, 30, size=600)
        cycles = rng.randint(1, 40, size=600)
        batch = batch_model.activation_ticks_batch(vertices, cycles)
        scalar = [
            scalar_model.activation_ticks(int(v), int(c))
            for v, c in zip(vertices, cycles)
        ]
        assert batch.tolist() == scalar

    def test_jitter_batch_handles_block_crossing_duplicates(self):
        # One vertex appearing twice in a single batch with cycles in
        # different PRF blocks: neither occurrence may read the cache
        # row the other just refreshed.
        batch_model = UniformJitter(4, SEED, jitter=0.5)
        scalar_model = UniformJitter(4, SEED, jitter=0.5)
        vertices, cycles = [2, 2, 2], [7, 8, 16]  # blocks 0, 1, 2
        batch = batch_model.activation_ticks_batch(vertices, cycles)
        scalar = [
            scalar_model.activation_ticks(v, c)
            for v, c in zip(vertices, cycles)
        ]
        assert batch.tolist() == scalar

    def test_bursty_produces_multi_round_gaps(self):
        model = GilbertElliottPauses(10, 3, p_pause=0.5, p_resume=0.2,
                                     pause_scale=4.0)
        gaps = [
            model.activation_ticks(v, c + 1) - model.activation_ticks(v, c)
            for v in range(10) for c in range(1, 15)
        ]
        assert max(gaps) > 2 * TICKS_PER_ROUND  # stalls actually happen
        assert min(gaps) >= TICKS_PER_ROUND    # never faster than nominal


class TestAsyncSimulation:
    def test_array_mode_requires_batched_window_path(self):
        # Array front half + asynchronous timing is only legal through
        # the batched window machinery; forcing the per-event path (or
        # lacking window hooks) keeps the old rejection.
        with pytest.raises(ConfigurationError):
            _sim(timing=UniformJitter(N, SEED), engine_mode="array",
                 async_mode="event")
        sim, _ = _sim(timing=UniformJitter(N, SEED), engine_mode="array")
        assert sim._batched

    def test_batched_mode_requires_window_hooks(self):
        instance = uniform_instance(n=N, k=2, seed=SEED)
        nodes = build_nodes("multibit", instance, seed=SEED)
        with pytest.raises(ConfigurationError):
            AsyncSimulation(
                StaticDynamicGraph(expander(n=N, degree=4, seed=1)), nodes,
                b=2, seed=SEED,
                channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
                timing=None, async_mode="batched",
            )

    @pytest.mark.parametrize("algorithm", ["sharedbit", "blindmatch"])
    def test_batched_scan_rejects_float_tags(self, algorithm):
        # Eager (sharedbit) and lazy (blindmatch) window scans: a float
        # tag must raise, as on the per-event and round-engine paths,
        # instead of truncating 0.7 to 0.
        instance = uniform_instance(n=N, k=2, seed=SEED)
        nodes = build_nodes(algorithm, instance, seed=SEED)
        sim = AsyncSimulation(
            StaticDynamicGraph(expander(n=N, degree=4, seed=1)), nodes,
            b=1 if algorithm == "sharedbit" else 0, seed=SEED,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            timing=UniformJitter(N, SEED),
        )
        ops = sim._window_ops
        scan = ops.scan

        def float_scan(vertices, cycles):
            tags, senders = scan(vertices, cycles)
            return np.full(len(tags), 0.7), senders

        ops.scan = float_scan
        with pytest.raises(ProtocolViolationError, match="dtype float64"):
            sim.run(max_rounds=5)

    def test_batched_retag_rejects_float_tags(self):
        sim, _ = _sim(timing=UniformJitter(N, SEED))
        ops = sim._window_ops
        assert ops.needs_retag
        ops.retag = lambda vertex, cycle: 0.7
        with pytest.raises(ProtocolViolationError, match="0.7"):
            sim.run(max_rounds=200)

    def test_async_mode_validated(self):
        with pytest.raises(ConfigurationError):
            _sim(timing=UniformJitter(N, SEED), async_mode="turbo")

    def test_timing_population_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            _sim(timing=UniformJitter(N + 1, SEED))

    def test_step_is_not_a_thing(self):
        sim, _ = _sim(timing=UniformJitter(N, SEED))
        with pytest.raises(ConfigurationError):
            sim.step()

    def test_event_counts_track_every_activation(self):
        sim, instance = _sim(timing=UniformJitter(N, SEED, jitter=0.5))
        result = sim.run(max_rounds=12)
        # jitter keeps one cycle per node per round window
        assert result.event_counts.tolist() == [12] * N
        assert result.rounds == 12

    def test_heterogeneous_rates_shape_event_counts(self):
        timing = HeterogeneousRates(N, SEED, rates=(0.5, 2.0))
        sim, _ = _sim(timing=timing)
        result = sim.run(max_rounds=20)
        fast = [v for v in range(N) if timing.rate_of(v) == 2.0]
        slow = [v for v in range(N) if timing.rate_of(v) == 0.5]
        assert fast and slow
        assert min(result.event_counts[fast]) > max(
            result.event_counts[slow]
        )

    def test_async_trace_columns(self):
        sim, _ = _sim(timing=UniformJitter(N, SEED, jitter=0.5))
        sim.run(max_rounds=6)
        for record in sim.trace.records:
            assert record.events == N
            assert record.clock_skew_max == 0  # jitter < 1 round
            assert record.round_index <= record.virtual_time \
                < record.round_index + 1
        series = sim.trace.column_series("events")
        assert [value for _, value in series] == [N] * 6

    def test_skew_grows_under_heterogeneous_rates(self):
        sim, _ = _sim(timing=HeterogeneousRates(N, SEED,
                                                rates=(0.5, 2.0)))
        sim.run(max_rounds=20)
        skews = [rec.clock_skew_max for rec in sim.trace.records]
        assert skews[-1] > skews[1]

    def test_termination_fires_at_window_boundaries(self):
        sim, instance = _sim(timing=UniformJitter(N, SEED, jitter=0.4))
        result = sim.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        assert result.terminated
        assert result.rounds < 50_000
        assert sim.trace.total_rounds == result.rounds

    def test_round_limit_raises_when_asked(self):
        from repro.errors import RoundLimitExceeded

        sim, _ = _sim(timing=UniformJitter(N, SEED))
        with pytest.raises(RoundLimitExceeded):
            sim.run(max_rounds=2, raise_on_limit=True)

    def test_bursty_windows_can_be_empty(self):
        sim, _ = _sim(
            timing=GilbertElliottPauses(N, SEED, p_pause=0.8,
                                        p_resume=0.1, pause_scale=6.0),
        )
        sim.run(max_rounds=30)
        events = [rec.events for rec in sim.trace.records]
        assert 0 in events            # some windows hold no activations
        assert len(events) == 30      # ... but every window is recorded

    def test_sleep_fault_composes_with_async_timing(self):
        clean, instance = _sim(timing=UniformJitter(N, SEED, jitter=0.3))
        clean_result = clean.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        slept, instance = _sim(
            timing=UniformJitter(N, SEED, jitter=0.3),
            fault=SleepCycle(N, SEED, period=8, duty=3),
        )
        slept_result = slept.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        assert slept_result.terminated
        assert slept_result.rounds > clean_result.rounds
        active = [rec.active_nodes for rec in slept.trace.records]
        assert max(active) < N  # the duty cycle masked activations

    def test_estimated_wall_rounds_from_async_columns(self):
        sim, instance = _sim(timing=HeterogeneousRates(N, SEED,
                                                       rates=(0.5, 2.0)))
        result = sim.run(
            max_rounds=50_000,
            termination=all_hold_tokens(instance.token_ids),
        )
        last = next(
            rec for rec in reversed(sim.trace.records)
            if rec.virtual_time is not None
        )
        expected = float(last.virtual_time) + float(last.clock_skew_max)
        assert sim.trace.estimated_wall_rounds() == expected
        assert result.estimated_wall_rounds == expected
        # Slow devices trail the virtual clock, so the wall estimate
        # exceeds the raw window count.
        assert result.estimated_wall_rounds > result.rounds

    def test_estimated_wall_rounds_round_engine_fallback(self):
        result = run_gossip(
            "sharedbit", StaticDynamicGraph(star(16)),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000,
        )
        assert result.trace.estimated_wall_rounds() is None
        assert result.estimated_wall_rounds == float(result.rounds)


class TestAsyncLeaderElection:
    def test_all_agree_on_leader_under_jitter(self):
        from repro.leader.bitconvergence import LeaderElectionNode
        from repro.rng import SeedTree
        from repro.sim.termination import all_agree_on_leader

        n = 12
        uids = [3 * vertex + 5 for vertex in range(n)]
        tree = SeedTree(SEED)
        nodes = {
            vertex: LeaderElectionNode(
                uid=uids[vertex], upper_n=max(uids),
                rng=tree.stream("leader-node", uids[vertex]),
            )
            for vertex in range(n)
        }
        sim = AsyncSimulation(
            StaticDynamicGraph(expander(n=n, degree=4, seed=1)), nodes,
            b=1, seed=SEED,
            channel_policy=ChannelPolicy.for_upper_n(max(uids)),
            timing=UniformJitter(n=n, seed=SEED, jitter=0.6),
        )
        # Leader election ships window hooks: auto mode takes the
        # batched window path, and still elects the minimum.
        assert sim._batched
        result = sim.run(max_rounds=50_000,
                         termination=all_agree_on_leader())
        assert result.terminated
        winners = {
            node.candidate_leader for node in result.nodes.values()
        }
        assert winners == {min(uids)}

    def test_leader_batched_identical_to_per_event(self):
        from repro.experiments.fastpath import trace_signature
        from repro.leader.bitconvergence import LeaderElectionNode
        from repro.rng import SeedTree
        from repro.sim.termination import all_agree_on_leader

        n = 12
        uids = [3 * vertex + 5 for vertex in range(n)]

        def run(async_mode):
            tree = SeedTree(SEED)
            nodes = {
                vertex: LeaderElectionNode(
                    uid=uids[vertex], upper_n=max(uids),
                    rng=tree.stream("leader-node", uids[vertex]),
                )
                for vertex in range(n)
            }
            sim = AsyncSimulation(
                StaticDynamicGraph(expander(n=n, degree=4, seed=1)), nodes,
                b=1, seed=SEED,
                channel_policy=ChannelPolicy.for_upper_n(max(uids)),
                timing=UniformJitter(n=n, seed=SEED, jitter=0.6),
                async_mode=async_mode,
            )
            result = sim.run(max_rounds=50_000,
                             termination=all_agree_on_leader())
            leaders = tuple(
                (node.uid, node.candidate_leader)
                for node in result.nodes.values()
            )
            return trace_signature(result.rounds, sim.trace), leaders

        assert run("batched") == run("event")


class TestRunGossipTiming:
    def _graph(self, n=16):
        return StaticDynamicGraph(star(n))

    def test_timing_by_name_dict_and_model(self):
        outcomes = []
        for timing in ("jitter", {"kind": "jitter", "jitter": 0.5},
                       UniformJitter(16, 4, jitter=0.5)):
            result = run_gossip(
                "sharedbit", self._graph(),
                uniform_instance(n=16, k=2, seed=4), seed=4,
                max_rounds=50_000, timing=timing,
            )
            assert result.solved
            outcomes.append(
                trace_signature(result.rounds, result.trace)
            )
        # dict and built-model forms agree ("jitter" name differs only
        # in its default jitter=0.5 — which matches, so all three agree)
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_null_timing_stays_on_round_engine(self):
        result = run_gossip(
            "sharedbit", self._graph(),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000, timing="synchronous",
        )
        bare = run_gossip(
            "sharedbit", self._graph(),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000,
        )
        assert result.event_counts is None  # the round engine ran
        assert (
            trace_signature(result.rounds, result.trace)
            == trace_signature(bare.rounds, bare.trace)
        )

    def test_async_run_reports_event_counts(self):
        result = run_gossip(
            "blindmatch", self._graph(),
            uniform_instance(n=16, k=2, seed=4), seed=4,
            max_rounds=50_000, timing="heterogeneous",
        )
        assert result.solved
        assert result.event_counts is not None
        assert int(result.event_counts.sum()) > 0


class TestSpecsAndSweeps:
    BASE = {
        "algorithm": "sharedbit",
        "graph": {"family": "expander",
                  "params": {"n": 16, "degree": 4, "seed": 1}},
        "instance": {"kind": "uniform", "k": 2},
        "max_rounds": 50_000,
        "engine": {"trace_sample_every": 1024},
    }

    def test_runspec_timing_block_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            RunSpec(seed=1, timing={"kind": "warp"}, **self.BASE)

    def test_timing_survives_payload_round_trip(self):
        spec = RunSpec(seed=1,
                       timing={"kind": "jitter", "jitter": 0.5},
                       **self.BASE)
        again = RunSpec.from_payload(spec.to_payload())
        assert again.timing == {"kind": "jitter", "jitter": 0.5}
        assert again.spec_hash() == spec.spec_hash()

    def test_timing_kind_changes_the_hash(self):
        clean = RunSpec(seed=1, **self.BASE)
        jittered = RunSpec(seed=1, timing={"kind": "jitter"}, **self.BASE)
        assert clean.spec_hash() != jittered.spec_hash()

    def test_execute_run_with_timing(self):
        record = execute_run(
            RunSpec(seed=1, timing={"kind": "jitter", "jitter": 0.6},
                    **self.BASE)
        )
        assert record["solved"]
        assert record["events"] > 0

    def test_execute_run_synchronous_has_no_events_column(self):
        record = execute_run(RunSpec(seed=1, **self.BASE))
        assert "events" not in record

    @pytest.mark.parametrize("timing", [
        {"kind": "jitter"},
        {"kind": "heterogeneous"},
        {"kind": "bursty"},
    ])
    def test_epsilon_executor_rejects_async_timing(self, timing):
        # Epsilon's guarantee is stated against the synchronous round
        # structure; every non-null timing kind must be refused.
        spec = RunSpec(
            algorithm="epsilon",
            graph={"family": "expander",
                   "params": {"n": 16, "degree": 4, "seed": 1}},
            instance={"kind": "everyone"},
            config={"epsilon": 0.5},
            timing=timing,
            seed=1, max_rounds=50_000,
        )
        with pytest.raises(ConfigurationError, match="asynchronous"):
            execute_run(spec)

    def test_timing_sweep_jobs_parallel_identical(self):
        sweep = SweepSpec(
            name="async-axis",
            base=dict(self.BASE, timing={"kind": "jitter", "jitter": 0.0}),
            grid={"timing.jitter": [0.0, 0.5]},
            seeds=(11, 23),
        )
        serial = run_sweep(sweep, jobs=1)
        parallel = run_sweep(sweep, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_timing_kind_sweepable_as_axis(self):
        sweep = SweepSpec(
            name="kind-axis",
            base=dict(self.BASE),
            grid={"timing.kind": ["synchronous", "heterogeneous"]},
            seeds=(11,),
        )
        result = run_sweep(sweep)
        assert all(summary.all_solved for summary in result.points)


class TestFluentApi:
    def test_with_timing_validates_and_threads(self):
        record = (
            Experiment("sharedbit")
            .on_graph("expander", n=16, degree=4, seed=1)
            .with_instance("uniform", k=2)
            .with_timing("bursty", p_pause=0.05)
            .seeded(3)
            .rounds(50_000)
            .run()
        )
        assert record["solved"]
        assert record["events"] > 0

    def test_with_timing_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            Experiment("sharedbit").with_timing("warp")

    def test_synchronous_timing_left_out_of_payload(self):
        spec = (
            Experiment("sharedbit")
            .on_graph("star", n=8)
            .with_timing("synchronous")
            .run_spec()
        )
        assert spec.timing == {"kind": "synchronous"}


class TestAsyncScenarios:
    def test_commute_carries_heterogeneous_clocks(self):
        scenario = commute_mixed_devices_scenario(seed=1)
        assert isinstance(scenario.timing, HeterogeneousRates)
        assert scenario.fault is None

    def test_stadium_composes_timing_with_sleep(self):
        scenario = stadium_desync_scenario(seed=1)
        assert isinstance(scenario.timing, GilbertElliottPauses)
        assert isinstance(scenario.fault, SleepCycle)

    def test_commute_solves(self):
        scenario = commute_mixed_devices_scenario(n=20, k=2, seed=3)
        result = run_gossip(
            scenario.recommended_algorithm, scenario.dynamic_graph,
            scenario.instance, seed=3, max_rounds=100_000,
            timing=scenario.timing,
        )
        assert result.solved
        counts = np.asarray(result.event_counts)
        assert counts.min() > 0

    def test_stadium_solves(self):
        scenario = stadium_desync_scenario(n=24, k=3, seed=3)
        result = run_gossip(
            scenario.recommended_algorithm, scenario.dynamic_graph,
            scenario.instance, seed=3, max_rounds=100_000,
            fault=scenario.fault, timing=scenario.timing,
        )
        assert result.solved


class TestCliTiming:
    def test_run_with_timing_flag(self, capsys):
        from repro.cli import main

        code = main([
            "run", "--algorithm", "sharedbit", "--graph", "expander",
            "--n", "16", "--k", "2", "--timing", "jitter", "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "timing=jitter" in out
        assert "events=" in out

    def test_list_includes_timing_section(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "timing models:" in out
        for name in ("synchronous", "jitter", "heterogeneous", "bursty"):
            assert name in out

    def test_scenario_commute(self, capsys):
        from repro.cli import main

        code = main(["scenario", "--name", "commute_mixed_devices"])
        out = capsys.readouterr().out
        assert code == 0
        assert "timing regime" in out
