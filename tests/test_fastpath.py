"""Differential tests: the array fast path is byte-identical to the
reference object engine.

Every combination of {ppush, blindmatch, sharedbit} × {static,
relabeling, geometric} × all acceptance rules must produce the *same
trace* (every sampled record and every running total), the same final
token sets, and the same round count under ``engine_mode="object"`` and
``engine_mode="array"``.  This is the guarantee that lets every other
test and benchmark in the repo trust the fast path: same seeds, same
draws, same execution — just faster.

The case harness lives in :mod:`repro.experiments.fastpath` — the same
implementation benchmarks/bench_engine.py and CI's bench-smoke gate run,
so "byte-identical" means one thing everywhere.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.blindmatch import BlindMatchNode
from repro.core.ppush import PPushNode
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes, run_gossip
from repro.errors import ConfigurationError
from repro.experiments import fastpath
from repro.experiments.fastpath import (
    CHECK_ACCEPTANCES,
    CHECK_ASYNC_ALGORITHMS,
    CHECK_ASYNC_DYNAMICS,
    CHECK_DYNAMICS,
    CHECK_FAULTS,
    CHECK_TIMINGS,
    check_async_batched_identity,
    check_async_determinism,
    check_async_sync_identity,
    check_local_acceptance_identity,
    check_null_fault_identity,
    check_telemetry_identity,
    make_dynamics,
    run_case,
    trace_signature,
)
from repro.graphs.dynamic import StaticDynamicGraph
from repro.graphs.topologies import star
from repro.rng import SeedTree
from repro.sim.engine import Simulation
from repro.sim.channel import ChannelPolicy
from repro.sim.protocol import bulk_hooks


class TestTraceForTraceEquality:
    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_ppush(self, dynamics, acceptance):
        assert (
            run_case("ppush", dynamics, acceptance, "object", rounds=60)
            == run_case("ppush", dynamics, acceptance, "array", rounds=60)
        )

    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_blindmatch(self, dynamics, acceptance):
        assert (
            run_case("blindmatch", dynamics, acceptance, "object",
                     rounds=120)
            == run_case("blindmatch", dynamics, acceptance, "array",
                        rounds=120)
        )

    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_sharedbit(self, dynamics, acceptance):
        assert (
            run_case("sharedbit", dynamics, acceptance, "object",
                     rounds=120)
            == run_case("sharedbit", dynamics, acceptance, "array",
                        rounds=120)
        )


class TestTraceForTraceEqualityUnderFaults:
    """The fault-regime axis of the differential matrix: masked stages
    and the drop branch must stay byte-identical across both paths."""

    @pytest.mark.parametrize("fault", [f for f in CHECK_FAULTS
                                       if f != "none"])
    @pytest.mark.parametrize("dynamics", CHECK_DYNAMICS)
    def test_sharedbit(self, dynamics, fault):
        assert (
            run_case("sharedbit", dynamics, "uniform", "object",
                     rounds=60, fault=fault)
            == run_case("sharedbit", dynamics, "uniform", "array",
                        rounds=60, fault=fault)
        )

    @pytest.mark.parametrize("fault", [f for f in CHECK_FAULTS
                                       if f != "none"])
    @pytest.mark.parametrize("algorithm", ("ppush", "blindmatch"))
    def test_other_algorithms(self, algorithm, fault):
        assert (
            run_case(algorithm, "relabeling", "uniform", "object",
                     rounds=60, fault=fault)
            == run_case(algorithm, "relabeling", "uniform", "array",
                        rounds=60, fault=fault)
        )

    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_acceptance_rules_under_sleep(self, acceptance):
        assert (
            run_case("sharedbit", "static", acceptance, "object",
                     rounds=60, fault="sleep")
            == run_case("sharedbit", "static", acceptance, "array",
                        rounds=60, fault="sleep")
        )

    def test_null_fault_model_is_free(self):
        assert check_null_fault_identity(n=16, rounds=25) == []


class TestLocalAcceptanceStreams:
    """The live bridge's recording discipline: per-target match streams
    (``acceptance_streams="local"``) must be byte-identical across the
    object and array paths, or a recorded run would replay differently
    depending on which engine path recorded it (see repro.net.bridge)."""

    def test_local_streams_engine_mode_identity(self):
        assert check_local_acceptance_identity(n=16, rounds=25) == []

    def test_local_differs_from_global_when_contested(self):
        """The knob is real: on a contested topology the per-target
        draws differ from the global sequence.  (Not on the star: its
        hub proposes every round, so spoke proposals are lost and no
        target is ever contested — zero draws under either discipline.)
        """
        assert (
            run_case("sharedbit", "relabeling", "uniform", "object",
                     n=16, rounds=25, acceptance_streams="local")
            != run_case("sharedbit", "relabeling", "uniform", "object",
                        n=16, rounds=25)
        )


class TestAsyncAxis:
    """The ASYNC axis of the differential matrix: the event-driven
    engine under the synchronous null model must reproduce the round
    engine event for event, on both engine paths; jittered timing must
    be seed-deterministic."""

    @pytest.mark.parametrize("engine_mode", ("object", "array"))
    @pytest.mark.parametrize("dynamics", CHECK_ASYNC_DYNAMICS)
    @pytest.mark.parametrize("algorithm", CHECK_ASYNC_ALGORITHMS)
    def test_synchronous_timing_matches_round_engine(
        self, algorithm, dynamics, engine_mode
    ):
        assert (
            run_case(algorithm, dynamics, "uniform", engine_mode,
                     rounds=60)
            == run_case(algorithm, dynamics, "uniform", engine_mode,
                        rounds=60, timing="synchronous")
        )

    @pytest.mark.parametrize("acceptance", CHECK_ACCEPTANCES)
    def test_synchronous_timing_across_acceptance_rules(self, acceptance):
        assert (
            run_case("sharedbit", "relabeling", acceptance, "object",
                     rounds=60)
            == run_case("sharedbit", "relabeling", acceptance, "object",
                        rounds=60, timing="synchronous")
        )

    @pytest.mark.parametrize("fault", [f for f in CHECK_FAULTS
                                       if f != "none"])
    def test_synchronous_timing_composes_with_faults(self, fault):
        # Full synchronized cohorts under a fault regime must mirror the
        # round engine's masked stages and drop branch exactly.
        assert (
            run_case("sharedbit", "static", "uniform", "object",
                     rounds=60, fault=fault)
            == run_case("sharedbit", "static", "uniform", "object",
                        rounds=60, fault=fault, timing="synchronous")
        )

    def test_matrix_via_shared_harness(self):
        assert check_async_sync_identity(n=16, rounds=25) == []

    @pytest.mark.parametrize("timing", CHECK_TIMINGS)
    def test_jittered_timing_is_seed_deterministic(self, timing):
        assert (
            run_case("sharedbit", "geometric", "uniform", "object",
                     rounds=40, timing=timing)
            == run_case("sharedbit", "geometric", "uniform", "object",
                        rounds=40, timing=timing)
        )

    def test_determinism_via_shared_harness(self):
        assert check_async_determinism(n=16, rounds=25) == []

    def test_batched_identity_via_shared_harness(self):
        # The window-batching contract: per-event == batched, byte for
        # byte, through both engine front halves.
        assert check_async_batched_identity(n=16, rounds=25) == []

    @pytest.mark.parametrize("timing", CHECK_TIMINGS)
    def test_jittered_timing_changes_the_execution(self, timing):
        # The non-null models must actually desynchronize something —
        # otherwise the axis tests nothing.
        assert (
            run_case("sharedbit", "static", "uniform", "object",
                     rounds=40, timing=timing)
            != run_case("sharedbit", "static", "uniform", "object",
                        rounds=40)
        )


class TestTelemetryIdentity:
    """The observability axis: telemetry on == telemetry off, byte for
    byte — spans and counters observe a run, they never touch its
    randomness (DESIGN.md §11)."""

    def test_identity_via_shared_harness(self):
        assert check_telemetry_identity(n=16, rounds=25) == []

    def test_telemetry_on_matches_off_single_case(self):
        off = run_case("sharedbit", "geometric", "uniform", "array",
                       rounds=40)
        on = run_case("sharedbit", "geometric", "uniform", "array",
                      rounds=40, telemetry=True)
        assert off == on


class TestGateEntryPoint:
    """``python -m repro.experiments.fastpath --gate NAME ...``: the one
    command CI runs the identity gates through."""

    def test_every_check_is_a_gate(self):
        assert set(fastpath.GATES) >= {
            "async_sync_identity", "async_determinism",
            "async_batched_identity", "local_acceptance_identity",
            "telemetry_identity", "fastpath_divergence",
        }

    def test_divergence_exits_1_and_reports(self, monkeypatch, capsys):
        monkeypatch.setitem(fastpath.GATES, "ok", lambda: [])
        monkeypatch.setitem(fastpath.GATES, "bad", lambda: ["case/x"])
        assert fastpath.main(["--gate", "ok"]) == 0
        assert fastpath.main(["--gate", "ok", "bad"]) == 1
        assert "DIVERGENCE: case/x" in capsys.readouterr().err

    def test_unknown_gate_exits_2_listing_valid_names(self):
        src = str(Path(fastpath.__file__).parents[2])
        done = subprocess.run(
            [sys.executable, "-m", "repro.experiments.fastpath",
             "--gate", "async_determinism", "no_such_gate"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2
        assert "no_such_gate" in done.stderr
        assert "telemetry_identity" in done.stderr
        assert "RuntimeWarning" not in done.stderr


class TestRunGossipEquality:
    """End to end through the standard harness, gauges included."""

    @pytest.mark.parametrize("algorithm", ("blindmatch", "sharedbit"))
    def test_full_run_identical(self, algorithm):
        outcomes = []
        from repro.core.runner import coverage_gauge

        for engine_mode in ("object", "array"):
            instance = uniform_instance(n=16, k=4, seed=3)
            result = run_gossip(
                algorithm,
                make_dynamics("relabeling", n=16, seed=3),
                instance,
                seed=3,
                max_rounds=5000,
                gauges={"coverage": coverage_gauge(instance.token_ids)},
                gauge_every=16,
                engine_mode=engine_mode,
            )
            assert result.solved
            outcomes.append(
                (
                    trace_signature(result.rounds, result.trace),
                    tuple(
                        tuple(sorted(node.known_tokens))
                        for node in result.nodes.values()
                    ),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_auto_mode_picks_array_for_bulk_nodes(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        nodes = build_nodes("blindmatch", instance, seed=1)
        sim = Simulation(
            StaticDynamicGraph(star(8)), nodes, b=0, seed=1,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
        )
        assert sim.engine_mode == "array"

    def test_object_mode_forces_reference_path(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        nodes = build_nodes("blindmatch", instance, seed=1)
        sim = Simulation(
            StaticDynamicGraph(star(8)), nodes, b=0, seed=1,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            engine_mode="object",
        )
        assert sim.engine_mode == "object"

    def test_array_mode_rejected_without_bulk_hooks(self):
        instance = uniform_instance(n=8, k=2, seed=1)
        nodes = build_nodes("crowdedbin", instance, seed=1)
        with pytest.raises(ConfigurationError):
            Simulation(
                StaticDynamicGraph(star(8)), nodes, b=1, seed=1,
                channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
                engine_mode="array",
            )


class TestBulkHookDetection:
    def test_mixed_population_falls_back(self):
        instance = uniform_instance(n=4, k=1, seed=1)
        blind = build_nodes("blindmatch", instance, seed=1)
        tree = SeedTree(1)
        mixed = dict(blind)
        mixed[3] = PPushNode(uid=blind[3].uid, upper_n=99,
                             rng=tree.stream("x"))
        assert bulk_hooks([mixed[v] for v in range(4)]) is None

    def test_subclass_overriding_scalar_hook_is_refused(self):
        class QuietBlindMatch(BlindMatchNode):
            def propose(self, round_index, neighbors):
                return None  # diverges from the inherited propose_all

        instance = uniform_instance(n=4, k=1, seed=1)
        tree = SeedTree(1)
        nodes = [
            QuietBlindMatch(uid=vertex + 1, upper_n=4, initial_tokens=(),
                            rng=tree.stream("node", vertex))
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is None

    def test_subclass_refreshing_both_hooks_is_accepted(self):
        class LoudBlindMatch(BlindMatchNode):
            def propose(self, round_index, neighbors):
                return None

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                return np.full(len(nodes), -1, dtype=np.int64)

        instance = uniform_instance(n=4, k=1, seed=1)
        tree = SeedTree(1)
        nodes = [
            LoudBlindMatch(uid=vertex + 1, upper_n=4, initial_tokens=(),
                           rng=tree.stream("node", vertex))
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is not None

    def test_subclass_overriding_scalar_helper_is_refused(self):
        # advertisement_bit is a helper the scalar advertise calls; the
        # inherited bulk advertise_all computes the parity inline and
        # would never see this override — so the population must fall
        # back to the object path instead of silently diverging.
        from repro.core.sharedbit import SharedBitConfig, SharedBitNode
        from repro.rng import SharedRandomness

        class QuietSharedBit(SharedBitNode):
            def advertisement_bit(self, round_index):
                return 0

        shared = SharedRandomness.from_seed(1, 8)
        tree = SeedTree(5)
        nodes = [
            QuietSharedBit(
                uid=vertex + 1, upper_n=8, initial_tokens=(),
                rng=tree.stream("node", vertex), shared=shared,
                config=SharedBitConfig(),
            )
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is None

    def test_sharedbit_bulk_ready_rejects_mismatched_shared_strings(self):
        from repro.core.sharedbit import SharedBitConfig, SharedBitNode
        from repro.rng import SharedRandomness

        tree = SeedTree(5)
        nodes = [
            SharedBitNode(
                uid=vertex + 1,
                upper_n=8,
                initial_tokens=(),
                rng=tree.stream("node", vertex),
                shared=SharedRandomness.from_seed(vertex, 8),  # all differ
                config=SharedBitConfig(),
            )
            for vertex in range(4)
        ]
        assert bulk_hooks(nodes) is None


class _IslandDynamicGraph:
    """Helper factory: a path on 0..n-2 plus an isolated vertex n-1.

    In-tree dynamics always produce connected graphs, but the dynamics
    ABC is a plugin surface and nothing forces connectivity on
    out-of-tree subclasses — the object path tolerates isolated
    vertices, so the array path must too (regression: segment reductions
    over empty CSR rows)."""

    def __new__(cls, n: int):
        import networkx as nx

        from repro.graphs.dynamic import DynamicGraph, TAU_INFINITY

        class Island(DynamicGraph):
            def __init__(self):
                super().__init__(n=n, tau=TAU_INFINITY)
                graph = nx.path_graph(n - 1)
                graph.add_node(n - 1)
                self._graph = graph

            def _graph_for_epoch(self, epoch):
                return self._graph

        return Island()


class TestZeroDegreeVertices:
    def _ppush_sim(self, rumor_vertex: int, engine_mode: str, n: int = 6):
        from repro.core.tokens import Token

        tree = SeedTree(3)
        nodes = {
            vertex: PPushNode(
                uid=vertex + 1, upper_n=n,
                rng=tree.stream("node", vertex + 1),
                rumor=Token(1) if vertex == rumor_vertex else None,
            )
            for vertex in range(n)
        }
        sim = Simulation(_IslandDynamicGraph(n), nodes, b=1, seed=3,
                         engine_mode=engine_mode)
        sim.run(max_rounds=20)
        return trace_signature(sim.current_round, sim.trace)

    def test_trailing_isolated_vertex_matches_reference(self):
        assert self._ppush_sim(0, "object") == self._ppush_sim(0, "array")

    def test_informed_isolated_vertex_matches_reference(self):
        # The isolated vertex holds the rumor: it advertises 1 but has no
        # neighbors, so neither path may draw or propose for it.
        n = 6
        assert (
            self._ppush_sim(n - 1, "object")
            == self._ppush_sim(n - 1, "array")
        )

    def test_isolated_proposer_rejected_on_array_path(self):
        class RogueBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.zeros(len(nodes), dtype=np.int64)

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                targets = np.full(len(nodes), -1, dtype=np.int64)
                # The isolated vertex proposes: illegal, no neighbors.
                targets[-1] = nodes[0].uid
                return targets

        from repro.errors import ProtocolViolationError

        n = 5
        tree = SeedTree(4)
        nodes = {
            vertex: RogueBlindMatch(
                uid=vertex + 1, upper_n=n, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(n)
        }
        sim = Simulation(_IslandDynamicGraph(n), nodes, b=0, seed=4,
                         engine_mode="array")
        with pytest.raises(ProtocolViolationError):
            sim.step()


class TestEngineEnforcementOnArrayPath:
    def test_bad_tag_rejected(self):
        class BadTagBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.full(len(nodes), 7, dtype=np.int64)

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                return np.full(len(nodes), -1, dtype=np.int64)

        tree = SeedTree(2)
        nodes = {
            vertex: BadTagBlindMatch(
                uid=vertex + 1, upper_n=6, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(6)
        }
        sim = Simulation(StaticDynamicGraph(star(6)), nodes, b=0, seed=2,
                         engine_mode="array")
        from repro.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            sim.step()

    def test_float_tag_array_rejected(self):
        # The object path rejects non-int tags via isinstance; the array
        # path must not let a float array be silently truncated instead.
        class FloatTagBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.zeros(len(nodes))  # float64

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                return np.full(len(nodes), -1, dtype=np.int64)

        tree = SeedTree(2)
        nodes = {
            vertex: FloatTagBlindMatch(
                uid=vertex + 1, upper_n=6, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(6)
        }
        sim = Simulation(StaticDynamicGraph(star(6)), nodes, b=0, seed=2,
                         engine_mode="array")
        from repro.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            sim.step()

    def test_non_neighbor_proposal_rejected(self):
        class RogueBlindMatch(BlindMatchNode):
            @classmethod
            def advertise_all(cls, nodes, round_index, csr):
                return np.zeros(len(nodes), dtype=np.int64)

            @classmethod
            def propose_all(cls, nodes, round_index, csr, tags):
                targets = np.full(len(nodes), -1, dtype=np.int64)
                # Vertex 1 proposes to vertex 2's uid — on a star only
                # the hub (vertex 0) is a legal target for a leaf.
                targets[1] = nodes[2].uid
                return targets

        tree = SeedTree(2)
        nodes = {
            vertex: RogueBlindMatch(
                uid=vertex + 1, upper_n=6, initial_tokens=(),
                rng=tree.stream("node", vertex),
            )
            for vertex in range(6)
        }
        sim = Simulation(StaticDynamicGraph(star(6)), nodes, b=0, seed=2,
                         engine_mode="array")
        from repro.errors import ProtocolViolationError

        with pytest.raises(ProtocolViolationError):
            sim.step()
