"""The benchmark's four workloads, driven through the public entry points.

Each workload turns one *slot* (an integer derived from the benchmark
seed) into its inputs, runs them, and returns a :class:`Sample`: set-up
and run wall time, the rounds executed, the operations attempted and
failed, and the output the pinned-output check compares.  Given a
:class:`~tracing.Tracer` instead of ``None`` the same call is the traced
run: spans around each layer call, counters on the hot protocol methods,
and :meth:`Workload.layers` turns them into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from repro.commcplx import EqualityTester, TransferProtocol
from repro.core import uniform_instance
from repro.core.runner import build_nodes
from repro.experiments import (
    SweepSpec,
    build_config,
    build_dynamic_graph,
    build_instance,
    build_timing,
    canonical_json,
    normalize_payload,
    run_sweep,
)
import repro.experiments.runner as experiments_runner
from repro.experiments.specs import build_fault
from repro.asynchrony.engine import AsyncSimulation
from repro.graphs import GeometricMobilityGraph, StaticDynamicGraph, expander
from repro.graphs.dynamic import ring_expander_graph
from repro.net import Coordinator, record_run, replay
import repro.net.bridge as net_bridge
from repro.registry import ALGORITHM_REGISTRY
from repro.sim.channel import Channel, ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.termination import all_hold_tokens
from repro.telemetry import quantile

from tracing import NullTracer, SpanTelemetry

NULL_TRACER = NullTracer()

#: Every per-layer metric, in report order, with its unit.  Every
#: workload reports all of them; one a workload cannot observe reads 0.
PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.csr_at_s": "s",
    "graphs.csr_at_calls": "count",
    "graphs.epochs": "count",
    "graphs.csr_at_share": "ratio",
    "core.build_nodes_s": "s",
    "sim.init_s": "s",
    "sim.advertise_s": "s",
    "sim.propose_s": "s",
    "sim.resolve_s": "s",
    "sim.csr_bind_s": "s",
    "sim.stage3_s": "s",
    "sim.stage3_share": "ratio",
    "sim.observe_s": "s",
    "sim.stages12_self_s": "s",
    "sim.rounds": "count",
    "sim.proposals": "count",
    "sim.connections": "count",
    "sim.tokens_moved": "count",
    "sim.control_bits": "count",
    "sim.match_ratio": "ratio",
    "sim.useful_connection_ratio": "ratio",
    "commcplx.locate_calls": "count",
    "commcplx.eqtest_calls": "count",
    "sim.channel.charge_bits_calls": "count",
    "commcplx.locate_s": "s",
    "faults.dropped_ratio": "ratio",
    "faults.active_ratio": "ratio",
    "asynchrony.window_drain_s": "s",
    "asynchrony.window_schedule_s": "s",
    "asynchrony.window_process_s": "s",
    "asynchrony.window_flush_s": "s",
    "experiments.busy_s": "s",
    "experiments.parallel_efficiency": "ratio",
    "experiments.aggregate_s": "s",
    "net.boot_s": "s",
    "net.round_s": "s",
    "net.rpc_retries": "count",
    "net.rpc_timeouts": "count",
    "net.suspects": "count",
    "net.connect_p50_ms": "ms",
    "net.connect_p95_ms": "ms",
    "telemetry.overhead_pct": "%",
}

#: Engine span name -> per-layer metric fed from its total seconds.
_SPAN_METRICS = {
    "round.advertise": "sim.advertise_s",
    "round.propose": "sim.propose_s",
    "round.resolve": "sim.resolve_s",
    "round.csr_bind": "sim.csr_bind_s",
    "round.stage3": "sim.stage3_s",
    "round.observe": "sim.observe_s",
    "window.drain": "asynchrony.window_drain_s",
    "window.schedule": "asynchrony.window_schedule_s",
    "window.process": "asynchrony.window_process_s",
    "window.flush": "asynchrony.window_flush_s",
}

#: Child spans of ``round.stages12`` whose time the engine attributes.
_STAGES12_CHILDREN = ("round.advertise", "round.propose", "round.resolve",
                      "round.csr_bind")


@dataclass
class Sample:
    """One measured execution of a workload slot."""

    slot: int
    setup_s: float
    run_s: float
    rounds: int
    attempted: int
    failed: int
    #: What the pinned-output check compares (JSON-able).
    output: object
    problems: list = field(default_factory=list)
    #: Workload-specific facts the traced metrics read.
    facts: dict = field(default_factory=dict)


def digest(payload) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:16]


def token_digest(nodes) -> str:
    """Digest of every node's final token set, keyed by UID."""
    return digest(sorted(
        [node.uid, sorted(node.known_tokens)] for node in nodes.values()
    ))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _trace_counts(trace, n: int) -> dict:
    """The public :class:`~repro.sim.trace.Trace` totals as metrics."""
    active = [n if record.active_nodes is None else record.active_nodes
              for record in trace.records]
    return {
        "faults.active_ratio": _ratio(sum(active), len(active) * n),
        "sim.rounds": trace.total_rounds,
        "sim.proposals": trace.total_proposals,
        "sim.connections": trace.total_connections,
        "sim.tokens_moved": trace.total_tokens_moved,
        "sim.control_bits": trace.total_control_bits,
        "sim.match_ratio": _ratio(trace.total_connections,
                                  trace.total_proposals),
        "sim.useful_connection_ratio": _ratio(trace.total_tokens_moved,
                                              trace.total_connections),
        "faults.dropped_ratio": _ratio(
            trace.total_dropped_connections,
            trace.total_connections + trace.total_dropped_connections,
        ),
    }


def _profile_metrics(profile: dict) -> dict:
    """Per-layer seconds from a ``{span: {"calls", "seconds"}}`` table."""
    out = {metric: profile.get(span, {}).get("seconds", 0.0)
           for span, metric in _SPAN_METRICS.items()}
    out["sim.stages12_self_s"] = (
        profile.get("round.stages12", {}).get("seconds", 0.0)
        - sum(profile.get(name, {}).get("seconds", 0.0)
              for name in _STAGES12_CHILDREN)
        - profile.get("graphs.csr_at", {}).get("seconds", 0.0)
    )
    return out


class Workload:
    """One named set of inputs and the entry point that runs them."""

    name: str
    #: Size of the pinned-output table; slots are taken modulo this.
    slots: int
    #: Slots measured per benchmark seed (their mean is reported).
    per_seed: int
    #: Whether outputs are checked against perfbench/pins.json.
    pinned = True
    #: Whether the workload runs on one CPU (see LiveReplay).
    single_cpu = False
    #: Whether one untimed run of the first slot precedes the samples.  A
    #: process's first run grows the heap and starts lazy machinery that
    #: later runs reuse (first runs read up to ~25% slower).
    warmup = True
    #: Nominal seconds of one sample on the reference host (2 vCPUs);
    #: ``--seconds`` is turned into a sample count with it.
    sample_seconds: float

    def slots_for(self, seed: int) -> list[int]:
        return [(seed * self.per_seed + i) % self.slots
                for i in range(self.per_seed)]

    def measure(self, slot: int, tracer=None) -> Sample:
        raise NotImplementedError

    def check(self, sample: Sample, pins: dict | None) -> list[str]:
        """How ``sample``'s output differs from its pin (empty if equal)."""
        if not self.pinned or pins is None:
            return []
        expected = pins.get(str(sample.slot))
        if expected is None:
            return [f"slot {sample.slot}: no pinned output"]
        if expected != sample.output:
            return [f"slot {sample.slot}: output {sample.output} != pinned "
                    f"{expected}"]
        return []

    def same_output(self, traced: Sample, untraced: Sample) -> bool:
        """Whether the traced run produced the untraced run's output."""
        return traced.output == untraced.output

    def layers(self, tracer, sample: Sample, untraced: list) -> dict:
        raise NotImplementedError

    def children_peak_kb(self) -> int:
        """Peak RSS of worker processes this workload keeps (kB)."""
        return 0


# -- the two single-run engine workloads ------------------------------------


class EngineWorkload(Workload):
    """One gossip run to solved, through ``build_nodes`` + ``Simulation``.

    This is :func:`repro.core.run_gossip`'s construction split into its
    set-up phases (graph, node population, engine init) so each is timed;
    the run itself is ``Simulation.run`` to the all-tokens condition.
    """

    slots = 64
    #: Set-ups per run (the run uses the last; the median is reported).
    setup_repeats = 5
    algorithm: str
    n: int
    k = 4
    max_rounds = 100_000

    def build_graph(self, slot: int):
        raise NotImplementedError

    def measure(self, slot: int, tracer=None) -> Sample:
        tr = tracer or NULL_TRACER
        instance = uniform_instance(self.n, self.k, seed=slot)
        defn = ALGORITHM_REGISTRY.get(self.algorithm)
        config = defn.make_config()
        setups = []
        for _ in range(1 if tracer else self.setup_repeats):
            started = perf_counter()
            with tr.span("graphs.build"):
                graph = self.build_graph(slot)
            with tr.span("core.build_nodes"):
                nodes = build_nodes(self.algorithm, instance, slot, config)
            with tr.span("sim.init"):
                sim = Simulation(
                    dynamic_graph=graph,
                    protocols=nodes,
                    b=defn.resolve_tag_length(config),
                    seed=slot,
                    channel_policy=ChannelPolicy.for_upper_n(
                        instance.upper_n),
                    telemetry=None if tracer is None
                    else SpanTelemetry(tracer),
                )
            setups.append(perf_counter() - started)
        if tracer is not None:
            self._instrument(tracer, graph)
        ready = perf_counter()
        with tr.span("sim.run"):
            result = sim.run(
                max_rounds=self.max_rounds,
                termination=all_hold_tokens(instance.token_ids),
            )
        done = perf_counter()
        problems = []
        if not result.terminated:
            problems.append(
                f"slot {slot}: not solved in {result.rounds} rounds"
            )
        return Sample(
            slot=slot,
            setup_s=statistics.median(setups),
            run_s=done - ready,
            rounds=result.rounds,
            attempted=1,
            failed=1 if problems else 0,
            output=[result.rounds, token_digest(nodes)],
            problems=problems,
            facts={"trace": result.trace, "n": self.n},
        )

    @staticmethod
    def _instrument(tracer, graph) -> None:
        """Spans on ``csr_at``; counters on the Stage-3 hot methods."""
        last = []

        def new_epoch(csr) -> None:
            if not last or last[0] is not csr:
                last[:] = [csr]
                tracer.count("graphs.epochs")

        tracer.wrap(graph, "csr_at", span="graphs.csr_at", after=new_epoch)
        tracer.wrap(TransferProtocol, "locate", span="commcplx.locate")
        tracer.wrap(EqualityTester, "test", count="commcplx.eqtest_calls")
        tracer.wrap(Channel, "charge_bits",
                    count="sim.channel.charge_bits_calls")

    def layers(self, tracer, sample: Sample, untraced: list) -> dict:
        summary = tracer.summary()
        seconds = {name: cell["seconds"] for name, cell in summary.items()}
        trace = sample.facts["trace"]
        out = {
            "graphs.build_s": seconds.get("graphs.build", 0.0),
            "graphs.csr_at_s": seconds.get("graphs.csr_at", 0.0),
            "graphs.csr_at_calls":
                summary.get("graphs.csr_at", {}).get("calls", 0),
            "graphs.epochs": tracer.counts.get("graphs.epochs", 0),
            "core.build_nodes_s": seconds.get("core.build_nodes", 0.0),
            "sim.init_s": seconds.get("sim.init", 0.0),
            "commcplx.locate_calls":
                summary.get("commcplx.locate", {}).get("calls", 0),
            "commcplx.locate_s": seconds.get("commcplx.locate", 0.0),
            "commcplx.eqtest_calls":
                tracer.counts.get("commcplx.eqtest_calls", 0),
            "sim.channel.charge_bits_calls":
                tracer.counts.get("sim.channel.charge_bits_calls", 0),
        }
        out.update(_profile_metrics(summary))
        out.update(_trace_counts(trace, sample.facts["n"]))
        out["sim.stage3_share"] = _ratio(out["sim.stage3_s"], sample.run_s)
        out["graphs.csr_at_share"] = _ratio(out["graphs.csr_at_s"],
                                            sample.run_s)
        return out


class ExpanderBlindMatch(EngineWorkload):
    name = "expander-blindmatch"
    algorithm = "blindmatch"
    n = 3000
    per_seed = 8
    sample_seconds = 2.5

    def build_graph(self, slot: int):
        return ring_expander_graph(self.n, degree=6, seed=slot)


class MobilitySharedBit(EngineWorkload):
    name = "mobility-sharedbit"
    algorithm = "sharedbit"
    n = 1500
    #: Rounds to solve, and the bridging work per round, vary with the
    #: geometry: more slots per seed average that out.
    per_seed = 8
    sample_seconds = 2.5

    def build_graph(self, slot: int):
        return GeometricMobilityGraph(
            self.n, radius=math.sqrt(12 / (math.pi * self.n)), step=0.05,
            tau=1, seed=slot, bridge=True,
        )


# -- the sweep ----------------------------------------------------------------


class SweepMixed(Workload):
    """``run_sweep(jobs=2)``, uncached, over a mixed algorithm x fault x
    timing grid on a small static expander.

    Set-up is what every run of the grid builds before its first round
    (graph, fault and timing models, instance, nodes, engine), done here
    serially through the same public builders ``execute_run`` uses; the
    run is the whole ``run_sweep`` call.
    """

    name = "sweep-mixed"
    slots = 16
    per_seed = 1
    sample_seconds = 7.0
    #: Every run_sweep starts fresh worker processes, so a warm-up sweep
    #: would cost a sample and warm nothing the runs use.
    warmup = False
    n = 256
    seeds_per_cell = 2

    def __init__(self, jobs: int):
        self.jobs = jobs

    def spec(self, slot: int, telemetry: bool) -> SweepSpec:
        base = {
            "algorithm": "sharedbit",
            "graph": {"family": "expander",
                      "params": {"n": self.n, "degree": 4, "seed": slot}},
            "dynamic": {"kind": "static"},
            "instance": {"kind": "uniform", "k": 4},
            "max_rounds": 20_000,
            "engine": {"trace_sample_every": 1024},
        }
        if telemetry:
            base["telemetry"] = {"enabled": True}
        return SweepSpec(
            name="perfbench-sweep-mixed",
            base=base,
            grid={
                "algorithm": ["sharedbit", "blindmatch", "simsharedbit",
                              "multibit", "ppush"],
                "fault": [{"kind": "none"}, {"kind": "sleep"},
                          {"kind": "lossy"}],
                "timing": [{"kind": "synchronous"},
                           {"kind": "jitter", "jitter": 0.5}],
            },
            seeds=tuple(slot * self.seeds_per_cell + i + 1
                        for i in range(self.seeds_per_cell)),
            overrides=[{"when": {"algorithm": "ppush"},
                        "set": {"instance.k": 1}}],
        )

    @staticmethod
    def _build_engine(payload: dict, tr) -> None:
        """Build one run's engine the way ``execute_run`` does, then drop it."""
        payload, _ = normalize_payload(payload)
        algorithm = payload["algorithm"]
        seed = payload["seed"]
        with tr.span("graphs.build"):
            graph = build_dynamic_graph(payload["graph"],
                                        payload.get("dynamic", {}), seed)
        fault = build_fault(payload.get("fault"), graph.n, seed)
        timing = build_timing(payload.get("timing"), graph.n, seed)
        defn = ALGORITHM_REGISTRY.get(algorithm)
        config = (build_config(algorithm, payload.get("config"))
                  or defn.make_config())
        with tr.span("core.build_nodes"):
            instance = build_instance(payload["instance"], graph.n, seed)
            nodes = build_nodes(algorithm, instance, seed, config)
        kwargs = dict(
            dynamic_graph=graph, protocols=nodes,
            b=defn.resolve_tag_length(config), seed=seed,
            channel_policy=ChannelPolicy.for_upper_n(instance.upper_n),
            faults=fault,
        )
        with tr.span("sim.init"):
            if timing is None:
                Simulation(**kwargs)
            else:
                AsyncSimulation(timing=timing, **kwargs)

    def measure(self, slot: int, tracer=None) -> Sample:
        tr = tracer or NULL_TRACER
        spec = self.spec(slot, telemetry=tracer is not None)
        started = perf_counter()
        runs = spec.runs()
        for _, _, _, payload in runs:
            self._build_engine(payload, tr)
        ready = perf_counter()
        if tracer is not None:
            tracer.wrap(experiments_runner, "aggregate",
                        span="experiments.aggregate")
        with tr.span("experiments.run_sweep"):
            result = run_sweep(spec, jobs=self.jobs)
        done = perf_counter()
        records = [record for point in result.points
                   for record in point.runs]
        unsolved = sum(not solved for point in result.points
                       for solved in point.solved)
        problems = []
        if unsolved:
            problems.append(f"slot {slot}: {unsolved} sweep runs unsolved")
        cells = [[point.point, list(point.seeds), list(point.rounds),
                  list(point.solved)] for point in result.points]
        return Sample(
            slot=slot,
            setup_s=ready - started,
            run_s=done - ready,
            rounds=sum(record["rounds"] for record in records),
            attempted=len(records),
            failed=unsolved,
            output=hashlib.sha256(
                result.to_json().encode("utf-8")).hexdigest()[:16],
            problems=problems,
            facts={"result": result, "records": records, "runs": runs,
                   "cells": digest(cells)},
        )

    def same_output(self, traced: Sample, untraced: Sample) -> bool:
        # Telemetry is part of the spec, so it changes to_json but must
        # not change a single cell.
        return traced.facts["cells"] == untraced.facts["cells"]

    def layers(self, tracer, sample: Sample, untraced: list) -> dict:
        summary = tracer.summary()
        seconds = {name: cell["seconds"] for name, cell in summary.items()}
        records = sample.facts["records"]
        profile = sample.facts["result"].phase_totals()
        busy = profile.get("run.total", {}).get("seconds", 0.0)
        wall = seconds["experiments.run_sweep"]
        connections = sum(r["connections"] for r in records)
        dropped = sum(r["dropped_connections"] for r in records)
        tokens = sum(r["tokens_moved"] for r in records)
        out = {
            "graphs.build_s": seconds.get("graphs.build", 0.0),
            "core.build_nodes_s": seconds.get("core.build_nodes", 0.0),
            "sim.init_s": seconds.get("sim.init", 0.0),
            "sim.rounds": sample.rounds,
            "sim.connections": connections,
            "sim.tokens_moved": tokens,
            "sim.control_bits": sum(r["control_bits"] for r in records),
            "sim.useful_connection_ratio": _ratio(tokens, connections),
            "faults.dropped_ratio": _ratio(dropped, connections + dropped),
            "faults.active_ratio": self._active_ratio(sample),
            "experiments.busy_s": busy,
            "experiments.parallel_efficiency":
                _ratio(busy, wall * self.jobs),
            "experiments.aggregate_s":
                seconds.get("experiments.aggregate", 0.0),
        }
        out.update(_profile_metrics(profile))
        out["sim.stage3_share"] = _ratio(out["sim.stage3_s"], busy)
        return out

    @staticmethod
    def _active_ratio(sample: Sample) -> float:
        """Mean awake fraction over every run's rounds, replayed from each
        run's (deterministic) fault model."""
        awake = total = 0
        for (_, _, _, payload), record in zip(sample.facts["runs"],
                                              sample.facts["records"]):
            n = payload["graph"]["params"]["n"]
            model = build_fault(payload.get("fault"), n, payload["seed"])
            for rnd in range(1, record["rounds"] + 1):
                mask = None if model is None else model.active_mask(rnd)
                awake += n if mask is None else int(mask.sum())
                total += n
        return _ratio(awake, total)

    def children_peak_kb(self) -> int:
        import resource

        # ru_maxrss of reaped children is the largest single worker; the
        # pool holds `jobs` of them at once.
        return self.jobs * resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss


# -- the live cluster -----------------------------------------------------------


def _timed_coordinator(tr, built: list):
    """A :class:`Coordinator` that times cluster boot (construction +
    ``start``) and every round, and appends itself to ``built``."""

    class TimedCoordinator(Coordinator):
        def __init__(self, *args, **kwargs):
            built.append(self)
            self.boot_started = perf_counter()
            with tr.span("net.boot"):
                super().__init__(*args, **kwargs)

        def start(self):
            with tr.span("net.boot"):
                started = super().start()
            self.booted = perf_counter()
            return started

        def run_round(self, rnd: int) -> None:
            with tr.span("net.round"):
                return super().run_round(rnd)

    return TimedCoordinator


class LiveReplay(Workload):
    """``record_run`` then ``replay`` of BlindMatch on loopback TCP."""

    name = "live-replay"
    slots = 64
    #: Rounds to solve vary by 13% (CV) between slots; 8 slots sampled
    #: once average that out better than 4 slots sampled twice.
    per_seed = 8
    sample_seconds = 2.5
    #: The recording is the reference: replay equivalence is the check.
    pinned = False
    #: Live rounds are chains of thread hand-offs over loopback sockets;
    #: on one CPU no hand-off waits for a cross-CPU wake-up, which on a
    #: shared 2-vCPU host spread rounds/s by ~30% run to run (~3% pinned).
    single_cpu = True
    n = 32
    k = 4
    algorithm = "blindmatch"
    max_rounds = 4096

    def __init__(self, connect_workers: int):
        self.connect_workers = connect_workers

    def measure(self, slot: int, tracer=None) -> Sample:
        tr = tracer or NULL_TRACER
        graph = StaticDynamicGraph(expander(self.n, 4, seed=slot))
        instance = uniform_instance(self.n, self.k, seed=slot)
        started = perf_counter()
        with tr.span("net.record_run"):
            record = record_run(self.algorithm, graph, instance, slot,
                                max_rounds=self.max_rounds)
        recorded = perf_counter()
        built: list = []
        # replay() builds its Coordinator by name from repro.net.bridge.
        net_bridge.Coordinator = _timed_coordinator(tr, built)
        try:
            report = replay(record, connect_workers=self.connect_workers)
        finally:
            net_bridge.Coordinator = Coordinator
        coordinator = built[0]
        live = report.live
        failed = sum(
            len(set(recorded_round) ^ set(live_round))
            for recorded_round, live_round in zip(
                record.match_stream, live.match_stream)
        ) + sum(1 for uid, tokens in record.final_tokens.items()
                if live.final_tokens.get(uid) != tokens)
        problems = [f"slot {slot}: {d}" for d in report.divergences[:5]]
        if not record.solved:
            problems.append(f"slot {slot}: recording did not solve")
        if failed and not problems:
            problems.append(f"slot {slot}: {failed} divergent operations")
        return Sample(
            slot=slot,
            setup_s=(recorded - started
                     + coordinator.booted - coordinator.boot_started),
            run_s=live.wall_seconds,
            rounds=live.rounds,
            attempted=max(1, sum(len(m) for m in record.match_stream)),
            failed=failed,
            output=None,
            problems=problems,
            facts={"live": live},
        )

    def layers(self, tracer, sample: Sample, untraced: list) -> dict:
        summary = tracer.summary()
        live = sample.facts["live"]
        latencies = [seconds for s in untraced
                     for _, seconds in s.facts["live"].trace
                     .connection_latencies]
        rounds = [end - start for name, start, end, _ in tracer.spans
                  if name == "net.round"]
        out = {
            "net.boot_s": summary.get("net.boot", {}).get("seconds", 0.0),
            "net.round_s": statistics.median(rounds) if rounds else 0.0,
            "net.rpc_retries": live.retries,
            "net.rpc_timeouts": live.timeouts,
            "net.suspects": live.suspect_events,
            "net.connect_p50_ms": 1000 * (quantile(latencies, 0.50) or 0.0),
            "net.connect_p95_ms": 1000 * (quantile(latencies, 0.95) or 0.0),
        }
        out.update(_trace_counts(live.trace, self.n))
        return out


def all_workloads(jobs: int) -> dict:
    """Name -> workload, in report order."""
    workloads = [ExpanderBlindMatch(), MobilitySharedBit(), SweepMixed(jobs),
                 LiveReplay(jobs)]
    return {workload.name: workload for workload in workloads}
