"""Differential harness: the array fast path vs the object reference path.

One implementation of the byte-identity check, shared by the test suite
(tests/test_fastpath.py), the benchmark gate (benchmarks/bench_engine.py)
and CI's bench-smoke job — so there is a single notion of "byte-identical"
and it cannot drift between surfaces.

A *case* is (algorithm, dynamics kind, acceptance rule, fault regime,
engine mode); its outcome is a hashable signature covering everything an
execution observably did: every sampled trace record (gauges and the
fault columns included), every running total, the final round, and the
algorithm's end state (who got informed when / who knows which tokens).
Two engine modes agree iff their signatures are equal.

The fault layer adds a second invariant:
:func:`check_null_fault_identity` pins that the null model
(:class:`~repro.sim.faults.NoFaults`) is byte-identical to running with
no fault model at all — on both paths, the layer costs nothing and
consumes zero randomness unless a real regime is selected.

The asynchrony layer adds a third axis (ASYNC):
:func:`check_async_sync_identity` pins that the event-driven engine
(:class:`~repro.asynchrony.engine.AsyncSimulation`) under
:class:`~repro.asynchrony.timing.Synchronous` timing is *event-for-event
identical* to the round engine — same matches, same random-stream
consumption, same traces, same end state — on both the object and the
array path; :func:`check_async_determinism` pins that jittered timing
models are seed-deterministic (same seed, twice, byte-identical);
:func:`check_async_batched_identity` pins that the batched window path
(``async_mode="batched"``) is byte-identical to the generic per-event
path under every timing regime and fault regime, on both the object and
the array front half — the determinism contract of the window-batching
optimization ("no random draw may move").

The scale layer adds two more invariants: :func:`check_dtype_identity`
pins that running the array path over int32 CSR index arrays (the
memory-lean layout auto-chosen below n = 2^31) is byte-identical to
int64 — same matches, same random-stream consumption, same traces —
and :func:`check_grid_identity` pins the cell-grid geometric primitives
(:mod:`repro.graphs.spatial`) to their O(n^2) differential references:
grid disk edges == blocked-sweep disk edges (same arrays, same order),
and :class:`~repro.graphs.spatial.PointIndex` nearest queries ==
dense ``nearest_pair`` (value *and* tie-break).

The telemetry layer (repro.telemetry) adds the observability axis:
:func:`check_telemetry_identity` pins that enabling metrics + phase
profiling perturbs nothing — telemetry draws zero randomness, so every
case is byte-identical with it on or off, on both engine-mode front
halves of the round engine and on both front halves of the event
engine's batched window path.

The live deployment layer (repro.net) adds a fourth invariant:
:func:`check_local_acceptance_identity` pins that the per-target
acceptance-stream discipline (``acceptance_streams="local"`` — the
draws a distributed proposee can derive knowing only seed, round, and
its own UID) is byte-identical between the object and array paths for
every proposee-side rule.  The replay bridge
(:mod:`repro.net.bridge`) records under this discipline, so the check
anchors live-replay equivalence to whichever engine path recorded.

Every gate also runs from the command line with its defaults, printing
each divergence to stderr and exiting 1 on any::

    python -m repro.experiments.fastpath --gate async_sync_identity \
        async_determinism async_batched_identity
"""

from __future__ import annotations

import argparse
import sys

from repro.asynchrony.engine import AsyncSimulation
from repro.asynchrony.timing import (
    GilbertElliottPauses,
    HeterogeneousRates,
    Synchronous,
    UniformJitter,
)
from repro.core.ppush import PPushNode
from repro.core.problem import uniform_instance
from repro.core.runner import build_nodes
from repro.core.tokens import Token
from repro.graphs.dynamic import (
    GeometricMobilityGraph,
    RelabelingAdversary,
    StaticDynamicGraph,
)
from repro.graphs.topologies import cycle, star
from repro.registry import ALGORITHM_REGISTRY
from repro.rng import SeedTree
from repro.sim.channel import ChannelPolicy
from repro.sim.engine import Simulation
from repro.sim.faults import CrashChurn, LossyLinks, SleepCycle

__all__ = [
    "CHECK_ALGORITHMS",
    "CHECK_ACCEPTANCES",
    "CHECK_DYNAMICS",
    "CHECK_FAULTS",
    "CHECK_ASYNC_ALGORITHMS",
    "CHECK_ASYNC_DYNAMICS",
    "CHECK_TIMINGS",
    "GATES",
    "check_dtype_identity",
    "check_fastpath_divergence",
    "check_grid_identity",
    "check_local_acceptance_identity",
    "check_null_fault_identity",
    "check_async_sync_identity",
    "check_async_determinism",
    "check_async_batched_identity",
    "check_telemetry_identity",
    "main",
    "make_dynamics",
    "make_fault",
    "make_timing",
    "run_case",
    "trace_signature",
]

CHECK_ALGORITHMS = ("ppush", "blindmatch", "sharedbit")
CHECK_DYNAMICS = ("static", "relabeling", "geometric")
CHECK_ACCEPTANCES = ("uniform", "lowest_uid", "highest_uid", "unbounded")
#: Fault regimes the differential matrix exercises ("none" = no model).
CHECK_FAULTS = ("none", "sleep", "churn", "lossy")
#: The ASYNC identity axis: algorithms × dynamics run through both the
#: round engine and the event engine under synchronous timing.
CHECK_ASYNC_ALGORITHMS = ("sharedbit", "blindmatch")
CHECK_ASYNC_DYNAMICS = ("static", "geometric")
#: Jittered timing regimes the determinism check exercises.
CHECK_TIMINGS = ("jitter", "heterogeneous", "bursty")


def trace_signature(rounds: int, trace) -> tuple:
    """Everything a trace observed, ready for exact comparison."""
    records = tuple(
        (r.round_index, r.proposals, r.connections, r.tokens_moved,
         r.control_bits, r.active_nodes, r.dropped_connections,
         tuple(sorted(r.gauges.items())))
        for r in trace.records
    )
    return (
        rounds,
        trace.total_rounds,
        trace.total_proposals,
        trace.total_connections,
        trace.total_tokens_moved,
        trace.total_control_bits,
        trace.total_dropped_connections,
        records,
    )


def make_dynamics(kind: str, n: int, seed: int):
    """One fresh dynamic graph per execution (GeometricMobilityGraph
    carries evolving state and must be walked forward once per run)."""
    if kind == "static":
        return StaticDynamicGraph(star(n))
    if kind == "relabeling":
        return RelabelingAdversary(cycle(n), tau=2, seed=seed)
    if kind == "geometric":
        return GeometricMobilityGraph(n=n, radius=0.4, step=0.05, tau=3,
                                      seed=seed)
    raise ValueError(f"unknown differential dynamics kind {kind!r}")


def make_fault(kind, n: int, seed: int):
    """One fresh fault model per execution, sized for short differential
    runs (aggressive rates so a few dozen rounds actually exercise the
    masked paths and the drop branch).  An already-built
    :class:`~repro.sim.faults.FaultModel` passes through unchanged."""
    if not isinstance(kind, str):
        return kind
    if kind == "none":
        return None
    if kind == "sleep":
        return SleepCycle(n=n, seed=seed, period=4, duty=2)
    if kind == "churn":
        return CrashChurn(n=n, seed=seed, cycle=12, crash_prob=0.5,
                          min_outage=3, max_outage=6, reset_tokens=True)
    if kind == "lossy":
        return LossyLinks(n=n, seed=seed, drop_prob=0.3)
    raise ValueError(f"unknown differential fault kind {kind!r}")


def _ppush_nodes(n: int, seed: int) -> dict:
    tree = SeedTree(seed)
    return {
        vertex: PPushNode(
            uid=vertex + 1,
            upper_n=n,
            rng=tree.stream("node", vertex + 1),
            rumor=Token(1) if vertex == 0 else None,
        )
        for vertex in range(n)
    }


def make_timing(kind, n: int, seed: int):
    """One fresh timing model per execution (jittered models sized so a
    few dozen rounds exercise partial cohorts, stale reads, and stalls).
    An already-built :class:`~repro.asynchrony.timing.TimingModel`
    passes through unchanged; ``None`` means the round engine."""
    if kind is None or not isinstance(kind, str):
        return kind
    if kind == "synchronous":
        return Synchronous(n, seed)
    if kind == "jitter":
        return UniformJitter(n=n, seed=seed, jitter=0.6)
    if kind == "heterogeneous":
        return HeterogeneousRates(n=n, seed=seed, rates=(0.5, 1.0, 1.7))
    if kind == "bursty":
        return GilbertElliottPauses(n=n, seed=seed, p_pause=0.2,
                                    p_resume=0.5, pause_scale=2.0)
    raise ValueError(f"unknown differential timing kind {kind!r}")


def run_case(
    algorithm: str,
    dynamics_kind: str,
    acceptance: str,
    engine_mode: str,
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    fault="none",
    timing=None,
    async_mode="auto",
    acceptance_streams="global",
    csr_dtype=None,
    telemetry=None,
) -> tuple:
    """Run one differential case; returns (trace signature, final state).

    ``timing=None`` runs the round engine; anything else (a kind name or
    a built model — including ``"synchronous"``) runs the event engine,
    with ``async_mode`` selecting its front half (``"event"`` forces the
    generic per-event path, ``"batched"`` forces window batching).
    ``acceptance_streams`` selects the match-stream discipline (the
    event engine supports only ``"global"``).  ``csr_dtype`` forces the
    dynamic graph's CSR index dtype (``"int32"`` / ``"int64"``; ``None``
    keeps the auto-chosen narrowest) — the dtype-identity axis.
    ``telemetry`` is the observability axis: anything
    :func:`repro.telemetry.resolve_telemetry` accepts (``True`` turns
    profiling + metrics on); the telemetry-identity gate pins that it
    never perturbs the signature.
    """
    import numpy as np
    if algorithm == "ppush":
        nodes = _ppush_nodes(n, seed)
        b = 1
        policy = None
    else:
        instance = uniform_instance(n=n, k=3, seed=seed)
        nodes = build_nodes(algorithm, instance, seed=seed)
        defn = ALGORITHM_REGISTRY.get(algorithm)
        b = defn.resolve_tag_length(defn.make_config())
        policy = ChannelPolicy.for_upper_n(instance.upper_n)
    timing = make_timing(timing, n, seed)
    engine_kwargs = dict(
        b=b, seed=seed, channel_policy=policy, acceptance=acceptance,
        engine_mode=engine_mode, faults=make_fault(fault, n, seed),
        acceptance_streams=acceptance_streams, telemetry=telemetry,
    )
    dynamics = make_dynamics(dynamics_kind, n, seed)
    if csr_dtype is not None:
        dynamics.csr_dtype = np.dtype(csr_dtype)
    if timing is None:
        sim = Simulation(dynamics, nodes, **engine_kwargs)
    else:
        sim = AsyncSimulation(dynamics, nodes, timing=timing,
                              async_mode=async_mode, **engine_kwargs)
    sim.run(max_rounds=rounds)
    if algorithm == "ppush":
        state = tuple(
            (node.uid, node.informed_at_round)
            for node in sim.protocols.values()
        )
    else:
        state = tuple(
            tuple(sorted(node.known_tokens))
            for node in sim.protocols.values()
        )
    return trace_signature(sim.current_round, sim.trace), state


def check_fastpath_divergence(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ALGORITHMS,
    dynamics=CHECK_DYNAMICS,
    acceptances=CHECK_ACCEPTANCES,
    faults=("none",),
) -> list[str]:
    """Run every case both ways; report mismatches (empty = identical)."""
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for acceptance in acceptances:
                for fault in faults:
                    reference = run_case(algorithm, kind, acceptance,
                                         "object", n, seed, rounds,
                                         fault=fault)
                    fast = run_case(algorithm, kind, acceptance, "array",
                                    n, seed, rounds, fault=fault)
                    if reference != fast:
                        failures.append(
                            f"{algorithm}/{kind}/{acceptance}/{fault}: "
                            "fast path diverged from reference trace"
                        )
    return failures


def check_dtype_identity(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ALGORITHMS,
    dynamics=CHECK_DYNAMICS,
    acceptances=CHECK_ACCEPTANCES,
) -> list[str]:
    """The memory-lean layout's invariant: int32 CSR == int64 CSR.

    Runs every (algorithm, dynamics, acceptance) case through the array
    path twice — once with the CSR index arrays forced to int64, once to
    int32 — and reports any observable difference (empty = the index
    dtype is pure representation; uids and random draws never touch it).
    """
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for acceptance in acceptances:
                wide = run_case(algorithm, kind, acceptance, "array",
                                n, seed, rounds, csr_dtype="int64")
                narrow = run_case(algorithm, kind, acceptance, "array",
                                  n, seed, rounds, csr_dtype="int32")
                if wide != narrow:
                    failures.append(
                        f"{algorithm}/{kind}/{acceptance}: int32 CSR "
                        "diverged from int64 on the array path"
                    )
    return failures


def check_grid_identity(
    ns=(64, 256, 1024),
    radii=(0.02, 0.1, 0.35),
    seeds=(0, 1),
) -> list[str]:
    """The spatial grid's invariant: grid output == O(n^2) reference.

    For every (n, seed) point cloud: the cell-grid disk-edge builder
    must return byte-identical arrays to the blocked pairwise sweep at
    every radius (order included — nx component iteration is
    edge-insertion-order sensitive), and :class:`PointIndex` nearest
    queries must agree with the dense ``nearest_pair`` reduction on
    value *and* tie-break.
    """
    import numpy as np

    from repro.graphs.spatial import (
        PointIndex,
        disk_edges_blocked,
        disk_edges_grid,
        nearest_pair,
    )

    failures = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n in ns:
            xs = rng.random(n)
            ys = rng.random(n)
            for radius in radii:
                bu, bv = disk_edges_blocked(xs, ys, radius)
                gu, gv = disk_edges_grid(xs, ys, radius)
                if not (np.array_equal(bu, gu) and np.array_equal(bv, gv)):
                    failures.append(
                        f"n={n}/radius={radius}/seed={seed}: grid edge "
                        "set diverged from the blocked sweep"
                    )
            half = n // 2
            reference = nearest_pair(xs[:half], ys[:half],
                                     xs[half:], ys[half:])
            indexed = PointIndex(xs[:half], ys[:half]).nearest(
                xs[half:], ys[half:]
            )
            if reference != indexed:
                failures.append(
                    f"n={n}/seed={seed}: PointIndex nearest pair "
                    f"diverged from the dense reduction "
                    f"({indexed} != {reference})"
                )
    return failures


def check_null_fault_identity(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ALGORITHMS,
    dynamics=CHECK_DYNAMICS,
) -> list[str]:
    """The fault layer's load-bearing invariant: ``NoFaults`` == no model.

    Runs each case twice per engine mode — once with no fault model at
    all, once with the registered null model — and reports any case where
    the two differ in any observable way (empty = the null model is free).
    """
    from repro.sim.faults import NoFaults

    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for engine_mode in ("object", "array"):
                bare = run_case(algorithm, kind, "uniform", engine_mode,
                                n, seed, rounds)
                null = run_case(algorithm, kind, "uniform", engine_mode,
                                n, seed, rounds,
                                fault=NoFaults(n, seed))
                if bare != null:
                    failures.append(
                        f"{algorithm}/{kind}/{engine_mode}: NoFaults "
                        "perturbed the trace (the null model must be free)"
                    )
    return failures


def check_local_acceptance_identity(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ALGORITHMS,
    dynamics=CHECK_DYNAMICS,
    acceptances=("uniform", "lowest_uid", "highest_uid"),
) -> list[str]:
    """The live bridge's recording discipline: local streams, both paths.

    Runs every (algorithm, dynamics, proposee-side rule) case under
    ``acceptance_streams="local"`` through the object reference path and
    the array fast path and reports any observable difference (empty =
    the per-target stream discipline is engine-mode independent, so a
    :func:`repro.net.bridge.record_run` recording replays identically
    regardless of which path produced it).  ``"unbounded"`` is excluded:
    it is not a proposee-side rule and the live layer rejects it.
    """
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for acceptance in acceptances:
                reference = run_case(algorithm, kind, acceptance,
                                     "object", n, seed, rounds,
                                     acceptance_streams="local")
                fast = run_case(algorithm, kind, acceptance, "array",
                                n, seed, rounds,
                                acceptance_streams="local")
                if reference != fast:
                    failures.append(
                        f"{algorithm}/{kind}/{acceptance}: array path "
                        "diverged from the object path under local "
                        "acceptance streams"
                    )
    return failures


def check_async_sync_identity(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ASYNC_ALGORITHMS,
    dynamics=CHECK_ASYNC_DYNAMICS,
    acceptances=("uniform",),
    async_mode="auto",
) -> list[str]:
    """The ASYNC axis: synchronous timing == the round engine.

    Runs each case through the round engine and through the event-driven
    engine under the :class:`~repro.asynchrony.timing.Synchronous` null
    model — on *both* the object and the array path — and reports any
    case where the two differ in any observable way (matches, stream
    consumption, traces, end state).  Empty means the event machinery
    reproduces the round engine event for event.
    """
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for acceptance in acceptances:
                for engine_mode in ("object", "array"):
                    round_engine = run_case(
                        algorithm, kind, acceptance, engine_mode,
                        n, seed, rounds,
                    )
                    event_engine = run_case(
                        algorithm, kind, acceptance, engine_mode,
                        n, seed, rounds, timing="synchronous",
                        async_mode=async_mode,
                    )
                    if round_engine != event_engine:
                        failures.append(
                            f"{algorithm}/{kind}/{acceptance}/"
                            f"{engine_mode}: event engine diverged from "
                            "the round engine under synchronous timing"
                        )
    return failures


def check_async_batched_identity(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ASYNC_ALGORITHMS,
    dynamics=CHECK_ASYNC_DYNAMICS,
    timings=("synchronous",) + CHECK_TIMINGS,
    faults=("none", "sleep", "churn", "lossy"),
) -> list[str]:
    """The window-batching contract: no random draw may move.

    Runs each (algorithm, dynamics, timing, fault) case through the
    generic per-event path (``async_mode="event"``) and through the
    batched window path (``async_mode="batched"``) on *both* the object
    and the array front half, and reports any case where any observable —
    matches, stream consumption, traces, fault composition, end state —
    differs (empty = batching is a pure reordering of work, not of
    randomness).  ``"synchronous"`` timing is included so the batched
    machinery is also pinned against full-cohort windows, transitively
    anchoring it to the round engine through
    :func:`check_async_sync_identity`.
    """
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for timing in timings:
                for fault in faults:
                    reference = run_case(
                        algorithm, kind, "uniform", "object",
                        n, seed, rounds, fault=fault, timing=timing,
                        async_mode="event",
                    )
                    for engine_mode in ("object", "array"):
                        batched = run_case(
                            algorithm, kind, "uniform", engine_mode,
                            n, seed, rounds, fault=fault, timing=timing,
                            async_mode="batched",
                        )
                        if reference != batched:
                            failures.append(
                                f"{algorithm}/{kind}/{timing}/{fault}/"
                                f"{engine_mode}: batched window path "
                                "diverged from the per-event path"
                            )
    return failures


def check_async_determinism(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ASYNC_ALGORITHMS,
    dynamics=CHECK_ASYNC_DYNAMICS,
    timings=CHECK_TIMINGS,
    async_mode="auto",
) -> list[str]:
    """Jittered timing is replayable: same seed => byte-identical runs."""
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for timing in timings:
                first = run_case(algorithm, kind, "uniform", "object",
                                 n, seed, rounds, timing=timing,
                                 async_mode=async_mode)
                second = run_case(algorithm, kind, "uniform", "object",
                                  n, seed, rounds, timing=timing,
                                  async_mode=async_mode)
                if first != second:
                    failures.append(
                        f"{algorithm}/{kind}/{timing}: two runs from the "
                        "same seed diverged (async determinism broken)"
                    )
    return failures


def check_telemetry_identity(
    n: int = 24,
    seed: int = 7,
    rounds: int = 40,
    algorithms=CHECK_ALGORITHMS,
    dynamics=CHECK_DYNAMICS,
) -> list[str]:
    """The observability contract: telemetry on == telemetry off.

    Runs each (algorithm, dynamics) case with telemetry disabled and
    enabled — on both engine-mode front halves of the round engine, and
    (for the event-engine algorithms) on both front halves of the
    batched window path under jittered timing — and reports any case
    where instrumentation changed any observable (empty = telemetry
    draws zero randomness and never feeds back into engine state).
    """
    failures = []
    for algorithm in algorithms:
        for kind in dynamics:
            for engine_mode in ("object", "array"):
                off = run_case(algorithm, kind, "uniform", engine_mode,
                               n, seed, rounds)
                on = run_case(algorithm, kind, "uniform", engine_mode,
                              n, seed, rounds, telemetry=True)
                if off != on:
                    failures.append(
                        f"{algorithm}/{kind}/{engine_mode}: telemetry "
                        "perturbed the trace (must be byte-identical)"
                    )
    for algorithm in CHECK_ASYNC_ALGORITHMS:
        for kind in CHECK_ASYNC_DYNAMICS:
            for engine_mode in ("object", "array"):
                off = run_case(algorithm, kind, "uniform", engine_mode,
                               n, seed, rounds, timing="jitter",
                               async_mode="batched")
                on = run_case(algorithm, kind, "uniform", engine_mode,
                              n, seed, rounds, timing="jitter",
                              async_mode="batched", telemetry=True)
                if off != on:
                    failures.append(
                        f"{algorithm}/{kind}/{engine_mode}/batched: "
                        "telemetry perturbed the async trace (must be "
                        "byte-identical)"
                    )
    return failures


#: The gates ``--gate`` accepts: each ``check_*`` function by its suffix.
GATES = {
    name[len("check_"):]: check
    for name, check in sorted(globals().items())
    if name.startswith("check_")
}


def main(argv=None) -> int:
    """Run the named gates; 0 = identical, 1 = divergence, 2 = bad name."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fastpath",
        description="Run differential identity gates with their defaults.",
    )
    parser.add_argument("--gate", nargs="+", required=True, metavar="NAME")
    names = parser.parse_args(argv).gate
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(
            f"unknown gate(s) {', '.join(unknown)}; valid gates: "
            f"{', '.join(GATES)}",
            file=sys.stderr,
        )
        return 2
    failures = [failure for name in names for failure in GATES[name]()]
    for failure in failures:
        print(f"DIVERGENCE: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"identical: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
