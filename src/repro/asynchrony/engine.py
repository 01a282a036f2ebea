"""The event-driven front half: the mobile telephone model, unsynchronized.

:class:`AsyncSimulation` runs the *same* protocols, acceptance rules,
channels, traces, and termination conditions as the round engine
(:class:`~repro.sim.engine.Simulation`), but drives them from a
deterministic event schedule instead of a lock-step round loop: a
:class:`~repro.asynchrony.timing.TimingModel` assigns every node a
schedule of activation instants (integer virtual ticks, one synchronous
round = :data:`~repro.asynchrony.timing.TICKS_PER_ROUND` ticks), and each
activation executes one local **scan → propose → accept → connect**
cycle:

1. **scan** — the node refreshes its advertisement
   (``advertise(cycle, ...)``, indexed by the node's *local* cycle
   counter, not a global round) and reads its neighbors' *current*
   advertisements — whatever each neighbor last wrote, however stale;
2. **propose** — it may propose to one visible neighbor;
3. **accept** — proposals from nodes activating at the *same instant*
   (a *cohort*) are resolved against each other by the model's
   one-connection matching rule
   (:func:`~repro.sim.matching.resolve_proposals` — the exact resolver
   the round engine uses); proposal targets need not be activating (a
   phone's radio accepts incoming connections between app-level scans);
4. **connect** — matched pairs run the bounded Stage 3 exchange over a
   metered channel, instantaneously.

Trace records aggregate by *round window* (ticks
``[r·TPR, (r+1)·TPR)`` belong to window ``r``), so round-indexed curves
stay comparable across timing models;
the async columns (``virtual_time``, ``clock_skew_max``, ``events``)
record what the window looked like in event terms.  Termination is
checked at window boundaries — the same instants the round engine checks.

**The null-model invariant** (the subsystem's load-bearing contract):
under :class:`~repro.asynchrony.timing.Synchronous` timing every cohort
contains all ``n`` nodes at the exact instants ``1·TPR, 2·TPR, ...``,
and the execution is event-for-event identical to the round engine —
same tags, same proposals, same random-stream consumption, same matches,
same traces — on *both* engine paths.  The differential harness
(:func:`~repro.experiments.fastpath.check_async_sync_identity`) proves
it, and :func:`~repro.experiments.fastpath.check_async_batched_identity`
extends the same byte-identity bar to the batched window path below.

**Batched window execution** (``async_mode``): popping and processing
jittered cohorts one at a time pays full per-event Python dispatch for
what is usually a singleton — the 12x gap PR 5 measured.  When the
protocol population provides *window hooks*
(:func:`~repro.sim.protocol.window_hooks`), the engine instead drains
every cohort of the current round window in one pass (vectorized over
per-vertex next-activation arrays; the heap path uses
:meth:`~repro.asynchrony.events.EventQueue.pop_window`), computes the
whole window's schedule through the timing model's batched draws, scans
every activating member in a few vectorized passes, and then sweeps the
window's cohorts in event order, touching Python only where decisions
live: proposal candidates, per-cohort resolution (the same
:func:`~repro.sim.matching.resolve_proposals` call as the per-event
path — uncontested cohorts derive no stream, contested ones draw from
the exact per-tick ``("match", r)`` / ``("match", "tick", t)``
streams), fault drops, and interactions.  Determinism is the hard
constraint: no random draw moves.
Eager-scan protocols (SharedBit — shared-PRF tags only) tag the whole
window upfront and are *retagged* exactly at the activation positions
whose state changed mid-window (transfer endpoints, crash resets);
lazy-scan protocols (BlindMatch — private-rng coins) scan cohort by
cohort so each node's private stream interleaves with its Transfer
draws exactly as per-event execution orders them.  Crash resets and
fault masks compose per local cycle exactly as the per-event path does.
``async_mode="auto"`` picks the batched path whenever window hooks
resolve; ``"event"`` forces the generic per-event fallback (always
available, required for protocols without window hooks);
``"batched"`` forces the window machinery even under null timing, which
is how the differential gate pins batched-vs-round-engine identity.

The fault layer composes: masks and drop decisions are evaluated per
node at the node's *local* cycle (a duty-cycled phone skips cycles by
its own clock), crash resets fire when a node's own schedule crosses
into an outage, and visibility is judged from the scanning node's clock.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import (
    ConfigurationError,
    ProtocolViolationError,
    RoundLimitExceeded,
)
from repro.asynchrony.events import EventQueue
from repro.asynchrony.timing import TICKS_PER_ROUND, Synchronous, TimingModel
from repro.sim.channel import Channel
from repro.sim.context import NeighborView
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.matching import resolve_proposals, shared_stream
from repro.sim.protocol import window_hooks
from repro.sim.termination import TerminationCondition, never

__all__ = ["AsyncSimulation"]

_ASYNC_MODES = ("auto", "event", "batched")


class AsyncSimulation(Simulation):
    """Drive node protocols from per-node clocks over an event schedule.

    Accepts everything :class:`~repro.sim.engine.Simulation` does plus
    ``timing`` (a built :class:`~repro.asynchrony.timing.TimingModel`;
    ``None`` means the synchronous null model) and ``async_mode``:

    * ``"auto"`` (default) — batched window execution when the
      population provides window hooks and the timing is asynchronous;
      the per-event path otherwise (null timing keeps the full-cohort
      fast paths).
    * ``"event"`` — always the generic per-event path.
    * ``"batched"`` — force the window machinery (requires window
      hooks), including under null timing: the differential harness's
      batched-vs-round-engine identity gate.

    ``engine_mode="array"`` under asynchronous timing requires the
    batched path (bulk hooks alone consume the whole population's
    streams at once, which only full synchronized cohorts may do).
    """

    def __init__(self, dynamic_graph, protocols, b: int, seed: int,
                 timing: TimingModel | None = None,
                 async_mode: str = "auto", **engine_kwargs):
        timing = timing if timing is not None else Synchronous(
            dynamic_graph.n, seed
        )
        if async_mode not in _ASYNC_MODES:
            raise ConfigurationError(
                f"async_mode must be one of {_ASYNC_MODES}, got "
                f"{async_mode!r}"
            )
        requested_mode = engine_kwargs.get("engine_mode", "auto")
        if not timing.is_null:
            if timing.n != dynamic_graph.n:
                raise ConfigurationError(
                    f"timing model is bound to n={timing.n} but the graph "
                    f"has n={dynamic_graph.n}"
                )
            if requested_mode != "array":
                # Force the scalar hooks for the per-event fallback:
                # partial cohorts activate node subsets, so per-node
                # calls are the only correct per-event shape.  (The
                # batched path never touches the bulk hooks either way.)
                engine_kwargs["engine_mode"] = "object"
        super().__init__(dynamic_graph, protocols, b, seed, **engine_kwargs)
        if self.acceptance_streams != "global":
            raise ConfigurationError(
                "AsyncSimulation supports only acceptance_streams="
                "'global': per-tick cohort resolution keys its streams "
                "by instant, not by target (the per-target discipline "
                "exists for the synchronous live bridge, repro.net)"
            )
        self.timing = timing
        self.async_mode = async_mode
        # Fault clock conversion: a clock="virtual" model keys its
        # decisions off the global round window (ticks // TPR) instead
        # of each node's local cycle, so one fault spec describes the
        # same wall-clock outage schedule here, on the round engine, and
        # on a live repro.net cluster.  Under Synchronous timing (and
        # any timing whose cycle c fires within window c, e.g. jitter
        # < 1) window index == local cycle, so the two clocks coincide
        # and the identity gates are unaffected.
        self._fault_virtual = (
            self._fault_active and self.faults.clock == "virtual"
        )
        self._window_ops = (
            window_hooks(self._nodes) if async_mode != "event" else None
        )
        if async_mode == "batched" and self._window_ops is None:
            raise ConfigurationError(
                "async_mode='batched' requires window protocol hooks "
                "(make_window_hooks) on a homogeneous population; this "
                "population has none — use 'auto' or 'event'"
            )
        if timing.is_null:
            # Null timing: full synchronized cohorts — the round-engine
            # fast paths are already the best shape, so the window
            # machinery runs only when explicitly requested (the
            # differential gate).
            self._batched = async_mode == "batched"
        else:
            self._batched = self._window_ops is not None
            if self.engine_mode == "array" and not self._batched:
                raise ConfigurationError(
                    "engine_mode='array' under asynchronous timing "
                    "requires the batched window path (window hooks): "
                    "bulk hooks consume the whole population's streams "
                    "at once, which only full synchronized cohorts may "
                    "do; use engine_mode 'auto'/'object', or a protocol "
                    "with window hooks and async_mode 'auto'/'batched'"
                )
        if not self._batched:
            self._window_ops = None
        self._queue = EventQueue()
        self._seeded = False
        #: Per-vertex activation totals (the per-node event counts).
        self.event_counts = np.zeros(self.n, dtype=np.int64)
        # Per-vertex local cycle counter (0 = not yet activated) and the
        # node's activity at its last cycle (for per-node crash detection
        # mirroring the round engine's mask-transition fallback).
        self._local_cycle = np.zeros(self.n, dtype=np.int64)
        self._node_active = np.ones(self.n, dtype=bool)
        # Batched-path schedule state: each vertex's next pending
        # activation, advanced in bulk through activation_ticks_batch.
        self._next_ticks: np.ndarray | None = None
        self._next_cycles: np.ndarray | None = None
        # Batched-path published advertisements ("whatever each neighbor
        # last wrote"; the per-event path keeps them in self._tags).
        self._tags_np = np.zeros(self.n, dtype=np.int64)
        # Current-window accumulators, flushed into one RoundRecord per
        # window so round-indexed curves stay comparable across timings.
        self._acc_events = 0
        self._acc_active = 0
        self._acc_proposals = 0
        self._acc_connections = 0
        self._acc_tokens = 0
        self._acc_bits = 0
        self._acc_dropped = 0
        self._acc_last_ticks: int | None = None

    def step(self):  # pragma: no cover - guard against misuse
        raise ConfigurationError(
            "AsyncSimulation advances by events, not rounds; use run()"
        )

    def run(
        self,
        max_rounds: int,
        termination: TerminationCondition | None = None,
        raise_on_limit: bool = False,
    ) -> SimulationResult:
        """Run until ``termination`` fires at a window boundary or the
        virtual clock passes ``max_rounds`` rounds."""
        if max_rounds < 1:
            raise ConfigurationError(
                f"max_rounds must be >= 1, got {max_rounds}"
            )
        condition = termination or never()
        if not self._seeded:
            if self._batched:
                vertices = np.arange(self.n, dtype=np.int64)
                cycles = np.ones(self.n, dtype=np.int64)
                self._next_ticks = self.timing.activation_ticks_batch(
                    vertices, cycles
                )
                self._next_cycles = cycles
            else:
                for vertex in range(self.n):
                    self._queue.push(
                        self.timing.activation_ticks(vertex, 1), vertex, 1
                    )
            self._seeded = True

        if self._batched:
            terminated = self._run_batched(condition, max_rounds)
        else:
            terminated = self._run_per_event(condition, max_rounds)
        # Drain: flush the window holding the final cohorts, then any
        # trailing empty windows up to the round budget.
        while not terminated and self._round < max_rounds:
            terminated = self._flush_window(condition, max_rounds)
        if not terminated and raise_on_limit:
            raise RoundLimitExceeded(
                f"no termination within {max_rounds} rounds",
                trace=self.trace,
            )
        return SimulationResult(
            rounds=self._round,
            terminated=terminated,
            trace=self.trace,
            nodes=self.protocols,
            event_counts=self.event_counts.copy(),
        )

    # ------------------------------------------------------------------
    # Main loops

    def _run_per_event(
        self, condition: TerminationCondition, max_rounds: int
    ) -> bool:
        """The generic fallback: one cohort at a time, drained per
        window through :meth:`EventQueue.pop_window`."""
        terminated = False
        while not terminated:
            next_ticks = self._queue.peek_ticks()
            if next_ticks is None:
                break
            window = next_ticks // TICKS_PER_ROUND
            if window > max_rounds:
                break
            # Close out every window that precedes this cohort's (empty
            # windows — bursty pauses — still get their zero records and
            # their termination checks, like the round engine's rounds).
            while not terminated and self._round < window - 1:
                terminated = self._flush_window(condition, max_rounds)
            if terminated:
                break
            boundary = (window + 1) * TICKS_PER_ROUND
            with self._prof.span("window.drain"):
                cohorts = self._drain_window(boundary)
            with self._prof.span("window.process"):
                for ticks, members in cohorts:
                    if self._bulk is not None:
                        self._process_cohort_synchronous(ticks, members)
                    else:
                        self._process_cohort(ticks, members)
        return terminated

    def _drain_window(self, boundary: int):
        """All cohorts below ``boundary``, next activations rescheduled.

        Schedules are pure functions of (seed, vertex, cycle) — never of
        execution state — so every drained member's next activation can
        be pushed *before* any cohort is processed.  Re-draining then
        catches fast clocks that fire twice inside one window, and a
        final (tick, vertex) sort merges the passes into exactly the
        cohort sequence repeated ``pop_cohort`` + process + push would
        produce (same-tick arrivals from different passes join one
        cohort, just as they would share the heap's minimum).
        """
        drained: list[tuple[int, int, int]] = []
        timing = self.timing
        queue = self._queue
        passes = 0
        while True:
            cohorts = queue.pop_window(boundary)
            if not cohorts:
                break
            passes += 1
            batch_vertices: list[int] = []
            batch_cycles: list[int] = []
            for ticks, members in cohorts:
                for vertex, cycle in members:
                    drained.append((ticks, vertex, cycle))
                    batch_vertices.append(vertex)
                    batch_cycles.append(cycle + 1)
            with self._prof.span("window.schedule"):
                next_ticks = timing.activation_ticks_batch(
                    np.asarray(batch_vertices, dtype=np.int64),
                    np.asarray(batch_cycles, dtype=np.int64),
                ).tolist()
            for vertex, cycle, ticks in zip(
                batch_vertices, batch_cycles, next_ticks
            ):
                queue.push(ticks, vertex, cycle)
        if passes > 1:
            drained.sort()
        out: list[tuple[int, list[tuple[int, int]]]] = []
        i = 0
        total = len(drained)
        while i < total:
            ticks = drained[i][0]
            members: list[tuple[int, int]] = []
            while i < total and drained[i][0] == ticks:
                members.append((drained[i][1], drained[i][2]))
                i += 1
            out.append((ticks, members))
        return out

    def _run_batched(
        self, condition: TerminationCondition, max_rounds: int
    ) -> bool:
        """The batched front half: whole round windows at a time."""
        terminated = False
        while not terminated:
            next_ticks = int(self._next_ticks.min())
            window = next_ticks // TICKS_PER_ROUND
            if window > max_rounds:
                break
            while not terminated and self._round < window - 1:
                terminated = self._flush_window(condition, max_rounds)
            if terminated:
                break
            boundary = (window + 1) * TICKS_PER_ROUND
            with self._prof.span("window.drain"):
                ticks, vertices, cycles = self._drain_window_arrays(
                    boundary
                )
            with self._prof.span("window.process"):
                self._process_window_batched(ticks, vertices, cycles)
        return terminated

    def _drain_window_arrays(self, boundary: int):
        """Array twin of :meth:`_drain_window`: all events below
        ``boundary`` as (ticks, vertices, cycles) sorted by
        (tick, vertex), with next activations advanced in bulk."""
        next_ticks = self._next_ticks
        next_cycles = self._next_cycles
        timing = self.timing
        parts = []
        while True:
            due = np.nonzero(next_ticks < boundary)[0]
            if due.size == 0:
                break
            parts.append(
                (next_ticks[due].copy(), due, next_cycles[due].copy())
            )
            following = next_cycles[due] + 1
            with self._prof.span("window.schedule"):
                next_ticks[due] = timing.activation_ticks_batch(
                    due, following
                )
            next_cycles[due] = following
        if len(parts) == 1:
            ticks, vertices, cycles = parts[0]
        else:
            ticks = np.concatenate([p[0] for p in parts])
            vertices = np.concatenate([p[1] for p in parts])
            cycles = np.concatenate([p[2] for p in parts])
        order = np.lexsort((vertices, ticks))
        return ticks[order], vertices[order], cycles[order]

    # ------------------------------------------------------------------
    # Window bookkeeping

    def _flush_window(
        self, condition: TerminationCondition, max_rounds: int
    ) -> bool:
        """Emit window ``self._round + 1``'s record; True if terminated."""
        rnd = self._round + 1
        cycles = self._local_cycle
        with self._prof.span("window.flush"):
            self._flush_window_record(rnd, cycles)
        self._round = rnd
        return bool(
            (rnd % self.termination_every == 0 or rnd == max_rounds)
            and condition(self.protocols, rnd)
        )

    def _flush_window_record(self, rnd: int, cycles) -> None:
        self._observe_round(
            rnd,
            self._acc_proposals,
            self._acc_connections,
            self._acc_tokens,
            self._acc_bits,
            self._acc_dropped,
            self._acc_active,
            virtual_time=(
                self._acc_last_ticks / TICKS_PER_ROUND
                if self._acc_last_ticks is not None
                else float(rnd)
            ),
            clock_skew_max=int(cycles.max()) - int(cycles.min()),
            events=self._acc_events,
        )
        self._acc_events = 0
        self._acc_active = 0
        self._acc_proposals = 0
        self._acc_connections = 0
        self._acc_tokens = 0
        self._acc_bits = 0
        self._acc_dropped = 0
        self._acc_last_ticks = None

    def _accumulate(self, ticks: int, events: int, active: int,
                    proposals: int, connections: int, tokens: int,
                    bits: int, dropped: int) -> None:
        self._acc_events += events
        self._acc_active += active
        self._acc_proposals += proposals
        self._acc_connections += connections
        self._acc_tokens += tokens
        self._acc_bits += bits
        self._acc_dropped += dropped
        self._acc_last_ticks = ticks

    def _mask_for_cycle(self, cycle: int, cache: dict):
        """The fault activity mask at one local cycle, validated and
        normalized (all-active collapses to ``None``), memoized."""
        if cycle not in cache:
            mask = (
                self.faults.active_mask(cycle)
                if self._fault_active else None
            )
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self.n,):
                    raise ConfigurationError(
                        f"fault model returned a mask of shape "
                        f"{mask.shape}; expected ({self.n},)"
                    )
                if mask.all():
                    mask = None
            cache[cycle] = mask
        return cache[cycle]

    # ------------------------------------------------------------------
    # Batched window execution

    def _bound_window_csr(self, topo_round: int):
        csr = self.dynamic_graph.csr_at(topo_round)
        bound = self._csr_bound
        if bound is None or bound.base is not csr:
            bound = self._csr_bound = csr.bind_uids(
                self._uid_array, arena=self._arena
            )
        return bound

    def _process_window_batched(self, ticks, vertices, cycles) -> None:
        """Execute one round window's cohorts in a few vectorized passes.

        ``ticks``/``vertices``/``cycles`` are the window's events sorted
        by (tick, vertex) — the exact per-event order.  Members with
        positions ``[0, committed)`` have *published* tags in
        ``self._tags_np``; candidate evaluation reads neighbor tags
        straight from that array, so stale-vs-fresh advertisement
        semantics fall out of committing in event order.
        """
        ops = self._window_ops
        total = len(vertices)
        # Round-parity skew guard (SharedBit, DESIGN.md §7): shared-PRF
        # tag derivation is keyed by each member's *own* local cycle
        # (ops.scan partitions by the cycles passed here), never by a
        # window-level round index — so clock skew beyond one window
        # (heterogeneous rates can put cycles.max() - cycles.min() far
        # past the window span) cannot desynchronize token_bits: two
        # nodes evaluating the same cycle always derive the same bits,
        # and no node is ever handed another clock's cycle.  The
        # invariant that makes that true is that every activation
        # advances its vertex's cycle strictly past the last committed
        # one.
        assert total == 0 or bool(
            (cycles > self._local_cycle[vertices]).all()
        ), "window member activated at a non-advancing local cycle"
        topo_round = int(ticks[0]) // TICKS_PER_ROUND
        bound = self._bound_window_csr(topo_round)

        # Cohort boundaries: bounds[c]:bounds[c+1] slices cohort c.
        change = np.empty(total, dtype=bool)
        change[0] = True
        np.not_equal(ticks[1:], ticks[:-1], out=change[1:])
        cohort_bounds = np.append(np.nonzero(change)[0], total)

        # Last-write-wins probe doubles as the uniqueness test: a vertex
        # appearing twice has its earlier position overwritten.
        positions = np.arange(total, dtype=np.int64)
        pos_of = np.full(self.n, -1, dtype=np.int64)
        pos_of[vertices] = positions
        unique_members = bool((pos_of[vertices] == positions).all())
        if unique_members:
            pos_lists = None
        else:
            pos_of = None
            pos_lists: dict[int, list[int]] = {}
            for pos, vertex in enumerate(vertices.tolist()):
                pos_lists.setdefault(vertex, []).append(pos)

        # Fault activity, per distinct fault index (the member's local
        # cycle, or — for clock="virtual" models — the shared round
        # window, collapsing the whole window to one mask lookup).
        mask_cache: dict[int, np.ndarray | None] = {}
        active_flags = np.ones(total, dtype=bool)
        if self._fault_active:
            if self._fault_virtual:
                fault_cycles = np.full(total, topo_round, dtype=np.int64)
            else:
                fault_cycles = cycles
            distinct_cycles = np.unique(fault_cycles).tolist()
            for cycle in distinct_cycles:
                mask = self._mask_for_cycle(cycle, mask_cache)
                if mask is not None:
                    sel = fault_cycles == cycle
                    active_flags[sel] = mask[vertices[sel]]

        # Pending per-position patches: crash resets (known upfront) and
        # mid-window state changes (scheduled at interaction time).
        pending_heap: list[int] = []
        pending_reset: dict[int, bool] = {}

        def schedule(pos: int, reset: bool) -> None:
            if pos in pending_reset:
                pending_reset[pos] = pending_reset[pos] or reset
            else:
                pending_reset[pos] = reset
                heapq.heappush(pending_heap, pos)

        if self._fault_active and self.faults.resets_state:
            self._schedule_crash_resets(
                vertices, fault_cycles, active_flags, distinct_cycles,
                unique_members, mask_cache, schedule,
            )

        nodes = self._nodes
        max_tag = self.max_tag
        tags_np = self._tags_np
        eager = ops.eager_scan

        if eager:
            opt_tags, senders = ops.scan(vertices, cycles)
            opt_tags = self._check_tag_array(opt_tags, vertices)
            senders = np.array(senders, dtype=bool)
        else:
            opt_tags = None
            senders = None

        committed = 0

        def commit_slice(start: int, end: int) -> None:
            if start >= end:
                return
            chunk = vertices[start:end]
            if unique_members:
                tags_np[chunk] = opt_tags[start:end]
            else:
                # Duplicate vertices in the span: the latest position
                # must win, so assign via last occurrences.
                rev = chunk[::-1]
                uniq, first = np.unique(rev, return_index=True)
                tags_np[uniq] = opt_tags[start:end][::-1][first]

        def commit_to(end: int) -> None:
            nonlocal committed
            while pending_heap and pending_heap[0] < end:
                pos = heapq.heappop(pending_heap)
                reset = pending_reset.pop(pos)
                commit_slice(committed, pos)
                vertex = int(vertices[pos])
                cycle = int(cycles[pos])
                if reset:
                    reset_tokens = getattr(
                        nodes[vertex], "reset_tokens", None
                    )
                    if reset_tokens is not None:
                        reset_tokens()
                    ops.state_changed(vertex)
                new_tag = ops.retag(vertex, cycle)
                if (
                    not isinstance(new_tag, (int, np.integer))
                    or not 0 <= new_tag <= max_tag
                ):
                    raise ProtocolViolationError(
                        f"node uid={nodes[vertex].uid} advertised tag "
                        f"{new_tag!r}; legal range with b={self.b} is "
                        f"[0, {max_tag}]"
                    )
                tags_np[vertex] = new_tag
                senders[pos] = ops.sender_from_tag(new_tag)
                committed = pos + 1
            commit_slice(committed, end)
            committed = end

        def schedule_retags(vertex: int, after: int) -> None:
            """Mark ``vertex``'s not-yet-committed activations stale."""
            if unique_members:
                pos = int(pos_of[vertex])
                if pos >= after:
                    schedule(pos, False)
            else:
                for pos in pos_lists.get(vertex, ()):
                    if pos >= after:
                        schedule(pos, False)

        window_stats = [0, 0, 0, 0, 0]  # proposals, matches, tokens, bits, dropped

        if eager:
            # Sweep only the interesting cohorts: those holding a
            # proposal candidate or a pending patch; everything between
            # commits as vectorized slices.
            candidate_positions = np.nonzero(senders)[0].tolist()
            candidate_index = 0
            while True:
                while (
                    candidate_index < len(candidate_positions)
                    and candidate_positions[candidate_index] < committed
                ):
                    candidate_index += 1
                nxt = (
                    candidate_positions[candidate_index]
                    if candidate_index < len(candidate_positions)
                    else None
                )
                if pending_heap and (nxt is None or pending_heap[0] < nxt):
                    nxt = pending_heap[0]
                if nxt is None:
                    break
                cohort = int(
                    np.searchsorted(cohort_bounds, nxt, side="right")
                ) - 1
                cohort_start = int(cohort_bounds[cohort])
                cohort_end = int(cohort_bounds[cohort + 1])
                commit_to(cohort_end)
                cohort_candidates = (
                    np.nonzero(senders[cohort_start:cohort_end])[0]
                    + cohort_start
                ).tolist()
                if cohort_candidates:
                    self._execute_cohort_batched(
                        int(ticks[cohort_start]), cohort_candidates,
                        vertices, cycles, bound, mask_cache,
                        cohort_end, schedule_retags, window_stats,
                    )
            commit_to(total)
        else:
            # Lazy scan: the protocol's scan consumes private rng, so
            # cohorts run strictly in event order — the batched win here
            # is the drain, the schedule, and the resolution machinery.
            for cohort in range(len(cohort_bounds) - 1):
                cohort_start = int(cohort_bounds[cohort])
                cohort_end = int(cohort_bounds[cohort + 1])
                while pending_heap and pending_heap[0] < cohort_end:
                    pos = heapq.heappop(pending_heap)
                    pending_reset.pop(pos)
                    vertex = int(vertices[pos])
                    reset_tokens = getattr(
                        nodes[vertex], "reset_tokens", None
                    )
                    if reset_tokens is not None:
                        reset_tokens()
                    ops.state_changed(vertex)
                member_vertices = vertices[cohort_start:cohort_end]
                cohort_tags, cohort_senders = ops.scan(
                    member_vertices, cycles[cohort_start:cohort_end]
                )
                cohort_tags = self._check_tag_array(
                    cohort_tags, member_vertices
                )
                tags_np[member_vertices] = cohort_tags
                cohort_candidates = (
                    np.nonzero(cohort_senders)[0] + cohort_start
                ).tolist()
                if cohort_candidates:
                    self._execute_cohort_batched(
                        int(ticks[cohort_start]), cohort_candidates,
                        vertices, cycles, bound, mask_cache,
                        cohort_end, schedule_retags, window_stats,
                    )
            committed = total

        # Per-window state updates (the per-event path does these per
        # member in stage 1; nothing inside the window reads them except
        # crash detection, which used the pre-window values above).
        if unique_members:
            self.event_counts[vertices] += 1
            self._local_cycle[vertices] = cycles
            self._node_active[vertices] = active_flags
        else:
            np.add.at(self.event_counts, vertices, 1)
            np.maximum.at(self._local_cycle, vertices, cycles)
            rev = vertices[::-1]
            uniq, first = np.unique(rev, return_index=True)
            self._node_active[uniq] = active_flags[::-1][first]

        self._accumulate(
            int(ticks[-1]), total,
            total if not self._fault_active else int(active_flags.sum()),
            window_stats[0], window_stats[1], window_stats[2],
            window_stats[3], window_stats[4],
        )

    def _schedule_crash_resets(
        self, vertices, cycles, active_flags, distinct_cycles,
        unique_members, mask_cache, schedule,
    ) -> None:
        """Find the members whose node crash-resets at their activation.

        Mirrors the per-event path: the fault model's
        ``crashed_this_round`` report is authoritative; without one, a
        crash is an active→inactive transition of the node's own mask
        bit between consecutive local cycles.
        """
        reported_cache: dict[int, np.ndarray | None] = {}
        for cycle in distinct_cycles:
            reported = self.faults.crashed_this_round(cycle)
            reported_cache[cycle] = (
                None if reported is None
                else np.asarray(reported, dtype=np.int64)
            )
        fallback_cycles = [
            cycle for cycle in distinct_cycles
            if reported_cache[cycle] is None
            and self._mask_for_cycle(cycle, mask_cache) is not None
        ]
        for cycle in distinct_cycles:
            reported = reported_cache[cycle]
            if reported is None:
                continue
            sel = np.nonzero(cycles == cycle)[0]
            crashed = sel[np.isin(vertices[sel], reported)]
            for pos in crashed.tolist():
                schedule(pos, True)
        if not fallback_cycles:
            return
        if unique_members:
            for cycle in fallback_cycles:
                mask = mask_cache[cycle]
                sel = np.nonzero(cycles == cycle)[0]
                crashed = sel[
                    ~mask[vertices[sel]] & self._node_active[vertices[sel]]
                ]
                for pos in crashed.tolist():
                    schedule(pos, True)
        else:
            # A vertex activating twice in the window: the second
            # cycle's transition check reads the activity its first
            # cycle establishes, so walk positions in event order.
            fallback = set(fallback_cycles)
            working = self._node_active.copy()
            for pos, (vertex, cycle) in enumerate(
                zip(vertices.tolist(), cycles.tolist())
            ):
                if cycle in fallback:
                    mask = mask_cache[cycle]
                    if not mask[vertex] and working[vertex]:
                        schedule(pos, True)
                working[vertex] = active_flags[pos]

    def _check_tag_array(self, tags, vertex_list) -> np.ndarray:
        """A window scan's tags as int64, after the same type and range
        checks the per-event and round-engine paths apply."""
        tags = self._as_int_array(tags, "scan")
        bad = (tags < 0) | (tags > self.max_tag)
        if bad.any():
            offender = int(np.nonzero(bad)[0][0])
            raise ProtocolViolationError(
                f"node uid={self._nodes[vertex_list[offender]].uid} "
                f"advertised tag {int(tags[offender])!r}; legal range "
                f"with b={self.b} is [0, {self.max_tag}]"
            )
        return tags

    def _cohort_streams(self, ticks: int):
        """The ``stream_for`` of the cohort at ``ticks``: one stream per
        instant, so a synchronized cohort at tick r·TPR draws from the
        exact ``("match", r)`` stream the round engine uses for round r.
        Derived only when a target is contested, which keeps singleton
        cohorts (the jittered common case) off the hashing path."""
        if ticks % TICKS_PER_ROUND == 0:
            key = ("match", ticks // TICKS_PER_ROUND)
        else:
            key = ("match", "tick", ticks)
        return shared_stream(lambda: self._tree.stream(*key))

    def _execute_cohort_batched(
        self, ticks, candidate_positions, vertices, cycles,
        bound, mask_cache, cohort_end, schedule_retags, window_stats,
    ) -> None:
        """Stage 2 + accept + connect for one cohort's candidates.

        Candidates run in ascending position (= vertex) order, each
        reading its visible neighborhood's *current* published tags; the
        cohort's proposals then resolve exactly as the per-event path
        resolves them (same call, same stream keys), fault drops are
        judged per match at the initiator's local cycle, and
        interactions run scalar — marking endpoints dirty so their later
        activations this window are retagged.
        """
        ops = self._window_ops
        nodes = self._nodes
        tags_np = self._tags_np
        fault_round = (
            ticks // TICKS_PER_ROUND if self._fault_virtual else None
        )
        proposer_uids: list[int] = []
        target_uids: list[int] = []
        cycle_of_uid: dict[int, int] = {}
        for pos in candidate_positions:
            vertex = int(vertices[pos])
            cycle = int(cycles[pos])
            mask = self._mask_for_cycle(
                cycle if fault_round is None else fault_round, mask_cache
            )
            snapshot = bound if mask is None else bound.masked_bound(mask)
            start = snapshot.indptr[vertex]
            end = snapshot.indptr[vertex + 1]
            neighbor_uids = snapshot.uids[start:end]
            neighbor_tags = tags_np[snapshot.indices[start:end]]
            target = ops.propose_one(
                vertex, cycle, neighbor_uids, neighbor_tags
            )
            if target < 0:
                continue
            if not (neighbor_uids == target).any():
                raise ProtocolViolationError(
                    f"node uid={nodes[vertex].uid} proposed to "
                    f"uid={target}, not a visible neighbor at virtual "
                    f"time {ticks / TICKS_PER_ROUND:.4f}"
                )
            uid = nodes[vertex].uid
            proposer_uids.append(uid)
            target_uids.append(target)
            cycle_of_uid[uid] = cycle
        if not proposer_uids:
            return
        window_stats[0] += len(proposer_uids)

        matches = resolve_proposals(
            proposer_uids, target_uids, self.acceptance,
            self._cohort_streams(ticks),
        )
        matches, dropped = self._drop_failed(
            matches,
            lambda uid: cycle_of_uid[uid] if fault_round is None
            else fault_round,
        )
        window_stats[4] += dropped
        window_stats[1] += len(matches)

        for initiator_uid, responder_uid in matches:
            cycle = cycle_of_uid[initiator_uid]
            initiator_vertex = self._vertex_of_uid[initiator_uid]
            responder_vertex = self._vertex_of_uid[responder_uid]
            initiator = self.protocols[initiator_vertex]
            responder = self.protocols[responder_vertex]
            channel = Channel(cycle, initiator_uid, responder_uid,
                              self.channel_policy)
            initiator.interact(responder, channel, cycle)
            channel.close()
            window_stats[2] += channel.tokens_moved
            window_stats[3] += channel.bits.total_bits
            for endpoint in (initiator_vertex, responder_vertex):
                ops.state_changed(endpoint)
                if ops.needs_retag:
                    schedule_retags(endpoint, cohort_end)

    # ------------------------------------------------------------------
    # Per-event cohort execution (the generic fallback)

    def _process_cohort_synchronous(self, ticks: int, members) -> None:
        """A full synchronized cohort through the round engine's bulk
        stages (array path; null timing only — enforced in __init__)."""
        rnd = ticks // TICKS_PER_ROUND
        proposal_count, matches, dropped, mask = self._round_stages(rnd)
        tokens, bits = self._stage3(rnd, matches)
        for vertex, cycle in members:
            self._local_cycle[vertex] = cycle
        self.event_counts += 1
        self._accumulate(
            ticks, len(members),
            self.n if mask is None else int(mask.sum()),
            proposal_count, len(matches), tokens, bits, dropped,
        )

    def _process_cohort(self, ticks: int, members) -> None:
        """One cohort through the generic per-event path.

        ``members`` is ``[(vertex, cycle), ...]`` in ascending vertex
        order.  For a full synchronized cohort this reproduces the round
        engine's object path decision for decision: Stage 1 for every
        member in vertex order, then Stage 2 in the same order over the
        freshly-stored tags, then one resolution over the cohort's
        proposals — the equivalence the differential harness pins.
        """
        topo_round = ticks // TICKS_PER_ROUND
        self._refresh_adjacency(self.dynamic_graph.graph_at(topo_round))
        nodes = self._nodes
        tags = self._tags
        max_tag = self.max_tag
        # Round-parity skew guard — the per-event twin of the batched
        # path's assertion: advertise(cycle, ...) below is keyed by the
        # member's own advancing local cycle, so skew cannot
        # desynchronize shared-randomness (token_bits) derivation.
        assert all(
            cycle > self._local_cycle[vertex] for vertex, cycle in members
        ), "cohort member activated at a non-advancing local cycle"

        # Fault masks, evaluated at each member's local cycle — or, for
        # clock="virtual" models, at the shared round window (memoized
        # per cohort; cohorts are usually single-cycle).
        masks: dict[int, np.ndarray | None] = {}

        def fault_index(cycle: int) -> int:
            return topo_round if self._fault_virtual else cycle

        def mask_for(cycle: int) -> np.ndarray | None:
            return self._mask_for_cycle(fault_index(cycle), masks)

        # Crash resets, before any stage hook runs (the round engine's
        # ordering), detected per node against its own previous cycle.
        if self._fault_active and self.faults.resets_state:
            crashed_cache: dict[int, frozenset] = {}
            for vertex, cycle in members:
                fcycle = fault_index(cycle)
                if fcycle not in crashed_cache:
                    reported = self.faults.crashed_this_round(fcycle)
                    crashed_cache[fcycle] = (
                        None if reported is None
                        else frozenset(np.asarray(reported).tolist())
                    )
                reported = crashed_cache[fcycle]
                if reported is not None:
                    crashed = vertex in reported
                else:
                    mask = mask_for(cycle)
                    crashed = (
                        mask is not None
                        and not mask[vertex]
                        and self._node_active[vertex]
                    )
                if crashed:
                    reset = getattr(nodes[vertex], "reset_tokens", None)
                    if reset is not None:
                        reset()

        # Stage 1: scan — refresh each member's advertisement; a
        # fault-inactive member still runs its hook (the round engine's
        # masked semantics) but sees no neighbors and stays invisible.
        member_views: list[tuple[int, ...]] = []  # visible neighbor vertices
        active_count = 0
        for vertex, cycle in members:
            mask = mask_for(cycle)
            active = mask is None or bool(mask[vertex])
            if active:
                active_count += 1
                visible = (
                    self._neighbor_vertices[vertex]
                    if mask is None
                    else tuple(
                        nv for nv in self._neighbor_vertices[vertex]
                        if mask[nv]
                    )
                )
            else:
                visible = ()
            member_views.append(visible)
            neighbor_uids = tuple(nodes[nv].uid for nv in visible) \
                if mask is not None else self._neighbor_uids[vertex]
            if not active:
                neighbor_uids = ()
            tag = nodes[vertex].advertise(cycle, neighbor_uids)
            if not isinstance(tag, int) or not 0 <= tag <= max_tag:
                raise ProtocolViolationError(
                    f"node uid={nodes[vertex].uid} advertised tag {tag!r}; "
                    f"legal range with b={self.b} is [0, {self.max_tag}]"
                )
            tags[vertex] = tag
            self.event_counts[vertex] += 1
            self._local_cycle[vertex] = cycle
            self._node_active[vertex] = active

        # Stage 2: propose — each member reads its visible neighbors'
        # *current* advertisements (stale for neighbors that have not
        # activated recently: the asynchrony the NWZ model studies).
        proposer_uids: list[int] = []
        target_uids: list[int] = []
        cycle_of_uid: dict[int, int] = {}
        for (vertex, cycle), visible in zip(members, member_views):
            views = tuple(
                NeighborView(uid=nodes[nv].uid, tag=tags[nv])
                for nv in visible
            )
            target = nodes[vertex].propose(cycle, views)
            if target is None:
                continue
            if all(view.uid != target for view in views):
                raise ProtocolViolationError(
                    f"node uid={nodes[vertex].uid} proposed to "
                    f"uid={target}, not a visible neighbor at virtual "
                    f"time {ticks / TICKS_PER_ROUND:.4f}"
                )
            proposer_uids.append(nodes[vertex].uid)
            target_uids.append(target)
            cycle_of_uid[nodes[vertex].uid] = cycle

        # Accept: the cohort's proposals resolve against each other with
        # the round engine's resolver, on the instant's stream.
        matches = resolve_proposals(
            proposer_uids, target_uids, self.acceptance,
            self._cohort_streams(ticks),
        )

        # Fault drop decisions, keyed by the initiator's local cycle
        # (or the window, for clock="virtual" models).
        matches, dropped = self._drop_failed(
            matches, lambda uid: fault_index(cycle_of_uid[uid])
        )

        # Connect: instantaneous bounded exchanges; the channel and the
        # interact hook see the initiator's local cycle as their round.
        tokens_moved = 0
        control_bits = 0
        for initiator_uid, responder_uid in matches:
            cycle = cycle_of_uid[initiator_uid]
            initiator = self.protocols[self._vertex_of_uid[initiator_uid]]
            responder = self.protocols[self._vertex_of_uid[responder_uid]]
            channel = Channel(cycle, initiator_uid, responder_uid,
                              self.channel_policy)
            initiator.interact(responder, channel, cycle)
            channel.close()
            tokens_moved += channel.tokens_moved
            control_bits += channel.bits.total_bits

        self._accumulate(
            ticks, len(members), active_count, len(proposer_uids),
            len(matches), tokens_moved, control_bits, dropped,
        )
