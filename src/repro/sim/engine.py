"""The synchronous round engine for the mobile telephone model.

:class:`Simulation` owns the round loop and enforces the model's rules so
that protocols cannot cheat:

* tags are validated against the tag length ``b`` (with ``b = 0`` only the
  empty tag 0 is legal);
* proposals must name a current neighbor;
* matching follows :func:`repro.sim.matching.resolve_proposals` (one
  connection per node, proposers cannot receive) — the one resolver
  both front halves, the event engine and the live proposee share;
* every connection runs over a budget-metered channel.

Everything is deterministic given the seed: topology evolution, acceptance
draws, and protocol-internal randomness (protocols are constructed with
streams from the same :class:`~repro.rng.SeedTree`).

Two interchangeable front halves drive Stages 1–2 of each round:

* the **object path** (the reference): per-node ``advertise``/``propose``
  calls over cached :class:`~repro.sim.context.NeighborView` skeletons;
* the **array path**: when every node provides the bulk hooks
  (:func:`repro.sim.protocol.bulk_hooks`), the engine feeds them one
  UID-bound CSR snapshot per epoch
  (:class:`~repro.sim.adjacency.CSRAdjacency` via
  ``DynamicGraph.csr_at``) and hands the proposal arrays straight to
  the same resolver.

The two paths are **byte-identical**: same tags, same proposals, same
random-stream consumption, same matching, same traces (pinned by
tests/test_fastpath.py across algorithms × dynamics × acceptance rules).
``engine_mode`` selects: ``"auto"`` (array when available), ``"object"``
(force the reference), ``"array"`` (require the fast path).

An optional :class:`~repro.sim.faults.FaultModel` degrades the clean
model deterministically: its per-round activity mask removes sleeping
vertices from the round's topology on *both* paths (they do not
advertise, cannot be proposed to, and see no neighbors), and its
per-match drop decisions make accepted connections fail before Stage 3.
The null model (:class:`~repro.sim.faults.NoFaults`, the default)
consumes zero randomness and leaves every trace byte-identical to an
engine without the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import networkx as nx
import numpy as np

from repro.errors import (
    ConfigurationError,
    MemoryBudgetError,
    ProtocolViolationError,
    RoundLimitExceeded,
)
from repro.graphs.dynamic import DynamicGraph
from repro.rng import SeedTree
from repro.sim.arena import BufferArena
from repro.sim.channel import Channel, ChannelPolicy
from repro.sim.context import NeighborView
from repro.sim.faults import FaultModel, NoFaults
from repro.sim.matching import (
    ACCEPTANCE_RULES,
    resolve_proposals,
    shared_stream,
)
from repro.sim.protocol import NodeProtocol, bulk_hooks
from repro.sim.termination import TerminationCondition, never
from repro.sim.trace import RoundRecord, Trace
from repro.telemetry import resolve_telemetry

__all__ = ["Simulation", "SimulationResult"]

Gauge = Callable[[Mapping[int, NodeProtocol], int], object]

ENGINE_MODES = ("auto", "array", "object")

#: Above this n the object path refuses to build (see
#: :class:`~repro.errors.MemoryBudgetError`): per-vertex NeighborView
#: skeletons, neighbor tuples, and frozensets cost kilobytes per node
#: in Python objects, which silently turns into gigabytes at 10^6.
#: Pass ``object_path_max_n=None`` to Simulation to disable the guard,
#: or a larger value to move it.
OBJECT_PATH_MAX_N = 200_000

#: Rough per-node cost of the object path's epoch caches and per-node
#: Python state, used for the guard's error message (measured ~2-4 KB
#: per node at average degree 6 on CPython 3.12).
_OBJECT_PATH_BYTES_PER_NODE = 3_000


@dataclass
class SimulationResult:
    """Outcome of a run: how long it took and what the system looked like.

    ``event_counts`` (per-vertex activation totals) is filled in only by
    the asynchronous engine; the round engine activates every node once
    per round, so the column would be redundant there.
    """

    rounds: int
    terminated: bool
    trace: Trace
    nodes: Mapping[int, NodeProtocol]
    event_counts: np.ndarray | None = None

    @cached_property
    def nodes_by_uid(self) -> dict[int, NodeProtocol]:
        # Built once and cached: analysis code reads this in loops, and
        # the node set never changes after the run.
        return {node.uid: node for node in self.nodes.values()}

    @property
    def estimated_wall_rounds(self) -> float:
        """Effective run length in wall-clock rounds.

        Round-engine runs spend exactly one wall round per round;
        asynchronous runs report the trace's skew-stretched estimate
        (see :meth:`~repro.sim.trace.Trace.estimated_wall_rounds`),
        falling back to ``rounds`` when the trace kept no async records
        (e.g. aggressive downsampling).
        """
        estimate = self.trace.estimated_wall_rounds()
        return float(self.rounds) if estimate is None else estimate


class Simulation:
    """Drive a set of node protocols over a dynamic graph.

    ``protocols`` maps graph vertex (``0..n-1``) to the protocol object for
    the node at that vertex; each protocol carries its own UID, which is
    what other nodes observe (the vertex is an artifact of the simulator).
    """

    def __init__(
        self,
        dynamic_graph: DynamicGraph,
        protocols: Mapping[int, NodeProtocol],
        b: int,
        seed: int,
        channel_policy: ChannelPolicy | None = None,
        gauges: Mapping[str, Gauge] | None = None,
        gauge_every: int = 1,
        trace_sample_every: int = 1,
        termination_every: int = 1,
        acceptance: str = "uniform",
        acceptance_streams: str = "global",
        engine_mode: str = "auto",
        faults: FaultModel | None = None,
        trace_max_records: int | None = None,
        object_path_max_n: int | None = OBJECT_PATH_MAX_N,
        telemetry=None,
    ):
        if b < 0:
            raise ConfigurationError(f"tag length b must be >= 0, got {b}")
        if acceptance != "unbounded" and acceptance not in ACCEPTANCE_RULES:
            raise ConfigurationError(
                f"unknown acceptance mode {acceptance!r}; choose from "
                f"{sorted(ACCEPTANCE_RULES + ('unbounded',))}"
            )
        if acceptance_streams not in ("global", "local"):
            raise ConfigurationError(
                f"unknown acceptance_streams {acceptance_streams!r}; choose "
                "from ('global', 'local')"
            )
        if engine_mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine_mode {engine_mode!r}; choose from "
                f"{ENGINE_MODES}"
            )
        if set(protocols) != set(range(dynamic_graph.n)):
            raise ConfigurationError(
                "protocols must be keyed by every vertex 0..n-1"
            )
        uids = [node.uid for node in protocols.values()]
        if len(set(uids)) != len(uids):
            raise ConfigurationError("node UIDs must be unique")
        if gauge_every < 1 or termination_every < 1:
            raise ConfigurationError(
                "gauge_every and termination_every must be >= 1"
            )
        if (
            faults is not None
            and not faults.is_null
            and faults.n != dynamic_graph.n
        ):
            raise ConfigurationError(
                f"fault model is bound to n={faults.n} but the graph has "
                f"n={dynamic_graph.n}"
            )

        self.dynamic_graph = dynamic_graph
        self.protocols = dict(protocols)
        self.b = b
        self.max_tag = (1 << b) - 1
        self.seed = seed
        self.channel_policy = channel_policy or ChannelPolicy()
        self.gauges = dict(gauges or {})
        self.gauge_every = gauge_every
        self.termination_every = termination_every
        #: "uniform"/"lowest_uid"/"highest_uid" (mobile telephone model) or
        #: "unbounded" (the classical telephone model baseline).
        self.acceptance = acceptance
        #: "global" (default — one sequential acceptance stream per round,
        #: consumed in sorted-target order) or "local" (one stream per
        #: contested target, keyed ("match", round, "uid", target_uid) —
        #: the discipline a distributed proposee can reproduce; used by
        #: the live deployment bridge, see repro.net).
        self.acceptance_streams = acceptance_streams
        self.trace = Trace(
            sample_every=trace_sample_every, max_records=trace_max_records
        )
        # Observability (repro.telemetry): disabled by default — the
        # null bundle's profiler/sink are shared no-ops, so every
        # instrumented site below costs one attribute check.  Telemetry
        # draws zero randomness and never writes engine state: traces
        # are byte-identical with it on or off (check_telemetry_identity).
        self.telemetry = resolve_telemetry(telemetry)
        self._prof = self.telemetry.profiler

        self._tree = SeedTree(seed).child("engine")
        self._vertex_of_uid = {
            node.uid: vertex for vertex, node in self.protocols.items()
        }
        self._round = 0
        # Vertices are dense 0..n-1 (validated above), so the hot loop
        # walks lists instead of dict lookups.
        self._nodes = [self.protocols[vertex] for vertex in range(self.n)]
        self._tags = [0] * self.n
        # Adjacency caches are keyed on the graph object identity; dynamic
        # graphs return the same object for every round of an epoch, so this
        # rebuilds only when the topology actually changes.  The cached
        # NeighborView skeletons (and their tuples) live for a whole epoch:
        # each round only the views whose tag actually changed are replaced,
        # and a vertex's tuple is rebuilt only if any of its views changed.
        self._adjacency_for: nx.Graph | None = None
        self._neighbor_vertices: list[tuple[int, ...]] = []
        self._neighbor_uids: list[tuple[int, ...]] = []
        self._neighbor_uid_sets: list[frozenset] = []
        self._views: list[list[NeighborView]] = []
        self._view_tuples: list[tuple[NeighborView, ...]] = []

        # Array fast path: elected at construction, fixed for the run.
        self._bulk = None if engine_mode == "object" else bulk_hooks(self._nodes)
        if engine_mode == "array" and self._bulk is None:
            raise ConfigurationError(
                "engine_mode='array' but the node population does not "
                "provide equivalent bulk hooks (see repro.sim.protocol."
                "bulk_hooks); use 'auto' or 'object'"
            )
        self.engine_mode = "array" if self._bulk is not None else "object"
        if (
            self.engine_mode == "object"
            and object_path_max_n is not None
            and self.n > object_path_max_n
        ):
            est_mb = self.n * _OBJECT_PATH_BYTES_PER_NODE // (1 << 20)
            hint = (
                "the node population provides no bulk hooks — port them "
                "(repro.sim.protocol.bulk_hooks)"
                if engine_mode == "auto"
                else "use engine_mode='auto' or 'array'"
            )
            raise MemoryBudgetError(
                f"engine_mode={engine_mode!r} resolved to the object path "
                f"at n={self.n}: per-vertex NeighborView skeletons and "
                f"neighbor tuples would cost roughly {est_mb} MB of Python "
                f"objects (plus proportional per-round churn). {hint}, or "
                f"pass object_path_max_n={self.n} (None disables the "
                f"guard) to force it."
            )
        self._uid_array = np.fromiter(
            (node.uid for node in self._nodes), dtype=np.int64, count=self.n
        )
        self._csr_bound = None  # UID-bound CSR for the current epoch
        # Per-round scratch buffers for the array front half (and bulk
        # hooks, via the bound snapshot): one allocation per shape, not
        # one per round.
        self._arena = BufferArena()

        # Fault layer: when the model is null the per-round fault branch
        # is skipped entirely — no mask, no stream, byte-identical traces
        # to an engine without the layer.
        self.faults = faults if faults is not None else NoFaults(self.n)
        self._fault_active = not self.faults.is_null
        self._masked_bound = None   # UID-bound active-subgraph CSR
        self._masked_for = None     # ... built from this epoch snapshot
        self._masked_bytes = None   # ... under this activity mask
        self._prev_mask = None      # last round's mask (None = all awake)

    @property
    def n(self) -> int:
        return self.dynamic_graph.n

    @property
    def current_round(self) -> int:
        return self._round

    def run(
        self,
        max_rounds: int,
        termination: TerminationCondition | None = None,
        raise_on_limit: bool = False,
    ) -> SimulationResult:
        """Run until ``termination`` fires or ``max_rounds`` elapse."""
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        condition = termination or never()
        terminated = False
        while self._round < max_rounds:
            self.step()
            if (
                self._round % self.termination_every == 0
                or self._round == max_rounds
            ) and condition(self.protocols, self._round):
                terminated = True
                break
        if not terminated and raise_on_limit:
            raise RoundLimitExceeded(
                f"no termination within {max_rounds} rounds", trace=self.trace
            )
        return SimulationResult(
            rounds=self._round,
            terminated=terminated,
            trace=self.trace,
            nodes=self.protocols,
        )

    def step(self) -> RoundRecord | None:
        """Execute one full round.

        Returns the round's :class:`RoundRecord` when the trace keeps it
        (always with ``trace_sample_every=1``); unsampled rounds update the
        trace totals through a light path and return ``None``.
        """
        self._round += 1
        rnd = self._round
        prof = self._prof
        if prof.enabled:
            with prof.span("round.stages12"):
                proposal_count, matches, dropped, mask = \
                    self._round_stages(rnd)
            with prof.span("round.stage3"):
                tokens_moved, control_bits = self._stage3(rnd, matches)
            with prof.span("round.observe"):
                return self._observe_round(
                    rnd, proposal_count, len(matches), tokens_moved,
                    control_bits, dropped,
                    self.n if mask is None else int(mask.sum()),
                )
        proposal_count, matches, dropped, mask = self._round_stages(rnd)
        tokens_moved, control_bits = self._stage3(rnd, matches)
        return self._observe_round(
            rnd, proposal_count, len(matches), tokens_moved, control_bits,
            dropped, self.n if mask is None else int(mask.sum()),
        )

    def _round_stages(
        self, rnd: int
    ) -> tuple[int, list[tuple[int, int]], int, np.ndarray | None]:
        """Stages 1–2 of round ``rnd`` plus both fault decisions.

        Returns ``(proposal_count, surviving_matches, dropped, mask)``.
        Shared between :meth:`step` and the asynchronous engine's
        full-cohort path (:class:`~repro.asynchrony.engine.AsyncSimulation`
        runs exactly this body once per synchronous cohort).
        """
        # Fault layer, decision 1: who participates this round.  An
        # all-awake mask is normalized to None so degenerate masks (and
        # mask-free models like LossyLinks) stay on the cached hot paths.
        mask = None
        if self._fault_active:
            mask = self.faults.active_mask(rnd)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self.n,):
                    raise ConfigurationError(
                        f"fault model returned a mask of shape "
                        f"{mask.shape}; expected ({self.n},)"
                    )
                if mask.all():
                    mask = None
            if self.faults.resets_state:
                self._apply_crash_resets(rnd, mask)

        if self._bulk is not None:
            if mask is None:
                proposal_count, matches = self._stages12_array(rnd)
            else:
                proposal_count, matches = self._stages12_array_masked(
                    rnd, mask
                )
        else:
            if mask is None:
                proposal_count, matches = self._stages12_object(rnd)
            else:
                proposal_count, matches = self._stages12_object_masked(
                    rnd, mask
                )

        matches, dropped = self._drop_failed(matches, lambda _uid: rnd)
        return proposal_count, matches, dropped, mask

    def _drop_failed(self, matches, fault_round_of):
        """Fault layer, decision 2: accepted matches whose connection
        fails.  Dropped matches never become connections: they skip
        Stage 3 and are counted in the dropped_connections column.

        ``fault_round_of(initiator_uid)`` is the round index the drop
        decision is keyed by (the round, or the initiator's local cycle
        on the event engine).  Returns ``(surviving, dropped_count)``.
        """
        if not (self._fault_active and matches):
            return matches, 0
        surviving = [
            pair for pair in matches
            if not self.faults.drop_connection(
                fault_round_of(pair[0]), pair[0], pair[1]
            )
        ]
        return surviving, len(matches) - len(surviving)

    def _stage3(
        self, rnd: int, matches: list[tuple[int, int]]
    ) -> tuple[int, int]:
        """Stage 3: bounded pairwise interaction over metered channels."""
        tokens_moved = 0
        control_bits = 0
        for initiator_uid, responder_uid in matches:
            initiator = self.protocols[self._vertex_of_uid[initiator_uid]]
            responder = self.protocols[self._vertex_of_uid[responder_uid]]
            channel = Channel(rnd, initiator_uid, responder_uid,
                              self.channel_policy)
            initiator.interact(responder, channel, rnd)
            channel.close()
            tokens_moved += channel.tokens_moved
            control_bits += channel.bits.total_bits
        return tokens_moved, control_bits

    def _observe_round(
        self,
        rnd: int,
        proposal_count: int,
        connections: int,
        tokens_moved: int,
        control_bits: int,
        dropped: int,
        active_nodes: int,
        **extra_columns,
    ) -> RoundRecord | None:
        """Fold one round into the trace (record or light path).

        ``extra_columns`` are additional :class:`RoundRecord` fields
        (the asynchrony layer's ``virtual_time``/``clock_skew_max``/
        ``events``); unsampled rounds skip the RoundRecord/gauge-dict
        churn entirely and only bump the trace totals.
        """
        gauges_due = bool(self.gauges) and rnd % self.gauge_every == 0
        if not (
            gauges_due or rnd == 1 or rnd % self.trace.sample_every == 0
        ):
            self.trace.observe(
                rnd, proposal_count, connections, tokens_moved,
                control_bits, dropped,
            )
            return None
        gauges = {}
        if gauges_due:
            gauges = {
                name: fn(self.protocols, rnd) for name, fn in self.gauges.items()
            }
        record = RoundRecord(
            round_index=rnd,
            proposals=proposal_count,
            connections=connections,
            tokens_moved=tokens_moved,
            control_bits=control_bits,
            gauges=gauges,
            active_nodes=active_nodes,
            dropped_connections=dropped,
            **extra_columns,
        )
        self.trace.record(record)
        return record

    def _apply_crash_resets(
        self, rnd: int, mask: np.ndarray | None
    ) -> None:
        """Reset protocols that crashed this round (fault models with
        ``resets_state``): every crashing vertex loses its learned state
        via ``reset_tokens()`` where the protocol provides it.  The
        model's own ``crashed_this_round`` report is authoritative when
        available — it sees a crash that starts the instant a previous
        outage ends, which the mask-transition fallback cannot.  Applied
        in vertex order before the stages, so both engine paths see
        identical post-crash state."""
        prev = self._prev_mask
        self._prev_mask = mask
        reported = self.faults.crashed_this_round(rnd)
        if reported is not None:
            crashed_vertices = np.asarray(reported, dtype=np.int64)
        elif mask is None:
            return
        else:
            crashed = ~mask if prev is None else prev & ~mask
            crashed_vertices = np.nonzero(crashed)[0]
        for vertex in crashed_vertices.tolist():
            reset = getattr(self._nodes[vertex], "reset_tokens", None)
            if reset is not None:
                reset()

    def _stages12_object(self, rnd: int) -> tuple[int, list[tuple[int, int]]]:
        """Stages 1–2 through per-node hooks (the reference path)."""
        graph = self.dynamic_graph.graph_at(rnd)
        self._refresh_adjacency(graph)

        nodes = self._nodes
        tags = self._tags
        max_tag = self.max_tag

        # Stage 1: scan + tag selection.
        for vertex, node in enumerate(nodes):
            tag = node.advertise(rnd, self._neighbor_uids[vertex])
            if not isinstance(tag, int) or not 0 <= tag <= max_tag:
                raise ProtocolViolationError(
                    f"node uid={node.uid} advertised tag {tag!r}; "
                    f"legal range with b={self.b} is [0, {self.max_tag}]"
                )
            tags[vertex] = tag

        # Stage 2: proposals, with each node seeing neighbor tags.  Views
        # come from the per-epoch skeleton cache; only views whose tag
        # changed since the previous round are replaced.
        proposer_uids: list[int] = []
        target_uids: list[int] = []
        neighbor_vertices = self._neighbor_vertices
        view_tuples = self._view_tuples
        for vertex, node in enumerate(nodes):
            views = self._views[vertex]
            stale = False
            for i, nv in enumerate(neighbor_vertices[vertex]):
                tag = tags[nv]
                view = views[i]
                if view.tag != tag:
                    views[i] = NeighborView(uid=view.uid, tag=tag)
                    stale = True
            if stale:
                view_tuples[vertex] = tuple(views)
            target = node.propose(rnd, view_tuples[vertex])
            if target is None:
                continue
            if target not in self._neighbor_uid_sets[vertex]:
                raise ProtocolViolationError(
                    f"node uid={node.uid} proposed to uid={target}, "
                    f"not a neighbor in round {rnd}"
                )
            proposer_uids.append(node.uid)
            target_uids.append(target)

        return len(proposer_uids), resolve_proposals(
            proposer_uids, target_uids, self.acceptance,
            self._match_streams(rnd),
        )

    def _match_streams(self, rnd: int):
        """Round ``rnd``'s ``stream_for`` under the configured discipline.

        ``"global"`` draws every contested target from the one
        ``("match", rnd)`` stream; ``"local"`` gives each contested target
        its own ``("match", rnd, "uid", target_uid)`` stream — derivable
        by any party that knows the run seed, the round, and its own UID
        (the live proposee's position)."""
        if self.acceptance_streams == "local":
            return lambda uid: self._tree.stream("match", rnd, "uid", uid)
        return shared_stream(lambda: self._tree.stream("match", rnd))

    def _stages12_object_masked(
        self, rnd: int, mask: np.ndarray
    ) -> tuple[int, list[tuple[int, int]]]:
        """Stages 1–2 on the active subgraph (the fault layer's mask).

        Every node's hooks still run — in the same vertex order as the
        unmasked path and as a bulk hook's scalar-equivalent loop — but
        an inactive vertex sees an empty neighborhood and an active
        vertex sees only its awake neighbors.  Views are built fresh per
        round (masks change round to round, so the per-epoch skeleton
        cache does not apply); the cached skeletons are left untouched
        for the next unmasked round.
        """
        graph = self.dynamic_graph.graph_at(rnd)
        self._refresh_adjacency(graph)

        nodes = self._nodes
        tags = self._tags
        max_tag = self.max_tag
        active = mask.tolist()
        masked_vertices: list[tuple[int, ...]] = [
            tuple(nv for nv in self._neighbor_vertices[vertex] if active[nv])
            if active[vertex]
            else ()
            for vertex in range(self.n)
        ]
        masked_uids = [
            tuple(nodes[nv].uid for nv in nvs) for nvs in masked_vertices
        ]

        # Stage 1: scan + tag selection over awake neighbors only.
        for vertex, node in enumerate(nodes):
            tag = node.advertise(rnd, masked_uids[vertex])
            if not isinstance(tag, int) or not 0 <= tag <= max_tag:
                raise ProtocolViolationError(
                    f"node uid={node.uid} advertised tag {tag!r}; "
                    f"legal range with b={self.b} is [0, {self.max_tag}]"
                )
            tags[vertex] = tag

        # Stage 2: proposals against the masked views.
        proposer_uids: list[int] = []
        target_uids: list[int] = []
        for vertex, node in enumerate(nodes):
            views = tuple(
                NeighborView(uid=nodes[nv].uid, tag=tags[nv])
                for nv in masked_vertices[vertex]
            )
            target = node.propose(rnd, views)
            if target is None:
                continue
            if target not in masked_uids[vertex]:
                raise ProtocolViolationError(
                    f"node uid={node.uid} proposed to uid={target}, "
                    f"not an active neighbor in round {rnd}"
                )
            proposer_uids.append(node.uid)
            target_uids.append(target)

        # The neighbor checks above already guarantee every surviving
        # proposal has both endpoints active: masking needs no resolver
        # support.
        return len(proposer_uids), resolve_proposals(
            proposer_uids, target_uids, self.acceptance,
            self._match_streams(rnd),
        )

    def _stages12_array(self, rnd: int) -> tuple[int, list[tuple[int, int]]]:
        """Stages 1–2 through bulk hooks over the epoch's CSR snapshot."""
        csr = self.dynamic_graph.csr_at(rnd)
        bound = self._csr_bound
        if bound is None or bound.base is not csr:
            with self._prof.span("round.csr_bind"):
                bound = self._csr_bound = csr.bind_uids(
                    self._uid_array, arena=self._arena
                )
            self.telemetry.metrics.gauge("engine.arena_bytes").set(
                self._arena.nbytes()
            )
        return self._stages12_array_on(rnd, bound)

    def _stages12_array_masked(
        self, rnd: int, mask: np.ndarray
    ) -> tuple[int, list[tuple[int, int]]]:
        """The array path on the active subgraph: same bulk hooks, fed a
        masked CSR snapshot (inactive rows empty, sleeping neighbors
        removed) — the flat-array twin of
        :meth:`_stages12_object_masked`.  The masked bound snapshot is
        cached by (epoch snapshot, mask bytes), so periodic masks
        (SleepCycle) rebuild only when the mask actually changes."""
        csr = self.dynamic_graph.csr_at(rnd)
        mask_bytes = mask.tobytes()
        if (
            self._masked_bound is None
            or self._masked_for is not csr
            or self._masked_bytes != mask_bytes
        ):
            with self._prof.span("round.csr_bind"):
                self._masked_bound = csr.masked(mask).bind_uids(
                    self._uid_array, arena=self._arena
                )
            self._masked_for = csr
            self._masked_bytes = mask_bytes
        return self._stages12_array_on(rnd, self._masked_bound)

    def _stages12_array_on(
        self, rnd: int, bound
    ) -> tuple[int, list[tuple[int, int]]]:
        """Shared body of the array front half over one bound snapshot."""
        advertise_all, propose_all = self._bulk

        # Stage 1: every tag at once, then one vectorized range check.
        with self._prof.span("round.advertise"):
            tags = self._as_int_array(
                advertise_all(self._nodes, rnd, bound), "advertise_all"
            )
        if tags.shape != (self.n,):
            raise ProtocolViolationError(
                f"advertise_all returned shape {tags.shape}; expected "
                f"({self.n},)"
            )
        if ((tags < 0) | (tags > self.max_tag)).any():
            vertex = int(np.nonzero((tags < 0) | (tags > self.max_tag))[0][0])
            raise ProtocolViolationError(
                f"node uid={self._nodes[vertex].uid} advertised tag "
                f"{int(tags[vertex])!r}; legal range with b={self.b} is "
                f"[0, {self.max_tag}]"
            )

        # Stage 2: every proposal at once (-1 = no proposal), then one
        # vectorized is-it-a-neighbor check — the same model rule the
        # object path enforces per node.
        with self._prof.span("round.propose"):
            targets = self._as_int_array(
                propose_all(self._nodes, rnd, bound, tags), "propose_all"
            )
        if targets.shape != (self.n,):
            raise ProtocolViolationError(
                f"propose_all returned shape {targets.shape}; expected "
                f"({self.n},)"
            )
        arena = self._arena
        proposer_mask = arena.take("proposer_mask", self.n, bool)
        np.greater_equal(targets, 0, out=proposer_mask)
        if proposer_mask.any():
            # Scatter per-edge hits to their source vertex: unlike a
            # reduceat over indptr segments this stays correct for
            # zero-degree vertices (possible under out-of-tree dynamics
            # even though in-tree graphs are connected).
            sources = bound.edge_sources()
            edge_targets = arena.take("edge_targets", sources.shape, np.int64)
            np.take(targets, sources, out=edge_targets)
            hit = arena.take("edge_hit", sources.shape, bool)
            np.equal(bound.uids, edge_targets, out=hit)
            legal = arena.take("legal", self.n, bool)
            legal[:] = False
            legal[sources[hit]] = True
            bad = proposer_mask & ~legal
            if bad.any():
                vertex = int(np.nonzero(bad)[0][0])
                raise ProtocolViolationError(
                    f"node uid={self._nodes[vertex].uid} proposed to "
                    f"uid={int(targets[vertex])}, not a neighbor in round "
                    f"{rnd}"
                )

        # Masked rounds need no resolver support: `bound` is already the
        # active subgraph, so the legality check above left only
        # proposals with both endpoints active.
        with self._prof.span("round.resolve"):
            matches = resolve_proposals(
                self._uid_array[proposer_mask], targets[proposer_mask],
                self.acceptance, self._match_streams(rnd),
            )
        return int(proposer_mask.sum()), matches

    @staticmethod
    def _as_int_array(values, hook: str) -> np.ndarray:
        """Coerce a bulk- or window-hook result to int64, refusing
        non-integer dtypes — the array twin of the object path's
        ``isinstance(tag, int)`` check (a silent float->int cast would let
        through values the reference path rejects)."""
        array = np.asarray(values)
        if not np.issubdtype(array.dtype, np.integer):
            raise ProtocolViolationError(
                f"{hook} returned dtype {array.dtype}; array hooks must "
                "return integer arrays"
            )
        return array.astype(np.int64, copy=False)

    def _refresh_adjacency(self, graph: nx.Graph) -> None:
        if graph is self._adjacency_for:
            return
        self._adjacency_for = graph
        nodes = self._nodes
        self._neighbor_vertices = [
            tuple(sorted(graph.neighbors(vertex)))
            for vertex in range(self.n)
        ]
        self._neighbor_uids = [
            tuple(nodes[nv].uid for nv in nvs)
            for nvs in self._neighbor_vertices
        ]
        self._neighbor_uid_sets = [
            frozenset(uids) for uids in self._neighbor_uids
        ]
        # Per-epoch view skeletons.  UIDs are fixed for the epoch; tags
        # start at 0 (already correct for b = 0 protocols, so their view
        # tuples are built once per epoch and reused verbatim) and are
        # refreshed in place by :meth:`step` as nodes change what they
        # advertise.
        self._views = [
            [NeighborView(uid=uid, tag=0) for uid in uids]
            for uids in self._neighbor_uids
        ]
        self._view_tuples = [tuple(views) for views in self._views]
