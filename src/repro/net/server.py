"""A live peer server wrapping one registered protocol node.

Each :class:`PeerServer` owns exactly one protocol object (the *same*
class the simulator builds — PPushNode, BlindMatchNode, SharedBitNode,
LeaderElectionNode, ...) and exposes the mobile telephone model's round
primitives as request/response operations over the framing protocol:

========== ==========================================================
op          meaning
========== ==========================================================
advertise   run the node's scan-stage hook, reply with its b-bit tag
propose     run the propose hook; deliver the proposal peer-to-peer
proposal    (peer-to-peer) record an incoming proposal for a round
resolve     proposee-enforced acceptance over the round's inbox —
            through ``resolve_proposals`` itself (proposals to
            proposers are lost; ties break by the configured
            acceptance rule on the per-target SeedTree stream)
connect     initiator-side Stage 3: pull the responder's visible
            state, run ``interact`` against a remote-peer adapter
            under the metered :class:`~repro.sim.channel.Channel`,
            push the deltas back
========== ==========================================================

plus cluster plumbing (``ping``/``set_neighbors``/``heartbeat``/
``beat``/``peers``/``prune``/``stats``), state transfer
(``state_pull``/``state_push``/``snapshot``/``reset``), ``stop``, and
live introspection: every server carries a
:class:`~repro.telemetry.MetricsRegistry` (connect-latency histogram,
robustness counters) and answers ``metrics`` with a one-shot status
snapshot — round progress, peer-table size, inbox depth, retry/timeout
counters, latency quantiles, plus whatever cluster-level view the
coordinator last pushed via ``status`` (round, suspect count) — which
is what ``repro-gossip top`` polls.

Lock discipline: the node lock is **never held across an outbound
network call**.  ``propose`` computes the target under the lock, then
delivers the proposal with the lock released; ``connect`` pulls remote
state first, runs ``interact`` locally under the lock, then pushes
deltas.  Matches are node-disjoint within a round, so concurrent
connects never contend for one node from two sides.

Robustness: every outbound call goes through :meth:`PeerServer.call_peer`
— per-op timeouts and bounded retries with seeded exponential backoff
(:class:`~repro.net.errors.RetryPolicy`) — and the round ops are
**idempotent per round** (replies are cached by round, incoming
proposals dedup by sender), so a caller whose reply was lost to a
timeout can safely retry: at-least-once delivery, at-most-once
execution of each protocol hook.  Proposal delivery failure is reported
(``delivered: false``) instead of aborting the round.

Chaos hooks (driven by :class:`~repro.net.chaos.ChaosModel`):
:meth:`kill` tears the TCP endpoint down abruptly (SIGKILL-style — no
handler draining) and :meth:`revive` rebinds the *same* port so peer
tables stay valid across the outage; :attr:`asleep` makes the endpoint
drop every connection without replying (a duty-cycled radio); and
:meth:`interdict` makes one round's Stage-3 state pull from a specific
initiator fail at the socket level (a lossy link).

Determinism: a server derives its acceptance draws from
``SeedTree(seed).child("engine").stream("match", round, "uid", uid)`` —
the same per-target streams the simulator uses under
``acceptance_streams="local"`` — so a proposee knowing only the run
seed, the round number, and its own UID reproduces the simulator's
coin flips exactly.  That is what makes the replay bridge's
equivalence assertion possible.  Retry backoff jitter draws from a
separate ``("net", "retry", uid)`` subtree, so robustness machinery
never perturbs protocol streams.
"""

from __future__ import annotations

import logging
import socketserver
import threading
import time
import weakref

from repro.core.tokens import Token
from repro.errors import ConfigurationError
from repro.net.errors import (
    DEFAULT_REQUEST_TIMEOUT,
    DEFAULT_RETRY_POLICY,
    ProtocolError,
    RetryPolicy,
    THREAD_JOIN_TIMEOUT,
    TransportError,
)
from repro.net.framing import recv_msg, request, send_msg
from repro.net.peers import PeerEntry, PeerTable
from repro.rng import SeedTree
from repro.sim.channel import Channel, ChannelPolicy
from repro.sim.context import NeighborView
from repro.sim.matching import ACCEPTANCE_RULES, resolve_proposals
from repro.telemetry import MetricsRegistry

__all__ = ["PeerServer"]

logger = logging.getLogger(__name__)

#: How many past rounds of op-reply cache / proposal inbox a server
#: keeps.  Retries only ever target the current round; eight is slack.
ROUND_MEMORY = 8


class _ChaosInterdicted(Exception):
    """Internal: drop this connection without replying (lossy link)."""


class _RemoteTokenPeer:
    """Stand-in for a remote token-gossip node during ``interact``.

    ``run_transfer`` touches only ``known_tokens``, ``token(id)`` and
    ``store_token`` on its peer; this adapter serves those from a pulled
    snapshot and records stores as deltas to push back.
    """

    def __init__(self, tokens: list):
        self._tokens = {
            int(tid): Token(int(tid), payload, int(origin))
            for tid, payload, origin in tokens
        }
        self.received: list[Token] = []

    @property
    def known_tokens(self) -> frozenset:
        return frozenset(self._tokens)

    def token(self, token_id: int) -> Token:
        return self._tokens[token_id]

    def store_token(self, token: Token) -> None:
        if token.token_id not in self._tokens:
            self._tokens[token.token_id] = token
            self.received.append(token)

    def deltas(self) -> dict | None:
        if not self.received:
            return None
        return {
            "kind": "tokens",
            "tokens": [
                [t.token_id, t.payload, t.origin_uid] for t in self.received
            ],
        }


class _RemotePPushPeer:
    """Stand-in for a remote PPUSH responder during ``interact``."""

    def __init__(self, informed: bool, rumor):
        self._was_informed = informed
        self.rumor = (
            Token(int(rumor[0]), rumor[1], int(rumor[2]))
            if rumor is not None
            else None
        )
        self.informed_at_round = None

    @property
    def informed(self) -> bool:
        return self.rumor is not None

    def deltas(self) -> dict | None:
        if self._was_informed or self.rumor is None:
            return None
        return {
            "kind": "ppush",
            "rumor": [
                self.rumor.token_id,
                self.rumor.payload,
                self.rumor.origin_uid,
            ],
            "informed_at_round": self.informed_at_round,
        }


class _Handler(socketserver.BaseRequestHandler):
    """One request per connection: read a frame, dispatch, reply."""

    def handle(self):
        peer_server = self.server.peer_server
        peer_server._handler_threads.add(threading.current_thread())
        if peer_server.asleep:
            # Duty-cycled radio: accept at the OS level (the listen
            # backlog already did), then hang up without a byte — the
            # caller sees a closed-without-reply transport fault.
            return
        self.request.settimeout(peer_server.handler_timeout)
        try:
            msg = recv_msg(self.request)
        except (TransportError, OSError):
            return
        if msg is None:
            return
        try:
            reply = peer_server.handle(msg)
        except _ChaosInterdicted:
            return  # lossy link: abrupt close, no reply frame
        except Exception as exc:  # surfaced to the caller, not swallowed
            reply = {
                "error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__,
            }
        try:
            send_msg(self.request, reply)
        except (TransportError, OSError):
            pass


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class PeerServer:
    """One protocol node behind a threaded TCP endpoint."""

    def __init__(
        self,
        node,
        *,
        uid: int,
        vertex: int,
        seed: int,
        b: int,
        acceptance: str = "uniform",
        channel_policy: ChannelPolicy | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        retry: RetryPolicy | None = DEFAULT_RETRY_POLICY,
    ):
        if acceptance not in ACCEPTANCE_RULES:
            raise ConfigurationError(
                f"unknown acceptance rule {acceptance!r}; live servers "
                f"support {sorted(ACCEPTANCE_RULES)}"
            )
        self.node = node
        self.uid = uid
        self.vertex = vertex
        self.acceptance = acceptance
        self.channel_policy = channel_policy or ChannelPolicy.for_upper_n(
            max(uid, 1)
        )
        self.max_tag = (1 << b) - 1
        self.request_timeout = request_timeout
        #: Handler-socket inactivity bound: a client that connects and
        #: never finishes its frame cannot pin a handler thread forever.
        self.handler_timeout = max(4 * request_timeout, 10.0)
        self.retry_policy = retry
        self.table = PeerTable()
        self._engine_tree = SeedTree(seed).child("engine")
        # Backoff jitter draws from a dedicated subtree: robustness
        # machinery must never touch the protocol/acceptance streams.
        self._retry_rng = SeedTree(seed).child("net").stream("retry", uid)
        self._lock = threading.RLock()
        self._proposed: dict[int, int | None] = {}
        self._inbox: dict[int, set[int]] = {}
        #: Per-round reply cache making the round ops idempotent under
        #: caller retries (a reply lost to a timeout must not re-run a
        #: protocol hook or re-deliver a proposal on retry).
        self._op_cache: dict[tuple, dict] = {}
        #: (round, initiator_uid) pairs whose Stage-3 state pull this
        #: server must fail at the socket level (chaos lossy links).
        self._interdicted: set[tuple[int, int]] = set()
        self.stats = {
            "retries": 0,
            "timeouts": 0,
            "failed_deliveries": 0,
            "kills": 0,
            "revives": 0,
        }
        # Live introspection: always-on (the live layer is wall-clock
        # territory anyway — no determinism contract to protect), read
        # by the `metrics` op and scraped into NetRunReport.
        self.metrics = MetricsRegistry()
        self._latency_hist = self.metrics.histogram(
            "net.connect_latency_s", uid=uid
        )
        self._last_round = 0
        #: Cluster-level view last pushed by the coordinator (`status`
        #: op): round, suspect count, active count — what lets any
        #: single server answer `repro-gossip top` for the cluster.
        self._cluster_status: dict = {}
        self._handler_threads: weakref.WeakSet = weakref.WeakSet()
        self._server = _TCPServer((host, port), _Handler)
        self._server.peer_server = self
        self._bound = self._server.server_address[:2]
        self._thread: threading.Thread | None = None
        self._dead = False
        self.asleep = False

    # -- lifecycle ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        # The bound address is remembered across kill/revive so peer
        # tables installed before an outage stay valid after it.
        return self._bound

    @property
    def dead(self) -> bool:
        """True between :meth:`kill` (or :meth:`stop`) and :meth:`revive`."""
        return self._dead

    def start(self) -> "PeerServer":
        self._thread = threading.Thread(
            # A short poll interval keeps kill() prompt: shutdown()
            # blocks until the accept loop notices the flag.
            target=lambda: self._server.serve_forever(poll_interval=0.05),
            name=f"peer-{self.uid}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = THREAD_JOIN_TIMEOUT) -> int:
        """Stop serving; returns the number of threads that leaked.

        Joins the accept loop and every in-flight handler thread within
        ``timeout`` seconds total.  Threads still alive after that are
        *reported* — counted in the return value, logged, and added to
        ``stats["leaked_threads"]`` — instead of silently abandoned.
        """
        if self._dead:
            return self._count_leaked(log=False)
        self._dead = True
        deadline = time.monotonic() + timeout
        if self._thread is not None:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if not self._thread.is_alive():
                self._thread = None
        for thread in list(self._handler_threads):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if thread.is_alive():
                thread.join(timeout=remaining)
        return self._count_leaked(log=True)

    def _count_leaked(self, log: bool) -> int:
        leaked = sum(
            1 for t in list(self._handler_threads) if t.is_alive()
        )
        if self._thread is not None and self._thread.is_alive():
            leaked += 1
        self.stats["leaked_threads"] = leaked
        if leaked and log:
            logger.warning(
                "peer server uid=%d stopped with %d thread(s) failing to "
                "join within the timeout", self.uid, leaked,
            )
        return leaked

    def kill(self) -> None:
        """SIGKILL-style termination: tear the endpoint down abruptly.

        No handler draining, no leak accounting — the process is gone.
        In-flight requests fail at their callers as transport faults;
        subsequent connections are refused.  The node object (the
        phone's storage) survives in-process for :meth:`revive`.
        """
        if self._dead:
            return
        self._dead = True
        self.stats["kills"] += 1
        if self._thread is not None:
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None

    def revive(self) -> None:
        """Rejoin after :meth:`kill`: rebind the same port and serve.

        The peer table the node stored before the outage is trusted
        afresh (``touch_all`` — its stamps all predate the outage and
        would otherwise be pruned on the first liveness pass); the
        cluster re-admits the node through the normal heartbeat /
        ``set_neighbors`` path.
        """
        if not self._dead:
            return
        self._server = _TCPServer(self._bound, _Handler)
        self._server.peer_server = self
        self._dead = False
        self.asleep = False
        self.stats["revives"] += 1
        self.table.touch_all()
        self.start()

    def __enter__(self) -> "PeerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- chaos shims --------------------------------------------------

    def interdict(self, rnd: int, initiator_uid: int) -> None:
        """Make round ``rnd``'s Stage-3 pull from ``initiator_uid`` fail.

        The interdicted state pull is dropped at the socket level (no
        reply frame), so the initiator experiences a real mid-handshake
        link failure.  Entries for rounds older than
        ``rnd - ROUND_MEMORY`` are expired as new ones arrive.
        """
        with self._lock:
            self._interdicted.add((rnd, initiator_uid))
            self._interdicted = {
                entry for entry in self._interdicted
                if entry[0] > rnd - ROUND_MEMORY
            }

    # -- dispatch -----------------------------------------------------

    def handle(self, msg: dict) -> dict:
        op = msg.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"error": f"unknown op {op!r}"}
        return handler(msg)

    def _cached(self, key: tuple, compute) -> dict:
        """At-most-once execution for retried round ops: the first call
        computes and caches the reply under the node lock; retries get
        the cached reply without re-running any protocol hook."""
        with self._lock:
            reply = self._op_cache.get(key)
            if reply is None:
                reply = compute()
                self._op_cache[key] = reply
                rnd = key[1]
                for stale in [
                    k for k in self._op_cache if k[1] <= rnd - ROUND_MEMORY
                ]:
                    del self._op_cache[stale]
            return reply

    def call_peer(
        self,
        entry: PeerEntry,
        obj,
        *,
        retry: RetryPolicy | None | str = "default",
        timeout: float | None = None,
    ) -> dict:
        """One robust outbound RPC to a known peer.

        Applies this server's :class:`~repro.net.errors.RetryPolicy`
        (override with ``retry=None`` for single-shot calls such as
        heartbeats and Stage-3 pulls), counts retries/timeouts in
        :attr:`stats`, and raises
        :class:`~repro.net.errors.ProtocolError` when the peer replies
        with an op-level error.
        """
        policy = self.retry_policy if retry == "default" else retry
        reply = request(
            entry.host,
            entry.port,
            obj,
            timeout=self.request_timeout if timeout is None else timeout,
            retry=policy,
            rng=self._retry_rng,
            on_retry=self._note_retry,
            uid=entry.uid,
        )
        if "error" in reply:
            raise ProtocolError(
                f"peer {entry.uid} rejected {obj.get('op')!r}: "
                f"{reply['error']}",
                uid=entry.uid,
                op=obj.get("op"),
                remote_type=reply.get("error_type"),
            )
        return reply

    def _note_retry(self, exc: TransportError, attempt: int,
                    delay: float) -> None:
        self.stats["retries"] += 1
        if exc.kind == "timeout":
            self.stats["timeouts"] += 1

    # -- cluster plumbing ---------------------------------------------

    def _op_ping(self, msg: dict) -> dict:
        return {"ok": True, "uid": self.uid, "vertex": self.vertex}

    def _op_set_neighbors(self, msg: dict) -> dict:
        now = msg.get("now")
        stamp = time.monotonic() if now is None else float(now)
        self.table.replace_all(
            PeerEntry(
                uid=int(uid),
                host=host,
                port=int(port),
                vertex=int(vertex),
                last_seen=stamp,
            )
            for uid, host, port, vertex in msg["entries"]
        )
        return {"ok": True, "peers": len(self.table)}

    def _op_heartbeat(self, msg: dict) -> dict:
        return {
            "ok": self.table.heartbeat(int(msg["from"]), now=msg.get("now"))
        }

    def _op_peers(self, msg: dict) -> dict:
        return {"uids": list(self.table.uids())}

    def _op_beat(self, msg: dict) -> dict:
        """Send one heartbeat to every known peer; dead peers tolerated.

        Single-shot on purpose (``retry=None``): a heartbeat is periodic
        — a missed beat *is* the liveness signal, and retrying it would
        only delay the prune that reacts to it.
        """
        now = msg.get("now")
        delivered, failed = [], []
        for entry in self.table.entries():  # snapshot; no lock held below
            beat = {"op": "heartbeat", "from": self.uid}
            if now is not None:
                beat["now"] = now
            try:
                self.call_peer(entry, beat, retry=None)
                delivered.append(entry.uid)
            except (TransportError, ProtocolError):
                failed.append(entry.uid)
        return {"delivered": delivered, "failed": failed}

    def _op_prune(self, msg: dict) -> dict:
        removed = self.table.prune(
            float(msg["max_age"]), now=msg.get("now")
        )
        return {"removed": list(removed)}

    def _op_stats(self, msg: dict) -> dict:
        """Robustness counters: retries, timeouts, failed deliveries."""
        with self._lock:
            return {"uid": self.uid, **self.stats}

    def _op_status(self, msg: dict) -> dict:
        """Coordinator push: the cluster-level view (round, suspects).

        Stored verbatim so any single endpoint can answer ``metrics``
        with cluster context — the coordinator is not itself a server,
        so ``repro-gossip top`` needs some peer to relay its view.
        """
        with self._lock:
            self._cluster_status = {
                key: msg[key]
                for key in ("round", "suspects", "active", "n", "solved")
                if key in msg
            }
        return {"ok": True}

    def _op_metrics(self, msg: dict) -> dict:
        """One-shot introspection snapshot (what ``top`` polls).

        ``round`` is the highest round this node has participated in;
        ``cluster`` is the coordinator's last pushed view (empty until
        the first push).  ``latency`` carries the connect-latency
        histogram's exact count/sum/min/max plus windowed p50/p99.
        """
        with self._lock:
            inbox_depth = sum(
                len(senders) for senders in self._inbox.values()
            )
            return {
                "uid": self.uid,
                "vertex": self.vertex,
                "round": self._last_round,
                "peers": len(self.table),
                "inbox": inbox_depth,
                "asleep": self.asleep,
                "stats": dict(self.stats),
                "latency": self._latency_hist.snapshot(),
                "cluster": dict(self._cluster_status),
            }

    # -- round structure ----------------------------------------------

    def _op_advertise(self, msg: dict) -> dict:
        rnd = int(msg["round"])

        def compute():
            self._last_round = max(self._last_round, rnd)
            neighbor_uids = tuple(int(u) for u in msg.get("neighbors", ()))
            tag = int(self.node.advertise(rnd, neighbor_uids))
            if not 0 <= tag <= self.max_tag:
                raise ConfigurationError(
                    f"node {self.uid} advertised tag {tag} outside "
                    f"[0, {self.max_tag}]"
                )
            return {"tag": tag}

        return self._cached(("advertise", rnd), compute)

    def _op_propose(self, msg: dict) -> dict:
        rnd = int(msg["round"])
        key = ("propose", rnd)
        with self._lock:
            cached = self._op_cache.get(key)
        if cached is not None:
            return cached
        views = tuple(
            NeighborView(uid=int(uid), tag=int(tag))
            for uid, tag in msg.get("views", ())
        )
        with self._lock:
            # Re-check under the lock: a retry racing the first attempt
            # must not run the propose hook twice.
            cached = self._op_cache.get(key)
            if cached is not None:
                return cached
            target = self.node.propose(rnd, views)
            self._proposed[rnd] = target
            self._proposed.pop(rnd - ROUND_MEMORY, None)
        reply: dict = {"target": target, "delivered": target is not None}
        if target is not None:
            entry = self.table.get(int(target))
            if entry is None:
                # A pruned peer table entry: the proposal is lost, the
                # round is not.  Degradation, not a protocol violation.
                reply = {
                    "target": target,
                    "delivered": False,
                    "delivery_error": f"no peer-table entry for {target}",
                }
                self.stats["failed_deliveries"] += 1
            else:
                try:
                    self.call_peer(
                        entry,
                        {"op": "proposal", "round": rnd, "from": self.uid},
                    )
                except (TransportError, ProtocolError) as exc:
                    reply = {
                        "target": target,
                        "delivered": False,
                        "delivery_error": str(exc),
                    }
                    self.stats["failed_deliveries"] += 1
        with self._lock:
            self._op_cache[key] = reply
        return reply

    def _op_proposal(self, msg: dict) -> dict:
        rnd = int(msg["round"])
        with self._lock:
            # A set, so a retried delivery (reply lost to a timeout)
            # cannot double-count a sender.
            self._inbox.setdefault(rnd, set()).add(int(msg["from"]))
        return {"ok": True}

    def _op_resolve(self, msg: dict) -> dict:
        """Proposee-enforced acceptance: ``resolve_proposals`` semantics.

        A node that proposed this round loses its incoming proposals
        (the model's collision rule); otherwise the inbox goes through
        the simulator's own resolver, drawing — for ``uniform`` — from
        this target's own match stream, which is exactly the draw the
        simulator makes under ``acceptance_streams="local"``.  The
        verdict is cached: resolving consumes the inbox and (when
        contested) a random draw, so a retried resolve must see the
        first answer, not a second flip.
        """
        rnd = int(msg["round"])

        def compute():
            proposed = self._proposed.get(rnd)
            senders = sorted(self._inbox.pop(rnd, ()))
            if proposed is not None or not senders:
                return {"winner": None, "senders": len(senders)}
            [(winner, _)] = resolve_proposals(
                senders, [self.uid] * len(senders), self.acceptance,
                lambda target: self._engine_tree.stream(
                    "match", rnd, "uid", target
                ),
            )
            return {"winner": winner, "senders": len(senders)}

        return self._cached(("resolve", rnd), compute)

    def _op_connect(self, msg: dict) -> dict:
        """Initiator-side Stage 3 against a remote responder.

        The state pull is single-shot (``retry=None``): the model grants
        one connection attempt per round, so a mid-handshake link
        failure — including a chaos interdiction on the responder — is
        a failed connection this round, not something to retry through.
        The delta push *is* retried (it is idempotent and the handshake
        already succeeded).  The reply is cached per round so a caller
        retry cannot re-run ``interact``.
        """
        rnd = int(msg["round"])
        responder_uid = int(msg["responder"])

        def compute():
            entry = self.table.get(responder_uid)
            if entry is None:
                raise TransportError(
                    f"node {self.uid} has no peer entry for responder "
                    f"{responder_uid}"
                )
            started = time.perf_counter()
            pulled = self.call_peer(
                entry,
                {"op": "state_pull", "round": rnd, "from": self.uid},
                retry=None,
            )
            if pulled["kind"] == "tokens":
                adapter = _RemoteTokenPeer(pulled["tokens"])
            elif pulled["kind"] == "ppush":
                adapter = _RemotePPushPeer(
                    pulled["informed"], pulled["rumor"]
                )
            else:
                raise TransportError(
                    f"responder {responder_uid} pulled unknown state kind "
                    f"{pulled['kind']!r}"
                )
            channel = Channel(rnd, self.uid, responder_uid,
                              self.channel_policy)
            self.node.interact(adapter, channel, rnd)
            channel.close()
            deltas = adapter.deltas()
            if deltas is not None:
                push = dict(deltas, op="state_push", round=rnd)
                self.call_peer(entry, push)
            latency = time.perf_counter() - started
            self._latency_hist.observe(latency)
            return {
                "tokens_moved": channel.tokens_moved,
                "bits": channel.bits.total_bits,
                "latency_s": latency,
            }

        return self._cached(("connect", rnd, responder_uid), compute)

    # -- state transfer -----------------------------------------------

    def _op_state_pull(self, msg: dict) -> dict:
        rnd = msg.get("round")
        initiator = msg.get("from")
        if rnd is not None and initiator is not None:
            with self._lock:
                if (int(rnd), int(initiator)) in self._interdicted:
                    raise _ChaosInterdicted()
        with self._lock:
            node = self.node
            if hasattr(node, "store_token"):
                return {
                    "kind": "tokens",
                    "tokens": [
                        [t.token_id, t.payload, t.origin_uid]
                        for t in sorted(
                            (node.token(tid) for tid in node.known_tokens),
                            key=lambda t: t.token_id,
                        )
                    ],
                }
            rumor = node.rumor
            return {
                "kind": "ppush",
                "informed": node.informed,
                "rumor": None
                if rumor is None
                else [rumor.token_id, rumor.payload, rumor.origin_uid],
            }

    def _op_state_push(self, msg: dict) -> dict:
        with self._lock:
            node = self.node
            if msg["kind"] == "tokens":
                stored = 0
                for tid, payload, origin in msg["tokens"]:
                    token = Token(int(tid), payload, int(origin))
                    if not node.has_token(token.token_id):
                        node.store_token(token)
                        stored += 1
                return {"ok": True, "stored": stored}
            if msg["kind"] == "ppush":
                if not node.informed:
                    tid, payload, origin = msg["rumor"]
                    node.rumor = Token(int(tid), payload, int(origin))
                    node.informed_at_round = msg.get("informed_at_round")
                    return {"ok": True, "stored": 1}
                return {"ok": True, "stored": 0}
            return {"error": f"unknown state kind {msg['kind']!r}"}

    def _op_snapshot(self, msg: dict) -> dict:
        with self._lock:
            return {
                "uid": self.uid,
                "vertex": self.vertex,
                "tokens": sorted(self.node.known_tokens),
            }

    def _op_reset(self, msg: dict) -> dict:
        """Crash-with-state-loss hook (fault models with resets)."""
        with self._lock:
            if hasattr(self.node, "reset_tokens"):
                self.node.reset_tokens()
                return {"ok": True, "reset": True}
        return {"ok": True, "reset": False}

    def _op_stop(self, msg: dict) -> dict:
        threading.Thread(target=self.stop, daemon=True).start()
        return {"ok": True}
