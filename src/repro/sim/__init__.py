"""The mobile telephone model as a discrete-round simulator.

A round proceeds in the model's three stages (§2 of the paper):

1. **Scan** — every node learns its neighbors in this round's topology
   graph; every node picks a ``b``-bit advertising tag; neighbors see tags.
2. **Propose** — each node may send one connection proposal to one
   neighbor.  A proposer cannot also receive; a non-proposer with incoming
   proposals accepts one chosen uniformly at random.
3. **Connect** — each matched pair communicates over a metered
   :class:`~repro.sim.channel.Channel`: at most ``max_tokens`` tokens and
   ``max_control_bits`` extra bits.

:class:`~repro.sim.engine.Simulation` drives the loop; algorithms implement
:class:`~repro.sim.protocol.NodeProtocol`.
"""

from repro.sim.adjacency import CSRAdjacency
from repro.sim.context import NeighborView
from repro.sim.channel import Channel, ChannelPolicy
from repro.sim.faults import (
    CrashChurn,
    FaultModel,
    LossyLinks,
    NoFaults,
    SleepCycle,
    build_fault,
)
from repro.sim.protocol import NodeProtocol, TokenHolder, bulk_hooks
from repro.sim.matching import resolve_proposals
from repro.sim.trace import RoundRecord, Trace
from repro.sim.engine import Simulation, SimulationResult
from repro.sim.termination import (
    never,
    all_hold_tokens,
    all_agree_on_leader,
    any_of,
)

__all__ = [
    "CSRAdjacency",
    "NeighborView",
    "Channel",
    "ChannelPolicy",
    "FaultModel",
    "NoFaults",
    "SleepCycle",
    "CrashChurn",
    "LossyLinks",
    "build_fault",
    "NodeProtocol",
    "TokenHolder",
    "bulk_hooks",
    "resolve_proposals",
    "RoundRecord",
    "Trace",
    "Simulation",
    "SimulationResult",
    "never",
    "all_hold_tokens",
    "all_agree_on_leader",
    "any_of",
]
