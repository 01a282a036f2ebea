"""Proposal resolution: who connects to whom.

The model's connection rules (§2):

* a node sends at most one proposal;
* a node that sends a proposal cannot also receive one — proposals aimed
  at a proposer are simply lost;
* a node that did not propose and received at least one proposal accepts
  exactly one.  The paper fixes the acceptance draw to *uniform* "for
  simplicity" while noting "there are different ways to model how v
  selects a proposal to accept" — so the rule is pluggable here
  (:data:`ACCEPTANCE_RULES`), with uniform as the default everywhere.

The result is a partial matching: every node is in at most one connection.
This bounded-acceptance rule is *the* difference from the classical
telephone model (which allows unbounded incoming connections), and it is
why the paper needs new analysis — see the double-star discussion in §1.
``rule="unbounded"`` implements the classical model's rule as a
measurable baseline (benchmarks/bench_classical.py shows the Δ² penalty
collapsing once acceptance is unbounded).

:func:`resolve_proposals` is the one resolver: the round engine's two
front halves, the event engine's cohorts and the live proposee all call
it, and differ only in the ``stream_for`` they pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ProtocolViolationError

__all__ = ["resolve_proposals", "shared_stream", "ACCEPTANCE_RULES"]

#: Named acceptance rules for the bounded (mobile telephone) model:
#: ``uniform`` draws among the incoming proposals; ``lowest_uid`` and
#: ``highest_uid`` are deterministic tie-breaks (adversary-friendly — the
#: same proposer can monopolize a popular target) that draw nothing.
ACCEPTANCE_RULES = ("uniform", "lowest_uid", "highest_uid")

_RULES = ACCEPTANCE_RULES + ("unbounded",)


def shared_stream(derive):
    """``stream_for`` for the global discipline: every contested target
    draws from the one stream ``derive()`` builds on first use.

    Deriving a :class:`~repro.rng.SeedTree` stream is pure, so deferring
    it to the first contested target moves no draw — it only skips the
    hashing when nothing is contested.
    """
    stream = None

    def stream_for(_target):
        nonlocal stream
        if stream is None:
            stream = derive()
        return stream

    return stream_for


def resolve_proposals(
    proposer_uids,
    target_uids,
    rule: str = "uniform",
    stream_for=None,
) -> list[tuple[int, int]]:
    """Resolve one cohort's proposals into ``(initiator, responder)`` pairs.

    ``proposer_uids``/``target_uids`` are parallel UID sequences (lists or
    int arrays): proposer ``proposer_uids[i]`` proposed to
    ``target_uids[i]``.  Proposer UIDs must be distinct.  ``rule`` is one
    of :data:`ACCEPTANCE_RULES` or ``"unbounded"`` (every proposal to a
    non-proposer connects).

    Pairs come out in sorted-target order, each target's pairs by
    ascending initiator.  Under ``uniform`` the acceptance draw calls
    ``stream_for(target_uid)`` once per *contested* target (two or more
    surviving proposals), in that same sorted-target order, and draws
    ``choice`` over the target's ascending senders.  Uncontested targets
    and the other rules never call it.  The stream discipline is the
    caller's: :func:`shared_stream` gives the engines' one-stream-per-
    round (or per-tick) draws, a per-target derivation gives the live
    proposee's.
    """
    if rule not in _RULES:
        raise ConfigurationError(
            f"unknown acceptance rule {rule!r}; choose from {sorted(_RULES)}"
        )
    if rule == "uniform" and stream_for is None:
        raise ConfigurationError("the uniform rule needs stream_for")
    count = len(proposer_uids)
    if count != len(target_uids):
        raise ConfigurationError(
            "proposer_uids and target_uids must have matching lengths"
        )
    if count <= 1:
        # The common asynchronous cohort: a lone proposal always lands (a
        # self-proposal is a violation, so its target never proposed).
        if count == 0:
            return []
        proposer, target = int(proposer_uids[0]), int(target_uids[0])
        if proposer == target:
            raise ProtocolViolationError(f"node {proposer} proposed to itself")
        return [(proposer, target)]

    proposer_uids = np.asarray(proposer_uids, dtype=np.int64)
    target_uids = np.asarray(target_uids, dtype=np.int64)
    self_loops = proposer_uids == target_uids
    if self_loops.any():
        offender = int(proposer_uids[self_loops][0])
        raise ProtocolViolationError(f"node {offender} proposed to itself")
    if np.unique(proposer_uids).size != count:
        raise ProtocolViolationError("duplicate proposer UIDs")

    # Proposals aimed at a proposer are lost (§2).
    keep = ~np.isin(target_uids, proposer_uids)
    senders = proposer_uids[keep]
    targets = target_uids[keep]
    if senders.size == 0:
        return []
    # Sort by (target, sender): groups come out in sorted-target order
    # with each group's senders ascending.
    order = np.lexsort((senders, targets))
    senders = senders[order]
    targets = targets[order]
    if rule == "unbounded":
        return list(zip(senders.tolist(), targets.tolist()))
    group_targets, starts = np.unique(targets, return_index=True)
    bounds = np.append(starts, senders.size)
    if rule == "lowest_uid":
        initiators = senders[starts]
    elif rule == "highest_uid":
        initiators = senders[bounds[1:] - 1]
    else:  # uniform
        initiators = senders[starts].copy()
        for g in np.nonzero(np.diff(bounds) > 1)[0]:
            group = senders[bounds[g]:bounds[g + 1]]
            initiators[g] = stream_for(int(group_targets[g])).choice(group)
    return list(zip(initiators.tolist(), group_targets.tolist()))
