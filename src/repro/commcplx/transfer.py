"""Transfer(ε): find and move the smallest token in the symmetric difference.

Once two nodes connect, even knowing their token sets differ, they must
still *identify* a token one is missing — with only O(polylog N) bits of
conversation.  §3 of the paper does this with a binary search over the
label space ``[N]``: repeatedly EQTest the two sets restricted to a prefix
interval; if the prefixes differ the earliest difference lies inside,
otherwise beyond.

Guarantee: if ``T_u ≠ T_v`` then, with probability ≥ 1 − ε, the smallest
label in ``(T_u ∪ T_v) \\ (T_u ∩ T_v)`` is identified and the token moves
from its owner to the other node.  Cost: ≤ ⌈log₂ N⌉ EQTest calls of
``⌈log₂(⌈log₂ N⌉/ε)⌉`` trials each — O(log²N · log(logN/ε)) bits.

Note on the paper's pseudocode: it narrows with ``b ← ⌊b/2⌋``, shorthand
that only reads correctly as "the midpoint of the live interval [a, b]".
We implement the midpoint search explicitly; the stated guarantee and bit
budget are unchanged.

Only the levels whose restrictions truly differ carry randomness: an
EQTest of equal sets reports *equal* with probability 1.  So the search
walks the sorted symmetric difference and runs (and draws for) trials
only at levels whose left half ``[lo, mid]`` holds a differing label;
every other level is charged its trials and steps right draw-free.  Equal
sets walk the right spine to ``N`` in ``⌊log₂ N⌋`` levels without a draw.
Outcome, rng consumption and bit totals match the per-level search
exactly; the channel sees one ``eqtest`` message per search.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.bits import ceil_log2
from repro.commcplx.eqtest import EqualityTester
from repro.errors import ConfigurationError
from repro.sim.channel import Channel

__all__ = ["TransferOutcome", "TransferProtocol", "trials_for_error"]


def trials_for_error(upper_n: int, epsilon: float) -> int:
    """EQTest trials per call so that Transfer(ε) fails with prob < ε.

    The search makes ≤ ⌈log₂ N⌉ EQTest calls; each must fail with
    probability ≤ ε / ⌈log₂ N⌉, and a trial errs with probability ≤ 1/2,
    so ``⌈log₂(⌈log₂ N⌉ / ε)⌉`` trials suffice (the paper's ε′).
    """
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    log_n = max(ceil_log2(upper_n), 1)
    return max(1, math.ceil(math.log2(log_n / epsilon)))


@dataclass(frozen=True)
class TransferOutcome:
    """What one Transfer invocation did.

    ``token_id`` — the label the binary search landed on (None when the
    parties' sets were genuinely equal *and* the search confirmed it).
    ``moved_to_a`` / ``moved_to_b`` — direction of the transfer, if any.
    ``consistent`` — False when the search landed on a label owned by both
    or neither party, which can only happen when some EQTest call erred
    (or the sets were equal); callers treat it as "no useful transfer".
    """

    token_id: int | None
    moved_to_a: bool
    moved_to_b: bool
    consistent: bool
    eq_calls: int
    control_bits: int

    @property
    def moved(self) -> bool:
        return self.moved_to_a or self.moved_to_b


class TransferProtocol:
    """Reusable Transfer(ε) runner bound to a universe bound ``upper_n``.

    Token labels live in ``[1, upper_n]`` (the paper labels each token with
    its origin's UID from [N]).  The protocol works on *label sets*; the
    caller moves the actual token payload based on the outcome — see
    :meth:`repro.core.problem.GossipNode.run_transfer`.
    """

    def __init__(self, upper_n: int, epsilon: float):
        if upper_n < 2:
            raise ConfigurationError(f"upper_n must be >= 2, got {upper_n}")
        self.upper_n = upper_n
        self.epsilon = epsilon
        self.trials_per_call = trials_for_error(upper_n, epsilon)
        self.tester = EqualityTester(upper_n)
        # Levels on the all-equal path: each step keeps the right half,
        # ⌊size/2⌋ labels, until one is left.
        self._spine_levels = upper_n.bit_length() - 1

    def locate(
        self,
        labels_a,
        labels_b,
        rng: random.Random,
        channel: Channel | None = None,
    ) -> TransferOutcome:
        """Run the binary search and report the chosen label and direction."""
        set_a = frozenset(labels_a)
        set_b = frozenset(labels_b)
        self._validate(set_a, "a")
        self._validate(set_b, "b")

        if set_a == set_b:
            eq_calls = self._spine_levels
            executed = eq_calls * self.trials_per_call
            chosen = self.upper_n
        else:
            eq_calls, executed, chosen = self._search(set_a, set_b, rng)
        self.tester.record(eq_calls, executed, channel)

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
        control_bits = executed * self.tester.bits_per_trial + ownership_bits
        return TransferOutcome(
            token_id=chosen if consistent else None,
            moved_to_a=consistent and in_b,
            moved_to_b=consistent and in_a,
            consistent=consistent,
            eq_calls=eq_calls,
            control_bits=control_bits,
        )

    def _search(self, set_a: frozenset, set_b: frozenset,
                rng: random.Random) -> tuple[int, int, int]:
        """Binary search for unequal sets: ``(levels, trials, label)``.

        A level runs real trials only when ``[lo, mid]`` holds a label of
        the symmetric difference, comparing fingerprints of just those
        labels; otherwise the restrictions are equal and it costs no draw.
        """
        diff = sorted(set_a ^ set_b)
        trials = self.trials_per_call
        run_trials = self.tester.run_trials
        levels = executed = 0
        first = 0  # index of the first differing label >= lo
        lo, hi = 1, self.upper_n
        while lo != hi:
            mid = (lo + hi) // 2
            levels += 1
            end = bisect_right(diff, mid, first)
            if end == first:
                equal = True
                executed += trials
            else:
                span = diff[first:end]
                equal, ran = run_trials(
                    [x for x in span if x in set_a],
                    [x for x in span if x in set_b],
                    trials, rng,
                )
                executed += ran
            if equal:
                lo = mid + 1
                first = end
            else:
                hi = mid
        return levels, executed, lo

    def worst_case_control_bits(self) -> int:
        """Upper bound on control bits per invocation (for budget sizing)."""
        calls = max(ceil_log2(self.upper_n), 1)
        return calls * self.trials_per_call * self.tester.bits_per_trial + 2

    def _validate(self, labels: frozenset, side: str) -> None:
        for label in labels:
            if not 1 <= label <= self.upper_n:
                raise ConfigurationError(
                    f"token label {label} on side {side!r} outside [1, {self.upper_n}]"
                )
