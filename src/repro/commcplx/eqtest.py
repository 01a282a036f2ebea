"""EQTest: randomized set-equality testing with private randomness.

The paper (§3) assumes "one of the many known existing solutions" to the
two-party EQ problem with this contract:

* if the sets are equal, the test reports *equal* with probability 1;
* if they differ, it erroneously reports equal with probability ≤ 1/2 per
  trial, and trials are independent, so ``c`` trials push the error to
  ``2^-c``;
* each trial uses O(log N) bits and only private randomness.

We realize it with polynomial identity fingerprinting over ``F_p``,
``p > 2N`` (see :mod:`repro.commcplx.fields`): per trial the initiating
party draws a uniform evaluation point, sends the point and its own
polynomial's value (2·⌈log₂ p⌉ bits), and the responder answers with one
bit.  Per-trial soundness error is ≤ N/p ≤ 1/2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.bits import ceil_log2
from repro.commcplx.fields import eval_set_polynomial, next_prime
from repro.errors import ConfigurationError
from repro.sim.channel import Channel

__all__ = ["EqualityTester", "EqTestStats"]


@dataclass
class EqTestStats:
    """Communication accounting for a batch of EQTest invocations."""

    calls: int = 0
    trials: int = 0
    bits: int = 0

    def merge(self, other: "EqTestStats") -> None:
        self.calls += other.calls
        self.trials += other.trials
        self.bits += other.bits


@dataclass
class EqualityTester:
    """Equality testing for subsets of ``[upper_n]``.

    One instance is bound to a universe bound ``upper_n``; the field prime
    ``p`` is the smallest prime exceeding ``2·upper_n`` so each trial's
    soundness error ``upper_n / p`` is below 1/2.
    """

    upper_n: int
    stats: EqTestStats = field(default_factory=EqTestStats)

    def __post_init__(self):
        if self.upper_n < 2:
            raise ConfigurationError(f"upper_n must be >= 2, got {self.upper_n}")
        self._prime = next_prime(2 * self.upper_n)
        self._bits_per_trial = 2 * ceil_log2(self._prime) + 1

    @property
    def prime(self) -> int:
        return self._prime

    @property
    def bits_per_trial(self) -> int:
        return self._bits_per_trial

    def test(
        self,
        set_a,
        set_b,
        trials: int,
        rng: random.Random,
        channel: Channel | None = None,
    ) -> bool:
        """Report whether the two sets appear equal after ``trials`` trials.

        Returns True ("equal") only if every trial's fingerprints matched.
        False is always correct (a mismatching evaluation is a proof of
        inequality); True may be wrong with probability ≤ (N/p)^trials.
        """
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        elements_a = list(set_a)
        elements_b = list(set_b)
        if set(elements_a) == set(elements_b):
            # Equal sets never early-exit: every trial runs and matches,
            # so the verdict carries no randomness.  Charge the trials but
            # skip the draws.  Set equality is a pure function of protocol
            # state, so every replay takes this branch at the same point
            # and the caller's private stream stays in step.
            matched, executed = True, trials
        else:
            matched, executed = self.run_trials(
                elements_a, elements_b, trials, rng
            )
        self.record(1, executed, channel)
        return matched

    def run_trials(
        self, elements_a, elements_b, trials: int, rng: random.Random
    ) -> tuple[bool, int]:
        """Fingerprint trials until one mismatches or ``trials`` have run.

        Each trial draws one uniform point of ``F_p`` from ``rng``.
        Returns ``(matched, executed)``.  ``P_S(x) = Σ_{i∈S} x^i`` is
        additive, so labels common to both sides cancel exactly in
        ``F_p``: callers may pass only the labels where the sets differ
        and get the verdict the full sets would give.
        """
        prime = self._prime
        for executed in range(1, trials + 1):
            point = rng.randrange(prime)
            if (eval_set_polynomial(elements_a, point, prime)
                    != eval_set_polynomial(elements_b, point, prime)):
                return False, executed
        return True, trials

    def record(
        self, calls: int, trials: int, channel: Channel | None = None
    ) -> None:
        """Meter ``calls`` EQTest invocations that ran ``trials`` trials in
        all, charged to ``channel`` as one ``eqtest`` message."""
        bits = trials * self._bits_per_trial
        self.stats.calls += calls
        self.stats.trials += trials
        self.stats.bits += bits
        if channel is not None:
            channel.charge_bits(bits, label="eqtest")
