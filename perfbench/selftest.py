"""Self-test of the benchmark harness (small inputs, ~10 s).

    python3 perfbench/selftest.py

Checks that the output checks can fail, that the tracing attributes time
to the right layer, that the benchmark's split-up engine construction
behaves exactly like ``run_gossip``, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._bootstrap()

from repro.core import run_gossip, uniform_instance  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ExpanderBlindMatch,
    MobilitySharedBit,
    PER_LAYER,
    SweepMixed,
    token_digest,
)


class SmallExpander(ExpanderBlindMatch):
    n = 200
    slots = 4
    per_seed = 2
    setup_repeats = 2


class SmallMobility(MobilitySharedBit):
    n = 200
    slots = 4
    per_seed = 1
    setup_repeats = 1


#: Seconds slept per ``csr_at`` call by the slowed graph below.
DELAY = 0.03


class SlowCsrMobility(SmallMobility):
    """The same workload with a delay injected into ``csr_at``."""

    def build_graph(self, slot: int):
        graph = super().build_graph(slot)
        fast = graph.csr_at

        def slow(round_index):
            time.sleep(DELAY)
            return fast(round_index)

        graph.csr_at = slow
        return graph


def traced_layers(workload, slot: int = 0) -> dict:
    tracer = Tracer()
    with tracer.wrapped():
        sample = workload.measure(slot, tracer)
    return workload.layers(tracer, sample, [])


class PinnedOutputCheck(unittest.TestCase):
    def setUp(self):
        self.workload = SmallExpander()
        self.pins = {str(slot): self.workload.measure(slot).output
                     for slot in range(self.workload.slots)}

    def test_right_pins_pass(self):
        result = run.measure(self.workload, seed=1, seconds=0, trace=False,
                             pins={self.workload.name: self.pins})
        self.assertEqual(result["problems"], [])
        self.assertEqual(result["failed"], 0)

    def test_wrong_pin_fails(self):
        wrong = dict(self.pins)
        slot = str(self.workload.slots_for(1)[0])
        rounds, token_hash = wrong[slot]
        wrong[slot] = [rounds + 1, token_hash]
        result = run.measure(self.workload, seed=1, seconds=0, trace=False,
                             pins={self.workload.name: wrong})
        self.assertTrue(any("pinned" in p for p in result["problems"]))

    def test_missing_pins_fail(self):
        result = run.measure(self.workload, seed=1, seconds=0, trace=False,
                             pins={})
        self.assertTrue(result["problems"])

    def test_traced_run_reports_every_metric(self):
        result = run.measure(self.workload, seed=1, seconds=0, trace=True,
                             pins={self.workload.name: self.pins})
        self.assertEqual(set(result["metrics"]), set(PER_LAYER))
        self.assertEqual(result["problems"], [])


class EngineMatchesRunGossip(unittest.TestCase):
    def test_same_rounds_and_tokens(self):
        for workload in (SmallExpander(), SmallMobility()):
            sample = workload.measure(3)
            instance = uniform_instance(workload.n, workload.k, seed=3)
            reference = run_gossip(workload.algorithm,
                                   workload.build_graph(3), instance, 3,
                                   workload.max_rounds)
            self.assertTrue(reference.solved)
            self.assertEqual(sample.output, [reference.rounds,
                                             token_digest(reference.nodes)])


class DelayAttribution(unittest.TestCase):
    def test_csr_at_delay_lands_in_graph_layer(self):
        base = traced_layers(SmallMobility())
        slow = traced_layers(SlowCsrMobility())
        injected = DELAY * slow["graphs.csr_at_calls"]
        self.assertGreater(injected, 0.1)
        self.assertGreater(slow["graphs.csr_at_s"] - base["graphs.csr_at_s"],
                           0.9 * injected)
        self.assertLess(abs(slow["sim.stage3_s"] - base["sim.stage3_s"]),
                        0.2 * injected)
        self.assertLess(
            abs(slow["sim.stages12_self_s"] - base["sim.stages12_self_s"]),
            0.2 * injected)


class SweepCellsSurviveTelemetry(unittest.TestCase):
    def test_traced_cells_equal_untraced(self):
        workload = SweepMixed(jobs=1)
        workload.n = 32
        untraced = workload.measure(0)
        tracer = Tracer()
        with tracer.wrapped():
            traced = workload.measure(0, tracer)
        self.assertEqual(untraced.problems, [])
        self.assertTrue(workload.same_output(traced, untraced))


class RefusesWithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        scratch = run.OUT / "selftest-bare"
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, scratch / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "expander-blindmatch", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        for line in done.stdout.splitlines():
            self.assertNotIn("correct", json.loads(line) if
                             line.startswith("{") else {})


if __name__ == "__main__":
    unittest.main()
