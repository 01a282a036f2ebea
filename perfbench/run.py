"""Repo benchmark: four user-path workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload expander-blindmatch --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` reports the end-to-end metrics of untraced runs; ``--trace
1`` adds one traced run and reports the per-layer metrics.  Every run's
output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any check failed.  ``--pin`` recomputes the pinned outputs.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = Path(__file__).resolve().parent / "pins.json"

#: End-to-end metrics (reported by every workload with --trace 0).
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

#: Iterations of the reference job, and its wall seconds on the reference
#: host (2 vCPUs).  Times are reported in reference-host seconds: wall
#: seconds x REFERENCE_SECONDS / the reference job's median time in the run.
REFERENCE_LOOPS = 400_000
REFERENCE_SECONDS = 0.060


def _bootstrap() -> None:
    """Import the program from this checkout's ``src`` or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    import networkx
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        rev = done.stdout.strip() or rev
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "nproc": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "git_rev": rev,
        "src_sha256": sources.hexdigest()[:16],
        "machine": platform.machine(),
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (VmHWM) for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_kb() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@contextmanager
def cpus(pin_one: bool):
    """Run the block on one CPU when ``pin_one`` (threads started inside
    inherit it), then restore the process's CPU set."""
    allowed = os.sched_getaffinity(0) if pin_one else None
    if allowed:
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        if allowed:
            os.sched_setaffinity(0, allowed)


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python job that never touches the program,
    run once on each CPU this process may use (their mean).

    It runs after every sample, and the run's times are scaled by how fast
    it ran (see :func:`measure`).
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            started = perf_counter()
            total, table = 0, {}
            for i in range(REFERENCE_LOOPS):
                total += i * i % 7
                table[i & 255] = total
            times.append(perf_counter() - started)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def measure(workload, seed: int, seconds: float, trace: bool,
            pins: dict) -> dict:
    """Measure one workload; return its metrics, counts and problems.

    ``seconds`` sets the number of samples (``seconds /
    sample_seconds``, half of it when tracing, at least one), taken from
    the seed's slots in turn, so two versions of the program always do
    the same work.
    """
    from tracing import Tracer
    from workloads import PER_LAYER

    slots = workload.slots_for(seed)
    wl_pins = pins.get(workload.name)
    budget = seconds / 2 if trace else seconds
    count = max(1, round(budget / workload.sample_seconds))
    samples: dict[int, list] = {slot: [] for slot in slots}
    problems: list[str] = []
    attempted = failed = 0

    if workload.pinned and wl_pins is None:
        problems.append(f"no pinned outputs in {PINS.name}")

    def keep(sample, pins=wl_pins) -> None:
        nonlocal attempted, failed
        wrong = workload.check(sample, pins)
        problems.extend(sample.problems + wrong)
        attempted += sample.attempted
        # A wrong output makes every operation of the sample suspect.
        failed += sample.attempted if wrong else sample.failed

    references: list[float] = []

    def timed(slot: int, tracer=None):
        """One sample, then one reference timing.  The previous sample's
        garbage is collected before, not inside, it."""
        gc.collect()
        sample = workload.measure(slot, tracer)
        references.append(reference_seconds())
        return sample

    reset_peak_rss()
    if workload.warmup:
        workload.measure(slots[0])
    references.append(reference_seconds())
    for index in range(count):
        slot = slots[index % len(slots)]
        sample = timed(slot)
        keep(sample)
        samples[slot].append(sample)
        if index == min(count, len(slots)) - 1:
            # Later samples repeat the same inputs; reading the peak here
            # keeps it independent of the sample count.
            peak_kb = peak_rss_kb() + workload.children_peak_kb()
    slots = [slot for slot in slots if samples[slot]]

    def slot_mean(field: str) -> float:
        """Mean over the slots of each slot's median ``field``."""
        return statistics.fmean(
            statistics.median(getattr(s, field) for s in samples[slot])
            for slot in slots)

    # The host's speed drifts by 10-40% over minutes; the reference job
    # follows it, and its median over the run scales the run's times.
    scale = REFERENCE_SECONDS / statistics.median(references)
    wall = {"setup_s": slot_mean("setup_s"), "run_s": slot_mean("run_s")}
    result = {"slots": slots, "samples": count, "scale": scale,
              "wall_setup_s": wall["setup_s"], "wall_run_s": wall["run_s"]}
    metrics = {
        "setup_s": scale * wall["setup_s"],
        "run_s": scale * wall["run_s"],
        "peak_rss_mb": peak_kb / 1024,
    }
    if trace:
        slot = slots[0]
        tracer = Tracer()
        with tracer.wrapped():
            traced = timed(slot, tracer)
        keep(traced, pins=None)
        if not workload.same_output(traced, samples[slot][0]):
            problems.append(f"slot {slot}: traced output differs")
            failed += traced.attempted
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(workload.layers(
            tracer, traced, [s for slot in slots for s in samples[slot]]))
        metrics["telemetry.overhead_pct"] = 100.0 * (
            traced.run_s / statistics.median(s.run_s for s in samples[slot])
            - 1.0)
        result["spans"] = tracer
        result["traced_run_s"] = traced.run_s
    result.update(metrics=metrics, attempted=attempted, failed=failed,
                  problems=problems)
    return result


def pin(workload) -> dict:
    """Recompute ``workload``'s pinned output for every slot."""
    pinned = {}
    for slot in range(workload.slots):
        sample = workload.measure(slot)
        if sample.problems:
            raise SystemExit(f"cannot pin {workload.name}: {sample.problems}")
        pinned[str(slot)] = sample.output
        print(f"pinned {workload.name} slot {slot}: {sample.output}",
              flush=True)
    return pinned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="recompute the pinned outputs and exit")
    args = parser.parse_args(argv)

    _bootstrap()
    from workloads import PER_LAYER, all_workloads

    jobs = min(2, available_cpus())
    workloads = all_workloads(jobs)
    names = list(workloads) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{sorted(workloads)} or 'all'")

    if args.pin:
        pins = load_pins()
        for name in names:
            if workloads[name].pinned:
                pins[name] = pin(workloads[name])
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0

    pins = load_pins()
    units = {**END_TO_END, **PER_LAYER}
    combined: dict = {}
    correct = True
    attempted = failed = 0
    results = {}
    for name in names:
        with cpus(workloads[name].single_cpu):
            result = measure(workloads[name], args.seed, args.seconds,
                             bool(args.trace), pins)
        for problem in result["problems"]:
            print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
        correct = correct and not result["problems"] and not result["failed"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            print(f"{name:22s} {metric:32s} {value:14.6g} {units[metric]}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            combined[key] = {"value": value, "unit": units[metric]}
        results[name] = result

    # Only now: `git rev-parse` is a child process, and the sweep's peak
    # RSS reads the largest child's.
    env = environment()
    print(json.dumps({"env": env, "jobs": jobs}, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    for name, result in results.items():
        tracer = result.pop("spans", None)
        stem = f"{name}.trace{args.trace}"
        if tracer is not None:
            tracer.write(OUT / f"{stem}.spans.jsonl",
                         {"workload": name, "seed": args.seed, "env": env})
            for layer, seconds in tracer.layer_self_seconds().items():
                print(f"{name:22s} self time {layer:22s} {seconds:10.4f} s")
        (OUT / f"{stem}.json").write_text(json.dumps(
            {"workload": name, "seed": args.seed, "env": env, **result},
            sort_keys=True, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
