"""Host wall-clock benchmark of the co-designed VM.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_boot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs half
the time untraced and half with per-layer spans, reports the per-layer
metrics and fails if a layer counter that should be nonzero is zero or
one that should be zero is not.  The human-readable report goes first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process and prints every report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cold_boot", "shared_cache", "figures")
#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: host-speed probes taken before and after each set-up
SETUP_PROBES = 5


def percentile_tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run_phase(workload, start: int, seconds: float,
              tracer=None) -> Tuple[list, float, int]:
    """Closed loop: each client takes the next op once its last ends.

    Ops are taken in sequence order; after ``seconds`` the loop stops
    at the next round boundary, so every run measures whole rounds.
    Each client probes the host's speed on its own thread between its
    ops, so probe and op run on the same CPU; an op's probe is the mean
    of the probes just before and just after it.
    """
    from perfbench import hostspeed
    from perfbench.workloads import OpResult
    lock = threading.Lock()
    cursor = [start]
    results: List[OpResult] = []
    capacity = workload.capacity()
    deadline = time.perf_counter() + seconds

    def take() -> Optional[int]:
        with lock:
            index = cursor[0]
            if capacity is not None and index >= capacity:
                return None
            if (index - start) % workload.per_round == 0 and \
                    time.perf_counter() >= deadline:
                return None
            cursor[0] = index + 1
            return index

    def client(number: int) -> None:
        before = hostspeed.probe()
        while True:
            index = take()
            if index is None:
                return
            kind = workload.kind_of(index)
            try:
                if tracer is None:
                    result = workload.op(index, number)
                else:
                    with tracer.op(index, kind):
                        result = workload.op(index, number)
            except Exception:  # noqa: BLE001 - an op that raises is
                # a failed op, counted with its traceback, never dropped
                result = OpResult(index, kind, 0.0, traceback.format_exc())
            after = hostspeed.probe()
            result.probe = result.probe or (before + after) / 2
            before = after
            results.append(result)

    began = time.perf_counter()
    threads = [threading.Thread(target=client, args=(number,))
               for number in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    if capacity is not None and cursor[0] >= capacity:
        print(f"warning: {workload.name} used all {capacity} set-up "
              f"inputs before {seconds:.0f} s", file=sys.stderr)
    return results, elapsed, cursor[0]


def setup_workload(name: str, seed: int, workdir: Path, seconds: int):
    """Set the workload up several times; keep the last, report the
    median set-up time at reference host speed (each set-up scaled by
    the probes taken just before and after it)."""
    from perfbench import hostspeed
    from perfbench.workloads import WORKLOADS as CLASSES
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = CLASSES[name]()
        samples = hostspeed.probes(SETUP_PROBES)
        began = time.perf_counter()
        try:
            workload.setup(seed, workdir, seconds)
        except BaseException:
            workload.close()
            raise
        took = time.perf_counter() - began
        samples += hostspeed.probes(SETUP_PROBES)
        times.append(took * hostspeed.factor(samples))
    return workload, statistics.median(times)


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, results, elapsed: float,
               setup_s: float) -> Tuple[Dict, List[str]]:
    """The JSON metrics plus the report lines with the issue's names.

    Times and rates are at reference host speed (``perfbench/
    hostspeed.py``): each op's latency is scaled by the probes taken
    around it, and the run's length by the same scales weighted by op
    time.  The report also prints the measured p50 and the median
    probe.
    """
    from perfbench import hostspeed
    samples = [r.probe for r in results]
    scaled = [hostspeed.REFERENCE_S * r.seconds / r.probe for r in results]
    primary = [value for value, r in zip(scaled, results)
               if r.kind == workload.primary]
    wall_p50 = statistics.median(r.seconds for r in results
                                 if r.kind == workload.primary)
    tail, tail_q = percentile_tail(primary)
    p50 = statistics.median(primary)
    # the run's scale is each op's own, weighted by the op's time
    elapsed *= sum(scaled) / sum(r.seconds for r in results)
    failed = sum(1 for r in results if r.failure)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    instrs = sum(r.instrs for r in results)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(p50 * 1e3, "ms"),
        "ops_per_s": metric(len(results) / elapsed, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    n = len(primary)
    lines = [("setup_s", setup_s, "s", SETUP_REPEATS, "median")]
    if workload.name == "cold_boot":
        lines += [("cold_boot_p50_ms", p50 * 1e3, "ms", n, "p50"),
                  ("cold_boot_tail_ms", tail * 1e3, "ms", n,
                   f"p{tail_q:.0f}"),
                  ("boots_per_s", len(results) / elapsed, "1/s",
                   len(results), "")]
    elif workload.name == "shared_cache":
        publish = [hostspeed.REFERENCE_S * r.seconds / r.probe
                   for r in results if r.kind == "publish"]
        lines += [("warm_boot_p50_ms", p50 * 1e3, "ms", n, "p50"),
                  ("warm_boot_tail_ms", tail * 1e3, "ms", n,
                   f"p{tail_q:.0f}"),
                  ("publish_p50_ms", statistics.median(publish) * 1e3
                   if publish else math.nan, "ms", len(publish), "p50"),
                  ("boots_per_s", len(results) / elapsed, "1/s",
                   len(results), "")]
    else:
        lines += [("figure_app_p50_s", p50, "s", n, "p50"),
                  ("sim_minstr_per_s", instrs / 1e6 / elapsed,
                   "Minstr/s", len(results), "")]
    lines += [("failed_frac", failed / max(1, len(results)), "",
               len(results), ""),
              ("peak_rss_mb", rss_mb, "MB", 1, ""),
              ("measured_p50_ms", wall_p50 * 1e3, "ms", n, "wall clock"),
              ("host_probe_ms", statistics.median(samples) * 1e3, "ms",
               len(samples), "median")]
    report = [f"{workload.name:<13s} {label:<20s} {value:12.4f} "
              f"{unit:<9s} n={count:<5d} {note}".rstrip()
              for label, value, unit, count, note in lines]
    return metrics, report


def run_one(args, workdir: Path) -> Dict:
    from perfbench import layers
    workload, setup_s = setup_workload(args.workload, args.seed, workdir,
                                       args.seconds)
    try:
        workload.warmup()
        if not args.trace:
            results, elapsed, _ = run_phase(workload, 0, args.seconds)
            metrics, report = end_to_end(workload, results, elapsed,
                                         setup_s)
            problems: List[str] = []
        else:
            results, metrics, report, problems = layers.traced_run(
                workload, args.seconds, run_phase)
    finally:
        workload.close()
    failures = [r for r in results if r.failure]
    for result in failures[:10]:
        print(f"FAILED op {result.index} ({result.kind}): "
              f"{result.failure}")
    for problem in problems:
        print(f"SELF-CHECK: {problem}")
    for line in report:
        print(line)
    return {"correct": not failures and not problems,
            "attempted": len(results), "failed": len(failures),
            "metrics": metrics}


def run_all(args) -> Dict:
    """Each workload in its own process, so peak RSS stays its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit(f"{name} printed no result "
                             f"(exit {child.returncode})")
        summary["correct"] &= result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        result = run_all(args)
    else:
        workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result = run_one(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                workdir.parent.rmdir()
            except OSError:
                pass    # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
