"""The traced run: per-layer metrics and the wrapper self-check.

The run spends half its time untraced and half traced on the same kind
of ops; ``trace.overhead_frac`` is the traced median latency of the
workload's primary op over the untraced one, minus one, each op's
latency scaled by the host-speed probes taken around it.
``host.probe_ms`` is the median probe of the traced half
(``perfbench/hostspeed.py``); the layer times are as measured.

``calls``, ``self_ms``/``self_s``, ``uops``, ``dispatches`` and
``chains_made`` are means per traced op.  ``cacheserver.pull.count``,
``.retries``, ``.fallbacks``, ``.requests_shed``, ``.lease_busy`` and
``.errors`` are totals over the traced half; ``persist.fsck.*`` and
``persist.meta.*`` describe the whole store after the run.  Ratios carry
their base in the name.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from perfbench.tracing import Tracer

#: (op kind or "*", layer) pairs whose calls must be nonzero / zero on
#: each workload.  "*" means summed over every op kind.
EXPECT: Dict[str, Dict[str, Tuple[Tuple[str, str], ...]]] = {
    "cold_boot": {
        "nonzero": (("cold", "x86lite.decode"), ("cold", "translator.bbt"),
                    ("cold", "translator.sbt"), ("cold", "translator.crack"),
                    ("cold", "translator.fusion"), ("cold", "fusible.run"),
                    ("cold", "vmm.run")),
        "zero": (("*", "verify"), ("*", "persist.loader"),
                 ("*", "persist.capture"), ("*", "persist.remote.pull"),
                 ("*", "persist.remote.push"), ("*", "timing.simulate"),
                 ("*", "workloads.generate")),
    },
    "shared_cache": {
        "nonzero": (("warm", "verify"), ("warm", "persist.loader"),
                    ("warm", "persist.remote.pull"), ("warm", "fusible.run"),
                    ("warm", "vmm.run"), ("warm", "x86lite.decode"),
                    ("publish", "translator.bbt"),
                    ("publish", "persist.capture"),
                    ("publish", "persist.remote.push")),
        "zero": (("warm", "translator.bbt"), ("warm", "persist.capture"),
                 ("warm", "persist.remote.push"), ("*", "timing.simulate"),
                 ("*", "workloads.generate")),
    },
    "figures": {
        "nonzero": (("app", "workloads.generate"),
                    ("app", "timing.simulate")),
        "zero": (("*", "x86lite.decode"), ("*", "translator.bbt"),
                 ("*", "translator.sbt"), ("*", "fusible.run"),
                 ("*", "vmm.run"), ("*", "verify"), ("*", "persist.loader"),
                 ("*", "persist.remote.pull")),
    },
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _merged(table, kinds) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for kind in kinds:
        for name, entry in table.get(kind, {}).items():
            target = merged.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0.0) + value
    return merged


def self_check(name: str, table) -> List[str]:
    problems = []
    for expectation, pairs in EXPECT[name].items():
        for kind, layer in pairs:
            kinds = list(table) if kind == "*" else [kind]
            calls = _merged(table, kinds).get(layer, {}).get("calls", 0)
            if (expectation == "nonzero") != (calls > 0):
                problems.append(f"{layer}.calls on {kind} ops is {calls:g}, "
                                f"expected {expectation}")
    return problems


def layer_metrics(workload, results, table, server_delta, fsck,
                  lost_updates: int) -> Dict[str, float]:
    ops = max(1, len(results))
    spans = _merged(table, list(table))

    def calls(layer: str) -> float:
        return spans.get(layer, {}).get("calls", 0.0)

    def self_s(layer: str) -> float:
        return spans.get(layer, {}).get("self_s", 0.0)

    def total(counter: str) -> float:
        return sum(r.counters.get(counter, 0.0) for r in results)

    pulls = calls("persist.remote.pull")
    pushes = calls("persist.remote.push")
    pull_ms = _ratio(spans.get("persist.remote.pull", {}).get("total_s", 0.0)
                     * 1e3, pulls)
    requests = total("requests")
    values = {
        "x86lite.decode.calls": calls("x86lite.decode") / ops,
        "x86lite.decode.self_ms": self_s("x86lite.decode") * 1e3 / ops,
        "translator.bbt.calls": calls("translator.bbt") / ops,
        "translator.bbt.self_ms": self_s("translator.bbt") * 1e3 / ops,
        "translator.bbt.us_per_instr": _ratio(
            self_s("translator.bbt") * 1e6, total("bbt_instrs")),
        "translator.sbt.calls": calls("translator.sbt") / ops,
        "translator.sbt.self_ms": self_s("translator.sbt") * 1e3 / ops,
        "translator.crack.self_ms": self_s("translator.crack") * 1e3 / ops,
        "translator.fusion.self_ms": self_s("translator.fusion") * 1e3 / ops,
        "fusible.run.calls": calls("fusible.run") / ops,
        "fusible.run.self_ms": self_s("fusible.run") * 1e3 / ops,
        "fusible.uops": total("uops") / ops,
        "fusible.ns_per_uop": _ratio(self_s("fusible.run") * 1e9,
                                     total("uops")),
        "vmm.dispatches": total("dispatches") / ops,
        "vmm.run.self_ms": self_s("vmm.run") * 1e3 / ops,
        "vmm.chains_made": total("chains_made") / ops,
        "verify.calls": calls("verify") / ops,
        "verify.self_ms": self_s("verify") * 1e3 / ops,
        "persist.loader.self_ms": self_s("persist.loader") * 1e3 / ops,
        "persist.loader.yield": _ratio(total("loaded"), total("attempted")),
        "persist.capture.self_ms": self_s("persist.capture") * 1e3 / ops,
        "persist.remote.pull_ms": pull_ms,
        "persist.remote.push_ms": _ratio(
            spans.get("persist.remote.push", {}).get("total_s", 0.0) * 1e3,
            pushes),
        "persist.remote.retries": total("retries"),
        "persist.remote.fallbacks": total("fallbacks"),
        "persist.remote.amplification": _ratio(
            requests + total("retries"), requests),
        "persist.fsck.unindexed_objects":
            float(fsck.unindexed_objects) if fsck is not None else 0.0,
        "persist.meta.lost_updates": float(lost_updates),
        "workloads.generate.self_s": self_s("workloads.generate") / ops,
        "timing.simulate.calls": calls("timing.simulate") / ops,
        "timing.simulate.self_s": self_s("timing.simulate") / ops,
        "timing.simulate.us_per_minstr": _ratio(
            self_s("timing.simulate") * 1e6,
            sum(r.instrs for r in results) / 1e6)
        if workload.name == "figures" else 0.0,
        "obs.ledger.charge.calls": total("ledger_charges") / ops,
    }
    values.update(server_metrics(server_delta, pull_ms, pulls,
                                 spans.get("bytes:persist.remote.pull",
                                           {}).get("bytes", 0.0)))
    return values


def server_metrics(delta, client_pull_ms: float, pulls: float,
                   pull_bytes: float) -> Dict[str, float]:
    """``cacheserver.*`` from the diff of two wire ``stats`` answers."""
    if delta is None:
        delta = {"requests": {}, "latency": {}}
    requests = delta["requests"]
    latency = delta["latency"]
    service_pull = _ratio(latency.get("pull", 0.0),
                          requests.get("pull", 0))
    return {
        "cacheserver.pull.count": float(requests.get("pull", 0)),
        "cacheserver.pull.service_ms": service_pull,
        "cacheserver.pull.wait_ms": client_pull_ms - service_pull
        if requests.get("pull") else 0.0,
        "cacheserver.push.service_ms": _ratio(latency.get("push", 0.0),
                                              requests.get("push", 0)),
        "cacheserver.records_served": _ratio(
            delta.get("records_served", 0), requests.get("pull", 0)),
        "cacheserver.dedup_ratio": _ratio(delta.get("objects_deduped", 0),
                                          delta.get("records_received", 0)),
        "cacheserver.requests_shed": float(delta.get("requests_shed", 0)),
        "cacheserver.lease_busy": float(delta.get("lease_busy", 0)),
        "cacheserver.errors": float(delta.get("errors", 0)),
        "cacheserver.protocol.bytes_per_pull": _ratio(pull_bytes, pulls),
    }


def stats_delta(before: Dict, after: Dict) -> Dict:
    """Counter differences plus total service ms per op."""
    delta = {key: after[key] - before[key]
             for key in ("records_served", "records_received",
                         "objects_deduped", "requests_shed", "lease_busy",
                         "errors")}
    delta["requests"] = {op: count - before["requests"].get(op, 0)
                         for op, count in after["requests"].items()}

    def total_ms(stats, op):
        entry = stats["latency"].get(op)
        return entry["mean"] * entry["count"] if entry else 0.0
    delta["latency"] = {op: total_ms(after, op) - total_ms(before, op)
                        for op in after["latency"]}
    return delta


def share_report(name: str, table) -> List[str]:
    """Self time of each layer as a share of its op kind's time."""
    lines = []
    for kind in sorted(table):
        op_entry = table[kind].get("op", {})
        op_total = op_entry.get("total_s", 0.0)
        if not op_total:
            continue
        parts = sorted(((entry.get("self_s", 0.0), layer)
                        for layer, entry in table[kind].items()
                        if "self_s" in entry), reverse=True)
        share = ", ".join(f"{layer} {100 * value / op_total:.1f}%"
                          for value, layer in parts)
        lines.append(f"{name:<13s} share of {kind} op time "
                     f"({op_entry['calls']:.0f} ops, "
                     f"{1e3 * op_total / op_entry['calls']:.1f} ms/op): "
                     f"{share}")
    return lines


def traced_run(workload, seconds: int, run_phase):
    """Untraced half, then traced half; returns the traced results, the
    per-layer metrics, report lines and self-check problems."""
    base, _, cursor = run_phase(workload, 0, seconds / 2)
    shared = workload.name == "shared_cache"
    before = workload.server_stats() if shared else None
    tracer = Tracer()
    tracer.install()
    try:
        results, _, _ = run_phase(workload, 0 if workload.replay else cursor,
                                  seconds / 2, tracer)
        replaced = tracer.installed_ok()
    finally:
        tracer.uninstall()
    delta = fsck = None
    lost_updates = 0
    if shared:
        delta = stats_delta(before, workload.server_stats())
        workload.close()
        fsck, lost_updates = workload.fsck(len(base) + len(results))
    table = tracer.layer_totals()
    problems = [f"patch at {site} was replaced during the run"
                for site in replaced]
    problems += self_check(workload.name, table)
    values = layer_metrics(workload, results, table, delta, fsck,
                           lost_updates)

    def primary(rows):
        return statistics.median(r.seconds / r.probe for r in rows
                                 if r.kind == workload.primary)
    values["trace.overhead_frac"] = primary(results) / primary(base) - 1.0
    values["host.probe_ms"] = statistics.median(r.probe
                                                for r in results) * 1e3
    metrics = {key: {"value": value, "unit": _unit(key)}
               for key, value in values.items()}
    report = [f"{workload.name:<13s} {key:<38s} {value:14.4f} {_unit(key)}"
              for key, value in values.items()]
    report += share_report(workload.name, table)
    return base + results, metrics, report, problems


def _unit(key: str) -> str:
    for suffix, unit in ((".self_ms", "ms"), ("_ms", "ms"), (".self_s", "s"),
                         (".us_per_instr", "us"), (".ns_per_uop", "ns"),
                         (".us_per_minstr", "us"), ("_frac", "ratio"),
                         (".yield", "ratio"), ("_ratio", "ratio"),
                         (".amplification", "ratio"),
                         (".bytes_per_pull", "bytes")):
        if key.endswith(suffix):
            return unit
    return "count"
