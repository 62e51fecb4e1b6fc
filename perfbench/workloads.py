"""The benchmark's three workloads, their inputs and their oracles.

* ``cold_boot`` -- the paper's memory-startup scenario: one client boots
  generated programs on fresh VMs with no repository.
* ``shared_cache`` -- the server-consolidation scenario: two clients boot
  through one ``repro serve`` process; about 3 in 4 ops warm-boot a gold
  image, 1 in 4 boot a fresh image and publish its translations.
* ``figures`` -- batch regeneration of one Winstone app's Table 2 startup
  simulations per op; the no-change control for functional-VM work.

Inputs are made at set-up from the workload seed only.  Ops run in
*rounds*: a round holds one input per footprint stratum (or one per
Winstone app), so every whole number of rounds has the same input
distribution whatever the seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import ref_superscalar, vm_be, vm_fe, vm_soft
from repro.core.vm import CoDesignedVM
from repro.isa.x86lite.assembler import assemble
from repro.memory.loader import Image
from repro.persist import RemoteRepository, TranslationRepository
from repro.timing import startup_sim
from repro.timing.scenarios import Scenario
from repro.workloads import trace as trace_mod
from repro.workloads.winstone import winstone_app, winstone_suite

from perfbench import hostspeed, programs

#: Hot threshold of every boot (the smoke gates and the fleet use 50).
HOT_THRESHOLD = 50

#: Simulated x86 instructions per Winstone trace in ``figures``.
FIGURE_DYN_INSTRS = 20_000_000
#: ``figures`` traces use ``seed % FIGURE_TRACE_SEEDS`` so every seed
#: lands on a pinned digest.
FIGURE_TRACE_SEEDS = 8
DIGEST_FILE = Path(__file__).resolve().parent / "figure_digests.json"
#: App regenerated at ``figures`` set-up to prove the pins hold here;
#: the smallest, so set-up stays short and does not depend on the seed.
ORACLE_CHECK_APP = "Winzip"


@dataclass
class Boot:
    """One assembled program plus its reference-interpreter outcome."""

    name: str
    image: Image
    #: (exit code, output, registers, flags) under ``ref_superscalar``
    expected: Tuple
    #: architected instructions the reference run executed
    guest_instrs: int


@dataclass
class OpResult:
    """One op: which kind, how long it took and what went wrong."""

    index: int
    kind: str
    seconds: float
    failure: str = ""
    #: guest (or simulated) x86 instructions the op executed
    instrs: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    #: host-speed probe (thread CPU seconds): the mean of the probes
    #: taken just before and just after the op, unless the op set it
    probe: float = 0.0


def arch_state(vm: CoDesignedVM, report) -> Tuple:
    state = vm.state
    return (report.exit_code, tuple(report.output), tuple(state.regs),
            (state.cf, state.zf, state.sf, state.of))


def make_boot(seed: int, blocks: int, name: str) -> Boot:
    image = assemble(programs.generate(seed, blocks))
    vm = CoDesignedVM(ref_superscalar())
    vm.load(image)
    report = vm.run()
    return Boot(name=name, image=image,
                expected=arch_state(vm, report),
                guest_instrs=report.instructions_interpreted)


def make_boots(rng: random.Random, rounds: int, per_round: int,
               prefix: str) -> List[Boot]:
    sizes = programs.footprints(rounds, per_round, rng)
    return [make_boot(rng.getrandbits(32), blocks, f"{prefix}{index}")
            for index, blocks in enumerate(sizes)]


def boot_counters(vm: CoDesignedVM, report) -> Dict[str, float]:
    return {"uops": report.uops_executed,
            "bbt_instrs": report.bbt_instrs_translated,
            "dispatches": vm.runtime.dispatches,
            "chains_made": report.chains_made,
            "ledger_charges": vm.ledger.charges}


def check_boot(vm: CoDesignedVM, report, boot: Boot) -> str:
    actual = arch_state(vm, report)
    if actual == boot.expected:
        return ""
    labels = ("exit code", "output", "registers", "flags")
    wrong = [label for label, got, want
             in zip(labels, actual, boot.expected) if got != want]
    return f"{boot.name}: {', '.join(wrong)} differ from the reference"


class Workload:
    """One traffic mix: set-up, op sequence and per-kind oracle."""

    name = ""
    clients = 1
    #: ops per round (one input per stratum)
    per_round = 10
    #: op kind whose latency is the workload's ``p50_ms``
    primary = ""
    #: whether a traced phase replays the op sequence from its start
    #: (False where ops change shared state and must not repeat)
    replay = True

    def setup(self, seed: int, workdir: Path, seconds: int) -> None:
        raise NotImplementedError

    def capacity(self) -> Optional[int]:
        """Ops the set-up inputs allow, None for unbounded."""
        return None

    def kind_of(self, index: int) -> str:
        return self.primary

    def warmup(self) -> None:
        """Untimed ops before timing starts."""

    def op(self, index: int, client: int) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and connections."""


class ColdBoot(Workload):
    """Fresh VM, no repository: ``load`` + ``run`` on a generated image.

    The pool holds four rounds of eleven programs, one per footprint
    stratum; ops cycle through it.  An odd stratum count puts the
    median inside one stratum rather than on the edge between two.
    Each op builds a new :class:`CoDesignedVM`, so no translation
    survives from one op to the next even when an image comes round
    again.
    """

    name = "cold_boot"
    primary = "cold"
    per_round = 11
    pool_rounds = 4

    def setup(self, seed: int, workdir: Path, seconds: int) -> None:
        rng = random.Random(f"cold_boot:{seed}")
        self.boots = make_boots(rng, self.pool_rounds, self.per_round, "c")

    def warmup(self) -> None:
        for index in range(2):
            self.op(index, 0)

    def op(self, index: int, client: int) -> OpResult:
        boot = self.boots[index % len(self.boots)]
        start = time.perf_counter()
        vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
        vm.load(boot.image)
        report = vm.run()
        seconds = time.perf_counter() - start
        return OpResult(index, "cold", seconds, check_boot(vm, report, boot),
                        boot.guest_instrs, boot_counters(vm, report))


class ServerProcess:
    """A ``repro serve`` subprocess over one cache directory."""

    def __init__(self, root: Path, cache_dir: Path, log_path: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(cache_dir), "--max-seconds", "900"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        banner = self.proc.stdout.readline()
        if " on " not in banner:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.address = banner.rsplit(" on ", 1)[1].strip()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


class SharedCache(Workload):
    """Two clients booting through one shared cache server.

    A round is fourteen ops: each of eleven gold images warm-booted once
    and three fresh images booted cold and published, in a seeded order.
    With seven gold images the warm latencies formed one cluster per
    image, the median fell in the gap between two clusters and moved by
    a sixth between runs of one seed; eleven fill the gaps.
    Fresh images are never repeated, so the pool is sized for rounds
    of two seconds, about twice today's pace; a run that exhausts it
    stops there and warns.
    """

    name = "shared_cache"
    clients = 2
    per_round = 14
    primary = "warm"
    replay = False
    gold_count = 11
    fresh_per_round = 3

    def setup(self, seed: int, workdir: Path, seconds: int) -> None:
        rng = random.Random(f"shared_cache:{seed}")
        rounds = max(4, seconds // 2)
        self.gold = make_boots(rng, 1, self.gold_count, "g")
        self.fresh = make_boots(rng, rounds, self.fresh_per_round, "f")
        self.plan: List[Tuple[str, int]] = []
        for round_index in range(rounds):
            ops = [("warm", index) for index in range(self.gold_count)]
            ops += [("publish", round_index * self.fresh_per_round + index)
                    for index in range(self.fresh_per_round)]
            rng.shuffle(ops)
            self.plan.extend(ops)
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
        self.server = ServerProcess(
            Path(__file__).resolve().parent.parent, self.cache_dir,
            self.cache_dir.with_suffix(".log"))
        self.remotes = [RemoteRepository(self.server.address)
                        for _ in range(self.clients)]
        for boot in self.gold:
            vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
            vm.load(boot.image)
            report = vm.run()
            failure = check_boot(vm, report, boot)
            if failure:
                raise RuntimeError(f"gold set-up failed: {failure}")
            if not vm.save_translations(self.remotes[0]):
                raise RuntimeError(f"gold push of {boot.name} wrote nothing")

    def capacity(self) -> Optional[int]:
        return len(self.plan)

    def kind_of(self, index: int) -> str:
        return self.plan[index][0]

    def warmup(self) -> None:
        for client in range(self.clients):
            self._boot("warm", self.gold[client], client, -1)

    def op(self, index: int, client: int) -> OpResult:
        kind, which = self.plan[index]
        boot = self.gold[which] if kind == "warm" else self.fresh[which]
        return self._boot(kind, boot, client, index)

    def _boot(self, kind: str, boot: Boot, client: int,
              index: int) -> OpResult:
        remote = self.remotes[client]
        stats = remote.remote_stats
        before = (stats.fallbacks, stats.retries, stats.requests)
        start = time.perf_counter()
        vm = CoDesignedVM(vm_soft(), hot_threshold=HOT_THRESHOLD)
        vm.load(boot.image)
        load = vm.warm_start(remote)
        report = vm.run()
        written = vm.save_translations(remote) if kind == "publish" else 0
        seconds = time.perf_counter() - start
        problems = [check_boot(vm, report, boot)]
        if stats.fallbacks != before[0]:
            problems.append("shared cache degraded to cold")
        if kind == "warm" and (load.dropped or not load.loaded):
            problems.append(f"warm start loaded {load.loaded}/"
                            f"{load.attempted}, dropped {load.dropped}")
        if kind == "publish" and (load.attempted or not written):
            problems.append(f"fresh image hit {load.attempted} record(s), "
                            f"published {written}")
        counters = boot_counters(vm, report)
        counters.update(loaded=load.loaded, attempted=load.attempted,
                        fallbacks=stats.fallbacks - before[0],
                        retries=stats.retries - before[1],
                        requests=stats.requests - before[2])
        return OpResult(index, kind, seconds,
                        "; ".join(problem for problem in problems
                                  if problem),
                        boot.guest_instrs, counters)

    def server_stats(self) -> Dict:
        """The server's wire ``stats`` answer (request counters)."""
        probe = RemoteRepository(self.server.address)
        try:
            answer = probe.server_stats()
        finally:
            probe.close()
        if answer is None:
            raise RuntimeError("server did not answer the stats op")
        return answer["server"]

    def close(self) -> None:
        for remote in getattr(self, "remotes", ()):
            remote.close()
        self.remotes = []
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    def fsck(self, ops: int):
        """Check the store after the server stopped, read-only.

        Returns the fsck report and the number of lost ``meta.json``
        updates.  Every gold push, warm-up boot and op updates
        ``meta.json`` once (a warm boot's pull stamps access times, a
        publish saves; a miss writes nothing), and every update bumps
        its clock, so clock ticks short of ``ops`` plus set-up and
        warm-up writes were overwritten by a concurrent writer.
        """
        repository = TranslationRepository(self.cache_dir)
        report = repository.fsck(repair=False)
        expected = len(self.gold) + self.clients + ops
        return report, expected - repository.stats().clock


#: Table 2's four machine configurations.
TABLE2 = (ref_superscalar, vm_soft, vm_be, vm_fe)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def figure_digest(results) -> str:
    """Digest of the simulated statistics of one app's five runs."""
    rows = []
    for result in results:
        rows.append({
            "config": result.config_name,
            "scenario": result.scenario.value,
            "total_cycles": _fmt(result.total_cycles),
            "total_instrs": _fmt(result.total_instrs),
            "breakdown": {key: _fmt(value)
                          for key, value in result.breakdown.items()},
            "ledger": {key: _fmt(value)
                       for key, value in result.ledger.totals().items()},
            "m_bbt_instrs": result.m_bbt_instrs,
            "m_sbt_instrs": result.m_sbt_instrs,
            "promotions": result.promotions,
            "sbt_instrs_executed": _fmt(result.sbt_instrs_executed),
            "cold_miss_cycles": _fmt(result.cold_miss_cycles),
            "persist_loaded_instrs": result.persist_loaded_instrs,
        })
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def regenerate_app(app, trace_seed: int, lap=lambda: None):
    """One op's work: the app's trace, then Table 2 + persistent warm.

    Both calls go through their module attribute, where the traced run
    wraps them.  ``lap()`` is called after each of the six steps.
    """
    workload = trace_mod.generate_workload(
        app, dyn_instrs=FIGURE_DYN_INSTRS, seed=trace_seed)
    lap()
    runs = [(config(), Scenario.MEMORY_STARTUP) for config in TABLE2]
    runs.append((vm_soft(), Scenario.PERSISTENT_WARM))
    results = []
    for config, scenario in runs:
        results.append(startup_sim.simulate_startup(config, workload,
                                                    scenario))
        lap()
    return results


def digest_key(app_name: str, trace_seed: int) -> str:
    return f"{app_name}/{trace_seed}"


class Figures(Workload):
    """Regenerate one Winstone app's startup figures per op."""

    name = "figures"
    primary = "app"

    def setup(self, seed: int, workdir: Path, seconds: int) -> None:
        rng = random.Random(f"figures:{seed}")
        pinned = json.loads(DIGEST_FILE.read_text())
        if pinned["dyn_instrs"] != FIGURE_DYN_INSTRS:
            raise RuntimeError("figure digests pinned at another length")
        self.trace_seed = seed % FIGURE_TRACE_SEEDS
        self.order = winstone_suite()
        rng.shuffle(self.order)
        self.digests = {app.name: pinned["digests"][
            digest_key(app.name, self.trace_seed)] for app in self.order}
        # the oracle must hold on this host before anything is timed:
        # regenerate one fixed app (the smallest) against its pin
        check = winstone_app(ORACLE_CHECK_APP)
        if figure_digest(regenerate_app(check, self.trace_seed)) != \
                self.digests[check.name]:
            raise RuntimeError(f"{check.name} does not reproduce its pinned "
                               f"digest; the figures oracle is unusable")

    def op(self, index: int, client: int) -> OpResult:
        app = self.order[index % len(self.order)]
        # an op runs for over a second, through several changes of host
        # speed, so each of its steps is scaled by its own probes
        clock = hostspeed.StepClock()
        results = regenerate_app(app, self.trace_seed, clock.lap)
        problems = [f"{result.config_name}/{result.scenario.value} ledger "
                    f"not conserved"
                    for result in results if not result.conserved]
        if figure_digest(results) != self.digests[app.name]:
            problems.append(f"{app.name} statistics differ from the "
                            f"pinned digest")
        return OpResult(index, "app", clock.measured, "; ".join(problems),
                        sum(result.total_instrs for result in results),
                        {"ledger_charges": sum(result.ledger.charges
                                               for result in results)},
                        clock.probe())


WORKLOADS = {workload.name: workload
             for workload in (ColdBoot, SharedCache, Figures)}
