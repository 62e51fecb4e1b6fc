"""Event-driven startup simulator (Figs. 2, 8, 9, 10, 11).

Simulates one machine configuration running one workload under a startup
scenario, at basic-block-region granularity and full paper scale.  All
startup *events* are discrete and exact:

* **first touch** of a region — cold cache misses for the architected
  code and data, plus (for BBT configurations) the translation cost of
  every instruction in the region and the first fetch of the fresh
  translation;
* **hot-threshold crossing** — the episode is split at the exact
  iteration where the region's execution count reaches the threshold;
  the SBT translation cost is charged and the region switches to
  optimized (fused macro-op) execution;
* homogeneous stretches between events advance in closed form, which is
  exact for the block-level cost model, and are sampled piecewise-
  linearly on the log-cycle grid.

Cycle attribution follows Fig. 10's categories: BBT translation, BBT
emulation, SBT translation, SBT emulation, interpretation, x86-mode
execution, and cold-miss stall.  Decoder activity (Fig. 11) rides the
sampler's auxiliary channel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import MachineConfig
from repro.obs.ledger import CycleLedger
from repro.timing.caches import ColdFootprintModel
from repro.timing.pipeline import ModeCosts, mode_costs_for
from repro.timing.sampler import LogSampler, SampledSeries
from repro.timing.scenarios import (
    DISK_ACCESS_CYCLES,
    DISK_CYCLES_PER_BYTE,
    PERSIST_OPEN_CYCLES,
    Scenario,
)
from repro.workloads.trace import Region, Workload

log = logging.getLogger("repro.timing")

#: Synthetic placement of translated code (the concealed code cache).
_CODE_CACHE_SHADOW_BASE = 0x2000_0000


@dataclass
class StartupResult:
    """Outcome of one startup simulation."""

    config_name: str
    app_name: str
    scenario: Scenario
    series: SampledSeries
    total_cycles: float = 0.0
    total_instrs: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    m_bbt_instrs: int = 0
    m_sbt_instrs: int = 0
    promotions: int = 0
    sbt_instrs_executed: float = 0.0
    cold_miss_cycles: float = 0.0
    #: static instructions re-materialized from the persistent
    #: translation repository at boot (PERSISTENT_WARM scenario)
    persist_loaded_instrs: int = 0
    #: cycle-attribution ledger: same totals as ``breakdown`` plus the
    #: per-interval phase timeline and per-region translation profiles
    #: (see :mod:`repro.obs.ledger`)
    ledger: Optional[CycleLedger] = None

    @property
    def conserved(self) -> bool:
        """Every simulated cycle attributed to exactly one phase."""
        return self.ledger is not None and self.ledger.conserved() and \
            abs(self.ledger.total - self.total_cycles) <= \
            1e-6 * max(self.total_cycles, 1.0)

    @property
    def aggregate_ipc(self) -> float:
        return self.total_instrs / self.total_cycles \
            if self.total_cycles else 0.0

    @property
    def hotspot_coverage(self) -> float:
        """Fraction of dynamic instructions executed from SBT code."""
        return self.sbt_instrs_executed / self.total_instrs \
            if self.total_instrs else 0.0

    def breakdown_fractions(self) -> Dict[str, float]:
        total = sum(self.breakdown.values())
        if not total:
            return {}
        return {key: value / total
                for key, value in sorted(self.breakdown.items())}


#: Ledger category of cold-code execution, and whether the x86 decoders
#: are powered while it runs, per initial-emulation mode.
_COLD_EXECUTION = {
    "bbt": ("bbt_emulation", False),
    "x86-mode": ("x86_mode", True),   # frontend x86 decoders active
    "interp": ("interp", False),
    "native": ("execution", True),    # conventional decoders always on
}


class _RegionState:
    """One region's run-time mode and count, plus its constants."""

    __slots__ = ("region", "instrs", "addr", "shadow", "uop_bytes",
                 "mode", "count", "touched")

    def __init__(self, region: Region, shadow: int, uop_bytes: int,
                 mode: str, count: int) -> None:
        self.region = region
        self.instrs = float(region.instr_count)
        self.addr = region.addr
        self.shadow = shadow        # address of its translation
        self.uop_bytes = uop_bytes  # bytes of its translation
        self.mode = mode            # 'new' | 'cold' | 'sbt'
        self.count = count
        self.touched = False        # cold misses charged yet?


class StartupSimulator:
    """Simulate one (configuration, workload, scenario) combination."""

    def __init__(self, config: MachineConfig, workload: Workload,
                 scenario: Scenario = Scenario.MEMORY_STARTUP,
                 samples_per_decade: int = 8) -> None:
        self.config = config
        self.workload = workload
        self.app = workload.app
        self.scenario = scenario
        self.costs: ModeCosts = mode_costs_for(config, self.app)
        self.sampler = LogSampler(first=100.0,
                                  per_decade=samples_per_decade)
        self.footprint = ColdFootprintModel()
        self._regions = workload.regions
        self._translates = scenario in (Scenario.MEMORY_STARTUP,
                                        Scenario.DISK_STARTUP)
        self._charges_cold_misses = scenario is not Scenario.STEADY_STATE
        emulation = config.initial_emulation
        self._cold_cpi = self.costs.cold_execution_cpi(emulation)
        self._cold_category, self._cold_decoders_on = \
            _COLD_EXECUTION.get(emulation, _COLD_EXECUTION["native"])
        self._uop_scale = self.app.uop_bytes_per_instr / \
            self.app.bytes_per_instr
        self._state = [self._initial_region_state(region)
                       for region in self._regions]
        self._mem_line_charge = config.memory_latency + config.l2.latency
        self._l2_line_charge = config.l2.latency
        self.ledger = CycleLedger()
        self.result = StartupResult(config_name=config.name,
                                    app_name=self.app.name,
                                    scenario=scenario,
                                    series=self.sampler.series,
                                    ledger=self.ledger)

    # -- initial state per scenario ------------------------------------------

    def _initial_region_state(self, region: Region) -> _RegionState:
        shadow = _CODE_CACHE_SHADOW_BASE + \
            (region.addr - self._regions[0].addr)
        uop_bytes = max(int(region.byte_count * self._uop_scale), 1)
        mode, count = "new", 0
        if self.scenario in (Scenario.PERSISTENT_WARM,
                             Scenario.CODE_CACHE_WARM,
                             Scenario.STEADY_STATE):
            # translations already exist from the previous run (still in
            # memory, or re-materialized from the repository at boot):
            # hot regions are in SBT form, the rest in BBT/cold form
            if self.config.is_vm and \
                    region.total_iterations >= self.config.hot_threshold:
                mode, count = "sbt", self.config.hot_threshold
            else:
                mode = "cold"
        return _RegionState(region, shadow, uop_bytes, mode, count)

    # -- main loop --------------------------------------------------------------

    def run(self) -> StartupResult:
        if self.scenario is Scenario.DISK_STARTUP:
            disk_cycles = DISK_ACCESS_CYCLES + \
                DISK_CYCLES_PER_BYTE * self.app.x86_bytes
            self._advance(disk_cycles, 0.0, "disk_load")
        if self.scenario is Scenario.PERSISTENT_WARM and self.config.is_vm:
            self._load_persisted_translations()

        threshold = self.config.hot_threshold
        optimizes = self.config.is_vm
        states = self._state
        breakdown = self.result.breakdown
        charge = self.ledger.charge
        advance = self.sampler.advance
        sbt_cpi = self.costs.sbt_cpi
        cold_cpi = self._cold_cpi
        cold_category = self._cold_category
        cold_decoders_on = self._cold_decoders_on

        for episode in self.workload.episodes:
            state = states[episode.region_index]
            iterations = episode.iterations
            if not state.touched:
                state.touched = True
                self._charge_cold_misses(state)
                if state.mode == "new":
                    self._translate_bbt(state)
                    state.mode = "cold"

            # an episode that crosses the hot threshold runs as two
            # segments: cold up to the crossing, then promoted to SBT
            while iterations > 0:
                segment = iterations
                promote = optimizes and state.mode == "cold" and \
                    state.count < threshold <= state.count + iterations
                if promote:
                    segment = threshold - state.count
                instrs = state.instrs * segment
                if state.mode == "sbt":
                    cycles = instrs * sbt_cpi
                    category = "sbt_emulation"
                    aux = 0.0
                    self.result.sbt_instrs_executed += instrs
                else:
                    cycles = instrs * cold_cpi
                    category = cold_category
                    aux = cycles if cold_decoders_on else 0.0
                # _advance, inlined (a segment has instructions: no skip)
                breakdown[category] = breakdown.get(category, 0.0) \
                    + cycles
                charge(category, cycles, state.addr)
                advance(cycles, instrs, aux)
                state.count += segment
                iterations -= segment
                if promote:
                    self._promote(state)
                    state.mode = "sbt"

        series = self.sampler.finish()
        self.result.series = series
        self.result.total_cycles = self.sampler.cycles
        self.result.total_instrs = self.sampler.instructions
        log.debug("%s/%s (%s): %.0f cycles, %.0f instrs, "
                  "%d promotion(s), ledger conserved=%s",
                  self.config.name, self.app.name, self.scenario.name,
                  self.sampler.cycles, self.sampler.instructions,
                  self.result.promotions, self.result.conserved)
        return self.result

    # -- events -------------------------------------------------------------------

    def _load_persisted_translations(self) -> None:
        """Boot-time re-materialization from the translation repository.

        Every region the previous run translated is deserialized,
        re-encoded at its new code-cache address and screened by the
        verifier — a linear per-instruction charge on top of the fixed
        repository-open cost (see :mod:`repro.persist.loader`).
        """
        threshold = self.config.hot_threshold
        instrs = sum(region.instr_count for region in self._regions
                     if self.config.uses_bbt
                     or region.total_iterations >= threshold)
        self.result.persist_loaded_instrs = instrs
        cycles = PERSIST_OPEN_CYCLES + instrs * self.costs.persist_load_cpi
        self._advance(cycles, 0.0, "persist_load")

    def _charge_cold_misses(self, state: _RegionState) -> None:
        """Scenario-dependent cold misses at a region's first execution."""
        if not self._charges_cold_misses:
            return
        region = state.region
        cold_cycles = 0.0
        if self.config.uses_bbt and \
                self.scenario in (Scenario.CODE_CACHE_WARM,
                                  Scenario.PERSISTENT_WARM):
            # translations survived in memory; only they are fetched
            cold_cycles += self.footprint.touch(
                state.shadow, state.uop_bytes, self._mem_line_charge)
        else:
            cold_cycles += self.footprint.touch(
                region.addr, region.byte_count, self._mem_line_charge)
        # data-side cold misses during the first executions
        cold_cycles += (region.instr_count
                        * self.app.data_cold_misses_per_instr
                        * self._mem_line_charge)
        if cold_cycles:
            self.result.cold_miss_cycles += cold_cycles
            # configurations whose x86 decoders are powered during cold
            # execution keep them powered through the miss stalls too
            aux = cold_cycles if self.config.mode in ("ref", "fe") else 0.0
            self._advance(cold_cycles, 0.0, "cold_miss", aux=aux)

    def _translate_bbt(self, state: _RegionState) -> None:
        if not (self.config.uses_bbt and self._translates):
            return
        instrs = state.region.instr_count
        translate_cycles = instrs * self.costs.bbt_translate_cpi
        busy = instrs * self.costs.xlt_busy_per_instr
        self.result.m_bbt_instrs += instrs
        self._advance(translate_cycles, 0.0, "bbt_translation", aux=busy,
                      block=state.addr)
        if self._charges_cold_misses:
            fill = self.footprint.touch(state.shadow, state.uop_bytes,
                                        self._l2_line_charge)
            self.result.cold_miss_cycles += fill
            self._advance(fill, 0.0, "cold_miss", block=state.addr)

    def _promote(self, state: _RegionState) -> None:
        instrs = state.region.instr_count
        self.result.m_sbt_instrs += instrs
        self.result.promotions += 1
        if not self._translates:
            return  # pre-translated scenarios: promotion is free
        cycles = instrs * self.costs.sbt_translate_cpi
        self._advance(cycles, 0.0, "sbt_translation", block=state.addr)
        if self._charges_cold_misses:
            fill = self.footprint.touch(state.shadow + 0x0100_0000,
                                        state.uop_bytes,
                                        self._l2_line_charge)
            self.result.cold_miss_cycles += fill
            self._advance(fill, 0.0, "cold_miss", block=state.addr)

    # -- helpers -----------------------------------------------------------------

    def _advance(self, cycles: float, instrs: float, category: str,
                 aux: float = 0.0, block: Optional[int] = None) -> None:
        if cycles <= 0 and instrs <= 0:
            return
        breakdown = self.result.breakdown
        breakdown[category] = breakdown.get(category, 0.0) + cycles
        # the ledger mirrors the breakdown totals and adds the
        # per-interval phase timeline + per-region profiles; its clock
        # equals sampler.cycles, so attribution is conservative
        self.ledger.charge(category, cycles, block=block)
        self.sampler.advance(cycles, instrs, aux)


def simulate_startup(config: MachineConfig, workload: Workload,
                     scenario: Scenario = Scenario.MEMORY_STARTUP,
                     samples_per_decade: int = 8) -> StartupResult:
    """Convenience wrapper: build, run, return."""
    return StartupSimulator(config, workload, scenario,
                            samples_per_decade).run()
