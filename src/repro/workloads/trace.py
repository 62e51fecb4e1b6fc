"""Block-level episode traces realized from an application model.

A *workload* is the dynamic execution of an application expressed at
basic-block granularity:

* static structure — regions (loops) of a few basic blocks each, laid out
  in a synthetic address space;
* dynamics — a time-ordered list of *episodes*; each episode executes one
  region for some number of iterations (every block in the region runs
  once per iteration).

Episodes capture the two properties the startup study depends on:
**discovery** (a region's first episode position determines when its code
is first touched, and hence when the VM must translate it) and
**recurrence** (later episodes accumulate execution counts toward the hot
threshold).  Region first-use positions are front-loaded with a long tail
(Beta(0.5, 2)), matching the code-discovery behaviour that makes early VM
time translation-bound (the paper's "one fourth of the instructions at
one million cycles" observation).

Everything is generated from a seeded NumPy generator, so workloads are
exactly reproducible.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.workloads.winstone import AppProfile

#: Synthetic text base for workload block addresses.
TEXT_BASE = 0x0040_0000


@dataclass
class Block:
    """One static basic block."""

    __slots__ = ("addr", "size", "nbytes")  # tens of thousands per app

    addr: int
    size: int          # architected instructions
    nbytes: int        # encoded architected bytes


@dataclass
class Region:
    """A loop-like group of blocks that execute together (its totals and
    first address are filled in once, by :func:`generate_workload`)."""

    __slots__ = ("index", "blocks", "total_iterations", "instr_count",
                 "byte_count", "addr")

    index: int
    blocks: List[Block]
    total_iterations: int
    instr_count: int
    byte_count: int
    addr: int


@dataclass(frozen=True)
class Episode:
    """One burst of executions of a region."""

    position: float      # ordering key in [0, 1]
    region_index: int
    iterations: int


@dataclass
class Workload:
    """A complete generated workload."""

    app: AppProfile
    dyn_instrs: int
    seed: int
    regions: List[Region] = field(default_factory=list)
    episodes: List[Episode] = field(default_factory=list)

    @property
    def static_instrs(self) -> int:
        return sum(region.instr_count for region in self.regions)

    @property
    def total_dynamic_instrs(self) -> int:
        return sum(region.instr_count * region.total_iterations
                   for region in self.regions)


#: Reference dynamic length the frequency mixture is calibrated at.
REFERENCE_DYN_INSTRS = 100_000_000

#: Most episodes in one region's schedule: a warm-up plus 11 bursts.
MAX_EPISODES = 12

# A schedule's burst shares and phase offsets depend only on its episode
# count, so each is computed once per count, by NumPy: they must be its
# values to the last bit (SIMD ``power`` may round unlike libm's).
@functools.lru_cache(maxsize=None)
def _burst_shares(bursts: int) -> Tuple[float, ...]:
    weights = 2.0 ** -np.arange(bursts)
    return tuple((weights / weights.sum()).tolist())


@functools.lru_cache(maxsize=None)
def _phase_offsets(count: int) -> Tuple[float, ...]:
    return tuple(((np.arange(count) / max(count - 1, 1)) ** 0.7).tolist())


def generate_workload(app: AppProfile, dyn_instrs: int = 100_000_000,
                      seed: int = 0,
                      mean_blocks_per_region: float = 6.0) -> Workload:
    """Generate a deterministic workload for ``app``.

    ``dyn_instrs`` is hit exactly (iteration counts are rescaled after
    sampling, preserving the mixture's shape).  Draws and float operations
    run in a fixed order: ``tests/test_startup_golden.py`` pins the bits.
    """
    # zlib.crc32 is stable across processes (unlike hash(), which is
    # salted); workload generation must be exactly reproducible
    rng = np.random.default_rng(
        (seed * 1_000_003 + zlib.crc32(app.name.encode())) & 0xFFFFFFFF)
    workload = Workload(app=app, dyn_instrs=dyn_instrs, seed=seed)

    n_blocks = max(int(app.static_instrs / app.avg_block_size), 4)
    n_regions = max(int(n_blocks / mean_blocks_per_region), 2)

    # --- static structure ---------------------------------------------------
    blocks_per_region = rng.integers(2, 11, size=n_regions).tolist()
    block_p = 1.0 / app.avg_block_size
    bytes_per_instr = app.bytes_per_instr
    addr = TEXT_BASE
    for region_index, block_count in enumerate(blocks_per_region):
        region_addr = addr
        instr_count = 0
        blocks = []
        for _ in range(block_count):
            size = min(max(rng.geometric(block_p), 1), 20)
            nbytes = max(int(round(size * bytes_per_instr)), size)
            blocks.append(Block(addr=addr, size=size, nbytes=nbytes))
            addr += nbytes
            instr_count += size
        workload.regions.append(Region(
            index=region_index, blocks=blocks, total_iterations=0,
            instr_count=instr_count, byte_count=addr - region_addr,
            addr=region_addr))
        addr += int(rng.integers(0, 32))  # layout gap between regions

    # --- execution-frequency mixture --------------------------------------------
    is_cold = rng.random(n_regions) < app.cold_fraction
    counts = np.where(
        is_cold,
        rng.lognormal(np.log(app.cold_median), app.cold_sigma, n_regions),
        rng.lognormal(np.log(app.warm_median), app.warm_sigma, n_regions))
    counts *= dyn_instrs / REFERENCE_DYN_INSTRS

    instrs_per_region = np.array([region.instr_count
                                  for region in workload.regions])
    raw_total = float(np.dot(counts, instrs_per_region))
    counts *= dyn_instrs / raw_total
    counts = np.maximum(counts.round().astype(np.int64), 1)
    for region, total in zip(workload.regions, counts.tolist()):
        region.total_iterations = total

    # --- episode schedule ------------------------------------------------------
    # Discovery is front-loaded with a long tail (Beta(0.5, 2)); once a
    # region is discovered, its activity is *bursty* — concentrated in a
    # program phase — so hot loops accumulate their execution counts
    # quickly after first touch (this burstiness is what lets hardware-
    # assisted VMs break even within tens of millions of cycles).
    start_fracs = rng.beta(app.discovery_alpha, app.discovery_beta,
                           size=n_regions)
    if app.hot_early_pull > 0:
        # dominant loops tend to start early: pull hot regions' first
        # use toward the beginning in proportion to their (log) heat
        log_counts = np.log(counts.astype(float) + 1.0)
        pull = log_counts / max(float(log_counts.max()), 1.0)
        start_fracs = start_fracs * (1.0 - app.hot_early_pull * pull)
    episodes: List[Episode] = []
    for region, start in zip(workload.regions, start_fracs.tolist()):
        total = region.total_iterations
        # floor(log2(total + 1)), clipped to [1, MAX_EPISODES]
        n_episodes = min(max((total + 1).bit_length() - 1, 1),
                         MAX_EPISODES)
        # First touch is a short warm-up (discovery); the bulk burst
        # follows within the region's phase, then smaller echoes.  This
        # makes the first million cycles discovery-bound (the paper's
        # "one fourth of the instructions" point) while still letting
        # hot loops cross the threshold within a few million cycles.
        warmup = min(16, total)
        if total > warmup:
            bursts = max(n_episodes - 1, 1)
            sizes = [warmup] + [max(int(share * (total - warmup)), 1)
                                for share in _burst_shares(bursts)]
            deficit = sum(sizes) - total
            index = len(sizes) - 1
            while deficit > 0 and index > 0:   # trim echo bursts first
                take = min(sizes[index], deficit)
                sizes[index] -= take
                deficit -= take
                index -= 1
            if deficit < 0:
                sizes[1] += -deficit           # grow the bulk burst
            sizes = [size for size in sizes if size > 0]
        else:
            sizes = [total]
        phase_width = rng.uniform(0.02, 0.25) * (1.0 - start)
        episodes.append(Episode(start, region.index, sizes[0]))
        for offset, iterations in zip(_phase_offsets(len(sizes))[1:],
                                      sizes[1:]):
            episodes.append(Episode(
                start + phase_width * (0.25 + 0.75 * offset),
                region.index, iterations))
    episodes.sort(key=lambda episode: episode.position)
    workload.episodes = episodes
    return workload
