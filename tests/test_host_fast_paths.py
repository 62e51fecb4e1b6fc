"""The simulator's host-speed fast paths against plain reference loops.

:meth:`LogSampler.advance` skips its grid scan when a segment crosses
no grid point, and :meth:`CycleLedger.charge` skips its interval-split
loop when a charge ends inside the current timeline interval.  Both
must leave exactly the state the plain loops below leave, float for
float, on any call sequence: zero charges, charges that land exactly
on a boundary, and charges that span several intervals included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.obs.ledger import CycleLedger
from repro.timing.sampler import LogSampler
from repro.workloads.trace import MAX_EPISODES


class ReferenceSampler(LogSampler):
    """The grid scan on every advance, with no cached next point."""

    def advance(self, delta_cycles, delta_instructions, delta_aux=0.0):
        if delta_cycles < 0 or delta_instructions < 0:
            raise ValueError("time cannot run backwards")
        start_cycles = self._cycles
        end_cycles = start_cycles + delta_cycles
        while self._next_index < len(self._points) and \
                self._points[self._next_index] <= end_cycles:
            point = self._points[self._next_index]
            fraction = ((point - start_cycles) / delta_cycles
                        if delta_cycles else 1.0)
            self.series.cycles.append(point)
            self.series.instructions.append(
                self._instructions + fraction * delta_instructions)
            self.series.aux.append(self._aux + fraction * delta_aux)
            self._next_index += 1
        self._cycles = end_cycles
        self._instructions += delta_instructions
        self._aux += delta_aux


class ReferenceLedger(CycleLedger):
    """The interval-split loop on every charge."""

    def charge(self, category, cycles, block=None):
        if cycles <= 0:
            return
        self.charges += 1
        self._phases[category] = self._phases.get(category, 0.0) + cycles
        if block is not None:
            per_block = self._blocks.setdefault(category, {})
            per_block[block] = per_block.get(block, 0.0) + cycles
        remaining = cycles
        while remaining > 0:
            room = self._interval_end - self.total
            step = remaining if remaining < room else room
            bucket = self._intervals[-1]
            bucket[category] = bucket.get(category, 0.0) + step
            self.total += step
            remaining -= step
            if self.total >= self._interval_end:
                self._interval_end *= self._ratio
                self._intervals.append({})


#: One step: how far to go, relative to the next boundary of the
#: reference's grid, plus instructions, aux and a category/block.
STEPS = st.tuples(
    st.one_of(
        st.just(("zero", 0.0)),
        st.just(("boundary", 0.0)),          # land exactly on it
        st.just(("below", 0.0)),             # one ulp short of it
        st.tuples(st.just("inside"), st.floats(0.0, 1.0)),
        st.tuples(st.just("span"), st.floats(1.0, 500.0)),
        st.tuples(st.just("plain"), st.floats(1e-3, 1e7))),
    st.floats(0.0, 1e6),
    st.floats(0.0, 1e6),
    st.sampled_from(["bbt_translation", "sbt_emulation", "cold_miss"]),
    st.one_of(st.none(), st.integers(0, 3)))


#: Two charges each one ulp short of the boundary: the second one's sum
#: rounds onto the boundary, so the interval must still advance.
ULP_SHORT = [(("below", 0.0), 0.0, 0.0, "cold_miss", None)] * 2


def _cycles(kind, scale, room):
    if kind == "zero":
        return 0.0
    if kind == "boundary":
        return room
    if kind == "below":
        return math.nextafter(room, 0.0)
    if kind == "inside":
        return room * scale
    if kind == "span":
        return room * (1.0 + scale)
    return scale


def _sampler_room(sampler):
    if sampler._next_index < len(sampler._points):
        return sampler._points[sampler._next_index] - sampler._cycles
    return 1e3


@settings(max_examples=200, deadline=None)
@given(st.lists(STEPS, max_size=60), st.sampled_from([1, 2, 8]))
@example(ULP_SHORT, 1)
def test_sampler_fast_path_matches_reference(steps, per_decade):
    fast = LogSampler(first=100.0, per_decade=per_decade, max_cycles=1e8)
    reference = ReferenceSampler(first=100.0, per_decade=per_decade,
                                 max_cycles=1e8)
    for (kind, scale), instrs, aux, _, _ in steps:
        cycles = _cycles(kind, scale, _sampler_room(reference))
        fast.advance(cycles, instrs, aux)
        reference.advance(cycles, instrs, aux)
    assert fast.series == reference.series
    assert (fast.cycles, fast.instructions, fast._aux,
            fast._next_index) == \
        (reference.cycles, reference.instructions, reference._aux,
         reference._next_index)
    assert fast.finish() == reference.finish()


@settings(max_examples=200, deadline=None)
@given(st.lists(STEPS, max_size=60), st.sampled_from([1, 2, 4]))
@example(ULP_SHORT, 1)
def test_ledger_fast_path_matches_reference(steps, per_decade):
    fast = CycleLedger(intervals_per_decade=per_decade)
    reference = ReferenceLedger(intervals_per_decade=per_decade)
    positive = 0
    for (kind, scale), _, _, category, block in steps:
        cycles = _cycles(kind, scale,
                         reference._interval_end - reference.total)
        positive += cycles > 0
        fast.charge(category, cycles, block=block)
        reference.charge(category, cycles, block=block)
    # totals, per-block dicts, timeline buckets, grid state and charges
    assert vars(fast) == vars(reference)
    assert fast.to_dict() == reference.to_dict()
    assert fast.charges == positive


def test_episode_count_matches_numpy_log2():
    # the generator's closed form for int(np.clip(np.log2(n), 1, 12))
    for total in range(0, 1 << 14):
        expected = int(np.clip(np.log2(total + 1), 1, MAX_EPISODES))
        assert min(max((total + 1).bit_length() - 1, 1),
                   MAX_EPISODES) == expected
