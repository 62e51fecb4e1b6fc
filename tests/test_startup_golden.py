"""Golden pin over the *whole* startup-simulator output.

The paper's figures (Figs. 2 and 8-11, Table 2) are all drawn from
:func:`repro.timing.simulate_startup` running over traces from
:func:`repro.workloads.generate_workload`.  Both are tuned for host
speed, and that tuning must never move a simulated number.  This test
hashes everything a run produces, not just its totals: the generated
regions and episodes, the sampled series (cycles, instructions, aux),
the breakdown, the full ledger dump (phase totals, log-grid timeline,
top blocks) and the ledger's charge count.  Floats are hashed through
``repr``, so a change in the last bit of any value fails the pin.

The digests were recorded before the host-cost work on the simulator
and the generator, and must only change when a PR deliberately changes
the model and says so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import ref_superscalar, vm_be, vm_fe, vm_soft
from repro.timing import Scenario, simulate_startup
from repro.workloads import generate_workload, winstone_app

DYN_INSTRS = 2_000_000
SEED = 1
CONFIGS = (ref_superscalar, vm_soft, vm_be, vm_fe)
SCENARIOS = tuple(Scenario)

#: app -> (workload digest, simulation digest)
GOLDEN = {
    "Winzip": (
        "effad3790d584b1ff2f91c2eaa7856270a0f74e23198afd93fef0e7a845e2592",
        "6756d21f05ed0f33053124a1be2ceda1be85f5decaa4143fdd883a746003315c"),
    "Word": (
        "06c6cdc897160c96333dcc17f27f3e30802d8dd24709b3de73121f87c7b0c956",
        "c81c05fe048a0901eaa025cdc985fe34f412cfcbf4d29274a265c6094d5b0b08"),
}


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def workload_digest(workload) -> str:
    regions = [(region.index, region.total_iterations, region.instr_count,
                region.byte_count, region.addr,
                [(block.addr, block.size, block.nbytes)
                 for block in region.blocks])
               for region in workload.regions]
    episodes = [(repr(episode.position), episode.region_index,
                 episode.iterations) for episode in workload.episodes]
    return _sha({"regions": regions, "episodes": episodes})


def result_payload(result) -> dict:
    series = result.series
    return {
        "config": result.config_name,
        "scenario": result.scenario.value,
        "cycles": [repr(value) for value in series.cycles],
        "instructions": [repr(value) for value in series.instructions],
        "aux": [repr(value) for value in series.aux],
        "breakdown": {key: repr(value)
                      for key, value in result.breakdown.items()},
        # json.dumps writes floats through repr, so the dump is exact
        "ledger": result.ledger.to_dict(),
        "charges": result.ledger.charges,
        "totals": [repr(result.total_cycles), repr(result.total_instrs),
                   repr(result.sbt_instrs_executed),
                   repr(result.cold_miss_cycles)],
        "counts": [result.m_bbt_instrs, result.m_sbt_instrs,
                   result.promotions, result.persist_loaded_instrs],
    }


def simulation_digest(workload) -> str:
    return _sha([result_payload(simulate_startup(config(), workload,
                                                 scenario))
                 for config in CONFIGS for scenario in SCENARIOS])


@pytest.mark.parametrize("app_name", sorted(GOLDEN))
def test_startup_output_is_bit_identical(app_name):
    workload = generate_workload(winstone_app(app_name),
                                 dyn_instrs=DYN_INSTRS, seed=SEED)
    expected_workload, expected_simulation = GOLDEN[app_name]
    assert workload_digest(workload) == expected_workload
    assert simulation_digest(workload) == expected_simulation
