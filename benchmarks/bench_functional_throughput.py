"""Engineering throughput of the functional VM itself.

Not a paper figure — this tracks the speed of the repository's own
executable models (instructions/second of the interpreter and of the
full staged-translation VM on a hot loop), so regressions in the
functional layer are visible in benchmark history.  Translated code
must run the hot loop at least as fast as the reference interpreter;
the engines are timed interleaved, best of ``ROUNDS`` each, so a swing
in host speed reaches both alike.
"""

import time

from repro.analysis.reporting import format_table
from repro.core import CoDesignedVM, ref_superscalar, vm_soft
from repro.isa.x86lite import assemble
from conftest import emit

HOT_LOOP = """
start:
    mov ecx, 20000
loop:
    add eax, ecx
    xor eax, 0x5A5A
    lea ebx, [eax+ecx*2]
    dec ecx
    jnz loop
    mov eax, 0
    mov ebx, 0
    int 0x80
"""

DYNAMIC_INSTRS = 6 * 20_000 + 4

ROUNDS = 3


def _throughput(factory, **kwargs):
    image = assemble(HOT_LOOP)
    started = time.perf_counter()
    vm = CoDesignedVM(factory(), **kwargs)
    vm.load(image)
    vm.run(max_uops=80_000_000)
    return DYNAMIC_INSTRS / (time.perf_counter() - started)


def test_functional_throughput(benchmark):
    interp_rate = vm_rate = 0.0
    for _ in range(ROUNDS):
        interp_rate = max(interp_rate, _throughput(ref_superscalar))
        vm_rate = max(vm_rate, _throughput(vm_soft, hot_threshold=50))
    rows = [
        ["interpreter (reference config)", f"{interp_rate:,.0f}"],
        ["staged-translation VM (VM.soft)", f"{vm_rate:,.0f}"],
    ]
    emit("functional_throughput",
         format_table(["engine", "x86lite instrs/sec"], rows,
                      title="Functional-model throughput "
                            "(engineering metric, not a paper figure)"))

    assert interp_rate > 1_000      # sanity floor
    assert vm_rate >= interp_rate, (
        f"VM.soft {vm_rate:,.0f} instrs/s is slower than the "
        f"interpreter's {interp_rate:,.0f}")

    vm = CoDesignedVM(vm_soft(), hot_threshold=50)
    vm.load(assemble(HOT_LOOP))

    def kernel():
        vm.restart(warm=True)
        vm.run(max_uops=80_000_000)

    benchmark.pedantic(kernel, rounds=3, iterations=1)
