"""Native machine tests: micro-op semantics, control flow, VM exits."""

import pytest

from repro.isa.fusible import (
    ExitEvent,
    FusibleMachine,
    MicroOp,
    NativeMachineError,
    UOp,
    encode_stream,
)
from repro.isa.fusible.registers import R_EXIT_TARGET, R_ZERO
from repro.isa.x86lite.registers import Cond
from repro.memory import AddressSpace

CODE = 0x1000_0000


def run_code(uops, setup=None, max_uops=10_000):
    memory = AddressSpace()
    memory.write(CODE, encode_stream(uops))
    machine = FusibleMachine(memory)
    if setup:
        setup(machine)
    event = machine.run(CODE, max_uops=max_uops)
    return machine, event


class TestAlu:
    def test_addi_and_halt(self):
        machine, event = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=41),
            MicroOp(UOp.ADDI2, rd=1, imm=1),
            MicroOp(UOp.HALT),
        ])
        assert event.kind == "halt"
        assert machine.regs[1] == 42

    def test_lui_ori_builds_constant(self):
        value = 0xDEADBEEF
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=5, imm=value >> 13),
            MicroOp(UOp.ORI, rd=5, rs1=5, imm=value & 0x1FFF),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[5] == value

    def test_zero_register_is_immutable(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=R_ZERO, rs1=R_ZERO, imm=99),
            MicroOp(UOp.HALT),
        ])
        assert machine.get_reg(R_ZERO) == 0

    def test_flags_only_with_setflags(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0),
            MicroOp(UOp.HALT),
        ])
        assert not machine.zf  # no .f, no flag update

    def test_setflags_zero(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0, setflags=True),
            MicroOp(UOp.HALT),
        ])
        assert machine.zf

    def test_sel_conditional_move(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=7),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=0, setflags=True),
            MicroOp(UOp.SEL, rd=3, rs1=1, cond=Cond.E),
            MicroOp(UOp.SEL, rd=4, rs1=1, cond=Cond.NE),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[3] == 7   # ZF set -> taken
        assert machine.regs[4] == 0   # not taken

    def test_incf_preserves_carry(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=-1),
            MicroOp(UOp.ADDI2, rd=1, imm=1, setflags=True),  # sets CF
            MicroOp(UOp.INCF, rd=2, rs1=2, setflags=True),
            MicroOp(UOp.HALT),
        ])
        assert machine.cf

    def test_mulh_signed(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=-2),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=3),
            MicroOp(UOp.MULH, rd=3, rs1=1, rs2=2),
            MicroOp(UOp.MULL, rd=4, rs1=1, rs2=2),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[4] == 0xFFFFFFFA  # -6 low
        assert machine.regs[3] == 0xFFFFFFFF  # -6 high


class TestMemory:
    def test_store_load_roundtrip(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0x123),
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.STW, rd=1, rs1=2, imm=8),
            MicroOp(UOp.LDW, rd=3, rs1=2, imm=8),
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[3] == 0x123

    def test_byte_sign_extension(self):
        def setup(machine):
            machine.memory.write_u8(0x500000, 0x80)
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDBS, rd=1, rs1=2, imm=0),
            MicroOp(UOp.LDBU, rd=3, rs1=2, imm=0),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.regs[1] == 0xFFFFFF80
        assert machine.regs[3] == 0x80

    def test_freg_load_store(self):
        def setup(machine):
            machine.memory.write(0x500000, bytes(range(16)))
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.STF, rd=1, rs1=2, imm=16),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.memory.read(0x500010, 16) == bytes(range(16))


class TestControlFlow:
    def test_bc_loop(self):
        # r1 = 5; loop: r2 += r1; r1 -= 1 (.f); bne loop
        loop_body = [
            MicroOp(UOp.ADD2, rd=2, rs1=1),
            MicroOp(UOp.ADDI2, rd=1, imm=-1, setflags=True),
            MicroOp(UOp.BC, cond=Cond.NE, imm=0),  # patched below
            MicroOp(UOp.HALT),
        ]
        # offset: branch target is start of loop body relative to next uop
        body_len = loop_body[0].length + loop_body[1].length \
            + loop_body[2].length
        loop_body[2] = MicroOp(UOp.BC, cond=Cond.NE, imm=-body_len)
        machine, event = run_code(
            [MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=5)] + loop_body)
        assert event.kind == "halt"
        assert machine.regs[2] == 15  # 5+4+3+2+1

    def test_jmp_skips(self):
        machine, _ = run_code([
            MicroOp(UOp.JMP, imm=4),                        # skip next
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=99),    # skipped
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[1] == 0

    def test_jr_indirect(self):
        # jump over one 4-byte uop via register
        target = CODE + 16  # lui + ori + jr + skipped addi
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=1, imm=target >> 13),
            MicroOp(UOp.ORI, rd=1, rs1=1, imm=target & 0x1FFF),
            MicroOp(UOp.JR, rs1=1),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=1),  # skipped
            MicroOp(UOp.HALT),
        ])
        assert machine.regs[2] == 0

    def test_vmexit_reports_target(self):
        machine, event = run_code([
            MicroOp(UOp.ADDI, rd=29, rs1=R_ZERO, imm=0x77),
            MicroOp(UOp.VMEXIT, rs1=29),
        ])
        assert event.kind == "vmexit"
        assert event.value == 0x77

    def test_vmcall_reports_service(self):
        machine, event = run_code([MicroOp(UOp.VMCALL, imm=3)])
        assert event.kind == "vmcall"
        assert event.value == 3
        assert event.resume_pc == CODE + 4

    def test_runaway_guard(self):
        memory = AddressSpace()
        memory.write(CODE, encode_stream([MicroOp(UOp.JMP, imm=-4)]))
        machine = FusibleMachine(memory)
        with pytest.raises(NativeMachineError):
            machine.run(CODE, max_uops=50)

    def test_bad_code_raises(self):
        memory = AddressSpace()
        machine = FusibleMachine(memory)
        memory.write(CODE, b"\xff\x7f\xff\xff")  # invalid long opcode
        with pytest.raises(NativeMachineError):
            machine.run(CODE)


class TestSpecial:
    def test_rdflg_wrflg_roundtrip(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=0, setflags=True),
            MicroOp(UOp.RDFLG, rd=5),
            MicroOp(UOp.ADDI, rd=2, rs1=R_ZERO, imm=1, setflags=True),
            MicroOp(UOp.WRFLG, rs1=5),
            MicroOp(UOp.HALT),
        ])
        assert machine.zf  # restored from the packed snapshot

    def test_xltx86_simple_instruction(self):
        from repro.isa.fusible.encoding import decode_stream

        def setup(machine):
            machine.memory.write(0x500000,
                                 b"\x01\xd8" + bytes(14))  # add eax, ebx
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.LDCSR, rd=4),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.csr_ilen == 2
        assert not machine.csr_cmplx and not machine.csr_cti
        uops = decode_stream(bytes(machine.fregs[3][:machine.csr_uop_bytes]))
        assert [uop.op for uop in uops] == [UOp.ADD2]
        # CSR packing: ilen in bits 0-4, byte count in bits 5-9
        assert machine.regs[4] & 0x1F == 2
        assert (machine.regs[4] >> 5) & 0x1F == 2

    def test_xltx86_complex_sets_flag(self):
        def setup(machine):
            machine.memory.write(0x500000, b"\xf7\xf3" + bytes(14))  # div
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.csr_cmplx

    def test_jcsrc_branches_on_complex(self):
        def setup(machine):
            machine.memory.write(0x500000, b"\xcd\x80" + bytes(14))  # int
        machine, _ = run_code([
            MicroOp(UOp.LUI, rd=2, imm=0x500000 >> 13),
            MicroOp(UOp.LDF, rd=1, rs1=2, imm=0),
            MicroOp(UOp.XLTX86, rd=3, rs1=1),
            MicroOp(UOp.JCSRC, imm=4),
            MicroOp(UOp.ADDI, rd=5, rs1=R_ZERO, imm=1),  # skipped
            MicroOp(UOp.HALT),
        ], setup=setup)
        assert machine.regs[5] == 0

    def test_execute_uops_rejects_branches(self):
        machine = FusibleMachine(AddressSpace())
        with pytest.raises(NativeMachineError):
            machine.execute_uops([MicroOp(UOp.JMP, imm=0)])

    def test_stats_counting(self):
        machine, _ = run_code([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=1, fused=True),
            MicroOp(UOp.ADD2, rd=2, rs1=1),
            MicroOp(UOp.HALT),
        ])
        assert machine.uops_executed == 3
        assert machine.fused_pairs_seen == 1
        assert machine.uop_bytes_fetched == 4 + 2 + 4

    def test_stats_counting_under_run(self):
        # The runtime charges simulated cycles per counted micro-op, so
        # run() must count exactly like one decode per fetch would: the
        # same on a cold and a warm handler table, every micro-op the
        # runaway guard lets through, and never one that fails to decode.
        memory = AddressSpace()
        memory.write(CODE, encode_stream([
            MicroOp(UOp.ADDI, rd=1, rs1=R_ZERO, imm=1, fused=True),
            MicroOp(UOp.ADD2, rd=2, rs1=1),
            MicroOp(UOp.HALT),
        ]))
        machine = FusibleMachine(memory)

        def counters():
            return (machine.uops_executed, machine.uop_bytes_fetched,
                    machine.fused_pairs_seen)

        machine.run(CODE)                     # cold table
        assert counters() == (3, 10, 1)
        machine.run(CODE)                     # warm table
        assert counters() == (6, 20, 2)

        loop = CODE + 0x100
        memory.write(loop, encode_stream([
            MicroOp(UOp.ADDI2, rd=3, imm=1, fused=True),
            MicroOp(UOp.JMP, imm=-6),
        ]))
        with pytest.raises(NativeMachineError):
            machine.run(loop, max_uops=51)
        assert counters() == (6 + 51, 20 + 26 * 2 + 25 * 4, 2 + 26)

        bad = CODE + 0x200
        memory.write(bad, encode_stream([
            MicroOp(UOp.ADDI, rd=4, rs1=R_ZERO, imm=2, fused=True),
            MicroOp(UOp.ADD2, rd=5, rs1=4),
        ]) + b"\xff\x7f\xff\xff")        # invalid long opcode
        before = counters()
        for _ in range(2):                    # cold, then warm prefix
            with pytest.raises(NativeMachineError):
                machine.run(bad)
            after = counters()
            assert tuple(a - b for a, b in zip(after, before)) == (2, 6, 1)
            before = after


DATA = 0x5000_0000
TARGET = CODE + 0x400


def _stub(x86_target):
    """An exit stub as the translators emit it (head word: the LUI)."""
    return [MicroOp(UOp.LUI, rd=R_EXIT_TARGET, imm=x86_target >> 13),
            MicroOp(UOp.ORI, rd=R_EXIT_TARGET, rs1=R_EXIT_TARGET,
                    imm=x86_target & 0x1FFF),
            MicroOp(UOp.VMEXIT, rs1=R_EXIT_TARGET)]


def _block():
    """A translated-block shape: body, then one exit stub."""
    return [
        MicroOp(UOp.ADDI, rd=1, rs1=1, imm=3, setflags=True, fused=True),
        MicroOp(UOp.ADD2, rd=2, rs1=1),
        MicroOp(UOp.LUI, rd=6, imm=DATA >> 13),
        MicroOp(UOp.STW, rd=2, rs1=6, imm=0),
    ] + _stub(0x0804_8000)


def _machine_state(machine):
    return (list(machine.regs), [bytes(f) for f in machine.fregs],
            machine.flags_packed(), machine.csr,
            machine.memory.read(CODE, 0x500), machine.memory.read(DATA, 16))


def _counters(machine):
    return (machine.uops_executed, machine.uop_bytes_fetched,
            machine.fused_pairs_seen)


def assert_runs_like_fresh(machine, start):
    """Run ``machine`` (its handler table warm) from ``start`` and a fresh
    machine over a snapshot of the same memory and registers; both must
    agree on the exit, registers, flags, memory and counters."""
    fresh = FusibleMachine(machine.memory.snapshot())
    fresh.regs[:] = machine.regs
    for mine, theirs in zip(fresh.fregs, machine.fregs):
        mine[:] = theirs
    fresh.set_flags_packed(machine.flags_packed())
    before = _counters(machine)
    event = machine.run(start, max_uops=1000)
    expected = fresh.run(start, max_uops=1000)
    assert event == expected
    assert _machine_state(machine) == _machine_state(fresh)
    assert tuple(a - b for a, b in zip(_counters(machine), before)) == \
        _counters(fresh)
    return event


class TestCodeCoherence:
    """Pre-decoded handlers never hide code bytes that changed."""

    def _warm(self):
        memory = AddressSpace()
        memory.write(CODE, encode_stream(_block()))
        memory.write(TARGET, encode_stream([
            MicroOp(UOp.ADDI, rd=7, rs1=R_ZERO, imm=77),
            MicroOp(UOp.HALT),
        ]))
        machine = FusibleMachine(memory)
        first = machine.run(CODE)
        assert first.kind == "vmexit" and first.value == 0x0804_8000
        return machine, first

    def test_chain_patch_of_stub_head(self):
        machine, first = self._warm()
        stub = first.native_pc - 8             # LUI, ORI, VMEXIT
        jmp = MicroOp(UOp.JMP, imm=TARGET - (stub + 4))
        machine.memory.write(stub, encode_stream([jmp]))
        event = assert_runs_like_fresh(machine, CODE)
        assert event.kind == "halt" and machine.regs[7] == 77
        # unchaining restores the LUI: the exit comes back
        machine.memory.write(stub, encode_stream(_stub(0x0804_8000)[:1]))
        assert assert_runs_like_fresh(machine, CODE).kind == "vmexit"

    def test_flipped_non_linkage_byte(self):
        # The bare machine has no integrity sweep: tampered bytes run as
        # tampered.  Flip the low immediate byte of the body's ADDI.
        machine, _ = self._warm()
        addi = machine.memory.read(CODE, 4)
        machine.memory.write(CODE + 2, bytes([addi[2] ^ 0x04]))
        assert_runs_like_fresh(machine, CODE)
        assert machine.regs[1] == 3 + 7

    def test_flush_and_reinstall_at_same_address(self):
        machine, _ = self._warm()
        machine.memory.fill(CODE, 0x400)       # flush scrubs the cache
        machine.memory.write(CODE, encode_stream([
            MicroOp(UOp.SUBI, rd=1, rs1=1, imm=5, setflags=True),
            MicroOp(UOp.SUB2, rd=2, rs1=1),
        ] + _stub(0x0804_9000)))
        event = assert_runs_like_fresh(machine, CODE)
        assert event.value == 0x0804_9000

    def test_guest_store_overwrites_later_uop(self):
        new = encode_stream([MicroOp(UOp.ADDI, rd=3, rs1=3, imm=-8)])
        word = int.from_bytes(new, "little")
        memory = AddressSpace()
        memory.write(CODE, encode_stream([
            MicroOp(UOp.LUI, rd=5, imm=word >> 13),
            MicroOp(UOp.ORI, rd=5, rs1=5, imm=word & 0x1FFF),
            MicroOp(UOp.STW, rd=5, rs1=6, imm=0),
            MicroOp(UOp.ADDI, rd=3, rs1=3, imm=1),     # CODE + 12
            MicroOp(UOp.HALT),
        ]))
        machine = FusibleMachine(memory)
        machine.regs[6] = DATA                 # store misses the code ...
        machine.run(CODE)                      # ... and warms every handler
        assert machine.regs[3] == 1
        machine.regs[6] = CODE + 12            # now it rewrites the ADDI
        assert_runs_like_fresh(machine, CODE)
        assert machine.regs[3] == (1 - 8) & 0xFFFFFFFF
