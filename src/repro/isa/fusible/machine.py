"""Functional model of the native (implementation-ISA) machine.

Executes encoded micro-op streams out of memory — in the VM, that memory is
the concealed code cache.  Execution proceeds until a *VM exit event*:

* ``VMEXIT``  — translated code ran off its translation; the architected
  continuation address is in a register (exit stubs build it with
  LUI/ORI).  The VMM dispatch loop takes over.
* ``VMCALL`` — translated code reached a complex architected instruction
  (REP string op, DIV, INT, HLT) that the translators off-load to VMM
  software, exactly like the hardware assists' ``Flag_cmplx`` escape.
* ``HALT``   — the native machine stops (used by bare-metal demos).

The machine also implements the ``XLTX86`` instruction (Table 1): it
delegates to :mod:`repro.hwassist.xltx86` so the backend functional unit
and this executable model are the same hardware by construction.

Execution model (``docs/isa_reference.md``): each micro-op encoding is
decoded once per machine into a *handler*, a closure with its operands,
immediates, zero-register reads and 32-bit masking already settled.  The
handler table is keyed by the encoding itself, and every fetch reads the
code bytes now in memory to look the handler up.  A micro-op whose bytes
changed — chain patch, flush and reinstall, tampering, a store into code —
therefore misses the table and is decoded afresh; no writer of code bytes
needs an invalidation hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.fusible.encoding import UopDecodeError, decode_uop
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import UOp
from repro.isa.fusible.registers import FREG_BYTES, NFREGS, NREGS, R_ZERO
from repro.isa.x86lite.registers import Cond
from repro.memory.address_space import AddressSpace

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000


class NativeMachineError(Exception):
    """Raised on malformed native code or exhausted step budgets."""


@dataclass
class ExitEvent:
    """Why the native machine stopped executing translated code."""

    kind: str                 # 'vmexit' | 'vmcall' | 'halt'
    value: int = 0            # x86 target (vmexit) or service id (vmcall)
    native_pc: int = 0        # address of the exiting micro-op
    resume_pc: int = 0        # address of the following micro-op


def _sext32(value: int) -> int:
    value &= MASK32
    return value - 0x100000000 if value & SIGN32 else value


#: A bound micro-op: ``handler(machine, pc)`` executes the micro-op at
#: ``pc`` and returns the next pc, or ``_EXIT`` after parking an
#: :class:`ExitEvent` on the machine.
Handler = Callable[["FusibleMachine", int], int]

#: (handler, encoded length, fused-head bit) — what one fetch needs.
Bound = Tuple[Handler, int, bool]

_EXIT = -1

# -- flag computation (32-bit x86-style) ---------------------------------------


def _flags_add(m: "FusibleMachine", a: int, b: int, carry: int) -> int:
    raw = (a & MASK32) + (b & MASK32) + carry
    result = raw & MASK32
    m.cf = raw > MASK32
    m.zf = result == 0
    m.sf = bool(result & SIGN32)
    m.of = bool((~(a ^ b) & (a ^ result)) & SIGN32)
    return result


def _flags_sub(m: "FusibleMachine", a: int, b: int, borrow: int) -> int:
    raw = (a & MASK32) - (b & MASK32) - borrow
    result = raw & MASK32
    m.cf = raw < 0
    m.zf = result == 0
    m.sf = bool(result & SIGN32)
    m.of = bool(((a ^ b) & (a ^ result)) & SIGN32)
    return result


def _flags_logic(m: "FusibleMachine", result: int) -> int:
    result &= MASK32
    m.cf = m.of = False
    m.zf = result == 0
    m.sf = bool(result & SIGN32)
    return result


# -- value kernels: kernel(machine, a, b) -> 32-bit result ----------------------
# Each ALU-family op has a plain kernel and a ``.f`` kernel that also
# writes the architected flags.

def _add(m, a, b):
    return (a + b) & MASK32


def _add_f(m, a, b):
    return _flags_add(m, a, b, 0)


def _adc(m, a, b):
    return (a + b + m.cf) & MASK32


def _adc_f(m, a, b):
    return _flags_add(m, a, b, int(m.cf))


def _sub(m, a, b):
    return (a - b) & MASK32


def _sub_f(m, a, b):
    return _flags_sub(m, a, b, 0)


def _sbb(m, a, b):
    return (a - b - m.cf) & MASK32


def _sbb_f(m, a, b):
    return _flags_sub(m, a, b, int(m.cf))


def _and(m, a, b):
    return a & b & MASK32


def _and_f(m, a, b):
    return _flags_logic(m, a & b)


def _or(m, a, b):
    return (a | b) & MASK32


def _or_f(m, a, b):
    return _flags_logic(m, a | b)


def _xor(m, a, b):
    return (a ^ b) & MASK32


def _xor_f(m, a, b):
    return _flags_logic(m, a ^ b)


def _incf_f(m, a, b):
    saved_cf = m.cf
    result = _flags_add(m, a, b, 0)
    m.cf = saved_cf
    return result


def _decf_f(m, a, b):
    saved_cf = m.cf
    result = _flags_sub(m, a, b, 0)
    m.cf = saved_cf
    return result


def _shl(m, a, b):
    return ((a & MASK32) << (b & 31)) & MASK32


def _shl_f(m, a, b):
    a &= MASK32
    count = b & 31
    if count == 0:
        return a
    result = (a << count) & MASK32
    m.cf = cf = bool((a >> (32 - count)) & 1)
    if count == 1:
        m.of = bool(result & SIGN32) != cf
    m.zf = result == 0
    m.sf = bool(result & SIGN32)
    return result


def _shr(m, a, b):
    return (a & MASK32) >> (b & 31)


def _shr_f(m, a, b):
    a &= MASK32
    count = b & 31
    if count == 0:
        return a
    result = a >> count
    m.cf = bool((a >> (count - 1)) & 1)
    if count == 1:
        m.of = bool(a & SIGN32)
    m.zf = result == 0
    m.sf = bool(result & SIGN32)
    return result


def _sar(m, a, b):
    return (_sext32(a) >> (b & 31)) & MASK32


def _sar_f(m, a, b):
    count = b & 31
    if count == 0:
        return a & MASK32
    signed_a = _sext32(a)
    result = (signed_a >> count) & MASK32
    m.cf = bool((signed_a >> (count - 1)) & 1)
    if count == 1:
        m.of = False
    m.zf = result == 0
    m.sf = bool(result & SIGN32)
    return result


def _mull(m, a, b):
    return (_sext32(a) * _sext32(b)) & MASK32


def _mull_f(m, a, b):
    product = _sext32(a) * _sext32(b)
    low = product & MASK32
    m.cf = m.of = product != _sext32(low)
    m.zf = low == 0
    m.sf = bool(low & SIGN32)
    return low


def _mullu(m, a, b):
    return (a * b) & MASK32


def _mullu_f(m, a, b):
    product = a * b
    low = product & MASK32
    m.cf = m.of = product >> 32 != 0
    m.zf = low == 0
    m.sf = bool(low & SIGN32)
    return low


def _mulh(m, a, b):
    return ((_sext32(a) * _sext32(b)) >> 32) & MASK32


def _mulhu(m, a, b):
    return ((a * b) >> 32) & MASK32


# -- operands -----------------------------------------------------------------
# A bound operand is a (file, slot) pair read or written as file[slot]:
# the register list for a live register, a one-element tuple for a
# constant.  Reads of R31 bind to the constant zero and writes to R31 to
# a discard slot, so no handler tests for the zero register at run time.

Operand = Tuple[object, int]

_ZERO: Operand = ((0,), 0)


def _imm(value: int) -> Operand:
    return ((value,), 0)


def _src(regs: List[int], index: int) -> Operand:
    return _ZERO if index == R_ZERO else (regs, index)


def _dst(m: "FusibleMachine", index: int) -> Operand:
    return (m._discard, 0) if index == R_ZERO else (m.regs, index)


# The ALU family's operand shapes: (a, b) fed to the kernel.

def _rd_rs(regs, uop):              # 16-bit forms: rd <- rd op rs
    return (regs, uop.rd), (regs, uop.rs1)


def _rd_imm(regs, uop):             # ADDI2: rd <- rd + imm4
    return (regs, uop.rd), _imm(uop.imm)


def _rs1_rs2(regs, uop):            # 32-bit register forms
    return _src(regs, uop.rs1), _src(regs, uop.rs2)


def _rs1_imm(regs, uop):            # 32-bit immediate forms
    return _src(regs, uop.rs1), _imm(uop.imm)


def _rs1_one(regs, uop):            # INCF/DECF
    return _src(regs, uop.rs1), _imm(1)


#: op -> (plain kernel, .f kernel, operands, writes rd)
_ALU: Dict[UOp, Tuple[Callable, Callable, Callable, bool]] = {
    UOp.ADD2: (_add, _add_f, _rd_rs, True),
    UOp.SUB2: (_sub, _sub_f, _rd_rs, True),
    UOp.AND2: (_and, _and_f, _rd_rs, True),
    UOp.OR2: (_or, _or_f, _rd_rs, True),
    UOp.XOR2: (_xor, _xor_f, _rd_rs, True),
    UOp.CMP2: (_sub_f, _sub_f, _rd_rs, False),
    UOp.TEST2: (_and_f, _and_f, _rd_rs, False),
    UOp.ADDI2: (_add, _add_f, _rd_imm, True),
    UOp.ADD: (_add, _add_f, _rs1_rs2, True),
    UOp.ADC: (_adc, _adc_f, _rs1_rs2, True),
    UOp.SUB: (_sub, _sub_f, _rs1_rs2, True),
    UOp.SBB: (_sbb, _sbb_f, _rs1_rs2, True),
    UOp.AND: (_and, _and_f, _rs1_rs2, True),
    UOp.OR: (_or, _or_f, _rs1_rs2, True),
    UOp.XOR: (_xor, _xor_f, _rs1_rs2, True),
    UOp.SHL: (_shl, _shl_f, _rs1_rs2, True),
    UOp.SHR: (_shr, _shr_f, _rs1_rs2, True),
    UOp.SAR: (_sar, _sar_f, _rs1_rs2, True),
    UOp.MULL: (_mull, _mull_f, _rs1_rs2, True),
    UOp.MULLU: (_mullu, _mullu_f, _rs1_rs2, True),
    UOp.MULH: (_mulh, _mulh, _rs1_rs2, True),
    UOp.MULHU: (_mulhu, _mulhu, _rs1_rs2, True),
    UOp.ADDI: (_add, _add_f, _rs1_imm, True),
    UOp.SUBI: (_sub, _sub_f, _rs1_imm, True),
    UOp.ANDI: (_and, _and_f, _rs1_imm, True),
    UOp.ORI: (_or, _or_f, _rs1_imm, True),
    UOp.XORI: (_xor, _xor_f, _rs1_imm, True),
    UOp.SHLI: (_shl, _shl_f, _rs1_imm, True),
    UOp.SHRI: (_shr, _shr_f, _rs1_imm, True),
    UOp.SARI: (_sar, _sar_f, _rs1_imm, True),
    UOp.INCF: (_add, _incf_f, _rs1_one, True),
    UOp.DECF: (_sub, _decf_f, _rs1_one, True),
}

#: Condition tests by base code (``Cond`` with the negate bit clear);
#: the negate bit is settled at bind time.
_COND_TESTS: Dict[int, Callable[["FusibleMachine"], bool]] = {
    Cond.O: lambda m: m.of,
    Cond.B: lambda m: m.cf,
    Cond.E: lambda m: m.zf,
    Cond.BE: lambda m: m.cf or m.zf,
    Cond.S: lambda m: m.sf,
    Cond.L: lambda m: m.sf != m.of,
    Cond.LE: lambda m: m.zf or (m.sf != m.of),
}


def _cond(cond: Cond) -> Tuple[Callable[["FusibleMachine"], bool], bool]:
    """(test, negate): the condition holds when ``test(m) != negate``."""
    return _COND_TESTS[cond & ~1], bool(cond & 1)


# -- binders: (machine, uop) -> handler ----------------------------------------


def _bind_alu(m: "FusibleMachine", uop: MicroOp) -> Handler:
    plain, flagged, operands, writes = _ALU[uop.op]
    kernel = flagged if uop.setflags else plain
    (a_file, i), (b_file, j) = operands(m.regs, uop)
    out_file, out = _dst(m, uop.rd) if writes else (m._discard, 0)
    length = uop.length

    def alu(m, pc):
        out_file[out] = kernel(m, a_file[i], b_file[j])
        return pc + length
    return alu


def _bind_lui(m: "FusibleMachine", uop: MicroOp) -> Handler:
    out_file, out = _dst(m, uop.rd)
    value, length = (uop.imm << 13) & MASK32, uop.length

    def lui(m, pc):
        out_file[out] = value
        return pc + length
    return lui


def _bind_mov2(m: "FusibleMachine", uop: MicroOp) -> Handler:
    regs, rd, rs, length = m.regs, uop.rd, uop.rs1, uop.length

    def mov2(m, pc):
        regs[rd] = regs[rs]
        return pc + length
    return mov2


def _bind_nop(m: "FusibleMachine", uop: MicroOp) -> Handler:
    length = uop.length

    def nop(m, pc):
        return pc + length
    return nop


def _bind_sel(m: "FusibleMachine", uop: MicroOp) -> Handler:
    test, negate = _cond(uop.cond)
    out_file, out = _dst(m, uop.rd)
    a_file, i = _src(m.regs, uop.rs1)
    length = uop.length

    def sel(m, pc):
        if test(m) != negate:
            out_file[out] = a_file[i]
        return pc + length
    return sel


def _signed16(value: int) -> int:
    return value | 0xFFFF0000 if value & 0x8000 else value


def _signed8(value: int) -> int:
    return value | 0xFFFFFF00 if value & 0x80 else value


def _bind_load(m: "FusibleMachine", uop: MicroOp) -> Handler:
    memory, op = m.memory, uop.op
    if op is UOp.LDW:
        read = memory.read_u32
    elif op is UOp.LDHU:
        read = memory.read_u16
    elif op is UOp.LDBU:
        read = memory.read_u8
    elif op is UOp.LDHS:
        def read(addr, _read=memory.read_u16):
            return _signed16(_read(addr))
    else:
        def read(addr, _read=memory.read_u8):
            return _signed8(_read(addr))
    out_file, out = _dst(m, uop.rd)
    base_file, i = _src(m.regs, uop.rs1)
    imm, length = uop.imm, uop.length

    def load(m, pc):
        out_file[out] = read((base_file[i] + imm) & MASK32)
        return pc + length
    return load


def _bind_store(m: "FusibleMachine", uop: MicroOp) -> Handler:
    memory, op = m.memory, uop.op
    write = (memory.write_u32 if op is UOp.STW
             else memory.write_u16 if op is UOp.STH else memory.write_u8)
    data_file, d = _src(m.regs, uop.rd)
    base_file, i = _src(m.regs, uop.rs1)
    imm, length = uop.imm, uop.length

    def store(m, pc):
        write((base_file[i] + imm) & MASK32, data_file[d])
        return pc + length
    return store


def _bind_ldf(m: "FusibleMachine", uop: MicroOp) -> Handler:
    read, freg = m.memory.read, m.fregs[uop.rd]
    base_file, i = _src(m.regs, uop.rs1)
    imm, length = uop.imm, uop.length

    def ldf(m, pc):
        freg[:] = read((base_file[i] + imm) & MASK32, FREG_BYTES)
        return pc + length
    return ldf


def _bind_stf(m: "FusibleMachine", uop: MicroOp) -> Handler:
    write, freg = m.memory.write, m.fregs[uop.rd]
    base_file, i = _src(m.regs, uop.rs1)
    imm, length = uop.imm, uop.length

    def stf(m, pc):
        write((base_file[i] + imm) & MASK32, bytes(freg))
        return pc + length
    return stf


def _bind_bc(m: "FusibleMachine", uop: MicroOp) -> Handler:
    test, negate = _cond(uop.cond)
    length = uop.length
    skip = length + uop.imm

    def bc(m, pc):
        if test(m) != negate:
            return (pc + skip) & MASK32
        return pc + length
    return bc


def _bind_jmp(m: "FusibleMachine", uop: MicroOp) -> Handler:
    skip = uop.length + uop.imm

    def jmp(m, pc):
        return (pc + skip) & MASK32
    return jmp


def _bind_jr(m: "FusibleMachine", uop: MicroOp) -> Handler:
    a_file, i = _src(m.regs, uop.rs1)

    def jr(m, pc):
        return a_file[i]
    return jr


def _bind_jcsr(m: "FusibleMachine", uop: MicroOp) -> Handler:
    flag = "csr_cmplx" if uop.op is UOp.JCSRC else "csr_cti"
    length = uop.length
    skip = length + uop.imm

    def jcsr(m, pc):
        if getattr(m, flag):
            return (pc + skip) & MASK32
        return pc + length
    return jcsr


def _bind_exit(m: "FusibleMachine", uop: MicroOp) -> Handler:
    op = uop.op
    kind = op.value                    # 'vmexit' | 'vmcall' | 'halt'
    value_file, v = (_src(m.regs, uop.rs1) if op is UOp.VMEXIT
                     else _imm(uop.imm) if op is UOp.VMCALL else _ZERO)
    length = uop.length

    def vm_exit(m, pc):
        m._exit_event = ExitEvent(kind, value=value_file[v], native_pc=pc,
                                  resume_pc=pc + length)
        return _EXIT
    return vm_exit


def _bind_rdflg(m: "FusibleMachine", uop: MicroOp) -> Handler:
    out_file, out = _dst(m, uop.rd)
    length = uop.length

    def rdflg(m, pc):
        out_file[out] = m.flags_packed()
        return pc + length
    return rdflg


def _bind_wrflg(m: "FusibleMachine", uop: MicroOp) -> Handler:
    a_file, i = _src(m.regs, uop.rs1)
    length = uop.length

    def wrflg(m, pc):
        m.set_flags_packed(a_file[i])
        return pc + length
    return wrflg


def _bind_ldcsr(m: "FusibleMachine", uop: MicroOp) -> Handler:
    out_file, out = _dst(m, uop.rd)
    length = uop.length

    def ldcsr(m, pc):
        out_file[out] = m.csr
        return pc + length
    return ldcsr


def _bind_xltx86(m: "FusibleMachine", uop: MicroOp) -> Handler:
    # Delegate to the backend functional-unit model (Table 1).
    from repro.hwassist.xltx86 import XLTx86Unit
    source, dest = m.fregs[uop.rs1], m.fregs[uop.rd]
    length = uop.length

    def xltx86(m, pc):
        result = XLTx86Unit().translate(bytes(source))
        dest[:] = result.uop_bytes_padded
        m.csr_ilen = result.x86_ilen
        m.csr_uop_bytes = result.uop_byte_count
        m.csr_cmplx = result.flag_cmplx
        m.csr_cti = result.flag_cti
        return pc + length
    return xltx86


_BINDERS: Dict[UOp, Callable[["FusibleMachine", MicroOp], Handler]] = {
    **{op: _bind_alu for op in _ALU},
    UOp.NOP: _bind_nop, UOp.NOP2: _bind_nop, UOp.MOV2: _bind_mov2,
    UOp.SEL: _bind_sel, UOp.LUI: _bind_lui,
    UOp.LDW: _bind_load, UOp.LDHU: _bind_load, UOp.LDHS: _bind_load,
    UOp.LDBU: _bind_load, UOp.LDBS: _bind_load,
    UOp.STW: _bind_store, UOp.STH: _bind_store, UOp.STB: _bind_store,
    UOp.LDF: _bind_ldf, UOp.STF: _bind_stf,
    UOp.BC: _bind_bc, UOp.JMP: _bind_jmp, UOp.JR: _bind_jr,
    UOp.JCSRC: _bind_jcsr, UOp.JCSRT: _bind_jcsr,
    UOp.VMEXIT: _bind_exit, UOp.VMCALL: _bind_exit, UOp.HALT: _bind_exit,
    UOp.RDFLG: _bind_rdflg, UOp.WRFLG: _bind_wrflg,
    UOp.LDCSR: _bind_ldcsr, UOp.XLTX86: _bind_xltx86,
}


class FusibleMachine:
    """Executes fusible-ISA micro-op code from an address space."""

    def __init__(self, memory: AddressSpace) -> None:
        self.memory = memory
        # Handlers hold these containers; mutate them in place, never
        # rebind them.
        self.regs: List[int] = [0] * NREGS
        self.fregs: List[bytearray] = [bytearray(FREG_BYTES)
                                       for _ in range(NFREGS)]
        #: write-only slot that bound writes to R31 land in
        self._discard: List[int] = [0]
        self.cf = self.zf = self.sf = self.of = False
        #: next micro-op to fetch (after ``run``: the resume address)
        self.pc = 0
        # CSR fields written by XLTX86 (widened to 5-bit byte counts; see
        # repro.hwassist.xltx86 for the documented deviation from Fig. 6b).
        self.csr_ilen = 0
        self.csr_uop_bytes = 0
        self.csr_cmplx = False
        self.csr_cti = False
        #: the exit a handler parked before returning ``_EXIT``
        self._exit_event: Optional[ExitEvent] = None
        # statistics
        self.uops_executed = 0
        self.fused_pairs_seen = 0
        self.uop_bytes_fetched = 0
        # encoding (the 16-bit parcel or the 32-bit word) -> bound handler
        self._handlers: Dict[int, Bound] = {}

    # -- register helpers -----------------------------------------------------

    def get_reg(self, index: int) -> int:
        return 0 if index == R_ZERO else self.regs[index]

    @property
    def csr(self) -> int:
        """Packed CSR (Fig. 6b, with 5-bit byte-count fields)."""
        return (self.csr_ilen | (self.csr_uop_bytes << 5)
                | (int(self.csr_cmplx) << 10) | (int(self.csr_cti) << 11))

    def flags_packed(self) -> int:
        return (int(self.cf) | (int(self.zf) << 1) | (int(self.sf) << 2)
                | (int(self.of) << 3))

    def set_flags_packed(self, value: int) -> None:
        self.cf = bool(value & 1)
        self.zf = bool(value & 2)
        self.sf = bool(value & 4)
        self.of = bool(value & 8)

    # -- binding -------------------------------------------------------------

    def _bind(self, uop: MicroOp) -> Handler:
        return _BINDERS[uop.op](self, uop)

    def _decode(self, word: int, pc: int) -> Bound:
        """Decode the fetch window ``word`` and intern its handler."""
        try:
            uop = decode_uop(word.to_bytes(4, "little"))
        except UopDecodeError as exc:
            raise NativeMachineError(f"bad native code at {pc:#x}: "
                                     f"{exc}") from exc
        bound = (self._bind(uop), uop.length, uop.fused)
        self._handlers[word if uop.length == 4 else word & 0xFFFF] = bound
        return bound

    # -- execution -----------------------------------------------------------

    def execute_uops(self, uops) -> Optional[ExitEvent]:
        """Execute a straight-line micro-op list (no fetch, no branches).

        Used by the VMM for stub sequences and by differential tests.
        In-stream branches (BC/JMP/JR) are rejected — lists have no
        program counter to branch within, so exits carry none either.
        """
        for uop in uops:
            if uop.op in (UOp.BC, UOp.JMP, UOp.JR):
                raise NativeMachineError(
                    f"branch {uop.op.value} in straight-line list")
            handler = self._bind(uop)
            self.uops_executed += 1
            self.uop_bytes_fetched += uop.length
            self.fused_pairs_seen += uop.fused
            if handler(self, 0) == _EXIT:
                event = self._exit_event
                return ExitEvent(event.kind, value=event.value)
        return None

    def run(self, start_pc: int, max_uops: int = 10_000_000) -> ExitEvent:
        """Run from ``start_pc`` until the next VM exit event.

        Each fetch reads the 32-bit window at ``pc`` and looks its
        encoding up in the handler table (bit 14 of the first parcel
        marks a 32-bit micro-op; a 16-bit one is keyed by that parcel
        alone).  A miss decodes the window; a micro-op that fails to
        decode is not counted.
        """
        handlers = self._handlers
        fetch = self.memory.read_u32
        pc = start_pc
        executed = fetched = fused = 0
        try:
            while executed < max_uops:
                word = fetch(pc)
                bound = handlers.get(word if word & 0x4000
                                     else word & 0xFFFF)
                if bound is None:
                    bound = self._decode(word, pc)
                handler, length, head = bound
                executed += 1
                fetched += length
                fused += head
                pc = handler(self, pc)
                if pc == _EXIT:
                    event = self._exit_event
                    pc = event.resume_pc
                    return event
        finally:
            self.pc = pc
            self.uops_executed += executed
            self.uop_bytes_fetched += fetched
            self.fused_pairs_seen += fused
        raise NativeMachineError(f"no VM exit within {max_uops} micro-ops")
