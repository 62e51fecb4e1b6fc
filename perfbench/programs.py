"""Seeded generator of x86lite boot programs.

Every program has the shape of the paper's Fig. 3 cold tail: a static
footprint of about 50-300 basic blocks, almost all of which execute only
1-3 times, plus one hot loop that crosses the VM's hot threshold so the
superblock translator and macro-op fusion also run.

* Straight-line code is split into *segments*.  A segment is a counted
  loop (ECX = 1, 2 or 3 in turn) whose body holds a parity diamond (``test ecx,
  1`` / ``jz``), a call to a private leaf function and a few
  fall-through blocks, so each of its blocks runs 1-3 times.
* The instruction mix covers ALU reg/reg and reg/imm, memory operands
  (loads, stores, read-modify-write) against a data area addressed off
  EDI, ``lea``, shifts, ``imul``, push/pop, call/ret and Jcc.
* The hot loop runs :data:`HOT_ITERS` times, above the hot threshold
  of 50 the benchmark boots with.
* The program ends by printing EAX, EBX, EDX and ESI and exiting with
  ``EDI``'s low byte mixed into the exit code, so the architected
  results the oracle compares depend on every block.

Generation uses only :class:`random.Random` seeded by the caller, so the
same seed yields byte-identical source on every machine.
"""

from __future__ import annotations

import random
from typing import List

#: Data area the generated code reads and writes (EDI holds it).
DATA_BASE = 0x600000
#: Bytes of the data area the generated code touches.
DATA_SPAN = 256

#: Static footprint range (basic blocks) of one generated program.
MIN_BLOCKS = 50
MAX_BLOCKS = 300

#: Iterations of the hot loop, well above the hot threshold of 50.  It
#: is the same in every program: it is a quarter of a small program's
#: boot time, so varying it would swamp the footprint's effect.
HOT_ITERS = 160

#: Registers the generated ALU code may clobber.  ECX is the segment
#: loop counter, EDI the data base and ESP the stack.
_WORK = ("eax", "ebx", "edx", "esi")
_ALU = ("add", "sub", "and", "or", "xor")
_JCC = ("jz", "jnz")


def _instr(rng: random.Random) -> str:
    """One random straight-line instruction from the covered mix."""
    dst = rng.choice(_WORK)
    src = rng.choice(_WORK)
    disp = 4 * rng.randrange(DATA_SPAN // 4)
    kind = rng.randrange(10)
    if kind == 0:
        return f"{rng.choice(_ALU)} {dst}, {src}"
    if kind == 1:
        return f"{rng.choice(_ALU)} {dst}, {rng.randrange(1, 4096)}"
    if kind == 2:
        return f"mov {dst}, [edi+{disp}]"
    if kind == 3:
        return f"mov [edi+{disp}], {src}"
    if kind == 4:
        return f"{rng.choice(('add', 'xor', 'sub'))} {dst}, [edi+{disp}]"
    if kind == 5:
        return f"add [edi+{disp}], {src}"
    if kind == 6:
        return f"lea {dst}, [{src}+{rng.randrange(1, 64)}]"
    if kind == 7:
        return f"{rng.choice(('shl', 'shr'))} {dst}, {rng.randrange(1, 8)}"
    if kind == 8:
        return f"imul {dst}, {src}, {rng.randrange(3, 17)}"
    return f"{rng.choice(('inc', 'dec'))} {dst}"


def _straight(rng: random.Random, lines: List[str], low: int = 2,
              high: int = 5) -> None:
    for _ in range(rng.randint(low, high)):
        lines.append("    " + _instr(rng))


def generate(seed: int, blocks: int) -> str:
    """Assembly source of a program of about ``blocks`` basic blocks.

    A segment contributes six blocks (loop head, diamond arm, join,
    call, function body, loop tail); the prologue, hot loop and exit
    code add a few more.
    """
    if not MIN_BLOCKS <= blocks <= MAX_BLOCKS:
        raise ValueError(f"footprint {blocks} outside "
                         f"{MIN_BLOCKS}-{MAX_BLOCKS} blocks")
    rng = random.Random(seed)
    segments = max(1, (blocks - 8) // 6)
    lines = ["start:", f"    mov edi, {DATA_BASE}"]
    for reg in _WORK:
        lines.append(f"    mov {reg}, {rng.randrange(1, 1 << 20)}")
    functions: List[str] = []
    # segment trip counts cycle 1, 2, 3 from a seeded phase, so two
    # programs of one footprint execute about as many instructions
    phase = rng.randrange(3)
    for index in range(segments):
        top, arm, join = f"s{index}", f"s{index}a", f"s{index}j"
        lines.append(f"    mov ecx, {1 + (index + phase) % 3}")
        lines.append(f"{top}:")
        _straight(rng, lines)
        lines.append("    test ecx, 1")
        lines.append(f"    {rng.choice(_JCC)} {join}")
        lines.append(f"{arm}:")
        _straight(rng, lines, 1, 3)
        lines.append(f"{join}:")
        _straight(rng, lines, 1, 3)
        lines.append(f"    call f{index}")
        _straight(rng, lines, 1, 3)
        lines.append("    dec ecx")
        lines.append(f"    jnz {top}")
        saved = rng.choice(_WORK)
        functions.append(f"f{index}:")
        functions.append(f"    push {saved}")
        _straight(rng, functions, 2, 4)
        functions.append(f"    pop {saved}")
        functions.append("    ret")
    # the hot loop: two blocks per iteration, both far above threshold
    lines.append(f"    mov ecx, {HOT_ITERS}")
    lines.append("hot:")
    _straight(rng, lines, 3, 5)
    lines.append("    test ecx, 1")
    lines.append("    jz hot_even")
    _straight(rng, lines, 1, 2)
    lines.append("hot_even:")
    _straight(rng, lines, 2, 3)
    lines.append("    dec ecx")
    lines.append("    jnz hot")
    for slot, reg in enumerate(_WORK):
        lines.append(f"    mov [edi+{4 * slot}], {reg}")
    for slot in range(len(_WORK)):
        lines.append(f"    mov ebx, [edi+{4 * slot}]")
        lines.append("    mov eax, 1")
        lines.append("    int 0x80")
    lines.append(f"    mov ebx, [edi+{4 * len(_WORK)}]")
    lines.append("    and ebx, 127")
    lines.append("    mov eax, 0")
    lines.append("    int 0x80")
    return "\n".join(lines + functions) + "\n"


def footprints(rounds: int, per_round: int,
               rng: random.Random) -> List[int]:
    """``rounds`` x ``per_round`` footprints over the 50-300 block range.

    Each round holds the midpoint of each of ``per_round`` equal-width
    strata, in shuffled order.  Every seed, and every whole number of
    rounds, therefore boots the same footprints; the programs behind
    them differ with the seed.  Random footprints within a stratum
    would let a handful of programs near the middle move the median
    latency by a fifth from seed to seed.
    """
    width = (MAX_BLOCKS - MIN_BLOCKS) / per_round
    sizes: List[int] = []
    for _ in range(rounds):
        batch = [int(MIN_BLOCKS + width * (index + 0.5))
                 for index in range(per_round)]
        rng.shuffle(batch)
        sizes.extend(batch)
    return sizes
