"""Seeded generator of the many-function guest program.

The program is translation-bound: it has many distinct small functions,
and each one runs only a few times, so most of a Memcheck run goes to the
translation pipeline rather than to executing translated code.

The *shape* is fixed by the constants below and does not depend on the
seed: every function has the same number of instructions, one counted
loop, one branch that goes both ways and, outside the leaves, one call,
so every seed gives the same number of distinct blocks and executed
instructions.  The seed picks the operations (ALU ops, loads and stores
to one heap buffer), their registers and constants, and which leaf each
call goes to, so every pipeline phase sees varied IR.
"""

from __future__ import annotations

import random

#: Seed the benchmark was tuned on, and a second seed held back for
#: checking a later claim on inputs it was not tuned on.
DEFINED_SEED = 1
HELD_BACK_SEED = 2

N_FUNCS = 64
N_LEAVES = 8  # fn0..fn7 make no calls; the others call one of them
BODY_OPS = 8  # random operations per function; body[2:6] run in the
LOOP_START, LOOP_END = 2, 6  # loop, the others once, before or after it
LOOP_TRIPS = 3
REPS = 3  # main calls every function this many times
BUF_WORDS = 256  # the heap buffer, in 32-bit words

_SCRATCH = ("r0", "r1", "r2")  # r3 is the loop counter, r6 the checksum
_ALU_RR = ("add", "sub", "xor", "and", "or", "mul")
_ALU_RI = ("addi", "subi", "xori", "andi", "ori", "muli")
_SHIFTS = ("shli", "shri", "sari", "roli", "rori")


def _op(rng: random.Random) -> list:
    """One random operation other than a call, as assembly lines."""
    a, b = rng.choice(_SCRATCH), rng.choice(_SCRATCH)
    off = 4 * rng.randrange(BUF_WORDS)
    kind = rng.randrange(9)
    if kind == 0:
        return [f"movi {a}, {rng.randrange(1 << 16)}"]
    if kind in (1, 2):
        return [f"{rng.choice(_ALU_RR)} {a}, {b}"]
    if kind == 3:
        return [f"{rng.choice(_ALU_RI)} {a}, {rng.randrange(1, 1 << 12)}"]
    if kind == 4:
        return [f"{rng.choice(_SHIFTS)} {a}, {rng.randrange(1, 31)}"]
    if kind in (5, 6):
        return [f"ld {a}, [r7+{off}]"]
    if kind == 7:
        return [f"st [r7+{off}], {a}"]
    return [f"addm [r7+{off}], {a}"]


def _function(rng: random.Random, i: int) -> list:
    body = [_op(rng) for _ in range(BODY_OPS)]
    if i >= N_LEAVES:
        # One call per non-leaf, before the loop: the block count and the
        # instructions executed do not depend on the seed.
        body[0] = ["push r3", f"call fn{rng.randrange(N_LEAVES)}", "pop r3"]
    lines = [f"fn{i}:"]
    for op in body[:LOOP_START]:
        lines += op
    lines += [f"movi r3, {LOOP_TRIPS}", f"loop{i}:"]
    for op in body[LOOP_START:LOOP_END]:
        lines += op
    # Taken on one trip of the loop and not on the others, so both
    # successors of the branch are translated whatever the seed.
    lines += [
        "cmpi r3, 2",
        f"jne skip{i}",
        f"{rng.choice(_ALU_RI)} r6, {rng.randrange(1, 1 << 12)}",
        f"skip{i}:",
        f"add r6, {rng.choice(_SCRATCH)}",
        "dec r3",
        f"jnz loop{i}",
    ]
    for op in body[LOOP_END:]:
        lines += op
    lines += [f"xor r6, {rng.choice(_SCRATCH)}", "roli r6, 5", "ret"]
    return lines


def generate(seed: int) -> str:
    """The program's assembly (without the libc prelude)."""
    rng = random.Random(seed)
    main = [
        "main:",
        "push fp",
        f"pushi {BUF_WORDS * 4}",
        "call malloc",
        "addi sp, 4",
        "mov r7, r0",
        # Where the buffer lands is the allocator's choice (Memcheck's
        # replacement differs from libc's), so no register keeps it.
        "movi r0, 0",
        "movi r1, 0",
        ".fill:",
        "mov r2, r1",
        f"muli r2, {rng.randrange(1, 1 << 31) | 1}",
        "st [r7+r1*4], r2",
        "inc r1",
        f"cmpi r1, {BUF_WORDS}",
        "jl .fill",
        f"movi r6, {rng.randrange(1 << 31)}",
        f"movi fp, {REPS}",
        ".rep:",
    ]
    main += [f"call fn{i}" for i in range(N_FUNCS)]
    main += [
        "dec fp",
        "jnz .rep",
        "movi r1, 0",
        ".sum:",
        "ld r2, [r7+r1*4]",
        "xor r6, r2",
        "roli r6, 3",
        "inc r1",
        f"cmpi r1, {BUF_WORDS}",
        "jl .sum",
        "push r6",
        "push r7",
        "call free",
        "addi sp, 4",
        "call putint",
        "addi sp, 4",
        "pop fp",
        "movi r0, 0",
        "ret",
    ]
    lines = [".text"] + main
    for i in range(N_FUNCS):
        lines += _function(rng, i)
    return "\n".join(
        ln if ln.endswith(":") else "        " + ln for ln in lines
    ) + "\n"


def memcheck_report() -> str:
    """The Memcheck log every seed's program must produce: one buffer,
    freed, and no errors."""
    return "\n".join([
        "LEAK SUMMARY: definitely lost: 0 bytes in 0 blocks; "
        "still reachable: 0 bytes in 0 blocks",
        f"memcheck: heap usage: 1 allocs, 1 frees, "
        f"{BUF_WORDS * 4} bytes allocated",
        "ERROR SUMMARY: 0 errors from 0 contexts",
    ])
