"""Instruction set of the simulated machine.

Instructions are plain tuples ``(opcode, a, b, c, d)`` (unused operands
are ``None``); opcodes are small ints so the interpreter can dispatch on
them cheaply.  Operand conventions:

* ``dst``/``src`` operands are *local slot* indices within the current
  frame;
* ``imm`` operands are immediate Python ints;
* ``g`` operands index the global slot table;
* jump targets are absolute pcs within the current function (the
  builder resolves labels);
* memory operands: the effective address of LOAD/STORE is
  ``locals[addr_slot] + offset_imm``.

All values are unsigned 64-bit conceptually; arithmetic wraps at 64
bits, mirroring C behaviour on the platforms the paper targets.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.heap.base import MEM_CODECS

# -- opcode numbering (dense, keep in sync with OPCODE_NAMES) -----------
NOP = 0
CONST = 1      # dst, imm
MOV = 2        # dst, src
ADD = 3        # dst, a, b
SUB = 4
MUL = 5
DIV = 6        # faults on zero divisor
MOD = 7        # faults on zero divisor
AND = 8
OR = 9
XOR = 10
SHL = 11
SHR = 12
LT = 13        # dst = 1 if a < b else 0   (unsigned compare)
LE = 14
GT = 15
GE = 16
EQ = 17
NE = 18
NOT = 19       # dst, src : logical not
NEG = 20       # dst, src : two's-complement negate
JMP = 21       # target_pc
JZ = 22        # src, target_pc
JNZ = 23       # src, target_pc
CALL = 24      # dst_or_None, func_name, arg_slots_tuple
RET = 25       # src_or_None
MALLOC = 26    # dst, size_slot
FREE = 27      # addr_slot
LOAD = 28      # dst, addr_slot, offset_imm, size_imm
STORE = 29     # addr_slot, offset_imm, size_imm, val_slot
MEMSET = 30    # addr_slot, val_slot, len_slot
MEMCPY = 31    # dst_slot, src_slot, len_slot
IN = 32        # dst : next input token (halts run when exhausted)
OUT = 33       # src : append to output log
ASSERT = 34    # src, msg_imm : AssertionFailure when src == 0
HALT = 35
GLOAD = 36     # dst, g
GSTORE = 37    # g, src
RAND = 38      # dst : non-checkpointed entropy (nondeterminism source)
ADDI = 39      # dst, src, imm  (fused add-immediate; hot in loops)

OPCODE_NAMES = [
    "NOP", "CONST", "MOV", "ADD", "SUB", "MUL", "DIV", "MOD", "AND",
    "OR", "XOR", "SHL", "SHR", "LT", "LE", "GT", "GE", "EQ", "NE",
    "NOT", "NEG", "JMP", "JZ", "JNZ", "CALL", "RET", "MALLOC", "FREE",
    "LOAD", "STORE", "MEMSET", "MEMCPY", "IN", "OUT", "ASSERT", "HALT",
    "GLOAD", "GSTORE", "RAND", "ADDI",
]

#: Binary arithmetic/comparison opcodes (used by builder and compiler).
BINOPS = {
    "+": ADD, "-": SUB, "*": MUL, "/": DIV, "%": MOD,
    "&": AND, "|": OR, "^": XOR, "<<": SHL, ">>": SHR,
    "<": LT, "<=": LE, ">": GT, ">=": GE, "==": EQ, "!=": NE,
}

#: LOAD/STORE widths: exactly the widths the simulated memory has a
#: codec for.
VALID_MEM_SIZES = tuple(MEM_CODECS)

Instr = Tuple[int, Optional[object], Optional[object],
              Optional[object], Optional[object]]


def make(op: int, a=None, b=None, c=None, d=None) -> Instr:
    return (op, a, b, c, d)


def render_instr(instr: Instr) -> str:
    op = instr[0]
    args = ", ".join(repr(x) for x in instr[1:] if x is not None)
    return f"{OPCODE_NAMES[op]} {args}" if args else OPCODE_NAMES[op]
