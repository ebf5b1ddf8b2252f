"""RISC instruction set and structured program builder."""

from repro.isa.builder import AsmBuilder, Cond, eq, eqz, ge, gt, le, lt, ne, nez
from repro.isa.instructions import (
    Instruction,
    Op,
    branch_taken,
    disassemble,
    to_s32,
    to_u32,
)
from repro.isa.program import DATA_BASE, STACK_TOP, Program

__all__ = [
    "AsmBuilder",
    "Cond",
    "DATA_BASE",
    "Instruction",
    "Op",
    "Program",
    "STACK_TOP",
    "branch_taken",
    "disassemble",
    "eq",
    "eqz",
    "ge",
    "gt",
    "le",
    "lt",
    "ne",
    "nez",
    "to_s32",
    "to_u32",
]
