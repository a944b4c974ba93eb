"""Deterministic interpreter for the IR subset."""

from .arena import MemoryArena, OutOfBounds
from .intrinsics import INTRINSIC_NAMES, INTRINSICS, InStream
from .machine import (DEFAULT_BUDGET, MAX_DEPTH, TRAP_KINDS, Activation,
                      IoConfig, Machine, RunOutcome, TrapInfo, VmError,
                      value_bits)

__all__ = [
    "MemoryArena", "OutOfBounds", "INTRINSIC_NAMES", "INTRINSICS", "InStream",
    "DEFAULT_BUDGET", "MAX_DEPTH", "TRAP_KINDS", "Activation", "IoConfig",
    "Machine", "RunOutcome", "TrapInfo", "VmError", "value_bits",
]
