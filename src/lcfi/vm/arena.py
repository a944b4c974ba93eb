"""Flat little-endian memory with bump allocation.

Addresses are plain integers. 0 is the null pointer and never mapped; stream
handles live below `base` so dereferencing one traps like any wild pointer.
Stack discipline comes from mark/release: a frame snapshots the top on entry
and rolls back on return. Bounds are checked on access, not at pointer
arithmetic, so a getelementptr may wander as long as it is never dereferenced.
"""

from __future__ import annotations

import struct

from ..ir.nodes import SCALARS, to_f32


# Heap addresses start here; everything below belongs to the stack arena.
HEAP_BASE = 1 << 32


class OutOfBounds(Exception):
    def __init__(self, addr: int, size: int, message: str = ""):
        self.addr = addr
        self.size = size
        super().__init__(message or f"access of {size} byte(s) at 0x{addr:x}")


class MemoryArena:
    def __init__(self, base: int = 0x1000, capacity: int = 1 << 26):
        self.base = base
        self.top = base
        self.capacity = capacity
        self._mem = bytearray()

    def alloc(self, size: int, align: int = 8) -> int:
        size = max(1, int(size))
        align = max(1, int(align))
        addr = (self.top + align - 1) // align * align
        new_top = addr + size
        if new_top - self.base > self.capacity:
            raise OutOfBounds(addr, size, f"allocation of {size} bytes exceeds arena capacity")
        # scrub any reused stack region so re-allocation is deterministic
        lo = self.top - self.base
        hi = min(new_top - self.base, len(self._mem))
        if hi > lo:
            self._mem[lo:hi] = b"\x00" * (hi - lo)
        if new_top - self.base > len(self._mem):
            self._mem.extend(b"\x00" * (new_top - self.base - len(self._mem)))
        self.top = new_top
        return addr

    def mark(self) -> int:
        return self.top

    def release(self, mark: int) -> None:
        self.top = mark

    def _check(self, addr: int, size: int) -> None:
        if addr < self.base or addr + size > self.top:
            raise OutOfBounds(addr, size)

    def load_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        off = addr - self.base
        return bytes(self._mem[off:off + size])

    def store_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        off = addr - self.base
        self._mem[off:off + len(data)] = data

    def load(self, addr: int, kind: str):
        """The scalar of `kind` (see SCALARS) at `addr`; an i1 keeps one bit."""
        size, fmt = SCALARS[kind]
        self._check(addr, size)
        value = struct.unpack_from(fmt, self._mem, addr - self.base)[0]
        return value & 1 if kind == "i1" else value

    def store(self, addr: int, kind: str, value) -> None:
        """Store a scalar: integers are masked to the width, f32 is rounded."""
        size, fmt = SCALARS[kind]
        self._check(addr, size)
        if kind == "f32":
            value = to_f32(float(value))
        elif kind != "f64":
            value = int(value) & ((1 << 8 * size) - 1)
            fmt = fmt.upper()  # the unsigned format of the same width
        struct.pack_into(fmt, self._mem, addr - self.base, value)

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> str:
        out = bytearray()
        a = addr
        while len(out) < limit:
            b = self.load_bytes(a, 1)[0]
            if b == 0:
                return out.decode("utf-8", errors="replace")
            out.append(b)
            a += 1
        raise OutOfBounds(addr, limit, "unterminated string")

    def write_cstring(self, addr: int, text: str) -> None:
        self.store_bytes(addr, text.encode("utf-8") + b"\x00")
