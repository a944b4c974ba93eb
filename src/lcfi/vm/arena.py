"""Flat little-endian memory with bump allocation.

Addresses are plain integers. 0 is the null pointer and never mapped; stream
handles live below `base` so dereferencing one traps like any wild pointer.
Stack discipline comes from mark/release: a frame snapshots the top on entry
and rolls back on return. Bounds are checked on access, not at pointer
arithmetic, so a getelementptr may wander as long as it is never dereferenced.
A scalar is stored as it is, in its type's one form (see lcfi.vm.decode),
with its SCALARS format.
"""

from __future__ import annotations

import struct

from ..ir.nodes import SCALARS


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
        """The address of `size` fresh zero bytes (one if `size` is 0),
        aligned to `align`."""
        size = size or 1
        addr = (self.top + align - 1) // align * align
        new_top = addr + size
        if new_top - self.base > self.capacity:
            raise OutOfBounds(addr, size, f"allocation of {size} bytes exceeds arena capacity")
        # scrub any reused stack region so re-allocation is deterministic; the
        # slice reaches past the end of _mem when the arena grows
        lo, hi = self.top - self.base, new_top - self.base
        self._mem[lo:hi] = bytes(hi - lo)
        self.top = new_top
        return addr

    def copy(self) -> MemoryArena:
        """An independent arena with the same contents and top."""
        twin = MemoryArena(self.base, self.capacity)
        twin.top = self.top
        twin._mem = self._mem.copy()
        return twin

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

    def store(self, addr: int, kind: str, value) -> None:
        """Store a value of `kind` (see SCALARS), as it is."""
        size, fmt = SCALARS[kind]
        self._check(addr, size)
        struct.pack_into(fmt, self._mem, addr - self.base, value)

    def read_cbytes(self, addr: int, limit: int = 1 << 20) -> bytearray:
        """The bytes of the NUL-terminated string at `addr`, of at most
        `limit` bytes."""
        off = addr - self.base
        if off < 0 < limit:
            raise OutOfBounds(addr, 1)
        end = min(self.top - self.base, off + limit)
        nul = self._mem.find(0, off, end)
        if nul >= 0:
            return self._mem[off:nul]
        if end - off >= limit:
            raise OutOfBounds(addr, limit, "unterminated string")
        raise OutOfBounds(self.base + max(off, end), 1)  # the first byte past top

    def read_cstring(self, addr: int, limit: int = 1 << 20) -> str:
        """The NUL-terminated string at `addr`, of at most `limit` bytes."""
        return self.read_cbytes(addr, limit).decode("utf-8", errors="replace")
