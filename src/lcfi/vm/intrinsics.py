"""Host implementations of the external functions the runtime understands.

Each intrinsic takes the machine and the evaluated argument list and returns
the call's value. Stream handles are small integers below the arena base, so
a program that tries to dereference one traps as out-of-bounds instead of
corrupting memory.
"""

from __future__ import annotations

import math
import re

STDIN_HANDLE = 8
STDOUT_HANDLE = 16
STDERR_HANDLE = 24
_FIRST_FILE_HANDLE = 32


class InStream:
    """Pull-based text input with C-style whitespace handling."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def getc(self) -> str | None:
        if self.pos >= len(self.text):
            return None
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def ungetc(self) -> None:
        if self.pos > 0:
            self.pos -= 1

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def match(self, pattern: re.Pattern) -> str | None:
        m = pattern.match(self.text, self.pos)
        if m is None or not m.group(0):
            return None
        self.pos = m.end()
        return m.group(0)

    def at_eof(self) -> bool:
        return self.pos >= len(self.text)


_PRINTF_DIRECTIVE = re.compile(
    r"%([-+0 #]*)(\d+)?(?:\.(\d+))?(l{0,2}|h{0,2})([dioufFeEgGcsxXp%])")

_INT_TOKEN = re.compile(r"[+-]?\d+")
_FLOAT_TOKEN = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_WORD_TOKEN = re.compile(r"\S+")


def _cstring(machine, addr) -> str:
    addr = int(addr)
    return machine.mem_for(addr).read_cstring(addr)


def _do_printf(machine, fmt: str, args: list) -> int:
    out = []
    argi = 0

    def next_arg():
        nonlocal argi
        if argi >= len(args):
            machine.trap("bad_intrinsic_arg", "printf: not enough arguments")
        v = args[argi]
        argi += 1
        return v

    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        m = _PRINTF_DIRECTIVE.match(fmt, i)
        if m is None:
            machine.trap("bad_intrinsic_arg", f"printf: bad directive at {fmt[i:i+8]!r}")
        flags, width, prec, _length, conv = m.groups()
        i = m.end()
        if conv == "%":
            out.append("%")
            continue
        spec = "%" + flags + (width or "") + ("." + prec if prec else "")
        if conv in "di":
            out.append((spec + "d") % int(next_arg()))
        elif conv == "u":
            out.append((spec + "d") % (int(next_arg()) & 0xFFFFFFFFFFFFFFFF))
        elif conv in "fFeEgG":
            out.append((spec + conv.lower()) % float(next_arg()))
        elif conv in "xX":
            out.append((spec + conv) % (int(next_arg()) & 0xFFFFFFFFFFFFFFFF))
        elif conv == "c":
            out.append(chr(int(next_arg()) & 0xFF))
        elif conv == "s":
            out.append(_cstring(machine, next_arg()))
        elif conv == "p":
            out.append("0x%x" % (int(next_arg()) & 0xFFFFFFFFFFFFFFFF))
        else:
            machine.trap("bad_intrinsic_arg", f"printf: %{conv} unsupported")
    text = "".join(out)
    machine.write_stdout(text)
    return len(text)


def _intrinsic_printf(machine, args):
    if not args:
        machine.trap("bad_intrinsic_arg", "printf: missing format string")
    fmt = _cstring(machine, args[0])
    return _do_printf(machine, fmt, args[1:])


def _intrinsic_scanf(machine, args):
    if not args:
        machine.trap("bad_intrinsic_arg", "scanf: missing format string")
    fmt = _cstring(machine, args[0])
    stream = machine.state.stdin
    assigned = 0
    argi = 1

    def next_ptr():
        nonlocal argi
        if argi >= len(args):
            machine.trap("bad_intrinsic_arg", "scanf: not enough pointer arguments")
        p = int(args[argi])
        argi += 1
        return machine.mem_for(p), p

    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch.isspace():
            stream.skip_ws()
            i += 1
            continue
        if ch != "%":
            got = stream.getc()
            if got != ch:
                if got is not None:
                    stream.ungetc()
                break
            i += 1
            continue
        i += 1
        longs = 0
        while i < len(fmt) and fmt[i] == "l":
            longs += 1
            i += 1
        if i >= len(fmt):
            machine.trap("bad_intrinsic_arg", "scanf: truncated directive")
        conv = fmt[i]
        i += 1
        if conv == "%":
            stream.skip_ws()
            if stream.getc() != "%":
                break
            continue
        if conv == "d":
            stream.skip_ws()
            tok = stream.match(_INT_TOKEN)
            if tok is None:
                break
            mem, addr = next_ptr()
            mem.store(addr, "i64" if longs else "i32", int(tok))
        elif conv in ("f", "e", "g"):
            stream.skip_ws()
            tok = stream.match(_FLOAT_TOKEN)
            if tok is None:
                break
            mem, addr = next_ptr()
            mem.store(addr, "f64" if longs else "f32", float(tok))
        elif conv == "s":
            stream.skip_ws()
            tok = stream.match(_WORD_TOKEN)
            if tok is None:
                break
            mem, addr = next_ptr()
            mem.write_cstring(addr, tok)
        elif conv == "c":
            got = stream.getc()
            if got is None:
                break
            mem, addr = next_ptr()
            mem.store(addr, "i8", ord(got))
        else:
            machine.trap("bad_intrinsic_arg", f"scanf: %{conv} unsupported")
        assigned += 1
    if assigned == 0 and stream.at_eof():
        return -1
    return assigned


def _intrinsic_freopen(machine, args):
    if len(args) != 3:
        machine.trap("bad_intrinsic_arg", "freopen: expected 3 arguments")
    path = _cstring(machine, args[0])
    mode = _cstring(machine, args[1])
    stream = int(args[2])
    if stream != STDIN_HANDLE or "r" not in mode:
        return 0
    content = machine.resolve_file(path)
    if content is None:
        return 0
    machine.state.stdin = InStream(content)
    return stream


def _intrinsic_fopen(machine, args):
    if len(args) != 2:
        machine.trap("bad_intrinsic_arg", "fopen: expected 2 arguments")
    path = _cstring(machine, args[0])
    mode = _cstring(machine, args[1])
    if "r" not in mode:
        return 0
    content = machine.resolve_file(path)
    if content is None:
        return 0
    streams = machine.state.open_streams
    handle = _FIRST_FILE_HANDLE  # the lowest handle not open, as POSIX gives fds
    while handle in streams:
        handle += 8
    if handle >= machine.state.arena.base:  # no handle left below the arena
        return 0
    streams[handle] = InStream(content)
    return handle


def _intrinsic_fclose(machine, args):
    if args:
        machine.state.open_streams.pop(int(args[0]), None)
    return 0


def _unary_math(fn):
    def impl(machine, args):
        if len(args) != 1:
            machine.trap("bad_intrinsic_arg", "expected 1 argument")
        return fn(float(args[0]))
    return impl


def _safe_sqrt(x: float) -> float:
    if x < 0.0:
        return math.nan
    return math.sqrt(x)


def _safe_log(x: float) -> float:
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return -math.inf
    if math.isnan(x):
        return math.nan
    return math.log(x)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _intrinsic_pow(machine, args):
    if len(args) != 2:
        machine.trap("bad_intrinsic_arg", "pow: expected 2 arguments")
    x, y = float(args[0]), float(args[1])
    try:
        r = math.pow(x, y)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan
    return r


def _intrinsic_malloc(machine, args):
    if len(args) != 1:
        machine.trap("bad_intrinsic_arg", "malloc: expected 1 argument")
    size = int(args[0])
    if size < 0:
        machine.trap("bad_intrinsic_arg", f"malloc: negative size {size}")
    return machine.state.heap.alloc(size, 8)


def _intrinsic_free(machine, args):
    # the heap never recycles; free is accepted and ignored
    return None


def _intrinsic_memset(machine, args):
    if len(args) != 3:
        machine.trap("bad_intrinsic_arg", "memset: expected 3 arguments")
    addr, val, size = (int(a) for a in args)
    if size < 0:
        machine.trap("bad_intrinsic_arg", f"memset: negative size {size}")
    machine.mem_for(addr).store_bytes(addr, bytes([val & 0xFF]) * size)
    return addr


def _intrinsic_memcpy(machine, args):
    if len(args) != 3:
        machine.trap("bad_intrinsic_arg", "memcpy: expected 3 arguments")
    dst, src, size = (int(a) for a in args)
    if size < 0:
        machine.trap("bad_intrinsic_arg", f"memcpy: negative size {size}")
    data = machine.mem_for(src).load_bytes(src, size)
    machine.mem_for(dst).store_bytes(dst, data)
    return dst


# Each intrinsic's implementation and the class of value it returns: "int",
# "ptr", "float", or "void" for none. A call declares void or a type of that
# class (validate checks it); decode wraps or rounds the value to that type.
INTRINSICS = {
    "printf": (_intrinsic_printf, "int"),
    "scanf": (_intrinsic_scanf, "int"),
    "__isoc99_scanf": (_intrinsic_scanf, "int"),
    "freopen": (_intrinsic_freopen, "ptr"),
    "fopen": (_intrinsic_fopen, "ptr"),
    "fclose": (_intrinsic_fclose, "int"),
    "sqrt": (_unary_math(_safe_sqrt), "float"),
    "sqrtf": (_unary_math(_safe_sqrt), "float"),
    "fabs": (_unary_math(abs), "float"),
    "exp": (_unary_math(_safe_exp), "float"),
    "log": (_unary_math(_safe_log), "float"),
    "pow": (_intrinsic_pow, "float"),
    "malloc": (_intrinsic_malloc, "ptr"),
    "free": (_intrinsic_free, "void"),
    "memset": (_intrinsic_memset, "ptr"),
    "memcpy": (_intrinsic_memcpy, "ptr"),
}
