"""Host implementations of the external functions the runtime understands.

Each intrinsic takes the machine and the evaluated argument list, which
validate checks against its signature in INTRINSICS, and returns the call's
value; it checks only what values decide, formats and sizes. printf formats
as C (glibc) does. Stream handles are small integers below the arena base, so
a program that tries to dereference one traps as out-of-bounds instead of
corrupting memory.
"""

from __future__ import annotations

import math
import re

from ..ir.nodes import to_f32, wrap_int

STDIN_HANDLE = 8
STDOUT_HANDLE = 16
STDERR_HANDLE = 24
_FIRST_FILE_HANDLE = 32


# What C's isspace takes for whitespace: ASCII only.
_C_SPACE = b" \t\n\v\f\r"


class InStream:
    """Pull-based input over the UTF-8 bytes of a text, with C-style
    whitespace handling: a character is a byte, as for C's stdio."""

    def __init__(self, text: str):
        self.data = text.encode("utf-8")
        self.pos = 0

    @property
    def text(self) -> str:
        """The stream's whole content, as the text it was made from."""
        return self.data.decode("utf-8")

    def getc(self) -> int | None:
        if self.pos >= len(self.data):
            return None
        self.pos += 1
        return self.data[self.pos - 1]

    def ungetc(self) -> None:
        if self.pos > 0:
            self.pos -= 1

    def skip_ws(self) -> None:
        while self.pos < len(self.data) and self.data[self.pos] in _C_SPACE:
            self.pos += 1

    def match(self, pattern: re.Pattern) -> bytes | None:
        m = pattern.match(self.data, self.pos)
        if m is None or not m.group(0):
            return None
        self.pos = m.end()
        return m.group(0)

    def at_eof(self) -> bool:
        return self.pos >= len(self.data)


_PRINTF_DIRECTIVE = re.compile(
    r"%([-+0 #]*)(\d+)?(?:\.(\d+))?(l{0,2}|h{0,2})([dioufFeEgGcsxXp%])")

# scanf's tokens, over bytes: \d and \S read ASCII only, as C does.
_INT_TOKEN = re.compile(rb"[+-]?\d+")
_FLOAT_TOKEN = re.compile(rb"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?")
_WORD_TOKEN = re.compile(rb"\S+")


def _cstring(machine, addr: int) -> str:
    return machine.mem_for(addr).read_cstring(addr)


# The width in bits that each length modifier gives d, i, o, u, x and X.
_INT_BITS = {"hh": 8, "h": 16, "": 32, "l": 64, "ll": 64}


def _c_pad(flags: str, width: str | None, text: str) -> str:
    """`text` padded with spaces to `width`, on the right under the - flag."""
    pad = " " * (int(width or 0) - len(text))
    return text + pad if "-" in flags else pad + text


def _c_int(flags: str, width: str | None, prec: str | None, conv: str, v: int) -> str:
    """A d, i, o, u, x or X conversion of `v`, already narrowed, as C
    formats it: an explicit precision turns off the 0 flag, precision 0
    prints no digits for 0, and # gives octal a leading 0 and nonzero hex
    a 0x or 0X."""
    digits = "" if prec == "0" and v == 0 else format(abs(v), "d" if conv in "diu" else conv)
    digits = digits.zfill(int(prec or 0))
    if "#" in flags and conv == "o" and not digits.startswith("0"):
        digits = "0" + digits
    if conv in "di":
        prefix = "-" if v < 0 else "+" if "+" in flags else " " if " " in flags else ""
    else:
        prefix = "0" + conv if "#" in flags and conv in "xX" and v else ""
    if "0" in flags and "-" not in flags and prec is None:
        digits = digits.zfill(int(width or 0) - len(prefix))
    return _c_pad(flags, width, prefix + digits)


def _c_float(flags: str, width: str | None, prec: str | None, conv: str, x: float) -> str:
    """An f, F, e, E, g or G conversion of `x` as C formats it: an infinity
    or NaN is padded with spaces, never zeros, and a NaN shows its sign."""
    spec = f"%{flags if math.isfinite(x) else flags.replace('0', '')}{width or ''}"
    spec += f"{'.' + prec if prec else ''}{conv}"
    if not math.isnan(x):
        return spec % x
    # Python drops a NaN's sign: format the infinity of its sign, renamed
    return (spec % math.copysign(math.inf, x)).replace("inf", "nan").replace("INF", "NAN")


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
        flags, width, prec, length, conv = m.groups()
        i = m.end()
        # the format sets each argument's class, so each is coerced to it
        if conv == "%":
            out.append("%")
        elif conv in "di":
            out.append(_c_int(flags, width, prec, conv,
                              wrap_int(int(next_arg()), _INT_BITS[length])))
        elif conv in "ouxX":
            out.append(_c_int(flags, width, prec, conv,
                              int(next_arg()) & (1 << _INT_BITS[length]) - 1))
        elif conv in "fFeEgG":
            out.append(_c_float(flags, width, prec, conv, float(next_arg())))
        elif conv == "c":
            out.append(_c_pad(flags, width, chr(int(next_arg()) & 0xFF)))
        elif conv == "s":
            text = _cstring(machine, int(next_arg()))
            out.append(_c_pad(flags, width, text if prec is None else text[:int(prec)]))
        else:  # p, which glibc prints as (nil) for null
            p = int(next_arg()) & 0xFFFFFFFFFFFFFFFF
            out.append(_c_pad(flags, width, f"0x{p:x}" if p else "(nil)"))
    text = "".join(out)
    machine.write_stdout(text)
    return len(text)


def _intrinsic_printf(machine, args):
    return _do_printf(machine, _cstring(machine, args[0]), args[1:])


def _intrinsic_scanf(machine, args):
    fmt = machine.mem_for(args[0]).read_cbytes(args[0])
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
        if ch in _C_SPACE:
            stream.skip_ws()
            i += 1
            continue
        if ch != ord("%"):
            got = stream.getc()
            if got != ch:
                if got is not None:
                    stream.ungetc()
                break
            i += 1
            continue
        i += 1
        longs = 0
        while i < len(fmt) and fmt[i] == ord("l"):
            longs += 1
            i += 1
        if i >= len(fmt):
            machine.trap("bad_intrinsic_arg", "scanf: truncated directive")
        conv = chr(fmt[i])
        i += 1
        if conv == "%":
            stream.skip_ws()
            if stream.getc() != ord("%"):
                break
            continue
        if conv == "d":
            stream.skip_ws()
            tok = stream.match(_INT_TOKEN)
            if tok is None:
                break
            mem, addr = next_ptr()
            bits = 64 if longs else 32
            mem.store(addr, f"i{bits}", wrap_int(int(tok), bits))
        elif conv in ("f", "e", "g"):
            stream.skip_ws()
            tok = stream.match(_FLOAT_TOKEN)
            if tok is None:
                break
            mem, addr = next_ptr()
            kind, value = ("f64", float(tok)) if longs else ("f32", to_f32(float(tok)))
            mem.store(addr, kind, value)
        elif conv == "s":
            stream.skip_ws()
            tok = stream.match(_WORD_TOKEN)
            if tok is None:
                break
            mem, addr = next_ptr()
            mem.store_bytes(addr, tok + b"\x00")
        elif conv == "c":
            got = stream.getc()
            if got is None:
                break
            mem, addr = next_ptr()
            mem.store(addr, "i8", wrap_int(got, 8))
        else:
            machine.trap("bad_intrinsic_arg", f"scanf: %{conv} unsupported")
        assigned += 1
    if assigned == 0 and stream.at_eof():
        return -1
    return assigned


def _intrinsic_freopen(machine, args):
    path, mode, stream = args
    if stream != STDIN_HANDLE or "r" not in _cstring(machine, mode):
        return 0
    content = machine.resolve_file(_cstring(machine, path))
    if content is None:
        return 0
    machine.state.stdin = InStream(content)
    return stream


def _intrinsic_fopen(machine, args):
    path, mode = args
    if "r" not in _cstring(machine, mode):
        return 0
    content = machine.resolve_file(_cstring(machine, path))
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
    machine.state.open_streams.pop(args[0], None)
    return 0


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
    try:
        return math.pow(*args)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _intrinsic_malloc(machine, args):
    size = args[0]
    if size < 0:
        machine.trap("bad_intrinsic_arg", f"malloc: negative size {size}")
    return machine.state.heap.alloc(size, 8)


def _intrinsic_free(machine, args):
    # the heap never recycles; free is accepted and ignored
    return None


def _intrinsic_memset(machine, args):
    addr, val, size = args
    if size < 0:
        machine.trap("bad_intrinsic_arg", f"memset: negative size {size}")
    machine.mem_for(addr).store_bytes(addr, bytes([val & 0xFF]) * size)
    return addr


def _intrinsic_memcpy(machine, args):
    dst, src, size = args
    if size < 0:
        machine.trap("bad_intrinsic_arg", f"memcpy: negative size {size}")
    data = machine.mem_for(src).load_bytes(src, size)
    machine.mem_for(dst).store_bytes(dst, data)
    return dst


# Each intrinsic's implementation, the class of value it returns ("int",
# "ptr", "float", or "void" for none) and its parameters' classes, a final
# ... taking any more arguments. A call declares void or a type of the
# result's class (validate checks it); decode wraps or rounds the value to it.
INTRINSICS = {
    "printf": (_intrinsic_printf, "int", ("ptr", ...)),
    "scanf": (_intrinsic_scanf, "int", ("ptr", ...)),
    "__isoc99_scanf": (_intrinsic_scanf, "int", ("ptr", ...)),
    "freopen": (_intrinsic_freopen, "ptr", ("ptr", "ptr", "ptr")),
    "fopen": (_intrinsic_fopen, "ptr", ("ptr", "ptr")),
    "fclose": (_intrinsic_fclose, "int", ("ptr",)),
    "sqrt": (lambda machine, args: _safe_sqrt(*args), "float", ("float",)),
    "sqrtf": (lambda machine, args: _safe_sqrt(*args), "float", ("float",)),
    "fabs": (lambda machine, args: abs(*args), "float", ("float",)),
    "exp": (lambda machine, args: _safe_exp(*args), "float", ("float",)),
    "log": (lambda machine, args: _safe_log(*args), "float", ("float",)),
    "pow": (_intrinsic_pow, "float", ("float", "float")),
    "malloc": (_intrinsic_malloc, "ptr", ("int",)),
    "free": (_intrinsic_free, "void", ("ptr",)),
    "memset": (_intrinsic_memset, "ptr", ("ptr", "int", "int")),
    "memcpy": (_intrinsic_memcpy, "ptr", ("ptr", "ptr", "int")),
}
