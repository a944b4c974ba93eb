"""Trace files: reading, diffing, merging, and fault-propagation graphs.

A trace is one text record per dynamic event, held as columns (TraceColumns)
that reading, diffing, merging and propagation read directly; a TraceRecord is
built only when an item is read. Alignment between a golden and a faulty
trace is a minimal edit script over the instruction-index sequences (Myers
O(ND)); record values never influence the alignment, they are compared
afterwards on matched pairs. trace_diff returns the alignment itself, a
DiffReport: runs of slots and the slots where the traces differ. Records are
built only when a caller reads a report's items; build_propagation reads the
edit script's runs and the columns and builds none. The core (_myers_core)
replays Myers' own backtrack from an LCS table computed a whole row at a
time in a few big-int operations (Allison and Dix's bit-parallel LCS), kept
to the band of diagonals that a path within the cost of a quick alignment
(_cost_bound), an upper bound U on the edit distance D, can cross: its time
grows with the length whatever D is, and its memory stays near linear.

read_trace reads a file in binary, a slice of about _SLICE bytes cut after a
line end at a time, so beyond the columns it returns a read holds one slice
and its memos, however long the file is. A loop's trace often repeats few
distinct lines, so a line memo maps each line to its index, opcode and hex:
only the lines it lacks are split, and it is cleared once it holds more than
_SLICE // 64 lines, which keeps it about a slice. A slice whose lines are
mostly new is split whole and skips the memo, which costs more than it saves
there; half of a slice's lines, deduplicated, can show that. Each distinct
index is converted once per read and looked up after that; value hex is
lowered and interned, which costs less than a memo miss.

write_trace is the one writer. It writes a run's trace (RunTrace) from its
packed columns: an array("i") of instruction indices and one 8-byte word per
record that holds the bits its line shows, which each compiled segment packs
with one struct as the run goes. A block of up to _WRITE_CHUNK records
renders in one vectorized pass: one bytes.hex() of the words, made
big-endian, gives every digit, filled into rows of bytes that hold each
record's line prefix (TraceFields.render); a stretch of fewer than _SHORT
records is formatted one record at a time from its words, which costs less.
A record's value is the one value of its type that validate and decode let
a register hold, so every value has a word, and one table (_word_kinds,
built from lcfi.ir.nodes on first use) gives each kind's word and digits.
The vectorized pass imports numpy on first use, so reading and diffing
traces load neither numpy nor any IR module. It returns
the file as a TraceText; written against the TraceText of another run of the
same program, a trace copies that file's bytes wherever the two agree record
for record, instruction and word bit for bit, which array compares find, and
gives the same file.
"""

from __future__ import annotations

import os
import re
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from functools import cache, cached_property
from itertools import accumulate, chain, compress, count, filterfalse, repeat
from operator import add, eq, ne
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .ir.defuse import UseGraph
    from .ir.nodes import IrType


class TraceFormatError(Exception):
    pass


class IndexMismatch(Exception):
    """A trace references instruction indices the def-use graph lacks."""


class TraceRecord(NamedTuple):
    index: int
    opcode: str
    value_hex: str  # lowercase, 8 or 16 digits

    def render(self) -> str:
        return format_record(self.index, self.opcode, self.value_hex)


def format_record(index: int, opcode: str, value_hex: str) -> str:
    return f"ID: {index:<4} OPCode: {opcode:<6} Value: {value_hex}"


# A record line, with `{s}` for its whitespace. _RECORD_RE, with any whitespace,
# parses one line; _TEXT_RE, with spaces and tabs only, matches each record line
# of a text. A line _TEXT_RE matches holds no other whitespace, so _RECORD_RE
# parses it to the same record.
_RECORD = r"^{s}*ID:{s}*(\d+){s}+OPCode:{s}*(\S+){s}+Value:{s}*([0-9a-fA-F]+){s}*$"
_RECORD_RE = re.compile(_RECORD.format(s=r"\s"))
_TEXT_RE = re.compile(_RECORD.format(s="[ \t]"), re.M)


def _sequence_eq(self, other) -> bool:
    """`==` for the sequences here whose items are built on access: equal to
    any sequence of equal items."""
    if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
        return NotImplemented
    return len(self) == len(other) and all(map(eq, self, other))


def parse_record(line: str) -> TraceRecord | None:
    """Parse one trace line; blank lines give None, junk raises."""
    if not line.strip():
        return None
    m = _RECORD_RE.match(line)
    if m is None:
        raise TraceFormatError(f"malformed trace record: {line.rstrip()!r}")
    return TraceRecord(int(m.group(1)), m.group(2), m.group(3).lower())


class TraceColumns(Sequence):
    """A trace as three columns: instruction indices, opcodes and lowercase
    value hex, read from text (read_trace) or recorded by a run (RunTrace). A
    TraceRecord is built when an item is read; the trace compares equal to any
    sequence of equal records."""

    def __init__(self, indices: list, opcodes: list, hexes: list):
        self.indices = indices
        self.opcodes = opcodes
        self.hexes = hexes

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(TraceRecord, self.indices[i], self.opcodes[i], self.hexes[i]))
        return TraceRecord(self.indices[i], self.opcodes[i], self.hexes[i])

    def __iter__(self):
        return map(TraceRecord, self.indices, self.opcodes, self.hexes)

    def __eq__(self, other):
        if isinstance(other, TraceColumns):
            return (self.indices == other.indices and self.hexes == other.hexes
                    and self.opcodes == other.opcodes)
        return _sequence_eq(self, other)


_SLICE = 1 << 18  # bytes of a file parsed at a time, cut after a line end


def read_trace(path) -> TraceColumns:
    """Read the records of the file at `path` (a str or path-like); its line
    ends count as text mode counts them. A distinct line is parsed once while
    the line memo holds it, and each distinct index is converted once per
    read (_Memo), so equal indices are one int object; opcodes and lowercased
    value hex go through sys.intern, so each distinct one is one string
    object however often it occurs."""
    if not isinstance(path, (str, os.PathLike)):
        raise TypeError(f"read_trace takes a path, not {type(path).__name__}")
    out, lineno, offset = TraceColumns([], [], []), 1, 0
    memo = {}, {}, {}, _Memo(int)
    with open(path, "rb") as fh:
        for data in _slices(fh):
            try:
                text = str(data, "utf-8")
            except UnicodeDecodeError as e:
                raise TraceFormatError(
                    f"{path}: not UTF-8 text (byte {offset + e.start})") from e
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lineno = _parse(text, lineno, out, memo)
            offset += len(data)
    return out


def _slices(fh):
    r"""A binary file's bytes, about _SLICE at a time, each piece (a
    bytes-like object) cut after a line end: a b"\n", or a b"\r" not
    followed by one, so a b"\r\n" stays in one piece and a multibyte
    character is never split."""
    rest = b""
    while data := fh.read(_SLICE):
        data = rest + data
        # a b"\r" that ends the read may be the first half of a b"\r\n"
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
        rest = data[cut:]
        if cut:
            # a view, not a copy, so one copy of a slice is alive at a time
            # (a copy here lifted a trace diff's peak RSS by about 1.5 MB)
            yield memoryview(data)[:cut]
    if rest:
        yield rest


class _Memo(dict):
    """convert(key) for each key, computed on the first lookup of an equal
    key."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self[key] = self.convert(key)
        return value


def _parse(text: str, lineno: int, out: TraceColumns, memo: tuple) -> int:
    """Append the records of `text`, whose lines end in "\\n" (its last may
    not) and whose first is line `lineno`, to `out`; return the number of
    the line after its last. Lines the line memo lacks are split once, the
    others looked up; if more than half are new, the whole text is split and
    the memo is left as it is. With the memo empty, as on every slice of a
    file of distinct lines, the first half of the lines and one more can show
    that alone, and only they are deduplicated; with lines in the memo,
    deduplicating in two halves cost more than it saved. The split serves if
    _TEXT_RE matches each line, shown by one match per line (a match never
    spans a newline); else parse_record reads them one by one. Indices are
    looked up in the read's _Memo."""
    lines = text.split("\n")
    if not lines[-1]:  # a text that ends a line
        lines.pop()
    line_indices, line_opcodes, line_hexes, indices = memo
    if len(line_indices) > _SLICE // 64:  # so the memo stays about a slice
        for lookup in memo[:3]:
            lookup.clear()
    half = len(lines) // 2
    if line_indices:
        new = dict.fromkeys(filterfalse(line_indices.__contains__, lines))
    else:
        new = dict.fromkeys(lines[:half + 1])
        if len(new) <= half:
            new |= dict.fromkeys(lines[half + 1:])
    whole = len(new) > half
    split = lines if whole else new
    # split() gives [text before, index, opcode, hex, text between, ...].
    parts = _TEXT_RE.split(text if whole else "\n".join(new))
    if len(parts) // 4 == len(split):
        columns = (map(indices.__getitem__, parts[1::4]), map(sys.intern, parts[2::4]),
                   map(sys.intern, map(str.lower, parts[3::4])))
        if not whole:
            for lookup, column in zip(memo, columns):
                lookup.update(zip(new, column))
            columns = (map(lookup.__getitem__, lines) for lookup in memo[:3])
        for held, column in zip((out.indices, out.opcodes, out.hexes), columns):
            held.extend(column)
    else:
        for n, line in enumerate(lines, lineno):
            try:
                rec = parse_record(line)
            except TraceFormatError as e:
                raise TraceFormatError(f"line {n}: {e}") from e
            if rec is not None:
                out.indices.append(indices[rec.index])
                out.opcodes.append(sys.intern(rec.opcode))
                out.hexes.append(sys.intern(rec.value_hex))
    return lineno + len(lines)


# -- values and run traces ---------------------------------------------------------

# A record's word: 8 little-endian bytes that hold the bits its line shows. The
# function that packs one value into a word of each struct code: an integer
# ("q") or a pointer ("Q") as it is, which refuses a float or a value out of
# range, an f32's bits in the low half ("f4x"), an f64's bits ("d"), and zeros
# for a kind with no value ("8x"), whatever the value.
_ZERO_WORD = bytes(8)
_WORD = {"q": lambda value: int.to_bytes(value, 8, "little", signed=True),
         "Q": lambda value: int.to_bytes(value, 8, "little"),
         "f4x": struct.Struct("<f4x").pack, "d": struct.Struct("<d").pack,
         "8x": lambda value: _ZERO_WORD}
_UNPACK_WORD = {"q": struct.Struct("<q").unpack_from, "Q": struct.Struct("<Q").unpack_from,
                "f4x": struct.Struct("<f").unpack_from, "d": struct.Struct("<d").unpack_from}
_NO_WORD = ("8x", 8)


@cache
def _word_kinds() -> dict:
    """The table of each scalar kind's word code and the hex digits its line
    shows: an 8-byte kind's SCALARS format and 16, else 8 (a narrow integer
    shows its low 32 bits). Built from lcfi.ir.nodes on first use, so reading
    traces imports no IR module. A kind with no value has _NO_WORD: eight
    zeros."""
    from .ir.nodes import SCALARS
    return {k: (fmt[1:], 16) if size == 8 else ("f4x" if k == "f32" else "q", 8)
            for k, (size, fmt) in SCALARS.items()}


def value_bits(value, vtype: IrType) -> str:
    """Render a value of `vtype` as the trace's hex field, from its word."""
    code, digits = _word_kinds().get(vtype.kind, _NO_WORD)
    word = int.from_bytes(_WORD[code](value), "little")
    return "%0*x" % (digits, word & ((1 << 4 * digits) - 1))


def word_packer(kind: str):
    """The function that packs one value of `kind` into its word."""
    return _WORD[_word_kinds().get(kind, _NO_WORD)[0]]


def words_packer(kinds) -> tuple:
    """(pack, takes) for records whose results are of these kinds: `pack`
    packs their words in one call, from the values of the records that
    `takes` marks (a kind with no value takes none)."""
    codes = [_word_kinds().get(kind, _NO_WORD)[0] for kind in kinds]
    return struct.Struct("<" + "".join(codes)).pack, tuple(c != "8x" for c in codes)


def _unsigned_words(words) -> tuple:
    return struct.unpack(f"<{len(words) // 8}Q", words)


class TraceFields:
    """The parts of a trace line fixed by the instruction index, in lists
    indexed by instruction index: opcode and line prefix; the struct code
    of its word; and the line as a bytes format of the word masked to the
    digits it shows (`line`, `mask`), with its digits alone as a str format
    (`digits`)."""

    def __init__(self, instructions):
        """`instructions` yields (index, opcode, result kind) triples."""
        rows = list(instructions)
        size = max((index for index, _op, _kind in rows), default=0) + 1
        self.opcode: list = [None] * size
        self.prefix: list = [None] * size
        self.code: list = [None] * size
        self.digits: list = [None] * size
        self.line: list = [None] * size
        self.mask: list = [None] * size
        for index, opcode, kind in rows:
            code, digits = _word_kinds().get(kind, _NO_WORD)
            self.opcode[index] = opcode
            self.prefix[index] = format_record(index, opcode, "")
            self.code[index] = code
            self.digits[index] = f"%0{digits}x"
            self.line[index] = f"{self.prefix[index]}{self.digits[index]}\n".encode()
            self.mask[index] = (1 << 4 * digits) - 1

    def pack(self, indices, values) -> bytes:
        """The words of the records with these instruction indices and
        values, each a value of its record's type."""
        code = self.code
        return b"".join([_WORD[code[i]](value) for i, value in zip(indices, values)])

    @cached_property
    def _table(self):
        """render's per-index table, built on first use: each index's line as
        a row of bytes: the prefix, zeros up to the digit columns, 0xff over
        the digits the line shows and a newline. Every row has its 16 digit
        columns in the same place."""
        import numpy as np
        width = max(map(len, filter(None, self.prefix)), default=0)
        rows = np.zeros((len(self.prefix), width + 17), np.uint8)
        for i, (prefix, mask) in enumerate(zip(self.prefix, self.mask)):
            if prefix is not None:
                rows[i, :len(prefix)] = np.frombuffer(prefix.encode(), np.uint8)
                rows[i, -17 if mask > 0xFFFFFFFF else -9:] = 0xFF
                rows[i, -1] = ord("\n")
        return rows

    def render(self, indices, words) -> bytes:
        """The lines of the records with these instruction indices (an
        array("i")) and words, in one vectorized pass: all digits come from
        one bytes.hex() of the words made big-endian, and the lines are the
        records' rows with the digits filled in and the zeros dropped."""
        import numpy as np
        out = self._table.take(np.frombuffer(indices, np.int32), axis=0)
        digits = np.frombuffer(words, "<u8").astype(">u8")
        out[:, -17:-1] &= np.frombuffer(memoryview(digits).hex().encode(),
                                        np.uint8).reshape(-1, 16)
        return out[out != 0].tobytes()

    def lines(self, indices, words) -> bytes:
        """The same lines, formatted record by record: cheaper than render
        for fewer than _SHORT records."""
        line, mask = self.line, self.mask
        return b"".join([line[i] % (w & mask[i])
                         for i, w in zip(indices, _unsigned_words(words))])


class RunTrace(TraceColumns):
    """A run's trace as the machine records it, packed: `idx`, an
    array("i") of instruction indices, and `words`, one 8-byte word per
    record that holds the bits its line shows (TraceFields.pack packs
    values into words). The indices, values, opcodes and value-hex columns
    are built from these when first read, and are not pickled; write_trace
    renders lines from the words."""

    def __init__(self, idx: array, words, fields: TraceFields):
        self.idx, self.words, self.fields = idx, words, fields

    def __getstate__(self) -> dict:
        return {name: self.__dict__[name] for name in ("idx", "words", "fields")}

    def __len__(self) -> int:
        return len(self.idx)

    @cached_property
    def indices(self) -> list:
        return self.idx.tolist()

    @cached_property
    def values(self) -> list:
        """Each record's value as its word holds it: an int, a float, or None
        for no value."""
        code, words = self.fields.code, self.words
        return [None if code[i] == "8x" else _UNPACK_WORD[code[i]](words, 8 * pos)[0]
                for pos, i in enumerate(self.idx)]

    @cached_property
    def opcodes(self) -> list:
        return list(map(self.fields.opcode.__getitem__, self.idx))

    @cached_property
    def hexes(self) -> list:
        digits, mask = self.fields.digits, self.fields.mask
        return [digits[i] % (w & mask[i]) for i, w in zip(self.idx, _unsigned_words(self.words))]


_WRITE_CHUNK = 4096  # records rendered and written per block, so memory stays flat
# Fewer records than this render faster one by one than in one vectorized
# pass: on cg.ll's records a pass cost about 10 us plus 0.1 us a record, one by
# one about 0.4 us a record, even at 30 to 40 records (2-core host, Python 3.11).
_SHORT = 32


def _blocks(trace: RunTrace, start: int = 0, stop: int | None = None):
    """The lines of records `start` to `stop` (the end if None) as bytes, a
    block of at most _WRITE_CHUNK records at a time."""
    stop = len(trace) if stop is None else stop
    for a in range(start, stop, _WRITE_CHUNK):
        yield _lines(trace, a, min(stop, a + _WRITE_CHUNK))


def _lines(trace: RunTrace, a: int, b: int) -> bytes:
    """The lines of records a to b - 1: one by one from their words below
    _SHORT records, else in one vectorized pass."""
    render = trace.fields.lines if b - a < _SHORT else trace.fields.render
    return render(trace.idx[a:b], trace.words[8 * a:8 * b])


class TraceText:
    """A RunTrace and the trace file write_trace wrote of it, for writing the
    traces of other runs of the same program against it (see write_trace).
    The file's bytes and where each of its lines starts (`offsets[len(trace)]`
    is the file's length) are derived when first used, so a TraceText that is
    never written against costs nothing."""

    def __init__(self, trace: RunTrace, path: str):
        self.trace = trace
        self.path = path

    @cached_property
    def data(self) -> bytes:
        with open(self.path, "rb") as fh:
            return fh.read()

    @cached_property
    def offsets(self) -> array:
        import numpy as np
        ends = np.flatnonzero(np.frombuffer(self.data, np.uint8) == ord("\n")) + 1
        return array("q", [0]) + array("q", ends.astype(np.int64).tobytes())


def write_trace(trace: RunTrace, path: str, golden: TraceText | None = None) -> TraceText:
    """Write a run's trace, one line per record, and return the TraceText of
    the file.

    With `golden`, the written trace of another run of the same program, the
    records before the first whose instruction differs from golden's are
    copied from golden's bytes wherever their words are golden's, bit for
    bit; the rest are rendered. The bytes are the same either way."""
    pieces = _blocks(trace) if golden is None else _pieces_against(trace, golden)
    with open(path, "wb") as fh:
        fh.writelines(pieces)
    return TraceText(trace, path)


def _pieces_against(trace: RunTrace, golden: TraceText):
    """write_trace's bytes for `trace` against `golden`, piece by piece. The
    records to render before `agree` are grouped into stretches, each ended
    by _SHORT records that golden's bytes can give, so a stretch of values
    that mostly differ renders in one pass."""
    import numpy as np
    other = golden.trace
    end = min(len(trace), len(other))
    unequal = np.flatnonzero(np.frombuffer(trace.idx, np.int32)[:end]
                             != np.frombuffer(other.idx, np.int32)[:end])
    agree = int(unequal[0]) if len(unequal) else end
    render = np.flatnonzero(np.frombuffer(trace.words, "<u8")[:agree]
                            != np.frombuffer(other.words, "<u8")[:agree])
    cut = np.flatnonzero(np.diff(render) > _SHORT) + 1
    stretches = np.split(render, cut) if len(render) else []
    data, offsets = memoryview(golden.data), golden.offsets
    done = 0
    for stretch in stretches:
        a, b = int(stretch[0]), int(stretch[-1]) + 1
        if a > done:
            yield data[offsets[done]:offsets[a]]
        yield from _blocks(trace, a, b)
        done = b
    if agree > done:
        yield data[offsets[done]:offsets[agree]]
    yield from _blocks(trace, agree)


# -- alignment ---------------------------------------------------------------

_BLOCK = 64  # records compared per list compare


def _differing(xs: list, ys: list, n: int):
    """The positions below n where xs and ys hold unequal items: blocks
    compare as whole lists, and only a block that differs item by item."""
    for a in range(0, n, _BLOCK):
        b = min(n, a + _BLOCK)
        x, y = xs[a:b], ys[a:b]
        if x != y:
            yield from compress(count(a), map(ne, x, y))


def _myers_ops(a: list, b: list) -> list[tuple]:
    """Minimal edit script as runs (kind, i, j, length): "match" pairs a[i+t]
    with b[j+t], "del" drops a[i+t] before b[j] and "ins" adds b[j+t] before
    a[i], for t < length."""
    # Trim the common prefix and suffix first, _BLOCK records per list
    # compare; Myers runs on the core, in the band of a quick alignment's cost.
    n_all, m_all = len(a), len(b)
    most = min(n_all, m_all)
    pre = next(_differing(a, b, most), most)
    suf = _suffix(a, b, n_all, m_all, most - pre)
    runs = [("match", 0, 0, pre)] if pre else []
    core_a, core_b = a[pre:n_all - suf], b[pre:m_all - suf]
    runs.extend(_myers_core(core_a, core_b, pre, pre, _cost_bound(core_a, core_b)))
    if suf:
        runs.append(("match", n_all - suf, m_all - suf, suf))
    return runs


def _suffix(a: list, b: list, x: int, y: int, most: int) -> int:
    """The length of the common suffix of a[:x] and b[:y], up to `most`:
    their last records, then _BLOCK records per list compare."""
    if not most or a[x - 1] != b[y - 1]:
        return 0
    suf = 0
    while suf < most:
        step = min(_BLOCK, most - suf)
        p, q = a[x - suf - step:x - suf], b[y - suf - step:y - suf]
        if p != q:  # the records after its last unequal pair match
            return suf + step - 1 - max(compress(range(step), map(ne, p, q)))
        suf += step
    return suf


_RUN = 32  # equal records that end a step of _cost_bound's alignment
_STEP_EDITS = 256  # edits a step of _cost_bound's alignment may take
_ROUND_VISITS = 8  # failed-search visits per record: about the table's cost of a record


def _cost_bound(a: list, b: list) -> int:
    """The cost of a quick alignment of a and b: an upper bound U on their
    edit distance D, for _myers_core's band.

    The alignment is built a step at a time. From a mismatch, a greedy Myers
    search runs to the first round that reaches a point that _RUN equal
    records follow, or the end; of that round's points, the step takes the
    one on the diagonal nearest the end's, and costs the round, the fewest
    edits that reach such a point. The equal records are skipped and the
    next step starts at the next mismatch. A step that needs more than
    _STEP_EDITS edits goes on from the point furthest along that its search
    reached (the one nearest the end's diagonal of those), at the cost of
    its edits, while the failed steps' searches, up to (_STEP_EDITS + 1)**2
    visits each, come to at most _ROUND_VISITS per record of the longer
    side, about what _myers_core's table costs. So a block of 300 records
    inserted into a 17.5k-record CG core gives U = D = 306, not 17,894, and
    keeps the table to a band about 300 diagonals wide. Past that the
    alignment ends with the rest of both sides unmatched, so on short
    unrelated sides U is n + m, the bound with no quick alignment. A point
    that a search reached past a side's end took edits past it that the rest
    of the other side, left unmatched, pays back, so U stays a bound. On the
    28 edited CG trace pairs of perfbench's trace_diff seeds 1-14 (D
    1,074-1,287 over 35k records) U was D to D + 12%, median D + 2%, and
    took 2.6-5.5 ms; the first such point of a round instead of the nearest
    gave median D + 3% (summed excess 1,150 against 880). Past
    its end each side reads as a sentinel that equals nothing, so a snake
    stops there without a bounds test. No search passes either end by more
    than min(n, m), the most snake steps a path can hold, so the sides grow
    by min(n, m) + 1 sentinels each; they are cut back on return."""
    n, m = len(a), len(b)
    stop_a, stop_b = object(), object()
    a.extend(repeat(stop_a, min(n, m) + 1))
    b.extend(repeat(stop_b, min(n, m) + 1))
    # v[c + r] is the furthest x a step's search reached on the diagonal r
    # off its start's (Myers' V); a step clears what it wrote.
    c = _STEP_EDITS + 1
    v = [-1] * (2 * c + 1)
    x = y = cost = failed = 0
    try:
        while True:
            while a[x:x + _RUN] == b[y:y + _RUN]:
                x += _RUN
                y += _RUN
            while a[x] == b[y]:
                x += 1
                y += 1
            if x >= n or y >= m:
                break
            rest_a, rest_b = n - x, m - y
            off, end = c + y - x, c + rest_a - rest_b
            v[c - 1] = x - 1  # so round 0 takes x on diagonal 0
            found = None
            for d in range(_STEP_EDITS + 1):
                lo = c - d if d <= rest_b else c + d - 2 * rest_b
                hi = c + d if d <= rest_a else c + 2 * rest_a - d
                for kk, left, right in zip(range(lo, hi + 1, 2), v[lo - 1:hi:2],
                                           v[lo + 1:hi + 2:2]):
                    px = right if left < right else left + 1
                    py = px - kk + off
                    if a[px] == b[py]:
                        if a[px:px + _RUN] == b[py:py + _RUN]:
                            if found is None or abs(kk - end) < abs(found[0] - end):
                                found = kk, px, py
                            continue
                        px += 1
                        py += 1
                        while a[px] == b[py]:
                            px += 1
                            py += 1
                    v[kk] = px
                if found or (lo <= end <= hi and v[end] >= n):
                    break
            else:
                failed += (d + 1) ** 2
                if failed > _ROUND_VISITS * max(n, m):
                    break
                # go on from the point furthest along, nearest the end's diagonal
                found = max(((kk, v[kk], v[kk] - kk + off) for kk in range(lo, hi + 1, 2)),
                            key=lambda p: (p[1] + p[2], -abs(p[0] - end)))
            v[c - d:c + d + 1] = repeat(-1, 2 * d + 1)  # d > 0: x was a mismatch
            cost += d
            x, y = found[1:] if found else (n, m)
    finally:
        del a[n:], b[m:]
    return cost + (n - x) + (m - y)


def _myers_core(a: list, b: list, off_a: int, off_b: int, bound: int | None = None
                ) -> list[tuple]:
    """Myers' greedy O(ND) script for a and b, as runs offset by off_a and
    off_b: one run per snake and one per stretch of edits of one kind.

    `bound` is an upper bound U on the edit distance D (n + m if None;
    _cost_bound gives one); a bound below D raises ValueError, one below
    |n - m| counts as |n - m|. The backtrack from (n, m) steps from the
    furthest point that d edits reach on a diagonal k to the furthest point
    that d - 1 edits reach on k + 1 or k - 1. An LCS table kept to U's band
    (_LcsTable) gives those points, the ones Myers' rounds reach, in time
    that grows with the longer side whatever D is, and in near-linear
    memory: on 17.5k-record CG cores, U = 58 took about 9 ms and U = 1,196
    about 20. Myers' rounds themselves run only in _cost_bound's search."""
    n, m = len(a), len(b)
    if n == 0:
        return [("ins", off_a, off_b, m)] if m else []
    if m == 0:
        return [("del", off_a, off_b, n)]
    # D = n + m - 2 * matches lies between |n - m| and n + m, with n - m's parity
    bound = n + m if bound is None else min(max(bound, abs(n - m)), n + m)
    bound -= (bound - n + m) % 2
    # A path of at most U edits crosses diagonal k only if
    # |k| + |k - (n - m)| <= U: the band, widened by one on each side.
    table = _LcsTable(a, b, (n - m - bound) // 2 - 1, (n - m + bound) // 2 + 1)
    dist = n + m - 2 * table.lcs(n, m)
    if dist > bound:
        raise ValueError(f"no script within {bound} edits")

    runs = []
    x, y = n, m
    for d in range(dist, 0, -1):
        prev_x, prev_k = table.step(x, y, d)
        prev_y = prev_x - prev_k
        snake = min(x - prev_x, y - prev_y)
        if snake:
            runs.append(("match", off_a + x - snake, off_b + y - snake, snake))
        kind = "ins" if x - snake == prev_x else "del"
        if runs and runs[-1][0] == kind:  # no snake between: one run per stretch
            runs[-1] = (kind, off_a + prev_x, off_b + prev_y, runs[-1][3] + 1)
        else:
            runs.append((kind, off_a + prev_x, off_b + prev_y, 1))
        x, y = prev_x, prev_y
    if x:
        runs.append(("match", off_a, off_b, x))
    runs.reverse()
    return runs


_ROWS = 256  # rows of an _LcsTable block


class _LcsTable:
    """LCS(a[:x], b[:y]) on the band of diagonals lo <= x - y <= hi, from
    bit-parallel rows (Allison and Dix, IPL 1986). The longer side gives the
    rows. A row is an int over a window of columns: bit t is clear where LCS
    grows from the window's column t to t + 1, and the row after V for a
    record whose matches in the window are the bits of M is (V + U) | (V ^ U),
    U = V & M. The window covers the band's cells in a block of _ROWS rows,
    clipped to the grid, and moves right once per block: the LCS left of it
    takes the columns it drops, and the columns it adds start with their
    bits set. Each block keeps its first row; its other rows are recomputed
    when read, and the last three blocks read are kept. A cell reads at most
    its LCS, and exactly where a path from (0, 0) that collects its LCS stays
    in the band."""

    def __init__(self, a: list, b: list, lo: int, hi: int):
        self.a, self.b = a, b
        self.swap = len(a) < len(b)
        rows, cols = (b, a) if self.swap else (a, b)
        if self.swap:
            lo, hi = -hi, -lo
        n, m = len(rows), len(cols)
        # bit j of masks[s] is set where cols[j] == s, for each symbol both
        # sides hold that fills at least one column in 512; the rarer ones are
        # listed with their columns, so the masks take at most 64 bytes a column
        held, bits = set(rows), {}
        for s, count in Counter(cols).items():
            if s in held and count * 512 >= m:
                bits[s] = bytearray((m >> 3) + 1)
        self.rare_at, self.rare = array("q"), []
        for j, s in enumerate(cols):
            if s in bits:
                bits[s][j >> 3] |= 1 << (j & 7)
            elif s in held:
                self.rare_at.append(j)
                self.rare.append(s)
        self.rows, self.masks = rows, {s: int.from_bytes(v, "little") for s, v in bits.items()}
        # blocks[i] = (its first row, row i * _ROWS; the LCS left of its window;
        # the window's first and last column)
        self.blocks = []
        self.cache = {}
        v = left = start = end = 0
        for r in range(0, n, _ROWS):
            first, last = max(0, r - hi), min(m, r + _ROWS - lo)
            drop = first - start
            left += drop - (v & ((1 << drop) - 1)).bit_count()
            v = (v >> drop) | ((1 << (last - first)) - (1 << (end - first)))
            start, end = first, last
            self.blocks.append((v, left, start, end))
            v = self.block(len(self.blocks) - 1)[-1]

    def block(self, i: int) -> list:
        """The rows of block i, its first row to the first of block i + 1."""
        rows = self.cache.get(i)
        if rows is None:
            if len(self.cache) == 3:
                del self.cache[next(iter(self.cache))]
            v, _left, start, end = self.blocks[i]
            full = (1 << (end - start)) - 1
            records = self.rows[i * _ROWS:(i + 1) * _ROWS]
            masks = {s: (self.masks[s] >> start) & full if s in self.masks else 0
                     for s in set(records)}
            rare = slice(bisect_left(self.rare_at, start), bisect_left(self.rare_at, end))
            for j, s in zip(self.rare_at[rare], self.rare[rare]):
                if s in masks:
                    masks[s] |= 1 << (j - start)
            rows = self.cache[i] = [v]
            for mask in map(masks.__getitem__, records):
                u = v & mask
                v = (v + u) | (v ^ u)
                rows.append(v)
            rows[-1] &= full  # drop the carries out of the window
        return rows

    def lcs(self, x: int, y: int) -> int:
        """LCS(a[:x], b[:y]), or a lower bound off the band; -1 off the window."""
        r, c = (y, x) if self.swap else (x, y)
        i = min(r // _ROWS, len(self.blocks) - 1)
        _v, left, start, end = self.blocks[i]
        if not start <= c <= end:
            return -1
        t = c - start
        return left + t - (self.block(i)[r - i * _ROWS] & ((1 << t) - 1)).bit_count()

    def step(self, x: int, y: int, d: int) -> tuple[int, int]:
        """Myers' backtrack step from (x, y), the furthest point that d edits
        reach on diagonal k = x - y: V(k + 1) and V(k - 1), the furthest
        points that d - 1 edits reach there, lie between the start of the
        snake that ends at (x, y) and (x, y), and the step returns the one
        it came from as (x, diagonal). V(k') is the largest x on k' with
        D(x, x - k') <= d - 1, where D(x, y) = x + y - 2 * LCS(a[:x], b[:y])
        never decreases along a diagonal, so a search on D finds it. Each
        cell that search accepts has a path of at most d - 1 edits from
        (0, 0) inside the band, where the table is exact, and a cell reads
        high elsewhere, so the step is the one Myers' rounds take."""
        k = x - y
        s = _suffix(self.a, self.b, x, y, min(x, y))
        down = -1 if k == d else self.furthest(k + 1, max(x - s, k + 1, 0), x, d - 1)
        if k == -d or down == x:
            return down, k + 1
        right = self.furthest(k - 1, max(x - s - 1, k - 1, 0), x - 1, d - 1)
        return (down, k + 1) if right < down else (right, k - 1)

    def furthest(self, k: int, lo: int, hi: int, d: int) -> int:
        """The largest x in lo..hi with D(x, x - k) <= d, or -1 if none. D
        never decreases along a diagonal. The answer is most often hi, else
        none or near lo, where the backtrack goes next: the search tries hi,
        then lo, then gallops up from lo and bisects."""
        def within(x: int) -> bool:
            return 2 * self.lcs(x, x - k) >= 2 * x - k - d

        if lo > hi:
            return -1
        if within(hi):
            return hi
        if lo == hi or not within(lo):
            return -1
        step = 1
        while lo + step < hi and within(lo + step):
            lo += step
            step *= 2
        hi = min(hi, lo + step)
        while hi - lo > 1:  # within(lo), not within(hi)
            x = (lo + hi) // 2
            if within(x):
                lo = x
            else:
                hi = x
        return lo


class AlignedPair(NamedTuple):
    """One alignment slot; exactly one side is None for unmatched records."""

    golden: TraceRecord | None
    faulty: TraceRecord | None

    def matched(self) -> bool:
        return self.golden is not None and self.faulty is not None

    def value_equal(self) -> bool:
        return self.matched() and self.golden.value_hex == self.faulty.value_hex


class Divergence(NamedTuple):
    kind: str  # "value" | "golden_only" | "faulty_only"
    position: int  # slot in the alignment
    golden: TraceRecord | None
    faulty: TraceRecord | None

    def describe(self) -> str:
        if self.kind == "value":
            return (f"value divergence at ID {self.golden.index} "
                    f"({self.golden.opcode}): {self.golden.value_hex} vs "
                    f"{self.faulty.value_hex}")
        if self.kind == "golden_only":
            return (f"control-flow divergence: ID {self.golden.index} "
                    f"({self.golden.opcode}) only in golden trace")
        return (f"control-flow divergence: ID {self.faulty.index} "
                f"({self.faulty.opcode}) only in faulty trace")


class _Slots(Sequence):
    """The slots of some runs of an alignment, in order, given by each run's
    first slot and length; item i is found by bisecting over the runs'
    cumulative lengths."""

    def __init__(self, firsts: list, lengths: list):
        self._firsts = firsts
        self._lengths = lengths
        self._before = list(accumulate(lengths, initial=0))  # slots before each run

    def __len__(self) -> int:
        return self._before[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(*i.indices(len(self)))))
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("slot out of range")
        r = bisect_right(self._before, i) - 1
        return self._firsts[r] + i - self._before[r]

    def __iter__(self):
        return chain.from_iterable(map(range, self._firsts, map(add, self._firsts,
                                                                 self._lengths)))


class _BuiltOnAccess(Sequence):
    """A read-only sequence of `build(key)` over `keys`, built item by item
    when read."""

    def __init__(self, keys: Sequence, build):
        self._keys = keys
        self._build = build

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._build, self._keys[i]))
        return self._build(self._keys[i])

    def __iter__(self):
        return map(self._build, self._keys)

    __eq__ = _sequence_eq


class DiffReport:
    """A minimal alignment of two traces, and the report of where they
    differ: the runs of slots (_myers_ops), the slot each run starts at, the
    matched slots whose values differ and the unmatched slots. `pairs`,
    `value_divergences` and `control_flow_divergences` build their
    AlignedPairs and Divergences when read. Each read gives a fresh view and
    the report keeps none, so it is in no reference cycle and its columns go
    with the last reference to it or a view, not at the next collection."""

    def __init__(self, golden: TraceColumns, faulty: TraceColumns):
        self.golden, self.faulty = golden, faulty
        golden_hexes, faulty_hexes = golden.hexes, faulty.hexes
        self.runs = _myers_ops(golden.indices, faulty.indices)
        self.starts = list(accumulate((run[3] for run in self.runs), initial=0))
        self.value_slots: list[int] = []  # matched slots whose values differ
        firsts, lengths = [], []  # the unmatched runs' slots
        for (kind, i, j, length), pos in zip(self.runs, self.starts):
            if kind != "match":
                firsts.append(pos)
                lengths.append(length)
                continue
            g, f = golden_hexes[i:i + length], faulty_hexes[j:j + length]
            if g != f:
                self.value_slots.extend(compress(range(pos, pos + length), map(ne, g, f)))
        self.control_slots = _Slots(firsts, lengths)
        first = min(self.value_slots[:1] + self.control_slots[:1], default=None)
        self.first_divergence = None if first is None else self.divergence(first)

    def pair(self, pos: int) -> AlignedPair:
        """The records at alignment slot `pos`."""
        r = bisect_right(self.starts, pos) - 1
        kind, i, j, _length = self.runs[r]
        t = pos - self.starts[r]
        return AlignedPair(None if kind == "ins" else self.golden[i + t],
                           None if kind == "del" else self.faulty[j + t])

    def divergence(self, pos: int) -> Divergence:
        p = self.pair(pos)
        kind = ("value" if p.matched()
                else "golden_only" if p.golden is not None else "faulty_only")
        return Divergence(kind, pos, p.golden, p.faulty)

    @property
    def pairs(self) -> Sequence[AlignedPair]:
        return _BuiltOnAccess(range(self.starts[-1]), self.pair)

    @property
    def value_divergences(self) -> Sequence[Divergence]:
        return _BuiltOnAccess(self.value_slots, self.divergence)

    @property
    def control_flow_divergences(self) -> Sequence[Divergence]:
        return _BuiltOnAccess(self.control_slots, self.divergence)

    @property
    def identical(self) -> bool:
        return self.first_divergence is None

    @property
    def classification(self) -> str:
        if self.identical:
            return "identical"
        if self.control_slots:
            return "control_flow"
        return "data_flow"


def trace_diff(golden: TraceColumns, faulty: TraceColumns) -> DiffReport:
    """Align two traces on instruction indices and report divergences."""
    return DiffReport(golden, faulty)


# -- union -------------------------------------------------------------------

class UnionEntry(NamedTuple):
    index: int
    opcode: str
    executions: int
    per_trace: list[int]
    values: set[str]


def trace_union(traces: list[TraceColumns]) -> dict[int, UnionEntry]:
    """Merge traces into per-instruction execution counts and value sets."""
    entries: dict[int, UnionEntry] = {}
    for ti, trace in enumerate(traces):
        indices, hexes = trace.indices, trace.hexes
        first = dict(zip(reversed(indices), range(len(indices) - 1, -1, -1)))  # index: row
        for index, count in Counter(indices).items():
            if index not in entries:
                entries[index] = UnionEntry(index, trace.opcodes[first[index]], 0,
                                            [0] * len(traces), set())
            entries[index].per_trace[ti] = count
        for index, value_hex in set(zip(indices, hexes)):
            entries[index].values.add(value_hex)
    return {index: e._replace(executions=sum(e.per_trace))  # every trace counted
            for index, e in sorted(entries.items())}


# -- propagation -------------------------------------------------------------

_PURE_CONSUMERS_EXCLUDED = frozenset({"store", "br", "ret", "call"})


class PropNode(NamedTuple):
    index: int
    opcode: str
    golden_hex: str
    faulty_hex: str
    annihilation: bool = False


class PropagationGraph(NamedTuple):
    nodes: dict[int, PropNode]
    edges: set[tuple[int, int]]
    benign_candidate: bool

    def annihilation_points(self) -> list[int]:
        return sorted(i for i, n in self.nodes.items() if n.annihilation)


def build_propagation(golden: TraceColumns, faulty: TraceColumns, graph: UseGraph,
                      outputs_equal: bool = True) -> PropagationGraph:
    """Project a diff onto the def-use graph, from the edit script's runs and
    the trace columns; no record is built.

    Nodes are instructions with at least one value-diverged matched pair,
    each with the values of its first. A node is an annihilation point when
    every def-use consumer is a pure value-producing instruction (stores,
    branches, returns, and calls never attest re-convergence) whose matched
    records agree bit for bit on both sides, with no unmatched occurrences.
    A diverged node with no consumers annihilates trivially.
    """
    gi, gh, fi, fh = golden.indices, golden.hexes, faulty.indices, faulty.hexes
    opcode_of = graph.opcode_of
    seen = set(gi).union(fi)
    if not seen.issubset(opcode_of):
        index = next(i for i in chain(gi, fi) if i not in opcode_of)
        raise IndexMismatch(
            f"trace record ID {index} is not an indexed instruction; "
            "trace and program disagree")
    runs = _myers_ops(gi, fi)
    first: dict[int, tuple[str, str]] = {}  # diverged instruction: its first pair's hex
    unmatched = set()  # instructions with an unmatched occurrence
    for kind, i, j, length in runs:
        if kind == "del":
            unmatched.update(gi[i:i + length])
        elif kind == "ins":
            unmatched.update(fi[j:j + length])
        else:
            for t in _differing(gh[i:i + length], fh[j:j + length], length):
                index = gi[i + t]
                if index not in first:
                    first[index] = gh[i + t], fh[j + t]
    # re-convergence evidence: every matched occurrence equal, none unmatched
    clean = seen - unmatched - first.keys()
    nodes = {index: PropNode(index, opcode_of[index], g, f,
                             all(succ in clean
                                 and opcode_of[succ] not in _PURE_CONSUMERS_EXCLUDED
                                 for succ in graph.successors(index)))
             for index, (g, f) in first.items()}
    edges = {(p, c) for (p, c) in graph.edges if p in nodes and c in nodes}
    benign = False
    if nodes and outputs_equal:  # a node comes from a matched run, so there are runs
        kind, i, j, length = runs[-1]  # the last slot's records agree
        benign = kind == "match" and gh[i + length - 1] == fh[j + length - 1]
    return PropagationGraph(nodes, edges, benign)


def trace_to_dot(graph: PropagationGraph, title: str = "propagation") -> str:
    """Render the propagation graph as a DOT digraph."""
    lines = [f'digraph "{title}" {{', "  node [shape=box];"]
    for idx in sorted(graph.nodes):
        n = graph.nodes[idx]
        label = f"{n.index} / {n.opcode} / {n.golden_hex}->{n.faulty_hex}"
        extra = ", peripheries=2" if n.annihilation else ""
        lines.append(f'  n{idx} [label="{label}"{extra}];')
    for p, c in sorted(graph.edges):
        lines.append(f"  n{p} -> n{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"
