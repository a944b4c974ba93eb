import math
import os
import random
import struct
import sys
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcfi.instrument import assign_indices, build_plan, load_input_config
from lcfi.ir.defuse import build_def_use
from lcfi.ir.parser import parse_module
from lcfi import traces
from lcfi.faults import Sampler, make_sampler
from lcfi.traces import (AlignedPair, Divergence, IndexMismatch, TraceFormatError,
                         TraceRecord, _SLICE, _WRITE_CHUNK, _blocks, _cost_bound,
                         _myers_core, _myers_ops, build_propagation, parse_record,
                         RunTrace, TraceColumns, TraceFields, TraceText, format_record,
                         read_trace, trace_diff, trace_to_dot, trace_union, write_trace)
from lcfi.vm.machine import IoConfig, Machine

from conftest import fixture_path, load_fixture_module, run_python


def _as_columns(records: list) -> TraceColumns:
    """The trace of these records, as its columns."""
    return TraceColumns([r.index for r in records], [r.opcode for r in records],
                        [r.value_hex for r in records])


class TestRecordFormat:
    def test_exact_layout(self):
        assert format_record(15, "load", "4010000000000000") == \
            "ID: 15   OPCode: load   Value: 4010000000000000"
        assert format_record(7, "store", "00000000") == \
            "ID: 7    OPCode: store  Value: 00000000"

    def test_wide_fields_get_a_space(self):
        line = format_record(123456, "getelementptr", "00000000")
        assert line == "ID: 123456 OPCode: getelementptr Value: 00000000"
        assert parse_record(line) == TraceRecord(123456, "getelementptr", "00000000")

    def test_roundtrip(self):
        rec = TraceRecord(42, "fmul", "4014e8d25119f5e3")
        assert parse_record(rec.render()) == rec

    def test_whitespace_tolerant(self):
        assert parse_record("  ID:  9\tOPCode:  add   Value: 0000002A  ") == \
            TraceRecord(9, "add", "0000002a")

    def test_blank_line_is_none(self):
        assert parse_record("   \n") is None

    @pytest.mark.parametrize("line", [
        "ID: x OPCode: add Value: 00000000",
        "ID: 9 OPCode: add Value: xyz",
        "ID: 9 Value: 00000000",
        "9 add 00000000",
    ])
    def test_malformed_raises(self, line):
        with pytest.raises(TraceFormatError):
            parse_record(line)

    def test_read_trace_reports_line_number(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("ID: 1    OPCode: load    Value: 00000000\njunk\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(str(p))

    def test_write_read_roundtrip(self, tmp_path):
        recs = [TraceRecord(1, "load", "0000002a"),
                TraceRecord(2, "store", "00000000")]
        p = tmp_path / "t.txt"
        fields = TraceFields([(1, "load", "i32"), (2, "store", "void")])
        write_trace(RunTrace([1, 2], [42, None], fields), str(p))
        assert read_trace(str(p)) == recs

    def test_read_from_lines(self, read_lines):
        lines = ["ID: 3    OPCode: add     Value: 00000001", "", ]
        assert read_lines(lines) == [TraceRecord(3, "add", "00000001")]

    @pytest.mark.parametrize("source", [["ID: 3 OPCode: add Value: 00000001"],
                                        iter(["ID: 3 OPCode: add Value: 00000001"]), 3])
    def test_read_trace_takes_only_a_path(self, source):
        with pytest.raises(TypeError, match="read_trace takes a path"):
            read_trace(source)


def _read_per_line(lines):
    """read_trace's contract, line by line: parse_record on each line, with
    the line number on the first malformed one."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = parse_record(line)
        except TraceFormatError as e:
            raise TraceFormatError(f"line {lineno}: {e}") from e
        if rec is not None:
            out.append(rec)
    return out


def _outcome(read, source):
    try:
        return read(source)
    except TraceFormatError as e:
        return str(e)


REC = "ID: 7    OPCode: load   Value: 0000002a"


class TestReadTraceFastPath:
    @pytest.mark.parametrize("text", [
        "",
        "\n",
        REC,
        REC + "\n" + REC,
        REC + "\r\n" + REC + "\r\n",
        REC + "\r" + REC + "\r",
        "ID:\t12\tOPCode:\tadd\tValue:\t0000002A\n",
        "   " + REC + "  \t\n\t" + REC + "\n",
        REC + "\n\n  \n\t\n" + REC + "\n\n",
        "ID: 3 OPCode: fmul Value: ABCDEF0123456789\n",
        "ID: 3\x0cOPCode: add Value: 00000001\n",
        "ID: 3\x0bOPCode: add\x0bValue: 00000001\x0b\n",
        "ID: 3\xa0OPCode: add Value: 00000001\n",
        "ID: 3 OPCode: add\u2028Value: 00000001\n",
        "ID: 3 OPCode: add\x1cValue: 00000001\n",
        REC + "\n\x0c\n\x1c\n" + REC + "\n",
        "ID: \u0661\u0662 OPCode: add Value: 00000001\n",
        REC + "\n" + REC + "\njunk\n" + REC + "\n",
        REC + "\nID: 9 OPCode: add\n",
        REC + "\nID: 9 OPCode: add",
        REC + "\nID: 9 OPCode: add Value: 0x10\n",
        REC + "\nID: 9 OPCode: add Value: 00000001 trailing\n",
        "ID: 9 OPCode: add Value: 00000001\nID:9OPCode: add Value: 1\n",
    ])
    def test_same_records_or_error_as_per_line(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        expected = _outcome(_read_per_line, lines)
        assert _outcome(read_trace, str(path)) == expected

    def test_non_utf8_byte_offset_is_from_file_start(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes((REC + "\n").encode() * 1000 + b"\xff\n")
        with pytest.raises(TraceFormatError, match=r"\(byte 40000\)"):  # 1000 x 40 bytes
            read_trace(str(path))

    def test_columns(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ID: 12 OPCode: fmul Value: ABCDEF0123456789\n" + REC + "\n")
        trace = read_trace(str(path))
        assert (trace.indices, trace.opcodes, trace.hexes) == (
            [12, 7], ["fmul", "load"], ["abcdef0123456789", "0000002a"])
        assert trace[1] == TraceRecord(7, "load", "0000002a")
        assert trace != [TraceRecord(12, "fmul", "abcdef0123456789")]

    @staticmethod
    def _long_lines():
        """Record lines enough for more than three slices, with varied
        indices, opcodes, spacing and hex case, all of them lines that
        _TEXT_RE takes."""
        rng = random.Random(13)
        lines = []
        while len(lines) < 3 * _SLICE // 32:  # a record line takes 40 characters or more
            value = f"{rng.randrange(1 << 64):016x}" if rng.random() < 0.5 else "0000002a"
            lines.append(format_record(rng.randrange(2000), rng.choice(["load", "fmul", "br"]),
                                       value.upper() if rng.random() < 0.3 else value)
                         + (" \t" if rng.random() < 0.1 else "") + "\n")
        return lines

    def test_more_than_three_slices_read_as_per_line(self, tmp_path, monkeypatch):
        lines = self._long_lines()
        assert len("".join(lines)) > 3 * _SLICE + 10_000
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        with monkeypatch.context() as patch:  # every slice matches line for line
            patch.setattr(traces, "parse_record", None)
            trace = read_trace(str(path))
        expected = _read_per_line(lines)
        assert trace == expected
        assert (trace.indices, trace.opcodes, trace.hexes) == (
            [r.index for r in expected], [r.opcode for r in expected],
            [r.value_hex for r in expected])
        # a line only the per-line parser takes sends the file through it
        lines[-3] = lines[-3].replace(" OPCode", "\x0cOPCode")
        lines.insert(len(lines) // 2, "\n")
        path.write_text("".join(lines))
        assert read_trace(str(path)) == _read_per_line(lines)

    def test_malformed_line_in_a_later_slice(self, tmp_path):
        lines = self._long_lines()
        k = len(lines) - 40  # well past the second slice's end
        lines[k - 1] = "ID: 9 OPCode: add Value: 0x10\n"
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        with pytest.raises(TraceFormatError, match=rf"^line {k}: malformed trace record"):
            read_trace(str(path))
        assert _outcome(read_trace, str(path)) == _outcome(_read_per_line, lines)

    def test_equal_values_share_one_string(self, tmp_path, read_lines):
        lines = self._long_lines()
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        trace = read_trace(str(path))
        first = {}
        for value in trace.hexes + trace.opcodes:
            assert first.setdefault(value, value) is value
        other = read_lines(["ID: 5 OPCode: load Value: 0000002A"])
        assert other.hexes[0] is trace.hexes[trace.hexes.index("0000002a")]


def _padded_to(size):
    """ASCII record lines of `size` characters in all, the last one without
    its line end and padded with spaces to fit."""
    n = size // (len(REC) + 1) - 1
    return (REC + "\n") * n + REC.ljust(size - n * (len(REC) + 1))


def _check_against_per_line(path, text):
    """Write `text` to `path` and check read_trace against _read_per_line
    over its text-mode lines."""
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    expected = _outcome(_read_per_line, lines)
    assert _outcome(read_trace, str(path)) == expected
    return expected


class TestReadTraceSlices:
    """A file is read _SLICE bytes plus the rest of a line at a time; byte
    _SLICE - 1 is the last one of the first read."""

    def test_crlf_split_by_the_first_read(self, tmp_path):
        text = _padded_to(_SLICE - 1) + "\r\n" + REC + "\r\n"
        assert text.encode()[_SLICE - 1:_SLICE + 1] == b"\r\n"
        records = _check_against_per_line(tmp_path / "t.txt", text)
        assert len(records) == text.count("\n")

    def test_lone_cr_at_the_first_read_end(self, tmp_path):
        text = _padded_to(_SLICE - 1) + "\r" + REC + "\r" + REC + "\n"
        assert text.encode()[_SLICE - 1] == ord("\r")
        records = _check_against_per_line(tmp_path / "t.txt", text)
        assert len(records) == text.count("\n") + 2

    @pytest.mark.parametrize("space,start", [
        ("\xa0", _SLICE - 1), ("\u2028", _SLICE - 2), ("\u2028", _SLICE - 1)])
    def test_multibyte_whitespace_across_the_first_read_end(self, tmp_path, space, start):
        text = (_padded_to(start - len("\nID: 3")) + "\nID: 3" + space
                + "OPCode: add Value: 00000001\n" + REC + "\n")
        assert text.encode()[start:start + len(space.encode())] == space.encode()
        records = _check_against_per_line(tmp_path / "t.txt", text)
        assert records[-2:] == [TraceRecord(3, "add", "00000001"), TraceRecord(7, "load", "0000002a")]

    def test_blank_line_in_the_second_slice_and_error_in_the_third(self, tmp_path, monkeypatch):
        lines = TestReadTraceFastPath._long_lines()
        starts = list(accumulate(map(len, lines), initial=0))
        blank = next(k for k, at in enumerate(starts) if at > _SLICE + 1000)
        lines.insert(blank, "\n")
        path = tmp_path / "t.txt"
        calls = []
        with monkeypatch.context() as patch:  # only the second slice goes line by line
            patch.setattr(traces, "parse_record", lambda line: calls.append(line)
                          or parse_record(line))
            assert _check_against_per_line(path, "".join(lines)) == _read_per_line(lines)
        assert 0 < len(calls) < len(lines) // 2
        bad = next(k for k, at in enumerate(starts) if at > 2 * _SLICE + 1000)
        lines[bad] = "ID: 9 OPCode: add Value: 0x10\n"
        _check_against_per_line(path, "".join(lines))
        with pytest.raises(TraceFormatError, match=rf"^line {bad + 1}: malformed trace record"):
            read_trace(str(path))

    def test_non_utf8_byte_in_the_third_slice(self, tmp_path):
        lines = (REC + "\n").encode() * (2 * _SLICE // 40 + 100)
        path = tmp_path / "t.txt"
        path.write_bytes(lines + b"\xff\n")
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_bytes().decode()
        assert whole.value.start == len(lines) > 2 * _SLICE
        with pytest.raises(TraceFormatError, match=rf"\(byte {len(lines)}\)"):
            read_trace(str(path))

    def test_path_like_source(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("ID: 12 OPCode: fmul Value: ABCDEF0123456789\n" + REC + "\n")
        columns = lambda trace: (trace.indices, trace.opcodes, trace.hexes)
        assert columns(read_trace(path)) == columns(read_trace(str(path)))
        assert read_trace(path).indices == [12, 7]

    def test_transient_memory_does_not_grow_with_the_file(self, tmp_path):
        """What a read allocates beyond the columns it returns stays about one
        slice's worth on a file four times as long."""
        text = "".join(TestReadTraceFastPath._long_lines())
        short, long = tmp_path / "short.txt", tmp_path / "long.txt"
        short.write_text(text)
        long.write_text(text * 4)
        warm = read_trace(str(short))  # its distinct strings stay interned

        def transient(path):
            tracemalloc.start()
            try:
                trace = read_trace(str(path))
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(trace) == len(warm) * (4 if path == long else 1)
            return peak - current

        assert transient(long) <= 1.25 * transient(short)

    def test_a_file_of_lone_cr_line_ends_is_read_a_slice_at_a_time(self, tmp_path):
        """Lines that end in a lone \\r read as text mode reads them, and the
        read's transient memory stays within the bound of \\n-ended files."""
        text = "".join(TestReadTraceFastPath._long_lines()).replace("\n", "\r")
        short, long = tmp_path / "short.txt", tmp_path / "long.txt"
        records = _check_against_per_line(short, text)
        assert len(records) == text.count("\r")
        _check_against_per_line(long, text * 4)

        def transient(path):
            tracemalloc.start()
            try:
                trace = read_trace(str(path))
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(trace) == len(records) * (4 if path == long else 1)
            return peak - current

        assert transient(long) <= 1.25 * transient(short)


class TestReadMemo:
    """A read converts each distinct index and value hex once and hands out
    the one object it made for every equal field."""

    LINES = ["ID: 1000 OPCode: load Value: 0000002a\n",
             "ID: 70000 OPCode: fmul Value: 3FF0000000000000\n",
             "ID: 1000 OPCode: load Value: 0000002A\n",
             "ID: 70000 OPCode: fmul Value: 3ff0000000000000\n"]

    def _reads(self, tmp_path):
        """The lines read from a file, and from a file the per-line parser
        reads (one line holds a form feed)."""
        plain, per_line = tmp_path / "plain.txt", tmp_path / "per_line.txt"
        plain.write_text("".join(self.LINES))
        per_line.write_text("".join(self.LINES) + "ID: 5\x0cOPCode: br Value: 00000000\n")
        return read_trace(str(plain)), read_trace(str(per_line))

    def test_equal_indices_share_one_int(self, tmp_path):
        for trace in self._reads(tmp_path):
            assert trace.indices[:4] == [1000, 70000, 1000, 70000]
            assert trace.indices[0] is trace.indices[2]
            assert trace.indices[1] is trace.indices[3]

    def test_equal_hex_share_one_string_and_uppercase_is_lowered(self, tmp_path):
        for trace in self._reads(tmp_path):
            assert trace.hexes[:4] == ["0000002a", "3ff0000000000000"] * 2
            assert trace.hexes[0] is trace.hexes[2]
            assert trace.hexes[1] is trace.hexes[3]

    def test_all_distinct_values_cost_less_than_the_columns(self, tmp_path):
        """The memo holds each distinct value once more as a key, not as a
        string of its own, so on a file whose every value is new a read's
        transient memory stays below the size of the columns it returns."""
        rng = random.Random(21)
        values = list(dict.fromkeys(rng.getrandbits(64) for _ in range(60_000)))
        path = tmp_path / "t.txt"
        path.write_text("".join(format_record(i % 300, "fmul", f"{v:016x}") + "\n"
                                for i, v in enumerate(values)))
        tracemalloc.start()
        try:
            trace = read_trace(str(path))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.hexes == [f"{v:016x}" for v in values]
        held = {id(x): sys.getsizeof(x) for col in (trace.indices, trace.opcodes,
                                                     trace.hexes) for x in col}
        columns = sum(held.values()) + sum(map(sys.getsizeof, (
            trace.indices, trace.opcodes, trace.hexes)))
        assert peak - current < columns


class TestReadLineMemo:
    """A read parses each distinct line once and looks it up after that; the
    memo is cleared once it holds more than _SLICE // 64 lines."""

    @staticmethod
    def _count_split(monkeypatch):
        """The lines each _TEXT_RE.split call receives, in one list."""
        sent, split = [], traces._TEXT_RE.split

        class Counting:
            @staticmethod
            def split(text):
                sent.extend(text.split("\n") if text else [])
                return split(text)

        monkeypatch.setattr(traces, "_TEXT_RE", Counting)
        return sent

    @staticmethod
    def _repeating_lines(distinct: int, total: int, seed: int) -> list:
        rng = random.Random(seed)
        pool = [format_record(rng.randrange(2000), rng.choice(["load", "fmul", "br"]),
                              f"{rng.randrange(1 << 64):016x}") + "\n"
                for _ in range(distinct)]
        return [rng.choice(pool) for _ in range(total)]

    def test_a_repeated_half_is_not_split_again(self, tmp_path, monkeypatch):
        half = self._repeating_lines(1000, 2 * _SLICE // 40, seed=5)
        lines = half + half
        assert len("".join(half)) > _SLICE  # the repeats lie in later slices
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        with monkeypatch.context() as patch:
            sent = self._count_split(patch)
            assert read_trace(str(path)) == _read_per_line(lines)
        # every distinct line went to the split once, none of them again
        assert sorted(sent) == sorted(line.rstrip("\n") for line in set(half))

    def test_malformed_line_after_memo_hits(self, tmp_path):
        lines = self._repeating_lines(200, 3 * _SLICE // 40, seed=6)
        k = len(lines) - 100  # in the last slice, after every line was seen
        lines[k - 1] = lines[k - 2].replace("Value: ", "Value: 0x")
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        with pytest.raises(TraceFormatError, match=rf"^line {k}: malformed trace record"):
            read_trace(str(path))
        assert _outcome(read_trace, str(path)) == _outcome(_read_per_line, lines)

    def test_longer_than_the_cap_and_fields_shared_across_clears(self, tmp_path):
        """60,000 records, each line three times in a row so the memo serves,
        of which more than four memo caps are distinct, over a small pool of
        indices, opcodes and hex: equal fields are one object across the
        clears."""
        rng = random.Random(7)
        hexes = [f"{rng.randrange(1 << 64):016x}" for _ in range(37)]
        lines = [format_record(1000 + i % 701, ("load", "fmul", "br")[i % 3],
                               hexes[i % 37].upper() if i % 5 == 0 else hexes[i % 37]) + "\n"
                 for i in range(20_000) for _ in range(3)]
        assert len(set(lines)) > 4 * (_SLICE // 64)
        assert len("".join(lines)) > 3 * _SLICE
        path = tmp_path / "t.txt"
        path.write_text("".join(lines))
        trace = read_trace(str(path))
        assert trace == _read_per_line(lines)
        for column in (trace.indices, trace.opcodes, trace.hexes):
            first = {}
            assert all(first.setdefault(x, x) is x for x in column)

    def test_mostly_new_lines_leave_the_memo_as_it_was(self):
        """A slice whose lines are more than half new is split whole and
        adds nothing to the line memo; one at half or less fills it."""
        lines = [format_record(i, "load", f"{i:08x}") for i in range(10)]
        for repeats, memoized in ((lines[:4], False), (lines[:5], True)):
            memo = {}, {}, {}, traces._Memo(int)
            out = traces.TraceColumns([], [], [])
            traces._parse("\n".join(lines[:5] + repeats), 1, out, memo)
            assert out == _read_per_line(lines[:5] + repeats)
            assert sorted(memo[0]) == (sorted(lines[:5]) if memoized else [])

    def test_new_lines_past_the_first_half_count_too(self):
        """The first half of the lines and one more are not all new, so the
        lines after them decide, with the memo empty or not: the rule is the
        same as over all lines."""
        lines = [format_record(i, "load", f"{i:08x}") for i in range(20)]
        known = lines[10:13]
        for held in ([], known):
            for rest, memoized in ((lines[5:9], False), (lines[1:5], True)):
                memo = {}, {}, {}, traces._Memo(int)
                out = traces.TraceColumns([], [], [])
                traces._parse("\n".join(known * 2), 1, out, memo)  # half new: fills the memo
                for lookup in memo[:3]:
                    for line in set(known) - set(held):
                        del lookup[line]
                chunk = lines[:5] + lines[:1] + held + rest
                traces._parse("\n".join(chunk) + "\n", 1, out, memo)
                assert out == _read_per_line(known * 2 + chunk)
                assert sorted(memo[0]) == sorted(held + (lines[:5] if memoized else []))


class TestTraceEquality:
    """Two column traces compare by their columns; any other sequence
    compares record by record."""

    LINES = ["ID: 1 OPCode: load Value: 0000002a", "ID: 2 OPCode: fmul Value: 3ff0000000000000",
             "ID: 1 OPCode: load Value: 0000002b"]

    def test_equal_traces(self, read_lines):
        one, two = read_lines(self.LINES), read_lines(self.LINES)
        assert one == two and two == one
        assert not one != two

    def test_a_difference_in_each_column(self, read_lines):
        base = read_lines(self.LINES)
        for column, value in (("indices", 3), ("opcodes", "add"), ("hexes", "0000002c")):
            other = read_lines(self.LINES)
            getattr(other, column)[1] = value
            assert base != other and other != base

    def test_different_lengths(self, read_lines):
        base = read_lines(self.LINES)
        assert base != read_lines(self.LINES[:2])
        assert read_lines(self.LINES[:2]) != base

    def test_columns_compare_without_records(self, read_lines):
        class NoRecords(TraceColumns):
            def __iter__(self):
                raise AssertionError("built a record")

            def __getitem__(self, i):
                raise AssertionError("built a record")

        plain = read_lines(self.LINES)
        assert NoRecords(plain.indices, plain.opcodes, plain.hexes) == plain

    def test_run_trace_against_its_file(self, tmp_path, read_lines):
        fields = TraceFields([(1, "load", "i32"), (2, "fmul", "f64")])
        trace = RunTrace([1, 2, 1], [42, 1.0, 43], fields)
        path = tmp_path / "t.txt"
        write_trace(trace, str(path))
        assert read_trace(str(path)) == trace and trace == read_trace(str(path))
        assert read_trace(str(path)) == read_lines(self.LINES)
        other = RunTrace([1, 2, 1], [42, 1.0, 44], fields)
        assert other != read_trace(str(path))

    def test_against_a_list_of_records_both_ways(self, read_lines):
        trace = read_lines(self.LINES)
        records = [parse_record(line) for line in self.LINES]
        assert trace == records and records == trace
        records[2] = TraceRecord(1, "load", "0000002c")
        assert trace != records and records != trace
        assert trace != records[:2] and records[:2] != trace


def _lcs_len(a, b):
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            dp[i][j] = (dp[i + 1][j + 1] + 1 if a[i] == b[j]
                        else max(dp[i + 1][j], dp[i][j + 1]))
    return dp[0][0]


def _expand(runs):
    """The runs as single-slot ops ("match", i, j), ("del", i) and ("ins", j)."""
    ops = []
    for kind, i, j, length in runs:
        for t in range(length):
            ops.append(("match", i + t, j + t) if kind == "match"
                       else ("del", i + t) if kind == "del" else ("ins", j + t))
    return ops


# The dict-based Myers core and its trimming wrapper as they were before the
# alignment was kept as runs: the oracle for the runs' exact tie-breaking.
def _oracle_myers_ops(a: list, b: list) -> list[tuple]:
    """Minimal edit script as ("match", i, j) / ("del", i) / ("ins", j) ops."""
    # Trim the common prefix and suffix first; Myers runs on the core.
    n_all, m_all = len(a), len(b)
    pre = 0
    while pre < n_all and pre < m_all and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while (suf < n_all - pre and suf < m_all - pre
           and a[n_all - 1 - suf] == b[m_all - 1 - suf]):
        suf += 1
    core_a = a[pre:n_all - suf]
    core_b = b[pre:m_all - suf]

    ops = [("match", i, i) for i in range(pre)]
    ops.extend(_oracle_myers_core(core_a, core_b, pre, pre))
    ops.extend(("match", n_all - suf + i, m_all - suf + i) for i in range(suf))
    return ops


def _oracle_myers_core(a: list, b: list, off_a: int, off_b: int) -> list[tuple]:
    n, m = len(a), len(b)
    if n == 0:
        return [("ins", off_b + j) for j in range(m)]
    if m == 0:
        return [("del", off_a + i) for i in range(n)]

    v = {1: 0}
    snapshots = []
    d_final = None
    for d in range(n + m + 1):
        snapshots.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v.get(k - 1, 0) < v.get(k + 1, 0)):
                x = v.get(k + 1, 0)
            else:
                x = v.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                d_final = d
                break
        if d_final is not None:
            break
    assert d_final is not None

    ops = []
    x, y = n, m
    for d in range(d_final, 0, -1):
        vprev = snapshots[d]
        k = x - y
        if k == -d or (k != d and vprev.get(k - 1, 0) < vprev.get(k + 1, 0)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = vprev.get(prev_k, 0)
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            ops.append(("match", off_a + x, off_b + y))
        if x == prev_x:
            ops.append(("ins", off_b + prev_y))
        else:
            ops.append(("del", off_a + prev_x))
        x, y = prev_x, prev_y
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        ops.append(("match", off_a + x, off_b + y))
    ops.reverse()
    return ops


def _edited(records: list, rng: random.Random, edits: int) -> list:
    """A copy of `records` with `edits` seeded blocks of 1-8 records deleted
    or inserted (copied from elsewhere in it), as an injected fault shifts a
    trace's control flow."""
    out = list(records)
    for _ in range(edits):
        pos, length = rng.randrange(len(out) + 1), rng.randint(1, 8)
        if rng.random() < 0.5:
            del out[pos:pos + length]
        else:
            start = rng.randrange(len(records))
            out[pos:pos] = records[start:start + length]
    return out


def _lcs_length(a: list, b: list) -> int:
    """LCS length by Hyyro's bit-parallel rows, apart from lcfi's code."""
    masks: dict = {}
    for j, s in enumerate(b):
        masks[s] = masks.get(s, 0) | 1 << j
    v = full = (1 << len(b)) - 1
    for s in a:
        u = v & masks.get(s, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


class TestMyersAlignment:
    def _check(self, a, b):
        ops = _expand(_myers_ops(a, b))
        # replaying the script must reconstruct both sequences in order
        ai = [i for kind, *rest in ops for i in
              ([rest[0]] if kind in ("match", "del") else [])]
        bj = []
        for op in ops:
            if op[0] == "match":
                assert a[op[1]] == b[op[2]]
                bj.append(op[2])
            elif op[0] == "ins":
                bj.append(op[1])
        assert ai == list(range(len(a)))
        assert bj == list(range(len(b)))
        matches = sum(1 for op in ops if op[0] == "match")
        assert matches == _lcs_len(a, b), "edit script must be minimal"

    def test_small_known_cases(self):
        self._check([], [])
        self._check([1, 2, 3], [1, 2, 3])
        self._check([1, 2, 3], [])
        self._check([], [1, 2])
        self._check([1, 2, 3, 4], [2, 3, 5])
        self._check([1, 1, 2], [2, 1, 1])

    def test_randomized_against_lcs_oracle(self):
        rng = random.Random(2024)
        for _ in range(400):
            n, m = rng.randint(0, 12), rng.randint(0, 12)
            a = [rng.randint(1, 5) for _ in range(n)]
            b = [rng.randint(1, 5) for _ in range(m)]
            self._check(a, b)


    def test_runs_match_the_oracle_op_for_op(self):
        rng = random.Random(8)
        large = 0
        for case in range(160):
            symbols = rng.randint(2, 5)
            a = [rng.randrange(symbols) for _ in range(rng.randint(0, 300))]
            if case % 16 == 0:  # unrelated sequences: D runs past 100
                b = [rng.randrange(symbols) for _ in range(rng.randint(150, 300))]
            else:
                b = list(a)
                for _ in range(rng.randint(0, 30)):
                    pos = rng.randint(0, len(b))
                    if rng.random() < 0.5 and pos < len(b):
                        del b[pos:pos + rng.randint(1, 4)]
                    else:
                        b[pos:pos] = [rng.randrange(symbols) for _ in range(rng.randint(1, 4))]
            runs = _myers_ops(a, b)
            expected = _oracle_myers_ops(a, b)
            assert _expand(runs) == expected
            assert _expand(_myers_core(a, b, 3, 5)) == _oracle_myers_core(a, b, 3, 5)
            assert all(length > 0 for *_rest, length in runs)
            assert all(r[0] != s[0] for r, s in zip(runs, runs[1:]))  # maximal runs
            large += sum(op[0] != "match" for op in expected) > 100
        assert large >= 5
        for case in range(120):  # one side of 0-3 records, the other up to a few hundred
            symbols = rng.randint(1, 5)
            short = [rng.randrange(symbols) for _ in range(rng.randint(0, 3))]
            long = [rng.randrange(symbols) + (case % 4 == 0) * symbols  # disjoint
                    for _ in range(rng.randint(0, 300))]
            a, b = (short, long) if case % 2 else (long, short)
            runs = _myers_ops(a, b)
            assert _expand(runs) == _oracle_myers_ops(a, b)
            assert all(r[0] != s[0] for r, s in zip(runs, runs[1:]))
            assert _expand(_myers_core(a, b, 3, 5)) == _oracle_myers_core(a, b, 3, 5)
        for case in range(24):  # trace-shaped: a loop body of distinct indices, repeated
            body = rng.sample(range(1000), rng.randint(5, 40))
            a = body * rng.randint(300 // len(body), 600 // len(body))
            b = _edited(a, rng, rng.randint(1, 12))
            assert _expand(_myers_ops(a, b)) == _oracle_myers_ops(a, b)
            assert _expand(_myers_core(a, b, 3, 5)) == _oracle_myers_core(a, b, 3, 5)
        for case in range(40):
            # One side of 10-40 records, the other a few hundred: the far
            # diagonals run up to the short side's length past its end.
            symbols = rng.randint(2, 6)
            short = [rng.randrange(symbols) for _ in range(rng.randint(10, 40))]
            long = [rng.randrange(symbols) + (case % 3 == 0) * symbols
                    for _ in range(rng.randint(150, 300))]
            a, b = (short, long) if case % 2 else (long, short)
            before = (list(a), list(b))
            assert _expand(_myers_ops(a, b)) == _oracle_myers_ops(a, b)
            assert _expand(_myers_core(a, b, 3, 5)) == _oracle_myers_core(a, b, 3, 5)
            assert (a, b) == before  # the core leaves its sides as they were
        # Trimming compares _BLOCK (64) records at a time: common prefix and
        # suffix lengths at the block edges, equal sides, one side a prefix
        # or suffix of the other, and an empty side.
        edges = (0, 63, 64, 65, 130)
        pairs = []
        for pre in edges:
            for suf in edges:
                head = [rng.randrange(4) for _ in range(pre)]
                tail = [rng.randrange(4) for _ in range(suf)]
                # the cores start and end on unequal records, so the trim is exact
                pairs.append((head + [10] + [rng.randrange(4) for _ in range(rng.randint(0, 20))]
                              + [11] + tail,
                              head + [12] + [rng.randrange(4) for _ in range(rng.randint(0, 20))]
                              + [13] + tail))
        for n in (0, 1, 63, 64, 65, 130, 200):
            whole = [rng.randrange(3) for _ in range(n)]
            pairs.append((whole, list(whole)))
            for k in (0, 1, 63, 64, 65, n - 1):
                pairs += [(whole[:k], whole), (whole, whole[:k]),
                          (whole[n - k:], whole), (whole, whole[n - k:])]
        for a, b in pairs:
            runs = _myers_ops(a, b)
            assert _expand(runs) == _oracle_myers_ops(a, b)
            assert all(length > 0 for *_rest, length in runs)
            assert all(r[0] != s[0] for r, s in zip(runs, runs[1:]))


class TestBandedCore:
    """_myers_core keeps to the band that a bound U >= D leaves and returns
    the script of the core without a band for every such U; _cost_bound
    gives one such U."""

    @staticmethod
    def _cases():
        rng = random.Random(23)
        for case in range(120):  # randomized, a few of them unrelated
            symbols = rng.randint(1, 5)
            a = [rng.randrange(symbols) for _ in range(rng.randint(0, 150))]
            b = list(a)
            if case % 10 == 0:
                b = [rng.randrange(symbols) for _ in range(rng.randint(0, 150))]
            for _ in range(rng.randint(0, 15)):
                pos = rng.randint(0, len(b))
                if rng.random() < 0.5:
                    del b[pos:pos + rng.randint(1, 4)]
                else:
                    b[pos:pos] = [rng.randrange(symbols) for _ in range(rng.randint(1, 4))]
            yield a, b
        for _ in range(30):  # trace-shaped: a loop body of distinct indices, repeated
            body = rng.sample(range(1000), rng.randint(5, 40))
            a = body * rng.randint(300 // len(body), 600 // len(body))
            yield a, _edited(a, rng, rng.randint(1, 12))
        for case in range(40):  # one side of 0-3 records, the other up to 200
            short = [rng.randrange(3) for _ in range(rng.randint(0, 3))]
            long = [rng.randrange(3) for _ in range(rng.randint(0, 200))]
            yield (short, long) if case % 2 else (long, short)

    def test_every_bound_from_d_on_gives_the_unbanded_script(self):
        for a, b in self._cases():
            before = (list(a), list(b))
            expected = _oracle_myers_core(a, b, 3, 5)
            d = sum(op[0] != "match" for op in expected)
            u = _cost_bound(a, b)
            assert d <= u <= len(a) + len(b)
            for bound in (d, d + 1, d + 2, u, len(a) + len(b), None):
                assert _expand(_myers_core(a, b, 3, 5, bound)) == expected
            assert (a, b) == before  # both leave the sides as they were

    def test_a_bound_below_d_raises(self):
        a, b = [1, 2, 3, 4], [4, 3, 2, 1]  # D = 6
        with pytest.raises(ValueError):
            _myers_core(a, b, 0, 0, 4)
        assert (a, b) == ([1, 2, 3, 4], [4, 3, 2, 1])
        assert _expand(_myers_core(a, b, 0, 0, 6)) == _oracle_myers_core(a, b, 0, 0)

    def test_cost_bound_is_d_on_sparse_edits(self):
        """Edits hundreds of records apart in a trace-shaped pair: each step
        of the quick alignment spans one edit, at its cost."""
        rng = random.Random(29)
        body = rng.sample(range(1000), 24)
        a = body * 60
        b = list(a)
        for pos in (1300, 900, 500, 100):  # from the back, so each position holds
            if pos % 800 == 100:
                del b[pos:pos + 3]
            else:
                b[pos:pos] = body[5:9]
        d = sum(op[0] != "match" for op in _oracle_myers_core(a, b, 0, 0))
        assert d == 14
        assert _cost_bound(a, b) == d

    def test_cost_bound_takes_the_point_nearest_the_end_diagonal(self):
        """From the first mismatch both one-edit diagonals reach 32 equal
        records. Inserting b[0], found first, leaves 3 more edits; deleting
        a[0], on the diagonal nearest the end's (n - m = 2), leaves 1."""
        a = [1, 2] * 20 + [1, 3] + list(range(100, 140))
        b = [2, 1] * 20 + list(range(100, 140))
        d = sum(op[0] != "match" for op in _oracle_myers_core(a, b, 0, 0))
        assert d == 2
        assert _cost_bound(a, b) == d

    def test_cost_bound_after_searches_that_ran_ahead(self):
        """Long runs of one record let a step's search run far ahead on
        diagonals that the next step visits too; the next step starts from
        its own mismatch all the same."""
        rng = random.Random(57)
        for _ in range(24):
            x = [rng.randrange(2) for _ in range(rng.randint(20, 60))]
            a = x + [5] * 40 + x[::-1] + [6] * 40 + x
            b = _edited(a, rng, rng.randint(1, 10))
            expected = _oracle_myers_core(a, b, 0, 0)
            u = _cost_bound(a, b)
            assert u >= sum(op[0] != "match" for op in expected)
            assert _expand(_myers_core(a, b, 0, 0, u)) == expected

    def test_cost_bound_gives_up_after_one_capped_step_on_unrelated_sides(self):
        """With no run of equal records to reach, the first step stops at its
        cap and the bound is n + m, as with no quick alignment."""
        compares = 0

        class Counted:
            def __init__(self, key):
                self.key = key

            def __eq__(self, other):
                nonlocal compares
                compares += 1
                return isinstance(other, Counted) and self.key == other.key

        a = [Counted(i % 7) for i in range(600)]
        b = [Counted(7 + i % 5) for i in range(700)]
        assert _cost_bound(a, b) == 1300
        # a step's round d visits at most d + 1 diagonals, one compare each
        assert compares <= (traces._STEP_EDITS + 1) * (traces._STEP_EDITS + 2) // 2 + 2
        assert (len(a), len(b)) == (600, 700)


def _oracle_banded_core(a: list, b: list, off_a: int, off_b: int, u: int) -> list[tuple]:
    """_oracle_myers_core with round d kept to the diagonals k where
    d + |k - (n - m)| <= u (Ukkonen's cutoff), and each round's snapshot to
    them, for u >= D. A kept diagonal reads only kept diagonals of the
    round before, and so does the backtrack, so the script is the same; on a
    core with one side of s records only about s + 1 diagonals a round are
    kept, so it stays cheap where the plain oracle's snapshots grow with D**2."""
    n, m = len(a), len(b)
    if n == 0:
        return [("ins", off_b + j) for j in range(m)]
    if m == 0:
        return [("del", off_a + i) for i in range(n)]
    v = {1: 0}
    snapshots = []
    d_final = None
    for d in range(u + 1):
        snapshots.append(v)
        lo, hi = max(-d, n - m - u + d), min(d, n - m + u - d)
        lo += (lo + d) % 2
        prev, v = v, {}
        for k in range(lo, hi + 1, 2):
            if k == -d or (k != d and prev.get(k - 1, 0) < prev.get(k + 1, 0)):
                x = prev.get(k + 1, 0)
            else:
                x = prev.get(k - 1, 0) + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                d_final = d
                break
        if d_final is not None:
            break
    assert d_final is not None

    ops = []
    x, y = n, m
    for d in range(d_final, 0, -1):
        vprev = snapshots[d]
        k = x - y
        if k == -d or (k != d and vprev.get(k - 1, 0) < vprev.get(k + 1, 0)):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = vprev.get(prev_k, 0)
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            ops.append(("match", off_a + x, off_b + y))
        ops.append(("ins", off_b + prev_y) if x == prev_x else ("del", off_a + prev_x))
        x, y = prev_x, prev_y
    while x > 0 and y > 0:
        x -= 1
        y -= 1
        ops.append(("match", off_a + x, off_b + y))
    ops.reverse()
    return ops


class TestBlockedCore:
    """_myers_core's LCS table, computed and read a block of _ROWS rows at a
    time over a window of columns that moves once per block, gives Myers'
    scripts: cores several blocks long, cores short on one side, runs across
    a block's edge, and the memory a large edit distance takes."""

    @staticmethod
    def _distance(runs: list) -> int:
        return sum(length for kind, _i, _j, length in runs if kind != "match")

    def test_small_cores_match_the_oracle(self):
        for a, b in TestBandedCore._cases():
            expected = _oracle_myers_core(a, b, 3, 5)
            d = sum(op[0] != "match" for op in expected)
            for bound in (d, d + 2, _cost_bound(a, b), None):
                assert _expand(_myers_core(a, b, 3, 5, bound)) == expected

    def test_cores_of_several_blocks_match_the_oracle(self):
        assert traces._ROWS <= 300
        rng = random.Random(41)
        cases = []
        for _ in range(6):  # trace-shaped: a loop body of distinct indices, repeated
            body = rng.sample(range(1000), rng.randint(5, 40))
            a = body * rng.randint(300 // len(body) + 1, 3000 // len(body))
            cases.append((a, _edited(a, rng, rng.randint(2, 30))))
        for _ in range(3):
            # A loop body of 600-900 indices, too rare for a mask of their own
            # (less than one column in 512), and a short one that is not.
            body, inner = rng.sample(range(1000), rng.randint(600, 900)), [1001, 1002, 1003]
            a = body * 2 + inner * 40 + body
            cases.append((a, _edited(a, rng, rng.randint(2, 30))))
        for _ in range(6):  # random over 2-6 symbols, edited
            symbols = rng.randint(2, 6)
            a = [rng.randrange(symbols) for _ in range(rng.randint(300, 3000))]
            b = list(a)
            for _ in range(rng.randint(2, 40)):
                pos = rng.randint(0, len(b))
                if rng.random() < 0.5:
                    del b[pos:pos + rng.randint(1, 6)]
                else:
                    b[pos:pos] = [rng.randrange(symbols) for _ in range(rng.randint(1, 6))]
            cases.append((a, b))
        for _ in range(2):  # random over 2-6 symbols, unrelated
            symbols = rng.randint(2, 6)
            cases.append(tuple([rng.randrange(symbols) for _ in range(rng.randint(300, 400))]
                               for _side in range(2)))
        for _ in range(4):
            # A stretch of edits of one kind, a long snake, then edits of the
            # other kind: at U = D the path runs along the band's edge.
            common = [rng.randrange(4) for _ in range(rng.randint(600, 2000))]
            head = [rng.randrange(4, 8) for _ in range(rng.randint(5, 60))]
            tail = [rng.randrange(4, 8) for _ in range(rng.randint(5, 60))]
            cases.append((head + common, common + tail))
        cases += [(b, a) for a, b in cases[::3]]  # the other side gives the rows
        for a, b in cases:
            if len(a) == len(b):
                b = b[:-1]
            expected = _oracle_myers_core(a, b, 3, 5)
            d = sum(op[0] != "match" for op in expected)
            for bound in (_cost_bound(a, b), d, len(a) + len(b)):
                assert _expand(_myers_core(a, b, 3, 5, bound)) == expected
            if d - 2 >= abs(len(a) - len(b)):  # a bound below |n - m| counts as |n - m|
                with pytest.raises(ValueError):
                    _myers_core(a, b, 3, 5, d - 2)

    def test_banded_oracle_matches_the_oracle(self):
        rng = random.Random(43)
        for case in range(60):
            symbols = rng.randint(1, 4)
            short = [rng.randrange(symbols) for _ in range(rng.randint(0, 4))]
            long = [rng.randrange(symbols) + (case % 3 == 0) * symbols
                    for _ in range(rng.randint(0, 120))]
            a, b = (short, long) if case % 2 else (long, short)
            expected = _oracle_myers_core(a, b, 3, 5)
            d = sum(op[0] != "match" for op in expected)
            for u in (d, d + 2, len(a) + len(b)):
                assert _oracle_banded_core(a, b, 3, 5, u) == expected

    def test_short_sided_cores_match_the_oracle(self):
        """One side of 0-4 records against at least 2,000: the longer side
        gives the rows, in both orientations, and the window spans the
        shorter side whole. Then 2 records against 5,000 of a 37-index loop
        body, both ways, and the body x300 against itself with 6 and with 400
        edits: a long core at a small U and at a large one."""
        rng = random.Random(47)
        cases = []
        for case in range(16):
            symbols = rng.randint(1, 4)
            short = [rng.randrange(symbols) for _ in range(case % 5)]
            long = [rng.randrange(symbols) + (case % 4 == 0) * symbols  # disjoint
                    for _ in range(rng.randint(2000, 2600))]
            cases.append((short, long) if case % 2 else (long, short))
        rng = random.Random(59)
        body = rng.sample(range(1000), 37)
        a = body * 300
        cases += [(a, _edited(a, rng, 6)), (a, _edited(a, rng, 400)),
                  (a[:5000], [1001, 1002]), ([1001, 1002], a[:5000])]
        for a, b in cases:
            runs = _myers_core(a, b, 3, 5, _cost_bound(a, b))
            assert _expand(runs) == _oracle_banded_core(a, b, 3, 5, self._distance(runs))
            assert _expand(_myers_core(a, b, 3, 5)) == _expand(runs)

    def test_runs_across_a_block_edge(self):
        """A trace-shaped pair whose core has an inserted block across its
        row _ROWS, the first row of the table's second block."""
        rng = random.Random(53)
        body = rng.sample(range(1000), 24)
        a = body * 40
        cut = 100 + traces._ROWS - 6  # b[cut:cut + 12] is the core's rows 250-261
        b = a[:100] + a[103:cut + 3] + body[3:15] + a[cut + 3:]
        runs = _myers_ops(a, b)
        assert _expand(runs) == _oracle_myers_ops(a, b)
        pre = runs[0][3]
        assert pre == 100 and len(b) > len(a)  # b gives the core's rows
        assert any(kind == "ins" and j - pre < traces._ROWS < j - pre + length
                   for kind, _i, j, length in runs)

    def test_cost_bound_goes_on_past_a_long_insertion(self):
        """A step that finds no run of equal records within _STEP_EDITS
        edits goes on from the furthest point it reached while the failed
        steps cost less than the table would, so U stays D there, where
        giving up would leave the rest of both sides unmatched."""
        rng = random.Random(61)
        body = rng.sample(range(1000), 24)
        a = body * 600
        b = a[:7000] + list(range(2000, 2400)) + a[7000:10000] + a[10003:]
        assert traces._STEP_EDITS < 400
        d = sum(op[0] != "match" for op in _oracle_myers_ops(a, b))
        assert d == 403
        assert _cost_bound(a, b) == d
        assert _expand(_myers_ops(a, b)) == _oracle_myers_ops(a, b)

    def test_cost_bound_stays_a_bound_when_every_failed_step_goes_on(self, monkeypatch):
        """With no limit on failed steps, each goes on from its furthest
        point, on unrelated and short sides too, where that point can lie
        past a side's end: reached only by deletions or insertions past the
        end, which the rest of the other side, left unmatched, pays back."""
        monkeypatch.setattr(traces, "_ROUND_VISITS", 10**15)
        rng = random.Random(67)
        for _ in range(150):
            symbols = rng.randint(2, 8)
            a = [rng.randrange(symbols) for _ in range(rng.randint(1, 700))]
            b = [rng.randrange(symbols) + rng.choice((0, symbols))
                 for _ in range(rng.choice((rng.randint(1, 10), rng.randint(1, 700))))]
            for x, y in ((a, b), (b, a)):
                d = len(x) + len(y) - 2 * _lcs_length(x, y)
                assert d <= _cost_bound(x, y) <= len(x) + len(y)

    def test_memory_stays_flat_at_a_large_distance(self):
        """About 20,000 records a side at D of about 10,000: the core keeps
        each block's first row, three blocks of rows and its masks; the
        rounds it replaced kept about D**2 / 2 entries (about 190 MB)."""
        rng = random.Random(31)
        body = rng.sample(range(1000), 37)
        a = body * (20000 // len(body))
        b = _edited(a, rng, 2800)
        bound = _cost_bound(a, b)
        tracemalloc.start()
        try:
            runs = _myers_core(a, b, 0, 0, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 9000 <= self._distance(runs) <= 11000
        assert peak < 16_000_000


class TestTraceDiff:
    def test_fixture_divergence(self):
        golden = read_trace(fixture_path("trace_golden.txt"))
        faulty = read_trace(fixture_path("trace_faulty.txt"))
        report = trace_diff(golden, faulty)
        assert not report.identical
        first = report.first_divergence
        assert first.kind == "value"
        assert first.golden.index == 18
        assert first.golden.value_hex == "4010000000000000"
        assert first.faulty.value_hex == "4014e8d25119f5e3"
        only = [d for d in report.control_flow_divergences]
        assert [d.golden.index for d in only] == [19]
        assert all(d.kind == "golden_only" for d in only)
        assert report.classification == "control_flow"
        assert "value divergence at ID 18" in first.describe()
        assert "only in golden" in only[0].describe()

    def test_identical(self):
        recs = [TraceRecord(1, "load", "0000002a")]
        report = trace_diff(_as_columns(recs), _as_columns(recs))
        assert report.identical
        assert report.classification == "identical"
        assert report.value_divergences == []

    def test_value_only_is_data_flow(self):
        golden = [TraceRecord(1, "load", "00000001"),
                  TraceRecord(2, "add", "00000002")]
        faulty = [TraceRecord(1, "load", "00000009"),
                  TraceRecord(2, "add", "0000000a")]
        report = trace_diff(_as_columns(golden), _as_columns(faulty))
        assert report.classification == "data_flow"
        assert [d.golden.index for d in report.value_divergences] == [1, 2]

    def test_alignment_ignores_values(self):
        # same index sequence with different values must align 1:1
        golden = [TraceRecord(i, "add", "00000001") for i in (1, 2, 3)]
        faulty = [TraceRecord(i, "add", "00000002") for i in (1, 2, 3)]
        report = trace_diff(_as_columns(golden), _as_columns(faulty))
        assert all(p.matched() for p in report.pairs)
        assert len(report.value_divergences) == 3

    def test_faulty_only_records(self):
        golden = [TraceRecord(1, "load", "00000001")]
        faulty = [TraceRecord(1, "load", "00000001"),
                  TraceRecord(9, "br", "00000000")]
        report = trace_diff(_as_columns(golden), _as_columns(faulty))
        assert report.first_divergence.kind == "faulty_only"
        assert report.classification == "control_flow"

    def test_first_divergence_in_alignment_order(self):
        golden = [TraceRecord(1, "load", "00000001"),
                  TraceRecord(2, "add", "00000002")]
        faulty = [TraceRecord(5, "load", "00000001"),
                  TraceRecord(2, "add", "00000002")]
        report = trace_diff(_as_columns(golden), _as_columns(faulty))
        # the unmatched slot at the front must win over later matches
        assert report.first_divergence.kind in ("golden_only", "faulty_only")
        assert report.first_divergence.position == 0

    def test_a_read_report_is_freed_without_the_collector(self):
        """Reading a report's sequences leaves no reference cycle, so its
        columns go at the last `del` (a cycle raised a batch's peak RSS)."""
        import gc
        import weakref
        report = trace_diff(read_trace(fixture_path("trace_golden.txt")),
                            read_trace(fixture_path("trace_faulty.txt")))
        assert report.classification == "control_flow"
        assert all(map(list, (report.pairs, report.value_divergences,
                              report.control_flow_divergences)))
        alive = weakref.ref(report)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del report
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from("01")), max_size=30),
           st.lists(st.tuples(st.integers(1, 4), st.sampled_from("01")), max_size=30))
    def test_slots_agree_with_the_pairs(self, golden, faulty):
        golden = _as_columns([TraceRecord(i, "add", v * 8) for i, v in golden])
        faulty = _as_columns([TraceRecord(i, "add", v * 8) for i, v in faulty])
        report = trace_diff(golden, faulty)
        pairs = list(report.pairs)
        control = [pos for pos, p in enumerate(pairs) if not p.matched()]
        values = [pos for pos, p in enumerate(pairs) if p.matched() and not p.value_equal()]
        expected = [Divergence("golden_only" if p.faulty is None else "faulty_only",
                               pos, p.golden, p.faulty)
                    for pos, p in enumerate(pairs) if not p.matched()]
        got = report.control_flow_divergences
        assert list(got) == expected and len(got) == len(expected)
        assert [got[i] for i in range(-len(got), len(got))] == expected + expected
        assert got[1:-1:2] == expected[1:-1:2] and got[::-1] == expected[::-1]
        for i in (len(got), -len(got) - 1):
            with pytest.raises(IndexError):
                got[i]
        assert [d.position for d in report.value_divergences] == values
        first = min(values + control, default=None)
        assert (report.first_divergence and report.first_divergence.position) == first
        assert report.classification == ("identical" if first is None else
                                          "control_flow" if control else "data_flow")

    def test_hang_shaped_pair(self):
        """4 golden records against 100k faulty ones with no index in common,
        as a budget-stopped run leaves after trimming: the diff takes seconds
        and its memory grows with the long side, not with its square (a full
        Myers pass would take about 5e9 diagonal steps)."""
        code = """if True:
            import time, tracemalloc
            from lcfi.traces import TraceColumns, trace_diff

            def pair(m):
                golden = TraceColumns([900, 901, 902, 903], ["add"] * 4, ["00000001"] * 4)
                return golden, TraceColumns([i % 200 for i in range(m)], ["add"] * m,
                                            ["00000002"] * m)

            t = time.perf_counter()
            report = trace_diff(*pair(100_000))
            print(report.classification, report.first_divergence.position,
                  len(report.control_flow_divergences), len(report.value_divergences),
                  time.perf_counter() - t)
            golden, faulty = pair(5000)  # tracemalloc slows the core's loop about 50x
            tracemalloc.start()
            trace_diff(golden, faulty).classification
            print(tracemalloc.get_traced_memory()[1])
        """
        out = run_python(code, timeout=120).split()  # a full Myers pass would run for hours
        assert out[:4] == ["control_flow", "0", "100004", "0"]
        assert float(out[4]) < 20  # about 0.5 s on a 2-core host
        # 4 x 5000 takes about 0.3 MB; a snapshot per round would take 50 MB
        assert int(out[5]) < 2_000_000


class TestTraceUnion:
    def test_counts_and_values(self):
        t1 = [TraceRecord(1, "load", "00000001"),
              TraceRecord(2, "add", "00000002"),
              TraceRecord(1, "load", "00000003")]
        t2 = [TraceRecord(1, "load", "00000001")]
        union = trace_union([_as_columns(t1), _as_columns(t2)])
        assert sorted(union) == [1, 2]
        e1 = union[1]
        assert e1.executions == 3
        assert e1.per_trace == [2, 1]
        assert e1.values == {"00000001", "00000003"}
        assert union[2].per_trace == [1, 0]

    def test_empty(self):
        assert trace_union([]) == {}
        assert trace_union([_as_columns([])]) == {}


def test_run_trace_reads_like_its_records(tmp_path, demo_indexed, demo_io):
    trace = Machine(demo_indexed, demo_io, trace=True).run().trace
    records = list(trace)
    assert len(trace) == len(records) > 0
    assert (trace[0], trace[-1], trace[2:5]) == (records[0], records[-1], records[2:5])
    write_trace(trace, str(tmp_path / "run.txt"))
    assert (tmp_path / "run.txt").read_bytes() == "".join(r.render() + "\n"
                                                          for r in records).encode()
    assert read_trace(str(tmp_path / "run.txt")) == records


def test_run_trace_is_its_columns(tmp_path):
    """A run's trace equals its records and the trace read back from its file,
    and diffs and merges as that read-back trace does."""
    trace = Machine(assign_indices(load_fixture_module("cg.ll")), trace=True).run().trace
    records = list(trace)
    assert len(records) > 1000
    assert trace == records and records == trace
    assert trace != records[:-1] and trace != records[1:] + records[:1]
    write_trace(trace, str(tmp_path / "run.txt"))
    read_back = read_trace(str(tmp_path / "run.txt"))
    assert trace == read_back and read_back == trace
    assert (trace.indices, trace.opcodes, trace.hexes) == (read_back.indices,
                                                           read_back.opcodes, read_back.hexes)
    assert trace_diff(trace, read_back).identical
    assert trace_diff(read_back, trace).identical
    assert trace_union([trace]) == trace_union([read_back])
    assert trace_union([trace, read_back]) == trace_union([read_back, trace])


class TestWriteAgainstGolden:
    """write_trace against golden's TraceText writes the plain bytes."""

    FIELDS = TraceFields([(1, "fadd", "f64"), (2, "add", "i32"), (3, "fmul", "f32"),
                          (4, "store", "void"), (5, "load", "i64")])
    GOLDEN = RunTrace([1, 2, 3, 4, 5, 1, 3, 1, 2, 5],
                      [0.0, 0, -0.0, None, 7, 2.5, 0.0, 0, 3, 0], FIELDS)

    @staticmethod
    def _text(tmp_path, golden) -> TraceText:
        text = write_trace(golden, str(tmp_path / "golden.txt"))
        assert (text.trace, text.path) == (golden, str(tmp_path / "golden.txt"))
        assert text.data == (tmp_path / "golden.txt").read_bytes()
        return text

    def _check(self, tmp_path, indices, values, golden=GOLDEN):
        trace = RunTrace(indices, values, self.FIELDS)
        write_trace(trace, str(tmp_path / "plain.txt"))
        write_trace(trace, str(tmp_path / "against.txt"), self._text(tmp_path, golden))
        plain = (tmp_path / "plain.txt").read_bytes()
        assert (tmp_path / "against.txt").read_bytes() == plain
        return plain

    def test_golden_itself(self, tmp_path):
        assert (self._check(tmp_path, self.GOLDEN.indices, self.GOLDEN.values)
                == self._text(tmp_path, self.GOLDEN).data)

    def test_line_offsets(self, tmp_path):
        text = self._text(tmp_path, self.GOLDEN)
        lines = [r.render() for r in self.GOLDEN]
        assert text.data == "".join(line + "\n" for line in lines).encode()
        assert list(text.offsets) == [sum(len(line) + 1 for line in lines[:k])
                                      for k in range(len(lines) + 1)]

    def test_offsets_and_zeros_of_the_written_file(self, tmp_path):
        """The TraceText write_trace returns derives the file's line starts
        from its bytes and golden's float zeros from its values."""
        text = write_trace(self.GOLDEN, str(tmp_path / "golden.txt"))
        assert not {"data", "offsets", "zeros"} & vars(text).keys()  # none derived yet
        data = (tmp_path / "golden.txt").read_bytes()
        assert list(text.offsets) == [0] + [k + 1 for k, byte in enumerate(data)
                                            if byte == ord("\n")]
        # 0.0, -0.0, 0.0 and an int 0 under f64 and f32; the zeros under
        # i32 and i64 are not under a float kind
        assert list(text.zeros) == [0, 2, 6, 7]
        kinds = {1: "f64", 3: "f32"}
        assert list(text.zeros) == [pos for pos, (i, v) in enumerate(zip(
            self.GOLDEN.indices, self.GOLDEN.values)) if i in kinds and v == 0]

    @pytest.mark.parametrize("values,renders_as_golden", [
        ([-0.0, 0, -0.0, None, 7, 2.5, 0.0, 0, 3, 0], False),  # -0.0 for 0.0
        ([0.0, 0, 0.0, None, 7, 2.5, -0.0, 0, 3, 0], False),  # 0.0 for -0.0
        ([0.0, 0, -0.0, None, 7, 2.5, 0.0, -0.0, 3, 0], False),  # -0.0 for int 0
        ([0, 0, -0.0, None, 7, 2.5, 0, 0.0, 3, 0], True),  # 0 for 0.0, 0.0 for 0
        ([math.nan, 0, -0.0, None, 7, math.nan, 0.0, 0, 3, 0], False),
        ([0.0, 0, -0.0, None, 7, 2.5, 0.0, 0, 4, -1], False),  # ints differ
    ], ids=["neg_zero", "pos_zero", "neg_zero_for_int_zero", "int_zero",
            "nan", "ints"])
    def test_equal_values_that_render_differently(self, tmp_path, values,
                                                  renders_as_golden):
        plain = self._check(tmp_path, self.GOLDEN.indices, values)
        assert (plain == self._text(tmp_path, self.GOLDEN).data) == renders_as_golden

    def test_nan_on_both_sides(self, tmp_path):
        golden = RunTrace([1, 1], [math.nan, 1.0], self.FIELDS)
        self._check(tmp_path, [1, 1], [math.nan, 1.0], golden=golden)
        self._check(tmp_path, [1, 1], [golden.values[0], 1.0], golden=golden)

    def test_shorter_and_longer_than_golden(self, tmp_path):
        g = self.GOLDEN
        self._check(tmp_path, g.indices[:6], g.values[:6])
        self._check(tmp_path, g.indices + [2, 3], g.values + [9, 1.5])
        self._check(tmp_path, g.indices[:6], [0.0, 0, -0.0, None, 7, 2.25])

    def test_index_mismatch_mid_trace(self, tmp_path):
        g = self.GOLDEN
        # same values as golden after the mismatch, but rendered anyway
        self._check(tmp_path, g.indices[:4] + [1] + g.indices[5:],
                    g.values[:4] + [7.0] + g.values[5:])
        self._check(tmp_path, g.indices[:5] + g.indices[6:], g.values[:5] + g.values[6:])

    def test_empty_traces(self, tmp_path):
        assert self._check(tmp_path, [], []) == b""
        empty = RunTrace([], [], self.FIELDS)
        assert self._check(tmp_path, self.GOLDEN.indices, self.GOLDEN.values,
                           golden=empty) != b""

    def test_long_traces_copy_in_chunks(self, tmp_path):
        n = 3 * 4096 + 5
        golden_values = [v for k in range(n) for v in (float(k), k)]
        golden_values[12000] = 0.0
        golden = RunTrace([1, 2] * n, golden_values, self.FIELDS)
        values = list(golden.values)
        values[12000] = -0.0
        values[5000] = -1.0
        values[9001] = 12
        values[20000] = -0.0
        self._check(tmp_path, golden.indices, values, golden=golden)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_random_edits(self, tmp_path, data):
        pool = [0, -0.0, 0.0, 1, 2, 1.5, math.nan, math.inf, None]
        n = data.draw(st.integers(0, 30))
        g_idx = data.draw(st.lists(st.sampled_from([1, 2, 5]), min_size=n, max_size=n))
        g_val = [data.draw(st.sampled_from(pool[:6] if i == 1 else [0, 1, 2, -7]))
                 for i in g_idx]
        idx, val = list(g_idx), list(g_val)
        for _ in range(data.draw(st.integers(0, 4))):
            if not idx:
                break
            pos = data.draw(st.integers(0, len(idx) - 1))
            kind = data.draw(st.sampled_from(["value", "drop", "insert"]))
            if kind == "value":
                val[pos] = data.draw(st.sampled_from(pool[:8] if idx[pos] == 1
                                                     else [0, 3, -1]))
            elif kind == "drop":
                del idx[pos], val[pos]
            else:
                idx.insert(pos, 2)
                val.insert(pos, 4)
        self._check(tmp_path, idx, val, RunTrace(g_idx, g_val, self.FIELDS))


def _f32(bits: int) -> float:
    """The f32 value with these bits, as the machine holds it: a double."""
    return struct.unpack(">f", struct.pack(">I", bits))[0]


def _f64(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


class TestBlockRenderer:
    """Rendering a RunTrace a block at a time gives the bytes of its records
    rendered one by one (TraceRecord.render through the _value_hex() formatters)."""

    KINDS = {1: "i1", 2: "i8", 3: "i32", 4: "i64", 5: "ptr", 6: "f32", 7: "f64",
             8: "void", 12345: "i32"}
    FIELDS = TraceFields((i, op, kind) for (i, kind), op in zip(
        KINDS.items(), ["icmp", "trunc", "add", "mul", "getelementptr", "fadd",
                        "fmul", "store", "call"]))
    # values each kind's formatter must render exactly: sign and width edges,
    # zeros of both signs, infinities, NaNs with sign and payload
    EDGES = {
        "i1": [-1, 0, 1],
        "i8": [-1, -128, 127, 0],
        "i32": [-1, -2 ** 31, 2 ** 31 - 1, 0],
        "i64": [-2 ** 63, 2 ** 63 - 1, -1, 0],
        "ptr": [0, 2 ** 63, 2 ** 64 - 1, -8, 4096],
        "f32": [0.0, -0.0, math.inf, -math.inf, math.nan, _f32(0xFFC00001),
                _f32(0x7F800001), _f32(0x7FBFFFFF), _f32(0x7F7FFFFF), _f32(1), 0],
        "f64": [0.0, -0.0, math.inf, -math.inf, math.nan, _f64(0xFFF8000000000001),
                _f64(0x7FF0000000000001), _f64(0x7FEFFFFFFFFFFFFF), _f64(1), 0],
        "void": [None, 0, -1.5, "text", (1, 2), [None]],
    }
    LIMITS = {"i1": 1, "i8": 8, "i32": 32, "i64": 64}

    @classmethod
    def _value(cls, rng: random.Random, kind: str):
        """A random value of the kind. Pointers at or above 2**63 are left to
        test_edge_values: each sends its whole block down the per-record
        path, which would leave few blocks for the vectorized one."""
        if rng.random() < 0.2:
            return rng.choice([v for v in cls.EDGES[kind] if kind != "ptr" or v < 2 ** 63])
        if kind in cls.LIMITS:
            bits = cls.LIMITS[kind]
            return rng.randrange(-2 ** (bits - 1), 2 ** (bits - 1))
        if kind == "ptr":  # gep arithmetic can leave a pointer anywhere
            return rng.randrange(-2 ** 63, 2 ** 62)
        if kind == "f32":
            return _f32(rng.getrandbits(32))
        if kind == "f64":
            return _f64(rng.getrandbits(64))
        return rng.choice(cls.EDGES["void"])

    @classmethod
    def _trace(cls, n: int, seed: int) -> RunTrace:
        rng = random.Random(seed)
        indices = [rng.choice(list(cls.KINDS)) for _ in range(n)]
        return RunTrace(indices, [cls._value(rng, cls.KINDS[i]) for i in indices],
                        cls.FIELDS)

    @staticmethod
    def _expected(trace: RunTrace, start: int = 0) -> bytes:
        return "".join(rec.render() + "\n" for rec in list(trace)[start:]).encode()

    def test_edge_values(self):
        pairs = [(i, v) for i, kind in self.KINDS.items() for v in self.EDGES[kind]]
        trace = RunTrace([i for i, _v in pairs], [v for _i, v in pairs], self.FIELDS)
        # one record at a time, and all of them in one block
        for i, v in pairs:
            one = RunTrace([i], [v], self.FIELDS)
            assert b"".join(_blocks(one)) == self._expected(one), (self.KINDS[i], v)
        assert b"".join(_blocks(trace)) == self._expected(trace)
        hex_of = self._block_hex
        assert hex_of(1, -1) == hex_of(2, -1) == hex_of(3, -1) == "ffffffff"
        assert hex_of(2, -128) == "ffffff80"
        assert hex_of(4, -2 ** 63) == "8000000000000000"
        assert hex_of(5, -8) == "fffffffffffffff8"
        assert hex_of(5, 2 ** 63) == "8000000000000000"
        assert hex_of(5, 2 ** 64 - 1) == "ffffffffffffffff"
        assert hex_of(6, -0.0) == "80000000"
        assert hex_of(6, _f32(0x7F800001)) == "7fc00001"  # quieted, as C casts
        assert hex_of(6, _f32(0xFFC00001)) == "ffc00001"
        assert hex_of(6, _f32(0x7F7FFFFF)) == "7f7fffff"
        assert hex_of(7, 0) == "0000000000000000"
        assert hex_of(7, _f64(0xFFF8000000000001)) == "fff8000000000001"
        assert {hex_of(8, v) for v in self.EDGES["void"]} == {"00000000"}

    def _block_hex(self, index: int, value) -> str:
        line = b"".join(_blocks(RunTrace([index], [value], self.FIELDS))).decode()
        return line.rsplit(" ", 1)[1].rstrip("\n")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.one_of(st.sampled_from([0, 1, _WRITE_CHUNK - 1, _WRITE_CHUNK,
                                        _WRITE_CHUNK + 1, 2 * _WRITE_CHUNK + 3]),
                       st.integers(0, 3 * _WRITE_CHUNK)),
           seed=st.integers(0, 2 ** 32), start=st.floats(0, 1))
    def test_matches_records_rendered_one_by_one(self, tmp_path, n, seed, start):
        trace = self._trace(n, seed)
        start = int(start * n)
        assert b"".join(_blocks(trace, start)) == self._expected(trace, start)
        write_trace(trace, str(tmp_path / "run.txt"))
        assert (tmp_path / "run.txt").read_bytes() == self._expected(trace)
        text = write_trace(trace, str(tmp_path / "golden.txt"))
        lengths = [len(rec.render()) + 1 for rec in trace]
        assert list(text.offsets) == list(accumulate(lengths, initial=0))
        assert text.data == self._expected(trace)

    @pytest.mark.parametrize("kind", ["i32", "i64", "ptr", "f32", "f64"])
    def test_none_under_a_scalar_kind(self, kind):
        """A value no conversion takes still renders as its formatter does:
        None under any kind shows eight zeros."""
        index = next(i for i, k in self.KINDS.items() if k == kind)
        trace = RunTrace([index, 7, index], [1, 2.5, None], self.FIELDS)
        assert trace[2].value_hex == "00000000"
        assert b"".join(_blocks(trace)) == self._expected(trace)

    def test_free_declared_with_a_result(self):
        """free returns no value, so a call that declares one traces None."""
        m = assign_indices(parse_module(
            "declare ptr @malloc(i64)\ndeclare i64 @free(ptr)\n"
            "define i32 @main() {\nentry:\n  %p = call ptr @malloc(i64 8)\n"
            "  %r = call i64 @free(ptr %p)\n  ret i32 0\n}\n"))
        trace = Machine(m, trace=True).run().trace
        assert trace.values[-1] is None and trace[-1].value_hex == "00000000"
        assert b"".join(_blocks(trace)) == self._expected(trace)

    @pytest.mark.parametrize("index,value,error", [
        (3, 1.5, TypeError),  # a float under an integer kind
        (6, 1e300, OverflowError),  # a finite double past the f32 range
        (7, "text", struct.error),
    ])
    def test_values_the_formatters_refuse(self, index, value, error):
        trace = RunTrace([7, index], [2.5, value], self.FIELDS)
        with pytest.raises(error):
            trace[1]
        with pytest.raises(error):
            b"".join(_blocks(trace))


def test_reading_and_diffing_do_not_import_numpy(tmp_path):
    """lcfi trace diff's path loads no numpy: it would double its start-up."""
    for name, value in (("golden.txt", "3ff8000000000000"), ("faulty.txt", "3ff9000000000000")):
        (tmp_path / name).write_text(format_record(1, "fadd", value) + "\n"
                                     + format_record(2, "add", "00000004") + "\n")
    code = ("import sys, lcfi.traces as t\n"
            "report = t.trace_diff(t.read_trace(sys.argv[1]), t.read_trace(sys.argv[2]))\n"
            "assert report.classification == 'data_flow'\n"
            "print('numpy' in sys.modules)\n")
    assert run_python(code, str(tmp_path / "golden.txt"), str(tmp_path / "faulty.txt")) == "False\n"


def test_reading_and_diffing_load_no_ir_or_interpreter():
    """lcfi.traces imports no IR module when it loads: it builds its scalar
    table from lcfi.ir.nodes only when a run's values are formatted. Its
    records are named tuples, so it does not load dataclasses either (about
    10 ms of start-up, most of it dataclasses' own import of inspect)."""
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import lcfi.traces as t\n"
            "report = t.trace_diff(t.read_trace(sys.argv[1]), t.read_trace(sys.argv[2]))\n"
            "assert report.classification == 'control_flow'\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith(\n"
            "    ('lcfi.ir', 'lcfi.vm', 'numpy', 'yaml', 'dataclasses', 'inspect'))))\n")
    assert run_python(code, fixture_path("trace_golden.txt"),
                      fixture_path("trace_faulty.txt")) == "[]\n"


def _demo_traces(demo_indexed, demo_io, seed=77):
    cfg = load_input_config(fixture_path("demo_input.yaml"))
    plan = build_plan(demo_indexed, cfg)
    golden = Machine(demo_indexed, demo_io, trace=True).run()
    sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))), seed)
    faulty = Machine(demo_indexed, demo_io, plan=plan, sampler=sampler,
                     trace=True).run()
    return golden, faulty


class TestPropagation:
    def test_demo_fault_feeds_output_no_annihilation(self, demo_indexed, demo_io):
        golden, faulty = _demo_traces(demo_indexed, demo_io)
        graph = build_def_use(demo_indexed)
        prop = build_propagation(golden.trace, faulty.trace, graph,
                                 outputs_equal=golden.stdout == faulty.stdout)
        # perturbed element load, the two reloads of ans, and the call record
        # of the third process invocation in main
        assert sorted(prop.nodes) == [15, 18, 25, 46]
        # every consumer is a store/call/ret, none of which attest masking
        assert prop.annihilation_points() == []
        assert prop.edges == set()
        assert not prop.benign_candidate

    def test_masked_fixture_annihilates(self, demo_io):
        m = assign_indices(load_fixture_module("masked.ll"))
        cfg = load_input_config(fixture_path("masked_input.yaml"))
        plan = build_plan(m, cfg)
        golden = Machine(m, trace=True).run()
        sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))),
                               cfg.seed)
        faulty = Machine(m, plan=plan, sampler=sampler, trace=True).run()
        assert golden.stdout == faulty.stdout == "result: 7.500000\n"
        graph = build_def_use(m)
        prop = build_propagation(golden.trace, faulty.trace, graph,
                                 outputs_equal=True)
        assert sorted(prop.nodes) == [1, 2]
        assert prop.annihilation_points() == [2]
        assert prop.benign_candidate

    def test_no_consumers_annihilates_trivially(self):
        from lcfi.ir.defuse import UseGraph
        graph = UseGraph(frozenset(), {1: "load"})
        golden = [TraceRecord(1, "load", "00000001")]
        faulty = [TraceRecord(1, "load", "00000002")]
        prop = build_propagation(_as_columns(golden), _as_columns(faulty), graph,
                                 outputs_equal=True)
        assert prop.annihilation_points() == [1]

    # A diverged fadd (1) whose one consumer is a pure fmul (2): the fmul attests
    # re-convergence only if none of its occurrences is unmatched.
    CONSUMER = {"matched": ([(1, "aa"), (2, "bb"), (3, "cc")],
                            [(1, "ab"), (2, "bb"), (3, "cc")]),
                "del": ([(1, "aa"), (2, "bb"), (2, "bb"), (3, "cc")],
                        [(1, "ab"), (2, "bb"), (3, "cc")]),
                "ins": ([(1, "aa"), (2, "bb"), (3, "cc")],
                        [(1, "ab"), (2, "bb"), (2, "bb"), (3, "cc")])}

    @pytest.mark.parametrize("case,points", [("matched", [1]), ("del", []), ("ins", [])])
    def test_an_unmatched_consumer_occurrence_is_no_reconvergence(self, case, points):
        from lcfi.ir.defuse import UseGraph
        opcode = {1: "fadd", 2: "fmul", 3: "add"}
        graph = UseGraph(frozenset({(1, 2)}), opcode)
        golden, faulty = ([TraceRecord(i, opcode[i], h) for i, h in side]
                          for side in self.CONSUMER[case])
        kinds = {run[0] for run in _myers_ops([r.index for r in golden],
                                               [r.index for r in faulty])}
        assert kinds == {"match"} | ({case} - {"matched"})
        prop = build_propagation(_as_columns(golden), _as_columns(faulty), graph)
        assert sorted(prop.nodes) == [1]
        assert prop.annihilation_points() == points
        assert prop.benign_candidate

    def test_builds_no_records(self, monkeypatch):
        m = assign_indices(load_fixture_module("masked.ll"))
        cfg = load_input_config(fixture_path("masked_input.yaml"))
        golden = Machine(m, trace=True).run()
        sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))), cfg.seed)
        faulty = Machine(m, plan=build_plan(m, cfg), sampler=sampler, trace=True).run()

        def no_record(*args):
            raise AssertionError("build_propagation built a TraceRecord")

        monkeypatch.setattr(traces, "TraceRecord", no_record)
        prop = build_propagation(golden.trace, faulty.trace, build_def_use(m))
        assert prop.annihilation_points() == [2]
        assert prop.benign_candidate

    def test_unknown_index_rejected(self, demo_indexed):
        graph = build_def_use(demo_indexed)
        golden = [TraceRecord(999, "load", "00000001")]
        with pytest.raises(IndexMismatch):
            build_propagation(_as_columns(golden), _as_columns([]), graph)

    def test_dot_rendering(self, demo_io):
        m = assign_indices(load_fixture_module("masked.ll"))
        cfg = load_input_config(fixture_path("masked_input.yaml"))
        plan = build_plan(m, cfg)
        golden = Machine(m, trace=True).run()
        sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))),
                               cfg.seed)
        faulty = Machine(m, plan=plan, sampler=sampler, trace=True).run()
        prop = build_propagation(golden.trace, faulty.trace,
                                 build_def_use(m), outputs_equal=True)
        dot = trace_to_dot(prop, title="masked")
        assert dot.startswith('digraph "masked" {')
        assert dot.rstrip().endswith("}")
        assert "n1 -> n2;" in dot
        assert 'n2 [label="2 / fmul /' in dot
        assert "peripheries=2" in dot.split("n2 [")[1].split("]")[0]
