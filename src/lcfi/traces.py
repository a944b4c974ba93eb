"""Trace files: reading, diffing, merging, and fault-propagation graphs.

A trace is one text record per dynamic event. Alignment between a golden and
a faulty trace is a minimal edit script over the instruction-index sequences
(Myers O(ND)); record values never influence the alignment, they are compared
afterwards on matched pairs.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from .ir.defuse import UseGraph
from .ir.nodes import SCALARS, IrType


class TraceFormatError(Exception):
    pass


class IndexMismatch(Exception):
    """A trace references instruction indices the def-use graph lacks."""


@dataclass(frozen=True)
class TraceRecord:
    index: int
    opcode: str
    value_hex: str  # lowercase, 8 or 16 digits

    def render(self) -> str:
        return format_record(self.index, self.opcode, self.value_hex)


def format_record(index: int, opcode: str, value_hex: str) -> str:
    return f"ID: {index:<4} OPCode: {opcode:<6} Value: {value_hex}"


_RECORD_RE = re.compile(
    r"^\s*ID:\s*(\d+)\s+OPCode:\s*(\S+)\s+Value:\s*([0-9a-fA-F]+)\s*$")


def parse_record(line: str) -> TraceRecord | None:
    """Parse one trace line; blank lines give None, junk raises."""
    if not line.strip():
        return None
    m = _RECORD_RE.match(line)
    if m is None:
        raise TraceFormatError(f"malformed trace record: {line.rstrip()!r}")
    return TraceRecord(int(m.group(1)), m.group(2), m.group(3).lower())


def read_trace(source) -> list[TraceRecord]:
    """Read records from a path or an iterable of lines."""
    if isinstance(source, str):
        try:
            with open(source, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as e:
            raise TraceFormatError(
                f"{source}: not UTF-8 text (byte {e.start})") from e
    else:
        lines = list(source)
    out = []
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = parse_record(line)
        except TraceFormatError as e:
            raise TraceFormatError(f"line {lineno}: {e}") from e
        if rec is not None:
            out.append(rec)
    return out


# -- values and run traces ---------------------------------------------------------

_NO_VALUE = "00000000"
_PACK_F32 = struct.Struct(">f").pack
_PACK_F64 = struct.Struct(">d").pack


def _hex32(value) -> str:
    return _NO_VALUE if value is None else "%08x" % (value & 0xFFFFFFFF)


def _hex64(value) -> str:
    return _NO_VALUE if value is None else "%016x" % (value & 0xFFFFFFFFFFFFFFFF)


def _hex_f32(value) -> str:
    return _NO_VALUE if value is None else _PACK_F32(value).hex()


def _hex_f64(value) -> str:
    return _NO_VALUE if value is None else _PACK_F64(value).hex()


# The trace's fixed-width hex field of each scalar kind's runtime value:
# 16 digits for 8-byte scalars, 8 for the rest, float kinds as their IEEE
# bits. Plain functions, so a RunTrace pickles.
VALUE_HEX = {k: {"f32": _hex_f32, "f64": _hex_f64}.get(k, _hex64 if size == 8 else _hex32)
             for k, (size, _fmt) in SCALARS.items()}


def _no_value_hex(value) -> str:
    return _NO_VALUE


def value_bits(value, vtype: IrType) -> str:
    """Render a runtime value as the trace's hex field; zeros for no value."""
    return VALUE_HEX.get(vtype.kind, _no_value_hex)(value)


class TraceFields:
    """The parts of a trace line fixed by the instruction index: opcode, line
    prefix and value formatter, in lists indexed by instruction index."""

    def __init__(self, instructions):
        """`instructions` yields (index, opcode, result kind) triples."""
        rows = list(instructions)
        size = max((index for index, _op, _kind in rows), default=0) + 1
        self.opcode: list = [None] * size
        self.prefix: list = [None] * size
        self.value_hex: list = [None] * size
        for index, opcode, kind in rows:
            self.opcode[index] = opcode
            self.prefix[index] = format_record(index, opcode, "")
            self.value_hex[index] = VALUE_HEX.get(kind, _no_value_hex)


class RunTrace(Sequence):
    """A run's trace as the machine recorded it: a column of instruction
    indices and a column of raw values. Reading it builds TraceRecords one by
    one; write_trace renders lines from the columns without building any."""

    def __init__(self, indices: list, values: list, fields: TraceFields):
        self.indices = indices
        self.values = values
        self.fields = fields

    def __len__(self) -> int:
        return len(self.indices)

    def _record(self, index: int, value) -> TraceRecord:
        f = self.fields
        return TraceRecord(index, f.opcode[index], f.value_hex[index](value))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._record, self.indices[i], self.values[i]))
        return self._record(self.indices[i], self.values[i])

    def __iter__(self):
        return map(self._record, self.indices, self.values)

    def __add__(self, other) -> list[TraceRecord]:
        return list(self) + list(other)

    def __radd__(self, other) -> list[TraceRecord]:
        return list(other) + list(self)

    def lines(self):
        """The records' rendered lines, built one at a time."""
        prefix, value_hex = self.fields.prefix, self.fields.value_hex
        return (prefix[i] + value_hex[i](v) for i, v in zip(self.indices, self.values))


_WRITE_CHUNK = 4096  # lines joined per write, so memory stays flat


def write_trace(records, path: str) -> None:
    """Write a RunTrace or a list of TraceRecords, one line per record."""
    lines = (records.lines() if isinstance(records, RunTrace)
             else (rec.render() for rec in records))
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := list(islice(lines, _WRITE_CHUNK)):
            fh.write("\n".join(chunk) + "\n")


# -- alignment ---------------------------------------------------------------

def _myers_ops(a: list, b: list) -> list[tuple]:
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
    ops.extend(_myers_core(core_a, core_b, pre, pre))
    ops.extend(("match", n_all - suf + i, m_all - suf + i) for i in range(suf))
    return ops


def _myers_core(a: list, b: list, off_a: int, off_b: int) -> list[tuple]:
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


@dataclass(frozen=True)
class AlignedPair:
    """One alignment slot; exactly one side is None for unmatched records."""

    golden: TraceRecord | None
    faulty: TraceRecord | None

    def matched(self) -> bool:
        return self.golden is not None and self.faulty is not None

    def value_equal(self) -> bool:
        return self.matched() and self.golden.value_hex == self.faulty.value_hex


@dataclass(frozen=True)
class Divergence:
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


@dataclass
class DiffReport:
    pairs: list[AlignedPair]
    first_divergence: Divergence | None
    value_divergences: list[Divergence]
    control_flow_divergences: list[Divergence]

    @property
    def identical(self) -> bool:
        return self.first_divergence is None

    @property
    def classification(self) -> str:
        if self.identical:
            return "identical"
        if self.control_flow_divergences:
            return "control_flow"
        return "data_flow"


def trace_diff(golden: list[TraceRecord], faulty: list[TraceRecord]) -> DiffReport:
    """Align two traces on instruction indices and report divergences."""
    a_keys = [r.index for r in golden]
    b_keys = [r.index for r in faulty]
    pairs: list[AlignedPair] = []
    for op in _myers_ops(a_keys, b_keys):
        if op[0] == "match":
            pairs.append(AlignedPair(golden[op[1]], faulty[op[2]]))
        elif op[0] == "del":
            pairs.append(AlignedPair(golden[op[1]], None))
        else:
            pairs.append(AlignedPair(None, faulty[op[1]]))

    first = None
    values = []
    control = []
    for pos, p in enumerate(pairs):
        div = None
        if not p.matched():
            kind = "golden_only" if p.golden is not None else "faulty_only"
            div = Divergence(kind, pos, p.golden, p.faulty)
            control.append(div)
        elif not p.value_equal():
            div = Divergence("value", pos, p.golden, p.faulty)
            values.append(div)
        if div is not None and first is None:
            first = div
    return DiffReport(pairs, first, values, control)


# -- union -------------------------------------------------------------------

@dataclass
class UnionEntry:
    index: int
    opcode: str
    executions: int
    per_trace: list[int]
    values: set[str] = field(default_factory=set)


def trace_union(traces: list[list[TraceRecord]]) -> dict[int, UnionEntry]:
    """Merge traces into per-instruction execution counts and value sets."""
    entries: dict[int, UnionEntry] = {}
    for ti, records in enumerate(traces):
        for rec in records:
            e = entries.get(rec.index)
            if e is None:
                e = UnionEntry(rec.index, rec.opcode, 0, [0] * len(traces))
                entries[rec.index] = e
            e.executions += 1
            e.per_trace[ti] += 1
            e.values.add(rec.value_hex)
    return dict(sorted(entries.items()))


# -- propagation -------------------------------------------------------------

_PURE_CONSUMERS_EXCLUDED = frozenset({"store", "br", "ret", "call"})


@dataclass
class PropNode:
    index: int
    opcode: str
    golden_hex: str
    faulty_hex: str
    annihilation: bool = False


@dataclass
class PropagationGraph:
    nodes: dict[int, PropNode]
    edges: set[tuple[int, int]]
    benign_candidate: bool

    def annihilation_points(self) -> list[int]:
        return sorted(i for i, n in self.nodes.items() if n.annihilation)


def build_propagation(golden: list[TraceRecord], faulty: list[TraceRecord],
                      graph: UseGraph,
                      outputs_equal: bool = True) -> PropagationGraph:
    """Project a diff onto the def-use graph.

    Nodes are instructions with at least one value-diverged matched pair.
    A node is an annihilation point when every def-use consumer is a pure
    value-producing instruction (stores, branches, returns, and calls never
    attest re-convergence) whose matched records agree bit for bit on both
    sides, with no unmatched occurrences. A diverged node with no consumers
    annihilates trivially.
    """
    known = set(graph.opcode_of)
    for rec in golden + faulty:
        if rec.index not in known:
            raise IndexMismatch(
                f"trace record ID {rec.index} is not an indexed instruction; "
                "trace and program disagree")

    report = trace_diff(golden, faulty)

    diverged: dict[int, Divergence] = {}
    for div in report.value_divergences:
        diverged.setdefault(div.golden.index, div)

    # Re-convergence evidence per instruction: every matched occurrence equal
    # and never unmatched on either side.
    clean = {}
    for p in report.pairs:
        idx = (p.golden or p.faulty).index
        ok = p.value_equal()
        clean[idx] = clean.get(idx, True) and ok

    nodes = {}
    for idx, div in diverged.items():
        nodes[idx] = PropNode(idx, graph.opcode_of[idx],
                              div.golden.value_hex, div.faulty.value_hex)
    edges = {(p, c) for (p, c) in graph.edges if p in nodes and c in nodes}

    for idx, node in nodes.items():
        ok = True
        for succ in graph.successors(idx):
            op = graph.opcode_of.get(succ, "")
            if op in _PURE_CONSUMERS_EXCLUDED:
                ok = False
                break
            if not clean.get(succ, False):
                ok = False
                break
        node.annihilation = ok

    last_equal = bool(report.pairs) and report.pairs[-1].value_equal()
    benign = bool(nodes) and last_equal and outputs_equal
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
