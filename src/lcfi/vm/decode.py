"""Decoded form of a module: one compiled Python function per segment, built
once per module.

Decoding settles at load time what executing an instruction would otherwise
look up at every step. A function's code is cut into segments: a straight run
of ops ended by one terminator, which is a branch, a return, or a call to a
defined function (the interpreter's frame stack, not the host stack, runs the
callee). Each op becomes a few lines of Python source, and a segment's ops
become one function `run(r, m)`, compiled once, that runs them in order on
the frame's register list `r` for the machine `m` and returns the trace
words of its indexed ops' values, packed by one precompiled struct
(traces.words_packer). In that source a register is `r[slot]`; constants,
integer widths and masks, gep strides and f32 rounding are literals or bound
names; a load or store checks the arena's
`base` and `top` inline and then unpacks or packs with a precompiled
`struct.Struct`. A load or store whose pointer is one of the function's own
allocas, or a global's constant address, and whose width fits that
allocation, cannot leave it, so it skips the check and the heap/stack
choice: it is a bare `unpack_from` or `pack_into` on the stack arena's
buffer `M`, which the segment binds once, at the offset from the decoded
arena's base. Branch targets become segment numbers and a branch carries its
edge's phi moves. A phi's op has no source: the branch into its block has
already assigned all of the block's phis at once, from the values on that
edge.

A value has one form per type: an integer wraps to its width (an i1 is 0 or
1), an f32 is rounded and a pointer is unsigned 64-bit (getelementptr wraps
modulo 2**64). Ops leave their results so, and decode puts each constant and
intrinsic result so (`DecodedModule._const`, `_call`); as validate keeps
each value at its own type, conditions, compares, stores and the trace take
values as they are.

Each segment's source is registered with linecache under the filename
`<lcfi @function#segment checksum>`, so a traceback through an op shows its
line, and `Segment.position` maps the line an exception passed through back
to the op. A run whose budget ends inside a segment runs `Segment.prefix(k)`,
the same source cut after k ops, compiled on first use.

`decoded(module)` is the one well-formedness gate: it validates the module
and that a run can start at its `@main`, and raises VmError with every
problem, or with the first global that does not fit the stack arena, which
laying the globals out finds (nothing else raises it), so the decoder trusts
its input.
It caches the result on the module, so the golden run and every injection
run in a process share it. Global addresses are the same in every run (the
stack arena is a bump allocator), so the module's globals are laid out and
initialized here, once, with a handle slot for each of @stdin, @stdout and
@stderr used without a declaration; each run starts from a copy of that
arena. Nothing here holds per-run state. Per plan, `DecodedModule.codes`
recompiles the segments that hold the plan's targets, each target op
followed by a call to `m.inject`.

Register lists: slot 0 always holds None, the value of a store or a void
return; slots 1..P hold the parameters.
"""

from __future__ import annotations

import linecache
import math
import struct
import zlib
from array import array
from typing import NamedTuple

from ..ir.nodes import (PTR_MASK, SCALARS, IrFunction, IrModule, ValueRef,
                        gep_layout, to_f32, wrap_int)
from ..ir.validate import validate
from ..traces import TraceFields, word_packer, words_packer
from .arena import HEAP_BASE, MemoryArena, OutOfBounds
from .intrinsics import INTRINSICS, STDERR_HANDLE, STDIN_HANDLE, STDOUT_HANDLE


class VmError(Exception):
    """A program the interpreter cannot run: it fails validation, it has no
    `@main` that takes no parameters, or its globals do not fit the stack
    arena. Only decoding (`decoded`) raises it."""


def _fdiv(a: float, b: float) -> float:
    # IEEE semantics: float division never traps
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (math.copysign(1.0, b) > 0) else -math.inf
    try:
        return a / b
    except OverflowError:
        return math.inf


_INT_OPS = {"add": "+", "sub": "-", "mul": "*"}
_FLOAT_OPS = {"fadd": "{} + {}", "fsub": "{} - {}", "fmul": "{} * {}", "fdiv": "fdiv({}, {})"}
# icmp and fcmp predicates end in one of these relations.
_RELATIONS = {"eq": "==", "ne": "!=", "gt": ">", "ge": ">=", "lt": "<", "le": "<="}

# The globals of every generated function: helpers, and for each scalar kind
# its precompiled struct functions.
_GLOBALS = {
    "to_f32": to_f32, "fdiv": _fdiv, "trunc": math.trunc, "isfinite": math.isfinite,
    "OutOfBounds": OutOfBounds, "INTRINSICS": INTRINSICS,
    **{f"{name}_{kind}": getattr(struct.Struct(fmt), name)
       for kind, (_size, fmt) in SCALARS.items()
       for name in ("pack", "unpack", "unpack_from", "pack_into")},
}

# Terminator kinds, the first field of Segment.term:
#   (BR, condition slot or None, edge taken on true or always, edge on false)
#   (CALL, callee's function number, argument slots, result slot, index,
#    the function that packs the returned value's trace word)
#   (RET, value slot)
# An edge is (target segment, (phi slots, incoming slots) or None, source
# label, target label).
BR, CALL, RET = range(3)


def _wrap(value: str, bits: int) -> str:
    """Source that wraps the integer `value` as wrap_int does."""
    if bits == 1:
        return f"{value} & 1"
    half = 1 << (bits - 1)
    return f"({value} + {half} & {2 * half - 1}) - {half}"


def _f32(t, value: str) -> str:
    """Source that rounds `value` to f32 when `t` is f32."""
    return f"to_f32({value})" if t.kind == "f32" else value


# -- op sources: (instruction, result slot, operand source function) -> lines --

def _int_binary(ins, d, arg):
    x, y = map(arg, ins.operands)
    op, bits = ins.opcode, ins.result_type.int_bits()
    if op in _INT_OPS:
        return [f"r[{d}] = {_wrap(f'{x} {_INT_OPS[op]} {y}', bits)}"]
    return [f"a = {x}; b = {y}",
            f"if b == 0: m.trap('division_by_zero', '{op} by zero')",
            "q = abs(a) // abs(b)",
            "if (a < 0) != (b < 0): q = -q",
            f"r[{d}] = {_wrap('a - q * b' if op == 'srem' else 'q', bits)}"]


def _float_binary(ins, d, arg):
    value = _FLOAT_OPS[ins.opcode].format(*map(arg, ins.operands))
    return [f"r[{d}] = {_f32(ins.result_type, value)}"]


def _fneg(ins, d, arg):
    return [f"r[{d}] = {_f32(ins.result_type, f'-({arg(ins.operands[0])})')}"]


def _icmp(ins, d, arg):
    # Equal values have equal bits, so eq and ne compare values as they are.
    x, y = map(arg, ins.operands)
    pred, t = ins.predicate, ins.operands[0].type
    if pred[0] == "u" and t.is_integer():  # unsigned order reads the bits
        mask = (1 << t.int_bits()) - 1
        x, y = (f"({s} & {mask})" if v.kind == "reg" else str(int(s) & mask)
                for v, s in zip(ins.operands, (x, y)))
    elif pred[0] == "s" and t.is_pointer():  # read the unsigned pointer as signed
        x, y = f"({_wrap(x, 64)})", f"({_wrap(y, 64)})"
    elif pred[0] == "s" and t.kind == "i1":  # a signed i1 true is -1
        x, y = f"-{x}", f"-{y}"
    return [f"r[{d}] = 1 if {x} {_RELATIONS[pred[-2:]]} {y} else 0"]


def _fcmp(ins, d, arg):
    pred = ins.predicate
    if pred in ("true", "false"):
        return [f"r[{d}] = {int(pred == 'true')}"]
    x, y = map(arg, ins.operands)
    rel = (f"1 if a {_RELATIONS[pred[1:]]} b else 0" if pred[1:] in _RELATIONS
           else int(pred == "ord"))
    # uno and the u* predicates hold on NaN
    return [f"a = {x}; b = {y}",
            f"r[{d}] = {int(pred[0] == 'u')} if a != a or b != b else {rel}"]


def _select(ins, d, arg):
    c, t, f = map(arg, ins.operands)
    return [f"r[{d}] = {t} if {c} else {f}"]


def _cast(ins, d, arg):
    x = arg(ins.operands[0])
    op, src, dst = ins.opcode, ins.operands[0].type, ins.result_type
    if src.kind == "i1" and op in ("sext", "sitofp"):  # a signed i1 true is -1
        x = f"-{x}"
    if op == "zext":  # an i1 is already 0 or 1
        value = x if src.kind == "i1" else f"{x} & {(1 << src.int_bits()) - 1}"
    elif op == "trunc":
        value = _wrap(x, dst.int_bits())
    elif op == "fptosi":
        return [f"a = {x}",
                f"r[{d}] = {_wrap('trunc(a)', dst.int_bits())} if isfinite(a) else 0"]
    elif op == "bitcast" and not (src.is_pointer() and dst.is_pointer()):
        value = f"unpack_{dst.kind}(pack_{src.kind}({x}))[0]"
    elif op in ("sitofp", "fpext", "fptrunc"):
        value = f"to_f32({x})" if op == "fptrunc" or dst.kind == "f32" else f"float({x})"
    else:  # sext (other values are already sign-canonical) and pointer bitcasts
        value = x
    return [f"r[{d}] = {value}"]


def _access(ptr, size: int, arg, at) -> tuple[list[str], str, str]:
    """Source that finds `size` bytes at the pointer operand `ptr`, as (lines,
    buffer, offset). An access `at` proves in bounds takes the stack arena's
    buffer M at its offset; any other sets a to the address, x to the arena
    holding it and o to its offset there, or raises OutOfBounds."""
    offset = at(ptr, size)
    if offset is not None:
        return [], "M", offset
    return [f"a = {arg(ptr)}; x = m.state.heap if a >= {HEAP_BASE} else m.state.arena; "
            "o = a - x.base",
            f"if o < 0 or a + {size} > x.top: raise OutOfBounds(a, {size})"], "x._mem", "o"


def _load(ins, d, arg, at):
    kind = ins.result_type.kind
    lines, buf, o = _access(ins.operands[0], SCALARS[kind][0], arg, at)
    value = f"unpack_from_{kind}({buf}, {o})[0]"
    return [*lines, f"r[{d}] = {value} & 1" if kind == "i1" else f"r[{d}] = {value}"]


def _store(ins, d, arg, at):
    v, kind = arg(ins.operands[0]), ins.operands[0].type.kind
    lines, buf, o = _access(ins.operands[1], SCALARS[kind][0], arg, at)
    return [*lines, f"pack_into_{kind}({buf}, {o}, {v})"]


def _alloca(ins, d, arg):
    size = ins.aux_type.byte_width()
    align = ins.align or ins.aux_type.alignment()
    return [f"r[{d}] = m.state.arena.alloc({size}, {align})"]


def _gep(ins, d, arg):
    off, terms, _t = gep_layout(ins.aux_type, ins.operands[1:])
    parts = [arg(ins.operands[0]), *([str(off)] if off else []),
             *(f"{arg(v)} * {stride}" for v, stride in terms)]
    return [f"r[{d}] = ({' + '.join(parts)}) & {PTR_MASK}"]


def _call(ins, d, arg):
    """An intrinsic call, its value wrapped or rounded to its declared type."""
    args = ", ".join(map(arg, ins.operands))
    value, t = f"INTRINSICS[{ins.callee!r}][0](m, [{args}])", ins.result_type
    if t.is_integer():
        value = _wrap(value, t.int_bits())
    return [f"r[{d}] = {_f32(t, value)}"]


_SOURCES = {
    **dict.fromkeys(("add", "sub", "mul", "sdiv", "srem"), _int_binary),
    **dict.fromkeys(_FLOAT_OPS, _float_binary),
    "fneg": _fneg, "icmp": _icmp, "fcmp": _fcmp, "select": _select,
    **dict.fromkeys(("zext", "sext", "trunc", "fptosi", "sitofp", "fpext",
                     "fptrunc", "bitcast"), _cast),
    "load": _load, "store": _store, "alloca": _alloca, "getelementptr": _gep,
    "call": _call, "phi": lambda ins, d, arg: [],
}


# -- functions ------------------------------------------------------------------

class Segment:
    """Ops run in order, then the terminator. `code` holds each op's source
    lines and `run` is them compiled; it returns the trace words of the
    values a traced run records, which are those of `rec_slot`, for the
    instructions `rec_idx` (also held as the array `rec_arr`), packed by one
    struct. With `stack`, the function first binds M to the stack arena's
    buffer, for the accesses decode proved in bounds. `instrs` lists the
    ops' instructions and then the terminator's, if any. `bound` names
    objects the source refers to besides the common globals."""

    __slots__ = ("code", "instrs", "n", "rec_idx", "rec_arr", "rec_slot", "term",
                 "stack", "run", "_line_op", "_cuts", "_ns")

    def __init__(self, name, code, instrs, rec_idx, rec_slot, term, stack, bound=None):
        self.code = code
        self.instrs = instrs
        self.n = len(code) + 1  # steps, the terminator's included
        self.rec_idx = rec_idx
        self.rec_arr = array("i", rec_idx)
        self.rec_slot = rec_slot
        self.term = term
        self.stack = stack
        self._ns = dict(_GLOBALS, **(bound or {}))
        src, self._line_op = self._source(len(code))
        filename = f"<lcfi {name} {zlib.crc32(src.encode()):08x}>"
        linecache.cache[filename] = (len(src), None, src.splitlines(True), filename)
        self.run = _compile(src, filename, self._ns)
        self._cuts: dict = {}

    def _source(self, k: int) -> tuple[str, list]:
        """The source of a function that runs the first `k` ops, and the
        position of the op on each of its lines (None on the others). The
        struct that packs its n records is bound as Pn."""
        lines, line_op = ["def run(r, m):"], [None, None]  # line numbers from 1
        if self.stack:
            lines.append("    M = m.state.arena._mem")
            line_op.append(None)
        for pos, op in enumerate(self.code[:k]):
            lines += ("    " + line for line in op)
            line_op += [pos] * len(op)
        n = self.traced(k)
        if n:
            self._ns[f"P{n}"], takes = words_packer(
                ins.result_type.kind for ins in self.instrs[:k] if ins.index is not None)
            valued = ", ".join(f"r[{s}]" for s, t in zip(self.rec_slot[:n], takes) if t)
            lines.append(f"    return P{n}({valued})")
        else:
            lines.append("    return b''")
        return "\n".join(lines), line_op + [None] * (len(lines) + 1 - len(line_op))

    def traced(self, k: int) -> int:
        """How many of the first `k` ops a trace records: those with an index."""
        return sum(ins.index is not None for ins in self.instrs[:k])

    def prefix(self, k: int):
        """The function that runs only the first `k` ops; its lines are the
        first lines of `run`'s, so `position` holds for it too."""
        if k not in self._cuts:
            self._cuts[k] = _compile(self._source(k)[0], self.run.__code__.co_filename,
                                     self._ns)
        return self._cuts[k]

    def position(self, tb) -> int:
        """The position of the op whose line the traceback `tb` passes
        through; the terminator's when it passes through no op."""
        while tb is not None:
            if tb.tb_frame.f_code.co_filename.startswith("<lcfi "):
                return self._line_op[tb.tb_lineno]
            tb = tb.tb_next
        return self.n - 1


def _compile(src: str, filename: str, namespace: dict):
    exec(compile(src, filename, "exec"), namespace)
    return namespace.pop("run")


class DecodedFn(NamedTuple):
    name: str
    template: list  # initial register list, constants in place
    segs: list


def _is_terminator(ins, fn_index) -> bool:
    return ins.opcode in ("br", "ret") or (ins.opcode == "call"
                                            and ins.callee in fn_index)


def decode_function(fn: IrFunction, fi: int, dm: DecodedModule) -> DecodedFn:
    """Decode one validated function of `dm`'s module, the `fi`th. `dm.where`
    gains, for each op's instruction index, (function number, segment
    number, position, result slot)."""
    fn_index, where, const = dm.fn_index, dm.where, dm._const
    template = [None] * (1 + len(fn.params))
    reg_slots = {name: i + 1 for i, (name, _t) in enumerate(fn.params)}
    const_slots: dict = {}

    def fresh(value=None) -> int:
        template.append(value)
        return len(template) - 1

    def reg(name: str) -> int:
        if name not in reg_slots:
            reg_slots[name] = fresh()
        return reg_slots[name]

    def slot(v: ValueRef) -> int:
        if v.kind == "reg":
            return reg(v.name)
        key = (v.type, v.render())  # render tells -0.0 from 0.0
        if key not in const_slots:
            const_slots[key] = fresh(const(v))
        return const_slots[key]

    def arg(v: ValueRef) -> str:
        """An op's operand as source: a constant is a literal, unless it is a
        non-finite float, which stays in its slot like a register."""
        if v.kind == "reg":
            return f"r[{reg(v.name)}]"
        value = const(v)
        return repr(value) if math.isfinite(value) else f"r[{slot(v)}]"

    def result(ins) -> int:
        """The slot an instruction's value goes to: its register's; a fresh
        one for a call that names none (its value is still traced); slot 0
        (None) for a store."""
        if ins.result is not None:
            return reg(ins.result)
        return fresh() if ins.opcode == "call" else 0

    # The frame of a function's segments is live while they run, the stack
    # arena's top falls only at a ret (no intrinsic moves it), and a plan
    # never injects at an alloca (build_plan targets loads; _build_codes
    # refuses any other plan), so an access within one of the frame's
    # allocas, through its register, or within a global, at a constant
    # address, is in bounds; such an access reads the buffer M directly.
    allocas = {ins.result: ins.aux_type.byte_width()
               for b in fn.blocks for ins in b.instructions if ins.opcode == "alloca"}
    proven = []  # the offsets `at` gave

    def at(v: ValueRef, size: int) -> str | None:
        """Source of the offset in the stack arena's buffer of an access of
        `size` bytes at the pointer `v`, if decode proves it in bounds."""
        if v.kind == "reg":
            offset = (f"r[{reg(v.name)}] - {dm.arena.base}"
                      if allocas.get(v.name, 0) >= size else None)
        else:
            offset = dm.global_offset(v, size)
            offset = None if offset is None else str(offset)
        if offset is not None:
            proven.append(offset)
        return offset

    # cut blocks into segments, so branch targets are known before decoding
    cuts, block_seg = [], {}
    for b in fn.blocks:
        block_seg[b.label] = len(cuts)
        run = []
        for ins in b.instructions:
            run.append(ins)
            if _is_terminator(ins, fn_index):
                cuts.append((b.label, run))
                run = []

    phis = {b.label: [i for i in b.instructions if i.opcode == "phi"]
            for b in fn.blocks}

    def edge(src: str, dst: str):
        dsts, srcs = [], []
        for phi in phis[dst]:
            dsts.append(result(phi))
            srcs.append(slot(phi.operands[phi.labels.index(src)]))
        moves = (tuple(dsts), tuple(srcs)) if dsts else None
        return block_seg[dst], moves, src, dst

    segs = []
    for si, (label, run) in enumerate(cuts):
        *body, last = run
        code, rec_idx, rec_slot = [], [], []
        proven.clear()
        for pos, ins in enumerate(body):
            d = result(ins)
            source = _SOURCES[ins.opcode]
            code.append(tuple(source(ins, d, arg, at) if ins.opcode in ("load", "store")
                              else source(ins, d, arg)))
            if ins.index is not None:
                where[ins.index] = (fi, si, pos, d)
                rec_idx.append(ins.index)
                rec_slot.append(d)
        if last.opcode == "br":
            cond = slot(last.operands[0]) if last.operands else None
            term = (BR, cond, *(edge(label, t) for t in last.labels[:2]))
        elif last.opcode == "ret":
            term = (RET, slot(last.operands[0]) if last.operands else 0)
        else:
            term = (CALL, fn_index[last.callee], tuple(map(slot, last.operands)),
                    result(last), last.index, word_packer(last.result_type.kind))
        segs.append(Segment(f"@{fn.name}#{si}", tuple(code), tuple(run), tuple(rec_idx),
                            tuple(rec_slot), term, bool(proven)))
    return DecodedFn(fn.name, template, segs)


# -- modules and plans -----------------------------------------------------------

class Code(NamedTuple):
    """A function as one plan runs it: its segments, recompiled to inject at
    the plan's targets, and the loops (header, body labels) whose trips the
    plan's loop_iteration scope counts."""
    fn: DecodedFn
    segs: list
    watch: tuple | None


_HANDLES = {"stdin": STDIN_HANDLE, "stdout": STDOUT_HANDLE, "stderr": STDERR_HANDLE}


class DecodedModule:
    """A validated module's functions, trace fields and initial stack arena
    (its globals); `globals` maps each global's name to its address and
    `sizes` to its size in bytes."""

    def __init__(self, module: IrModule):
        self.arena = MemoryArena()
        self.sizes = {g.name: g.type.byte_width() for g in module.globals}
        self.globals = {}
        for g in module.globals:
            try:
                self.globals[g.name] = self.arena.alloc(self.sizes[g.name],
                                                        g.align or g.type.alignment())
            except OutOfBounds:
                raise VmError(f"line {g.line}: @{g.name} of {self.sizes[g.name]} bytes "
                              f"does not fit the {self.arena.capacity}-byte stack "
                              "arena") from None
        for g in module.globals:
            self._init_global(g)
        self.fn_index = {f.name: i for i, f in enumerate(module.functions)}
        self.where: dict = {}
        self.fns = [decode_function(f, i, self) for i, f in enumerate(module.functions)]
        self.fields = TraceFields(
            (ins.index, ins.opcode, ins.result_type.kind)
            for _f, _b, ins in module.all_instructions() if ins.index is not None)
        self._codes: dict = {}

    def _const(self, v: ValueRef):
        """The value of a constant operand: int, float, null, global or gep;
        an int wrapped to its width and an f32 rounded, as ops leave them."""
        if v.kind == "global":
            if v.name not in self.globals:  # @stdin, @stdout or @stderr, undeclared
                addr = self.globals[v.name] = self.arena.alloc(8, 8)
                self.sizes[v.name] = 8
                self.arena.store(addr, "ptr", _HANDLES[v.name])
            return self.globals[v.name]
        if v.kind == "gep":
            offset, _terms, _t = gep_layout(v.gep_source, v.indices)
            return (self._const(v.base) + offset) & PTR_MASK
        if v.kind == "int":
            return wrap_int(v.ival, v.type.int_bits())
        if v.kind == "float":
            return to_f32(v.fval) if v.type.kind == "f32" else v.fval
        return 0

    def global_offset(self, v: ValueRef, size: int) -> int | None:
        """The offset in the stack arena's buffer of the constant pointer
        `v`, if `size` bytes from it lie within the global it points into:
        a global, or a constant gep off one; None otherwise."""
        root = v
        while root.kind == "gep":
            root = root.base
        if root.kind != "global":
            return None
        addr, start = self._const(v), self._const(root)
        if not start <= addr <= start + self.sizes[root.name] - size:
            return None
        return addr - self.arena.base

    def _init_global(self, g) -> None:
        addr, init = self.globals[g.name], g.init
        if g.external and g.name in _HANDLES:
            self.arena.store(addr, "ptr", _HANDLES[g.name])
        elif init is None or init.kind == "zero":
            pass
        elif init.kind == "bytes":
            self.arena.store_bytes(addr, init.data)
        else:  # a scalar, or an array of scalars
            t, values = ((g.type, (init.value,)) if init.kind == "scalar"
                         else (g.type.elem, init.values))
            for i, v in enumerate(values):
                self.arena.store(addr + i * t.byte_width(), t.kind, self._const(v))

    def codes(self, plan) -> list[Code]:
        """Each function's Code under `plan` (None: no injection), built once
        per plan."""
        if plan not in self._codes:
            self._codes[plan] = self._build_codes(plan)
        return self._codes[plan]

    def _build_codes(self, plan) -> list[Code]:
        watch: list[list] = [[] for _ in self.fns]
        hits: dict = {}  # (function, segment): [(position, result slot, target)]
        for t in plan.targets if plan is not None else ():
            if t.loop is not None and t.function in self.fn_index:
                w = watch[self.fn_index[t.function]]
                if t.loop not in w:
                    w.append(t.loop)
            if t.index in self.where:  # not a terminator, and an instruction
                fi, si, pos, d = self.where[t.index]
                hits.setdefault((fi, si), []).append((pos, d, t))
        segs = [list(fn.segs) for fn in self.fns]
        for (fi, si), targets in hits.items():
            seg = segs[fi][si]
            code, bound = list(seg.code), {}
            for pos, d, t in targets:
                if seg.instrs[pos].opcode == "alloca":  # see decode_function
                    raise ValueError(f"plan target {t.index} is an alloca")
                bound[f"target{pos}"], bound[f"ins{pos}"] = t, seg.instrs[pos]
                code[pos] += (f"r[{d}] = m.inject(target{pos}, ins{pos}, r[{d}], "
                              f"m.state.steps - {seg.n - pos - 1})",)
            segs[fi][si] = Segment(f"@{self.fns[fi].name}#{si}", tuple(code),
                                   seg.instrs, seg.rec_idx, seg.rec_slot, seg.term,
                                   seg.stack, bound)
        return [Code(fn, s, tuple(w) or None)
                for fn, s, w in zip(self.fns, segs, watch)]


def decoded(module: IrModule) -> DecodedModule:
    """The module's decoded form, built on first use and kept on the module
    (IrModule leaves it out of pickles and comparisons). It validates the
    module and checks that a run can start at its `@main`, with no arguments;
    VmError lists every problem, or names a global the stack arena cannot
    hold."""
    dm = module.__dict__.get("_decoded")
    if dm is None:
        problems, main = list(map(str, validate(module))), module.function("main")
        if main is None or main.params:
            problems.append("no function @main" if main is None else
                            f"@main takes {len(main.params)} parameter(s); a run passes none")
        if problems:
            raise VmError("; ".join(problems))
        dm = module._decoded = DecodedModule(module)
    return dm
