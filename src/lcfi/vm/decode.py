"""Decoded form of a module: one closure per instruction, built once per module.

Decoding settles at load time what executing an instruction would otherwise
look up at every step. Register operands become slots of the frame's register
list and each distinct constant gets a slot of its own; integer widths and
masks, memory kinds, gep strides and float rounding are fixed; branch targets
become segment numbers and a branch carries its edge's phi moves.

A function's code is cut into segments: a straight run of ops ended by one
terminator, which is a branch, a return, or a call to a defined function (the
interpreter's frame stack, not the host stack, runs the callee). An op is
called as `op(regs, machine)` and writes its value, if it has one, to its
result slot. A phi's op does nothing: the branch into its block has already
assigned all of the block's phis at once, from the values on that edge.

`decoded(module)` is the one well-formedness gate: it validates the module
and raises VmError with the diagnostics, so the decoder trusts its input. It
caches the result on the module, so the golden run and every injection run in
a process share it. Global addresses are the same in every run (the stack
arena is a bump allocator), so the module's globals are laid out and
initialized here, once, with a handle slot for each of @stdin, @stdout and
@stderr used without a declaration; each run starts from a copy of that
arena. Nothing here holds per-run state. Per plan, `DecodedModule.codes`
swaps in injecting ops at the plan's targets.

Register lists: slot 0 always holds None, the value of a store or a void
return; slots 1..P hold the parameters.
"""

from __future__ import annotations

import math
import operator
import struct

from ..ir.nodes import (BITCASTS, SCALARS, IrFunction, IrModule, ValueRef, gep_layout,
                        to_f32)
from ..ir.validate import validate
from ..traces import TraceFields
from .arena import HEAP_BASE, MemoryArena
from .intrinsics import INTRINSICS, STDERR_HANDLE, STDIN_HANDLE, STDOUT_HANDLE


class VmError(Exception):
    """A program the interpreter cannot run: it fails validation, or it has
    no entry function of that name and arity."""


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


_INT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}
_FLOAT_OPS = {"fadd": operator.add, "fsub": operator.sub, "fmul": operator.mul,
              "fdiv": _fdiv}
# icmp and fcmp predicates end in one of these relations.
_RELATIONS = {"eq": operator.eq, "ne": operator.ne, "gt": operator.gt,
              "ge": operator.ge, "lt": operator.lt, "le": operator.le}
# bitcast between scalar kinds: (source, destination) struct formats.
_BITCASTS = {(src, dst): (SCALARS[src][1], SCALARS[dst][1]) for src, dst in BITCASTS}

# Terminator kinds, the first field of Segment.term:
#   (BR, condition slot or None, edge taken on true or always, edge on false)
#   (CALL, callee's function number, argument slots, result slot, index)
#   (RET, value slot)
# An edge is (target segment, (phi slots, incoming slots) or None, source
# label, target label).
BR, CALL, RET = range(3)


def _wrap_bits(bits: int) -> tuple[int, int]:
    """(half, mask) with which ((v + half) & mask) - half wraps v to `bits`."""
    return 1 << (bits - 1), (1 << bits) - 1


def _nop(regs, m):
    pass


# -- op factories: (instruction, result slot, operand slot function) -> op ----

def _int_binary(ins, d, slot):
    x, y = map(slot, ins.operands)
    op = ins.opcode
    half, mask = _wrap_bits(ins.result_type.int_bits())
    if op in _INT_OPS:
        fn = _INT_OPS[op]

        def run(regs, m):
            regs[d] = ((fn(regs[x], regs[y]) + half) & mask) - half
        return run
    rem = op == "srem"

    def run(regs, m):
        a, b = regs[x], regs[y]
        if b == 0:
            m.trap("division_by_zero", f"{op} by zero")
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        regs[d] = (((a - q * b if rem else q) + half) & mask) - half
    return run


def _float_binary(ins, d, slot):
    x, y = map(slot, ins.operands)
    fn = _FLOAT_OPS[ins.opcode]
    if ins.result_type.kind == "f32":
        def run(regs, m):
            regs[d] = to_f32(fn(regs[x], regs[y]))
    else:
        def run(regs, m):
            regs[d] = fn(regs[x], regs[y])
    return run


def _fneg(ins, d, slot):
    x = slot(ins.operands[0])
    rnd = to_f32 if ins.result_type.kind == "f32" else float

    def run(regs, m):
        regs[d] = rnd(-regs[x])
    return run


def _icmp(ins, d, slot):
    x, y = map(slot, ins.operands)
    pred = ins.predicate
    rel = _RELATIONS[pred[-2:]]
    if pred[0] == "s":
        def run(regs, m):
            regs[d] = 1 if rel(regs[x], regs[y]) else 0
        return run
    # eq, ne and the u* predicates compare unsigned
    t = ins.operands[0].type
    mask = (1 << (64 if t.is_pointer() else t.int_bits())) - 1

    def run(regs, m):
        regs[d] = 1 if rel(regs[x] & mask, regs[y] & mask) else 0
    return run


def _fcmp(ins, d, slot):
    x, y = map(slot, ins.operands)
    pred = ins.predicate
    if pred in ("true", "false"):
        value = int(pred == "true")

        def run(regs, m):
            regs[d] = value
        return run
    on_nan = int(pred[0] == "u")  # uno and the u* predicates hold on NaN
    rel = (_RELATIONS[pred[1:]] if pred[1:] in _RELATIONS
           else lambda a, b: pred == "ord")

    def run(regs, m):
        a, b = regs[x], regs[y]
        if a != a or b != b:
            regs[d] = on_nan
        else:
            regs[d] = 1 if rel(a, b) else 0
    return run


def _select(ins, d, slot):
    c, t, f = map(slot, ins.operands)

    def run(regs, m):
        regs[d] = regs[t] if regs[c] & 1 else regs[f]
    return run


def _cast(ins, d, slot):
    x = slot(ins.operands[0])
    op, src, dst = ins.opcode, ins.operands[0].type, ins.result_type
    if op == "zext":
        mask = (1 << src.int_bits()) - 1

        def run(regs, m):
            regs[d] = regs[x] & mask
    elif op == "trunc":
        half, mask = _wrap_bits(dst.int_bits())

        def run(regs, m):
            regs[d] = ((regs[x] + half) & mask) - half
    elif op == "fptosi":
        half, mask = _wrap_bits(dst.int_bits())

        def run(regs, m):
            v = regs[x]
            regs[d] = ((math.trunc(v) + half) & mask) - half if math.isfinite(v) else 0
    elif op == "bitcast" and not (src.is_pointer() and dst.is_pointer()):
        pack, unpack = _BITCASTS[src.kind, dst.kind]

        def run(regs, m):
            regs[d] = struct.unpack(unpack, struct.pack(pack, regs[x]))[0]
    elif op in ("sitofp", "fpext", "fptrunc"):
        rnd = to_f32 if op == "fptrunc" or dst.kind == "f32" else float

        def run(regs, m):
            regs[d] = rnd(regs[x])
    else:  # sext (values are already sign-canonical) and pointer bitcasts
        def run(regs, m):
            regs[d] = regs[x]
    return run


def _load(ins, d, slot):
    p = slot(ins.operands[0])
    kind = ins.result_type.kind

    def run(regs, m):
        a = regs[p]
        regs[d] = (m.heap if a >= HEAP_BASE else m.arena).load(a, kind)
    return run


def _store(ins, d, slot):
    v, p = map(slot, ins.operands)
    kind = ins.operands[0].type.kind

    def run(regs, m):
        a = regs[p]
        (m.heap if a >= HEAP_BASE else m.arena).store(a, kind, regs[v])
    return run


def _alloca(ins, d, slot):
    size = ins.aux_type.byte_width()
    align = ins.align or ins.aux_type.alignment()

    def run(regs, m):
        regs[d] = m.arena.alloc(size, align)
    return run


def _gep(ins, d, slot):
    b = slot(ins.operands[0])
    off, terms = gep_layout(ins.aux_type, ins.operands[1:])
    terms = [(slot(v), stride) for v, stride in terms]
    if not terms:
        def run(regs, m):
            regs[d] = regs[b] + off
    elif len(terms) == 1:
        ((x, stride),) = terms

        def run(regs, m):
            regs[d] = regs[b] + off + regs[x] * stride
    else:
        def run(regs, m):
            regs[d] = regs[b] + off + sum(regs[x] * s for x, s in terms)
    return run


def _call(ins, d, slot):
    impl = INTRINSICS[ins.callee]
    args = tuple(map(slot, ins.operands))

    def run(regs, m):
        regs[d] = impl(m, [regs[s] for s in args])
    return run


_DECODERS = {
    **dict.fromkeys(("add", "sub", "mul", "sdiv", "srem"), _int_binary),
    **dict.fromkeys(_FLOAT_OPS, _float_binary),
    "fneg": _fneg, "icmp": _icmp, "fcmp": _fcmp, "select": _select,
    **dict.fromkeys(("zext", "sext", "trunc", "fptosi", "sitofp", "fpext",
                     "fptrunc", "bitcast"), _cast),
    "load": _load, "store": _store, "alloca": _alloca, "getelementptr": _gep,
    "call": _call, "phi": lambda ins, d, slot: _nop,
}


# -- functions ------------------------------------------------------------------

class Segment:
    """Ops run in order, then the terminator. `instrs` lists the ops'
    instructions and then the terminator's, if any; a traced run records
    (rec_idx[i], regs[rec_slot[i]]) for each indexed op."""

    __slots__ = ("ops", "instrs", "n", "rec_idx", "rec_slot", "term")

    def __init__(self, ops, instrs, rec_idx, rec_slot, term):
        self.ops = ops
        self.instrs = instrs
        self.n = len(ops) + 1  # steps, the terminator's included
        self.rec_idx = rec_idx
        self.rec_slot = rec_slot
        self.term = term


class DecodedFn:
    __slots__ = ("name", "nparams", "template", "segs")

    def __init__(self, name, nparams, template, segs):
        self.name = name
        self.nparams = nparams
        self.template = template  # initial register list, constants in place
        self.segs = segs


def _is_terminator(ins, fn_index) -> bool:
    return ins.opcode in ("br", "ret") or (ins.opcode == "call"
                                            and ins.callee in fn_index)


def decode_function(fn: IrFunction, fi: int, fn_index: dict[str, int],
                    where: dict, const) -> DecodedFn:
    """Decode one validated function; `const` gives a constant operand's
    value. `where` gains, for each op's instruction index, (function number,
    segment number, position, result slot)."""
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

    def result(ins) -> int:
        """The slot an instruction's value goes to: its register's; a fresh
        one for a call that names none (its value is still traced); slot 0
        (None) for a store."""
        if ins.result is not None:
            return reg(ins.result)
        return fresh() if ins.opcode == "call" else 0

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
        ops, rec_idx, rec_slot = [], [], []
        for pos, ins in enumerate(body):
            d = result(ins)
            ops.append(_DECODERS[ins.opcode](ins, d, slot))
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
                    result(last), last.index)
        segs.append(Segment(tuple(ops), tuple(run), tuple(rec_idx),
                            tuple(rec_slot), term))
    return DecodedFn(fn.name, len(fn.params), template, segs)


# -- modules and plans -----------------------------------------------------------

class Code:
    """A function as one plan runs it: its segments, injecting ops in place
    at the plan's targets, and the loops (header, body labels) whose trips
    the plan's loop_iteration scope counts."""

    __slots__ = ("fn", "segs", "watch")

    def __init__(self, fn: DecodedFn, segs: list, watch: tuple | None):
        self.fn = fn
        self.segs = segs
        self.watch = watch


def _injecting(op, d, target, ins, back: int):
    def run(regs, m):
        op(regs, m)
        regs[d] = m.inject(target, ins, regs[d], m.steps - back)
    return run


_HANDLES = {"stdin": STDIN_HANDLE, "stdout": STDOUT_HANDLE, "stderr": STDERR_HANDLE}


class DecodedModule:
    """A validated module's functions, trace fields and initial stack arena
    (its globals); `globals` maps each global's name to its address."""

    def __init__(self, module: IrModule):
        problems = validate(module)
        if problems:
            raise VmError("; ".join(map(str, problems)))
        self.arena = MemoryArena()
        self.globals = {g.name: self.arena.alloc(g.type.byte_width(),
                                                 g.align or g.type.alignment())
                        for g in module.globals}
        for g in module.globals:
            self._init_global(g)
        self.fn_index = {f.name: i for i, f in enumerate(module.functions)}
        self.where: dict = {}
        self.fns = [decode_function(f, i, self.fn_index, self.where, self._const)
                    for i, f in enumerate(module.functions)]
        self.fields = TraceFields(
            (ins.index, ins.opcode, ins.result_type.kind)
            for _f, _b, ins in module.all_instructions() if ins.index is not None)
        self._codes: dict = {}

    def _const(self, v: ValueRef):
        """The value of a constant operand: int, float, null, global or gep."""
        if v.kind == "global":
            if v.name not in self.globals:  # @stdin, @stdout or @stderr, undeclared
                addr = self.globals[v.name] = self.arena.alloc(8, 8)
                self.arena.store(addr, "ptr", _HANDLES[v.name])
            return self.globals[v.name]
        if v.kind == "gep":
            offset, _terms = gep_layout(v.gep_source, v.indices)
            return self._const(v.base) + offset
        return v.ival if v.kind == "int" else v.fval if v.kind == "float" else 0

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
        segs = [list(fn.segs) for fn in self.fns]
        watch: list[list] = [[] for _ in self.fns]
        for t in plan.targets if plan is not None else ():
            if t.loop is not None and t.function in self.fn_index:
                w = watch[self.fn_index[t.function]]
                if t.loop not in w:
                    w.append(t.loop)
            if t.index not in self.where:  # a terminator or no instruction
                continue
            fi, si, pos, d = self.where[t.index]
            seg = segs[fi][si]
            ops = list(seg.ops)
            ops[pos] = _injecting(ops[pos], d, t, seg.instrs[pos], seg.n - pos - 1)
            segs[fi][si] = Segment(tuple(ops), seg.instrs, seg.rec_idx,
                                   seg.rec_slot, seg.term)
        return [Code(fn, s, tuple(w) or None)
                for fn, s, w in zip(self.fns, segs, watch)]


def decoded(module: IrModule) -> DecodedModule:
    """The module's decoded form, built on first use and kept on the module
    (IrModule leaves it out of pickles and comparisons)."""
    dm = module.__dict__.get("_decoded")
    if dm is None:
        dm = module._decoded = DecodedModule(module)
    return dm
