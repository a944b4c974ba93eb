"""Direct interpreter for the IR subset with trace and fault hooks.

Values are host-native: integers stay canonically signed and wrap at their
type width, floats are IEEE doubles (f32 results re-rounded through 32 bits),
pointers are arena addresses. The call stack is explicit, so recursion depth
is bounded by the configured frame limit rather than the host stack.

Hook order at a target instruction: the result is computed, the occurrence
scope is consulted, a sampled error is applied, and only then does the trace
record the (possibly faulted) value. A fault on a non-finite value is skipped
and counted separately; it is not an activation.
"""

from __future__ import annotations

import math
import operator
import os
import struct
from dataclasses import dataclass, field

from ..ir.nodes import (SCALARS, IrModule, IrFunction, Instruction,
                         IrType, ValueRef, to_f32, wrap_int)
from ..faults import Sampler, apply_fault, draw_bound, sample_error
from ..instrument import InjectionPlan, PlanTarget
from ..traces import TraceRecord
from .arena import MemoryArena, OutOfBounds
from .intrinsics import (INTRINSICS, InStream, STDIN_HANDLE, STDOUT_HANDLE,
                         STDERR_HANDLE)

TRAP_KINDS = frozenset({
    "out_of_bounds", "division_by_zero", "invalid_branch", "stack_overflow",
    "bad_intrinsic_arg", "non_finite_fault_target",
})

DEFAULT_BUDGET = 10 ** 8
DEFAULT_MAX_DEPTH = 10 ** 4

_HEAP_BASE = 1 << 32


class VmError(Exception):
    """Malformed program state the validator should have rejected."""


@dataclass(frozen=True)
class TrapInfo:
    kind: str
    message: str
    function: str = ""
    index: int | None = None


class _TrapSignal(Exception):
    def __init__(self, info: TrapInfo):
        self.info = info
        super().__init__(f"{info.kind}: {info.message}")


class _BudgetExhausted(Exception):
    pass


@dataclass
class Activation:
    index: int
    opcode: str
    step: int
    original_hex: str
    faulted_hex: str
    error: float


@dataclass
class RunOutcome:
    status: str  # "ok" | "trapped" | "budget_exhausted"
    return_value: object = None
    stdout: str = ""
    trap: TrapInfo | None = None
    steps: int = 0
    activation_count: int = 0
    activations: list[Activation] = field(default_factory=list)
    skipped_nonfinite: int = 0
    trace: list[TraceRecord] | None = None


@dataclass
class IoConfig:
    stdin_text: str = ""
    files: dict[str, str] = field(default_factory=dict)
    workdir: str = ""


class Frame:
    """One activation: its function, the block it is in and that block's
    instructions, the next instruction's position, and its registers."""

    __slots__ = ("fn", "label", "code", "prev_label", "pc", "regs", "mark",
                 "inv_ordinal", "loop_trips")

    def __init__(self, fn: IrFunction, mark: int, inv_ordinal: int):
        self.fn = fn
        self.label = fn.blocks[0].label
        self.code = fn.blocks[0].instructions
        self.prev_label: str | None = None
        self.pc = 0
        self.regs: dict[str, object] = {}
        self.mark = mark
        self.inv_ordinal = inv_ordinal
        self.loop_trips: dict[str, int] = {}


def value_bits(value, vtype: IrType) -> str:
    """Render a runtime value as the trace's fixed-width hex field: 16 digits
    for 8-byte scalars, 8 for the rest, zeros for no value."""
    k = vtype.kind
    if value is None or k not in SCALARS:
        return "00000000"
    size, fmt = SCALARS[k]
    if k == "f32" or k == "f64":
        value = int.from_bytes(struct.pack(fmt, value), "little")
    if size == 8:
        return "%016x" % (int(value) & 0xFFFFFFFFFFFFFFFF)
    return "%08x" % (int(value) & 0xFFFFFFFF)


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
# bitcast between same-width integer and float kinds: (source, destination)
# struct formats.
_BITCASTS = {(src, dst): (SCALARS[src][1], SCALARS[dst][1])
             for src, dst in (("i32", "f32"), ("f32", "i32"),
                              ("i64", "f64"), ("f64", "i64"))}


class Machine:
    """One execution of one module. Machines are single-use."""

    def __init__(self, module: IrModule, io: IoConfig | None = None,
                 budget: int = DEFAULT_BUDGET, max_depth: int = DEFAULT_MAX_DEPTH,
                 trace: bool = False, plan: InjectionPlan | None = None,
                 sampler: Sampler | None = None, strict_nonfinite: bool = False):
        self.module = module
        self.io = io or IoConfig()
        self.budget = budget
        self.max_depth = max_depth
        self.tracing = trace
        self.plan = plan
        self.sampler = sampler
        self.strict_nonfinite = strict_nonfinite
        if plan is not None and sampler is None:
            raise ValueError("an injection plan needs a sampler")

        self.arena = MemoryArena()
        self.heap = MemoryArena(base=_HEAP_BASE)
        self.stdin = InStream(self.io.stdin_text)
        self.open_streams: dict[int, InStream] = {}
        self._stdout_parts: list[str] = []
        self.trace_records: list[TraceRecord] = []
        self.activations: list[Activation] = []
        self.skipped_nonfinite = 0
        self.steps = 0

        self._fns = {f.name: f for f in module.functions}
        self._code = {f.name: {b.label: b.instructions for b in f.blocks}
                      for f in module.functions}
        self._globals: dict[str, int] = {}
        self._call_counts: dict[str, int] = {}
        self._stack: list[Frame] = []

        self._targets: dict[int, PlanTarget] = {}
        self._exec_counts: dict[int, int] = {}
        # loops whose trips each function counts, in plan order
        self._fn_loop_watch: dict[str, list[tuple[str, frozenset[str]]]] = {}
        for t in plan.targets if plan is not None else ():
            self._targets[t.index] = t
            self._exec_counts[t.index] = 0
            if t.loop is not None:
                watch = self._fn_loop_watch.setdefault(t.function, [])
                if t.loop not in watch:
                    watch.append(t.loop)

        self._init_globals()

    # -- setup -------------------------------------------------------------

    def _init_globals(self) -> None:
        handles = {"stdin": STDIN_HANDLE, "stdout": STDOUT_HANDLE,
                   "stderr": STDERR_HANDLE}
        for g in self.module.globals:
            addr = self.arena.alloc(g.type.byte_width(),
                                    g.align or g.type.alignment())
            self._globals[g.name] = addr
            if g.external and g.name in handles:
                self.arena.store(addr, "ptr", handles[g.name])
                continue
            init = g.init
            if init is None or init.kind == "zero":
                continue
            if init.kind == "bytes":
                self.arena.store_bytes(addr, init.data)
            elif init.kind == "scalar":
                self._store_typed(addr, self._const_value(init.value), g.type)
            elif init.kind == "array":
                elem = g.type.elem
                step = elem.byte_width()
                for i, v in enumerate(init.values):
                    self._store_typed(addr + i * step, self._const_value(v), elem)

    def _const_value(self, v: ValueRef):
        k = v.kind
        if k == "int":
            return v.ival
        if k == "float":
            return v.fval
        if k == "global":
            try:
                return self._globals[v.name]
            except KeyError:
                raise VmError(f"unknown global @{v.name}") from None
        if k == "null":
            return 0
        if k == "gep":
            return self._gep_const_addr(v)
        raise VmError(f"unsupported constant {v.render()}")

    def _gep_const_addr(self, v: ValueRef) -> int:
        base = self._const_value(v.base)
        idxs = [self._const_value(i) for i in v.indices]
        return self._gep_addr(v.gep_source, base, idxs)

    # -- services used by intrinsics ----------------------------------------

    def write_stdout(self, text: str) -> None:
        self._stdout_parts.append(text)

    def resolve_file(self, path: str) -> str | None:
        if path in self.io.files:
            return self.io.files[path]
        full = os.path.join(self.io.workdir, path) if self.io.workdir else path
        try:
            with open(full, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return None

    def mem_for(self, addr: int) -> MemoryArena:
        return self.heap if addr >= _HEAP_BASE else self.arena

    def trap(self, kind: str, message: str):
        assert kind in TRAP_KINDS, kind
        raise _TrapSignal(self._trap_info(kind, message))

    def _trap_info(self, kind: str, message: str) -> TrapInfo:
        """A trap at the top frame's current instruction."""
        if not self._stack:  # the entry call itself exceeded max_depth
            return TrapInfo(kind, message)
        frame = self._stack[-1]
        return TrapInfo(kind, message, frame.fn.name, frame.code[frame.pc].index)

    # -- running -------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> RunOutcome:
        try:
            ret = self._exec(entry, args)
            status, trap, value = "ok", None, ret
        except _TrapSignal as t:
            status, trap, value = "trapped", t.info, None
        except OutOfBounds as e:
            status, trap, value = "trapped", self._trap_info("out_of_bounds", str(e)), None
        except _BudgetExhausted:
            status, trap, value = "budget_exhausted", None, None
        return RunOutcome(
            status=status, return_value=value, stdout="".join(self._stdout_parts),
            trap=trap, steps=self.steps, activation_count=len(self.activations),
            activations=self.activations, skipped_nonfinite=self.skipped_nonfinite,
            trace=self.trace_records if self.tracing else None)

    def _push_frame(self, fn: IrFunction, args: tuple) -> None:
        if len(self._stack) >= self.max_depth:
            self.trap("stack_overflow",
                      f"call depth exceeds {self.max_depth} frames")
        if not fn.blocks:
            raise VmError(f"@{fn.name} has no body")
        if len(args) != len(fn.params):
            raise VmError(f"@{fn.name} called with {len(args)} args, "
                          f"takes {len(fn.params)}")
        self._call_counts[fn.name] = self._call_counts.get(fn.name, 0) + 1
        frame = Frame(fn, self.arena.mark(), self._call_counts[fn.name])
        for (pname, _ptype), a in zip(fn.params, args):
            frame.regs[pname] = a
        self._stack.append(frame)

    def _exec(self, entry: str, args: tuple):
        """Step until the entry function returns. Only control flow is
        dispatched here; every other instruction computes one value."""
        fn = self._fns.get(entry)
        if fn is None:
            raise VmError(f"no function @{entry}")
        stack = self._stack
        self._push_frame(fn, args)

        while True:
            frame = stack[-1]
            if frame.pc >= len(frame.code):
                raise VmError(f"@{frame.fn.name} %{frame.label} has no terminator")
            ins = frame.code[frame.pc]
            self.steps += 1
            if self.steps > self.budget:
                raise _BudgetExhausted

            op = ins.opcode
            if op == "ret":
                value = self._value(frame, ins.operands[0]) if ins.operands else None
                self.arena.release(frame.mark)
                stack.pop()
                if not stack:
                    return value
                # finish the caller's call instruction with the returned value
                frame = stack[-1]
                ins = frame.code[frame.pc]
            elif op == "br":
                self._do_branch(frame, ins)
                continue
            elif op == "call" and ins.callee in self._fns:
                self._push_frame(self._fns[ins.callee],
                                 tuple(self._value(frame, v) for v in ins.operands))
                continue
            else:
                value = self._maybe_inject(frame, ins, self._compute(frame, ins))
            if ins.result is not None:
                frame.regs[ins.result] = value
            self._trace(ins, value, ins.result_type)
            frame.pc += 1

    def _do_branch(self, frame: Frame, ins: Instruction) -> None:
        if ins.operands:
            cond = int(self._value(frame, ins.operands[0]))
            target = ins.labels[0] if cond & 1 else ins.labels[1]
        else:
            target = ins.labels[0]
        code = self._code[frame.fn.name].get(target)
        if code is None:
            self.trap("invalid_branch", f"branch to missing block %{target}")
        frame.prev_label = frame.label
        frame.label = target
        frame.code = code
        frame.pc = 0
        watch = self._fn_loop_watch.get(frame.fn.name)
        if watch:
            for header, body in watch:
                if target == header:
                    if frame.prev_label in body:
                        frame.loop_trips[header] = frame.loop_trips.get(header, 0) + 1
                    else:
                        frame.loop_trips[header] = 1

    # -- values -------------------------------------------------------------

    def _value(self, frame: Frame, v: ValueRef):
        if v.kind != "reg":
            return self._const_value(v)
        try:
            return frame.regs[v.name]
        except KeyError:
            raise VmError(f"@{frame.fn.name}: %{v.name} read before definition")

    def _gep_addr(self, source: IrType, base: int, idxs: list[int]) -> int:
        if not idxs:
            return base
        addr = base + idxs[0] * source.byte_width()
        t = source
        for iv in idxs[1:]:
            if t.kind == "array":
                addr += iv * t.elem.byte_width()
                t = t.elem
            elif t.kind == "struct":
                addr += t.field_offset(iv)
                t = t.fields[iv]
            else:
                raise VmError("getelementptr walks through a scalar")
        return addr

    def _load_typed(self, addr: int, vtype: IrType):
        if vtype.kind not in SCALARS:
            raise VmError(f"cannot load type {vtype.render()}")
        return self.mem_for(addr).load(addr, vtype.kind)

    def _store_typed(self, addr: int, value, vtype: IrType) -> None:
        if vtype.kind not in SCALARS:
            raise VmError(f"cannot store type {vtype.render()}")
        self.mem_for(addr).store(addr, vtype.kind, value)

    # -- instruction semantics ----------------------------------------------

    def _compute(self, frame: Frame, ins: Instruction):
        """The value an instruction defines; None for a store or a void call."""
        op = ins.opcode

        if op == "load":
            addr = int(self._value(frame, ins.operands[0]))
            return self._load_typed(addr, ins.result_type)

        if op == "store":
            value = self._value(frame, ins.operands[0])
            addr = int(self._value(frame, ins.operands[1]))
            self._store_typed(addr, value, ins.operands[0].type)
            return None

        if op == "alloca":
            return self.arena.alloc(ins.aux_type.byte_width(),
                                    ins.align or ins.aux_type.alignment())

        if op == "getelementptr":
            base = int(self._value(frame, ins.operands[0]))
            idxs = [int(self._value(frame, v)) for v in ins.operands[1:]]
            return self._gep_addr(ins.aux_type, base, idxs)

        if op in _INT_OPS or op == "sdiv" or op == "srem":
            a = int(self._value(frame, ins.operands[0]))
            b = int(self._value(frame, ins.operands[1]))
            bits = ins.result_type.int_bits()
            if op in _INT_OPS:
                return wrap_int(_INT_OPS[op](a, b), bits)
            if b == 0:
                self.trap("division_by_zero", f"{op} by zero")
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            if op == "sdiv":
                return wrap_int(q, bits)
            return wrap_int(a - q * b, bits)

        if op in _FLOAT_OPS:
            a = float(self._value(frame, ins.operands[0]))
            b = float(self._value(frame, ins.operands[1]))
            r = _FLOAT_OPS[op](a, b)
            return to_f32(r) if ins.result_type.kind == "f32" else r

        if op == "fneg":
            r = -float(self._value(frame, ins.operands[0]))
            return to_f32(r) if ins.result_type.kind == "f32" else r

        if op == "icmp":
            return self._icmp(frame, ins)
        if op == "fcmp":
            return self._fcmp(frame, ins)

        if op == "phi":
            if frame.prev_label is None:
                raise VmError("phi in entry block")
            for v, label in zip(ins.operands, ins.labels):
                if label == frame.prev_label:
                    return self._value(frame, v)
            raise VmError(f"phi has no incoming edge from %{frame.prev_label}")

        if op == "select":
            cond = int(self._value(frame, ins.operands[0]))
            pick = ins.operands[1] if cond & 1 else ins.operands[2]
            return self._value(frame, pick)

        if op in ("zext", "trunc", "sext"):
            v = int(self._value(frame, ins.operands[0]))
            src_bits = ins.operands[0].type.int_bits()
            if op == "zext":
                return v & ((1 << src_bits) - 1)
            if op == "trunc":
                return wrap_int(v, ins.result_type.int_bits())
            return v  # sext: values are already sign-canonical

        if op == "fptosi":
            v = float(self._value(frame, ins.operands[0]))
            if not math.isfinite(v):
                return 0
            return wrap_int(math.trunc(v), ins.result_type.int_bits())

        if op == "sitofp":
            v = float(int(self._value(frame, ins.operands[0])))
            return to_f32(v) if ins.result_type.kind == "f32" else v

        if op == "fpext":
            return float(self._value(frame, ins.operands[0]))

        if op == "fptrunc":
            return to_f32(float(self._value(frame, ins.operands[0])))

        if op == "bitcast":
            v = self._value(frame, ins.operands[0])
            src = ins.operands[0].type
            dst = ins.result_type
            if src.is_pointer() and dst.is_pointer():
                return v
            formats = _BITCASTS.get((src.kind, dst.kind))
            if formats is None:
                raise VmError(f"bitcast {src.render()} to {dst.render()} unsupported")
            return struct.unpack(formats[1], struct.pack(formats[0], v))[0]

        if op == "call":
            impl = INTRINSICS.get(ins.callee)
            if impl is None:
                raise VmError(f"call to unknown function @{ins.callee}")
            return impl(self, [self._value(frame, v) for v in ins.operands])

        raise VmError(f"opcode {op!r} not executable")

    def _icmp(self, frame: Frame, ins: Instruction) -> int:
        a = int(self._value(frame, ins.operands[0]))
        b = int(self._value(frame, ins.operands[1]))
        pred = ins.predicate
        if pred[0] != "s":  # eq, ne and the u* predicates compare unsigned
            t = ins.operands[0].type
            mask = (1 << (64 if t.is_pointer() else t.int_bits())) - 1
            a, b = a & mask, b & mask
        return int(_RELATIONS[pred[-2:]](a, b))

    def _fcmp(self, frame: Frame, ins: Instruction) -> int:
        a = float(self._value(frame, ins.operands[0]))
        b = float(self._value(frame, ins.operands[1]))
        pred = ins.predicate
        if pred == "true" or pred == "false":
            return int(pred == "true")
        if math.isnan(a) or math.isnan(b):
            return int(pred[0] == "u")  # uno and the u* predicates hold on NaN
        if pred == "ord" or pred == "uno":
            return int(pred == "ord")
        return int(_RELATIONS[pred[1:]](a, b))

    # -- hooks ----------------------------------------------------------------

    def _maybe_inject(self, frame: Frame, ins: Instruction, value):
        target = self._targets.get(ins.index)
        if target is None:
            return value
        self._exec_counts[ins.index] += 1
        if not self._scope_hit(frame, target):
            return value
        if isinstance(value, float) and not math.isfinite(value):
            if self.strict_nonfinite:
                self.trap("non_finite_fault_target",
                          f"target ID {ins.index} holds {value!r}")
            self.skipped_nonfinite += 1
            return value
        err = sample_error(self.sampler, float(value))
        faulted = apply_fault(value, err, target.value_kind,
                              draw_bound(self.sampler.spec, float(value)))
        self.activations.append(Activation(
            index=ins.index, opcode=ins.opcode, step=self.steps,
            original_hex=value_bits(value, ins.result_type),
            faulted_hex=value_bits(faulted, ins.result_type),
            error=err))
        return faulted

    def _scope_hit(self, frame: Frame, target: PlanTarget) -> bool:
        scope = self.plan.scope
        if scope.mode == "nth_execution":
            return self._exec_counts[target.index] in scope.k
        if scope.mode == "invocation":
            return frame.inv_ordinal in scope.k
        return (target.loop is not None
                and frame.loop_trips.get(target.loop[0], 0) in scope.k)

    def _trace(self, ins: Instruction, value, vtype: IrType) -> None:
        if self.tracing and ins.index is not None:
            self.trace_records.append(
                TraceRecord(ins.index, ins.opcode, value_bits(value, vtype)))


def run_module(module: IrModule, **kw) -> RunOutcome:
    """Convenience wrapper: one fresh machine, one run from main."""
    return Machine(module, **kw).run()
