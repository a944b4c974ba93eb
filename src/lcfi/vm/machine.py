"""Interpreter for the IR subset with trace and fault hooks.

Values are host-native: integers stay canonically signed and wrap at their
type width, floats are IEEE doubles (f32 results re-rounded through 32 bits),
pointers are arena addresses. The call stack is explicit, so recursion depth
is bounded by the configured frame limit rather than the host stack.

The machine runs the module's decoded form (see decode.py), validated and
built once per module and shared by every run in the process, one segment at
a time: it counts the segment's steps, runs its ops and then its terminator.
A run's stack arena starts as a copy of the decoded globals. When a trap or
the budget stops a run inside a segment, the op that raised gives the exact
step, trap location and trace length. A traced run keeps its trace as raw
(index, value) columns; values become hex only when the trace is read or
written.

Hook order at a target instruction: the result is computed, the occurrence
scope is consulted, a sampled error is applied, and only then does the trace
record the (possibly faulted) value. A fault on a non-finite value is skipped
and counted separately; it is not an activation.

Every run under one plan is the same run until its sampler is first drawn.
`prefix_snapshot` runs that fault-free prefix once and captures the state at
the start of the segment holding the first draw; a machine built with
`start=` that snapshot resumes there, with absolute step counts and the
prefix's trace records in place. It must be a machine that would have made
the same run (same module, plan, io and depth limit, a budget that reaches
the snapshot); any other raises ValueError.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field, replace

from ..ir.nodes import IrModule, Instruction
from ..faults import Sampler, apply_fault, draw_bound, sample_error
from ..instrument import InjectionPlan, PlanTarget
from ..traces import RunTrace, value_bits
from .arena import HEAP_BASE, MemoryArena, OutOfBounds
from .decode import BR, CALL, Code, VmError, decoded
from .intrinsics import InStream

TRAP_KINDS = frozenset({
    "out_of_bounds", "division_by_zero", "stack_overflow",
    "bad_intrinsic_arg", "non_finite_fault_target",
})

DEFAULT_BUDGET = 10 ** 8
DEFAULT_MAX_DEPTH = 10 ** 4


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
    trace: RunTrace | None = None


@dataclass
class IoConfig:
    stdin_text: str = ""
    files: dict[str, str] = field(default_factory=dict)
    workdir: str = ""


@dataclass(frozen=True)
class Snapshot:
    """A run's state at the start of a segment, before its sampler's first
    draw, as plain data: each frame is (function number, segment number,
    registers, stack mark, call ordinal, loop trips), so a snapshot pickles.
    A machine started from it copies what it would change. The run it was
    taken of had `module`, `plan`, `io` and `max_depth`, and skipped faults
    on non-finite values."""
    module: IrModule
    plan: InjectionPlan
    io: IoConfig
    max_depth: int
    frames: tuple
    arena: MemoryArena
    heap: MemoryArena
    stdin: InStream
    open_streams: dict
    stdout_parts: tuple
    steps: int
    call_counts: tuple
    exec_counts: dict
    skipped_nonfinite: int
    trace_idx: list
    trace_val: list


class Frame:
    """One activation: its function's code, the segment it is in, its
    registers, its stack mark, which call of the function it is, and the
    trip counts of the loops its plan watches."""

    __slots__ = ("code", "si", "regs", "mark", "inv_ordinal", "loop_trips")

    def __init__(self, code: Code, regs: list, mark: int, inv_ordinal: int):
        self.code = code
        self.si = 0
        self.regs = regs
        self.mark = mark
        self.inv_ordinal = inv_ordinal
        self.loop_trips: dict[str, int] = {}


class Machine:
    """One execution of one module. Machines are single-use."""

    def __init__(self, module: IrModule, io: IoConfig | None = None,
                 budget: int = DEFAULT_BUDGET, max_depth: int = DEFAULT_MAX_DEPTH,
                 trace: bool = False, plan: InjectionPlan | None = None,
                 sampler: Sampler | None = None, strict_nonfinite: bool = False,
                 start: Snapshot | None = None):
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

        self._decoded = decoded(module)
        self.arena = self._decoded.arena.copy()
        self.heap = MemoryArena(base=HEAP_BASE)
        self.stdin = InStream(self.io.stdin_text)
        self.open_streams: dict[int, InStream] = {}
        self._stdout_parts: list[str] = []
        self._trace_idx: list[int] | None = [] if trace else None
        self._trace_val: list = []
        self.activations: list[Activation] = []
        self.skipped_nonfinite = 0
        self.steps = 0

        self._codes = self._decoded.codes(plan)
        self._call_counts = [0] * len(self._codes)
        self._stack: list[Frame] = []
        self._exec_counts = {t.index: 0 for t in plan.targets} if plan else {}
        if start is not None:
            self._restore(start)

    def _restore(self, s: Snapshot) -> None:
        """Resume from a snapshot of a run this machine would have made: one
        of its module under its plan, io and depth limit, that its budget
        lets reach the snapshot."""
        if (s.module != self.module or s.plan != self.plan or s.io != self.io
                or s.max_depth != self.max_depth
                or (self.strict_nonfinite and s.skipped_nonfinite)):
            raise ValueError("the snapshot is of a run under another module, plan, "
                             "io, depth limit or handling of non-finite values")
        if self.budget < s.steps:
            raise ValueError(f"a budget of {self.budget} steps ends before the "
                             f"snapshot's step {s.steps}")
        self.arena = s.arena.copy()
        self.heap = s.heap.copy()
        self.stdin = copy.copy(s.stdin)
        self.open_streams = {h: copy.copy(st) for h, st in s.open_streams.items()}
        self._stdout_parts = list(s.stdout_parts)
        self.steps = s.steps
        self._call_counts = list(s.call_counts)
        self._exec_counts = dict(s.exec_counts)
        self.skipped_nonfinite = s.skipped_nonfinite
        if self.tracing:
            self._trace_idx = list(s.trace_idx)
            self._trace_val = list(s.trace_val)
        for fi, si, regs, mark, inv_ordinal, loop_trips in s.frames:
            frame = Frame(self._codes[fi], list(regs), mark, inv_ordinal)
            frame.si = si
            frame.loop_trips = dict(loop_trips)
            self._stack.append(frame)

    def _snapshot(self) -> Snapshot:
        """The state of a finished machine that its budget stopped at the
        start of a segment, before any draw. The snapshot takes over the
        machine's memory and streams."""
        fn_index = self._decoded.fn_index
        return Snapshot(
            module=self.module, plan=self.plan, io=self.io, max_depth=self.max_depth,
            frames=tuple((fn_index[f.code.fn.name], f.si, f.regs, f.mark,
                          f.inv_ordinal, f.loop_trips) for f in self._stack),
            arena=self.arena, heap=self.heap, stdin=self.stdin,
            open_streams=self.open_streams, stdout_parts=tuple(self._stdout_parts),
            steps=self.budget, call_counts=tuple(self._call_counts),
            exec_counts=self._exec_counts, skipped_nonfinite=self.skipped_nonfinite,
            trace_idx=self._trace_idx, trace_val=self._trace_val)

    # -- services used by intrinsics and ops --------------------------------

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
        return self.heap if addr >= HEAP_BASE else self.arena

    def trap(self, kind: str, message: str):
        """Stop the run with a trap; the step loop adds where it happened."""
        assert kind in TRAP_KINDS, kind
        raise _TrapSignal(TrapInfo(kind, message))

    # -- running -------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple = ()) -> RunOutcome:
        """Run `entry` to its return; a machine started from a snapshot
        resumes the run the snapshot was taken from instead."""
        try:
            ret = self._exec(entry, args)
            status, trap, value = "ok", None, ret
        except _TrapSignal as t:
            status, trap, value = "trapped", t.info, None
        except _BudgetExhausted:
            status, trap, value = "budget_exhausted", None, None
        trace = (RunTrace(self._trace_idx, self._trace_val, self._decoded.fields)
                 if self.tracing else None)
        return RunOutcome(
            status=status, return_value=value, stdout="".join(self._stdout_parts),
            trap=trap, steps=self.steps, activation_count=len(self.activations),
            activations=self.activations, skipped_nonfinite=self.skipped_nonfinite,
            trace=trace)

    def _push(self, fi: int, args: list) -> None:
        code = self._codes[fi]
        fn = code.fn
        if len(self._stack) >= self.max_depth:
            self.trap("stack_overflow", f"call depth exceeds {self.max_depth} frames")
        if len(args) != fn.nparams:
            raise VmError(f"@{fn.name} called with {len(args)} args, "
                          f"takes {fn.nparams}")
        self._call_counts[fi] += 1
        regs = fn.template.copy()
        regs[1:1 + len(args)] = args
        self._stack.append(Frame(code, regs, self.arena.mark(),
                                 self._call_counts[fi]))

    def _exec(self, entry: str, args: tuple):
        """Run segments until the entry function returns."""
        if not self._stack:
            fi = self._decoded.fn_index.get(entry)
            if fi is None:
                raise VmError(f"no function @{entry}")
            self._push(fi, list(args))
        stack, budget = self._stack, self.budget
        tidx, tval = self._trace_idx, self._trace_val
        frame = stack[-1]
        segs, regs, watch, si = frame.code.segs, frame.regs, frame.code.watch, frame.si
        op = None
        try:
            while True:
                seg = segs[si]
                base = self.steps
                steps = self.steps = base + seg.n
                ops = seg.ops if steps <= budget else seg.ops[:budget - base]
                for op in ops:
                    op(regs, self)
                op = None
                if steps > budget:
                    self._record(seg, regs, len(ops))
                    self.steps = budget + 1
                    frame.si = si  # where a snapshot resumes
                    raise _BudgetExhausted
                if tidx is not None:
                    tidx.extend(seg.rec_idx)
                    tval.extend(map(regs.__getitem__, seg.rec_slot))
                term = seg.term
                kind = term[0]
                if kind == BR:
                    si, moves, src, dst = (
                        term[2] if term[1] is None or regs[term[1]] & 1 else term[3])
                    if moves is not None:  # the target's phis, all at once
                        for d, v in zip(moves[0], [regs[s] for s in moves[1]]):
                            regs[d] = v
                    if watch is not None:
                        self._count_trip(frame, watch, src, dst)
                elif kind == CALL:
                    frame.si = si
                    self._push(term[1], [regs[s] for s in term[2]])
                    frame = stack[-1]
                    segs, regs, watch, si = frame.code.segs, frame.regs, frame.code.watch, 0
                else:  # RET
                    value = regs[term[1]]
                    self.arena.release(frame.mark)
                    stack.pop()
                    if not stack:
                        return value
                    frame = stack[-1]
                    segs, regs, watch, si = (frame.code.segs, frame.regs,
                                             frame.code.watch, frame.si)
                    # finish the caller's call instruction with the returned value
                    _kind, _fi, _args, d, index = segs[si].term
                    regs[d] = value
                    if tidx is not None and index is not None:
                        tidx.append(index)
                        tval.append(value)
                    si += 1
        except (_TrapSignal, OutOfBounds) as e:
            # an op raised, or else the terminator did
            pos = len(seg.ops) if op is None else ops.index(op)
            self.steps = base + pos + 1
            if op is not None:
                self._record(seg, regs, pos)
            info = (e.info if isinstance(e, _TrapSignal)
                    else TrapInfo("out_of_bounds", str(e)))
            raise _TrapSignal(replace(info, function=frame.code.fn.name,
                                      index=seg.instrs[pos].index)) from None

    def _record(self, seg, regs: list, done: int) -> None:
        """Trace the first `done` ops of a segment that stopped early."""
        if self._trace_idx is not None:
            n = sum(ins.index is not None for ins in seg.instrs[:done])
            self._trace_idx.extend(seg.rec_idx[:n])
            self._trace_val.extend(regs[s] for s in seg.rec_slot[:n])

    @staticmethod
    def _count_trip(frame: Frame, watch: tuple, src: str, dst: str) -> None:
        for header, body in watch:
            if dst == header:
                trips = frame.loop_trips
                trips[header] = trips.get(header, 0) + 1 if src in body else 1

    # -- hooks ----------------------------------------------------------------

    def inject(self, target: PlanTarget, ins: Instruction, value, step: int):
        """The value a target instruction leaves, at run step `step`."""
        self._exec_counts[ins.index] += 1
        if not self._scope_hit(self._stack[-1], target):
            return value
        if isinstance(value, float) and not math.isfinite(value):
            if self.strict_nonfinite:
                self.trap("non_finite_fault_target",
                          f"target ID {ins.index} holds {value!r}")
            self.skipped_nonfinite += 1
            return value
        return self._fault(target, ins, value, step)

    def _fault(self, target: PlanTarget, ins: Instruction, value, step: int):
        """Draw an error for `value` and apply it: one activation."""
        err = sample_error(self.sampler, float(value))
        faulted = apply_fault(value, err, target.value_kind,
                              draw_bound(self.sampler.spec, float(value)))
        self.activations.append(Activation(
            index=ins.index, opcode=ins.opcode, step=step,
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


class _FirstDraw(Exception):
    def __init__(self, base: int):
        self.base = base  # the step count where the draw's segment starts


_NO_DRAWS = object()  # a probe's sampler


class _Probe(Machine):
    """A run under a plan that stops before its first draw, so it never
    needs a sampler."""

    def __init__(self, module: IrModule, io: IoConfig, budget: int,
                 plan: InjectionPlan, trace: bool = False):
        super().__init__(module, io=io, budget=budget, trace=trace, plan=plan,
                         sampler=_NO_DRAWS)

    def _fault(self, target, ins, value, step):
        pos = self._decoded.where[ins.index][2]  # the op's place in its segment
        raise _FirstDraw(step - pos - 1)


def prefix_snapshot(module: IrModule, io: IoConfig, budget: int,
                    plan: InjectionPlan) -> Snapshot | None:
    """The state every run under `plan` reaches unchanged: the start of the
    segment that holds the sampler's first draw, for runs that skip faults
    on non-finite values. None when the run ends first: it returns, traps
    or exhausts `budget`."""
    try:
        _Probe(module, io, budget, plan).run()
        return None
    except _FirstDraw as hit:
        base = hit.base
    probe = _Probe(module, io, base, plan, trace=True)
    probe.run()  # the budget stops it at the start of that segment
    return probe._snapshot()


def run_module(module: IrModule, **kw) -> RunOutcome:
    """Convenience wrapper: one fresh machine, one run from main."""
    return Machine(module, **kw).run()
