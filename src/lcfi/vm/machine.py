"""Interpreter for the IR subset with trace and fault hooks.

Values are host-native: integers stay canonically signed and wrap at their
type width, floats are IEEE doubles (f32 results re-rounded through 32 bits),
pointers are arena addresses. The call stack is explicit, so recursion depth
is bounded by `MAX_DEPTH` frames rather than the host stack. A run starts at
`@main` with no arguments.

The machine runs the module's decoded form (see decode.py), validated and
compiled once per module and shared by every run in the process, one segment
at a time: it counts the segment's steps, calls the segment's compiled
function, extends the trace from the values that function returns, and then
runs the terminator. A budget that ends inside a segment runs the segment's
prefix function for the steps left instead. When an op traps, the line of
the generated function that its exception passed through gives the op, and
with it the exact step, trap location and trace length. A run's stack arena
starts as a copy of the decoded globals. A traced run keeps its trace as raw
(index, value) columns; values become hex only when the trace is read or
written.

Hook order at a target instruction: the result is computed, the occurrence
scope is consulted, a sampled error is applied, and only then does the trace
record the (possibly faulted) value. A fault on a non-finite value is skipped
and counted separately; it is not an activation.

Everything a run changes is one `RunState`: memory, streams, stdout, the
frames, the counters and the trace columns. Every run under one plan is the
same run until its sampler is first drawn. `prefix_snapshot` runs that
fault-free prefix once and keeps its `RunState` at the start of the segment
holding the first draw, with the run's identity, as a `Snapshot`; a machine
built with `start=` that snapshot runs on a copy of that state, with
absolute step counts and the prefix's trace records in place. It must be a
machine that would have made the same run (same module, plan and io, and a
budget that reaches the snapshot); any other raises ValueError.
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
from .decode import BR, CALL, VmError, decoded
from .intrinsics import InStream

TRAP_KINDS = frozenset({
    "out_of_bounds", "division_by_zero", "stack_overflow", "bad_intrinsic_arg",
})

DEFAULT_BUDGET = 10 ** 8
MAX_DEPTH = 10 ** 4


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


class Frame:
    """One activation: its function's number, the segment it is in, its
    registers, its stack mark, which call of the function it is, and the
    trip counts of the loops its plan watches."""

    __slots__ = ("fi", "si", "regs", "mark", "inv_ordinal", "loop_trips")

    def __init__(self, fi: int, regs: list, mark: int, inv_ordinal: int):
        self.fi = fi
        self.si = 0
        self.regs = regs
        self.mark = mark
        self.inv_ordinal = inv_ordinal
        self.loop_trips: dict[str, int] = {}

    def copy(self) -> Frame:
        twin = Frame(self.fi, list(self.regs), self.mark, self.inv_ordinal)
        twin.si, twin.loop_trips = self.si, dict(self.loop_trips)
        return twin


@dataclass
class RunState:
    """Everything a run changes, as plain data that pickles. `trace_idx` is
    None in an untraced run."""
    arena: MemoryArena
    heap: MemoryArena
    stdin: InStream
    call_counts: list[int]
    exec_counts: dict[int, int]
    trace_idx: list[int] | None
    trace_val: list = field(default_factory=list)
    open_streams: dict[int, InStream] = field(default_factory=dict)
    stdout_parts: list[str] = field(default_factory=list)
    frames: list[Frame] = field(default_factory=list)
    activations: list[Activation] = field(default_factory=list)
    steps: int = 0
    skipped_nonfinite: int = 0

    def copy(self) -> RunState:
        """A copy that shares nothing a run changes. This is the one list of
        the mutable fields; any other field, a subclass's too, carries over."""
        return replace(
            self, arena=self.arena.copy(), heap=self.heap.copy(),
            stdin=copy.copy(self.stdin),
            call_counts=list(self.call_counts), exec_counts=dict(self.exec_counts),
            trace_idx=None if self.trace_idx is None else list(self.trace_idx),
            trace_val=list(self.trace_val),
            open_streams={h: copy.copy(st) for h, st in self.open_streams.items()},
            stdout_parts=list(self.stdout_parts),
            frames=[f.copy() for f in self.frames],
            activations=list(self.activations))


@dataclass(frozen=True)
class Snapshot:
    """A run's state at the start of a segment, before its sampler's first
    draw. The run it was taken of had `module`, `plan` and `io`. A machine
    started from it runs on a copy of `state`."""
    module: IrModule
    plan: InjectionPlan
    io: IoConfig
    state: RunState


class Machine:
    """One execution of one module. Machines are single-use."""

    def __init__(self, module: IrModule, io: IoConfig | None = None,
                 budget: int = DEFAULT_BUDGET, trace: bool = False,
                 plan: InjectionPlan | None = None, sampler: Sampler | None = None,
                 start: Snapshot | None = None):
        self.module = module
        self.io = io or IoConfig()
        self.budget = budget
        self.tracing = trace
        self.plan = plan
        self.sampler = sampler
        if plan is not None and sampler is None:
            raise ValueError("an injection plan needs a sampler")

        self._decoded = decoded(module)
        self._codes = self._decoded.codes(plan)
        if start is None:
            self.state = RunState(
                arena=self._decoded.arena.copy(), heap=MemoryArena(base=HEAP_BASE),
                stdin=InStream(self.io.stdin_text), call_counts=[0] * len(self._codes),
                exec_counts={t.index: 0 for t in plan.targets} if plan else {},
                trace_idx=[] if trace else None)
            return
        # resume a run this machine would have made: one of its module under
        # its plan and io, that its budget lets reach the snapshot
        if start.module != module or start.plan != plan or start.io != self.io:
            raise ValueError("the snapshot is of a run under another module, "
                             "plan or io")
        if budget < start.state.steps:
            raise ValueError(f"a budget of {budget} steps ends before the "
                             f"snapshot's step {start.state.steps}")
        self.state = start.state.copy()
        if not trace:
            self.state.trace_idx = None

    # -- services used by intrinsics and ops --------------------------------

    def write_stdout(self, text: str) -> None:
        self.state.stdout_parts.append(text)

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
        return self.state.heap if addr >= HEAP_BASE else self.state.arena

    def trap(self, kind: str, message: str):
        """Stop the run with a trap; the step loop adds where it happened."""
        assert kind in TRAP_KINDS, kind
        raise _TrapSignal(TrapInfo(kind, message))

    # -- running -------------------------------------------------------------

    def run(self) -> RunOutcome:
        """Run `@main` to its return; a machine started from a snapshot
        resumes the run the snapshot was taken from."""
        try:
            ret = self._exec()
            status, trap, value = "ok", None, ret
        except _TrapSignal as t:
            status, trap, value = "trapped", t.info, None
        except _BudgetExhausted:
            status, trap, value = "budget_exhausted", None, None
        state = self.state
        trace = (RunTrace(state.trace_idx, state.trace_val, self._decoded.fields)
                 if self.tracing else None)
        return RunOutcome(
            status=status, return_value=value, stdout="".join(state.stdout_parts),
            trap=trap, steps=state.steps, activation_count=len(state.activations),
            activations=state.activations, skipped_nonfinite=state.skipped_nonfinite,
            trace=trace)

    def _push(self, fi: int, args: list) -> None:
        fn, state = self._codes[fi].fn, self.state
        if len(state.frames) >= MAX_DEPTH:
            self.trap("stack_overflow", f"call depth exceeds {MAX_DEPTH} frames")
        if len(args) != fn.nparams:
            raise VmError(f"@{fn.name} called with {len(args)} args, "
                          f"takes {fn.nparams}")
        state.call_counts[fi] += 1
        regs = fn.template.copy()
        regs[1:1 + len(args)] = args
        state.frames.append(Frame(fi, regs, state.arena.mark(), state.call_counts[fi]))

    def _exec(self):
        """Run segments until `@main` returns."""
        state, codes, budget = self.state, self._codes, self.budget
        stack, tidx, tval = state.frames, state.trace_idx, state.trace_val
        if not stack:
            fi = self._decoded.fn_index.get("main")
            if fi is None:
                raise VmError("no function @main")
            self._push(fi, [])
        frame = stack[-1]
        code = codes[frame.fi]
        segs, regs, watch, si = code.segs, frame.regs, code.watch, frame.si
        try:
            while True:
                seg = segs[si]
                base = state.steps
                steps = state.steps = base + seg.n
                if steps > budget:
                    values = seg.prefix(budget - base)(regs, self)
                    if tidx is not None:
                        tidx.extend(seg.rec_idx[:len(values)])
                        tval.extend(values)
                    state.steps = budget + 1
                    frame.si = si  # where a snapshot resumes
                    raise _BudgetExhausted
                values = seg.run(regs, self)
                if tidx is not None:
                    tidx.extend(seg.rec_idx)
                    tval.extend(values)
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
                    code = codes[frame.fi]
                    segs, regs, watch, si = code.segs, frame.regs, code.watch, 0
                else:  # RET
                    value = regs[term[1]]
                    state.arena.release(frame.mark)
                    stack.pop()
                    if not stack:
                        return value
                    frame = stack[-1]
                    code = codes[frame.fi]
                    segs, regs, watch, si = code.segs, frame.regs, code.watch, frame.si
                    # finish the caller's call instruction with the returned value
                    _kind, _fi, _args, d, index = segs[si].term
                    regs[d] = value
                    if tidx is not None and index is not None:
                        tidx.append(index)
                        tval.append(value)
                    si += 1
        except (_TrapSignal, OutOfBounds) as e:
            # an op raised, or else the terminator did
            pos = seg.position(e.__traceback__)
            state.steps = base + pos + 1
            if pos < seg.n - 1:
                self._record(seg, regs, pos)
            info = (e.info if isinstance(e, _TrapSignal)
                    else TrapInfo("out_of_bounds", str(e)))
            raise _TrapSignal(replace(info, function=code.fn.name,
                                      index=seg.instrs[pos].index)) from None

    def _record(self, seg, regs: list, done: int) -> None:
        """Trace the first `done` ops of a segment an op trapped in."""
        state = self.state
        if state.trace_idx is not None:
            n = sum(ins.index is not None for ins in seg.instrs[:done])
            state.trace_idx.extend(seg.rec_idx[:n])
            state.trace_val.extend(regs[s] for s in seg.rec_slot[:n])

    @staticmethod
    def _count_trip(frame: Frame, watch: tuple, src: str, dst: str) -> None:
        for header, body in watch:
            if dst == header:
                trips = frame.loop_trips
                trips[header] = trips.get(header, 0) + 1 if src in body else 1

    # -- hooks ----------------------------------------------------------------

    def inject(self, target: PlanTarget, ins: Instruction, value, step: int):
        """The value a target instruction leaves, at run step `step`."""
        state = self.state
        state.exec_counts[ins.index] += 1
        if not self._scope_hit(state.frames[-1], target):
            return value
        if isinstance(value, float) and not math.isfinite(value):
            state.skipped_nonfinite += 1
            return value
        return self._fault(target, ins, value, step)

    def _fault(self, target: PlanTarget, ins: Instruction, value, step: int):
        """Draw an error for `value` and apply it: one activation."""
        err = sample_error(self.sampler, float(value))
        faulted = apply_fault(value, err, target.value_kind,
                              draw_bound(self.sampler.spec, float(value)))
        self.state.activations.append(Activation(
            index=ins.index, opcode=ins.opcode, step=step,
            original_hex=value_bits(value, ins.result_type),
            faulted_hex=value_bits(faulted, ins.result_type),
            error=err))
        return faulted

    def _scope_hit(self, frame: Frame, target: PlanTarget) -> bool:
        scope = self.plan.scope
        if scope.mode == "nth_execution":
            return self.state.exec_counts[target.index] in scope.k
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
    segment that holds the sampler's first draw. None when the run ends
    first: it returns, traps or exhausts `budget`."""
    try:
        _Probe(module, io, budget, plan).run()
        return None
    except _FirstDraw as hit:
        base = hit.base
    probe = _Probe(module, io, base, plan, trace=True)
    probe.run()  # the budget stops it at the start of that segment
    return Snapshot(module, plan, io, replace(probe.state, steps=base))
