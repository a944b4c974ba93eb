"""Compiled segments: every opcode has a source, a budget may end a run at
any step, a trap at any op position is placed exactly, and a traceback
through generated code shows the op's line."""

import traceback

import pytest

import lcfi.vm.decode as decode
from lcfi.faults import make_sampler
from lcfi.instrument import assign_indices, build_plan, load_input_config
from lcfi.ir.nodes import OPCODES
from lcfi.ir.parser import parse_module
from lcfi.vm.machine import MAX_DEPTH, IoConfig, Machine, prefix_snapshot

from conftest import FIXTURES, fixture_path, load_fixture_module


def _module(text):
    return assign_indices(parse_module(text))


def _by_result(module, result):
    return next(ins for _f, _b, ins in module.all_instructions() if ins.result == result)


def test_every_opcode_but_the_terminators_has_a_source():
    assert set(decode._SOURCES) == set(OPCODES) - {"br", "ret"}


def _check_cuts(machine, budgets, full):
    """Each budget k in `budgets` stops the run `machine(k)` after exactly k
    steps, with the records of the `full` run that those steps made."""
    records = list(full.trace)
    lengths = []
    for k in budgets:
        out = machine(k).run()
        assert (out.status, out.steps) == ("budget_exhausted", k + 1), k
        assert list(out.trace) == records[:len(out.trace)], k
        lengths.append(len(out.trace))
    # one more step makes at most one more record
    assert all(0 <= b - a <= 1 for a, b in zip(lengths, lengths[1:]))
    return lengths


def test_budget_cut_at_every_step_of_demo(demo_io):
    m = assign_indices(load_fixture_module("demo.ll"))
    golden = Machine(m, demo_io, trace=True).run()
    assert (golden.status, golden.steps) == ("ok", 213)
    lengths = _check_cuts(lambda k: Machine(m, demo_io, budget=k, trace=True),
                          range(213), golden)
    assert lengths[0] == 0
    assert list(Machine(m, demo_io, budget=213, trace=True).run().trace) == list(golden.trace)


def test_budget_cut_at_every_step_of_the_snapshot_segment():
    # cg's first draw is in the segment where the snapshot starts, so these
    # cuts run prefixes of a segment recompiled to inject
    m = assign_indices(load_fixture_module("cg.ll"))
    cfg = load_input_config(fixture_path("cg_input.yaml"))
    plan, spec = build_plan(m, cfg), cfg.fault_spec(base_dir=FIXTURES)
    io = IoConfig(workdir=FIXTURES)
    start = prefix_snapshot(m, io, 10 ** 8, plan)
    fi, si = start.state.frames[-1].fi, start.state.frames[-1].si
    seg = decode.decoded(m).codes(plan)[fi].segs[si]
    assert any("m.inject" in line for op in seg.code for line in op)
    for s in (start, None):
        def machine(budget=10 ** 8):
            return Machine(m, io=io, budget=budget, trace=True, plan=plan,
                           sampler=make_sampler(spec, 5), start=s)
        full = machine().run()
        assert full.activation_count > 0
        lengths = _check_cuts(machine, range(start.state.steps, start.state.steps + seg.n),
                              full)
        assert lengths[-1] - lengths[0] == seg.n - 1  # every op is indexed


STRAIGHT = """
@f = constant [4 x i8] c"%d\\0A\\00"
define i32 @main() {
  %a = add i32 1, 2
  %b = mul i32 %a, 3
  %s = alloca i32
  store i32 %b, i32* %s
  %v = load i32* %s
  %p = call i32 (i8*, ...)* @printf(i8* getelementptr ([4 x i8]* @f, i32 0, i32 0), i32 %v)
  ret i32 %v
}
"""


def test_a_cut_straight_segment_records_one_value_per_step():
    m = _module(STRAIGHT)
    for k in range(7):
        out = Machine(m, budget=k, trace=True).run()
        assert (out.status, out.steps) == ("budget_exhausted", k + 1)
        assert [r.index for r in out.trace] == list(range(1, k + 1))
        assert out.stdout == ("9\n" if k == 6 else "")


@pytest.mark.parametrize("p", range(6))
def test_out_of_bounds_load_at_every_position(p):
    m = _module("\n".join(["define i32 @main() {"]
                          + [f"  %a{i} = add i32 {i}, 1" for i in range(p)]
                          + ["  %v = load i32* null"]
                          + [f"  %b{i} = add i32 {i}, 2" for i in range(5 - p)]
                          + ["  ret i32 0", "}"]))
    out = Machine(m, trace=True).run()
    load = next(ins for _f, _b, ins in m.all_instructions() if ins.opcode == "load")
    assert out.status == "trapped"
    assert out.trap.message == "access of 4 byte(s) at 0x0"
    assert (out.trap.kind, out.trap.function, out.trap.index) == (
        "out_of_bounds", "main", load.index)
    assert out.steps == load.index  # one step per instruction before and at it
    assert [r.index for r in out.trace] == list(range(1, load.index))


LAST_OPS = """
@f = constant [3 x i8] c"%d\\00"
define i32 @g(i32 %d) {
entry:
  %x = add i32 %d, 1
  %q = sdiv i32 7, %d
  br label %next
next:
  ret i32 %q
}
define i32 @main() {
  %a = add i32 Z, 1
  %r = call i32 @g(i32 Z)
  %b = add i32 %r, 1
  %p = call i32 (i8*, ...)* @printf(i8* getelementptr ([3 x i8]* @f, i32 0, i32 0))
  ret i32 %p
}
"""


@pytest.mark.parametrize("z,kind,function,result,steps,records", [
    # main's add and call, then g's add and sdiv; the call is recorded at its return
    (0, "division_by_zero", "g", "q", 4, ["a", "x"]),
    # ... and then g runs to its return, and main's add and printf
    (1, "bad_intrinsic_arg", "main", "p", 8, ["a", "x", "q", "r", "b"]),
])
def test_trap_at_the_last_op_of_a_segment(z, kind, function, result, steps, records):
    m = _module(LAST_OPS.replace("Z", str(z)))
    out = Machine(m, trace=True).run()
    assert out.status == "trapped"
    assert (out.trap.kind, out.trap.function, out.trap.index) == (
        kind, function, _by_result(m, result).index)
    assert out.steps == steps
    assert [r.index for r in out.trace] == [_by_result(m, r).index for r in records]


def test_traceback_through_an_op_shows_its_line(monkeypatch):
    def refuse(self, text):
        raise RuntimeError("stdout refused")
    monkeypatch.setattr(Machine, "write_stdout", refuse)
    with pytest.raises(RuntimeError) as info:
        Machine(_module(STRAIGHT)).run()
    lines = "".join(traceback.format_exception(info.value)).splitlines()
    at = next(i for i, line in enumerate(lines) if 'File "<lcfi @main#0 ' in line)
    assert lines[at + 1].lstrip().startswith("r[")
    assert "= INTRINSICS['printf'](m, [" in lines[at + 1]


def test_a_trapping_call_terminator_records_its_segment_once():
    m = _module("""
define i32 @spin(i32 %n) {
  %m = add i32 %n, 1
  %r = call i32 @spin(i32 %m)
  ret i32 %r
}
define i32 @main() {
  %r = call i32 @spin(i32 1)
  ret i32 %r
}
""")
    out = Machine(m, trace=True).run()
    assert (out.trap.kind, out.trap.function, out.trap.index) == ("stack_overflow", "spin", 2)
    # main's call, then one add and one call per spin frame until the last call
    assert out.steps == 2 * MAX_DEPTH - 1
    assert [r.index for r in out.trace] == [1] * (MAX_DEPTH - 1)


@pytest.mark.parametrize("op", ["load", "store"])
@pytest.mark.parametrize("offset,traps", [(0, False), (1, True)])
def test_the_bounds_check_ends_at_the_top(op, offset, traps):
    access = ("%v = load i32* %p" if op == "load" else "store i32 5, i32* %p")
    m = _module(f"""
define i32 @main() {{
  %s = alloca i32
  %b = bitcast i32* %s to i8*
  %c = getelementptr i8* %b, i64 {offset}
  %p = bitcast i8* %c to i32*
  {access}
  ret i32 0
}}
""")
    out = Machine(m).run()
    assert out.status == ("trapped" if traps else "ok")
