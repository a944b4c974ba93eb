"""Compiled segments: every opcode has a source, a budget may end a run at
any step, a trap at any op position is placed exactly, and a traceback
through generated code shows the op's line."""

import traceback
from dataclasses import replace

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
    assert "INTRINSICS['printf'][0](m, [" in lines[at + 1]


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


def _op_source(m, ins) -> list:
    """The source lines of the op of the instruction `ins`, or of the one
    whose result is the register named `ins`."""
    for fn in decode.decoded(m).fns:
        for seg in fn.segs:
            for op, lines in zip(seg.instrs, seg.code):
                if op is ins or op.result == ins:
                    return list(lines)
    raise KeyError(ins)


def test_only_unsigned_order_masks_its_operands():
    """Equal values have equal bits and an i1 is 0 or 1, so eq, ne and zext
    from i1 need no mask; the u* predicates mask a register and fold a
    constant's mask."""
    m = _module("""
define i32 @main() {
  %a = add i32 0, -7
  %e = icmp eq i32 %a, -7
  %n = icmp ne i1 %e, 0
  %u = icmp ult i32 %a, -3
  %z = zext i1 %n to i32
  ret i32 %z
}
""")
    assert _op_source(m, "e") == ["r[2] = 1 if r[1] == -7 else 0"]
    assert _op_source(m, "n") == ["r[3] = 1 if r[2] != 0 else 0"]
    assert _op_source(m, "u") == ["r[4] = 1 if (r[1] & 4294967295) < 4294967293 else 0"]
    assert _op_source(m, "z") == ["r[5] = r[3]"]
    out = Machine(m).run()
    assert (out.status, out.return_value) == ("ok", 1)


@pytest.mark.parametrize("ty, a, b", [
    ("i8", -1, -1), ("i8", -1, 1), ("i8", -128, 127), ("i8", -3, -7), ("i8", 5, -128),
    ("i32", -1, -1), ("i32", -1, 1), ("i32", -2**31, 2**31 - 1), ("i32", -3, -7),
])
@pytest.mark.parametrize("pred", ["eq", "ne", "ult", "uge"])
def test_a_compare_of_negative_registers(pred, ty, a, b):
    """Two registers, and a register and a constant, compare as the
    predicate reads their bits."""
    bits = int(ty[1:])
    want = {"eq": a == b, "ne": a != b, "ult": a % (1 << bits) < b % (1 << bits),
            "uge": a % (1 << bits) >= b % (1 << bits)}[pred]
    m = _module(f"""
define i32 @main() {{
  %a = add {ty} 0, {a}
  %b = add {ty} 0, {b}
  %r = icmp {pred} {ty} %a, %b
  %c = icmp {pred} {ty} %a, {b}
  %zr = zext i1 %r to i32
  %zc = zext i1 %c to i32
  %twice = mul i32 %zc, 2
  %both = add i32 %zr, %twice
  ret i32 %both
}}
""")
    out = Machine(m).run()
    assert (out.status, out.return_value) == ("ok", 3 * want)


def test_an_alloca_load_and_store_read_the_stack_buffer_directly():
    """An access through a function's own alloca register, within its width,
    is a bare unpack_from or pack_into on the stack arena's buffer; so is
    one at a constant address within a global."""
    m = _module("""
@g = global [4 x i32] zeroinitializer
define i32 @main() {
entry:
  %s = alloca double
  store double 2.5, double* %s
  %v = load double* %s
  %w = load i32* getelementptr ([4 x i32]* @g, i64 0, i64 3)
  %x = fptosi double %v to i32
  %y = add i32 %x, %w
  ret i32 %y
}
""")
    for lines in (_op_source(m, "v"), _op_source(m, "w")):
        assert len(lines) == 1 and "unpack_from_" in lines[0] and "(M, " in lines[0]
        assert not any(word in lines[0] for word in ("OutOfBounds", ".top", "heap"))
    [store] = [ins for _f, _b, ins in m.all_instructions() if ins.opcode == "store"]
    assert _op_source(m, store) == ["pack_into_f64(M, r[1] - 4096, 2.5)"]
    out = Machine(m).run()
    assert (out.status, out.return_value) == ("ok", 2)


@pytest.mark.parametrize("body,result", [
    # an access wider than its alloca
    ("  %s = alloca i32\n  %v = load i64* %s\n", "v"),
    # a getelementptr off an alloca
    ("  %s = alloca [2 x i32]\n  %q = getelementptr [2 x i32]* %s, i64 0, i64 2\n"
     "  %v = load i32* %q\n", "v"),
    # past the end of a global, at a constant address (@g is the last one)
    ("  %v = load i32* getelementptr ([2 x i32]* @g, i64 0, i64 2)\n", "v"),
    # wider than what is left of a global
    ("  %v = load i64* getelementptr ([2 x i32]* @g, i64 0, i64 1)\n", "v"),
], ids=["wider_than_alloca", "gep_off_alloca", "past_a_global", "wider_than_global"])
def test_accesses_decode_cannot_prove_stay_checked(body, result):
    m = _module(f"@h = global i32 0\n@g = global [2 x i32] zeroinitializer\n"
                f"define i32 @main() {{\nentry:\n{body}  ret i32 0\n}}\n")
    assert any("raise OutOfBounds" in line for line in _op_source(m, result))
    out = Machine(m, trace=True).run()
    assert (out.status, out.trap.kind, out.trap.index) == (
        "trapped", "out_of_bounds", _by_result(m, result).index)


def test_a_pointer_to_a_returned_callees_alloca_stays_checked():
    m = _module("""
define i32* @leak() {
entry:
  %s = alloca i32
  store i32 5, i32* %s
  %v = load i32* %s
  ret i32* %s
}
define i32 @main() {
entry:
  %p = call i32* @leak()
  %v2 = load i32* %p
  ret i32 %v2
}
""")
    assert "(M, " in _op_source(m, "v")[0]
    assert any("raise OutOfBounds" in line for line in _op_source(m, "v2"))
    out = Machine(m, trace=True).run()
    assert (out.status, out.trap.kind, out.trap.function, out.trap.index) == (
        "trapped", "out_of_bounds", "main", _by_result(m, "v2").index)
    loaded = _by_result(m, "v").index
    assert [r.value_hex for r in out.trace if r.index == loaded] == ["00000005"]


def test_a_plan_that_targets_an_alloca_is_refused(demo_io):
    """The direct stack accesses rely on an alloca's register holding its
    allocation, so a plan built by hand to fault one is refused."""
    m = assign_indices(load_fixture_module("demo.ll"))
    cfg = load_input_config(fixture_path("demo_input.yaml"))
    plan = build_plan(m, cfg)
    alloca = next(ins for _f, _b, ins in m.all_instructions()
                  if ins.opcode == "alloca" and ins.index is not None)
    bad = replace(plan, targets=(replace(plan.targets[0], index=alloca.index),))
    with pytest.raises(ValueError, match=f"plan target {alloca.index} is an alloca"):
        Machine(m, demo_io, plan=bad,
                sampler=make_sampler(cfg.fault_spec(base_dir=FIXTURES), 1))
