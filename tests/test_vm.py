import math
import pickle
import struct

import pytest

from lcfi.faults import FaultSpec, Sampler, make_sampler
from lcfi.instrument import (InjectionPlan, OccurrenceScope, PlanTarget,
                             assign_indices, build_plan, load_input_config)
from lcfi.ir.nodes import F32, F64, I1, I32, I64, ptr_to
from lcfi.ir.parser import parse_module
from lcfi.traces import parse_record
from lcfi.vm.arena import MemoryArena, OutOfBounds
from lcfi.vm.machine import DEFAULT_BUDGET, IoConfig, Machine, VmError, value_bits

import lcfi.vm.decode as decode

from conftest import FIXTURES, fixture_path, load_fixture_module


def run_src(text, **kw):
    return Machine(assign_indices(parse_module(text)), **kw).run()


def ret_of(text, **kw):
    out = run_src(text, **kw)
    assert out.status == "ok", out.trap
    return out.return_value


class TestIntArith:
    def test_add_wraps_i32(self):
        assert ret_of("""
define i32 @main() {
  %a = add i32 2147483647, 1
  ret i32 %a
}
""") == -(2**31)

    def test_mul_wraps(self):
        assert ret_of("""
define i32 @main() {
  %a = mul i32 65536, 65536
  ret i32 %a
}
""") == 0

    @pytest.mark.parametrize("op,a,b,expected", [
        ("sdiv", -7, 2, -3),   # C semantics: truncate toward zero
        ("sdiv", 7, -2, -3),
        ("sdiv", -7, -2, 3),
        ("srem", -7, 2, -1),
        ("srem", 7, -2, 1),
        ("srem", -7, -2, -1),
    ])
    def test_division_truncates_toward_zero(self, op, a, b, expected):
        assert ret_of(f"""
define i32 @main() {{
  %a = {op} i32 {a}, {b}
  ret i32 %a
}}
""") == expected

    @pytest.mark.parametrize("op", ["sdiv", "srem"])
    def test_integer_division_by_zero_traps(self, op):
        out = run_src(f"""
define i32 @main() {{
  %a = {op} i32 1, 0
  ret i32 %a
}}
""")
        assert out.status == "trapped"
        assert out.trap.kind == "division_by_zero"

    def test_i64_width(self):
        assert ret_of("""
define i64 @main() {
  %a = add i64 9223372036854775807, 1
  ret i64 %a
}
""") == -(2**63)


class TestFloatArith:
    def test_fdiv_by_zero_is_ieee(self):
        assert ret_of("""
define double @main() {
  %a = fdiv double 1.0, 0.0
  ret double %a
}
""") == math.inf

    def test_zero_over_zero_is_nan(self):
        v = ret_of("""
define double @main() {
  %a = fdiv double 0.0, 0.0
  ret double %a
}
""")
        assert math.isnan(v)

    def test_fneg(self):
        assert ret_of("""
define double @main() {
  %a = fneg double 2.5
  ret double %a
}
""") == -2.5

    def test_f32_ops_round_to_single(self):
        v = ret_of("""
define float @main() {
  %a = fadd float 0x3FF3333340000000, 0.0
  ret float %a
}
""")
        assert v == struct.unpack("f", struct.pack("f", 1.2))[0]


ICMP_CASES = [
    ("eq", 5, 5, 1), ("ne", 5, 5, 0), ("ne", 5, 6, 1),
    ("slt", -1, 1, 1), ("sle", 2, 2, 1), ("sgt", 2, 1, 1), ("sge", 1, 2, 0),
    ("ult", -1, 1, 0),  # -1 is 0xffffffff unsigned
    ("ugt", -1, 1, 1), ("ule", 0, 0, 1), ("uge", 1, -1, 0),
]


class TestComparisons:
    @pytest.mark.parametrize("pred,a,b,expected", ICMP_CASES)
    def test_icmp(self, pred, a, b, expected):
        assert ret_of(f"""
define i32 @main() {{
  %c = icmp {pred} i32 {a}, {b}
  %z = zext i1 %c to i32
  ret i32 %z
}}
""") == expected

    @pytest.mark.parametrize("pred,expected", [
        ("oeq", 0), ("one", 0), ("olt", 0),   # ordered: false on NaN
        ("ueq", 1), ("une", 1), ("ult", 1),   # unordered: true on NaN
        ("ord", 0), ("uno", 1),
    ])
    def test_fcmp_nan(self, pred, expected):
        assert ret_of(f"""
define i32 @main() {{
  %nan = fdiv double 0.0, 0.0
  %c = fcmp {pred} double %nan, 1.0
  %z = zext i1 %c to i32
  ret i32 %z
}}
""") == expected

    def test_fcmp_ordered_values(self):
        assert ret_of("""
define i32 @main() {
  %c = fcmp olt double 1.5, 2.5
  %z = zext i1 %c to i32
  ret i32 %z
}
""") == 1


class TestCasts:
    def test_zext_masks_source_width(self):
        assert ret_of("""
define i32 @main() {
  %c = icmp eq i32 1, 1
  %w = zext i1 %c to i32
  ret i32 %w
}
""") == 1

    def test_sext_preserves_sign(self):
        assert ret_of("""
define i64 @main() {
  %v = add i32 -5, 0
  %w = sext i32 %v to i64
  ret i64 %w
}
""") == -5

    def test_trunc_wraps(self):
        assert ret_of("""
define i32 @main() {
  %v = add i64 4294967298, 0
  %w = trunc i64 %v to i32
  ret i32 %w
}
""") == 2

    @pytest.mark.parametrize("value,expected", [("3.7", 3), ("-3.7", -3)])
    def test_fptosi_truncates(self, value, expected):
        assert ret_of(f"""
define i32 @main() {{
  %w = fptosi double {value} to i32
  ret i32 %w
}}
""") == expected

    def test_fptosi_nan_is_zero(self):
        assert ret_of("""
define i32 @main() {
  %nan = fdiv double 0.0, 0.0
  %w = fptosi double %nan to i32
  ret i32 %w
}
""") == 0

    def test_sitofp(self):
        assert ret_of("""
define double @main() {
  %w = sitofp i32 -5 to double
  ret double %w
}
""") == -5.0

    def test_fpext_fptrunc(self):
        v = ret_of("""
define float @main() {
  %w = fptrunc double 1.6 to float
  ret float %w
}
""")
        assert v == struct.unpack("f", struct.pack("f", 1.6))[0]
        assert ret_of("""
define double @main() {
  %n = fptrunc double 1.5 to float
  %w = fpext float %n to double
  ret double %w
}
""") == 1.5

    def test_bitcast_int_float(self):
        assert ret_of("""
define double @main() {
  %w = bitcast i64 4616189618054758400 to double
  ret double %w
}
""") == 4.0
        assert ret_of("""
define i64 @main() {
  %w = bitcast double 4.0 to i64
  ret i64 %w
}
""") == 4616189618054758400


class TestControlFlow:
    def test_loop_with_phi(self):
        # sum 1..5 through a phi-carried accumulator
        assert ret_of("""
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 1, %entry ], [ %next, %loop ]
  %acc = phi i32 [ 0, %entry ], [ %sum, %loop ]
  %sum = add i32 %acc, %i
  %next = add i32 %i, 1
  %c = icmp sle i32 %next, 5
  br i1 %c, label %loop, label %done

done:
  ret i32 %sum
}
""") == 15

    def test_phis_read_incoming_values_at_once(self):
        # a and b swap on every trip; evaluated one by one they would not
        src = """
define i32 @main() {
entry:
  br label %loop

loop:
  %a = phi i32 [ 1, %entry ], [ %b, %loop ]
  %b = phi i32 [ 2, %entry ], [ %a, %loop ]
  %n = phi i32 [ 0, %entry ], [ %n1, %loop ]
  %n1 = add i32 %n, 1
  %c = icmp slt i32 %n1, 2
  br i1 %c, label %loop, label %done

done:
  %t = mul i32 %a, 10
  %r = add i32 %t, %b
  ret i32 %r
}
"""
        out = run_src(src, trace=True)
        assert out.return_value == 21
        # each phi is still one step and one trace record
        assert out.steps == 1 + 2 * 6 + 3
        assert [r.opcode for r in out.trace].count("phi") == 6

    @pytest.mark.parametrize("taken", [True, False])
    def test_register_read_on_a_path_that_skipped_its_definition(self, taken):
        # the module is rejected before it runs, whichever path a run takes
        m = assign_indices(parse_module(f"""
define i32 @main() {{
entry:
  br i1 {str(taken).lower()}, label %a, label %b

a:
  %x = add i32 1, 2
  br label %b

b:
  %y = add i32 %x, 1
  ret i32 %y
}}
"""))
        with pytest.raises(VmError, match="not defined on every path to its use"):
            Machine(m).run()

    @pytest.mark.parametrize("body,message", [
        ("entry:\n  %a = phi i32 [ 1, %entry ]\n  ret i32 %a\n",
         "phi in entry block"),
        ("entry:\n  br label %next\n\nother:\n  br label %next\n\n"
         "next:\n  %a = phi i32 [ 1, %other ]\n  ret i32 %a\n",
         "phi has no incoming edge from %entry"),
    ])
    def test_malformed_phi_is_a_vm_error(self, body, message):
        m = assign_indices(parse_module("define i32 @main() {\n" + body + "}\n"))
        with pytest.raises(VmError, match=message):
            Machine(m).run()

    def test_main_that_takes_parameters_is_a_vm_error(self):
        # a run starts at @main with no arguments
        m = assign_indices(parse_module("define i32 @main(i32 %z) {\n  ret i32 %z\n}\n"))
        with pytest.raises(VmError, match="@main called with 0 args, takes 1"):
            Machine(m).run()

    def test_stores_to_a_global_do_not_leak_into_the_next_run(self):
        m = assign_indices(parse_module("""
@g = global i32 7

define i32 @main() {
  %v = load i32, i32* @g
  %w = add i32 %v, 1
  store i32 %w, i32* @g
  %u = load i32, i32* @g
  %r = mul i32 %v, 10
  %s = add i32 %r, %u
  ret i32 %s
}
"""))
        # each run sees the initializer, then its own store
        assert [Machine(m).run().return_value for _ in range(3)] == [78, 78, 78]

    def test_select(self):
        assert ret_of("""
define i32 @main() {
  %c = icmp sgt i32 3, 2
  %v = select i1 %c, i32 10, i32 20
  ret i32 %v
}
""") == 10

    def test_branch_to_missing_block_traps(self):
        with pytest.raises(VmError, match="branch to unknown label %nowhere"):
            run_src("""
define i32 @main() {
  br label %nowhere
}
""")

    def test_stack_overflow(self):
        out = run_src("""
define i32 @spin(i32 %n) {
  %r = call i32 @spin(i32 %n)
  ret i32 %r
}
define i32 @main() {
  %r = call i32 @spin(i32 1)
  ret i32 %r
}
""")
        assert out.status == "trapped"
        assert out.trap.kind == "stack_overflow"

    def test_budget_exhaustion_and_monotonic_prefix(self):
        looper = load_fixture_module("looper.ll")
        m = assign_indices(looper)
        small = Machine(m, budget=2000).run()
        large = Machine(m, budget=4000).run()
        assert small.status == "budget_exhausted"
        assert small.trap is None
        assert large.stdout.startswith(small.stdout)
        assert small.steps > 2000  # counted the step that crossed the line

    def test_budget_cuts_trace_mid_segment(self):
        m = assign_indices(load_fixture_module("looper.ll"))
        for budget in (1003, 1004):
            out = Machine(m, budget=budget, trace=True).run()
            assert out.steps == budget + 1
            # call, alloca, store, br, then 199 trips of load add store icmp br
            # and the load, add, store and icmp of the 200th: br, ret and the
            # unfinished call record nothing
            assert len(out.trace) == 2 + 199 * 4 + 4
            assert out.trace[-1].opcode == "icmp"

    def test_trap_cuts_trace_before_the_trapping_op(self):
        m = assign_indices(load_fixture_module("crasher.ll"))
        out = Machine(m, trace=True).run()
        assert out.trap.kind == "out_of_bounds"
        trapped = next(ins for _f, _b, ins in m.all_instructions()
                       if ins.index == out.trap.index)
        assert trapped.opcode == "load"
        assert out.trace[-1].opcode == "getelementptr"
        assert out.trace[-1].index == trapped.index - 1


class TestMemory:
    def test_alloca_store_load(self):
        assert ret_of("""
define i32 @main() {
  %s = alloca i32
  store i32 77, i32* %s
  %v = load i32* %s
  ret i32 %v
}
""") == 77

    def test_global_array_and_gep(self):
        assert ret_of("""
@tab = global [3 x i32] [i32 10, i32 20, i32 30]
define i32 @main() {
  %p = getelementptr inbounds [3 x i32]* @tab, i32 0, i32 2
  %v = load i32* %p
  ret i32 %v
}
""") == 30

    def test_zeroinitializer(self):
        assert ret_of("""
@z = global [4 x i64] zeroinitializer
define i64 @main() {
  %p = getelementptr [4 x i64]* @z, i32 0, i32 3
  %v = load i64* %p
  ret i64 %v
}
""") == 0

    def test_scalar_global(self):
        assert ret_of("""
@g = global double 2.5
define double @main() {
  %v = load double* @g
  ret double %v
}
""") == 2.5

    def test_gep_scales_by_element_size(self):
        # stepping a double* by 1 lands 8 bytes on
        assert ret_of("""
define i32 @main() {
  %arr = alloca [2 x double]
  %p0 = getelementptr [2 x double]* %arr, i32 0, i32 0
  store double 1.0, double* %p0
  %p1 = getelementptr [2 x double]* %arr, i32 0, i32 1
  store double 2.0, double* %p1
  %q = getelementptr double* %p0, i64 1
  %v = load double* %q
  %c = fcmp oeq double %v, 2.0
  %z = zext i1 %c to i32
  ret i32 %z
}
""") == 1

    def test_out_of_bounds_traps(self):
        out = run_src("""
define i32 @main() {
  %s = alloca i32
  %p = getelementptr i32* %s, i64 100000
  %v = load i32* %p
  ret i32 %v
}
""")
        assert out.status == "trapped"
        assert out.trap.kind == "out_of_bounds"

    def test_malloc_store_load(self):
        assert ret_of("""
define i32 @main() {
  %raw = call i8* @malloc(i64 8)
  %p = bitcast i8* %raw to i32*
  store i32 123, i32* %p
  %v = load i32* %p
  call void @free(i8* %raw)
  ret i32 %v
}
""") == 123

    def test_memset_and_memcpy(self):
        assert ret_of("""
define i32 @main() {
  %a = alloca [4 x i8]
  %b = alloca [4 x i8]
  %pa = getelementptr [4 x i8]* %a, i32 0, i32 0
  %pb = getelementptr [4 x i8]* %b, i32 0, i32 0
  call i8* @memset(i8* %pa, i32 65, i64 4)
  call i8* @memcpy(i8* %pb, i8* %pa, i64 4)
  %last = getelementptr [4 x i8]* %b, i32 0, i32 3
  %v = load i8* %last
  %w = sext i8 %v to i32
  ret i32 %w
}
""") == 65

    def test_stack_released_on_return(self):
        # each call allocates; the frame release keeps the arena flat
        out = run_src("""
define i32 @leaf() {
  %s = alloca [1024 x i64]
  ret i32 0
}
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %n, %loop ]
  %r = call i32 @leaf()
  %n = add i32 %i, 1
  %c = icmp slt i32 %n, 100000
  br i1 %c, label %loop, label %done

done:
  ret i32 0
}
""")
        assert out.status == "ok"

    def test_read_cstring_stops_at_the_arena_top(self):
        arena = MemoryArena()
        addr = arena.alloc(8)
        arena.store_bytes(addr, b"abcdefg\x00")
        arena.release(addr + 4)  # the terminator is past the top now
        with pytest.raises(OutOfBounds, match=f"^access of 1 byte\\(s\\) at 0x{addr + 4:x}$"):
            arena.read_cstring(addr)
        with pytest.raises(OutOfBounds, match=f"^access of 1 byte\\(s\\) at 0x{addr + 6:x}$"):
            arena.read_cstring(addr + 6)
        with pytest.raises(OutOfBounds, match=f"^access of 1 byte\\(s\\) at 0x{addr - 1:x}$"):
            arena.read_cstring(addr - 1)
        assert arena.alloc(4) == addr + 8 and arena.read_cstring(addr + 8) == ""

    def test_read_cstring_stops_at_its_limit(self):
        arena = MemoryArena()
        addr = arena.alloc(4)
        arena.store_bytes(addr, b"abc\x00")
        assert arena.read_cstring(addr, limit=4) == "abc"
        with pytest.raises(OutOfBounds, match="^unterminated string$") as info:
            arena.read_cstring(addr, limit=3)
        assert (info.value.addr, info.value.size) == (addr, 3)

    def test_heap_string_argument(self):
        out = run_src("""
@f = constant [4 x i8] c"%s\\0A\\00"
define i32 @main() {
  %s = call i8* @malloc(i64 3)
  store i8 104, i8* %s
  %s1 = getelementptr i8* %s, i64 1
  store i8 105, i8* %s1
  %s2 = getelementptr i8* %s, i64 2
  store i8 0, i8* %s2
  %r = call i32 (i8*, ...)* @printf(i8* getelementptr ([4 x i8]* @f, i32 0, i32 0), i8* %s)
  ret i32 %r
}
""")
        assert out.stdout == "hi\n"

    def test_alloc_scrubs_released_stack_and_grows(self):
        arena = MemoryArena(capacity=64)
        addr = arena.alloc(8)
        arena.store_bytes(addr, b"\xff" * 8)
        arena.release(addr + 2)
        assert arena.alloc(0, 1) == addr + 2  # one byte
        assert arena.alloc(16, 4) == addr + 4
        assert arena.load_bytes(addr, 20) == b"\xff\xff" + bytes(18)
        with pytest.raises(OutOfBounds, match="^allocation of 48 bytes exceeds"):
            arena.alloc(48)


class TestPrintf:
    def _printf(self, fmt_c, args_sig, n):
        return f"""
@f = constant [{n} x i8] c"{fmt_c}"
define i32 @main() {{
  %r = call i32 (i8*, ...)* @printf(i8* getelementptr ([{n} x i8]* @f, i32 0, i32 0){args_sig})
  ret i32 %r
}}
"""

    def test_plain_text_and_return_value(self):
        out = run_src(self._printf("hello\\0A\\00", "", 7))
        assert out.stdout == "hello\n"
        assert out.return_value == 6

    def test_int_widths_and_flags(self):
        out = run_src(self._printf("%d|%5d|%-5d|%05d\\00",
                                   ", i32 42, i32 42, i32 42, i32 42", 17))
        assert out.stdout == "42|   42|42   |00042"

    def test_float_conversions(self):
        out = run_src(self._printf("%f %.2f %e %g\\00",
                                   ", double 3.5, double 3.14159, double 3.5, double 0.0001", 14))
        assert out.stdout == "3.500000 3.14 3.500000e+00 0.0001"

    def test_hex_char_percent(self):
        out = run_src(self._printf("%x %X %c %%\\00", ", i32 255, i32 255, i32 65", 12))
        assert out.stdout == "ff FF A %"

    def test_string_argument(self):
        out = run_src("""
@f = constant [4 x i8] c"%s\\0A\\00"
@msg = constant [6 x i8] c"world\\00"
define i32 @main() {
  %r = call i32 (i8*, ...)* @printf(i8* getelementptr ([4 x i8]* @f, i32 0, i32 0), i8* getelementptr ([6 x i8]* @msg, i32 0, i32 0))
  ret i32 %r
}
""")
        assert out.stdout == "world\n"
        assert out.return_value == 6

    def test_unsigned(self):
        out = run_src(self._printf("%u\\00", ", i32 -1", 3))
        assert out.stdout == str(0xFFFFFFFFFFFFFFFF)

    def test_missing_argument_traps(self):
        out = run_src(self._printf("%d\\00", "", 3))
        assert out.status == "trapped"
        assert out.trap.kind == "bad_intrinsic_arg"

    def test_demo_format_returns_fifteen(self):
        out = run_src(self._printf("n[%d]: %f\\0A\\00", ", i32 0, double 4.0", 11))
        assert out.stdout == "n[0]: 4.000000\n"
        assert out.return_value == 15


class TestScanf:
    SRC = """
@f = constant [7 x i8] c"%d %lf\\00"
define i32 @main() {
  %i = alloca i32
  %d = alloca double
  %r = call i32 (i8*, ...)* @scanf(i8* getelementptr ([7 x i8]* @f, i32 0, i32 0), i32* %i, double* %d)
  ret i32 %r
}
"""

    def test_assigns_and_counts(self):
        out = run_src(self.SRC, io=IoConfig(stdin_text="  42\n 2.5 "))
        assert out.return_value == 2

    def test_partial_match(self):
        out = run_src(self.SRC, io=IoConfig(stdin_text="42 xyz"))
        assert out.return_value == 1

    def test_eof_before_first_is_minus_one(self):
        out = run_src(self.SRC, io=IoConfig(stdin_text="   "))
        assert out.return_value == -1

    def test_values_stored(self):
        out = run_src("""
@f = constant [7 x i8] c"%d %lf\\00"
define double @main() {
  %i = alloca i32
  %d = alloca double
  %r = call i32 (i8*, ...)* @scanf(i8* getelementptr ([7 x i8]* @f, i32 0, i32 0), i32* %i, double* %d)
  %iv = load i32* %i
  %fv = load double* %d
  %ext = sitofp i32 %iv to double
  %sum = fadd double %ext, %fv
  ret double %sum
}
""", io=IoConfig(stdin_text="40 2.5"))
        assert out.return_value == 42.5

    def test_char_does_not_skip_whitespace(self):
        out = run_src("""
@f = constant [5 x i8] c"%d%c\\00"
define i32 @main() {
  %i = alloca i32
  %c = alloca i8
  %r = call i32 (i8*, ...)* @scanf(i8* getelementptr ([5 x i8]* @f, i32 0, i32 0), i32* %i, i8* %c)
  %cv = load i8* %c
  %w = sext i8 %cv to i32
  ret i32 %w
}
""", io=IoConfig(stdin_text="7 x"))
        assert out.return_value == 32  # the space right after the integer

    def test_string_token(self):
        out = run_src("""
@f = constant [3 x i8] c"%s\\00"
@p = constant [4 x i8] c"%s\\0A\\00"
define i32 @main() {
  %buf = alloca [16 x i8]
  %pb = getelementptr [16 x i8]* %buf, i32 0, i32 0
  %r = call i32 (i8*, ...)* @scanf(i8* getelementptr ([3 x i8]* @f, i32 0, i32 0), i8* %pb)
  %w = call i32 (i8*, ...)* @printf(i8* getelementptr ([4 x i8]* @p, i32 0, i32 0), i8* %pb)
  ret i32 %r
}
""", io=IoConfig(stdin_text="  hello world"))
        assert out.stdout == "hello\n"
        assert out.return_value == 1

    def test_heap_targets(self):
        out = run_src("""
@f = constant [7 x i8] c"%lf %s\\00"
@p = constant [7 x i8] c"%s %g\\0A\\00"
define i32 @main() {
  %raw = call i8* @malloc(i64 8)
  %d = bitcast i8* %raw to double*
  %buf = call i8* @malloc(i64 16)
  %r = call i32 (i8*, ...)* @scanf(i8* getelementptr ([7 x i8]* @f, i32 0, i32 0), double* %d, i8* %buf)
  %v = load double* %d
  %w = call i32 (i8*, ...)* @printf(i8* getelementptr ([7 x i8]* @p, i32 0, i32 0), i8* %buf, double %v)
  ret i32 %r
}
""", io=IoConfig(stdin_text="2.5 heap"))
        assert out.status == "ok", out.trap
        assert out.stdout == "heap 2.5\n"
        assert out.return_value == 2


class TestFilesAndMath:
    def test_freopen_redirects_stdin(self):
        out = run_src("""
@stdin = external global i8*
@mode = constant [2 x i8] c"r\\00"
@name = constant [7 x i8] c"in.txt\\00"
@f = constant [3 x i8] c"%d\\00"
define i32 @main() {
  %h = load i8** @stdin
  %r = call i8* @freopen(i8* getelementptr ([7 x i8]* @name, i32 0, i32 0), i8* getelementptr ([2 x i8]* @mode, i32 0, i32 0), i8* %h)
  %s = alloca i32
  %n = call i32 (i8*, ...)* @scanf(i8* getelementptr ([3 x i8]* @f, i32 0, i32 0), i32* %s)
  %v = load i32* %s
  ret i32 %v
}
""", io=IoConfig(files={"in.txt": "99\n"}))
        assert out.status == "ok"
        assert out.return_value == 99

    def test_fopen_gives_the_lowest_handle_not_open(self):
        gep = "i8* getelementptr ([2 x i8]* @{}, i32 0, i32 0)"
        fopen = f"call i8* @fopen({gep}, {gep.format('mode')})"
        m = Machine(assign_indices(parse_module(f"""
@mode = constant [2 x i8] c"r\\00"
@a = constant [2 x i8] c"a\\00"
@b = constant [2 x i8] c"b\\00"
@c = constant [2 x i8] c"c\\00"
@f = constant [10 x i8] c"%d %d %d\\0A\\00"
define i32 @main() {{
  %ha = {fopen.format('a')}
  %hb = {fopen.format('b')}
  %x = call i32 @fclose(i8* %ha)
  %hc = {fopen.format('c')}
  %r = call i32 (i8*, ...)* @printf(i8* getelementptr ([10 x i8]* @f, i32 0, i32 0), i8* %ha, i8* %hb, i8* %hc)
  ret i32 0
}}
""")), io=IoConfig(files={"a": "1", "b": "2", "c": "3"}))
        out = m.run()
        assert out.status == "ok", out.trap
        assert out.stdout == "32 40 32\n"
        assert {h: st.text for h, st in m.state.open_streams.items()} == {32: "3", 40: "2"}

    def test_fopen_handles_stop_below_the_arena(self):
        out = run_src("""
@mode = constant [2 x i8] c"r\\00"
@name = constant [2 x i8] c"a\\00"
@f = constant [4 x i8] c"%d\\0A\\00"
define i32 @main() {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %n, %loop ]
  %last = phi i8* [ null, %entry ], [ %keep, %loop ]
  %h = call i8* @fopen(i8* getelementptr ([2 x i8]* @name, i32 0, i32 0), i8* getelementptr ([2 x i8]* @mode, i32 0, i32 0))
  %p = call i32 (i8*, ...)* @printf(i8* getelementptr ([4 x i8]* @f, i32 0, i32 0), i8* %h)
  %null = icmp eq i8* %h, null
  %keep = select i1 %null, i8* %last, i8* %h
  %n = add i32 %i, 1
  %c = icmp slt i32 %n, 600
  br i1 %c, label %loop, label %done

done:
  %v = load i8* %keep
  ret i32 0
}
""", io=IoConfig(files={"a": "1"}))
        handles = [int(h) for h in out.stdout.split()]
        assert handles == list(range(32, 0x1000, 8)) + [0] * 92
        assert out.status == "trapped" and out.trap.kind == "out_of_bounds"

    @pytest.mark.parametrize("call,expected", [
        ("call double @sqrt(double 2.0)", math.sqrt(2.0)),
        ("call double @fabs(double -2.5)", 2.5),
        ("call double @pow(double 2.0, double 10.0)", 1024.0),
        ("call double @exp(double 0.0)", 1.0),
        ("call double @log(double 1.0)", 0.0),
    ])
    def test_math_intrinsics(self, call, expected):
        assert ret_of(f"""
define double @main() {{
  %v = {call}
  ret double %v
}}
""") == expected

    def test_math_edge_cases(self):
        assert ret_of("""
define double @main() {
  %v = call double @log(double 0.0)
  ret double %v
}
""") == -math.inf
        assert math.isnan(ret_of("""
define double @main() {
  %v = call double @log(double -1.0)
  ret double %v
}
"""))
        assert ret_of("""
define double @main() {
  %v = call double @exp(double 10000.0)
  ret double %v
}
""") == math.inf


class TestValueBits:
    def test_widths(self):
        assert value_bits(4.0, F64) == "4010000000000000"
        assert value_bits(4.0, F32) == "40800000"
        assert value_bits(-1, I32) == "ffffffff"
        assert value_bits(-1, I64) == "ffffffffffffffff"
        assert value_bits(1, I1) == "00000001"
        assert value_bits(0x1234, ptr_to(I32)) == "0000000000001234"


class TestGoldenDemo:
    def test_stdout(self, demo_indexed, demo_io):
        out = Machine(demo_indexed, demo_io).run()
        assert out.status == "ok"
        triple = "n[0]: 4.000000\nn[1]: 3.000000\nn[2]: 3.000000\n"
        sep = "+" * 24 + "\n"
        assert out.stdout == triple + sep + triple + sep + triple

    def test_trace_contains_fixture_golden_as_subsequence(self, demo_indexed, demo_io):
        out = Machine(demo_indexed, demo_io, trace=True).run()
        ours = [r.render() for r in out.trace]
        with open(fixture_path("trace_golden.txt"), encoding="utf-8") as fh:
            wanted = [line.rstrip("\n") for line in fh if line.strip()]
        it = iter(ours)
        assert all(any(w == line for line in it) for w in wanted), \
            "fixture records must appear in order in the machine trace"

    def test_first_invocation_values(self, demo_indexed, demo_io):
        out = Machine(demo_indexed, demo_io, trace=True).run()
        first = {}
        for r in out.trace:
            first.setdefault(r.index, r.value_hex)
        assert first[15] == "4010000000000000"  # element load: 4.0
        assert first[16] == "00000000"          # store
        assert first[17] == "00000000"          # i == 0
        assert first[18] == "4010000000000000"  # ans
        assert first[19] == "0000000f"          # printf wrote 15 chars

    def test_no_injection_state_on_plain_run(self, demo_indexed, demo_io):
        out = Machine(demo_indexed, demo_io).run()
        assert out.activation_count == 0
        assert out.activations == []
        assert out.skipped_nonfinite == 0

    def test_deterministic_reruns(self, demo_indexed, demo_io):
        a = Machine(demo_indexed, demo_io, trace=True).run()
        b = Machine(demo_indexed, demo_io, trace=True).run()
        assert a.stdout == b.stdout
        assert a.steps == b.steps
        assert [r.render() for r in a.trace] == [r.render() for r in b.trace]


NONFINITE_SRC = """
define double @f(double* %p) {
  %v = load double* %p
  ret double %v
}
define i32 @main() {
  %s = alloca double
  %inf = fdiv double 1.0, 0.0
  store double %inf, double* %s
  %r = call double @f(double* %s)
  ret i32 0
}
"""


class TestInjectionHook:
    def _plan_for_load(self, module):
        target = next(ins.index for _f, _b, ins in module.all_instructions()
                      if ins.opcode == "load" and ins.result_type == F64)
        return InjectionPlan((PlanTarget(target, "f", "f64"),),
                             OccurrenceScope("nth_execution", (1,)))

    def test_nonfinite_skipped_by_default(self):
        m = assign_indices(parse_module(NONFINITE_SRC))
        plan = self._plan_for_load(m)
        sampler = Sampler(FaultSpec("absolute", "uniform", 1.0), seed=3)
        out = Machine(m, plan=plan, sampler=sampler).run()
        assert out.status == "ok"
        assert out.skipped_nonfinite == 1
        assert out.activation_count == 0

    def test_activation_records_bits(self, demo_indexed, demo_io):
        from lcfi.instrument import build_plan, load_input_config
        cfg = load_input_config(fixture_path("demo_input.yaml"))
        plan = build_plan(demo_indexed, cfg)
        sampler = Sampler(cfg.fault_spec(base_dir=str(fixture_path(""))), seed=77)
        out = Machine(demo_indexed, demo_io, plan=plan, sampler=sampler,
                      trace=True).run()
        assert out.status == "ok"
        assert out.activation_count == 3  # invocation scope hits all three loads
        act = out.activations[0]
        assert act.index == 15
        assert act.original_hex == "4010000000000000"
        assert act.faulted_hex != act.original_hex
        # the trace logs the faulted value, not the original
        hits = [r for r in out.trace if r.index == 15]
        assert act.faulted_hex in {r.value_hex for r in hits}

    def test_plan_requires_sampler(self, demo_indexed):
        from lcfi.instrument import build_plan, load_input_config
        cfg = load_input_config(fixture_path("demo_input.yaml"))
        plan = build_plan(demo_indexed, cfg)
        with pytest.raises(ValueError):
            Machine(demo_indexed, plan=plan)


class TestCrasherFixture:
    def test_backward_walk_trips_bounds_check(self):
        m = assign_indices(load_fixture_module("crasher.ll"))
        out = Machine(m).run()
        assert out.status == "trapped"
        assert out.trap.kind == "out_of_bounds"
        assert out.stdout == "got 1\n"


def _hex_double(x: float) -> str:
    return "0x%016X" % struct.unpack("<Q", struct.pack("<d", x))[0]


def _icmp_expected(pred, a, b, bits):
    ua, ub = a % (1 << bits), b % (1 << bits)
    return {"eq": a == b, "ne": a != b,
            "sgt": a > b, "sge": a >= b, "slt": a < b, "sle": a <= b,
            "ugt": ua > ub, "uge": ua >= ub, "ult": ua < ub, "ule": ua <= ub}[pred]


def _fcmp_expected(pred, a, b):
    unordered = math.isnan(a) or math.isnan(b)
    fixed = {"true": True, "false": False, "ord": not unordered, "uno": unordered}
    if pred in fixed:
        return fixed[pred]
    rel = {"eq": a == b, "ne": a != b, "gt": a > b, "ge": a >= b,
           "lt": a < b, "le": a <= b}[pred[1:]]
    return (not unordered and rel) if pred[0] == "o" else (unordered or rel)


ICMP_GRID = [
    ("i32", a, b) for a, b in [(5, 5), (5, 6), (6, 5), (-1, 1), (1, -1), (0, -1),
                               (-2**31, 2**31 - 1), (-7, -3)]
] + [
    ("i64", a, b) for a, b in [(5, 5), (-1, 1), (1, -1), (0, -1), (-2**63, 2**63 - 1),
                               (2**40, -2**40), (-7, -3)]
]

FCMP_GRID = [
    (math.nan, 1.5), (1.5, math.nan), (math.nan, math.nan),
    (0.0, -0.0), (-0.0, 0.0), (math.inf, math.inf), (-math.inf, math.inf),
    (math.inf, 2.5), (1.5, 2.5), (2.5, 1.5), (2.5, 2.5),
]


class TestEveryPredicate:
    @pytest.mark.parametrize("ty,a,b", ICMP_GRID)
    @pytest.mark.parametrize("pred", sorted(
        ["eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle"]))
    def test_icmp(self, pred, ty, a, b):
        assert ret_of(f"""
define i32 @main() {{
  %c = icmp {pred} {ty} {a}, {b}
  %z = zext i1 %c to i32
  ret i32 %z
}}
""") == int(_icmp_expected(pred, a, b, int(ty[1:])))

    @pytest.mark.parametrize("a,b", FCMP_GRID)
    @pytest.mark.parametrize("pred", sorted(
        ["false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
         "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true"]))
    def test_fcmp(self, pred, a, b):
        assert ret_of(f"""
define i32 @main() {{
  %c = fcmp {pred} double {_hex_double(a)}, {_hex_double(b)}
  %z = zext i1 %c to i32
  ret i32 %z
}}
""") == int(_fcmp_expected(pred, a, b))


class TestBitcastPairs:
    @pytest.mark.parametrize("src,dst,value,expected", [
        ("i32", "float", "1065353216", 1.0),
        ("i32", "float", "-1073741824", -2.0),
        ("float", "i32", "1.0", 1065353216),
        ("float", "i32", "-2.0", -1073741824),
        ("i64", "double", "-4611686018427387904", -2.0),
        ("double", "i64", "-2.0", -4611686018427387904),
    ])
    def test_bit_pattern(self, src, dst, value, expected):
        assert ret_of(f"""
define {dst} @main() {{
  %w = bitcast {src} {value} to {dst}
  ret {dst} %w
}}
""") == expected

    @pytest.mark.parametrize("src,dst,value", [
        ("i32", "float", "-1"), ("i64", "double", "-1"),
    ])
    def test_all_ones_is_nan(self, src, dst, value):
        assert math.isnan(ret_of(f"""
define {dst} @main() {{
  %w = bitcast {src} {value} to {dst}
  ret {dst} %w
}}
"""))


    def test_unsupported_bitcast_fails_before_running(self):
        module = parse_module("define i32 @main() {\n"
                              "  %a = bitcast i32 1 to i64\n  ret i32 0\n}\n")
        with pytest.raises(VmError, match="bitcast i32 to i64 unsupported"):
            Machine(module)


class TestStdioHandles:
    def test_undeclared_handles_are_laid_out(self):
        out = run_src("""
@stdin = external global i8*
define i32 @main() {
  %o = load i8*, i8** @stdout
  %i = load i8*, i8** @stdin
  %e = load i8*, i8** @stderr
  %o2 = load i8*, i8** @stdout
  ret i32 0
}
""", trace=True)
        assert out.status == "ok"
        assert [int(r.value_hex, 16) for r in out.trace] == [16, 8, 24, 16]


class TestScalarRoundTrip:
    @pytest.mark.parametrize("ty,literal,expected", [
        ("i1", "false", 0),
        ("i8", "-1", -1),
        ("i8", "127", 127),
        ("i32", "-123456", -123456),
        ("i32", "2147483647", 2**31 - 1),
        ("i64", "-9223372036854775808", -2**63),
        ("float", "0x3FF3333340000000", struct.unpack("f", struct.pack("f", 1.2))[0]),
        ("float", "-0.0", -0.0),
        ("double", "2.5", 2.5),
        ("double", _hex_double(-math.inf), -math.inf),
    ])
    def test_store_then_load(self, ty, literal, expected):
        v = ret_of(f"""
define {ty} @main() {{
  %s = alloca {ty}
  store {ty} {literal}, {ty}* %s
  %v = load {ty}* %s
  ret {ty} %v
}}
""")
        assert v == expected
        assert math.copysign(1, v) == math.copysign(1, expected)

    def test_i1_true(self):
        # an i1 occupies one byte in memory
        assert ret_of("""
define i32 @main() {
  %s = alloca i1
  store i1 true, i1* %s
  %v = load i1* %s
  %z = zext i1 %v to i32
  ret i32 %z
}
""") == 1

    def test_i1_global(self):
        assert ret_of("""
@flag = global i1 true
define i32 @main() {
  %v = load i1* @flag
  %z = zext i1 %v to i32
  ret i32 %z
}
""") == 1

    def test_ptr(self):
        assert ret_of("""
define i32 @main() {
  %x = alloca i32
  %s = alloca i32*
  store i32* %x, i32** %s
  %v = load i32** %s
  store i32 77, i32* %v
  %c = icmp eq i32* %v, %x
  %z = zext i1 %c to i32
  %r = load i32* %x
  %sum = add i32 %r, %z
  ret i32 %sum
}
""") == 78

    def test_i8_load_is_sign_extended(self):
        assert ret_of("""
define i32 @main() {
  %s = alloca i32
  store i32 255, i32* %s
  %b = bitcast i32* %s to i8*
  %v = load i8* %b
  %w = sext i8 %v to i32
  ret i32 %w
}
""") == -1

    def test_store_masks_to_width(self):
        assert ret_of("""
define i8 @main() {
  %s = alloca i8
  store i8 255, i8* %s
  %v = load i8* %s
  ret i8 %v
}
""") == -1


F32_MAX_HEX = "0x47EFFFFFE0000000"


class TestF32Overflow:
    """Finite doubles beyond the f32 range round to a signed infinity."""

    @pytest.mark.parametrize("body,expected", [
        ("%w = fptrunc double 1.0e300 to float", math.inf),
        ("%w = fptrunc double -1.0e300 to float", -math.inf),
        ("%w = fmul float 3.0e38, 10.0", math.inf),
        ("%w = fmul float -3.0e38, 10.0", -math.inf),
        (f"%w = fadd float {F32_MAX_HEX}, {F32_MAX_HEX}", math.inf),
        (f"%w = fadd float {F32_MAX_HEX}, 1.0", 3.4028234663852886e+38),
    ])
    def test_arithmetic(self, body, expected):
        assert ret_of(f"""
define float @main() {{
  {body}
  ret float %w
}}
""") == expected

    @pytest.mark.parametrize("text,expected", [
        ("1e39", math.inf), ("-1e39", -math.inf), ("2.5", 2.5)])
    def test_scanf(self, text, expected):
        out = run_src("""
@f = constant [3 x i8] c"%f\\00"
define float @main() {
  %d = alloca float
  %r = call i32 (i8*, ...)* @scanf(i8* getelementptr ([3 x i8]* @f, i32 0, i32 0), float* %d)
  %v = load float* %d
  ret float %v
}
""", io=IoConfig(stdin_text=text))
        assert out.status == "ok", out.trap
        assert out.return_value == expected

    def test_relative_fault_near_max(self):
        m = assign_indices(parse_module(f"""
define float @main() {{
  %v = fmul float {F32_MAX_HEX}, 1.0
  ret float %v
}}
"""))
        target = next(ins.index for _f, _b, ins in m.all_instructions()
                      if ins.opcode == "fmul")
        plan = InjectionPlan((PlanTarget(target, "v", "f32"),),
                             OccurrenceScope("nth_execution", (1,)))
        faulted = set()
        for seed in range(8):
            sampler = Sampler(FaultSpec("relative", "uniform", 0.5), seed=seed)
            out = Machine(m, plan=plan, sampler=sampler).run()
            assert out.status == "ok", out.trap
            assert out.activation_count == 1
            faulted.add(out.activations[0].faulted_hex)
        # draws past FLT_MAX saturate there instead of overflowing to +inf
        assert "7f7fffff" in faulted
        assert "7f800000" not in faulted


NESTED_LOOPS_SRC = """
define i32 @f() {
entry:
  %x.addr = alloca i32
  store i32 5, i32* %x.addr
  br label %outer

outer:
  %i = phi i32 [ 0, %entry ], [ %i1, %otail ]
  br label %inner

inner:
  %j = phi i32 [ 0, %outer ], [ %j1, %inner ]
  %v = load i32, i32* %x.addr
  %j1 = add i32 %j, 1
  %c = icmp slt i32 %j1, 4
  br i1 %c, label %inner, label %otail

otail:
  %i1 = add i32 %i, 1
  %d = icmp slt i32 %i1, 2
  br i1 %d, label %outer, label %done

done:
  %w = load i32, i32* %x.addr
  ret i32 %w
}

define i32 @main() {
  %r = call i32 @f()
  ret i32 %r
}
"""


class TestLoopIterationScope:
    def test_inner_loop_trips_restart_on_reentry(self):
        from lcfi.instrument import build_plan, parse_input_config
        m = assign_indices(parse_module(NESTED_LOOPS_SRC))
        cfg = parse_input_config({
            "fi_type": "uniform_abs(1.0)", "loop_num": [1, 3],
            "loop_mode": "loop_iteration",
            "option": [{"function_name": "f", "variable_name": "x.addr",
                        "in_arr": True, "in_loop": True}]})
        plan = build_plan(m, cfg)
        inner, tail = [ins.index for _f, _b, ins in m.all_instructions()
                       if ins.opcode == "load"]
        assert [t.index for t in plan.targets] == [inner, tail]
        out = Machine(m, plan=plan, sampler=Sampler(cfg.fault_spec(), seed=5)).run()
        assert out.status == "ok", out.trap
        # trips 1 and 3 of the inner loop, in both trips of the outer loop;
        # the load after the loops sits in no loop and never activates
        assert [(a.index, a.step) for a in out.activations] == [
            (inner, 8), (inner, 18), (inner, 33), (inner, 43)]


def _trap_of(text, **kw):
    out = run_src(text, **kw)
    assert out.status == "trapped"
    return out.trap


class TestTrapLocation:
    def test_out_of_bounds_in_callee(self):
        trap = _trap_of("""
define i32 @g(i32* %s) {
  %p = getelementptr i32* %s, i64 100000
  %v = load i32* %p
  ret i32 %v
}
define i32 @main() {
  %s = alloca i32
  %r = call i32 @g(i32* %s)
  ret i32 %r
}
""")
        assert (trap.kind, trap.function, trap.index) == ("out_of_bounds", "g", 2)

    def test_bad_intrinsic_arg_at_printf_call(self):
        trap = _trap_of("""
@f = constant [3 x i8] c"%d\\00"
define i32 @main() {
  %a = add i32 1, 2
  %r = call i32 (i8*, ...)* @printf(i8* getelementptr ([3 x i8]* @f, i32 0, i32 0))
  ret i32 %r
}
""")
        assert (trap.kind, trap.function, trap.index) == ("bad_intrinsic_arg", "main", 2)

    def test_stack_overflow_at_recursive_call(self):
        trap = _trap_of("""
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
        assert (trap.kind, trap.function, trap.index) == ("stack_overflow", "spin", 2)

    def test_division_by_zero_in_callee(self):
        trap = _trap_of("""
define i32 @g(i32 %d) {
  %q = sdiv i32 7, %d
  ret i32 %q
}
define i32 @main() {
  %r = call i32 @g(i32 0)
  ret i32 %r
}
""")
        assert (trap.kind, trap.function, trap.index) == ("division_by_zero", "g", 1)

    @pytest.mark.parametrize("call", ["memset(i8* %p, i32 65, i64 %n)",
                                      "memcpy(i8* %p, i8* %p, i64 %n)"])
    def test_negative_size_at_memset_and_memcpy(self, call):
        trap = _trap_of(f"""
define i32 @g(i64 %n) {{
  %a = alloca [4 x i8]
  %p = getelementptr [4 x i8]* %a, i32 0, i32 0
  %r = call i8* @{call}
  ret i32 0
}}
define i32 @main() {{
  %r = call i32 @g(i64 -5)
  ret i32 %r
}}
""")
        assert (trap.kind, trap.function, trap.index) == ("bad_intrinsic_arg", "g", 3)
        assert trap.message == f"{call[:6]}: negative size -5"


class TestRealizedBound:
    def test_int_deltas_stay_within_bound(self):
        m = assign_indices(load_fixture_module("looper.ll"))
        target = next(ins.index for _f, _b, ins in m.all_instructions()
                      if ins.opcode == "load")
        plan = InjectionPlan((PlanTarget(target, "spin", "i32"),),
                             OccurrenceScope("invocation", (1,)))
        sampler = Sampler(FaultSpec("absolute", "uniform", 1.7), seed=4)
        out = Machine(m, budget=3000, plan=plan, sampler=sampler).run()
        assert out.activation_count > 500
        deltas = set()
        for a in out.activations:
            orig, faulted = (struct.unpack("<i", bytes.fromhex(h)[::-1])[0]
                             for h in (a.original_hex, a.faulted_hex))
            deltas.add(faulted - orig)
        assert deltas <= {-1, 0, 1}
        assert deltas == {-1, 0, 1}


def _plan_and_spec(module, config: str):
    cfg = load_input_config(fixture_path(f"{config}_input.yaml"))
    return build_plan(module, cfg), cfg.fault_spec(base_dir=FIXTURES)


class TestDecodeCache:
    def test_golden_and_injection_runs_decode_each_function_once(
            self, monkeypatch, demo_io):
        decoded_names = []
        real = decode.decode_function

        def counting(fn, *args):
            decoded_names.append(fn.name)
            return real(fn, *args)
        monkeypatch.setattr(decode, "decode_function", counting)
        m = assign_indices(load_fixture_module("demo.ll"))
        plan, spec = _plan_and_spec(m, "demo")
        assert Machine(m, demo_io, trace=True).run().status == "ok"
        for seed in range(4):
            out = Machine(m, demo_io, trace=seed % 2 == 0, plan=plan,
                          sampler=make_sampler(spec, seed)).run()
            assert out.activation_count > 0
        assert sorted(decoded_names) == sorted(f.name for f in m.functions)

    def test_decoded_module_pickles_and_equals_a_fresh_parse(self, demo_io):
        m = assign_indices(load_fixture_module("demo.ll"))
        Machine(m, demo_io).run()
        assert decode.decoded(m) is decode.decoded(m)
        fresh = assign_indices(load_fixture_module("demo.ll"))
        copy = pickle.loads(pickle.dumps(m))
        assert "_decoded" not in copy.__dict__
        assert m == fresh and copy == fresh
        assert Machine(copy, demo_io).run().stdout == Machine(m, demo_io).run().stdout


# (program, input config or None): every fixture, under each config it has
FIXTURE_RUNS = [("demo", "demo"), ("cg", "cg"), ("cg", "cg_loop"),
                ("fragile", "fragile"), ("masked", "masked"),
                ("looper", "looper"), ("crasher", None)]


@pytest.mark.parametrize("program,config", FIXTURE_RUNS)
def test_tracing_changes_no_outcome(program, config):
    m = assign_indices(load_fixture_module(f"{program}.ll"))
    setups = [(None, None)]
    if config is not None:
        plan, spec = _plan_and_spec(m, config)
        setups += [(plan, lambda seed=seed: make_sampler(spec, seed))
                   for seed in (1, 2, 3)]
    for plan, sampler in setups:
        outs = [Machine(m, IoConfig(files={"in.txt": "4 3 3\n"}, workdir=FIXTURES),
                        budget=20000, trace=traced, plan=plan,
                        sampler=sampler() if sampler else None).run()
                for traced in (False, True)]
        plain, traced = ((o.steps, o.stdout, o.status, o.trap,
                          [(a.index, a.step) for a in o.activations]) for o in outs)
        assert plain == traced
        assert outs[0].trace is None and len(outs[1].trace) > 0
