"""Parser coverage: the demo fixture's exact shape, both syntax generations,
error reporting, and a randomized print/parse round-trip."""

import random
import re
import struct

import pytest

from lcfi.ir.nodes import (F32, F64, I1, I8, I32, I64, OPCODES, TYPE_NAMES, VOID,
                           BasicBlock, GlobalDef, GlobalInit, Instruction,
                           IrFunction, IrModule, array_of, floatc, intc, ptr_to,
                           reg)
from lcfi.ir.parser import ParseError, parse_module
from lcfi.ir.printer import print_module
from lcfi.ir.validate import validate
from lcfi.instrument import assign_indices


class TestDemoShape:
    def test_functions_and_params(self, demo_module):
        assert [f.name for f in demo_module.functions] == ["process", "main"]
        process = demo_module.function("process")
        assert process.params == [("n", ptr_to(F64))]
        assert process.return_type == F64

    def test_implicit_block_labels(self, demo_module):
        process = demo_module.function("process")
        assert [b.label for b in process.blocks] == ["0", "2", "5", "14", "17"]
        assert [len(b.instructions) for b in process.blocks] == [7, 3, 10, 4, 2]
        main = demo_module.function("main")
        assert [b.label for b in main.blocks] == ["0"]
        assert len(main.blocks[0].instructions) == 24

    def test_old_style_bodies(self, demo_module):
        body = demo_module.function("process").block("5").instructions
        assert [i.opcode for i in body] == [
            "load", "sext", "load", "getelementptr", "load", "store",
            "load", "load", "call", "br"]
        elem_load = body[4]
        assert elem_load.result == "10"
        assert elem_load.result_type == F64
        gep = body[3]
        assert gep.aux_type == F64  # old typed-pointer gep: source is pointee
        assert gep.inbounds
        call = body[8]
        assert call.callee == "printf"
        assert call.result_type == I32
        assert len(call.operands) == 3

    def test_globals(self, demo_module):
        fmt = demo_module.global_def(".str")
        assert fmt.type == array_of(11, I8)
        assert fmt.init.kind == "bytes"
        assert fmt.init.data == b"n[%d]: %f\n\x00"
        stdin = demo_module.global_def("stdin")
        assert stdin.external and stdin.init is None

    def test_clean_parse(self, demo_module):
        assert demo_module.warnings == []


NEW_STYLE = """
@buf = global [4 x i32] zeroinitializer
@second = global ptr getelementptr inbounds ([4 x i32], ptr @buf, i64 0, i64 1)
define i32 @sum(ptr %p, i32 %k) {
entry:
  %slot = alloca i32
  store i32 %k, ptr %slot
  %kv = load i32, ptr %slot
  %idx = sext i32 %kv to i64
  %ep = getelementptr inbounds [4 x i32], ptr %p, i64 0, i64 %idx
  %v = load i32, ptr %ep
  %r = add nsw i32 %v, 1
  ret i32 %r
}
"""


def test_new_style_syntax():
    m = parse_module(NEW_STYLE)
    fn = m.function("sum")
    ops = [i.opcode for i in fn.instructions()]
    assert ops == ["alloca", "store", "load", "sext", "getelementptr",
                   "load", "add", "ret"]
    kv = fn.blocks[0].instructions[2]
    assert kv.result_type == I32  # opaque pointer retyped from the value type
    ep = fn.blocks[0].instructions[4]
    assert ep.aux_type == array_of(4, I32)
    assert ep.result_type == ptr_to(I32)
    second = m.global_def("second").init.value
    assert second.kind == "gep"
    assert second.gep_source == array_of(4, I32)
    assert second.base.type == ptr_to(array_of(4, I32))


def test_vector_type_warns_and_parses_as_array():
    m = parse_module("@v = global <4 x i32> zeroinitializer\n")
    assert m.global_def("v").type == array_of(4, I32)
    assert any("vector" in w for w in m.warnings)


def test_metadata_and_attributes_stripped_with_warning():
    text = """
!0 = !{i32 7}
attributes #0 = { nounwind }
define void @f() {
  ret void
}
"""
    m = parse_module(text)
    assert m.function("f") is not None
    assert len([w for w in m.warnings if "stripped" in w]) == 2


def test_instruction_level_metadata_stripped():
    text = """
define i32 @f() {
  %a = add i32 1, 2, !dbg !7
  ret i32 %a
}
"""
    m = parse_module(text)
    assert m.function("f").blocks[0].instructions[0].opcode == "add"
    assert any("metadata" in w for w in m.warnings)


def test_cstring_escapes():
    m = parse_module('@s = constant [4 x i8] c"a\\0A\\00\\5C"\n')
    assert m.global_def("s").init.data == b"a\n\x00\\"


def test_hex_float_literal():
    m = parse_module("""
define double @f() {
  ret double 0x4014E8D25119F5E3
}
""")
    v = m.function("f").blocks[0].instructions[0].operands[0]
    expected = struct.unpack(">d", bytes.fromhex("4014E8D25119F5E3"))[0]
    assert v.fval == expected


def test_numeric_param_advances_counter():
    m = parse_module("""
define i32 @f(i32 %0) {
  %2 = add i32 %0, 1
  ret i32 %2
}
""")
    fn = m.function("f")
    # %0 is the param, so the unnamed entry block becomes %1
    assert fn.blocks[0].label == "1"


def test_explicit_numeric_label_advances_counter():
    m = parse_module("""
define i32 @f(i32 %x) {
  br label %7

7:
  %8 = add i32 %x, 1
  ret i32 %8
}
""")
    assert [b.label for b in m.function("f").blocks] == ["0", "7"]


def test_label_comment_form_is_reconstructed(demo_module):
    # compiler-output labels only present as "; <label>:N" comments come back
    # through the shared register counter
    process = demo_module.function("process")
    targets = process.block("2").terminator().labels
    assert targets == ["5", "17"]
    assert {b.label for b in process.blocks} >= set(targets)


def test_discarded_call_value_allowed():
    m = parse_module("""
declare i32 @printf(i8*, ...)
define void @f(i8* %s) {
  call i32 (i8*, ...)* @printf(i8* %s)
  ret void
}
""")
    ins = m.function("f").blocks[0].instructions[0]
    assert ins.opcode == "call" and ins.result is None


@pytest.mark.parametrize("bad", [
    "define i32 @f() {\n  %x = frobnicate i32 1\n  ret i32 %x\n}\n",
    "define i32 @f() {\n  %x = add i32 1 2\n  ret i32 %x\n}\n",
    "define i32 @f() {\n  %x = load wibble* %p\n  ret i32 %x\n}\n",
    "@g = constant i32 fish\n",
    "wibble\n",
    "define i32 @f() {\n  %x = add i32 1, 2 trailing\n  ret i32 %x\n}\n",
    "define void @f() {\n  store i32 1, i32* %p extra\n  ret void\n}\n",
    "define void @f({ i32, double }* %s) {\n  %p = getelementptr { i32, double }, "
    "{ i32, double }* %s, i64 0, i32 2\n  ret void\n}\n",
])
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError) as exc:
        parse_module(bad)
    assert exc.value.line >= 1
    assert ":" in str(exc.value)


@pytest.mark.parametrize("bad", [
    # typed as i1 whatever was written, this stored one byte of an i32
    "define i32 @f(i32* %p) {\n  store i32 true, i32* %p\n  ret i32 0\n}\n",
    "define i32 @f() {\n  ret i32 false\n}\n",
    "@g = global i64 true\n",
])
def test_bool_constant_of_wider_type_rejected(bad):
    with pytest.raises(ParseError, match="i1 constant"):
        parse_module(bad)


def test_bool_constant_of_i1_accepted():
    m = parse_module("define i1 @f() {\n  ret i1 true\n}\n")
    (v,) = m.function("f").blocks[0].instructions[0].operands
    assert (v.kind, v.type.kind, v.ival) == ("int", "i1", 1)


def test_index_annotations_roundtrip(demo_module):
    indexed = assign_indices(demo_module)
    text = print_module(indexed)
    assert "; !lcfi_index 15" in text
    re_parsed = parse_module(text, source_name="demo.ll")
    orig = [(i.index, i.opcode) for _f, _b, i in indexed.all_instructions()]
    back = [(i.index, i.opcode) for _f, _b, i in re_parsed.all_instructions()]
    assert orig == back


def test_demo_roundtrip_structural_equality(demo_module):
    text = print_module(demo_module)
    assert parse_module(text, source_name="demo.ll") == demo_module


# Every opcode of OPCODES and every keyword of TYPE_NAMES, in typed-pointer
# spelling so that the printer's two-type form must parse back to the same module.
EVERY_FORM = """
@g = global i8 7
@fmt = constant [4 x i8] c"%d\\0A\\00"

define void @sink(double %d) {
  ret void
}

define i32 @main() {
entry:
  %slot = alloca [2 x i64]
  %p = getelementptr inbounds [2 x i64]* %slot, i64 0, i64 1
  store i64 9, i64* %p
  %w = load i64* %p
  %n = trunc i64 %w to i32
  %a = add nsw i32 %n, 1
  %s = sub i32 %a, 2
  %m = mul i32 %s, 3
  %q = sdiv i32 %m, 2
  %r = srem i32 %q, 5
  %b = load i8* @g
  %bz = zext i8 %b to i32
  %bs = sext i8 %b to i64
  %f = sitofp i32 %r to float
  %fe = fpext float %f to double
  %x = fadd double %fe, 1.5
  %y = fsub double %x, 0.25
  %z = fmul double %y, 2.0
  %v = fdiv double %z, 3.0
  %neg = fneg double %v
  %ft = fptrunc double %neg to float
  %bits = bitcast float %ft to i32
  %i = fptosi double %v to i64
  %c = icmp slt i32 %bz, %bits
  %o = fcmp olt double %v, 1.0
  %pick = select i1 %c, i64 %i, i64 %bs
  call void @sink(double %v)
  %pr = call i32 (i8*, ...)* @printf(i8* getelementptr inbounds ([4 x i8]* @fmt, i64 0, i64 0), i32 %r)
  br i1 %o, label %then, label %join

then:
  br label %join

join:
  %phi = phi i32 [ %r, %entry ], [ %a, %then ]
  ret i32 %phi
}

declare i32 @printf(i8*, ...)
"""


def test_every_form_roundtrips():
    m = parse_module(EVERY_FORM, source_name="every.ll")
    assert {ins.opcode for _f, _b, ins in m.all_instructions()} == set(OPCODES)
    assert validate(m) == []
    text = print_module(m)
    assert set(TYPE_NAMES) <= set(re.findall(r"\b[a-z]\w*\b", text))
    assert parse_module(text, source_name="every.ll") == m


# -- randomized round-trip -----------------------------------------------------

_INT_TYPES = [I32, I64]
_FLOAT_TYPES = [F32, F64]


def _random_function(rng: random.Random, name: str) -> IrFunction:
    it = rng.choice(_INT_TYPES)
    ft = rng.choice(_FLOAT_TYPES)
    fn = IrFunction(name, it, params=[("a", it), ("b", it), ("x", ft)])
    entry = BasicBlock("entry")
    then = BasicBlock("then")
    other = BasicBlock("other")
    join = BasicBlock("join")
    fn.blocks = [entry, then, other, join]

    slot = "slot"
    entry.instructions = [
        Instruction("alloca", slot, ptr_to(it), aux_type=it),
        Instruction("store", None, VOID,
                    [reg("a", it), reg(slot, ptr_to(it))]),
        Instruction("load", "av", it, [reg(slot, ptr_to(it))]),
        Instruction(rng.choice(["add", "sub", "mul"]), "t0", it,
                    [reg("av", it), intc(rng.randint(-7, 7), it)]),
        Instruction("icmp", "c", I1, [reg("t0", it), reg("b", it)],
                    predicate=rng.choice(["eq", "slt", "sgt", "ule"])),
        Instruction("br", None, VOID, [reg("c", I1)], labels=["then", "other"]),
    ]
    then.instructions = [
        Instruction(rng.choice(["fadd", "fsub", "fmul", "fdiv"]), "f1", ft,
                    [reg("x", ft), floatc(rng.choice([0.5, 2.0, -1.25, 3.7]), ft)]),
        Instruction("fptosi", "i1v", it, [reg("f1", ft)], aux_type=it),
        Instruction("br", None, VOID, labels=["join"]),
    ]
    other.instructions = [
        Instruction("fneg", "f2", ft, [reg("x", ft)]),
        Instruction("fptosi", "i2v", it, [reg("f2", ft)], aux_type=it),
        Instruction("br", None, VOID, labels=["join"]),
    ]
    join.instructions = [
        Instruction("phi", "m", it,
                    [reg("i1v", it), reg("i2v", it)], labels=["then", "other"]),
        Instruction("select", "s", it,
                    [intc(rng.randint(0, 1), I1), reg("m", it), reg("t0", it)]),
        Instruction("ret", None, VOID, [reg("s", it)]),
    ]
    return fn


def _random_module(seed: int) -> IrModule:
    rng = random.Random(seed)
    m = IrModule(source_name=f"gen{seed}.ll")
    m.globals.append(GlobalDef(
        "tab", array_of(4, I32),
        GlobalInit("array", values=tuple(intc(rng.randint(-99, 99), I32)
                                         for _ in range(4)))))
    if rng.random() < 0.5:
        m.globals.append(GlobalDef("msg", array_of(3, I32), GlobalInit("zero")))
    if rng.random() < 0.5:
        m.globals.append(GlobalDef(
            "scale", F64, GlobalInit("scalar", value=floatc(rng.choice(
                [1.5, 0.1, -2.75, 1e10]), F64)), is_const=True))
    for i in range(rng.randint(1, 3)):
        m.functions.append(_random_function(rng, f"fn{i}"))
    return m


@pytest.mark.parametrize("seed", range(300))
def test_random_roundtrip(seed):
    m = _random_module(seed)
    text = print_module(m)
    assert parse_module(text, source_name=m.source_name) == m
