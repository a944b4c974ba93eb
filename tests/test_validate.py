from dataclasses import replace

import pytest

from lcfi.ir.parser import parse_module
from lcfi.ir.validate import validate

from conftest import load_fixture_module


@pytest.mark.parametrize("name", [
    "demo.ll", "cg.ll", "masked.ll", "fragile.ll", "looper.ll", "crasher.ll"])
def test_fixtures_are_clean(name):
    assert validate(load_fixture_module(name)) == []


def _messages(text):
    return [d.message for d in validate(parse_module(text))]


def test_duplicate_block_label():
    msgs = _messages("""
define void @f() {
a:
  br label %a

a:
  ret void
}
""")
    assert any("duplicate block label" in m for m in msgs)


def test_register_redefined():
    msgs = _messages("""
define i32 @f() {
  %x = add i32 1, 2
  %x = add i32 3, 4
  ret i32 %x
}
""")
    assert any("%x redefined" in m for m in msgs)


def test_missing_terminator():
    msgs = _messages("""
define i32 @f() {
a:
  %x = add i32 1, 2

b:
  ret i32 %x
}
""")
    assert any("missing terminator" in m for m in msgs)


def test_instruction_after_terminator():
    # the parser splits blocks at terminators, so build this shape directly
    from lcfi.ir.nodes import (I32, VOID, BasicBlock, Instruction, IrFunction,
                               IrModule, intc)
    fn = IrFunction("f", I32)
    blk = BasicBlock("entry")
    blk.instructions = [
        Instruction("ret", None, VOID, [intc(0)]),
        Instruction("add", "x", I32, [intc(1), intc(2)]),
    ]
    fn.blocks = [blk]
    m = IrModule()
    m.functions.append(fn)
    msgs = [d.message for d in validate(m)]
    assert any("after terminator" in m for m in msgs)


def test_undefined_register():
    msgs = _messages("""
define i32 @f() {
  %x = add i32 %ghost, 1
  ret i32 %x
}
""")
    assert any("undefined register %ghost" in m for m in msgs)


def test_use_before_definition_same_block():
    msgs = _messages("""
define i32 @f() {
  %a = add i32 %b, 1
  %b = add i32 1, 2
  ret i32 %a
}
""")
    assert any("used before definition" in m for m in msgs)


def test_cross_block_use_accepted():
    # %v is defined in %x, which every path to %z passes through
    msgs = _messages("""
define i32 @f(i1 %c) {
  br label %x

x:
  %v = add i32 1, 2
  br i1 %c, label %y, label %z

y:
  br label %z

z:
  %r = add i32 %v, 1
  ret i32 %r
}
""")
    assert msgs == []


def test_cross_block_use_on_a_path_without_definition():
    diags = validate(parse_module("""
define i32 @f(i1 %c) {
  br i1 %c, label %x, label %y

x:
  %v = add i32 1, 2
  br label %y

y:
  %r = add i32 %v, 1
  ret i32 %r
}
"""))
    assert [str(d) for d in diags] == [
        "line 10: register %v is not defined on every path to its use in @f:%y"]


def test_phi_operand_checked_on_its_edge():
    msgs = _messages("""
define i32 @f(i1 %c) {
  br i1 %c, label %x, label %y

x:
  %v = add i32 1, 2
  br label %y

y:
  %a = phi i32 [ %v, %x ], [ 0, %0 ]
  %b = phi i32 [ %v, %0 ], [ 1, %x ]
  ret i32 %a
}
""")
    assert msgs == ["phi operand %v is not defined on every path through %0"]


def test_unreachable_block_not_checked():
    msgs = _messages("""
define i32 @f() {
  ret i32 0

dead:
  br label %deader

deader:
  %r = add i32 %w, 1
  %w = add i32 1, 2
  br label %deader
}
""")
    assert msgs == ["register %w used before definition"]


def test_phi_operands_exempt_from_order_check():
    msgs = _messages("""
define i32 @f(i1 %c) {
  br label %loop

loop:
  %n = phi i32 [ 0, %0 ], [ %next, %loop ]
  %next = add i32 %n, 1
  br i1 %c, label %loop, label %done

done:
  ret i32 %n
}
""")
    assert msgs == []


def test_branch_to_unknown_label():
    msgs = _messages("""
define void @f() {
  br label %nowhere
}
""")
    assert any("unknown label %nowhere" in m for m in msgs)


def test_phi_unknown_label():
    msgs = _messages("""
define i32 @f() {
  br label %b

b:
  %v = phi i32 [ 1, %ghost ]
  ret i32 %v
}
""")
    assert any("phi references unknown label %ghost" in m for m in msgs)


def test_phi_in_entry_block():
    msgs = _messages("""
define i32 @f() {
entry:
  %a = phi i32 [ 1, %entry ]
  ret i32 %a
}
""")
    assert msgs == ["phi in entry block"]


def test_phi_missing_a_predecessor():
    diags = validate(parse_module("""
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %x, label %y

x:
  br label %y

y:
  %a = phi i32 [ 1, %x ]
  %b = phi i32 [ 2, %entry ], [ 3, %x ]
  ret i32 %a
}
"""))
    assert [str(d) for d in diags] == [
        "line 10: phi has no incoming edge from %entry in @f:%y"]


def test_call_arity_mismatch():
    msgs = _messages("""
define i32 @g(i32 %a, i32 %b) {
  ret i32 %a
}
define i32 @f() {
  %r = call i32 @g(i32 1)
  ret i32 %r
}
""")
    assert any("passes 1 args, expected 2" in m for m in msgs)


def test_call_unknown_function():
    msgs = _messages("""
define void @f() {
  call void @mystery()
  ret void
}
""")
    assert any("unknown function @mystery" in m for m in msgs)


def test_intrinsic_calls_accepted():
    msgs = _messages("""
@fmt = constant [3 x i8] c"%d\\00"
define void @f() {
  %r = call i32 (i8*, ...)* @printf(i8* getelementptr ([3 x i8]* @fmt, i32 0, i32 0), i32 1)
  %s = call double @sqrt(double 2.0)
  ret void
}
""")
    assert msgs == []


@pytest.mark.parametrize("text,message", [
    ("define i32 @f() {\n  %x = fadd double 1.0, 2.0\n  %y = add i32 %x, 1\n"
     "  ret i32 %y\n}\n", "line 3: register %x is double, read as i32 in @f"),
    ("define i32 @f(double %d) {\n  %y = add i32 %d, 1\n  ret i32 %y\n}\n",
     "line 2: register %d is double, read as i32 in @f"),
    ("define i32 @f() {\n  ret double 2.5\n}\n",
     "line 2: ret double in a function returning i32 in @f"),
    ("define i32 @f() {\n  ret void\n}\n",
     "line 2: ret void in a function returning i32 in @f"),
    ("define i32 @g(i32 %x) {\n  ret i32 %x\n}\ndefine i32 @f() {\n"
     "  %r = call i32 @g(double 2.5)\n  ret i32 %r\n}\n",
     "line 5: call to @g passes double as argument 1, which is i32 in @f"),
    ("define double @g() {\n  ret double 1.5\n}\ndefine i32 @f() {\n"
     "  %r = call i32 @g()\n  ret i32 %r\n}\n",
     "line 5: call to @g declares i32, which returns double in @f"),
    ("declare i32 @sqrt(double)\ndefine i32 @f() {\n"
     "  %r = call i32 @sqrt(double 2.0)\n  ret i32 %r\n}\n",
     "line 3: call to @sqrt declares i32, which returns float in @f"),
    ("define i32 @f() {\n  %p = call i8* @malloc(i64 8)\n"
     "  %r = call i64 @free(i8* %p)\n  ret i32 0\n}\n",
     "line 3: call to @free declares i64, which returns void in @f"),
    ("define i32 @f() {\n  %p = call i64 @malloc(i64 8)\n  ret i32 0\n}\n",
     "line 2: call to @malloc declares i64, which returns ptr in @f"),
    ("define i32 @f() {\n  %r = call double @printf(i8* null)\n  ret i32 0\n}\n",
     "line 2: call to @printf declares double, which returns int in @f"),
], ids=["register", "parameter", "ret_value", "ret_void", "argument", "result",
        "sqrt_int", "free_result", "malloc_int", "printf_float"])
def test_a_value_of_another_kind_is_rejected(text, message):
    assert [str(d) for d in validate(parse_module(text))] == [message + ":%0"]


@pytest.mark.parametrize("body,message", [
    ("%x = add double 1.0, 2.0", "add double unsupported"),
    ("%x = fadd i32 1, 2", "fadd i32 unsupported"),
    ("%x = fneg i64 1", "fneg i64 unsupported"),
    ("%c = icmp eq double 1.0, 2.0", "icmp double unsupported"),
    ("%c = fcmp oeq i32 1, 2", "fcmp i32 unsupported"),
    ("%c = zext double 1.0 to i64", "zext double to i64 unsupported"),
    ("%c = sext i64 5 to i32", "sext i64 to i32 unsupported"),
    ("%c = zext i32 5 to i32", "zext i32 to i32 unsupported"),
    ("%c = trunc i32 5 to i64", "trunc i32 to i64 unsupported"),
    ("%c = fptosi i32 3 to i32", "fptosi i32 to i32 unsupported"),
    ("%c = sitofp double 1.5 to float", "sitofp double to float unsupported"),
    ("%c = fpext double 1.0 to float", "fpext double to float unsupported"),
    ("%c = fptrunc float 1.0 to float", "fptrunc float to float unsupported"),
    ("%p = alloca [2 x i32]\n  %c = getelementptr [2 x i32], [2 x i32]* %p, i64 0, "
     "double 1.0", "getelementptr index of type double"),
    ("%c = select double 1.0, i32 1, i32 2", "select operand 1 is double, not i1"),
    ("br double 1.0, label %a, label %a\na:", "br operand 1 is double, not i1"),
    ("%v = load i32, double 1.0", "load operand 1 is double, not ptr"),
    ("store i32 1, double 2.0", "store operand 2 is double, not ptr"),
    ("%c = getelementptr i32, i32 5, i64 1", "getelementptr operand 1 is i32, not ptr"),
    ("%c = select i1 true, i8 1, i32 300", "select operand 3 is i32, not i8"),
    ("%c = select i1 false, i32 1, double 2.5", "select operand 3 is double, not i32"),
], ids=["add", "fadd", "fneg", "icmp", "fcmp", "zext_float", "sext_narrows",
        "zext_same_width", "trunc_widens", "fptosi", "sitofp", "fpext_narrows",
        "fptrunc_same_width", "gep_index",
        "select_condition", "br_condition", "load_address", "store_address", "gep_base",
        "select_i8_of_i32", "select_i32_of_double"])
def test_an_opcode_on_values_of_another_class_is_rejected(body, message):
    """Each of these ran into a Python error or left a value of another
    type: an integer op on a float or the reverse, a cast from or to the
    wrong class or width, a float index, condition or address."""
    text = f"define i32 @f() {{\n  {body}\n  ret i32 0\n}}\n"
    assert _messages(text) == [message]


def test_kinds_that_agree_are_accepted():
    """All pointers are one kind; an intrinsic's result may be any type of
    its class, or void."""
    assert _messages("""
declare float @sqrtf(float)
define i8* @id(i32* %p) {
  %q = bitcast i32* %p to i8*
  ret i8* %q
}
define void @f() {
  %a = alloca i32
  %p = call i8* @id(i8* %a)
  %c = load i8, i32* %a
  %r = call float @sqrtf(float 2.0)
  %n = call i8 (i8*, ...)* @printf(i8* %p)
  call void @printf(i8* %p)
  %m = call i32* @malloc(i64 4)
  call void @free(i32* %m)
  ret void
}
""") == []


def test_unknown_global():
    msgs = _messages("""
define i32 @f() {
  %v = load i32* @nope
  ret i32 %v
}
""")
    assert any("unknown global @nope" in m for m in msgs)


def test_stdio_globals_implicitly_known():
    msgs = _messages("""
@stdin = external global i8*
define void @f() {
  %h = load i8** @stdin
  ret void
}
""")
    assert msgs == []


def test_duplicate_function_and_global():
    msgs = _messages("""
@g = global i32 1
@g = global i32 2
define void @f() {
  ret void
}
define void @f() {
  ret void
}
""")
    assert any("duplicate function @f" in m for m in msgs)
    assert any("duplicate global @g" in m for m in msgs)


def test_diagnostic_formatting_carries_location():
    diags = validate(parse_module("""
define i32 @f() {
  %x = add i32 %ghost, 1
  ret i32 %x
}
"""))
    rendered = str(diags[0])
    assert "@f" in rendered and "line" in rendered


@pytest.mark.parametrize("text,message", [
    ("define i64 @f() {\n  %w = bitcast i32 1 to i64\n  ret i64 %w\n}\n",
     "bitcast i32 to i64 unsupported"),
    ("define double @f() {\n  %w = bitcast i32 1 to double\n  ret double %w\n}\n",
     "bitcast i32 to double unsupported"),
    ("define i32 @f() {\n  %p = alloca [2 x i32]\n"
     "  %v = load [2 x i32], [2 x i32]* %p\n  ret i32 0\n}\n",
     "cannot load type [2 x i32]"),
    ("@g = global i32 0\ndefine i32 @f() {\n"
     "  %v = load i32, i32* getelementptr (i32, i32* @g, i64 0, i64 1)\n"
     "  ret i32 %v\n}\n",
     "getelementptr walks through a scalar"),
    ("define i32 @f(i64 %i) {\n  %v = load i32, i32* getelementptr "
     "([2 x i32], [2 x i32]* null, i64 0, i64 %i)\n  ret i32 %v\n}\n",
     "has a non-constant index"),
    ("@g = global i32 0\n@q = global i32* getelementptr (i32, i32* @g, i64 0, i64 1)\n",
     "getelementptr walks through a scalar in the initializer of @q"),
    ("@q = global i32* @nope\n", "unknown global @nope in the initializer of @q"),
], ids=["bitcast_widths", "bitcast_int_to_double", "load_aggregate",
        "constant_gep_through_scalar", "constant_gep_register_index",
        "initializer_gep", "initializer_global"])
def test_what_the_interpreter_cannot_run(text, message):
    assert any(message in m for m in _messages(text))


def _hand_edited(edit):
    """A valid module with one instruction of @f changed by `edit`."""
    module = parse_module("""
define void @f(i64 %i) {
  %s = alloca { i32, double }
  %p = getelementptr { i32, double }, { i32, double }* %s, i64 0, i32 1
  store double 1.0, double* %p
  ret void
}
""")
    assert validate(module) == []
    edit({ins.opcode: ins for ins in module.functions[0].blocks[0].instructions})
    return [d.message for d in validate(module)]


def test_hand_built_gep_and_store():
    from lcfi.ir.nodes import I32, intc, reg

    def struct_index_from_register(ins):
        ins["getelementptr"].operands[2] = reg("i", I32)

    def through_scalar(ins):
        ins["getelementptr"].operands.append(intc(0))

    def store_aggregate(ins):
        store = ins["store"]
        store.operands[0] = replace(store.operands[0], type=ins["alloca"].aux_type)

    def unknown_opcode(ins):
        ins["store"].opcode = "frobnicate"

    assert "getelementptr struct field index is not a constant" in _hand_edited(
        struct_index_from_register)
    assert "getelementptr walks through a scalar" in _hand_edited(through_scalar)
    assert "cannot store type { i32, double }" in _hand_edited(store_aggregate)
    assert "opcode 'frobnicate' not executable" in _hand_edited(unknown_opcode)
