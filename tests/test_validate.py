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
