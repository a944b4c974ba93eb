import os
import subprocess
import sys
from itertools import count

import pytest

from lcfi.ir.parser import parse_module
from lcfi.instrument import assign_indices

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# printf directives, an argument of each, and what C's printf prints for it.
PRINTF_CASES = [
    ("%E", "double 1.5", "1.500000E+00"),
    ("%G", "double 1.0e-10", "1E-10"),
    ("%F", "double 0x7FF0000000000000", "INF"),
    ("%08f", "double 0x7FF0000000000000", "     inf"),
    ("%f", "double 0xFFF8000000000000", "-nan"),
    ("%x", "i32 -1", "ffffffff"),
    ("%u", "i32 -1", "4294967295"),
    ("%lu", "i64 -1", "18446744073709551615"),
    ("%hhd", "i32 300", "44"),
    ("%hu", "i32 -1", "65535"),
    ("%o", "i32 8", "10"),
    ("%#o", "i32 8", "010"),
    ("%#x", "i32 0", "0"),
    ("%.0d", "i32 0", ""),
    ("%05.3d", "i32 5", "  005"),
    ("%-3c|", "i32 65", "A  |"),
    ("%.2s|%-4s|", "i8* getelementptr ([4 x i8], [4 x i8]* @abc, i64 0, i64 0), "
     "i8* getelementptr ([4 x i8], [4 x i8]* @abc, i64 0, i64 0)", "ab|abc |"),
    ("%p", "i8* null", "(nil)"),
]


def printf_program(cases) -> str:
    """A program that prints each of PRINTF_CASES' arguments with its
    directive, a line each."""
    lines = ['@abc = constant [4 x i8] c"abc\\00"', "declare i32 @printf(i8*, ...)"]
    calls = []
    for k, (fmt, arg, _printed) in enumerate(cases):
        n = len(fmt) + 2
        lines.append(f'@f{k} = constant [{n} x i8] c"{fmt}\\0A\\00"')
        calls.append(f"%r{k} = call i32 (i8*, ...) @printf(i8* getelementptr "
                     f"([{n} x i8], [{n} x i8]* @f{k}, i64 0, i64 0), {arg})")
    return "\n".join(lines) + "\n" + _main(*calls)


def _main(*body: str) -> str:
    return ("define i32 @main() {\nentry:\n" + "".join(f"  {i}\n" for i in body)
            + "  ret i32 0\n}\n")


# A pointer that getelementptr takes below address 0, compared signed with
# its base before and after a store and load, and with itself loaded back.
# LLVM's pointers are 64-bit and wrap, so each compare holds: the program
# prints 1, 1 and 1, wherever the base lies below 2**63.
POINTER_ICMP_PROGRAM = (
    '@fmt = constant [4 x i8] c"%d\\0A\\00"\ndeclare i32 @printf(i8*, ...)\n'
    + _main("%a = alloca [16 x i8]",
            "%b = getelementptr [16 x i8], [16 x i8]* %a, i64 0, i64 0",
            "%p = getelementptr i8, i8* %b, i64 -9223372036854775807",
            "%s = alloca i8*",
            "store i8* %p, i8** %s",
            "%q = load i8*, i8** %s",
            "%c1 = icmp slt i8* %p, %b",
            "%c2 = icmp slt i8* %q, %b",
            "%c3 = icmp eq i8* %p, %q",
            "%f = getelementptr [4 x i8], [4 x i8]* @fmt, i64 0, i64 0",
            *(f"%x{k} = zext i1 %c{k} to i32" for k in (1, 2, 3)),
            *(f"%r{k} = call i32 (i8*, ...) @printf(i8* %f, i32 %x{k})" for k in (1, 2, 3))))


# A program that scans two %c and a %s from stdin and prints them with
# "%d %d %s". C's scanf reads bytes and takes only ASCII whitespace for a
# separator, so on SCANF_BYTES_STDIN it prints SCANF_BYTES_PRINTED: the two
# bytes of the UTF-8 é as signed chars, then a word that starts with and
# holds a no-break space.
SCANF_BYTES_PROGRAM = (
    '@in = constant [8 x i8] c"%c%c %s\\00"\n'
    '@out = constant [10 x i8] c"%d %d %s\\0A\\00"\n'
    "declare i32 @scanf(i8*, ...)\ndeclare i32 @printf(i8*, ...)\n"
    + _main("%c1 = alloca i8",
            "%c2 = alloca i8",
            "%s = alloca [16 x i8]",
            "%sp = getelementptr [16 x i8], [16 x i8]* %s, i64 0, i64 0",
            "%fi = getelementptr [8 x i8], [8 x i8]* @in, i64 0, i64 0",
            "%n = call i32 (i8*, ...) @scanf(i8* %fi, i8* %c1, i8* %c2, i8* %sp)",
            "%v1 = load i8, i8* %c1",
            "%v2 = load i8, i8* %c2",
            "%w1 = sext i8 %v1 to i32",
            "%w2 = sext i8 %v2 to i32",
            "%fo = getelementptr [10 x i8], [10 x i8]* @out, i64 0, i64 0",
            "%r = call i32 (i8*, ...) @printf(i8* %fo, i32 %w1, i32 %w2, i8* %sp)"))
SCANF_BYTES_STDIN = "\u00e9\u00a0a\u00a0b c"
SCANF_BYTES_PRINTED = "-61 -87 \u00a0a\u00a0b\n"

# Programs whose fault shows in their text, in two-type syntax with a declare
# for each C function, and the error lcfi gives each after "<path>: ". Only
# the entry-point faults and a global the stack arena cannot hold are valid
# LLVM IR (llvm-as accepts them).
UNRUNNABLE = {
    "alloca_void": (_main("%p = alloca void"),
                    "line 3: alloca of unsized type void in @main:%entry"),
    "alloca_array_of_void": (_main("%p = alloca [3 x void]"),
                             "line 3: alloca of unsized type [3 x void] in @main:%entry"),
    "alloca_struct_holding_void": (
        _main("%p = alloca { i32, void }"),
        "line 3: alloca of unsized type { i32, void } in @main:%entry"),
    "global_void": ("@g = global void zeroinitializer\n" + _main(),
                    "line 1: unsized type void of @g"),
    "element_list_for_a_struct": (
        "@g = global { i32, i32 } [i32 1, i32 2]\n" + _main(),
        "line 1: 2 elements for type { i32, i32 } in the initializer of @g"),
    "long_c_string_last": (
        '@g = global [2 x i8] c"abcdef"\n' + _main(),
        "line 1: 6 bytes for type [2 x i8] in the initializer of @g"),
    "c_string_for_an_i8": ('@g = global i8 c"ab"\n' + _main(),
                           "line 1: 2 bytes for type i8 in the initializer of @g"),
    "negative_alloca_count": (_main("%p = alloca [-4 x i32]"),
                              "3:16: element count must be a non-negative integer"),
    "negative_global_count": ("@g = global [-2 x i32] zeroinitializer\n" + _main(),
                              "1:14: element count must be a non-negative integer"),
    "long_c_string_before_another_global": (
        '@s = global [2 x i8] c"hello\\00"\n@z = global [4 x i8] zeroinitializer\n'
        '@f = constant [4 x i8] c"%s\\0A\\00"\ndeclare i32 @printf(i8*, ...)\n'
        + _main("%r = call i32 (i8*, ...) @printf(i8* getelementptr ([4 x i8], [4 x i8]* @f,"
                " i64 0, i64 0), i8* getelementptr ([4 x i8], [4 x i8]* @z, i64 0, i64 0))"),
        "line 1: 6 bytes for type [2 x i8] in the initializer of @s"),
    "elements_of_another_kind": (
        "@g = global [2 x i32] [double 1.5, double 2.5]\n" + _main(),
        "line 1: element 1 is double, not i32 in the initializer of @g; "
        "line 1: element 2 is double, not i32 in the initializer of @g"),
    "short_element_list": (
        "@g = global [2 x i32] [i32 1]\n" + _main(),
        "line 1: 1 elements for type [2 x i32] in the initializer of @g"),
    "sqrt_of_two_arguments": (
        "declare double @sqrt(double)\n" + _main("%x = call double @sqrt(double 1.0, double 2.0)"),
        "line 4: call to @sqrt passes 2 args, expected 1 in @main:%entry"),
    "sqrt_of_an_i32": (
        "declare double @sqrt(double)\n" + _main("%x = call double @sqrt(i32 4)"),
        "line 4: call to @sqrt passes i32 as argument 1, which is float in @main:%entry"),
    "malloc_of_a_double": (
        "declare i8* @malloc(i64)\n" + _main("%p = call i8* @malloc(double 1.5)"),
        "line 4: call to @malloc passes double as argument 1, which is int in @main:%entry"),
    "memset_of_a_double_size": (
        "declare i8* @memset(i8*, i32, i64)\n"
        + _main("%p = alloca [4 x i8]", "%q = getelementptr [4 x i8], [4 x i8]* %p, i64 0, i64 0",
                "%r = call i8* @memset(i8* %q, i32 0, double 1.5)"),
        "line 6: call to @memset passes double as argument 3, which is int in @main:%entry"),
    "fclose_of_a_double": (
        "declare i32 @fclose(i8*)\n" + _main("%r = call i32 @fclose(double 1.5)"),
        "line 4: call to @fclose passes double as argument 1, which is ptr in @main:%entry"),
    "align_of_a_word": ("@g = global i32 0, align x\n" + _main(),
                        "1:26: expected an integer alignment"),
    "align_not_a_power_of_two": (_main("%p = alloca i32, align 3"),
                                 "3:26: alignment is not a power of two"),
    "global_past_the_stack_arena": (
        "@g = global [100000000 x i32] zeroinitializer\n" + _main(),
        "line 1: @g of 400000000 bytes does not fit the 67108864-byte stack arena"),
    "no_main": ("define i32 @f() {\nentry:\n  ret i32 0\n}\n", "no function @main"),
    "main_with_a_parameter": ("define i32 @main(i32 %x) {\nentry:\n  ret i32 %x\n}\n",
                              "@main takes 1 parameter(s); a run passes none"),
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run_python(code: str, *args: str, timeout: int = 60) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this lcfi."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["lcfi"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True).stdout


def load_fixture_module(name: str):
    path = fixture_path(name)
    with open(path, encoding="utf-8") as fh:
        return parse_module(fh.read(), source_name=name)


@pytest.fixture
def read_lines(tmp_path):
    """read_trace of a new file in tmp_path that holds these lines, each
    item one line (a newline that ends an item is its line end)."""
    from lcfi.traces import read_trace
    made = count()

    def read(lines):
        path = tmp_path / f"lines.{next(made)}.txt"
        path.write_bytes("".join(line.removesuffix("\n") + "\n" for line in lines).encode())
        return read_trace(path)
    return read


def rendered(trace) -> bytes:
    """A run's trace as write_trace writes it: bytes, so a zero of the other
    sign, which compares equal, still shows."""
    from lcfi.traces import _blocks
    return b"".join(_blocks(trace))


@pytest.fixture(scope="session")
def fixtures_dir() -> str:
    return FIXTURES


@pytest.fixture(scope="session")
def demo_module():
    return load_fixture_module("demo.ll")


@pytest.fixture(scope="session")
def demo_indexed(demo_module):
    return assign_indices(demo_module)


@pytest.fixture(scope="session")
def demo_io():
    from lcfi.vm.machine import IoConfig
    return IoConfig(files={"in.txt": "4 3 3\n"})
