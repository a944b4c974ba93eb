"""lcfi against LLVM's own tools: programs lcfi runs assemble with llvm-as
and print under lli what `lcfi profile` prints, and programs lcfi refuses
at load are refused by llvm-as too.

The tests need `llvm-as` and `lli` on PATH, of LLVM 16 or older: the
fixtures use typed pointers (`i32*`), which later versions no longer read.
Without them the tests are skipped.
"""

import importlib.util
import os
import re
import shutil
import subprocess

import pytest

from lcfi.cli import main

from conftest import (POINTER_ICMP_PROGRAM, PRINTF_CASES, SCANF_BYTES_PRINTED,
                      SCANF_BYTES_PROGRAM, SCANF_BYTES_STDIN, UNRUNNABLE, fixture_path,
                      printf_program)

# Programs lcfi refuses that are valid IR, which llvm-as accepts: faults in
# where a run starts, and a global larger than lcfi's stack arena.
VALID_IR = ("no_main", "main_with_a_parameter", "global_past_the_stack_arena")


@pytest.fixture(scope="module")
def llvm() -> dict:
    """The path of each LLVM tool the tests run."""
    tools = {}
    for name in ("llvm-as", "lli"):
        path = shutil.which(name)
        if path is None:
            pytest.skip(f"{name} is not on PATH")
        version = subprocess.run([path, "--version"], capture_output=True, text=True,
                                 timeout=60).stdout
        major = re.search(r"version (\d+)\.", version)
        if major is None or int(major.group(1)) > 16:
            pytest.skip(f"{name} is not of LLVM 16 or older, which reads typed "
                        f"pointers: {version.strip()!r}")
        tools[name] = path
    return tools


def _assembles(llvm: dict, path) -> subprocess.CompletedProcess:
    return subprocess.run([llvm["llvm-as"], str(path), "-o", os.devnull],
                          capture_output=True, text=True, timeout=60)


def _prints_as_lli(llvm: dict, capsys, path, stdin: str = "") -> str:
    """What `lcfi profile` prints for the program at `path` on `stdin`,
    checked to be what lli prints for it."""
    assert _assembles(llvm, path).returncode == 0
    want = subprocess.run([llvm["lli"], str(path)], input=stdin, capture_output=True,
                          encoding="utf-8", timeout=120).stdout
    assert main(["profile", str(path), "--stdin", stdin]) == 0
    got = capsys.readouterr().out
    assert got == want
    return got


@pytest.mark.parametrize("name", ["cg.ll", "masked.ll", "fragile.ll"])
def test_a_fixture_prints_as_under_lli(llvm, capsys, name):
    assert _prints_as_lli(llvm, capsys, fixture_path(name))


@pytest.mark.parametrize("n", [4, 12])
def test_a_scaled_cg_program_prints_as_under_lli(llvm, capsys, tmp_path, n):
    spec = importlib.util.spec_from_file_location(
        "cgref", os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "cgref.py"))
    cgref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cgref)
    with open(fixture_path("cg.ll"), encoding="utf-8") as fh:
        text = cgref.cg_program(fh.read(), n)
    prog = tmp_path / f"cg{n}.ll"
    prog.write_text(text)
    assert _prints_as_lli(llvm, capsys, prog) == cgref.cg_stdout(n)


@pytest.mark.parametrize("name", list(UNRUNNABLE))
def test_llvm_as_refuses_what_lcfi_refuses_at_load(llvm, tmp_path, name):
    prog = tmp_path / "bad.ll"
    prog.write_text(UNRUNNABLE[name][0])
    result = _assembles(llvm, prog)
    if name in VALID_IR:  # lcfi's rules for where a run starts and its arena, not LLVM's
        assert result.returncode == 0, result.stderr
    else:
        assert result.returncode != 0 and "error:" in result.stderr


def test_printf_prints_as_under_lli(llvm, capsys, tmp_path):
    prog = tmp_path / "printf.ll"
    prog.write_text(printf_program(PRINTF_CASES))
    assert _prints_as_lli(llvm, capsys, prog) == "".join(
        printed + "\n" for _fmt, _arg, printed in PRINTF_CASES)


def test_a_wrapped_pointer_compares_as_under_lli(llvm, capsys, tmp_path):
    prog = tmp_path / "icmp.ll"
    prog.write_text(POINTER_ICMP_PROGRAM)
    assert _prints_as_lli(llvm, capsys, prog) == "1\n1\n1\n"


def test_scanf_reads_bytes_as_under_lli(llvm, capsys, tmp_path):
    prog = tmp_path / "scanf.ll"
    prog.write_text(SCANF_BYTES_PROGRAM)
    assert _prints_as_lli(llvm, capsys, prog, SCANF_BYTES_STDIN) == SCANF_BYTES_PRINTED
