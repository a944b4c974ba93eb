import os
import subprocess
import sys
from itertools import count

import pytest

from lcfi.ir.parser import parse_module
from lcfi.instrument import assign_indices

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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
