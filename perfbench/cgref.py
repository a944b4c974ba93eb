"""Scaled conjugate-gradient programs and their expected output.

`cg_program(template, n)` rewrites the 4x4 `tests/fixtures/cg.ll` into an
n x n version of the same program: the tridiagonal SPD matrix (2 on the
diagonal, -1 beside it) and the right-hand side b = e_1 + e_n. At n = 4 the
rewrite reproduces the fixture byte for byte.

`cg_stdout(n)` computes what that program prints in plain Python, in the
same loop order and with the same `%e` formatting, without lcfi's
interpreter. It is the independent reference for every golden run.
"""

from __future__ import annotations

import math


def _matrix(n: int) -> list[float]:
    return [2.0 if r == c else -1.0 if abs(r - c) == 1 else 0.0
            for r in range(n) for c in range(n)]


def _rhs(n: int) -> list[float]:
    return [1.0 if i in (0, n - 1) else 0.0 for i in range(n)]


def _array_init(values: list[float]) -> str:
    return ", ".join(f"double {v!r}" for v in values)


def _replace(text: str, old: str, new: str, count: int) -> str:
    found = text.count(old)
    if found != count:
        raise ValueError(f"cg template: expected {count} x {old!r}, found {found}")
    return text.replace(old, new)


def cg_program(template: str, n: int) -> str:
    """The cg.ll template rewritten for an n x n system."""
    text = _replace(template, _array_init(_matrix(4)), _array_init(_matrix(n)), 1)
    text = _replace(text, _array_init(_rhs(4)), _array_init(_rhs(n)), 1)
    text = _replace(text, "[16 x double]", f"[{n * n} x double]", 3)
    text = _replace(text, "[4 x double]", f"[{n} x double]", 27)
    text = _replace(text, "i32 4)", f"i32 {n})", 7)
    text = _replace(text, "icmp slt i32 %k0, 4", f"icmp slt i32 %k0, {n}", 1)
    text = _replace(text, "on a 4x4 tridiagonal", f"on a {n}x{n} tridiagonal", 1)
    return text


def _dot(a: list[float], c: list[float]) -> float:
    s = 0.0
    for x, y in zip(a, c):
        s = s + x * y
    return s


def cg_stdout(n: int) -> str:
    """What the n x n cg program prints, computed without the interpreter."""
    a, b = _matrix(n), _rhs(n)
    x = [0.0] * n
    r = list(b)
    p = list(b)
    rr = _dot(r, r)
    resid = math.sqrt(rr)
    out = []
    it = 0
    while it < 50:
        ap = [_dot(a[row * n:(row + 1) * n], p) for row in range(n)]
        alpha = rr / _dot(p, ap)
        x = [x[i] + alpha * p[i] for i in range(n)]
        r = [r[i] + (-alpha) * ap[i] for i in range(n)]
        rr2 = _dot(r, r)
        it += 1
        resid = math.sqrt(rr2)
        out.append("iter %d residual %e\n" % (it, resid))
        if resid < 1e-10:
            break
        beta = rr2 / rr
        p = [r[i] + beta * p[i] for i in range(n)]
        rr = rr2
    out.append("Iterations = %d\n" % it)
    out.append("final residual: %e\n" % resid)
    return "".join(out)
