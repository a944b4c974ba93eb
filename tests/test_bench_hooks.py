"""The benchmark's span hooks replace lcfi names by lookup at call time, so
a rename in lcfi would break `perfbench/run.py --trace 1` without an error in
lcfi's own tests. This reads perfbench/child.py (it never imports it) and
checks that every name `Spans.install` wraps still exists."""

import ast
import importlib
import os

CHILD = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "child.py")


def _wrapped_names() -> list[tuple[str, str]]:
    """(module, attribute) for each name Spans.install replaces."""
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    install = next(n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    modules = {alias.asname: alias.name for n in ast.walk(install)
               if isinstance(n, ast.Import) for alias in n.names}
    names = []
    for node in ast.walk(install):
        if isinstance(node, ast.For):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "setattr"):
                    module = modules[call.args[0].id]
                    for item in node.iter.elts:
                        attr = item.elts[0] if isinstance(item, ast.Tuple) else item
                        names.append((module, attr.value))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in modules):
                    names.append((modules[target.value.id], target.attr))
    return names


def test_wrapped_names_exist():
    names = _wrapped_names()
    assert {m for m, _a in names} == {"lcfi.campaign", "lcfi.vm.machine"}
    assert ("lcfi.campaign", "Machine") in names
    missing = [f"{m}.{a}" for m, a in names
               if not hasattr(importlib.import_module(m), a)]
    assert missing == []
