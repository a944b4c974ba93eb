"""Structural validation: well-formedness diagnostics for a parsed module.

No dominator analysis here. Def-before-use is enforced linearly inside each
block; a register defined in any other block of the same function is accepted
wherever it appears, and phi operands are exempt entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import Instruction, IrFunction, IrModule, TERMINATORS, ValueRef


@dataclass
class Diagnostic:
    message: str
    function: str = ""
    block: str = ""
    line: int = 0

    def __str__(self) -> str:
        where = []
        if self.function:
            where.append(f"@{self.function}")
        if self.block:
            where.append(f"%{self.block}")
        loc = " in " + ":".join(where) if where else ""
        prefix = f"line {self.line}: " if self.line else ""
        return f"{prefix}{self.message}{loc}"


def validate(module: IrModule) -> list[Diagnostic]:
    """Return all diagnostics for the module; an empty list means valid."""
    from ..vm.intrinsics import INTRINSIC_NAMES  # not at the top: lcfi.vm imports lcfi.ir
    diags: list[Diagnostic] = []

    seen_fn: set[str] = set()
    for fn in module.functions:
        if fn.name in seen_fn:
            diags.append(Diagnostic(f"duplicate function @{fn.name}"))
        seen_fn.add(fn.name)

    seen_glob: set[str] = set()
    for g in module.globals:
        if g.name in seen_glob:
            diags.append(Diagnostic(f"duplicate global @{g.name}"))
        seen_glob.add(g.name)

    global_names = seen_glob | {"stdin", "stdout", "stderr"}

    for fn in module.functions:
        diags.extend(_validate_function(fn, module, seen_fn, global_names,
                                        INTRINSIC_NAMES))
    return diags


def _validate_function(fn: IrFunction, module: IrModule, fn_names: set[str],
                       global_names: set[str],
                       intrinsics: frozenset[str]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []

    if not fn.blocks:
        diags.append(Diagnostic("missing terminator", fn.name))
        return diags

    labels = [b.label for b in fn.blocks]
    if len(set(labels)) != len(labels):
        diags.append(Diagnostic("duplicate block label", fn.name))
    label_set = set(labels)

    defined: dict[str, str] = {name: "param" for name, _ in fn.params}
    for b in fn.blocks:
        for ins in b.instructions:
            if ins.result is not None:
                if ins.result in defined:
                    diags.append(Diagnostic(
                        f"register %{ins.result} redefined", fn.name, b.label, ins.line))
                defined[ins.result] = b.label

    for b in fn.blocks:
        term = b.terminator()
        if term is None:
            diags.append(Diagnostic("missing terminator", fn.name, b.label))
        for pos, ins in enumerate(b.instructions):
            if ins.opcode in TERMINATORS and pos != len(b.instructions) - 1:
                diags.append(Diagnostic(
                    "instruction after terminator", fn.name, b.label, ins.line))
            diags.extend(_check_operands(ins, b, pos, fn, defined, global_names))
            if ins.opcode == "br":
                for lbl in ins.labels:
                    if lbl not in label_set:
                        diags.append(Diagnostic(
                            f"branch to unknown label %{lbl}", fn.name, b.label, ins.line))
            elif ins.opcode == "phi":
                for lbl in ins.labels:
                    if lbl not in label_set:
                        diags.append(Diagnostic(
                            f"phi references unknown label %{lbl}", fn.name, b.label, ins.line))
            elif ins.opcode == "call":
                diags.extend(_check_call(ins, fn, b, module, fn_names, intrinsics))
    return diags


def _check_operands(ins: Instruction, block, pos: int, fn: IrFunction,
                    defined: dict[str, str],
                    global_names: set[str]) -> list[Diagnostic]:
    diags = []
    local_defs = {i.result for i in block.instructions[:pos] if i.result is not None}
    for v in ins.operands:
        for ref in operand_refs(v):
            r = ref.name
            if ref.kind == "global":
                if r not in global_names:
                    diags.append(Diagnostic(
                        f"unknown global @{r}", fn.name, block.label, ins.line))
            elif r not in defined:
                diags.append(Diagnostic(
                    f"undefined register %{r}", fn.name, block.label, ins.line))
            elif defined[r] == block.label and ins.opcode != "phi" and r not in local_defs:
                diags.append(Diagnostic(
                    f"register %{r} used before definition", fn.name, block.label, ins.line))
    return diags


def operand_refs(v: ValueRef) -> list[ValueRef]:
    """The registers and globals an operand reads, constant geps included."""
    if v.kind == "gep":
        out = operand_refs(v.base)
        for i in v.indices:
            out.extend(operand_refs(i))
        return out
    return [v] if v.kind in ("reg", "global") else []


def _check_call(ins: Instruction, fn: IrFunction, block, module: IrModule,
                fn_names: set[str], intrinsics: frozenset[str]) -> list[Diagnostic]:
    callee = ins.callee
    target = module.function(callee)
    if target is not None:
        if len(ins.operands) != len(target.params):
            return [Diagnostic(
                f"call to @{callee} passes {len(ins.operands)} args, expected {len(target.params)}",
                fn.name, block.label, ins.line)]
        return []
    if callee in intrinsics:
        return []
    return [Diagnostic(f"call to unknown function @{callee}", fn.name, block.label, ins.line)]
