"""Structural validation: well-formedness diagnostics for a parsed module.

Def-before-use: inside a block a register is read only after its definition;
a register from another block is read only where it is defined on every path
from the entry (`must_defined`, which for registers defined once is LLVM's
dominance rule), and a phi operand only where it is defined on every path
through its incoming edge. Blocks no path reaches are not checked.
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

    into, defs = must_defined(fn)
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
            diags.extend(_check_operands(ins, b, pos, fn, defined, into, defs,
                                         global_names))
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
                    defined: dict[str, str], into: dict[str, set],
                    defs: dict[str, set], global_names: set[str]) -> list[Diagnostic]:
    diags = []
    local_defs = {i.result for i in block.instructions[:pos] if i.result is not None}
    # a phi reads each operand on the edge from its label
    edges = ins.labels if ins.opcode == "phi" else [None] * len(ins.operands)
    for v, edge in zip(ins.operands, edges):
        for ref in operand_refs(v):
            r = ref.name
            if ref.kind == "global":
                if r not in global_names:
                    diags.append(Diagnostic(
                        f"unknown global @{r}", fn.name, block.label, ins.line))
            elif r not in defined:
                diags.append(Diagnostic(
                    f"undefined register %{r}", fn.name, block.label, ins.line))
            elif edge is not None:
                if edge in defs and r not in into[edge] | defs[edge]:
                    diags.append(Diagnostic(
                        f"phi operand %{r} is not defined on every path through %{edge}",
                        fn.name, block.label, ins.line))
            elif defined[r] == block.label:
                if r not in local_defs:
                    diags.append(Diagnostic(
                        f"register %{r} used before definition", fn.name, block.label,
                        ins.line))
            elif r not in into[block.label]:
                diags.append(Diagnostic(
                    f"register %{r} is not defined on every path to its use",
                    fn.name, block.label, ins.line))
    return diags


def must_defined(fn: IrFunction) -> tuple[dict, dict]:
    """Per block label: the registers defined on every path into the block,
    and the registers the block defines. A block no path reaches gets every
    register of the function."""
    defs = {b.label: {i.result for i in b.instructions if i.result is not None}
            for b in fn.blocks}
    preds = {label: set() for label in defs}
    for b in fn.blocks:
        for ins in b.instructions:
            if ins.opcode == "br":
                for label in ins.labels:
                    if label in preds:
                        preds[label].add(b.label)
    params = {name for name, _t in fn.params}
    everything = params.union(*defs.values())
    entry = fn.blocks[0].label
    into = {label: everything for label in defs}
    into[entry] = params
    changed = True
    while changed:
        changed = False
        for label, ps in preds.items():
            if label != entry and ps:
                new = set.intersection(*(into[p] | defs[p] for p in ps))
                if new != into[label]:
                    into[label], changed = new, True
    return into, defs


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
