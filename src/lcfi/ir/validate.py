"""Structural validation: well-formedness diagnostics for a parsed module.

Def-before-use: inside a block a register is read only after its definition;
a register from another block is read only where it is defined on every path
from the entry (`must_defined`, which for registers defined once is LLVM's
dominance rule), and a phi operand only where it is defined on every path
through its incoming edge. Blocks no path reaches are not checked.

Phis: none in the entry block, and each phi names a value for every block
that branches to its own.

Types: every opcode is one the interpreter runs, loads and stores move
scalars, a bitcast converts between pointers or between same-width integer
and float kinds, and every getelementptr path (constant ones included) steps
only through arrays and structs, with constant struct field numbers.

The interpreter decodes only modules that pass (see `lcfi.vm.decode`), so
every rule it relies on is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import (BITCASTS, OPCODES, SCALARS, TERMINATORS, GlobalDef, Instruction,
                    IrFunction, IrModule, ValueRef, gep_layout)


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

    for g in module.globals:
        diags.extend(Diagnostic(f"{problem} in the initializer of @{g.name}")
                     for problem in _initializer_problems(g, global_names))
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

    preds = _predecessors(fn)
    into, defs = must_defined(fn, preds)
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
            diags.extend(Diagnostic(problem, fn.name, b.label, ins.line)
                         for problem in _type_problems(ins))
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
                if b is fn.blocks[0]:
                    diags.append(Diagnostic("phi in entry block", fn.name, b.label, ins.line))
                for lbl in labels:
                    if lbl in preds[b.label] and lbl not in ins.labels:
                        diags.append(Diagnostic(
                            f"phi has no incoming edge from %{lbl}", fn.name, b.label,
                            ins.line))
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


def _type_problems(ins: Instruction) -> list[str]:
    """What the interpreter cannot run in `ins`, by its types."""
    op = ins.opcode
    problems = [p for v in ins.operands for p in _constant_problems(v)]
    if op not in OPCODES:
        problems.append(f"opcode {op!r} not executable")
    elif op == "bitcast":
        src, dst = ins.operands[0].type, ins.result_type
        if not (src.is_pointer() and dst.is_pointer()) and (src.kind, dst.kind) not in BITCASTS:
            problems.append(f"bitcast {src.render()} to {dst.render()} unsupported")
    elif op == "load" and ins.result_type.kind not in SCALARS:
        problems.append(f"cannot load type {ins.result_type.render()}")
    elif op == "store" and ins.operands[0].type.kind not in SCALARS:
        problems.append(f"cannot store type {ins.operands[0].type.render()}")
    elif op == "getelementptr":
        try:
            gep_layout(ins.aux_type, ins.operands[1:])
        except ValueError as e:
            problems.append(str(e))
    return problems


def _constant_problems(v: ValueRef) -> list[str]:
    """The constant getelementptrs in an operand that cannot be laid out."""
    if v.kind != "gep":
        return []
    problems = _constant_problems(v.base)
    try:
        _offset, terms = gep_layout(v.gep_source, v.indices)
    except ValueError as e:
        problems.append(str(e))
    else:
        if terms:
            problems.append(f"constant {v.render()} has a non-constant index")
    return problems


def _initializer_problems(g: GlobalDef, global_names: set[str]) -> list[str]:
    init = g.init
    if init is None or init.kind not in ("scalar", "array"):
        return []
    t, values = ((g.type, (init.value,)) if init.kind == "scalar"
                 else (g.type.elem, init.values))
    if t.kind not in SCALARS:
        return [f"cannot store type {t.render()}"]
    return ([f"unknown global @{r.name}" for v in values for r in operand_refs(v)
             if r.kind == "global" and r.name not in global_names]
            + [p for v in values for p in _constant_problems(v)])


def _predecessors(fn: IrFunction) -> dict[str, set]:
    """Per block label: the labels of the blocks that branch to it."""
    preds = {b.label: set() for b in fn.blocks}
    for b in fn.blocks:
        for ins in b.instructions:
            if ins.opcode == "br":
                for label in ins.labels:
                    if label in preds:
                        preds[label].add(b.label)
    return preds


def must_defined(fn: IrFunction, preds: dict[str, set]) -> tuple[dict, dict]:
    """Per block label: the registers defined on every path into the block,
    and the registers the block defines. A block no path reaches gets every
    register of the function."""
    defs = {b.label: {i.result for i in b.instructions if i.result is not None}
            for b in fn.blocks}
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
