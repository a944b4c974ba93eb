"""Structural validation: well-formedness diagnostics for a parsed module.

Def-before-use: inside a block a register is read only after its definition;
a register from another block is read only where it is defined on every path
from the entry (`must_defined`, which for registers defined once is LLVM's
dominance rule), and a phi operand only where it is defined on every path
through its incoming edge. Blocks no path reaches are not checked.

Phis: none in the entry block, and each phi names a value for every block
that branches to its own.

Types: every opcode is one the interpreter runs, on operands and to a
result of the classes it takes (`add` integers, `sitofp` an integer to a
float, a condition an i1, an address a pointer, ...), loads and stores move
scalars, a bitcast converts between pointers or between same-width integer
and float kinds, and every getelementptr path (constant ones included)
steps only through arrays and structs, with constant struct field numbers.
An alloca or a global has a size (no void), and an initializer fits its
global: a c-string an i8 array, an element list an array of its kind.

Kinds: a register is read at its definition's kind (all pointers are one),
a select's two choices are of its result's kind, a call passes its callee's
parameter kinds and declares its return kind, a ret returns its function's
kind, and an intrinsic call passes the parameter classes of its signature
in `lcfi.vm.intrinsics.INTRINSICS` and declares void or the class of value
it returns, so no value of another type reaches a register or a trace.

The interpreter decodes only modules that pass (see `lcfi.vm.decode`), so
every rule it relies on is checked here, but for decode's `@main`, which a
module that is only instrumented need not have.
"""

from __future__ import annotations

from dataclasses import dataclass

from .nodes import (BITCASTS, OPCODES, SCALARS, TERMINATORS, VOID, GlobalDef,
                    Instruction, IrFunction, IrModule, IrType, ValueRef, gep_layout)


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
    diags: list[Diagnostic] = []

    seen_fn: set[str] = set()
    for fn in module.functions:
        if fn.name in seen_fn:
            diags.append(Diagnostic(f"duplicate function @{fn.name}"))
        seen_fn.add(fn.name)

    seen_glob: set[str] = set()
    for g in module.globals:
        if g.name in seen_glob:
            diags.append(Diagnostic(f"duplicate global @{g.name}", line=g.line))
        seen_glob.add(g.name)

    global_names = seen_glob | {"stdin", "stdout", "stderr"}

    for g in module.globals:
        if not _sized(g.type):
            diags.append(Diagnostic(f"unsized type {g.type.render()} of @{g.name}", line=g.line))
        else:
            diags.extend(Diagnostic(f"{problem} in the initializer of @{g.name}", line=g.line)
                         for problem in _initializer_problems(g, global_names))
    for fn in module.functions:
        diags.extend(_validate_function(fn, module, global_names))
    return diags


def _validate_function(fn: IrFunction, module: IrModule,
                       global_names: set[str]) -> list[Diagnostic]:
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
    types: dict[str, IrType] = dict(fn.params)  # each register's definition's type
    for b in fn.blocks:
        for ins in b.instructions:
            if ins.result is not None:
                if ins.result in defined:
                    diags.append(Diagnostic(
                        f"register %{ins.result} redefined", fn.name, b.label, ins.line))
                defined[ins.result] = b.label
                types[ins.result] = ins.result_type

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
                         for problem in _type_problems(ins) + _kind_problems(ins, fn, types))
            uses = "branch to" if ins.opcode == "br" else "phi references"  # only they have labels
            diags.extend(Diagnostic(f"{uses} unknown label %{lbl}", fn.name, b.label, ins.line)
                         for lbl in ins.labels if lbl not in label_set)
            if ins.opcode == "phi":
                if b is fn.blocks[0]:
                    diags.append(Diagnostic("phi in entry block", fn.name, b.label, ins.line))
                diags.extend(Diagnostic(f"phi has no incoming edge from %{lbl}", fn.name,
                                        b.label, ins.line)
                             for lbl in labels if lbl in preds[b.label] and lbl not in ins.labels)
            elif ins.opcode == "call":
                diags.extend(_check_call(ins, fn, b, module))
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


# The classes of value (_value_class) that each opcode below takes as its first
# operand and gives as its result.
_INT, _FLOAT = ("int",), ("float",)
_CLASSES = {
    **dict.fromkeys(("add", "sub", "mul", "sdiv", "srem", "zext", "sext", "trunc"),
                    (_INT, _INT)),
    **dict.fromkeys(("fadd", "fsub", "fmul", "fdiv", "fneg", "fpext", "fptrunc"),
                    (_FLOAT, _FLOAT)),
    "fptosi": (_FLOAT, _INT), "sitofp": (_INT, _FLOAT),
    "icmp": (("int", "ptr"), _INT), "fcmp": (_FLOAT, _INT),
}
# The operands that an opcode takes of one kind: (position, kind).
_FIXED_KINDS = {"select": ((0, "i1"),), "br": ((0, "i1"),), "load": ((0, "ptr"),),
                "store": ((1, "ptr"),), "getelementptr": ((0, "ptr"),)}


def _type_problems(ins: Instruction) -> list[str]:
    """What the interpreter cannot run in `ins`, by its types."""
    op = ins.opcode
    problems = [p for v in ins.operands for p in _constant_problems(v)]
    problems += [f"{op} operand {pos + 1} is {ins.operands[pos].type.render()}, not {kind}"
                 for pos, kind in _FIXED_KINDS.get(op, ())
                 if pos < len(ins.operands) and ins.operands[pos].type.kind != kind]
    if op not in OPCODES:
        problems.append(f"opcode {op!r} not executable")
    elif op in _CLASSES:
        src, dst = ins.operands[0].type, ins.result_type
        takes, gives = _CLASSES[op]
        bad = _value_class(src) not in takes or _value_class(dst) not in gives
        if not bad and OPCODES[op] == "cast" and takes == gives:
            # within a class, trunc and fptrunc narrow and the other casts widen
            bad = (src.int_bits() > dst.int_bits()) != op.endswith("trunc") or src == dst
        if bad:
            to = f" to {dst.render()}" if OPCODES[op] == "cast" else ""
            problems.append(f"{op} {src.render()}{to} unsupported")
    elif op == "bitcast":
        src, dst = ins.operands[0].type, ins.result_type
        if not (src.is_pointer() and dst.is_pointer()) and (src.kind, dst.kind) not in BITCASTS:
            problems.append(f"bitcast {src.render()} to {dst.render()} unsupported")
    elif op == "alloca" and not _sized(ins.aux_type):
        problems.append(f"alloca of unsized type {ins.aux_type.render()}")
    elif op == "load" and ins.result_type.kind not in SCALARS:
        problems.append(f"cannot load type {ins.result_type.render()}")
    elif op == "store" and ins.operands[0].type.kind not in SCALARS:
        problems.append(f"cannot store type {ins.operands[0].type.render()}")
    elif op == "getelementptr":
        try:
            gep_layout(ins.aux_type, ins.operands[1:])
        except ValueError as e:
            problems.append(str(e))
        problems += [f"getelementptr index of type {v.type.render()}"
                     for v in ins.operands[1:] if not v.type.is_integer()]
    return problems


def _kind_problems(ins: Instruction, fn: IrFunction, types: dict) -> list[str]:
    """The registers `ins` reads at another kind than their definitions',
    a select's second choice of another kind than its result (the parser
    types it on its own), and, for a ret, a kind other than the function's."""
    problems = [f"register %{v.name} is {types[v.name].render()}, read as {v.type.render()}"
                for v in ins.operands
                if v.kind == "reg" and v.name in types and v.type.kind != types[v.name].kind]
    if ins.opcode == "select" and ins.operands[2].type.kind != ins.result_type.kind:
        problems.append(f"select operand 3 is {ins.operands[2].type.render()}, "
                        f"not {ins.result_type.render()}")
    if ins.opcode == "ret":
        t = ins.operands[0].type if ins.operands else VOID
        if t.kind != fn.return_type.kind:
            problems.append(f"ret {t.render()} in a function returning "
                            f"{fn.return_type.render()}")
    return problems


def _value_class(t: IrType) -> str:
    """The class of value a type holds, as INTRINSICS names them."""
    return "int" if t.is_integer() else "float" if t.is_float() else t.kind


def _constant_problems(v: ValueRef) -> list[str]:
    """The constant getelementptrs in an operand that cannot be laid out."""
    if v.kind != "gep":
        return []
    problems = _constant_problems(v.base)
    try:
        _offset, terms, _t = gep_layout(v.gep_source, v.indices)
    except ValueError as e:
        problems.append(str(e))
    else:
        if terms:
            problems.append(f"constant {v.render()} has a non-constant index")
    return problems


def _sized(t: IrType) -> bool:
    """Whether `t` has a size in memory: it is not void and holds no void."""
    return t.kind != "void" and all(map(_sized, (t.elem,) if t.kind == "array" else t.fields))


def _initializer_problems(g: GlobalDef, global_names: set[str]) -> list[str]:
    init, t = g.init, g.type
    if init is None or init.kind == "zero":
        return []
    values = (init.value,) if init.kind == "scalar" else init.values  # a c-string has none
    if init.kind != "scalar":  # one item per element of an array, of i8s for a c-string
        n = len(init.data) if init.kind == "bytes" else len(values)
        if t.kind != "array" or t.count != n or init.kind == "bytes" and t.elem.kind != "i8":
            return [f"{n} {'bytes' if init.kind == 'bytes' else 'elements'} for type "
                    f"{t.render()}"]
        t = t.elem
    if t.kind not in SCALARS:
        return [f"cannot store type {t.render()}"]
    return ([f"element {k} is {v.type.render()}, not {t.render()}"
             for k, v in enumerate(values, 1) if v.type.kind != t.kind]
            + [f"unknown global @{r.name}" for v in values for r in operand_refs(v)
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


def _check_call(ins: Instruction, fn: IrFunction, block, module: IrModule) -> list[Diagnostic]:
    from ..vm.intrinsics import INTRINSICS  # not at the top: lcfi.vm imports lcfi.ir
    callee, declared, args = ins.callee, ins.result_type, ins.operands
    target = module.function(callee)
    # each parameter as (the kind or class an argument needs, how to show it)
    if target is not None:
        params = [(t.kind, t.render()) for _name, t in target.params]
        returns, fits = target.return_type.render(), declared.kind == target.return_type.kind
    elif callee in INTRINSICS:  # a final ... takes any more arguments
        _impl, returns, classes = INTRINSICS[callee]
        params, fits = [(c, c) for c in classes], _value_class(declared) in ("void", returns)
    else:
        return [Diagnostic(f"call to unknown function @{callee}", fn.name, block.label, ins.line)]
    fixed = [p for p in params if p[0] is not ...]
    varargs = len(fixed) < len(params)
    if len(args) < len(fixed) or len(args) > len(fixed) and not varargs:
        problems = [f"call to @{callee} passes {len(args)} args, expected {len(fixed)}"]
    else:
        problems = [f"call to @{callee} passes {v.type.render()} as argument {k}, "
                    f"which is {shown}"
                    for k, (v, (want, shown)) in enumerate(zip(args, fixed), 1)
                    if want not in (v.type.kind, _value_class(v.type))]
    if not fits:
        problems.append(f"call to @{callee} declares {declared.render()}, which returns {returns}")
    return [Diagnostic(problem, fn.name, block.label, ins.line) for problem in problems]
