"""Canonical text form for modules; inverse of the parser.

Output uses the two-type load/store spelling and explicit block labels, so
anything printed here reparses to a structurally equal module. Instructions
that carry an injection index get a trailing ``; !lcfi_index N`` annotation,
which the parser reads back.
"""

from __future__ import annotations

from .nodes import OPCODES, GlobalDef, Instruction, IrFunction, IrModule, ValueRef


def _encode_cstring(data: bytes) -> str:
    out = []
    for b in data:
        if 32 <= b < 127 and b not in (0x22, 0x5C):
            out.append(chr(b))
        else:
            out.append(f"\\{b:02X}")
    return 'c"' + "".join(out) + '"'


def _typed(v: ValueRef) -> str:
    return f"{v.type.render()} {v.render()}"


def _render_global(g: GlobalDef) -> str:
    parts = [f"@{g.name} ="]
    if g.external:
        parts.append("external")
    parts.append("constant" if g.is_const else "global")
    parts.append(g.type.render())
    if g.init is not None:
        init = g.init
        if init.kind == "bytes":
            parts.append(_encode_cstring(init.data))
        elif init.kind == "zero":
            parts.append("zeroinitializer")
        elif init.kind == "array":
            parts.append("[" + ", ".join(_typed(v) for v in init.values) + "]")
        else:
            parts.append(init.value.render())
    text = " ".join(parts)
    if g.align is not None:
        text += f", align {g.align}"
    return text


def _render_instruction(ins: Instruction) -> str:
    op = ins.opcode
    ops = ins.operands
    form = OPCODES.get(op)

    if form in ("binary", "unary", "compare"):
        head = f"{op} {ins.predicate}" if form == "compare" else op
        body = f"{head} " + ", ".join([_typed(ops[0])] + [v.render() for v in ops[1:]])
    elif form == "cast":
        body = f"{op} {_typed(ops[0])} to {ins.aux_type.render()}"
    elif form == "alloca":
        body = f"alloca {ins.aux_type.render()}"
    elif form == "load":
        body = f"load {ins.result_type.render()}, {_typed(ops[0])}"
    elif form == "store":
        body = f"store {_typed(ops[0])}, {_typed(ops[1])}"
    elif form == "getelementptr":
        kw = "getelementptr inbounds" if ins.inbounds else "getelementptr"
        body = ", ".join([f"{kw} {ins.aux_type.render()}"] + [_typed(v) for v in ops])
    elif form == "br":
        if ops:
            body = f"br {_typed(ops[0])}, label %{ins.labels[0]}, label %{ins.labels[1]}"
        else:
            body = f"br label %{ins.labels[0]}"
    elif form == "phi":
        pairs = ", ".join(f"[ {v.render()}, %{lbl} ]"
                          for v, lbl in zip(ops, ins.labels))
        body = f"phi {ins.result_type.render()} {pairs}"
    elif form == "call":
        args = ", ".join(_typed(v) for v in ops)
        body = f"call {ins.result_type.render()} @{ins.callee}({args})"
    elif form == "ret":
        body = f"ret {_typed(ops[0])}" if ops else "ret void"
    elif form == "select":
        body = f"select {_typed(ops[0])}, {_typed(ops[1])}, {_typed(ops[2])}"
    else:
        raise ValueError(f"cannot print opcode {op!r}")

    if ins.result is not None:
        body = f"%{ins.result} = {body}"
    if ins.align is not None:
        body += f", align {ins.align}"
    if ins.index is not None:
        body += f" ; !lcfi_index {ins.index}"
    return body


def _render_function(fn: IrFunction) -> list[str]:
    params = ", ".join(f"{t.render()} %{n}" for n, t in fn.params)
    lines = [f"define {fn.return_type.render()} @{fn.name}({params}) {{"]
    for bi, block in enumerate(fn.blocks):
        if bi > 0:
            lines.append("")
        lines.append(f"{block.label}:")
        for ins in block.instructions:
            lines.append("  " + _render_instruction(ins))
    lines.append("}")
    return lines


def print_module(module: IrModule) -> str:
    """Render a module to text that parses back structurally equal."""
    lines = [f"; module: {module.source_name or 'unnamed'}"]
    if module.source_name:
        lines.append(f'source_filename = "{module.source_name}"')
    if module.globals:
        lines.append("")
        for g in module.globals:
            lines.append(_render_global(g))
    for fn in module.functions:
        lines.append("")
        lines.extend(_render_function(fn))
    if module.declares:
        lines.append("")
        for d in module.declares:
            params = [t.render() for t in d.param_types]
            if d.varargs:
                params.append("...")
            lines.append(f"declare {d.return_type.render()} @{d.name}({', '.join(params)})")
    return "\n".join(lines) + "\n"
