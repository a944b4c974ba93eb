"""Data model for the textual IR subset: types, values, instructions, modules."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

# Textual form of each opcode, read by the parser and written by the printer:
# "binary" is `op T a, b`, "unary" is `op T a`, "compare" is `op pred T a, b`
# and "cast" is `op T v to U`; every other opcode is a form of its own.
OPCODES = {
    **dict.fromkeys(("add", "sub", "mul", "sdiv", "srem",
                     "fadd", "fsub", "fmul", "fdiv"), "binary"),
    "fneg": "unary",
    "icmp": "compare", "fcmp": "compare",
    **dict.fromkeys(("zext", "sext", "trunc", "fptosi", "sitofp",
                     "fpext", "fptrunc", "bitcast"), "cast"),
    **{op: op for op in ("alloca", "load", "store", "getelementptr",
                         "br", "phi", "call", "ret", "select")},
}

TERMINATORS = frozenset({"br", "ret"})

ICMP_PREDICATES = frozenset({
    "eq", "ne", "ugt", "uge", "ult", "ule", "sgt", "sge", "slt", "sle",
})

FCMP_PREDICATES = frozenset({
    "false", "oeq", "ogt", "oge", "olt", "ole", "one", "ord",
    "ueq", "ugt", "uge", "ult", "ule", "une", "uno", "true",
})


# Memory layout of each scalar kind: (byte size, little-endian struct format).
# i1 occupies one byte; ptr is an unsigned 64-bit address.
SCALARS = {
    "i1": (1, "<B"), "i8": (1, "<b"), "i32": (4, "<i"), "i64": (8, "<q"),
    "ptr": (8, "<Q"), "f32": (4, "<f"), "f64": (8, "<d"),
}

# The scalar kinds a bitcast converts between, bit for bit: same-width integer
# and float kinds. Pointers bitcast to pointers.
BITCASTS = frozenset({("i32", "f32"), ("f32", "i32"), ("i64", "f64"), ("f64", "i64")})


def wrap_int(v: int, bits: int) -> int:
    """Wrap an integer to a signed `bits`-wide value; an i1 is 0 or 1."""
    if bits == 1:
        return v & 1
    half = 1 << (bits - 1)
    return ((v + half) & ((1 << bits) - 1)) - half


# A pointer is an unsigned 64-bit address, as SCALARS["ptr"] stores it:
# getelementptr arithmetic wraps modulo 2**64, as LLVM defines it.
PTR_MASK = (1 << 64) - 1


def to_f32(x: float) -> float:
    """Round a double to the nearest f32 value; past the f32 range, ±inf."""
    try:
        return struct.unpack("<f", struct.pack("<f", x))[0]
    except OverflowError:
        return math.copysign(math.inf, x)


@dataclass(frozen=True)
class IrType:
    """One type in the subset: iN, f32/f64, pointer, array, struct, or void.

    Width-bearing integer kinds are spelled like the IR ("i32"); floats are
    normalized to "f32"/"f64" regardless of the "float"/"double" spelling in
    the source text.
    """

    kind: str
    pointee: IrType | None = None
    count: int = 0
    elem: IrType | None = None
    fields: tuple[IrType, ...] = ()

    def is_integer(self) -> bool:
        return self.kind in ("i1", "i8", "i32", "i64")

    def is_float(self) -> bool:
        return self.kind in ("f32", "f64")

    def is_numeric(self) -> bool:
        return self.kind in ("i32", "i64", "f32", "f64")

    def is_pointer(self) -> bool:
        return self.kind == "ptr"

    def is_void(self) -> bool:
        return self.kind == "void"

    def int_bits(self) -> int:
        return int(self.kind[1:])

    def byte_width(self) -> int:
        if self.kind in SCALARS:
            return SCALARS[self.kind][0]
        if self.kind == "array":
            return self.count * self.elem.byte_width()
        if self.kind == "struct":
            return self._layout()[1]
        raise ValueError(f"type {self.render()} has no byte width")

    def alignment(self) -> int:
        if self.kind == "array":
            return self.elem.alignment()
        if self.kind == "struct":
            return max((f.alignment() for f in self.fields), default=1)
        return self.byte_width()

    def field_offset(self, index: int) -> int:
        return self._layout()[0][index]

    def _layout(self) -> tuple[list[int], int]:
        """A struct's field offsets and its size, padded to its alignment."""
        offsets, end = [], 0
        for f in self.fields:
            a = f.alignment()
            offsets.append((end + a - 1) // a * a)
            end = offsets[-1] + f.byte_width()
        a = self.alignment()
        return offsets, (end + a - 1) // a * a

    def render(self) -> str:
        if self.kind in _KEYWORDS:
            return _KEYWORDS[self.kind]
        if self.kind == "ptr":
            return self.pointee.render() + "*"
        if self.kind == "array":
            return f"[{self.count} x {self.elem.render()}]"
        if self.kind == "struct":
            return "{ " + ", ".join(f.render() for f in self.fields) + " }"
        raise ValueError(self.kind)


I1 = IrType("i1")
I8 = IrType("i8")
I32 = IrType("i32")
I64 = IrType("i64")
F32 = IrType("f32")
F64 = IrType("f64")
VOID = IrType("void")

# The type keywords of the IR text; `ptr` (opaque pointer) is the parser's.
TYPE_NAMES = {"i1": I1, "i8": I8, "i32": I32, "i64": I64,
              "float": F32, "double": F64, "void": VOID}
_KEYWORDS = {t.kind: name for name, t in TYPE_NAMES.items()}


def ptr_to(t: IrType) -> IrType:
    return IrType("ptr", pointee=t)


def array_of(count: int, elem: IrType) -> IrType:
    return IrType("array", count=count, elem=elem)


@dataclass(frozen=True)
class ValueRef:
    """An operand: register, global, literal constant, null, or constant gep."""

    kind: str  # "reg" | "global" | "int" | "float" | "null" | "gep"
    type: IrType
    name: str = ""
    ival: int = 0
    fval: float = 0.0
    base: ValueRef | None = None
    gep_source: IrType | None = None
    indices: tuple[ValueRef, ...] = ()

    def render(self) -> str:
        if self.kind == "reg":
            return "%" + self.name
        if self.kind == "global":
            return "@" + self.name
        if self.kind == "int":
            if self.type.kind == "i1":
                return "true" if self.ival else "false"
            return str(self.ival)
        if self.kind == "float":
            return render_float(self.fval)
        if self.kind == "null":
            return "null"
        if self.kind == "gep":
            idx = ", ".join(f"{i.type.render()} {i.render()}" for i in self.indices)
            return (f"getelementptr inbounds ({self.gep_source.render()}, "
                    f"{self.base.type.render()} {self.base.render()}, {idx})")
        raise ValueError(self.kind)


def render_float(x: float) -> str:
    # Short scientific form when it round-trips exactly, raw bits otherwise.
    text = f"{x:.6e}"
    try:
        exact = float(text) == x
    except (OverflowError, ValueError):
        exact = False
    if exact:
        return text
    bits = struct.unpack(">Q", struct.pack(">d", x))[0]
    return f"0x{bits:016X}"


def reg(name: str, type: IrType) -> ValueRef:
    return ValueRef("reg", type, name=name)


def glob(name: str, type: IrType) -> ValueRef:
    return ValueRef("global", type, name=name)


def intc(value: int, type: IrType = I32) -> ValueRef:
    return ValueRef("int", type, ival=value)


def floatc(value: float, type: IrType = F64) -> ValueRef:
    return ValueRef("float", type, fval=value)


def nullc(type: IrType) -> ValueRef:
    return ValueRef("null", type)


def gepc(source: IrType, base: ValueRef, indices: tuple[ValueRef, ...],
         type: IrType) -> ValueRef:
    return ValueRef("gep", type, base=base, gep_source=source, indices=indices)


@dataclass
class Instruction:
    """One instruction; `index` is assigned by the instrumenter (1-based)."""

    opcode: str
    result: str | None
    result_type: IrType
    operands: list[ValueRef] = field(default_factory=list)
    predicate: str | None = None          # icmp / fcmp
    callee: str | None = None             # call
    labels: list[str] = field(default_factory=list)  # br targets, phi blocks
    aux_type: IrType | None = None        # alloca/gep source, cast destination
    inbounds: bool = False
    align: int | None = None
    index: int | None = None
    line: int = field(default=0, compare=False)

    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    def has_result(self) -> bool:
        return self.result is not None


@dataclass
class BasicBlock:
    label: str
    instructions: list[Instruction] = field(default_factory=list)

    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None


@dataclass
class IrFunction:
    name: str
    return_type: IrType
    params: list[tuple[str, IrType]] = field(default_factory=list)
    blocks: list[BasicBlock] = field(default_factory=list)

    def block(self, label: str) -> BasicBlock | None:
        for b in self.blocks:
            if b.label == label:
                return b
        return None

    def instructions(self):
        for b in self.blocks:
            yield from b.instructions


@dataclass
class GlobalInit:
    """Initializer of a global: scalar, byte string, element list, or zero."""

    kind: str  # "scalar" | "bytes" | "array" | "zero"
    value: ValueRef | None = None
    data: bytes = b""
    values: tuple[ValueRef, ...] = ()


@dataclass
class GlobalDef:
    name: str
    type: IrType
    init: GlobalInit | None = None
    is_const: bool = False
    external: bool = False
    align: int | None = None
    line: int = field(default=0, compare=False)


@dataclass
class FnDecl:
    name: str
    return_type: IrType
    param_types: tuple[IrType, ...] = ()
    varargs: bool = False


@dataclass
class IrModule:
    """A parsed module. Treat as immutable once built; the instrumenter

    returns fresh copies instead of mutating in place, so a module can be
    shared across concurrently executing runs, and caches derived from it stay
    valid.
    """

    source_name: str = ""
    globals: list[GlobalDef] = field(default_factory=list)
    functions: list[IrFunction] = field(default_factory=list)
    declares: list[FnDecl] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list, compare=False)

    def __getstate__(self):
        # Derived forms cached on the module by its users (the VM keeps its
        # decoded form as `_decoded`) are rebuilt on demand, never pickled.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def function(self, name: str) -> IrFunction | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def global_def(self, name: str) -> GlobalDef | None:
        for g in self.globals:
            if g.name == name:
                return g
        return None

    def all_instructions(self):
        for f in self.functions:
            for b in f.blocks:
                for ins in b.instructions:
                    yield f, b, ins


def gep_layout(source: IrType, indices) -> tuple[int, list, IrType]:
    """A getelementptr's address as base + offset + sum of index * stride:
    the constant offset, (index operand, stride) for each index that is not
    an integer constant, and the type the result points to. ValueError when
    the path steps through a scalar or a struct field index is not a
    constant field number."""
    offset, terms, t = 0, [], source
    for pos, v in enumerate(indices):
        if pos == 0:
            stride = source.byte_width()
        elif t.kind == "array":
            t = t.elem
            stride = t.byte_width()
        elif t.kind == "struct":
            if v.kind != "int":
                raise ValueError("getelementptr struct field index is not a constant")
            if not 0 <= v.ival < len(t.fields):
                raise ValueError(f"getelementptr struct field index {v.ival} "
                                 f"out of range for {t.render()}")
            offset += t.field_offset(v.ival)
            t = t.fields[v.ival]
            continue
        else:
            raise ValueError("getelementptr walks through a scalar")
        if v.kind == "int":
            offset += v.ival * stride
        else:
            terms.append((v, stride))
    return offset, terms, t
