"""Line-oriented parser for the textual IR subset.

Accepts both the old typed-pointer spellings (``load i32* %p``) and the
newer two-type forms (``load i32, i32* %p`` / ``load i32, ptr %p``); opaque
``ptr`` is normalized to a typed pointer using the element type carried by
the instruction. Unnamed registers and blocks follow the usual shared
counter, so block labels that only ever existed as ``; <label>:N`` comments
in compiler output are reconstructed from the register numbering.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from .nodes import (
    I1, I8, I64, VOID,
    FCMP_PREDICATES, ICMP_PREDICATES, OPCODES, TYPE_NAMES,
    BasicBlock, FnDecl, GlobalDef, GlobalInit, Instruction, IrFunction,
    IrModule, IrType, ValueRef,
    array_of, floatc, gepc, glob, intc, nullc, ptr_to, reg,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t]+)
    | (?P<cstr>c"(?:[^"\\]|\\.)*")
    | (?P<str>"(?:[^"\\]|\\.)*")
    | (?P<local>%(?:[-A-Za-z$._0-9]+|"[^"]*"))
    | (?P<glob>@(?:[-A-Za-z$._0-9]+|"[^"]*"))
    | (?P<num>[-+]?\d+\.\d*(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+
             |0x[0-9a-fA-F]+|[-+]?\d+)
    | (?P<word>[A-Za-z_][-A-Za-z$._0-9]*)
    | (?P<attrg>\#\d+)
    | (?P<meta>![-A-Za-z$._0-9{}!,\ ]*)
    | (?P<punct>\.\.\.|[()\[\]{}<>,=*:])
    """,
    re.VERBOSE,
)

# Attribute words tolerated (and dropped) in operand / header positions.
_SKIPPED_ATTRS = frozenset({
    "noundef", "signext", "zeroext", "nonnull", "nocapture", "readonly",
    "writeonly", "readnone", "inreg", "returned", "noalias", "nsw", "nuw",
    "exact", "fast", "nnan", "ninf", "nsz", "arcp", "contract", "afn",
    "reassoc", "dso_local", "dso_preemptable", "internal", "private",
    "linkonce", "linkonce_odr", "weak", "weak_odr", "hidden", "protected",
    "local_unnamed_addr", "unnamed_addr", "tail", "musttail", "notail",
})

_INDEX_ANNOT_RE = re.compile(r"^\s*!lcfi_index\s+(\d+)\s*$")


@dataclass
class Token:
    kind: str
    text: str
    col: int = 0


def _split_comment(line: str) -> tuple[str, str | None]:
    """Strip a trailing comment, returning (code, comment-text-or-None)."""
    in_str = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_str = not in_str
        elif ch == ";" and not in_str:
            return line[:i], line[i + 1:]
    return line, None


def _tokenize(code: str, line_no: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(code):
        m = _TOKEN_RE.match(code, pos)
        if not m:
            raise ParseError(f"unexpected character {code[pos]!r}", line_no, pos + 1)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


class Cursor:
    """Token stream over one line, with positional errors."""

    def __init__(self, tokens: list[Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len

    def error(self, message: str) -> ParseError:
        col = self.tokens[self.pos].col if self.pos < len(self.tokens) else self.line_len + 1
        return ParseError(message, self.line_no, col)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_text(self) -> str | None:
        t = self.peek()
        return t.text if t else None

    def next(self) -> Token:
        if self.at_end():
            raise self.error("unexpected end of line")
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        t = self.peek()
        if t and t.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not t or t.text != text:
            raise self.error(f"expected {text!r}")
        self.pos += 1
        return t

    def skip_attrs(self) -> None:
        while True:
            t = self.peek()
            if t is None:
                return
            if t.text in _SKIPPED_ATTRS or t.kind == "attrg":
                self.pos += 1
            elif t.text == "align" and self._num_follows():
                self.pos += 2
            elif t.text == "dereferenceable":
                self.pos += 1
                if self.accept("("):
                    self.next()
                    self.expect(")")
            else:
                return

    def _num_follows(self) -> bool:
        nxt = self.pos + 1
        return nxt < len(self.tokens) and self.tokens[nxt].kind == "num"


def _decode_cstring(token: str) -> bytes:
    body = token[2:-1]  # strip c" ... "
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            out.append(int(body[i + 1:i + 3], 16))
            i += 3
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def _bits_to_double(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits & (2 ** 64 - 1)))[0]


class _ModuleParser:
    def __init__(self, text: str, source_name: str):
        self.lines = text.splitlines()
        self.module = IrModule(source_name=source_name)
        self.i = 0

    def warn(self, message: str, line_no: int) -> None:
        self.module.warnings.append(f"line {line_no}: {message}")

    def parse(self) -> IrModule:
        while self.i < len(self.lines):
            line_no = self.i + 1
            code, _ = _split_comment(self.lines[self.i])
            stripped = code.strip()
            if not stripped:
                self.i += 1
                continue
            if stripped.startswith("!"):
                self.warn("metadata stripped", line_no)
                self.i += 1
                continue
            if stripped.startswith("attributes "):
                self.warn("attribute group stripped", line_no)
                self.i += 1
                continue
            if stripped.startswith("target ") or stripped.startswith("source_filename"):
                self._parse_module_directive(code, line_no)
                self.i += 1
                continue
            if stripped.startswith("declare"):
                self._parse_declare(code, line_no)
                self.i += 1
                continue
            if stripped.startswith("define"):
                self._parse_function()
                continue
            if stripped.startswith("@"):
                self._parse_global(code, line_no)
                self.i += 1
                continue
            cur = Cursor(_tokenize(code, line_no), line_no, len(code))
            raise cur.error("expected global, declare, or define at module level")
        return self.module

    def _parse_module_directive(self, code: str, line_no: int) -> None:
        cur = Cursor(_tokenize(code, line_no), line_no, len(code))
        head = cur.next().text
        if head == "source_filename":
            cur.expect("=")
            tok = cur.next()
            if tok.kind != "str":
                raise cur.error("expected string after source_filename =")
            self.module.source_name = tok.text[1:-1]
        # target datalayout / triple: accepted and ignored.

    # -- globals ----------------------------------------------------------

    def _parse_global(self, code: str, line_no: int) -> None:
        cur = Cursor(_tokenize(code, line_no), line_no, len(code))
        name_tok = cur.next()
        name = name_tok.text[1:]
        cur.expect("=")
        is_const = False
        external = False
        saw_kind = False
        while True:
            t = cur.peek()
            if t is None:
                raise cur.error("truncated global definition")
            if t.text in ("global", "constant"):
                is_const = t.text == "constant"
                saw_kind = True
                cur.next()
                break
            if t.text == "external":
                external = True
                cur.next()
            elif t.text in _SKIPPED_ATTRS or t.text in ("common", "appending", "externally_initialized"):
                cur.next()
            else:
                raise cur.error(f"unexpected token {t.text!r} in global definition")
        if not saw_kind:
            raise cur.error("expected 'global' or 'constant'")
        gtype = self._parse_type(cur)
        init: GlobalInit | None = None
        if not cur.at_end() and cur.peek_text() != ",":
            init = self._parse_global_init(cur, gtype)
        align = None
        while cur.accept(","):
            if cur.accept("align"):
                align = int(cur.next().text)
            else:
                cur.next()  # section "..." and friends: ignored
        if not cur.at_end():
            raise cur.error("trailing tokens after global definition")
        self.module.globals.append(GlobalDef(name, gtype, init, is_const, external, align))

    def _parse_global_init(self, cur: Cursor, gtype: IrType) -> GlobalInit:
        t = cur.peek()
        if t.kind == "cstr":
            cur.next()
            return GlobalInit("bytes", data=_decode_cstring(t.text))
        if t.text == "zeroinitializer":
            cur.next()
            return GlobalInit("zero")
        if t.text == "[":
            cur.next()
            values = []
            while not cur.accept("]"):
                values.append(self._typed_value(cur))
                if cur.peek_text() != "]":
                    cur.expect(",")
            return GlobalInit("array", values=tuple(values))
        return GlobalInit("scalar", value=self._parse_value(cur, gtype))

    # -- declares ---------------------------------------------------------

    def _parse_declare(self, code: str, line_no: int) -> None:
        cur = Cursor(_tokenize(code, line_no), line_no, len(code))
        cur.expect("declare")
        cur.skip_attrs()
        ret = self._parse_type(cur)
        name_tok = cur.next()
        if name_tok.kind != "glob":
            raise cur.error("expected function name in declare")
        cur.expect("(")
        params: list[IrType] = []
        varargs = False
        while not cur.accept(")"):
            if cur.accept("..."):
                varargs = True
                continue
            params.append(self._parse_type(cur))
            cur.skip_attrs()
            if cur.peek() and cur.peek().kind == "local":
                cur.next()  # parameter name in a declare: allowed, ignored
            if cur.peek_text() != ")":
                cur.expect(",")
        # trailing attributes ignored
        self.module.declares.append(FnDecl(name_tok.text[1:], ret, tuple(params), varargs))

    # -- functions --------------------------------------------------------

    def _parse_function(self) -> None:
        line_no = self.i + 1
        code, _ = _split_comment(self.lines[self.i])
        cur = Cursor(_tokenize(code, line_no), line_no, len(code))
        cur.expect("define")
        cur.skip_attrs()
        ret = self._parse_type(cur)
        name_tok = cur.next()
        if name_tok.kind != "glob":
            raise cur.error("expected function name after define")
        fn = IrFunction(name_tok.text[1:], ret)
        counter = 0  # shared counter for unnamed params, blocks, registers
        cur.expect("(")
        while not cur.accept(")"):
            ptype = self._parse_type(cur)
            cur.skip_attrs()
            t = cur.peek()
            if t and t.kind == "local":
                pname = t.text[1:]
                cur.next()
                if pname.isdigit():
                    counter = max(counter, int(pname) + 1)
            else:
                pname = str(counter)
                counter += 1
            fn.params.append((pname, ptype))
            if cur.peek_text() != ")":
                cur.expect(",")
        cur.skip_attrs()
        while not cur.at_end() and cur.peek_text() != "{":
            cur.next()  # section/comdat/etc: ignored
        cur.expect("{")
        self.i += 1
        empty_body = False
        if cur.accept("}"):
            empty_body = True
        elif not cur.at_end():
            raise cur.error("expected end of line after '{'")

        block: BasicBlock | None = None
        while not empty_body:
            if self.i >= len(self.lines):
                raise ParseError("unterminated function body", len(self.lines), 1)
            line_no = self.i + 1
            code, comment = _split_comment(self.lines[self.i])
            if not code.strip():
                self.i += 1
                continue
            tokens = _tokenize(code, line_no)
            if len(tokens) == 1 and tokens[0].text == "}":
                self.i += 1
                break
            if len(tokens) == 2 and tokens[1].text == ":" and tokens[0].kind in ("word", "num"):
                label = tokens[0].text
                if label.isdigit():
                    counter = max(counter, int(label) + 1)
                block = BasicBlock(label)
                fn.blocks.append(block)
                self.i += 1
                continue
            if block is None or (block.instructions and block.instructions[-1].is_terminator()):
                block = BasicBlock(str(counter))
                counter += 1
                fn.blocks.append(block)
            cur = Cursor(tokens, line_no, len(code))
            ins = self._parse_instruction(cur, line_no)
            if comment is not None:
                m = _INDEX_ANNOT_RE.match(comment)
                if m:
                    ins.index = int(m.group(1))
            if ins.result is not None and ins.result.isdigit():
                counter = max(counter, int(ins.result) + 1)
            block.instructions.append(ins)
            self.i += 1
        self.module.functions.append(fn)

    # -- types and values -------------------------------------------------

    def _parse_type(self, cur: Cursor) -> IrType:
        t = cur.next()
        base: IrType
        if t.kind == "word":
            if t.text in TYPE_NAMES:
                base = TYPE_NAMES[t.text]
            elif t.text == "ptr":
                base = ptr_to(I8)
            else:
                raise cur.error(f"unknown type {t.text!r}")
        elif t.text == "[":
            count = int(cur.next().text)
            if cur.next().text != "x":
                raise cur.error("expected 'x' in array type")
            elem = self._parse_type(cur)
            cur.expect("]")
            base = array_of(count, elem)
        elif t.text == "{":
            fields = []
            while not cur.accept("}"):
                fields.append(self._parse_type(cur))
                if cur.peek_text() != "}":
                    cur.expect(",")
            base = IrType("struct", fields=tuple(fields))
        elif t.text == "<":
            count = int(cur.next().text)
            if cur.next().text != "x":
                raise cur.error("expected 'x' in vector type")
            elem = self._parse_type(cur)
            cur.expect(">")
            self.warn("vector type parsed as array", cur.line_no)
            base = array_of(count, elem)
        else:
            raise cur.error(f"expected type, found {t.text!r}")
        while cur.peek_text() == "*":
            cur.next()
            base = ptr_to(base)
        return base

    def _parse_value(self, cur: Cursor, vtype: IrType) -> ValueRef:
        t = cur.next()
        if t.kind == "local":
            return reg(t.text[1:], vtype)
        if t.kind == "glob":
            return glob(t.text[1:], vtype)
        if t.kind == "num":
            text = t.text
            if vtype.is_float():
                if text.startswith("0x"):
                    val = _bits_to_double(int(text, 16))
                else:
                    val = float(text)
                return floatc(val, vtype)
            if vtype.is_integer() or vtype.is_pointer():
                val = int(text, 16) if text.startswith("0x") else int(text)
                return intc(val, vtype if vtype.is_integer() else I64)
            raise cur.error(f"numeric literal not valid for type {vtype.render()}")
        if t.kind == "word":
            if t.text == "null":
                return nullc(vtype)
            if t.text in ("true", "false"):
                if vtype.kind != "i1":
                    raise cur.error(f"{t.text} is an i1 constant, not {vtype.render()}")
                return intc(int(t.text == "true"), I1)
            if t.text == "getelementptr":
                return self._parse_gep_const(cur, vtype)
            raise cur.error(f"unsupported value {t.text!r}")
        raise cur.error(f"expected value, found {t.text!r}")

    def _typed_value(self, cur: Cursor) -> ValueRef:
        """Read `T v`."""
        return self._parse_value(cur, self._parse_type(cur))

    def _pointer_to(self, cur: Cursor, pointee: IrType) -> ValueRef:
        """Read `P %p`, typing the pointer as `pointee*`.

        An opaque `ptr` (and any other mismatched pointer spelling) takes its
        element type from the instruction.
        """
        ptype = self._parse_type(cur)
        if ptype.is_pointer() and ptype.pointee != pointee:
            ptype = ptr_to(pointee)
        return self._parse_value(cur, ptype)

    def _pointer_operand(self, cur: Cursor, opcode: str) -> tuple[IrType, ValueRef]:
        """Read `T, P %p` or the typed-pointer `T* %p`; return T and the pointer."""
        first = self._parse_type(cur)
        if cur.accept(","):
            return first, self._pointer_to(cur, first)
        if not first.is_pointer():
            raise cur.error(f"{opcode} needs a pointer type")
        return first.pointee, self._parse_value(cur, first)

    def _parse_gep_const(self, cur: Cursor, vtype: IrType) -> ValueRef:
        cur.accept("inbounds")
        cur.expect("(")
        source, base = self._pointer_operand(cur, "getelementptr")
        indices = []
        while cur.accept(","):
            indices.append(self._typed_value(cur))
        cur.expect(")")
        return gepc(source, base, tuple(indices), vtype)

    # -- instructions ------------------------------------------------------

    def _parse_instruction(self, cur: Cursor, line_no: int) -> Instruction:
        result: str | None = None
        t = cur.peek()
        if t and t.kind == "local" and cur.pos + 1 < len(cur.tokens) and cur.tokens[cur.pos + 1].text == "=":
            result = t.text[1:]
            cur.next()
            cur.next()
        op_tok = cur.next()
        opcode = op_tok.text
        if opcode == "tail":
            opcode = cur.next().text
        if opcode not in OPCODES:
            raise cur.error(f"unsupported opcode {opcode!r}")
        ins = self._parse_body(cur, opcode, result)
        ins.line = line_no
        self._check_trailing(cur, ins)
        if ins.result_type.is_void():
            if result is not None:
                raise cur.error(f"{opcode} cannot define a register")
        elif result is None and opcode != "call":
            # a call may discard its value; everything else must bind it
            raise cur.error(f"{opcode} requires a result register")
        return ins

    def _check_trailing(self, cur: Cursor, ins: Instruction) -> None:
        while cur.accept(","):
            if cur.accept("align"):
                ins.align = int(cur.next().text)
            elif cur.peek() and cur.peek().kind == "meta":
                self.warn("metadata stripped", cur.line_no)
                while not cur.at_end() and cur.peek_text() != ",":
                    cur.next()
            else:
                raise cur.error("unexpected token after instruction")
        if not cur.at_end():
            if cur.peek().kind == "meta":
                self.warn("metadata stripped", cur.line_no)
                cur.pos = len(cur.tokens)
            else:
                raise cur.error("trailing tokens after instruction")

    def _parse_body(self, cur: Cursor, opcode: str, result: str | None) -> Instruction:
        form = OPCODES[opcode]
        if form in ("binary", "unary", "compare"):
            cur.skip_attrs()
            pred = None
            if form == "compare":
                pred = cur.next().text
                valid = ICMP_PREDICATES if opcode == "icmp" else FCMP_PREDICATES
                if pred not in valid:
                    raise cur.error(f"unknown {opcode} predicate {pred!r}")
            t = self._parse_type(cur)
            operands = [self._parse_value(cur, t)]
            if form != "unary":
                cur.expect(",")
                operands.append(self._parse_value(cur, t))
            return Instruction(opcode, result, I1 if pred else t, operands,
                               predicate=pred)

        if form == "cast":
            v = self._typed_value(cur)
            if cur.next().text != "to":
                raise cur.error("expected 'to' in cast")
            t2 = self._parse_type(cur)
            return Instruction(opcode, result, t2, [v], aux_type=t2)

        if form == "alloca":
            atype = self._parse_type(cur)
            return Instruction(opcode, result, ptr_to(atype), aux_type=atype)

        if form == "load":
            vtype, ptr = self._pointer_operand(cur, opcode)
            return Instruction(opcode, result, vtype, [ptr])

        if form == "store":
            vtype = self._parse_type(cur)
            value = self._parse_value(cur, vtype)
            cur.expect(",")
            ptr = self._pointer_to(cur, vtype)
            return Instruction(opcode, result, VOID, [value, ptr])

        if form == "getelementptr":
            inbounds = cur.accept("inbounds")
            source, base = self._pointer_operand(cur, opcode)
            operands = [base]
            elem = source
            first = True
            while cur.peek_text() == "," and not self._align_follows(cur):
                cur.expect(",")
                idx = self._typed_value(cur)
                operands.append(idx)
                if first:
                    first = False
                    continue
                if elem.kind == "array":
                    elem = elem.elem
                elif elem.kind == "struct":
                    if idx.kind != "int":
                        raise cur.error("struct index must be a constant")
                    if not 0 <= idx.ival < len(elem.fields):
                        raise cur.error(f"struct index {idx.ival} out of range")
                    elem = elem.fields[idx.ival]
                else:
                    raise cur.error("getelementptr steps through a non-aggregate")
            return Instruction(opcode, result, ptr_to(elem), operands,
                               aux_type=source, inbounds=inbounds)

        if form == "br":
            if cur.accept("label"):
                dest = cur.next()
                return Instruction(opcode, result, VOID, labels=[dest.text[1:]])
            cond = self._typed_value(cur)
            cur.expect(",")
            cur.expect("label")
            a = cur.next().text[1:]
            cur.expect(",")
            cur.expect("label")
            b = cur.next().text[1:]
            return Instruction(opcode, result, VOID, [cond], labels=[a, b])

        if form == "phi":
            t = self._parse_type(cur)
            operands = []
            labels = []
            while True:
                cur.expect("[")
                operands.append(self._parse_value(cur, t))
                cur.expect(",")
                lbl = cur.next()
                if lbl.kind != "local":
                    raise cur.error("expected block label in phi")
                labels.append(lbl.text[1:])
                cur.expect("]")
                if not cur.accept(","):
                    break
            return Instruction(opcode, result, t, operands, labels=labels)

        if form == "call":
            cur.skip_attrs()
            ret = self._parse_type(cur)
            if cur.peek_text() == "(":
                # full callee function type: consume it, keep the return type
                depth = 0
                while True:
                    tok = cur.next()
                    if tok.text == "(":
                        depth += 1
                    elif tok.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                cur.accept("*")
            callee_tok = cur.next()
            if callee_tok.kind != "glob":
                raise cur.error("indirect calls are not supported")
            cur.expect("(")
            args = []
            while not cur.accept(")"):
                at = self._parse_type(cur)
                cur.skip_attrs()
                args.append(self._parse_value(cur, at))
                if cur.peek_text() != ")":
                    cur.expect(",")
            return Instruction(opcode, result, ret, args, callee=callee_tok.text[1:])

        if form == "ret":
            if cur.accept("void"):
                return Instruction(opcode, result, VOID)
            return Instruction(opcode, result, VOID, [self._typed_value(cur)])

        # select: the result has the type written for the first choice
        cond = self._typed_value(cur)
        cur.expect(",")
        t1 = self._parse_type(cur)
        a = self._parse_value(cur, t1)
        cur.expect(",")
        b = self._typed_value(cur)
        return Instruction(opcode, result, t1, [cond, a, b])

    def _align_follows(self, cur: Cursor) -> bool:
        nxt = cur.pos + 1
        return nxt < len(cur.tokens) and cur.tokens[nxt].text == "align"


def parse_module(text: str, source_name: str = "") -> IrModule:
    """Parse IR text into an IrModule; raises ParseError with line:col."""
    return _ModuleParser(text, source_name).parse()
