from .nodes import (
    BasicBlock, FnDecl, GlobalDef, GlobalInit, Instruction, IrFunction,
    IrModule, IrType, ValueRef,
    I1, I8, I32, I64, F32, F64, VOID,
    array_of, floatc, glob, intc, nullc, ptr_to, reg, struct_of,
    OPCODES, TERMINATORS, TYPE_NAMES,
)
from .parser import ParseError, parse_module
from .printer import print_module
from .validate import Diagnostic, validate
from .defuse import IndicesMissing, UseGraph, build_def_use

__all__ = [
    "BasicBlock", "FnDecl", "GlobalDef", "GlobalInit", "Instruction",
    "IrFunction", "IrModule", "IrType", "ValueRef",
    "I1", "I8", "I32", "I64", "F32", "F64", "VOID",
    "array_of", "floatc", "glob", "intc", "nullc", "ptr_to", "reg", "struct_of",
    "OPCODES", "TERMINATORS", "TYPE_NAMES",
    "ParseError", "parse_module", "print_module",
    "Diagnostic", "validate",
    "IndicesMissing", "UseGraph", "build_def_use",
]
