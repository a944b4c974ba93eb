"""Instruction indexing, target resolution, and hook planning.

The index pass numbers every instruction 1..N in textual order; those indices
name trace records and injection targets for the rest of the pipeline. Target
resolution maps a (function, variable, occurrence) description from the YAML
config onto the load instructions that read the variable, chasing pointer
chains through getelementptr, bitcast, and loads of pointer slots.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import count

import yaml

from .ir.nodes import BasicBlock, Instruction, IrFunction, IrModule
from .ir.printer import print_module
from .faults import FaultSpec, parse_fault_type


class InstrumentError(Exception):
    pass


class FunctionNotFound(InstrumentError):
    pass


class VariableNotFound(InstrumentError):
    pass


class MainFunctionRejected(InstrumentError):
    pass


class NonNumericTarget(InstrumentError):
    pass


class TargetConfigError(InstrumentError):
    pass


def assign_indices(module: IrModule) -> IrModule:
    """Return a copy with instructions numbered 1..N in textual order.

    The copy has its own module, functions, blocks and instructions; the
    types, operands and globals are shared with `module`, which is treated
    as immutable (see IrModule)."""
    number = count(1)
    functions = [replace(fn, blocks=[replace(block, instructions=[
        replace(ins, index=next(number)) for ins in block.instructions])
        for block in fn.blocks]) for fn in module.functions]
    return IrModule(module.source_name, list(module.globals), functions,
                    list(module.declares), list(module.warnings))


def check_indexed(module: IrModule) -> None:
    expect = 1
    for _fn, _block, ins in module.all_instructions():
        if ins.index != expect:
            raise InstrumentError(
                f"instruction indices not contiguous from 1 (saw {ins.index}, wanted {expect})")
        expect += 1


@dataclass(frozen=True)
class TargetSpec:
    """One `option` entry from the YAML config."""

    function_name: str
    variable_name: str
    variable_location: int = 1
    in_arr: bool = False
    in_loop: bool = False
    variable_init: bool = False  # accepted for config compatibility; no effect


@dataclass(frozen=True)
class OccurrenceScope:
    """Which dynamic occurrences of the target get perturbed.

    mode "nth_execution": the k-th executions of the target instruction.
    mode "loop_iteration": executions during the k-th trips of the target's
        innermost loop within each activation of the frame.
    mode "invocation": every target execution during the k-th calls of the
        enclosing function.
    """

    mode: str
    k: tuple[int, ...]

    def __post_init__(self):
        if self.mode not in ("nth_execution", "loop_iteration", "invocation"):
            raise TargetConfigError(f"unknown scope mode {self.mode!r}")
        if not self.k or any(int(x) < 1 for x in self.k):
            raise TargetConfigError("scope ordinals must be positive integers")


@dataclass
class InputConfig:
    """Parsed injection config (the instrument-time YAML file)."""

    fi_type: str
    options: list[TargetSpec]
    loop_num: tuple[int, ...] = (1,)
    loop_mode: str = "invocation"
    seed: int = 0
    warnings: list[str] = field(default_factory=list)

    def fault_spec(self, base_dir: str = ".") -> FaultSpec:
        return parse_fault_type(self.fi_type, base_dir=base_dir)


_KNOWN_TOP = ("fi_type", "variable_num", "loop_num", "loop_mode", "seed", "option")
_KNOWN_OPT = ("function_name", "variable_name", "variable_location",
              "in_arr", "in_loop", "variable_init")


# The YAML reader and value checks of both config files, the injection config
# here and the campaign config; each raises its file's own error class.

def load_yaml(path: str, error: type[Exception]):
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as e:
        raise error(f"cannot read {path}: {e}") from e
    except yaml.YAMLError as e:
        raise error(f"{path}: {e}") from e


def unknown_keys(block: dict, known: tuple[str, ...], prefix: str = "") -> list[str]:
    return [f"unknown key {prefix + str(k)!r} ignored" for k in block if k not in known]


def positive_int(value, what: str, error: type[Exception]) -> int:
    """`value` if it is an int >= 1 (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise error(f"{what} must be a positive integer, got {value!r}")
    return value


def integer(value, what: str, error: type[Exception]) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{what} must be an integer")
    return value


def as_text(value, what: str, error: type[Exception]) -> str:
    """`value` as text, a number as str() gives it; a null is an error."""
    if value is None:
        raise error(f"{what} must not be null")
    return str(value)


def _as_bool(v, what: str) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str) and v.lower() in ("true", "false"):
        return v.lower() == "true"
    raise TargetConfigError(f"{what} must be a boolean, got {v!r}")


def load_input_config(path: str) -> InputConfig:
    """Load and validate the injection YAML. Unknown keys warn, they never fail."""
    return parse_input_config(load_yaml(path, TargetConfigError), source=path)


def parse_input_config(data, source: str = "<config>") -> InputConfig:
    if not isinstance(data, dict):
        raise TargetConfigError(f"{source}: top level must be a mapping")
    warnings = unknown_keys(data, _KNOWN_TOP)

    if "fi_type" not in data:
        raise TargetConfigError(f"{source}: fi_type is required")
    fi_type = data["fi_type"]
    if not isinstance(fi_type, str):
        raise TargetConfigError(f"{source}: fi_type must be a string")

    raw_opts = data.get("option")
    if not isinstance(raw_opts, list) or not raw_opts:
        raise TargetConfigError(f"{source}: option must be a non-empty list")
    options = []
    for i, opt in enumerate(raw_opts):
        where = f"option[{i}]"
        if not isinstance(opt, dict):
            raise TargetConfigError(f"{source}: {where} must be a mapping")
        warnings += unknown_keys(opt, _KNOWN_OPT, f"{where}.")
        if "function_name" not in opt or "variable_name" not in opt:
            raise TargetConfigError(
                f"{source}: {where} needs function_name and variable_name")
        options.append(TargetSpec(
            function_name=as_text(opt["function_name"],
                                  f"{source}: {where}.function_name", TargetConfigError),
            variable_name=as_text(opt["variable_name"], f"{source}: {where}.variable_name",
                                  TargetConfigError).lstrip("%"),
            variable_location=positive_int(opt.get("variable_location", 1),
                                           f"{source}: {where}.variable_location",
                                           TargetConfigError),
            in_arr=_as_bool(opt.get("in_arr", False), f"{source}: {where}.in_arr"),
            in_loop=_as_bool(opt.get("in_loop", False), f"{source}: {where}.in_loop"),
            variable_init=_as_bool(opt.get("variable_init", False),
                                   f"{source}: {where}.variable_init"),
        ))

    if "variable_num" in data:
        n = positive_int(data["variable_num"], f"{source}: variable_num", TargetConfigError)
        if n != len(options):
            raise TargetConfigError(
                f"{source}: variable_num is {n} but option lists {len(options)} entries")

    loop_raw = data.get("loop_num", 1)
    if isinstance(loop_raw, list):
        loop_num = tuple(sorted({positive_int(x, f"{source}: loop_num", TargetConfigError)
                                 for x in loop_raw}))
        if not loop_num:
            raise TargetConfigError(f"{source}: loop_num list is empty")
    else:
        loop_num = (positive_int(loop_raw, f"{source}: loop_num", TargetConfigError),)

    loop_mode = data.get("loop_mode", "invocation")
    if loop_mode not in ("nth_execution", "loop_iteration", "invocation"):
        raise TargetConfigError(f"{source}: unknown loop_mode {loop_mode!r}")

    seed = integer(data.get("seed", 0), f"{source}: seed", TargetConfigError)
    return InputConfig(fi_type=fi_type, options=options, loop_num=loop_num,
                       loop_mode=loop_mode, seed=seed, warnings=warnings)


def _pointer_homes(fn: IrFunction, variable_name: str) -> set[str]:
    """Registers that root the variable's storage: a matching alloca, the
    alloca its parameter value is spilled into, or the parameter itself."""
    homes: set[str] = set()
    param_names = {name for name, _ in fn.params}
    if variable_name in param_names:
        homes.add(variable_name)
    for ins in fn.instructions():
        if ins.opcode == "alloca" and ins.result == variable_name:
            homes.add(ins.result)
        elif (ins.opcode == "store"
              and ins.operands[0].kind == "reg"
              and ins.operands[0].name == variable_name
              and variable_name in param_names
              and ins.operands[1].kind == "reg"):
            homes.add(ins.operands[1].name)
    return homes


def _chase_to_home(reg: str, defs: dict[str, Instruction], homes: set[str]) -> bool:
    """Walk a pointer register back through gep/bitcast/pointer-load chains."""
    seen = set()
    while True:
        if reg in homes:
            return True
        if reg in seen:
            return False
        seen.add(reg)
        ins = defs.get(reg)
        if ins is None:
            return False
        if ins.opcode in ("getelementptr", "bitcast"):
            src = ins.operands[0]
        elif ins.opcode == "load" and ins.result_type.is_pointer():
            src = ins.operands[0]
        else:
            return False
        if src.kind == "gep":
            src = src.base
        if src.kind != "reg":
            return False
        reg = src.name


def resolve_targets(module: IrModule, spec: TargetSpec) -> list[Instruction]:
    """Find the load instructions selected by one option entry.

    Loads whose pointer chains reach the variable's storage are counted in
    index order; variable_location picks the 1-based ordinal. With in_arr the
    pick extends to every numeric load from that ordinal on.
    """
    if spec.function_name == "main":
        raise MainFunctionRejected("main is the measurement harness, not a target")
    fn = module.function(spec.function_name)
    if fn is None:
        raise FunctionNotFound(spec.function_name)
    homes = _pointer_homes(fn, spec.variable_name)
    if not homes:
        raise VariableNotFound(f"{spec.function_name}: no variable %{spec.variable_name}")

    defs = {ins.result: ins for ins in fn.instructions() if ins.has_result()}
    accesses = []
    for ins in fn.instructions():
        if ins.opcode != "load":
            continue
        ptr = ins.operands[0]
        base = ptr.base if ptr.kind == "gep" else ptr
        if base.kind == "reg" and _chase_to_home(base.name, defs, homes):
            accesses.append(ins)

    if not accesses:
        raise VariableNotFound(
            f"{spec.function_name}: %{spec.variable_name} is never loaded")
    if spec.variable_location > len(accesses):
        raise VariableNotFound(
            f"{spec.function_name}: %{spec.variable_name} has {len(accesses)} "
            f"accesses, location {spec.variable_location} does not exist")

    if spec.in_arr:
        picked = [ins for ins in accesses[spec.variable_location - 1:]
                  if ins.result_type.is_numeric()]
        if not picked:
            raise NonNumericTarget(
                f"{spec.function_name}: no numeric loads of %{spec.variable_name} "
                f"from access {spec.variable_location} on")
        return picked
    ins = accesses[spec.variable_location - 1]
    if not ins.result_type.is_numeric():
        raise NonNumericTarget(
            f"{spec.function_name}: access {spec.variable_location} of "
            f"%{spec.variable_name} loads a {ins.result_type.render()}, not a number")
    return [ins]


def derive_scope(config: InputConfig, spec: TargetSpec) -> OccurrenceScope:
    if not spec.in_loop:
        return OccurrenceScope("nth_execution", (1,))
    return OccurrenceScope(config.loop_mode, config.loop_num)


@dataclass(frozen=True)
class PlanTarget:
    index: int
    function: str
    value_kind: str  # "i32" | "i64" | "f32" | "f64"
    # (header label, body labels) of the innermost loop holding the target,
    # set under loop_iteration scope; None there means the target is in no loop
    loop: tuple[str, frozenset[str]] | None = None


@dataclass(frozen=True)
class InjectionPlan:
    """Static description of where and when to inject for one run."""

    targets: tuple[PlanTarget, ...]
    scope: OccurrenceScope

    def target_indices(self) -> frozenset[int]:
        return frozenset(t.index for t in self.targets)


def build_plan(module: IrModule, config: InputConfig) -> InjectionPlan:
    """Resolve every option entry against an indexed module."""
    check_indexed(module)
    scope = None
    targets: dict[int, PlanTarget] = {}
    for spec in config.options:
        s = derive_scope(config, spec)
        if scope is None:
            scope = s
        elif scope != s:
            raise TargetConfigError(
                "option entries disagree on occurrence scope; split them into "
                "separate configs")
        picked = {ins.index for ins in resolve_targets(module, spec)}
        fn = module.function(spec.function_name)
        for block in fn.blocks:
            for ins in block.instructions:
                if ins.index in picked:
                    loop = (loop_blocks_for(fn, block.label)
                            if s.mode == "loop_iteration" else None)
                    targets[ins.index] = PlanTarget(ins.index, spec.function_name,
                                                    ins.result_type.kind, loop)
    assert scope is not None
    ordered = tuple(targets[i] for i in sorted(targets))
    return InjectionPlan(targets=ordered, scope=scope)


def loop_blocks_for(fn: IrFunction, label: str):
    """Innermost loop containing a block, found by back-edge heuristic.

    A back edge is a branch to a block at the same or earlier textual
    position; its loop body is the natural loop of that edge, walking
    predecessors back from the latch until the header. Returns
    (header_label, frozenset_of_labels) or None when the block sits in
    no loop.
    """
    pos = {b.label: i for i, b in enumerate(fn.blocks)}
    succ: dict[str, list[str]] = {b.label: [] for b in fn.blocks}
    for b in fn.blocks:
        term = b.terminator()
        if term is not None and term.opcode == "br":
            succ[b.label] = [l for l in term.labels if l in pos]

    pred: dict[str, list[str]] = {b.label: [] for b in fn.blocks}
    for src, outs in succ.items():
        for dst in outs:
            pred[dst].append(src)

    best = None
    for src, outs in succ.items():
        for header in outs:
            if pos[header] > pos[src]:
                continue
            body = {header, src}
            work = [src] if src != header else []
            while work:
                for p in pred[work.pop()]:
                    if p not in body:
                        body.add(p)
                        work.append(p)
            if label in body and (best is None or len(body) < len(best[1])):
                best = (header, frozenset(body))
    return best


def emit_artifacts(module: IrModule, source_path: str, out_dir: str = "",
                   plan: InjectionPlan | None = None,
                   config: InputConfig | None = None) -> list[str]:
    """Write the indexed, profiling, and injection-ready program files."""
    check_indexed(module)
    stem = os.path.splitext(os.path.basename(source_path))[0]
    out_dir = out_dir or os.path.dirname(os.path.abspath(source_path))
    os.makedirs(out_dir, exist_ok=True)
    body = print_module(module)

    paths = []

    def write(suffix: str, header_lines: list[str]):
        path = os.path.join(out_dir, stem + suffix)
        with open(path, "w", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"; {line}\n")
            fh.write(body)
        paths.append(path)

    write("-lcfi_index.ll", ["lcfi: instruction index annotations"])
    write("-lcfi_profiling.ll",
          ["lcfi: profiling build, trace hooks on every value-producing "
           "instruction and store"])
    fi_header = ["lcfi: fault-injection build"]
    if plan is not None:
        idxs = ", ".join(str(t.index) for t in plan.targets)
        fi_header.append(f"lcfi: targets [{idxs}] scope {plan.scope.mode} "
                         f"k={list(plan.scope.k)}")
    if config is not None:
        fi_header.append(f"lcfi: fi_type {config.fi_type}")
    write("-lcfi_fi.ll", fi_header)
    return paths
