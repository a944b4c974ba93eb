"""Command-line front end.

Exit codes: 0 success. The campaign command exits 3 when the golden run
fails and 4 on configuration errors; trace diff exits 0 for identical
traces, 1 when a divergence is found, 2 on bad inputs. Everything else
reports errors on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ir.defuse import build_def_use
from .instrument import (assign_indices, build_plan, emit_artifacts,
                         load_input_config, InstrumentError)
from .faults import FaultError, make_sampler
from .vm.machine import DEFAULT_BUDGET, IoConfig, Machine, VmError
from .campaign import (OUTCOMES, ConfigError, GoldenRunFailed,
                       load_campaign_config, load_program, positive_int,
                       run_campaign, warn)
from .traces import (TraceFormatError, IndexMismatch, read_trace, trace_diff,
                     trace_union, build_propagation, trace_to_dot, write_trace)


def _load_indexed(path: str):
    module = load_program(path)
    warn(path, module.warnings)
    return assign_indices(module)


def _io_from_args(args) -> IoConfig:
    files = {}
    for item in getattr(args, "file", None) or []:
        if "=" not in item:
            raise ConfigError(f"--file expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        try:
            with open(path, encoding="utf-8") as fh:
                files[name] = fh.read()
        except OSError as e:
            raise ConfigError(str(e)) from e
    workdir = os.path.dirname(os.path.abspath(args.program))
    return IoConfig(stdin_text=getattr(args, "stdin", "") or "", files=files,
                    workdir=workdir)


def _load_plan(args, module):
    """The --input config, its plan and its fault spec; warnings go to stderr."""
    input_cfg = load_input_config(args.input)
    warn(args.input, input_cfg.warnings)
    plan = build_plan(module, input_cfg)
    spec = input_cfg.fault_spec(base_dir=os.path.dirname(os.path.abspath(args.input)))
    warn(args.input, spec.warnings)
    return input_cfg, plan, spec


def _cmd_instrument(args) -> int:
    module = _load_indexed(args.program)
    input_cfg, plan, _spec = _load_plan(args, module)
    paths = emit_artifacts(module, args.program, out_dir=args.out or "",
                           plan=plan, config=input_cfg)
    print(f"targets: {sorted(plan.target_indices())} "
          f"scope: {plan.scope.mode} k={list(plan.scope.k)}")
    for p in paths:
        print(p)
    return 0


def _cmd_profile(args) -> int:
    module = _load_indexed(args.program)
    machine = Machine(module, io=_io_from_args(args),
                      budget=positive_int(args.budget, "--budget"), trace=True)
    outcome = machine.run()
    sys.stdout.write(outcome.stdout)
    if args.trace_out:
        write_trace(outcome.trace, args.trace_out)
    if outcome.status != "ok":
        detail = outcome.trap.kind if outcome.trap else outcome.status
        print(f"run did not complete: {detail}", file=sys.stderr)
        return 1
    print(f"return value: {outcome.return_value}  steps: {outcome.steps}",
          file=sys.stderr)
    return 0


def _cmd_inject(args) -> int:
    module = _load_indexed(args.program)
    input_cfg, plan, spec = _load_plan(args, module)
    seed = args.seed if args.seed is not None else input_cfg.seed
    machine = Machine(module, io=_io_from_args(args),
                      budget=positive_int(args.budget, "--budget"),
                      trace=True, plan=plan, sampler=make_sampler(spec, seed))
    outcome = machine.run()
    sys.stdout.write(outcome.stdout)
    if args.trace_out:
        write_trace(outcome.trace, args.trace_out)
    status = outcome.status
    if outcome.trap is not None:
        status += f" ({outcome.trap.kind})"
    print(f"status: {status}  activations: {outcome.activation_count}  "
          f"seed: {seed}", file=sys.stderr)
    return 0


def _cmd_campaign(args) -> int:
    cfg = load_campaign_config(args.config)
    warn(args.config, cfg.warnings)
    if args.jobs is not None:
        cfg.jobs = positive_int(args.jobs, "--jobs")
    result = run_campaign(cfg)
    print(f"{len(result.runs)} runs -> " + "  ".join(
        f"{k}: {result.counts.get(k, 0)}" for k in OUTCOMES))
    for p in result.report_paths:
        print(p)
    return 0


def _cmd_trace_diff(args) -> int:
    golden = read_trace(args.golden)
    faulty = read_trace(args.faulty)
    report = trace_diff(golden, faulty)
    if report.identical:
        print("traces are identical")
        return 0
    print(f"classification: {report.classification}")
    print(f"first divergence: {report.first_divergence.describe()}")
    print(f"value divergences: {len(report.value_divergences)}  "
          f"control-flow divergences: {len(report.control_flow_divergences)}")
    if args.verbose:
        for d in report.value_divergences:
            print("  " + d.describe())
        for d in report.control_flow_divergences:
            print("  " + d.describe())
    return 1


def _cmd_trace_union(args) -> int:
    traces = [read_trace(p) for p in args.traces]
    entries = trace_union(traces)
    per = "  ".join(f"t{i}" for i in range(len(traces)))
    print(f"{'index':>6} {'opcode':<8} {'total':>6}  {per}  distinct values")
    for e in entries.values():
        counts = "  ".join(str(c) for c in e.per_trace)
        print(f"{e.index:>6} {e.opcode:<8} {e.executions:>6}  {counts}  "
              f"{len(e.values)}")
    return 0


def _cmd_trace_dot(args) -> int:
    module = _load_indexed(args.program)
    graph = build_def_use(module)
    golden = read_trace(args.golden)
    faulty = read_trace(args.faulty)
    prop = build_propagation(golden, faulty, graph,
                             outputs_equal=not args.outputs_differ)
    dot = trace_to_dot(prop, title=os.path.basename(args.program))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(args.out)
    else:
        sys.stdout.write(dot)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lcfi",
        description="Software fault injection for a textual IR subset: "
                    "instrument, profile, inject, run campaigns, diff traces.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instrument", help="index a program and emit artifacts")
    p.add_argument("program")
    p.add_argument("--input", required=True, help="injection config YAML")
    p.add_argument("--out", help="output directory (default: alongside program)")
    p.set_defaults(fn=_cmd_instrument)

    p = sub.add_parser("profile", help="golden run with tracing")
    p.add_argument("program")
    p.add_argument("--stdin", default="", help="text fed to scanf")
    p.add_argument("--file", action="append", metavar="NAME=PATH",
                   help="virtual file visible to freopen/fopen")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--trace-out", help="write the golden trace here")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("inject", help="single seeded injection run")
    p.add_argument("program")
    p.add_argument("--input", required=True, help="injection config YAML")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--stdin", default="")
    p.add_argument("--file", action="append", metavar="NAME=PATH")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--trace-out", help="write the faulty trace here")
    p.set_defaults(fn=_cmd_inject)

    p = sub.add_parser("campaign", help="golden run plus N seeded runs and a report")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, help="worker processes")
    p.set_defaults(fn=_cmd_campaign)

    tr = sub.add_parser("trace", help="trace file tools")
    trsub = tr.add_subparsers(dest="trace_command", required=True)

    p = trsub.add_parser("diff", help="align two traces and report divergences")
    p.add_argument("golden")
    p.add_argument("faulty")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_trace_diff)

    p = trsub.add_parser("union", help="merge traces into per-instruction stats")
    p.add_argument("traces", nargs="+")
    p.set_defaults(fn=_cmd_trace_union)

    p = trsub.add_parser("dot", help="propagation graph as DOT")
    p.add_argument("golden")
    p.add_argument("faulty")
    p.add_argument("--program", required=True,
                   help="the indexed program the traces came from")
    p.add_argument("--out", help="write DOT here instead of stdout")
    p.add_argument("--outputs-differ", action="store_true",
                   help="mark that program outputs differed (clears the "
                        "benign-candidate flag)")
    p.set_defaults(fn=_cmd_trace_dot)

    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    is_campaign = args.command == "campaign"
    try:
        return args.fn(args)
    except GoldenRunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, InstrumentError, FaultError, TraceFormatError,
            IndexMismatch, VmError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4 if is_campaign else 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
