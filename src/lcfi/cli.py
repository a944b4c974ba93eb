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

from .traces import (TraceFormatError, IndexMismatch, read_trace, trace_diff,
                     trace_union, build_propagation, trace_to_dot, write_trace)

# Each command imports the modules it runs, so `trace diff` and `trace union`
# load only lcfi.traces (no numpy, yaml, IR or interpreter).


def _run(args, module, **faults):
    """Run the program with tracing on, as --stdin, --file and --budget set it;
    its stdout goes to ours and its trace to --trace-out."""
    from .campaign import ConfigError, read_text
    from .instrument import positive_int
    from .vm.machine import DEFAULT_BUDGET, IoConfig, Machine
    files = {}
    for item in args.file or []:
        if "=" not in item:
            raise ConfigError(f"--file expects name=path, got {item!r}")
        name, path = item.split("=", 1)
        files[name] = read_text(path, f"--file {item}")
    io = IoConfig(stdin_text=args.stdin or "", files=files,
                  workdir=os.path.dirname(os.path.abspath(args.program)))
    budget = (DEFAULT_BUDGET if args.budget is None
              else positive_int(args.budget, "--budget", ConfigError))
    outcome = Machine(module, io=io, budget=budget, trace=True, **faults).run()
    sys.stdout.write(outcome.stdout)
    if args.trace_out:
        write_trace(outcome.trace, args.trace_out)
    return outcome


def _cmd_instrument(args) -> int:
    from .campaign import load_indexed, load_plan
    from .instrument import emit_artifacts
    module = load_indexed(args.program)
    input_cfg, plan, _spec = load_plan(args.input, module)
    paths = emit_artifacts(module, args.program, out_dir=args.out or "",
                           plan=plan, config=input_cfg)
    print(f"targets: {sorted(plan.target_indices())} "
          f"scope: {plan.scope.mode} k={list(plan.scope.k)}")
    for p in paths:
        print(p)
    return 0


def _cmd_profile(args) -> int:
    from .campaign import load_runnable
    outcome = _run(args, load_runnable(args.program))
    if outcome.status != "ok":
        detail = outcome.trap.kind if outcome.trap else outcome.status
        print(f"run did not complete: {detail}", file=sys.stderr)
        return 1
    print(f"return value: {outcome.return_value}  steps: {outcome.steps}",
          file=sys.stderr)
    return 0


def _cmd_inject(args) -> int:
    from .campaign import load_plan, load_runnable
    from .faults import make_sampler
    module = load_runnable(args.program)
    input_cfg, plan, spec = load_plan(args.input, module)
    seed = args.seed if args.seed is not None else input_cfg.seed
    outcome = _run(args, module, plan=plan, sampler=make_sampler(spec, seed))
    status = outcome.status
    if outcome.trap is not None:
        status += f" ({outcome.trap.kind})"
    print(f"status: {status}  activations: {outcome.activation_count}  "
          f"seed: {seed}", file=sys.stderr)
    return 0


def _cmd_campaign(args) -> int:
    from .campaign import (OUTCOMES, ConfigError, load_campaign_config, run_campaign,
                           warn)
    from .instrument import positive_int
    cfg = load_campaign_config(args.config)
    warn(args.config, cfg.warnings)
    if args.jobs is not None:
        cfg.jobs = positive_int(args.jobs, "--jobs", ConfigError)
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
    from .campaign import load_indexed
    from .ir.defuse import build_def_use
    module = load_indexed(args.program)
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
    p.add_argument("--budget", type=int)
    p.add_argument("--trace-out", help="write the golden trace here")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("inject", help="single seeded injection run")
    p.add_argument("program")
    p.add_argument("--input", required=True, help="injection config YAML")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--stdin", default="")
    p.add_argument("--file", action="append", metavar="NAME=PATH")
    p.add_argument("--budget", type=int)
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


def _exit_code(e: Exception, command: str) -> int | None:
    """main's exit code for an error that reached it; None for one it lets
    through. The other modules' error classes are imported only here."""
    from .campaign import ConfigError, GoldenRunFailed
    from .faults import FaultError
    from .instrument import InstrumentError
    if isinstance(e, GoldenRunFailed):
        return 3
    if isinstance(e, (ConfigError, InstrumentError, FaultError, TraceFormatError,
                      IndexMismatch)):
        return 4 if command == "campaign" else 2
    if isinstance(e, OSError):
        return 2
    return None


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:
        code = _exit_code(e, args.command)
        if code is None:
            raise
        print(f"error: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
