"""Campaign driver: one golden run, N seeded injection runs, a report.

The golden run executes the profiling build (tracing on, no faults) and its
stdout plus trace become the baseline artifacts. Every injection run gets an
independent sampler seeded from (campaign seed, run index, salt), so a rerun
of the same config reproduces every artifact byte for byte, with or without
worker processes.

Injection runs reuse golden's work: each starts from a snapshot of the state
where the plan's first draw is due (`prefix_snapshot`), and its trace file
copies golden's rendered lines wherever its records equal golden's.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import math
import os
import pickle
import re
import signal
import sys
from dataclasses import dataclass, field

from .ir.nodes import IrModule
from .ir.parser import parse_module, ParseError
from .ir.validate import validate
from .instrument import (InjectionPlan, InputConfig, assign_indices, as_text,
                         build_plan, emit_artifacts, integer, load_input_config,
                         load_yaml, positive_int, unknown_keys, InstrumentError)
from .faults import FaultSpec, make_sampler, FaultError, mix64
from .vm.decode import VmError, decoded
from .vm.machine import (DEFAULT_BUDGET, IoConfig, Machine, RunOutcome, Snapshot,
                         prefix_snapshot)
from .traces import TraceText, write_trace

OUTCOMES = ("crash", "hang", "sdc", "benign_masked", "benign_not_activated")


class ConfigError(Exception):
    pass


class GoldenRunFailed(Exception):
    def __init__(self, outcome: RunOutcome):
        self.outcome = outcome
        detail = outcome.trap.kind if outcome.trap else outcome.status
        super().__init__(f"golden run did not complete: {detail}")


class MetricValueError(Exception):
    """A metric value a report cannot hold; the run keeps a note instead."""


class NonPositiveForLog(MetricValueError):
    pass


@dataclass
class MetricSpec:
    name: str
    pattern: re.Pattern
    source: str = "stdout"       # "stdout" (each faulty run) | "golden"
    transform: str = "identity"  # "identity" | "neg_log10"


@dataclass
class CompareSpec:
    mode: str = "exact"  # "exact" | "numeric" | "none"
    rel_tol: float = 1e-9
    abs_tol: float = 0.0


@dataclass
class CampaignConfig:
    program: str
    input: str
    runs: int = 10
    seed: int | None = None
    budget: int = DEFAULT_BUDGET
    jobs: int = 1
    output_dir: str = "lcfi-out"
    report_formats: tuple[str, ...] = ("txt", "json", "csv")
    stdin_text: str = ""
    files: dict[str, str] = field(default_factory=dict)
    workdir: str = ""
    compare: CompareSpec = field(default_factory=CompareSpec)
    metrics: list[MetricSpec] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def io_config(self) -> IoConfig:
        workdir = self.workdir or os.path.dirname(os.path.abspath(self.program))
        return IoConfig(stdin_text=self.stdin_text, files=dict(self.files),
                        workdir=workdir)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def warn(source: str, warnings: list[str]) -> None:
    """Each warning on stderr as `<source>: warning: <text>`."""
    for w in warnings:
        print(f"{source}: warning: {w}", file=sys.stderr)


def parse_campaign_config(data, base_dir: str = ".",
                          source: str = "<config>") -> CampaignConfig:
    _require(isinstance(data, dict), f"{source}: top level must be a mapping")
    _require("program" in data, f"{source}: program is required")
    _require("input" in data, f"{source}: input is required")

    def text(value, key: str) -> str:
        return as_text(value, f"{source}: {key}", ConfigError)

    def resolve(value, key: str) -> str:
        p = text(value, key)
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    cfg = CampaignConfig(program=resolve(data["program"], "program"),
                         input=resolve(data["input"], "input"))
    cfg.warnings += unknown_keys(data, ("program", "input", "runs", "seed", "budget",
                                        "jobs", "output_dir", "report_formats", "io",
                                        "compare", "metrics"))

    for key in ("runs", "budget", "jobs"):
        if key in data:
            setattr(cfg, key, positive_int(data[key], f"{source}: {key}", ConfigError))
    if "seed" in data:
        cfg.seed = integer(data["seed"], f"{source}: seed", ConfigError)
    if "output_dir" in data:
        cfg.output_dir = resolve(data["output_dir"], "output_dir")
    if "report_formats" in data:
        fmts = data["report_formats"]
        _require(isinstance(fmts, list) and fmts, f"{source}: report_formats must be a list")
        for k, f in enumerate(fmts):
            _require(f in ("txt", "json", "csv"), f"{source}: unknown report format {f!r}")
            _require(f not in fmts[:k], f"{source}: report format {f!r} given twice")
        cfg.report_formats = tuple(fmts)

    io_block = data.get("io", {})
    _require(isinstance(io_block, dict), f"{source}: io must be a mapping")
    cfg.warnings += unknown_keys(io_block, ("stdin", "workdir", "files"), "io.")
    if "stdin" in io_block:
        cfg.stdin_text = text(io_block["stdin"], "io.stdin")
    if "workdir" in io_block:
        cfg.workdir = resolve(io_block["workdir"], "io.workdir")
    files = io_block.get("files", {})
    _require(isinstance(files, dict), f"{source}: io.files must be a mapping")
    for name, val in files.items():
        entry = f"io.files[{name!r}]"
        if isinstance(val, dict):
            _require("from" in val, f"{source}: {entry} needs a 'from' path")
            cfg.files[str(name)] = read_text(resolve(val["from"], f"{entry}.from"),
                                             f"{source}: {entry}")
        else:
            cfg.files[str(name)] = text(val, entry)

    cmp_block = data.get("compare", {})
    _require(isinstance(cmp_block, dict), f"{source}: compare must be a mapping")
    cfg.warnings += unknown_keys(cmp_block, ("mode", "rel_tol", "abs_tol"), "compare.")
    mode = cmp_block.get("mode", "exact")
    _require(mode in ("exact", "numeric", "none"),
             f"{source}: compare.mode must be exact, numeric, or none")
    tols = {}
    for key, default in (("rel_tol", 1e-9), ("abs_tol", 0.0)):
        v = cmp_block.get(key, default)
        try:
            tols[key] = float(v)
        except (TypeError, ValueError):
            tols[key] = math.nan
        _require(not isinstance(v, bool) and tols[key] >= 0,
                 f"{source}: compare.{key} must be a non-negative number")
    cfg.compare = CompareSpec(mode=mode, **tols)

    metrics = data.get("metrics")
    _require(metrics is None or isinstance(metrics, list), f"{source}: metrics must be a list")
    for i, m in enumerate(metrics or []):
        _require(isinstance(m, dict), f"{source}: metrics[{i}] must be a mapping")
        cfg.warnings += unknown_keys(m, ("name", "pattern", "source", "transform"),
                                     f"metrics[{i}].")
        _require("name" in m and "pattern" in m,
                 f"{source}: metrics[{i}] needs name and pattern")
        try:
            pat = re.compile(text(m["pattern"], f"metrics[{i}].pattern"))
        except re.error as e:
            raise ConfigError(f"{source}: metrics[{i}].pattern: {e}") from e
        _require(pat.groups == 1,
                 f"{source}: metrics[{i}].pattern must have exactly one capture group")
        transform = m.get("transform", "identity")
        _require(transform in ("identity", "neg_log10"),
                 f"{source}: metrics[{i}].transform must be identity or neg_log10")
        metric_source = m.get("source", "stdout")
        _require(metric_source in ("stdout", "golden"),
                 f"{source}: metrics[{i}].source must be stdout or golden")
        cfg.metrics.append(MetricSpec(text(m["name"], f"metrics[{i}].name"), pat,
                                      metric_source, transform))

    return cfg


def load_campaign_config(path: str) -> CampaignConfig:
    return parse_campaign_config(load_yaml(path, ConfigError),
                                 base_dir=os.path.dirname(os.path.abspath(path)),
                                 source=path)


# -- outcome classification ---------------------------------------------------

_NUM_TOKEN = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def outputs_match(golden: str, faulty: str, compare: CompareSpec) -> bool:
    if compare.mode == "none":
        return True
    if compare.mode == "exact":
        return golden == faulty
    g_nums = _NUM_TOKEN.findall(golden)
    f_nums = _NUM_TOKEN.findall(faulty)
    if len(g_nums) != len(f_nums):
        return False
    if _NUM_TOKEN.sub("#", golden) != _NUM_TOKEN.sub("#", faulty):
        return False
    for gs, fs in zip(g_nums, f_nums):
        if not math.isclose(float(gs), float(fs),
                            rel_tol=compare.rel_tol, abs_tol=compare.abs_tol):
            return False
    return True


def classify_outcome(golden: RunOutcome, run: RunOutcome,
                     compare: CompareSpec) -> str:
    if run.status == "trapped":
        return "crash"
    if run.status == "budget_exhausted":
        return "hang"
    if not outputs_match(golden.stdout, run.stdout, compare):
        return "sdc"
    if run.activation_count > 0:
        return "benign_masked"
    return "benign_not_activated"


def extract_metric(text: str, spec: MetricSpec) -> float | None:
    """Pull one number out of program output; None when the pattern misses,
    its group takes no part in the match or does not parse as a number. A
    value that is not finite raises MetricValueError, as does neg_log10 of
    one that is not positive."""
    m = spec.pattern.search(text)
    if m is None or m.group(1) is None:
        return None
    try:
        v = float(m.group(1))
    except ValueError:
        return None
    if not math.isfinite(v):
        raise MetricValueError(f"metric {spec.name}: non-finite value {v!r}")
    if spec.transform == "neg_log10":
        if v <= 0:
            raise NonPositiveForLog(
                f"metric {spec.name}: neg_log10 of non-positive value {v!r}")
        return -math.log10(v)
    return v


# -- running -------------------------------------------------------------------

@dataclass
class RunResult:
    """Summary of one injection run; its stdout and trace are in the artifact tree."""
    run_index: int
    seed: int
    outcome: str
    activation_count: int
    skipped_nonfinite: int
    steps: int
    trap_kind: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class CampaignResult:
    config: CampaignConfig
    plan: InjectionPlan
    golden: RunOutcome
    runs: list[RunResult]
    counts: dict[str, int]
    report_paths: list[str]

    def percentage(self, outcome: str) -> float:
        return 100.0 * self.counts.get(outcome, 0) / max(1, len(self.runs))


@dataclass(frozen=True)
class RunContext:
    """Everything an injection run needs, shared by all runs of a campaign."""
    config: CampaignConfig
    module: IrModule
    plan: InjectionPlan
    fault_spec: FaultSpec
    io: IoConfig
    campaign_seed: int
    golden: RunOutcome  # stdout only, for classification
    golden_metrics: dict[str, float]
    golden_text: TraceText  # golden's trace, for write_trace to copy from
    start: Snapshot | None  # where every run starts; None: from scratch


def read_text(path: str, what: str) -> str:
    """A program's or a virtual file's text; a ConfigError starts with `what`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ConfigError(f"{what}: {e}") from e


def load_program(path: str) -> IrModule:
    """Read and parse a program; a ConfigError names a parse error."""
    try:
        return parse_module(read_text(path, "cannot read program"),
                            source_name=os.path.basename(path))
    except ParseError as e:
        raise ConfigError(f"{path}: {e}") from e


def load_indexed(path: str) -> IrModule:
    """A program read, parsed, indexed and validated, its warnings on stderr;
    a ConfigError names every problem. For a command that does not run it."""
    module = assign_indices(load_program(path))
    problems = validate(module)
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(map(str, problems)))
    warn(path, module.warnings)
    return module


def load_runnable(path: str) -> IrModule:
    """`load_indexed` for a program about to run: decoding it validates it,
    so it is validated once."""
    module = assign_indices(load_program(path))
    try:
        decoded(module)
    except VmError as e:
        raise ConfigError(f"{path}: {e}") from e
    warn(path, module.warnings)
    return module


def load_plan(path: str, module: IrModule) -> tuple[InputConfig, InjectionPlan, FaultSpec]:
    """The injection config at `path`, its plan on an indexed module and its
    fault spec; their warnings go to stderr, their errors are ConfigErrors."""
    try:
        input_cfg = load_input_config(path)
        warn(path, input_cfg.warnings)
        spec = input_cfg.fault_spec(base_dir=os.path.dirname(os.path.abspath(path)))
    except (InstrumentError, FaultError) as e:
        raise ConfigError(str(e)) from e
    try:
        plan = build_plan(module, input_cfg)
    except InstrumentError as e:  # it names the entry, not the file
        raise ConfigError(f"{path}: {e}") from e
    warn(path, spec.warnings)
    return input_cfg, plan, spec


def _collect_metrics(text: str, specs: list[MetricSpec], source: str,
                     metrics: dict[str, float], notes: list[str]) -> None:
    for spec in specs:
        if spec.source != source:
            continue
        try:
            v = extract_metric(text, spec)
        except MetricValueError as e:
            notes.append(str(e))
            continue
        if v is not None:
            metrics[spec.name] = v


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _injection_log(outcome: RunOutcome, run_index: int, seed: int) -> str:
    lines = [f"run={run_index} seed={seed} activations={outcome.activation_count} "
             f"skipped_nonfinite={outcome.skipped_nonfinite}"]
    for a in outcome.activations:
        lines.append(f"fi_index={a.index} opcode={a.opcode} step={a.step} "
                     f"original={a.original_hex} faulted={a.faulted_hex} "
                     f"error={a.error!r}")
    return "\n".join(lines) + "\n"


def _worker_run(ctx: RunContext, run_index: int) -> RunResult:
    """Run, classify and write one injection run, in whichever process runs it.

    Every artifact path depends only on the run index, so the tree is the
    same at any job count.
    """
    cfg = ctx.config
    seed = mix64(ctx.campaign_seed, run_index, 0)
    oc = Machine(ctx.module, io=ctx.io, budget=cfg.budget, trace=True,
                 plan=ctx.plan, sampler=make_sampler(ctx.fault_spec, seed),
                 start=ctx.start).run()
    rr = RunResult(run_index=run_index, seed=seed,
                   outcome=classify_outcome(ctx.golden, oc, cfg.compare),
                   activation_count=oc.activation_count,
                   skipped_nonfinite=oc.skipped_nonfinite, steps=oc.steps,
                   trap_kind=oc.trap.kind if oc.trap else "",
                   metrics=dict(ctx.golden_metrics))
    _collect_metrics(oc.stdout, cfg.metrics, "stdout", rr.metrics, rr.notes)
    if oc.skipped_nonfinite:
        rr.notes.append(f"{oc.skipped_nonfinite} fault(s) skipped on "
                        "non-finite target values")

    llfi = os.path.join(cfg.output_dir, "llfi")
    _write_text(os.path.join(llfi, "std_output", f"std_outputfile-run-{run_index}-0"),
                oc.stdout)
    if rr.outcome in ("crash", "hang"):
        t = oc.trap
        _write_text(os.path.join(llfi, "error_output", f"errorfile-run-{run_index}-0"),
                    f"{t.kind}: {t.message}\nfunction: @{t.function} index: {t.index}\n"
                    if t is not None else f"budget exhausted after {oc.steps} steps\n")
    stat_dir = os.path.join(llfi, "llfi_stat_output")
    write_trace(oc.trace, os.path.join(stat_dir, f"llfi.stat.trace.{run_index}-0.txt"),
                ctx.golden_text)
    _write_text(os.path.join(stat_dir, f"llfi.stat.fi.injectedfaults.{run_index}-0.txt"),
                _injection_log(oc, run_index, seed))
    return rr


def _worker_main(ctx: RunContext, k: int, n: int, w: int, inherited: list[int]):
    """A forked worker's whole life: run every n-th run from run k, send one
    pickle through the pipe end `w` (the RunResults, or the exception raised),
    and leave through os._exit, so none of the parent's finally blocks or
    atexit handlers runs here. `inherited` are the pipe ends it does not use."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        try:
            payload = [_worker_run(ctx, i) for i in range(k, ctx.config.runs, n)]
        except BaseException as e:  # the parent re-raises it
            try:
                pickle.loads(pickle.dumps(e))
                payload = e
            except Exception:
                payload = RuntimeError(repr(e))
        with open(w, "wb") as fh:
            pickle.dump(payload, fh)
        code = 0
    finally:
        os._exit(code)


def _run_forked(ctx: RunContext, n: int) -> list[RunResult]:
    """The campaign's runs, run by `n` workers forked from this process. Each
    inherits `ctx` (module, decoded segments, plan, golden's trace, snapshot)
    and sends its results back through a pipe of its own. On every way out,
    each worker still running is killed and reaped."""
    sys.stdout.flush()
    sys.stderr.flush()
    fds: list[int] = []  # the pipe ends this process holds open
    workers: dict[int, int] = {}  # pid -> its pipe's read end, until reaped
    try:
        for k in range(n):
            r, w = os.pipe()
            fds += (r, w)
            pid = os.fork()
            if pid == 0:
                _worker_main(ctx, k, n, w, [fd for fd in fds if fd != w])
            workers[pid] = r
            os.close(w)
            fds.remove(w)
        runs: list[RunResult] = []
        for pid, r in list(workers.items()):
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            os.close(r)
            fds.remove(r)
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            code = os.waitstatus_to_exitcode(status)
            if code:  # a worker that sent its pickle exits with 0
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"campaign worker {pid} ended without a result "
                                   f"({how})")
            payload = pickle.loads(data)
            if isinstance(payload, BaseException):
                raise payload
            runs += payload
    finally:
        for fd in fds:
            os.close(fd)
        for pid in workers:
            # an interrupt can land between a worker's reaping and its del
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return sorted(runs, key=lambda rr: rr.run_index)


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Execute a full campaign and write the artifact tree. The program's
    and the injection config's warnings go to stderr."""
    indexed = load_runnable(cfg.program)
    input_cfg, plan, fault_spec = load_plan(cfg.input, indexed)

    out = cfg.output_dir
    baseline_dir = os.path.join(out, "llfi", "baseline")
    for d in ("baseline", "std_output", "error_output", "prog_output",
              "llfi_stat_output"):
        os.makedirs(os.path.join(out, "llfi", d), exist_ok=True)
    emit_artifacts(indexed, cfg.program, out_dir=out, plan=plan, config=input_cfg)

    io_cfg = cfg.io_config()
    golden = Machine(indexed, io=io_cfg, budget=cfg.budget, trace=True).run()
    if golden.status != "ok":
        raise GoldenRunFailed(golden)
    _write_text(os.path.join(baseline_dir, "golden_std_output"), golden.stdout)
    golden_text = write_trace(golden.trace,
                              os.path.join(baseline_dir, "llfi.stat.trace.prof.txt"))
    golden_metrics: dict[str, float] = {}
    golden_notes: list[str] = []
    _collect_metrics(golden.stdout, cfg.metrics, "golden", golden_metrics, golden_notes)

    ctx = RunContext(config=cfg, module=indexed, plan=plan, fault_spec=fault_spec,
                     io=io_cfg,
                     campaign_seed=cfg.seed if cfg.seed is not None else input_cfg.seed,
                     golden=RunOutcome(status="ok", stdout=golden.stdout),
                     golden_metrics=golden_metrics, golden_text=golden_text,
                     start=(prefix_snapshot(indexed, io_cfg, cfg.budget, plan)
                            if cfg.runs >= 1 else None))
    workers = min(cfg.jobs, cfg.runs)
    if workers > 1 and not hasattr(os, "fork"):
        warn("lcfi", [f"jobs: {cfg.jobs} needs os.fork, which this platform lacks; "
                      "the runs run one after another in this process"])
        workers = 1
    runs = (_run_forked(ctx, workers) if workers > 1
            else [_worker_run(ctx, i) for i in range(cfg.runs)])

    counts = {k: 0 for k in OUTCOMES}
    for r in runs:
        counts[r.outcome] += 1
    result = CampaignResult(config=cfg, plan=plan, golden=golden, runs=runs,
                            counts=counts, report_paths=[])
    result.report_paths = write_reports(result, golden_notes)
    return result


# -- reports --------------------------------------------------------------------

# Per-run report columns of report.json's run_details and report.csv:
# (column name, RunResult attribute).
_RUN_COLUMNS = (("run", "run_index"), ("seed", "seed"), ("outcome", "outcome"),
               ("trap", "trap_kind"), ("activations", "activation_count"),
               ("skipped_nonfinite", "skipped_nonfinite"), ("steps", "steps"))


def _run_row(r: RunResult) -> dict:
    return {name: getattr(r, attr) for name, attr in _RUN_COLUMNS}


def _metric_summary(runs: list[RunResult]) -> dict[str, dict[str, float]]:
    by_name: dict[str, list[float]] = {}
    for r in runs:
        for name, v in r.metrics.items():
            by_name.setdefault(name, []).append(v)
    out = {}
    for name in sorted(by_name):
        vs = by_name[name]
        mean = sum(vs) / len(vs)
        if math.isinf(mean):  # the sum overflowed; finite values have a finite mean
            mean = sum(v / len(vs) for v in vs)
        out[name] = {"count": len(vs), "mean": mean, "min": min(vs), "max": max(vs)}
    return out


def render_text_report(result: CampaignResult, golden_notes: list[str]) -> str:
    cfg = result.config
    n = len(result.runs)
    lines = [
        f"fault injection campaign: {os.path.basename(cfg.program)}",
        f"runs: {n}   targets: {sorted(result.plan.target_indices())}   "
        f"scope: {result.plan.scope.mode} k={list(result.plan.scope.k)}",
        "",
        f"{'outcome':<22}{'runs':>6}{'pct':>8}",
    ]
    for name in OUTCOMES:
        c = result.counts.get(name, 0)
        pct = result.percentage(name)
        bar = "#" * round(pct * 0.4)
        lines.append(f"{name:<22}{c:>6}{pct:>7.1f}% {bar}")
    summary = _metric_summary(result.runs)
    if summary:
        lines.append("")
        lines.append("metrics:")
        for name, s in summary.items():
            lines.append(f"  {name}: n={s['count']} mean={s['mean']:.6g} "
                         f"min={s['min']:.6g} max={s['max']:.6g}")
    notes = list(golden_notes)
    for r in result.runs:
        notes.extend(f"run {r.run_index}: {note}" for note in r.notes)
    if notes:
        lines.append("")
        lines.append("notes:")
        lines.extend(f"  {note}" for note in notes)
    return "\n".join(lines) + "\n"


def render_json_report(result: CampaignResult, golden_notes: list[str]) -> str:
    doc = {
        "program": os.path.basename(result.config.program),
        "runs": len(result.runs),
        "targets": sorted(result.plan.target_indices()),
        "scope": {"mode": result.plan.scope.mode, "k": list(result.plan.scope.k)},
        "outcomes": {k: result.counts.get(k, 0) for k in OUTCOMES},
        "percentages": {k: round(result.percentage(k), 4) for k in OUTCOMES},
        "metrics_summary": _metric_summary(result.runs),
        "golden_notes": golden_notes,
        "run_details": [{**_run_row(r), "metrics": dict(sorted(r.metrics.items())),
                         "notes": r.notes} for r in result.runs],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def render_csv_report(result: CampaignResult) -> str:
    metric_names = sorted({name for r in result.runs for name in r.metrics})
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([name for name, _attr in _RUN_COLUMNS] + metric_names)
    for r in result.runs:
        w.writerow(list(_run_row(r).values())
                   + [r.metrics.get(name, "") for name in metric_names])
    return buf.getvalue()


def write_reports(result: CampaignResult, golden_notes: list[str]) -> list[str]:
    paths = []
    out = result.config.output_dir
    for fmt in result.config.report_formats:
        path = os.path.join(out, f"report.{fmt}")
        if fmt == "txt":
            content = render_text_report(result, golden_notes)
        elif fmt == "json":
            content = render_json_report(result, golden_notes)
        else:
            content = render_csv_report(result)
        _write_text(path, content)
        paths.append(path)
    return paths
