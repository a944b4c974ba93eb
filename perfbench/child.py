"""One benchmark sample, run in a fresh process by run.py.

argv[1] is a JSON job; the last line of stdout is a JSON result. Kinds:

- "campaign": import lcfi, run the campaign with zero injection runs (the
  set-up: parse, validate, index, plan, emit, traced golden run and its
  trace write), then run it in full and time it. With "spans", the layer
  functions run_campaign calls are wrapped in timers first (see Spans).
- "diff": import lcfi.traces, then read and diff a batch of trace pairs
  the way `lcfi trace diff` does, checking each report.

Set-up time runs from the parent's clock reading just before it started this
process, so interpreter start-up and imports count.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from common import FIXTURES, SRC, now

sys.path.insert(0, SRC)

LOOPER_STEPS = 200_000
UNTRACED_RERUNS = 20


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Spans:
    """Timers around the layer functions that run_campaign looks up.

    Each wrapper replaces a name in lcfi.campaign or lcfi.vm.machine, so the
    timed calls are the ones run_campaign really makes; lcfi itself is not
    changed. `top` sums the spans not nested in another span, so run_campaign's
    wall time minus `top` is its self time.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.runs: list[tuple] = []  # (machine, outcome, seconds) per injection run
        self.top = 0.0
        self._depth = 0

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] += seconds
        if self._depth == 0:
            self.top += seconds

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.add(name, perf_counter() - t0)

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        import lcfi.campaign as campaign
        import lcfi.vm.machine as machine

        for attr, name in (("parse_module", "ir.parse"),
                           ("validate", "ir.validate"),
                           ("assign_indices", "instrument.index"),
                           ("load_input_config", "instrument.plan"),
                           ("build_plan", "instrument.plan"),
                           ("emit_artifacts", "instrument.emit"),
                           ("write_trace", "traces.golden_write"),
                           ("make_sampler", "faults.draw"),
                           ("classify_outcome", "campaign.classify"),
                           ("write_reports", "campaign.report")):
            setattr(campaign, attr, self.timed(name, getattr(campaign, attr)))
        for attr in ("sample_error", "apply_fault"):
            setattr(machine, attr, self.timed("faults.draw", getattr(machine, attr)))

        spans = self

        class TimedMachine(machine.Machine):
            """Construction plus run, timed as vm.golden or as one vm.run."""

            def __init__(self, *args, **kwargs):
                t0 = perf_counter()
                super().__init__(*args, **kwargs)
                self.init_s = perf_counter() - t0

            def run(self, *args, **kwargs):
                name = "vm.golden" if self.plan is None else "vm.run"
                t0 = perf_counter()
                with spans.span(name):
                    outcome = super().run(*args, **kwargs)
                spans.add(name, self.init_s)
                if self.plan is not None:
                    spans.runs.append((self, outcome,
                                       self.init_s + perf_counter() - t0))
                return outcome

        campaign.Machine = TimedMachine


def layer_metrics(spans: Spans, wall: float, pooled: bool,
                  out_dir: str) -> tuple[dict, int]:
    """Per-layer numbers of one spanned campaign, plus the count of runs whose
    untraced rerun disagreed with the traced run. With `pooled`, also the
    pickled sizes a worker pool sends and returns per run."""
    import lcfi.campaign as campaign
    from lcfi.vm.machine import Machine
    from lcfi.faults import make_sampler

    t = spans.totals
    runs = [(mach, oc) for mach, oc, _s in spans.runs]
    run_s = [s for _m, _oc, s in spans.runs]
    steps = [oc.steps for _m, oc in runs]
    prefix = sum(oc.activations[0].step - 1 for _m, oc in runs if oc.activations)
    records = [len(oc.trace) for _m, oc in runs]
    m = {
        "ir.parse_s": t["ir.parse"],
        "ir.validate_s": t["ir.validate"],
        "instrument.index_s": t["instrument.index"],
        "instrument.plan_s": t["instrument.plan"],
        "instrument.emit_s": t["instrument.emit"],
        "vm.golden_s": t["vm.golden"],
        "vm.steps_per_s_traced": sum(steps) / t["vm.run"],
        "vm.run_s_p50": statistics.median(run_s),
        # p95 needs 200 runs to leave ten beyond it; 0 marks fewer runs.
        "vm.run_s_p95": (statistics.quantiles(run_s, n=20, method="inclusive")[18]
                         if len(runs) >= 200 else 0.0),
        "vm.steps": statistics.median(steps),
        "vm.prefix_share": prefix / sum(steps),
        "faults.draw_s": t["faults.draw"],
        "faults.activations": sum(oc.activation_count for _m, oc in runs),
        "traces.records": statistics.mean(records),
        "campaign.classify_s": t["campaign.classify"],
        "campaign.report_s": t["campaign.report"],
        "campaign.self_s": wall - spans.top,
    }

    render_s = write_s = 0.0
    os.makedirs(out_dir, exist_ok=True)
    for i, (_m, oc) in enumerate(runs):
        t0 = perf_counter()
        lines = [r.render() for r in oc.trace]
        t1 = perf_counter()
        with open(os.path.join(out_dir, f"trace.{i}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        write_s += perf_counter() - t1
        render_s += t1 - t0
    m["traces.render_s"] = render_s
    m["traces.write_s"] = write_s

    if pooled:
        submit, result = [], []
        for i, (mach, oc) in enumerate(runs):
            args = (mach.module, mach.plan, mach.sampler.spec, mach.io,
                    mach.budget, i, mach.sampler.seed)
            submit.append(len(pickle.dumps((campaign._worker_run, args))))
            result.append(len(pickle.dumps((i, oc))))
        m["campaign.submit_bytes"] = statistics.mean(submit)
        m["campaign.result_bytes"] = statistics.mean(result)
    else:
        m["campaign.submit_bytes"] = m["campaign.result_bytes"] = 0.0

    untraced_steps, untraced_s, mismatched = 0, 0.0, 0
    for mach, oc in runs[:UNTRACED_RERUNS]:
        sampler = make_sampler(mach.sampler.spec, mach.sampler.seed)
        t0 = perf_counter()
        again = Machine(mach.module, io=mach.io, budget=mach.budget, trace=False,
                        plan=mach.plan, sampler=sampler).run()
        untraced_s += perf_counter() - t0
        untraced_steps += again.steps
        if (again.steps, again.stdout, again.status) != (oc.steps, oc.stdout, oc.status):
            mismatched += 1
    m["vm.steps_per_s_untraced"] = untraced_steps / untraced_s
    return m, mismatched


def looper_probe() -> dict:
    """Interpreter steps/s on the looper fixture, traced and untraced."""
    from lcfi.ir.parser import parse_module
    from lcfi.instrument import assign_indices
    from lcfi.vm.machine import Machine

    with open(os.path.join(FIXTURES, "looper.ll"), encoding="utf-8") as fh:
        module = assign_indices(parse_module(fh.read()))
    out = {}
    for traced in (False, True):
        t0 = perf_counter()
        oc = Machine(module, budget=LOOPER_STEPS, trace=traced).run()
        dt = perf_counter() - t0
        if oc.status != "budget_exhausted":
            raise RuntimeError(f"looper ended as {oc.status}")
        key = "traced" if traced else "untraced"
        out[f"vm.looper_steps_per_s_{key}"] = oc.steps / dt
    return out


def run_campaign_job(job: dict) -> dict:
    from lcfi.campaign import CampaignConfig, run_campaign

    cfg = CampaignConfig(program=job["program"], input=job["input"], runs=0,
                         seed=job["seed"], budget=job["budget"], jobs=job["jobs"],
                         output_dir=os.path.join(job["out"], "setup"))
    run_campaign(cfg)
    setup_s = now() - job["t_spawn"]

    spans = Spans() if job["spans"] else None
    if spans:
        spans.install()
    cfg.runs = job["runs"]
    cfg.output_dir = os.path.join(job["out"], "tree")
    t0 = perf_counter()
    result = run_campaign(cfg)
    wall = perf_counter() - t0
    res = {"setup_s": setup_s, "wall_s": wall, "runs": len(result.runs),
           "rss_kb": _peak_rss_kb(), "mismatched": 0}
    del result
    if spans:
        res["layers"], res["mismatched"] = layer_metrics(
            spans, wall, job["workload_jobs"] > 1, os.path.join(job["out"], "rewrite"))
        res["layers"].update(looper_probe())
    return res


def check_diff(golden: list, faulty: list, report, distance: int) -> bool:
    """The report is a valid alignment of minimal size, consistently summarized.

    `distance` is the minimal count of unmatched records, computed by run.py
    with its own LCS, not with lcfi.
    """
    gi = fi = 0
    values, control = [], []
    for pos, p in enumerate(report.pairs):
        if p.golden is not None:
            if gi >= len(golden) or p.golden != golden[gi]:
                return False
            gi += 1
        if p.faulty is not None:
            if fi >= len(faulty) or p.faulty != faulty[fi]:
                return False
            fi += 1
        if p.golden is not None and p.faulty is not None:
            if p.golden.index != p.faulty.index:
                return False
            if p.golden.value_hex != p.faulty.value_hex:
                values.append(pos)
        else:
            control.append(pos)
    first = report.first_divergence
    return (gi == len(golden) and fi == len(faulty) and len(control) == distance
            and [d.position for d in report.value_divergences] == values
            and [d.position for d in report.control_flow_divergences] == control
            and (first.position if first else None) == min(values + control,
                                                           default=None))


def run_diff_job(job: dict) -> dict:
    from lcfi.traces import read_trace, trace_diff

    setup_s = now() - job["t_spawn"]
    busy = 0.0
    layers: dict[str, float] = defaultdict(float)
    done = failed = 0
    for pair in job["pairs"]:
        try:
            t0 = perf_counter()
            golden = read_trace(pair["golden"])
            faulty = read_trace(pair["faulty"])
            if job["spans"]:
                t1 = perf_counter()
            report = trace_diff(golden, faulty)
            t2 = perf_counter()
        except Exception as e:  # a raising operation is a failed one
            print(f"pair {pair['golden']} / {pair['faulty']}: {e!r}", file=sys.stderr)
            failed += 1
            continue
        busy += t2 - t0
        done += 1
        if job["spans"]:
            layers["traces.read_s"] += t1 - t0
            layers[f"traces.diff_{pair['cls']}_s"] += t2 - t1
        if not check_diff(golden, faulty, report, pair["distance"]):
            print(f"pair {pair['golden']} / {pair['faulty']}: wrong diff",
                  file=sys.stderr)
            failed += 1
        del golden, faulty, report
    res = {"setup_s": setup_s, "wall_s": busy, "runs": done,
           "rss_kb": _peak_rss_kb(), "mismatched": failed}
    if job["spans"]:
        res["layers"] = dict(layers)
        res["layers"].update(looper_probe())
    return res


def main() -> int:
    job = json.loads(sys.argv[1])
    if job["kind"] == "warm":  # compiles lcfi's bytecode before any timing
        import lcfi.campaign
        import lcfi.traces
        res = {}
    else:
        run = run_campaign_job if job["kind"] == "campaign" else run_diff_job
        res = run(job)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
