"""lcfi benchmark: campaigns and trace diffs, end to end and per layer.

    python3 perfbench/run.py --workload cg_many --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; lcfi is imported from src/. Each
sample runs in a fresh child process (child.py), one at a time, until
--seconds have passed. The last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics"; the lines before it give
each metric with its sample count and spread, and the fail rate.

Workloads (why each was chosen is in BENCHMARK.json and record.json):

- cg_many: tests/fixtures/cg.ll with cg_input.yaml, 200 short runs, jobs=1.
- cg_scaled_j2: the same program scaled to 12x12, 4 long runs, jobs=2.
- trace_diff: read and diff a batch of four golden/faulty trace pairs.

--trace 0 reports ops_per_s, setup_s and peak_rss_mb. --trace 1 reports the
per-layer metrics from spanned children (see child.Spans) next to plain ones.
Every sample's outputs are checked: the golden stdout against cgref's plain
Python CG, the report tally and the artifact tree's digest against
reference.json (recorded at jobs=1, so the jobs=2 trees are checked for
job-count independence), and every trace diff against an LCS computed here.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys

from cgref import cg_stdout
from common import (FIXTURES, HERE, REFERENCE, ROOT, SRC, WORK, campaign_job,
                    load_reference, now, read_tree, tree_digest)

CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("cg_many", "cg_scaled_j2", "trace_diff")
CHILD_TIMEOUT_S = 150

# trace_diff batch: the golden trace of a two-run 12x12 CG campaign against
# each of its faulty traces (prefix and suffix trimming resolve these), plus
# CORE_PAIRS copies of the golden trace with CORE_EDITS seeded edits each,
# which diverge mid-trace on both sides and leave work for the Myers core.
CORE_PAIRS = 2
CORE_EDITS = 400


def spawn(job: dict) -> dict | None:
    """Run one child to completion and return its result; None if it failed."""
    job = dict(job, t_spawn=now())
    # A session of its own lets a timeout kill the child's pool workers too.
    with subprocess.Popen([sys.executable, CHILD, json.dumps(job)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"{job['kind']} child timed out", file=sys.stderr)
            return None
    sys.stderr.write(err)
    if proc.returncode != 0:
        print(f"{job['kind']} child exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = load_reference()
        self.attempted = 0
        self.failed = 0
        self.sample_no = 0

    def campaign(self, jobs: int | None = None, spans: bool = False) -> dict | None:
        """One checked campaign sample; its runs count as operations."""
        job = self.campaign_sample(self.workload, jobs, spans)
        res = spawn(job)
        ok = res is not None and res["mismatched"] == 0 and self.tree_matches(job)
        self.attempted += job["runs"]
        self.failed += 0 if ok else job["runs"]
        shutil.rmtree(job["out"], ignore_errors=True)
        return res

    def campaign_sample(self, workload: str, jobs: int | None = None,
                        spans: bool = False) -> dict:
        self.sample_no += 1
        return dict(campaign_job(workload, self.seed, jobs), kind="campaign",
                    spans=spans, out=os.path.join(WORK, f"sample{self.sample_no}"))

    def tree_matches(self, job: dict) -> bool:
        tree = os.path.join(job["out"], "tree")
        ref = self.reference[job["workload"]][str(job["seed"])]
        try:
            golden, report = read_tree(tree)
        except (OSError, ValueError) as e:
            print(f"campaign tree incomplete: {e}", file=sys.stderr)
            return False
        checks = {
            "golden stdout": golden == cg_stdout(job["n"]),
            "run count": report["runs"] == job["runs"],
            "outcome tally": report["outcomes"] == ref["outcomes"],
            "tree digest": tree_digest(tree) == ref["tree"],
        }
        for what, ok in checks.items():
            if not ok:
                print(f"{self.workload}: {what} differs from the reference",
                      file=sys.stderr)
        return all(checks.values())

    def diff_batch(self, pairs: list[dict], spans: bool = False) -> dict | None:
        res = spawn({"kind": "diff", "pairs": pairs, "spans": spans})
        self.attempted += len(pairs)
        self.failed += len(pairs) if res is None else res["mismatched"]
        return res

    # -- trace_diff inputs ---------------------------------------------------

    def diff_pairs(self) -> list[dict]:
        """Write the batch's trace files and return the pairs with their
        minimal edit distances."""
        job = self.campaign_sample("trace_diff")
        if spawn(job) is None or not self.tree_matches(job):
            raise RuntimeError("the campaign behind trace_diff failed")
        tree = os.path.join(job["out"], "tree", "llfi")
        golden = os.path.join(tree, "baseline", "llfi.stat.trace.prof.txt")
        faulty = [os.path.join(tree, "llfi_stat_output", f"llfi.stat.trace.{i}-0.txt")
                  for i in range(job["runs"])]
        with open(golden, encoding="utf-8") as fh:
            golden_lines = fh.read().splitlines()
        rng = random.Random(self.seed)
        pairs = [{"golden": golden, "faulty": f, "cls": "trimmed"} for f in faulty]
        for k in range(CORE_PAIRS):
            path = os.path.join(WORK, f"edited.{k}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(edit_trace(golden_lines, rng, CORE_EDITS)) + "\n")
            pairs.append({"golden": golden, "faulty": path, "cls": "core"})
        for p in pairs:
            p["distance"], p["core_len"], p["records"] = align_facts(
                trace_keys(p["golden"]), trace_keys(p["faulty"]))
        return pairs


def trace_keys(path: str) -> list[int]:
    with open(path, encoding="utf-8") as fh:
        return [int(line.split()[1]) for line in fh if line.strip()]


def edit_trace(lines: list[str], rng: random.Random, edits: int) -> list[str]:
    """A copy of a trace with seeded deletions, insertions and value changes
    in its middle three fifths."""
    n = len(lines)
    out, prev = [], 0
    for pos in sorted(rng.sample(range(n // 5, 4 * n // 5), edits)):
        if pos < prev:
            continue
        out.extend(lines[prev:pos])
        kind = rng.randrange(3)
        length = rng.randint(1, 8)
        if kind == 0:  # delete a block
            prev = pos + length
        elif kind == 1:  # insert a block copied from elsewhere in the trace
            start = rng.randrange(n - length)
            out.extend(lines[start:start + length])
            prev = pos
        else:  # change one record's value
            line = lines[pos]
            out.append(line[:-1] + ("1" if line[-1] == "0" else "0"))
            prev = pos + 1
    out.extend(lines[prev:])
    return out


def lcs_length(a: list[int], b: list[int]) -> int:
    """Bit-parallel LCS length (Hyyro 2004), independent of lcfi's Myers."""
    masks: dict[int, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def align_facts(a: list[int], b: list[int]) -> tuple[int, int, int]:
    """(minimal unmatched records, records left after prefix and suffix
    trimming when both sides keep some (else 0), total records)."""
    pre = 0
    while pre < min(len(a), len(b)) and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while suf < min(len(a), len(b)) - pre and a[-1 - suf] == b[-1 - suf]:
        suf += 1
    core_a, core_b = a[pre:len(a) - suf], b[pre:len(b) - suf]
    distance = len(core_a) + len(core_b) - 2 * lcs_length(core_a, core_b)
    core_len = len(core_a) + len(core_b) if core_a and core_b else 0
    return distance, core_len, len(a) + len(b)


# -- measuring ------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[dict]) -> dict[str, list[float]]:
    return {"ops_per_s": [s["runs"] / s["wall_s"] for s in samples],
            "setup_s": [s["setup_s"] for s in samples],
            "peak_rss_mb": [s["rss_kb"] / 1024 for s in samples]}


def measure(bench: Bench, trace: bool) -> dict[str, list[float]]:
    """Take samples until --seconds have passed; return each metric's values."""
    w = bench.workload
    pairs = bench.diff_pairs() if w == "trace_diff" else []
    spawn({"kind": "warm"})
    plain: list[dict] = []
    layers: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        layers.setdefault(name, []).append(value)

    deadline = now() + bench.seconds
    while True:
        if w == "trace_diff":
            base = bench.diff_batch(pairs)
        else:
            base = bench.campaign()
        if base is not None and base["runs"]:
            plain.append(base)
        if trace and base is not None:
            if w == "trace_diff":
                traced = bench.diff_batch(pairs, spans=True)
                base_j1 = base
            else:
                base_j1 = bench.campaign(jobs=1) if w == "cg_scaled_j2" else base
                traced = bench.campaign(jobs=1, spans=True)
            if traced is not None and base_j1 is not None:
                for name, value in traced["layers"].items():
                    add(name, value)
                add("bench.span_overhead_s", traced["wall_s"] - base_j1["wall_s"])
                if w == "cg_scaled_j2":
                    add("campaign.jobs_speedup", base_j1["wall_s"] / base["wall_s"])
        if now() >= deadline:
            break

    if not trace:
        return end_to_end(plain)
    if w == "trace_diff":
        core = [p for p in pairs if p["cls"] == "core"]
        add("traces.diff_core_len", statistics.mean(p["core_len"] for p in core))
        add("traces.records", statistics.mean(p["records"] for p in pairs))
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [os.path.join(SRC, "lcfi", "campaign.py"), REFERENCE,
              os.path.join(FIXTURES, "cg.ll"), os.path.join(FIXTURES, "looper.ll")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"not an lcfi checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    # Metric names and units come from BENCHMARK.json. A workload reports 0
    # for a per-layer metric its traced samples do not measure (record.json
    # says which metrics apply to which workload).
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        values = measure(bench, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    metrics = {}
    for name, unit in units.items():
        vals = values.get(name, [])
        metrics[name] = {"value": median(vals), "unit": unit}
        spread = (f"min {min(vals):.6g} max {max(vals):.6g}" if vals else "not measured")
        print(f"{args.workload} {name}: {median(vals):.6g} {unit} "
              f"(median of {len(vals)}, {spread})")
    fail_rate = bench.failed / max(1, bench.attempted)
    print(f"{args.workload} fail_rate: {fail_rate:.6g} "
          f"({bench.failed} of {bench.attempted} operations)")
    print(json.dumps({"correct": bench.failed == 0 and bench.attempted > 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
