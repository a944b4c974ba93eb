"""Workload definitions and helpers shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import json
import os
import time

import yaml

from cgref import cg_program

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

# Campaign seeds are taken modulo this count, so that every sample's artifact
# tree has a reference digest recorded in reference.json.
REF_SEEDS = 16
# The real trace pairs of trace_diff come from one fixed campaign: faulty
# trace lengths vary from 121k to 170k records between campaign seeds, which
# would move peak RSS between seeds by more than its bound. The seed varies
# the edited pairs instead.
TRACE_DIFF_CAMPAIGN_SEED = 0

# cg_scaled_j2's budget is 4.5 times the 32,202 steps of the 12x12 golden
# run. Faulted runs need 128k to 187k steps to converge, so about a third end
# as sdc and the rest as hang at the budget, instead of running for the
# default 10^8 steps; run lengths, and with them peak RSS, then vary little
# between campaign seeds. The campaign behind trace_diff keeps the default
# budget, so that every faulty trace ends like the golden one (CG stops after
# 50 iterations at most).
SCALED_INPUT = {
    "fi_type": "normal_rel(1e-2)",
    "loop_mode": "invocation",
    "loop_num": 2,  # axpy's second call in each CG iteration: r -= alpha * Ap
    "option": [{"function_name": "axpy", "variable_name": "x",
                "in_arr": True, "in_loop": True}],
}
CAMPAIGNS = {  # workload: (CG size n, runs, jobs, budget)
    "cg_many": (4, 200, 1, 10 ** 8),
    "cg_scaled_j2": (12, 4, 2, 9 * 32202 // 2),
    "trace_diff": (12, 2, 1, 10 ** 8),
}


def campaign_seed(workload: str, seed: int) -> int:
    if workload == "trace_diff":
        return TRACE_DIFF_CAMPAIGN_SEED
    return seed % REF_SEEDS


def campaign_job(workload: str, seed: int, jobs: int | None = None) -> dict:
    """The campaign a sample of `workload` runs, as plain data for a child.
    For trace_diff it is the campaign whose traces the diffs read."""
    n, runs, workload_jobs, budget = CAMPAIGNS[workload]
    job = {"workload": workload, "n": n, "runs": runs, "budget": budget,
           "jobs": jobs or workload_jobs, "workload_jobs": workload_jobs,
           "seed": campaign_seed(workload, seed)}
    if n == 4:
        return dict(job, program=os.path.join(FIXTURES, "cg.ll"),
                    input=os.path.join(FIXTURES, "cg_input.yaml"))
    inputs = os.path.join(WORK, "inputs")
    os.makedirs(inputs, exist_ok=True)
    program = os.path.join(inputs, f"cg{n}.ll")
    with open(os.path.join(FIXTURES, "cg.ll"), encoding="utf-8") as fh:
        text = cg_program(fh.read(), n)
    with open(program, "w", encoding="utf-8") as fh:
        fh.write(text)
    input_path = os.path.join(inputs, f"cg{n}_input.yaml")
    with open(input_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(SCALED_INPUT, fh)
    return dict(job, program=program, input=input_path)


def tree_digest(path: str) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    files = []
    for dirpath, _dirs, names in os.walk(path):
        files.extend(os.path.join(dirpath, n) for n in names)
    for f in sorted(files):
        rel = os.path.relpath(f, path).replace(os.sep, "/")
        with open(f, "rb") as fh:
            data = fh.read()
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def read_tree(tree: str) -> tuple[str, dict]:
    """The golden stdout and the parsed report.json of a campaign's artifacts."""
    with open(os.path.join(tree, "llfi", "baseline", "golden_std_output"),
              encoding="utf-8") as fh:
        golden = fh.read()
    with open(os.path.join(tree, "report.json"), encoding="utf-8") as fh:
        return golden, json.load(fh)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.monotonic()
