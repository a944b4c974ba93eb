"""Record reference.json: each campaign seed's outcome tally and tree digest.

    python3 perfbench/record_reference.py [workload ...]

Runs the named campaigns of common.CAMPAIGNS (all by default) at jobs=1 for
each campaign seed, in fresh child processes as run.py does, and replaces
their entries in reference.json. Re-record only for a change that is meant
to alter the artifacts; run.py checks every benchmark sample against this
file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from cgref import cg_stdout
from common import (CAMPAIGNS, REF_SEEDS, REFERENCE, WORK, campaign_job,
                    campaign_seed, load_reference, read_tree, tree_digest)
from run import spawn


def main() -> int:
    reference = load_reference() if os.path.exists(REFERENCE) else {}
    for workload in sys.argv[1:] or CAMPAIGNS:
        reference[workload] = {}
        for seed in sorted({campaign_seed(workload, s) for s in range(REF_SEEDS)}):
            job = dict(campaign_job(workload, seed, jobs=1), kind="campaign",
                       spans=False, out=os.path.join(WORK, "reference"))
            if spawn(job) is None:
                return 1
            tree = os.path.join(job["out"], "tree")
            golden, report = read_tree(tree)
            if golden != cg_stdout(job["n"]):
                print(f"{workload}: golden stdout is wrong", file=sys.stderr)
                return 1
            reference[workload][str(seed)] = {"outcomes": report["outcomes"],
                                              "tree": tree_digest(tree)}
            print(workload, seed, report["outcomes"], flush=True)
            shutil.rmtree(job["out"])
    shutil.rmtree(WORK, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
