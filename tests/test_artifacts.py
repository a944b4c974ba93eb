"""Pinned artifact trees: a refactor must leave every campaign file byte-identical.

Each digest covers a 10-run, jobs=1 campaign's whole output directory, hashed
like perfbench's ``tree_digest``: sha256 over the sorted relative paths, each
followed by a NUL and the sha256 of the file's bytes. A digest changes only
when some artifact's bytes change, so a deliberate change of output updates
the table here together with the code that causes it.
"""

import hashlib
import os

import pytest

from lcfi.campaign import CampaignConfig, run_campaign

from conftest import fixture_path

# (program, input config) -> tree digest
DIGESTS = {
    ("demo", "demo"):
        "05e6c18d1115d6f8cf100c543522fa98a423e5143da976cad717982e6d1c68cb",
    ("cg", "cg"):
        "8f77875091e8253ae02a04a160c561131ee18061d59ddd933027d43076c34271",
    ("fragile", "fragile"):
        "2e1210891281639b6dd6ff939721c8d0b772dce4e5bc287a9311997bf2a6be0b",
    ("masked", "masked"):
        "13adf9ee52ad9691dbfb26061b2560fba94e1a06c904812c5a88078a81a721f2",
    ("cg", "cg_loop"):
        "ccc46984dd65f68d65d3db81fee2b6256c19aa4532fef7b3554e3b5a26987725",
}


def tree_digest(root: str) -> str:
    files = []
    for dirpath, _dirs, names in os.walk(root):
        files.extend(os.path.join(dirpath, n) for n in names)
    h = hashlib.sha256()
    for path in sorted(files):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "rb") as fh:
            h.update(rel.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("program,config", sorted(DIGESTS))
def test_tree_digest(tmp_path, program, config):
    run_campaign(CampaignConfig(
        program=fixture_path(f"{program}.ll"),
        input=fixture_path(f"{config}_input.yaml"),
        runs=10, jobs=1, output_dir=str(tmp_path),
        files={"in.txt": "4 3 3\n"}))
    assert tree_digest(str(tmp_path)) == DIGESTS[program, config]
