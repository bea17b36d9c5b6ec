"""Same results: every fixture CLI command matches its frozen exit code and
stdout digest (see freeze_cli_digests.py for the matrix and how to refreeze)."""

import json

from freeze_cli_digests import GOLDEN, command_matrix, run_one


def test_cli_outputs_match_frozen_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    matrix = command_matrix()
    assert sorted(key for key, _ in matrix) == sorted(golden)
    changed = [key for key, argv in matrix if run_one(argv) != golden[key]]
    assert not changed, f"{len(changed)} of {len(matrix)} outputs changed: {changed[:10]}"
