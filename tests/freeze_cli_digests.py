"""Record the exit code and stdout SHA-256 of every fixture CLI command.

Run from the repository root, on a commit whose outputs are known good:

    PYTHONPATH=src python3 tests/freeze_cli_digests.py

It rewrites tests/golden/cli_digests.json.  `tests/test_cli_digests.py` then
fails on any command whose exit code or canonical JSON output differs.
The matrix is the four fixtures times: validate, analyze-quiver, criteria at
caps 2 and 4, pd of every simple (proj and inj, caps 0..4), every per-module
command plus ars in both directions, and hom, ext1 and ar-formula over every
ordered module pair.  Every command runs with --json, in-process.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from gradedquiver.cli import main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("fix_a", "fix_b", "fix_c", "fix_d")
MODULE_COMMANDS = ("dims", "rad", "top", "soc", "cover", "envelope", "present",
                   "copresent", "transpose", "nakayama", "tau", "tau-inv")
PAIR_COMMANDS = (("hom", "--source", "--target"),
                 ("ext1", "--module", "--target"),
                 ("ar-formula", "--module", "--other"))
GOLDEN = os.path.join(HERE, "golden", "cli_digests.json")


def command_matrix():
    """(key, argv) for every command, the argv relative to the repository root."""
    out = []
    for name in FIXTURES:
        path = os.path.join("fixtures", f"{name}.json")
        with open(os.path.join(HERE, os.pardir, path), encoding="utf-8") as fh:
            modules = sorted(json.load(fh)["modules"])
        cmds = [["validate"], ["analyze-quiver"]]
        cmds += [["criteria", "--cap", str(c)] for c in (2, 4)]
        cmds += [["pd", "--simple", "all", "--kind", kind, "--cap", str(c)]
                 for kind in ("proj", "inj") for c in range(5)]
        for m in modules:
            cmds += [[c, "--module", m] for c in MODULE_COMMANDS]
            cmds += [["ars", "--module", m, "--direction", d]
                     for d in ("ending", "starting")]
        for c, first, second in PAIR_COMMANDS:
            cmds += [[c, first, m, second, n] for m in modules for n in modules]
        out += [(" ".join([name] + cmd), [path] + cmd + ["--json"]) for cmd in cmds]
    return out


def run_one(argv):
    """Exit code and stdout SHA-256 of one in-process CLI call."""
    root = os.path.join(HERE, os.pardir)
    argv = [os.path.join(root, argv[0])] + argv[1:]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return {"exit": code,
            "sha256": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()}


def main():
    digests = {key: run_one(argv) for key, argv in command_matrix()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
