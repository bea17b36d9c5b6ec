"""Record the SHA-256 of every resolve output as the workload's regression oracle.

Run from the repository root, on a commit whose outputs are known good:

    python3 perfbench/freeze_digests.py

It rewrites perfbench/digests.json.  The benchmark then fails any resolve
task whose canonical JSON output differs byte-wise from the recorded one.
"""

import hashlib
import json
import os
import sys

from run import OUT, import_program
from workloads import resolve_argv, resolve_variants


def main():
    gq = import_program()
    workdir = os.path.join(OUT, "freeze")
    os.makedirs(workdir, exist_ok=True)
    digests = {}
    for name, (command, size, _field, problem) in sorted(resolve_variants().items()):
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        out = os.path.join(workdir, f"{name}.out.json")
        code = gq.cli.main(resolve_argv(command, size, path, out))
        if code != 0:
            print(f"{name}: exit code {code}; nothing written", file=sys.stderr)
            return 1
        with open(out, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    target = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
