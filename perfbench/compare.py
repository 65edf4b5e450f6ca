"""List what differs between two benchmark result records.

Usage: ``python3 perfbench/compare.py A.json B.json``, where each file is a
``.perfbench_work/<workload>/result.json`` saved from a run (for example one
per commit, same workload and seed).

It prints whether the inputs were identical, which job slots' report bytes
differ, and each metric's value in both records.  Differing reports between
two commits are listed, not judged: a change may alter report bytes if it
says so.  Two runs of one commit must show no differing slot.  Exit status
is 0 either way, or 2 when the records are not comparable.
"""

from __future__ import annotations

import json
import sys


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if (a["workload"], a["seed"], a["tiny"]) != (b["workload"], b["seed"], b["tiny"]):
        print("not comparable: different workload, seed or size")
        return 2
    same_inputs = a["inputs_sha256"] == b["inputs_sha256"]
    print(f"workload {a['workload']} seed {a['seed']}: inputs "
          f"{'identical' if same_inputs else 'DIFFER'}")
    diff = [slot for slot, (x, y) in enumerate(zip(a["report_sha256_by_slot"],
                                                   b["report_sha256_by_slot"])) if x != y]
    print(f"report bytes differ in {len(diff)} of {len(a['report_sha256_by_slot'])} "
          f"slots{': ' + ', '.join(map(str, diff)) if diff else ''}")
    for name, va in a["metrics"].items():
        vb = b["metrics"].get(name, {}).get("value")
        print(f"{name}: {va['value']!r} -> {vb!r} {va['unit']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
