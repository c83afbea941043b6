"""Compare the answer logs of two benchmark result files.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each argument is a result file written by ``run.py``; its answer log is read
from the ``-answers.jsonl`` file named in it.

Lists every op answered on both sides whose answers differ, so a change can
be checked for changed answers as well as for speed. Ops refused on either
side, or run on one side only, are counted but not compared. Ops with the
same id but different inputs mean the two runs used different workloads
and are listed as such. Exits 1 when any answer differs or any input
mismatches, else 0.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        answers = Path(path).with_name(json.load(handle)["answers"])
    with open(answers, encoding="utf-8") as handle:
        entries = [json.loads(line) for line in handle]
    return {entry["id"]: entry for entry in entries}


def compare(before: dict, after: dict):
    """(answers that differ, inputs that differ, ops compared)."""
    differ, mismatched, compared = [], [], 0
    for op_id in sorted(before.keys() & after.keys()):
        left, right = before[op_id], after[op_id]
        if left["input"] != right["input"]:
            mismatched.append(op_id)
        elif "answers" in left and "answers" in right:
            compared += 1
            if left["answers"] != right["answers"]:
                differ.append((op_id, left["kind"], left["answers"], right["answers"]))
    return differ, mismatched, compared


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    differ, mismatched, compared = compare(before, after)
    for op_id, kind, left, right in differ:
        print(f"op {op_id} ({kind}): {json.dumps(left, sort_keys=True)} -> {json.dumps(right, sort_keys=True)}")
    for op_id in mismatched:
        print(f"op {op_id}: different inputs, not comparable")
    refused = sum(
        1 for op_id in before.keys() & after.keys() if "refused" in before[op_id] or "refused" in after[op_id]
    )
    print(
        f"compared {compared} ops answered on both sides: {len(differ)} differ; "
        f"{refused} refused on a side; {len(mismatched)} with different inputs; "
        f"{len(before.keys() ^ after.keys())} on one side only"
    )
    return 1 if differ or mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
