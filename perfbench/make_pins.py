"""Write perfbench/pins.json: output digests for every op of the default seed.

    python3 perfbench/make_pins.py

Runs each workload's default-seed op list once, requires every output to
pass the gate, and records `gate.digest` of each record by op key.  Re-run
only when an output is meant to change, and say why in the change.
"""

from __future__ import annotations

import json
import sys

import run
from gate import check, digest
from workloads import WORKLOADS, make_ops


def main() -> int:
    pins = {}
    for workload in WORKLOADS:
        ops = make_ops(workload, run.DEFAULT_SEED)
        res = run.spawn({"workload": workload, "mode": "run", "ops": ops, "passes": 1})
        for rec in res["records"]:
            op = ops[rec["index"]]
            problems = [f"exit {rec['rc']}"] if rec["rc"] != 0 else check(op, rec["stdout"])
            if problems:
                print(f"{op['key']}: {problems}", file=sys.stderr)
                return 1
            pins[op["key"]] = digest(json.loads(rec["stdout"]))
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} op outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
