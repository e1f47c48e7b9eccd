"""Record the reference errors that the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs one pass of every full-size workload at the reference seed and writes
the E_vem, E_rcp0 and E_rcp1 of each level to reference.json. Run it only on
a commit whose results are trusted; a later change that moves any value by
more than workloads.REFERENCE_RTOL then fails the gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import REFERENCE_FILE, REFERENCE_SEED, WORKLOADS, check_level, make_workload


def main() -> int:
    run.import_vemrcp()
    data = {}
    for name in WORKLOADS:
        workload = make_workload(name, REFERENCE_SEED)
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            errors, problems = workload.run_pass(Path(tmp))
        levels = {}
        for key in workload.expected_levels():
            why = problems.get(key) or (
                "missing" if key not in errors else check_level(key, errors[key], -1, {})
            )
            if why is not None:
                print(f"{name} {key}: {why}", file=sys.stderr)
                return 1
            levels[f"{key[0]}/{key[1]}"] = errors[key]
        data[name] = levels
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
