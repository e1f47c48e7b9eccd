"""Re-record tests/data/grid_errors.json from the current code.

Run from the repository root with `PYTHONPATH=src python tests/record_grid_errors.py`,
only after a change that moves the grid's E_* on purpose; list the old and new
values of the levels that moved along with the change. Before it writes, the
script prints how the new values differ from the file it replaces: the number
of bitwise-equal levels, each E_*'s largest relative drift and every level
whose fallback cells changed.
"""

import json

from test_acceptance import GRID_ERRORS, run_grid


def key(row):
    return row["case"], row["family"], row["n"]


def report_drift(old_rows, new_rows):
    old = {key(r): r for r in old_rows}
    common = [r for r in new_rows if key(r) in old]
    if len(common) != len(new_rows) or len(old) != len(new_rows):
        print(f"levels: {len(old)} recorded, {len(new_rows)} computed, {len(common)} in both")
    equal = sum(r == old[key(r)] for r in common)
    print(f"{equal} of {len(common)} levels bitwise equal")
    for m in ("vem", "rcp0", "rcp1"):
        same, worst, where = 0, 0.0, None
        for r in common:
            got, want = (float.fromhex(row[f"E_{m}"]) for row in (r, old[key(r)]))
            same += got == want
            rel = abs(got - want) / abs(want) if want else abs(got - want)
            if rel > worst:
                worst, where = rel, key(r)
        print(f"E_{m}: {same} levels bitwise equal, largest relative drift {worst:.2e}"
              + (f" at {where}" if where else ""))
    for r in common:
        if r["fallback_cells"] != old[key(r)]["fallback_cells"]:
            print(f"fallback cells of {key(r)}: {old[key(r)]['fallback_cells']} -> "
                  f"{r['fallback_cells']}")


if __name__ == "__main__":
    _, _, rows = run_grid()
    if GRID_ERRORS.exists():
        report_drift(json.loads(GRID_ERRORS.read_text()), rows)
    GRID_ERRORS.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} levels to {GRID_ERRORS}")
