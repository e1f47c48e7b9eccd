"""Re-record tests/data/grid_errors.json from the current code.

Run from the repository root with `PYTHONPATH=src python tests/record_grid_errors.py`,
only after a change that moves the grid's E_* on purpose; list the old and new
values of the levels that moved along with the change.
"""

import json

from test_acceptance import GRID_ERRORS, run_grid

if __name__ == "__main__":
    _, _, rows = run_grid()
    GRID_ERRORS.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} levels to {GRID_ERRORS}")
