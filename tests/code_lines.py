"""Count the code lines of the vemrcp package, module by module.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, or a docstring. A docstring here is a string expression
statement: a logical line whose only tokens are strings. A token that spans
lines (a multi-line string argument, say) makes each of its lines count.

    python tests/code_lines.py

prints one row per module of src/vemrcp and the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vemrcp"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the Python `source`."""
    counted, logical = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            logical.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and logical:
            if any(t.type != tokenize.STRING for t in logical):
                counted.update(r for t in logical for r in range(t.start[0], t.end[0] + 1))
            logical = []
    return len(counted)


def main() -> int:
    counts = {p.name: code_lines(p.read_text(encoding="utf-8"))
              for p in sorted(PACKAGE.glob("*.py"))}
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>6}")
    print(f"{'total':<{width}} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
