"""Count the lines of each `src/coldrec` module by class, and in total.

    python tools/src_lines.py

Each line falls in the first class whose rule it meets:

1. docstring: a line of a string-expression statement (a module, class or
   function docstring, or any other bare string), blank lines inside it too;
2. comment: a line whose first non-blank character is ``#``;
3. blank: a line holding nothing but whitespace;
4. code: every other line.

The four classes sum to the file's length as ``wc -l`` counts it.  The
output is a Markdown table, one row per module and a total row.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")
SRC = Path(__file__).resolve().parents[1] / "src" / "coldrec"


def line_classes(source: str) -> list[str]:
    """The class of each line of `source`, in order."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    lines = source.split("\n")
    if lines[-1] == "":  # the newline that ends the last line starts no line
        lines.pop()
    return [
        "docstring" if lineno in docstring
        else "comment" if line.lstrip().startswith("#")
        else "blank" if not line.strip()
        else "code"
        for lineno, line in enumerate(lines, start=1)
    ]


def count() -> dict[str, Counter]:
    """Each module's line count per class, by file name, and "total"."""
    counts = {path.name: Counter(line_classes(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))}
    counts["total"] = sum(counts.values(), Counter())
    return counts


def table(counts: dict[str, Counter]) -> str:
    rows = ["| module | " + " | ".join(CLASSES) + " | lines |", "| --- |" + " ---: |" * (len(CLASSES) + 1)]
    for name, by_class in counts.items():
        rows.append(f"| {name} | " + " | ".join(f"{by_class[c]:,}" for c in CLASSES) + f" | {by_class.total():,} |")
    return "\n".join(rows)


if __name__ == "__main__":
    print(table(count()))
