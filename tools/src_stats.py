"""Print the size of a package: lines per module, and its settable values.

Settable values are the values a caller may set, counted over the AST:
parameters with a default (of every ``def``), fields of ``@dataclass``
classes, and ``add_argument`` calls (CLI options).

    python tools/src_stats.py [PACKAGE_DIR]    # default: src/simembed

Standard library only.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def settable_values(tree: ast.AST) -> tuple[int, int, int]:
    """(defaulted parameters, dataclass fields, add_argument calls)."""
    defaults = fields = options = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "add_argument":
            options += 1
    return defaults, fields, options


def main(argv: list[str]) -> int:
    package = pathlib.Path(argv[0]) if argv else \
        pathlib.Path(__file__).resolve().parent.parent / "src" / "simembed"
    total_lines = 0
    parts = [0, 0, 0]
    print("lines  module")
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.count("\n")
        total_lines += lines
        counts = settable_values(ast.parse(text))
        parts = [a + b for a, b in zip(parts, counts)]
        print(f"{lines:5d}  {path.name}")
    print(f"{total_lines:5d}  total")
    defaults, fields, options = parts
    print(f"settable values {sum(parts)} = defaulted parameters {defaults}"
          f" + dataclass fields {fields} + add_argument calls {options}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
