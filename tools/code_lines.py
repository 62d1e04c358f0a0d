"""Count the code lines of src/mmalg and its private cross-module imports.

A code line is a physical line that holds a token of code: docstrings,
comments and blank lines do not count.  A private cross-module import is
one name imported as ``from .module import _name``, or one ``module._name``
read through a sibling bound by ``from . import module``.  Each module's
private imports are listed under its count, one ``module._name`` a line, so
two runs can be diffed.

Run from the root of the repository:

    python3 tools/code_lines.py [SOURCE_DIR]
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of physical lines of `text` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def private_imports(text: str) -> list[str]:
    """The distinct `_name`s taken from a sibling module, each as
    `module._name`, sorted."""
    nodes = list(ast.walk(ast.parse(text)))
    imported = {f"{node.module}.{alias.name}" for node in nodes
                if isinstance(node, ast.ImportFrom) and node.level and node.module
                for alias in node.names if alias.name.startswith("_")}
    siblings = {alias.asname or alias.name: alias.name for node in nodes
                if isinstance(node, ast.ImportFrom) and node.level and not node.module
                for alias in node.names}
    read = {f"{siblings[node.value.id]}.{node.attr}" for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and node.attr.startswith("_")}
    return sorted(imported | read)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else "src/mmalg")
    total_lines = total_imports = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, imports = code_lines(text), private_imports(text)
        total_lines += lines
        total_imports += len(imports)
        print(f"{path.name:20} {lines:6,} code lines {len(imports):4} private imports")
        for name in imports:
            print(f"    {name}")
    print(f"{'total':20} {total_lines:6,} code lines {total_imports:4} private imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
