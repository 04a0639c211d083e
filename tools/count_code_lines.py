"""Count the code lines of Python sources: lines that are not blank,
comments or docstrings.

    python3 tools/count_code_lines.py [PATH ...]   # default: src/alps

A path is a .py file or a directory searched recursively; a path that
is neither is an error.  Prints the total.  A line counts when a token
other than a comment starts or continues on it, so every line of a
multi-line statement or string counts, except the lines of docstrings:
a string-literal statement that opens a module, class or function body
(found with `ast`).
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers taken by the docstrings of `tree`."""
    lines: set = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in the Python source text `source`."""
    lines: set = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(path: str) -> list:
    if os.path.isfile(path):
        return [path]
    return sorted(os.path.join(root, name)
                  for root, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src/alps"])
    args = parser.parse_args(argv)
    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    total = 0
    for path in args.paths:
        for name in python_files(path):
            with open(name, encoding="utf-8") as fh:
                total += count_code_lines(fh.read())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
