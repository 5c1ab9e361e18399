#!/usr/bin/env python3
"""Total and code lines of each module of the package.

A code line holds at least one token that is not a comment, and is not
part of a docstring (the first statement of a module, class or function,
when it is a string).  Blank lines, comment lines and docstring lines are
left out; a line that mixes code and a comment counts as code.  Prints one
row per module and a total row, then the sizes of the integer and float
literal pools that Hypothesis draws from for the package's source (computed
from the text, without importing it or writing a `.hypothesis` cache):

    python3 tools/src_lines.py
    python3 tools/src_lines.py /path/to/other/src/cascade_stab
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def literal_pools(sources: list[str]) -> str:
    """The sizes of Hypothesis's int and float literal pools of the sources."""
    try:
        from hypothesis.internal.constants_ast import _constants_from_source
    except ImportError:
        return "hypothesis literal pools: hypothesis is not installed"
    ints, floats = set(), set()
    for source in sources:
        constants = _constants_from_source(source, limit=True)
        ints |= constants.integers
        floats |= constants.floats
    return f"hypothesis literal pools: {len(ints)} ints, {len(floats)} floats"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=ROOT / "src" / "cascade_stab",
                        type=Path, help="package directory (default: this tree's)")
    args = parser.parse_args()
    paths = sorted(args.package.glob("*.py"))
    if not paths:
        parser.error(f"no .py files in {args.package}")
    sources = [path.read_text(encoding="utf-8") for path in paths]
    rows = [(path.name, *count(source)) for path, source in zip(paths, sources)]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(literal_pools(sources))


if __name__ == "__main__":
    main()
