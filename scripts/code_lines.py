#!/usr/bin/env python3
"""Code lines of the ``climb`` package, per module and in total.

A line counts when it holds a token other than a comment and lies outside
every module, class and function docstring. Blank lines, comment-only lines
and docstrings do not count; a multi-line string that is not a docstring
counts on every line it spans. With no argument the script counts
``src/climb`` of the checkout it sits in; given checkout roots, it prints one
column per root. Run from anywhere:

    python scripts/code_lines.py [ROOT ...]
"""
import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.Module) -> set[tuple[int, int]]:
    """The start (line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, a Python module's text."""
    docstrings = _docstrings(ast.parse(source))
    lines: set[int] = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for kind, _, start, end, _ in tokens:
        if kind in _LAYOUT or (kind == tokenize.STRING and start in docstrings):
            continue
        lines.update(range(start[0], end[0] + 1))
    return len(lines)


def package_lines(root: Path) -> dict[str, int]:
    """Code lines of each module of ``root``'s ``src/climb``, by file name."""
    package = root / "src" / "climb"
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def checkout(text: str) -> Path:
    """The root of a checkout that holds a ``src/climb`` package."""
    if not (Path(text) / "src" / "climb" / "__init__.py").is_file():
        raise argparse.ArgumentTypeError(f"no src/climb package under {text}")
    return Path(text)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("roots", nargs="*", type=checkout, metavar="ROOT", help="checkout roots to count")
    roots = ap.parse_args(argv).roots or [Path(__file__).resolve().parent.parent]
    counts = [package_lines(root) for root in roots]
    names = sorted(set().union(*counts))
    width = max(len(name) for name in [*names, "total"])
    for name in names:
        print(name.ljust(width), *(f"{c[name]:>6}" if name in c else f"{'-':>6}" for c in counts))
    print("total".ljust(width), *(f"{sum(c.values()):>6}" for c in counts))


if __name__ == "__main__":
    main()
