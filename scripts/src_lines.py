#!/usr/bin/env python3
"""Print the two sizes of the package source that the roadmap tracks.

``wc -l`` counts every line of the ``.py`` files.  Code lines count the lines
that hold a token other than a comment, a newline or an indent, leaving out
docstring statements: a lone string literal opening a module, class or
function body.  Run it from anywhere: with no arguments it reads the
repository's ``src/``, otherwise the files and directories given.

    python scripts/src_lines.py [PATH ...]
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

# DEDENT and ENDMARKER are empty tokens, at the start of the next line or past the last
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that the docstring statements of ``source`` span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not body:
            continue
        first = body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold code, not counting docstring statements."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def sizes(paths) -> tuple[int, int]:
    """(``wc -l``, code lines) summed over the ``.py`` files under ``paths``."""
    files = sorted({f for p in map(Path, paths)
                    for f in ([p] if p.is_file() else p.rglob("*.py"))})
    total = code = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        total += source.count("\n")
        code += code_lines(source)
    return total, code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*",
                    default=[str(Path(__file__).resolve().parents[1] / "src")])
    total, code = sizes(ap.parse_args(argv).paths)
    print(f"wc -l: {total}")
    print(f"code lines: {code}")


if __name__ == "__main__":
    main()
