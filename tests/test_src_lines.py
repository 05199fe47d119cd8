"""scripts/src_lines.py: the two sizes of the package source."""

import subprocess
import sys
from pathlib import Path

# 16 lines, 8 of them code: 5 (the import), 8 (the def), 10-13 (the call) and
# 15-16 (a string that is not a docstring); the docstrings, the comment and the
# blank lines hold no code
SNIPPET = '''"""A module docstring
over two lines."""

# a comment
import os  # and a trailing one


def f(a, b):
    """A function docstring."""
    return max(
        a,
        b,
    )

TEXT = """two
lines"""
'''


def test_src_lines_counts_every_line_and_the_code_lines(tmp_path):
    # two directories of the same name hold two distinct files that share a
    # relative name, so both must be counted
    dirs = [tmp_path / "a" / "src", tmp_path / "b" / "src"]
    for d in dirs:
        d.mkdir(parents=True)
        (d / "snippet.py").write_text(SNIPPET)
    root = Path(__file__).resolve().parents[1]
    for paths, expected in [(dirs[:1], "wc -l: 16\ncode lines: 8\n"),
                            (dirs, "wc -l: 32\ncode lines: 16\n")]:
        result = subprocess.run(
            [sys.executable, str(root / "scripts" / "src_lines.py"), *map(str, paths)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == expected
