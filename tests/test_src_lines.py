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
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "wc -l: 16\ncode lines: 8\n"
