"""The suite's own pytest settings: a failing property test must not end the run."""

import subprocess
import sys
from pathlib import Path

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_does_not_stop_the_tests_after_it(tmp_path):
    """Hypothesis explains a failing example with libcst, whose import warns
    through mypy_extensions.  Under the suite's ``filterwarnings = ["error"]``
    that warning must not turn into an INTERNALERROR, which would end the session
    before the tests after the failing one ran."""
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output[-3000:]
    assert "1 failed, 1 passed" in result.stdout, output[-3000:]
