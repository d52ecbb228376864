"""The pytest configuration reports a failing property test as a failure.

filterwarnings turns every warning into an error. When a Hypothesis test
fails, Hypothesis imports libcst to write the failing example as a patch,
and that import warns; the configuration must let it through, or pytest
stops with INTERNALERROR and skips every later test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_a_failing_given_test_is_reported_and_later_tests_run(tmp_path):
    (tmp_path / "test_suite.py").write_text(SUITE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
