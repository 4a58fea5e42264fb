"""The suite's own hooks: a failing @given test reports its falsifying
example under the project's warnings-as-errors setting, and the session
goes on to the next test.

The check runs a small suite in a fresh pytest process, with a copy of
conftest.py and the project's pytest settings.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import alignkit

pytest.importorskip("hypothesis")

TESTS = Path(__file__).resolve().parent
SRC = str(Path(alignkit.__file__).resolve().parent.parent)

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_a_failing_given_test_shows_its_example(tmp_path):
    shutil.copy(TESTS / "conftest.py", tmp_path)
    shutil.copy(TESTS.parent / "pyproject.toml", tmp_path)
    (tmp_path / "test_failing.py").write_text(FAILING, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
