"""The repository's pytest settings keep a failing property test readable."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_prints_its_example(tmp_path):
    # filterwarnings = ["error"] makes every warning an error, and
    # hypothesis's failure report imports libcst, which warns through
    # mypy_extensions: unless that one warning is ignored, pytest ends in
    # INTERNALERROR and prints no falsifying example
    (tmp_path / "test_fails.py").write_text(FAILING)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(tmp_path / "test_fails.py")],
        capture_output=True, text=True, timeout=300, cwd=tmp_path)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
