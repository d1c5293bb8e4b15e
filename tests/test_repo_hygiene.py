"""Repository hygiene: build artifacts must never be committed."""

import os
import shutil
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracked_files() -> list[str]:
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    result = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT,
                            capture_output=True)
    if result.returncode != 0:
        pytest.skip("the source tree is not a git checkout")
    return [name for name in result.stdout.decode().split("\0") if name]


def test_no_compiled_python_is_tracked():
    tracked = [name for name in _tracked_files() if name.endswith(".pyc")]
    assert not tracked, f"compiled bytecode is tracked: {tracked}"
