# anchors the test directory on sys.path so the shared oracles import, and
# starts every ``python -m diobox`` child process of the tests
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
OPTIMIZED = ("-O", "-OO")  # strip asserts, then docstrings too; no output may change


def diobox_process(*args, flags=(), cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-m", "diobox", *args], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
