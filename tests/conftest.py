# anchors the test directory on sys.path so the shared oracles import,
# starts every ``python -m diobox`` child process of the tests, and counts
# the calls of package functions in process
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


def profiled_calls(funcs, thunk) -> list[int]:
    """How often each of ``funcs`` is called while ``thunk()`` runs."""
    codes = [f.__code__ for f in funcs]
    counts = [0] * len(codes)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes.index(frame.f_code)] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return counts
