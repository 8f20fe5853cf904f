"""The ``diobox solve`` command as whole processes, scored against the README.

Every process is started with ``subprocess.run``, which waits for it to end
(and kills it first on timeout), so no child outlives its call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

EXIT_FOR_STATUS = {"nonnegative": 0, "integer_only": 1, "infeasible": 2}
EXIT_BAD_INPUT = 3
TIMEOUT_S = 120


class Cli:
    """Runs ``python -m diobox`` against the package in ``src_dir``."""

    def __init__(self, src_dir: str, cwd: str):
        self.env = dict(os.environ, PYTHONPATH=src_dir)
        self.cwd = cwd

    def python(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args],
            env=self.env,
            cwd=self.cwd,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
        )
        return perf_counter() - t0, proc

    def solve(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        return self.python("-m", "diobox", "solve", *args)

    def bare_start(self) -> None:
        """A bare interpreter start, without ``site``: the reference work for processes (speed.py)."""
        _, proc = self.python("-I", "-S", "-c", "pass")
        if proc.returncode != 0:
            raise AssertionError(f"a bare interpreter exited {proc.returncode}")


def result_error(text: str | None, expected: dict) -> str | None:
    """Why a result document disagrees with the in-process outcome, or None.

    ``expected`` holds ``status`` and ``x`` (a tuple of ints or None) from
    ``diobox.solve`` on the same instance.
    """
    if text is None:
        return "no result file"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"result is not JSON: {exc}"
    if "timing" in doc:
        return "timing present despite --no-timing"
    if doc.get("status") != expected["status"]:
        return f"status {doc.get('status')!r}, in-process {expected['status']!r}"
    x = doc.get("x")
    got = None if x is None else tuple(int(e) for e in x)
    if got != expected["x"]:
        return "witness differs from the in-process witness"
    return None


def read_or_none(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def single_error(proc, out_text: str | None, expected: dict | None) -> str | None:
    """Score one ``solve -i FILE -o OUT`` process; ``expected`` None marks
    an input the README classes as bad input."""
    if "Traceback" in proc.stderr:
        return f"traceback, exit {proc.returncode}"
    if expected is None:
        if proc.returncode != EXIT_BAD_INPUT:
            return f"bad input exited {proc.returncode}, README says {EXIT_BAD_INPUT}"
        return None if out_text is None else "bad input produced a result file"
    want = EXIT_FOR_STATUS[expected["status"]]
    if proc.returncode != want:
        return f"exit {proc.returncode}, README says {want} for {expected['status']}"
    return result_error(out_text, expected)
