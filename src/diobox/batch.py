"""``diobox solve --batch DIR``: every instance file in a directory, split
over one worker per usable CPU.

The files, sorted by name, are dealt round-robin to ``W = min(files,
usable CPUs)`` workers: worker ``w`` takes ``files[w::W]``. Worker 0 is the
command's own process; the others are children forked with ``os.fork``. A
child writes its result files, prints nothing, sends one JSON line per file
on its pipe as soon as that file is done, and leaves through ``os._exit``.
The parent merges the reports in file order, so what the batch prints and
writes does not depend on ``W``. Forking is safe because the command line
process runs no threads: ``tests/test_records.py`` checks that importing
``diobox.cli`` loads neither ``threading`` nor a process pool.

``diobox.cli`` imports this module only for ``--batch``, so a single-file
``diobox solve`` does not load it.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NoReturn

from .cli import _discard_output, _failure, _solve_file
from .errors import DioboxError
from .solver import SolveStatus


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 without ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _report(src: str, dst: str, with_timing: bool) -> tuple:
    """Solve one file into ``dst``: ``(failure exit code, stderr line,
    status)``, None in the fields that do not apply."""
    try:
        status = _solve_file(src, dst, with_timing)
    except Exception as exc:  # one bad file must not end the batch
        _discard_output(dst, src)
        # name the file, unless the message already starts with it
        return (*_failure(exc, "" if str(exc).startswith(src) else f"{src}: "), None)
    return None, None, status.value


def _worker(jobs, w: int, workers: int, with_timing: bool, out_fd: int, inherited) -> NoReturn:
    """The body of forked worker ``w``: send ``[index, *report]`` for each
    of its jobs on ``out_fd``; never return, so nothing of the parent's
    callers, buffers or exit handlers runs in the child."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        for i in range(w, len(jobs), workers):
            data = (json.dumps([i, *_report(*jobs[i], with_timing)]) + "\n").encode()
            while data:
                data = data[os.write(out_fd, data) :]
        code = 0
    finally:
        os._exit(code)


def _reports(jobs: list[tuple[str, str]], with_timing: bool) -> list:
    """``_report`` for every ``(source, result path)`` job, in job order.

    A worker that cannot be forked leaves its share to this process. A job
    whose worker ended without reporting it (killed, or exited) is an
    internal error whose result path goes through ``_discard_output``. Every
    child is reaped before this returns or raises.
    """
    workers = max(1, min(len(jobs), usable_cpus()))
    reports: list = [None] * len(jobs)
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe); worker w at w - 1
    ended: dict[int, int] = {}  # worker -> wait status
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: this process takes the share
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                _worker(jobs, w, workers, with_timing, write_fd, [read_fd] + [fd for _, fd in children])
            os.close(write_fd)
            children.append((pid, read_fd))
        started = len(children) + 1
        for i, job in enumerate(jobs):
            if i % workers == 0 or i % workers >= started:
                reports[i] = _report(*job, with_timing)
        for _, read_fd in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                lines = pipe.read().split(b"\n")
            for line in lines[:-1]:  # a line cut off by a dying worker has no newline
                i, *report = json.loads(line)
                reports[i] = report
    finally:
        for w, (pid, read_fd) in enumerate(children, 1):
            os.close(read_fd)  # a worker still writing gets EPIPE and exits
            ended[w] = os.waitpid(pid, 0)[1]
    for i, (src, dst) in enumerate(jobs):
        if reports[i] is None:
            end = os.waitstatus_to_exitcode(ended[i % workers])
            how = f"was killed by signal {-end}" if end < 0 else f"exited with status {end}"
            reports[i] = (4, f"internal error: {src}: batch worker {how} before reporting this file", None)
            _discard_output(dst, src)
    return reports


def solve_directory(directory: str, with_timing: bool) -> int:
    """Solve every ``*.json`` in ``directory`` (not ``*.result.json``) into
    ``<name>.result.json`` beside it. Print one stderr line per failed file,
    in file order, then the summary; return 0, 4 if any file hit an internal
    error, else 3."""
    try:
        entries = os.listdir(directory)
    except OSError as exc:  # a missing or non-directory path is bad input, exit 3
        raise DioboxError(f"{directory}: {exc.strerror or exc}") from exc
    jobs = [
        (os.path.join(directory, f), os.path.join(directory, f[: -len(".json")] + ".result.json"))
        for f in sorted(entries)
        if f.endswith(".json") and not f.endswith(".result.json")
    ]
    failures, code = 0, 0
    counts = dict.fromkeys((s.value for s in SolveStatus), 0)
    for fail, line, status in _reports(jobs, with_timing):
        if fail is None:
            counts[status] += 1
        else:
            print(line, file=sys.stderr)
            code = max(code, fail)
            failures += 1
    per_status = ", ".join(f"{n} {s}" for s, n in counts.items())
    print(f"{len(jobs)} file(s), {failures} failure(s): {per_status}", file=sys.stderr)
    return code
