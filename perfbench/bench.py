"""Phases, checks and metrics of the diobox benchmark; ``run.py`` is the entry point."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from diobox import brauer_G, frobenius_number_dp, solve
from diobox import cli as cli_module
from diobox import io as io_module

from cliphase import EXIT_BAD_INPUT, EXIT_FOR_STATUS, Cli, read_or_none, result_error, single_error
from speed import REF_MS, SPAWN_REF_MS, Speed, check_reference_work
from tracing import SOLVE, STAGES, Tracer, layer_stats, traced_solve, write_spans
from workloads import (
    check_outcome,
    hnf_group,
    instance_text,
    knapsack_group,
    malformed_texts,
    overlimit_text,
)

SETUP_REPS = 9
MIN_PASSES = 2
START_REPS = 7  # bare interpreter and ``import diobox.cli`` processes in a traced run
IMPORT_REPS = 7  # processes that import the package, for setup_s
PACKAGE_IMPORT = "import diobox, diobox.cli, diobox.gen, diobox.io"


@dataclass(frozen=True)
class Workload:
    make: Callable  # (seed, k) -> workloads.Group
    groups: int  # groups made at set-up; every pass solves all of them
    batch_files: int  # CLI instance files, one from the middle of every len(cases) // batch_files cases
    cli_files: int  # of those, files also solved by a process each, sampled evenly
    malformed: int  # truncated files added to both CLI sets
    chunks: int  # a pass runs in this many chunks of consecutive groups


@dataclass
class Chunk:
    """Consecutive groups and the CLI files made from their cases, in a
    directory of their own that one ``--batch`` process reads."""

    groups: list
    dir: str
    files: list  # (path, case); case None for a malformed file
    singles: list  # the files also run one process each


class Tally:
    """Attempted and failed operations, with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {error}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Timings:
    """Times per key, each with the timed block (speed.py) it was measured in."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.times: dict[str, list[tuple[float, int]]] = {}

    def add(self, key: str, seconds: float, block: int) -> None:
        self.times.setdefault(key, []).append((seconds, block))

    def medians(self, scaled: bool) -> list[float]:
        """Each key's median time, as measured or scaled to reference speed."""
        factor = self.speed.factor if scaled else lambda block: 1.0
        return [statistics.median(t * factor(b) for t, b in v) for v in self.times.values()]


def set_up(wl: Workload, seed: int, dirpath: str):
    """Make the groups and write the instance files, one directory per
    chunk (the malformed files go to the first); return the chunks and a
    digest of every generated input."""
    groups = [wl.make(seed, k) for k in range(wl.groups)]
    digest = hashlib.sha256()
    for g in groups:
        digest.update(repr((g.key, g.row)).encode())
        for c in g.cases:
            digest.update(repr((c.key, c.expect, tuple(c.inst.a), c.inst.b)).encode())
    cases = [c for g in groups for c in g.cases]
    stride = len(cases) // wl.batch_files
    batch = cases[stride // 2 :: stride][: wl.batch_files]
    batch_keys = {c.key for c in batch}
    single_keys = {c.key for c in batch[:: -(-len(batch) // wl.cli_files)]}
    malformed = [(f"malformed{i}", t, None) for i, t in enumerate(malformed_texts(seed, wl.malformed))]
    per_chunk = -(-len(groups) // wl.chunks)
    chunks = []
    for j in range(0, len(groups), per_chunk):
        chunk_groups = groups[j : j + per_chunk]
        chunk_dir = os.path.join(dirpath, f"chunk{len(chunks)}")
        os.makedirs(chunk_dir)
        texts = [(c.key, instance_text(c.inst), c) for g in chunk_groups for c in g.cases if c.key in batch_keys]
        files = []
        for key, text, case in texts + (malformed if j == 0 else []):
            path = os.path.join(chunk_dir, key.replace("/", "_") + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            digest.update(text.encode())
            files.append((path, case))
        singles = [(path, case) for path, case in files if case is None or case.key in single_keys]
        chunks.append(Chunk(chunk_groups, chunk_dir, files, singles))
    return chunks, digest.hexdigest()


def timed_set_up(wl: Workload, seed: int, work: str, tally: Tally):
    """Set up SETUP_REPS times from scratch; keep the last. Returns the
    chunks, the digest and the set-ups' times."""
    times = Timings(Speed(check_reference_work, REF_MS))
    times.speed.start()
    digests = []
    for rep in range(SETUP_REPS):
        dirpath = os.path.join(work, f"inputs{rep}")
        t0 = perf_counter()
        chunks, digest = set_up(wl, seed, dirpath)
        times.add(str(rep), perf_counter() - t0, times.speed.block())
        digests.append(digest)
        if rep + 1 < SETUP_REPS:
            shutil.rmtree(dirpath)
    tally.record("set-up determinism", None if len(set(digests)) == 1 else "inputs differ between set-ups")
    return chunks, digests[-1], times


def import_time(cli) -> tuple[float, float]:
    """The time importing the package adds to a process, measured and scaled
    to reference speed: the median of IMPORT_REPS ``python -S`` processes
    that import it, less a bare interpreter start. Child processes, because
    the benchmark's own process imports the package once, cold, which is
    too noisy to gate on."""
    speed = Speed(cli.bare_start, SPAWN_REF_MS)
    times = Timings(speed)
    speed.start()
    for rep in range(IMPORT_REPS):
        dt, proc = cli.python("-S", "-c", PACKAGE_IMPORT)
        if proc.returncode != 0:
            raise AssertionError(f"importing the package exited {proc.returncode}: {proc.stderr[-500:]}")
        times.add(str(rep), dt, speed.block())
    measured = statistics.median(times.medians(scaled=False)) - speed.median_ms() / 1e3
    scaled = statistics.median(times.medians(scaled=True)) - SPAWN_REF_MS / 1e3
    return measured, scaled


def matrix_work(g, tally: Tally, call=None) -> None:
    """The knapsack workload's per-matrix work: Brauer bound and Frobenius number."""
    if call is None:
        got = (brauer_G(g.row), frobenius_number_dp(g.row))
    else:
        got = (
            call("frobenius.brauer_G", g.key, brauer_G, g.row),
            call("frobenius.frobenius_number_dp", g.key, frobenius_number_dp, g.row),
        )
    want = (g.g_ref, g.f_ref)
    tally.record(f"{g.key} G,F", None if got == want else f"(G, F) = {got}, harness {want}")


class SolveLoop:
    """In-process ``diobox.solve`` over the cases of the groups it is given.

    Keeps every call's time, per case, and every knapsack group's per-matrix
    work time; a group is one timed block for the reference speed. A case's
    first outcome is checked against what its input guarantees; later calls
    must repeat it.
    """

    def __init__(self, tally: Tally, speed: Speed):
        self.tally = tally
        self.speed = speed
        self.times = Timings(speed)
        self.work_times = Timings(speed)
        self.outcomes: dict = {}

    def run(self, groups: list) -> None:
        self.speed.start()
        for g in groups:
            work_s = None
            if g.row is not None:
                t0 = perf_counter()
                matrix_work(g, self.tally)
                work_s = perf_counter() - t0
            calls = []
            for c in g.cases:
                t0 = perf_counter()
                try:
                    out, err = solve(c.inst), None
                except Exception as exc:  # a crash is a failed operation, not the end of the run
                    out, err = None, f"raised {exc!r}"
                calls.append((c, perf_counter() - t0, out, err))
            block = self.speed.block()
            if work_s is not None:
                self.work_times.add(g.key, work_s, block)
            for c, dt, out, err in calls:
                self.times.add(c.key, dt, block)
                if out is not None and c.key not in self.outcomes:
                    err = check_outcome(c, out)
                    self.outcomes[c.key] = out
                elif out is not None and out != self.outcomes[c.key]:
                    err = "outcome differs from the first pass"
                self.tally.record(c.key, err)


class CliLoop:
    """``diobox solve`` processes over a chunk's files: one ``--batch DIR``
    process over all of them, then one ``-i FILE -o OUT`` process for each
    of the chunk's singles.

    Every output must agree with the in-process outcome and repeat earlier
    outputs for the same file byte for byte. Keeps every batch's time, per
    chunk, and every process's time, per file.
    """

    def __init__(self, cli, tally: Tally):
        self.cli = cli
        self.tally = tally
        self.speed = Speed(cli.bare_start, SPAWN_REF_MS)
        self.expected: dict[str, dict] = {}
        self.first_text: dict[str, str] = {}
        self.batch_times = Timings(self.speed)
        self.times = Timings(self.speed)

    def _first_visit(self, chunk: Chunk, outcomes: dict) -> None:
        """Drop the files whose case has no in-process outcome to compare with."""
        kept = []
        for path, case in chunk.files:
            if case is not None and case.key not in outcomes:
                self.tally.record(case.key, "no in-process outcome to compare the CLI with")
                os.remove(path)
                continue
            if case is not None:
                out = outcomes[case.key]
                self.expected[case.key] = {"status": out.status.value, "x": out.x}
            kept.append((path, case))
        chunk.files = kept
        chunk.singles = [f for f in chunk.singles if f in kept]

    def _score(self, case, text, err) -> None:
        if err is None and text is not None and self.first_text.setdefault(case.key, text) != text:
            err = "output differs from an earlier run on the same file"
        self.tally.record(case.key, err)

    def run(self, chunk: Chunk, outcomes: dict) -> None:
        if chunk.dir not in self.batch_times.times:
            self._first_visit(chunk, outcomes)
        for name in os.listdir(chunk.dir):
            if name.endswith(".result.json"):
                os.remove(os.path.join(chunk.dir, name))
        self.speed.start()
        dt, proc = self.cli.solve("--batch", chunk.dir, "--no-timing")
        self.batch_times.add(chunk.dir, dt, self.speed.block())
        malformed = sum(case is None for _, case in chunk.files)
        want = EXIT_BAD_INPUT if malformed else 0
        summary = f"{len(chunk.files)} file(s), {malformed} failure(s)"
        err = None
        if "Traceback" in proc.stderr or proc.returncode != want:
            err = f"batch exit {proc.returncode}, expected {want}"
        elif summary not in proc.stderr:
            err = f"batch summary missing: {summary!r}"
        self.tally.record("batch", err)
        for path, case in chunk.files:
            text = read_or_none(path[: -len(".json")] + ".result.json")
            if case is None:
                self.tally.record(path, None if text is None else "result written for a malformed file")
            else:
                self._score(case, text, result_error(text, self.expected[case.key]))
        for path, case in chunk.singles:
            out = path[: -len(".json")] + ".out"
            with contextlib.suppress(FileNotFoundError):
                os.remove(out)
            dt, proc = self.cli.solve("-i", path, "-o", out, "--no-timing")
            self.times.add(path, dt, self.speed.block())
            text = read_or_none(out)
            if case is None:
                self.tally.record(path, single_error(proc, text, None))
            else:
                self._score(case, text, single_error(proc, text, self.expected[case.key]))


def overlimit_probe(cli, work: str, seed: int) -> str | None:
    """The README's exit code 3 for an entry above the 4300-digit limit.

    Known to fail at the commit that introduced this benchmark (traceback,
    exit 1). It is reported on its own, outside ``failed``, so the workloads
    stay ones on which no scored operation fails."""
    probe_dir = os.path.join(work, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    path = os.path.join(probe_dir, "overlimit.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(overlimit_text(seed))
    out = os.path.join(probe_dir, "overlimit.out")
    _, proc = cli.solve("-i", path, "-o", out, "--no-timing")
    return single_error(proc, read_or_none(out), None)


def end_to_end(seconds, cli, chunks, tally):
    """Whole passes until about ``seconds`` have passed and at least
    MIN_PASSES ran. A pass takes the chunks in turn: solve the chunk's
    cases in process, then run its CLI processes, so every kind of work is
    spread evenly over the run.

    A call's or a process's latency is the median of its passes, each pass
    scaled to reference speed (speed.py) by the reference work run around
    it: the reference loop for solves, a bare interpreter start for
    processes.
    """
    solver = SolveLoop(tally, Speed(check_reference_work, REF_MS))
    clis = CliLoop(cli, tally)
    passes, pass_s = 0, 0.0
    start = perf_counter()
    # a pass is started only while it is expected to end less than half a
    # pass past ``seconds``, so runs end near ``seconds``
    while passes < MIN_PASSES or perf_counter() - start + pass_s / 2 < seconds:
        pass_start = perf_counter()
        for chunk in chunks:
            solver.run(chunk.groups)
            clis.run(chunk, solver.outcomes)
        passes += 1
        pass_s = perf_counter() - pass_start
    files = sum(len(chunk.files) for chunk in chunks)

    def figures(scaled: bool) -> dict:
        per_call = solver.times.medians(scaled)
        per_file = clis.times.medians(scaled)
        return {
            "solves_per_s": len(per_call) / (sum(per_call) + sum(solver.work_times.medians(scaled))),
            "solve_p50_ms": 1e3 * percentile(per_call, 0.5),
            "solve_p90_ms": 1e3 * percentile(per_call, 0.9),
            "cli_files_per_s": files / sum(clis.batch_times.medians(scaled)),
            "cli_p50_ms": 1e3 * percentile(per_file, 0.5),
            "cli_p90_ms": 1e3 * percentile(per_file, 0.9),
        }

    n, k = len(solver.times.times), len(clis.times.times)
    of_passes = f"median of {passes} passes"
    detail = {
        "solves_per_s": f"{n} solves, {of_passes}",
        "solve_p50_ms": f"n={n}, {of_passes}",
        "solve_p90_ms": f"n={n}, {of_passes}",
        "cli_files_per_s": f"{files} files in {len(chunks)} batches, {of_passes}",
        "cli_p50_ms": f"n={k} files, {of_passes}",
        "cli_p90_ms": f"n={k} files, {of_passes}",
    }
    for what, speed in (("reference loop", solver.speed), ("bare interpreter start", clis.speed)):
        print(f"{what}: median {speed.median_ms():.4f} ms over {len(speed.samples)} samples, {speed.ref_ms} ms at reference speed")
    measured = figures(scaled=False)
    return {
        name: (value, "1/s" if name.endswith("_per_s") else "ms", f"{detail[name]}; measured {measured[name]:.6g}")
        for name, value in figures(scaled=True).items()
    }


def traced(groups, tally, spans_path) -> dict:
    """One untraced then one traced pass over the run's groups; per-layer
    time, share and calls from the spans, and operand sizes per stage."""
    outcomes = {}
    t0 = perf_counter()
    for g in groups:
        if g.row is not None:
            matrix_work(g, tally)
        for c in g.cases:
            outcomes[c.key] = solve(c.inst)
    untraced_s = perf_counter() - t0

    tr = Tracer()
    sizes = []
    t0 = perf_counter()
    for g in groups:
        if g.row is not None:
            matrix_work(g, tally, tr.call)
        for c in g.cases:
            out, size = traced_solve(tr, c.key, c.inst)
            sizes.append(size)
            err = check_outcome(c, out)
            if err is None and out != outcomes[c.key]:
                err = "stage replay differs from solve"
            tally.record(c.key, err)
    traced_s = perf_counter() - t0

    stats = layer_stats(tr.spans)
    total_self = sum(s["self_s"] for s in stats.values())
    metrics = {}
    for name in (SOLVE,) + STAGES + ("frobenius.frobenius_number_dp",):
        s = stats.get(name, {"calls": 0, "median_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.ms"] = (1e3 * s["median_s"], "ms")
        metrics[f"{name}.share"] = (s["self_s"] / total_self, "ratio")
        metrics[f"{name}.calls"] = (s["calls"], "count")
    for name in STAGES:
        metrics[f"{name}.max_bits"] = (max(sz.get(name, 0) for sz in sizes), "bits")
    metrics["solver.det_b.max_bits"] = (max(sz["det_bits"] for sz in sizes), "bits")
    ratios = [
        sz["lattice.integer_solution_set"] / max(1, sz["det_bits"])
        for sz in sizes
        if sz.get("lattice.integer_solution_set")
    ]
    metrics["lattice.bits_over_det"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    cases = [c for g in groups for c in g.cases]
    metrics["solver.distinct_matrices_per_solve"] = (len({c.inst.a for c in cases}) / len(cases), "ratio")
    metrics["solver.nonnegative_ratio"] = (
        sum(o.status.value == "nonnegative" for o in outcomes.values()) / len(outcomes),
        "ratio",
    )
    metrics["trace_overhead"] = (traced_s / untraced_s, "ratio")
    metrics["trace.spans"] = (len(tr.spans), "count")
    write_spans(spans_path, tr.spans)
    return metrics


def cli_layers(cli, files, tally) -> dict:
    """The io and cli layers timed in process over the valid files in ``files``,
    then the interpreter start-up and ``import diobox.cli`` of a process."""
    metrics = {}
    load, dumps, main, main_minus = [], [], [], []
    out_path = os.path.join(os.path.dirname(files[0][0]), "inprocess.out")
    for path, case in files:
        if case is None:
            continue
        t0 = perf_counter()
        inst = io_module.load_instance(path)
        load.append(perf_counter() - t0)
        t0 = perf_counter()
        out = solve(inst)
        solve_s = perf_counter() - t0
        t0 = perf_counter()
        code = cli_module.main(["solve", "-i", path, "-o", out_path, "--no-timing"])
        main.append(perf_counter() - t0)
        main_minus.append(main[-1] - solve_s)
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        err = result_error(text, {"status": out.status.value, "x": out.x})
        if err is None and code != EXIT_FOR_STATUS[out.status.value]:
            err = f"cli.main returned {code}"
        doc = json.loads(text)
        t0 = perf_counter()
        again = io_module.dumps_canonical(doc)
        dumps.append(perf_counter() - t0)
        if err is None and again != text:
            err = "dumps_canonical does not reproduce the result file"
        tally.record(f"cli.main {case.key}", err)
    metrics["io.load_instance.ms"] = (1e3 * statistics.median(load), "ms")
    metrics["io.dumps_canonical.ms"] = (1e3 * statistics.median(dumps), "ms")
    metrics["cli.main.ms"] = (1e3 * statistics.median(main), "ms")
    metrics["cli.main_minus_solve.ms"] = (1e3 * statistics.median(main_minus), "ms")

    bare, imported = [], []
    for _ in range(START_REPS):
        bare.append(cli.python("-c", "pass")[0])
        imported.append(cli.python("-c", "import diobox.cli")[0])
    metrics["cli.interpreter_start_ms"] = (1e3 * statistics.median(bare), "ms")
    metrics["cli.import_ms"] = (1e3 * (statistics.median(imported) - statistics.median(bare)), "ms")
    return metrics


WORKLOADS = {
    "knapsack_rhs_sweep": Workload(
        knapsack_group, groups=64, batch_files=201, cli_files=16, malformed=2, chunks=4
    ),
    # the batch holds every other input, the odd k, so it reaches the
    # infeasible ones (k % 6 == 5)
    "hnf_growth": Workload(hnf_group, groups=204, batch_files=102, cli_files=21, malformed=0, chunks=6),
}


def run(name: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    wl = WORKLOADS[name]
    work = os.path.join(root, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    tally = Tally()
    try:
        os.makedirs(work)
        chunks, digest, setup_times = timed_set_up(wl, seed, work, tally)
        groups = [g for chunk in chunks for g in chunk.groups]
        files = sum(len(chunk.files) for chunk in chunks)
        singles = [f for chunk in chunks for f in chunk.singles]
        print(f"inputs sha256 {digest} ({len(groups)} groups, {files} CLI files, {len(singles)} run one by one)")
        cli = Cli(os.path.join(root, "src"), root)
        overlimit = overlimit_probe(cli, work, seed)
        print(f"known defect probe (entry over the 4300-digit limit): {overlimit or 'exit 3 as the README says'}")
        if trace:
            out_dir = os.path.join(root, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
            metrics = traced(groups, tally, spans_path)
            metrics.update(cli_layers(cli, singles, tally))
            metrics["cli.overlimit_failures"] = (int(overlimit is not None), "count")
            print(f"spans written to {os.path.relpath(spans_path, root)}")
        else:
            metrics = end_to_end(seconds, cli, chunks, tally)
            import_s, import_scaled = import_time(cli)
            measured = statistics.median(setup_times.medians(scaled=False))
            metrics["setup_s"] = (
                import_scaled + statistics.median(setup_times.medians(scaled=True)),
                "s",
                f"import + median of {SETUP_REPS} set-ups; measured {import_s:.4f} + {measured:.6g} s",
            )
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = (rss_mb, "MB", "benchmark process")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            os.rmdir(os.path.dirname(work))
    for name_, (value, unit, *detail) in metrics.items():
        print(f"{name_:45s} {value:>14.6g} {unit:6s} {detail[0] if detail else ''}")
    print(f"failed_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.6g}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
