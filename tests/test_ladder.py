"""Outcome digests of ``diobox solve --no-timing`` over a ladder of sizes.

``tests/golden/LADDER`` holds one line per rung ``m/n/max_entry`` and
generator mode: the seeds, the count of each status, the sha256 of the
concatenated outputs and, so that a mismatch can name it, the first eight
hex digits of each seed's own sha256. Every output carries the
``deep_cone`` report, so on the upper rungs, where ``|det B|`` has 100 to
200 bits, this pins the report strings of large exact values.

To regenerate the file after an intended output change, run from the
repository root::

    PYTHONPATH=src python tests/test_ladder.py
"""

import contextlib
import hashlib
import io
import os

import pytest

from diobox import io as iomod
from diobox.cli import main
from diobox.gen import generate_instance
from diobox.solver import GEN_MODES

LADDER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "LADDER")

# (m, n, max_entry) and the number of seeds per mode, 0 .. count-1
RUNGS = (
    ((1, 4, 10), 40),
    ((2, 4, 10), 40),
    ((3, 7, 20), 40),
    ((5, 12, 100), 20),
    ((10, 20, 1000), 6),
    ((12, 24, 1000), 4),
    ((20, 40, 1000), 2),
)
STATUSES = ("nonnegative", "integer_only", "infeasible")
EXIT_STATUS = dict(enumerate(STATUSES))


def _rung_name(rung) -> str:
    return "/".join(map(str, rung))


def ladder_line(rung, mode: str, seeds: int, tmp: str) -> str:
    """The LADDER line of one rung and mode, from in-process solves."""
    m, n, max_entry = rung
    counts = dict.fromkeys(STATUSES, 0)
    outputs = []
    path = os.path.join(tmp, "instance.json")
    for seed in range(seeds):
        inst = generate_instance(m, n, seed, mode=mode, max_entry=max_entry)
        iomod.write_text(path, iomod.dumps_canonical(iomod.instance_to_obj(inst)))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["solve", "-i", path, "--no-timing"])
        counts[EXIT_STATUS[code]] += 1
        outputs.append(out.getvalue().encode("utf-8"))
    total = hashlib.sha256(b"".join(outputs)).hexdigest()
    per_seed = ",".join(hashlib.sha256(o).hexdigest()[:8] for o in outputs)
    fields = [_rung_name(rung), mode, f"seeds=0-{seeds - 1}"]
    fields += [f"{s}={counts[s]}" for s in STATUSES]
    fields += [f"sha256={total}", f"per_seed={per_seed}"]
    return " ".join(fields)


def read_ladder() -> dict[tuple[str, str], str]:
    with open(LADDER, encoding="utf-8") as fh:
        return {tuple(line.split()[:2]): line.rstrip("\n") for line in fh}


PARAMS = [
    pytest.param(rung, mode, seeds, id=f"{_rung_name(rung)}-{mode}")
    for rung, seeds in RUNGS
    for mode in GEN_MODES
]


def _mismatch(want: str, got: str) -> str:
    fields = [dict(f.split("=", 1) for f in line.split()[2:]) for line in (want, got)]
    digests = [f["per_seed"].split(",") for f in fields]
    first = next((i for i, (a, b) in enumerate(zip(*digests)) if a != b), None)
    counts = [" ".join(f"{s}={f[s]}" for s in STATUSES) for f in fields]
    return (f"rung {want.split()[0]} mode {want.split()[1]}: first differing seed {first};"
            f" golden {counts[0]}, now {counts[1]}")


@pytest.mark.parametrize("rung,mode,seeds", PARAMS)
def test_ladder_digest(rung, mode, seeds, tmp_path):
    want = read_ladder()[_rung_name(rung), mode]
    got = ladder_line(rung, mode, seeds, str(tmp_path))
    assert got == want, _mismatch(want, got)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, open(LADDER, "w", encoding="utf-8") as fh:
        for param in PARAMS:
            fh.write(ladder_line(*param.values, tmp) + "\n")
