"""Property tests of the file formats: instances survive a write and a read
unchanged, with and without ``basis_cols``, and the witness a ``solve``
command writes reads back as the one ``solve`` returns."""

import json
import os
import tempfile

import pytest

from diobox import IntMat, ProblemInstance, RankDeficientError, SingularError, solve
from diobox.cli import main
from diobox.io import dumps_canonical, instance_to_obj, load_result_x, obj_to_instance, write_text

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
ENTRIES = st.one_of(st.integers(-20, 20), st.integers(-10**40, 10**40))
EXIT = {"nonnegative": 0, "integer_only": 1, "infeasible": 2}


@st.composite
def instances(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, m + 3))
    a = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m))
    b = tuple(draw(st.lists(ENTRIES, min_size=m, max_size=m)))
    cols = None
    if draw(st.booleans()):
        cols = tuple(draw(st.permutations(range(n)))[:m])
    return ProblemInstance(a=IntMat(a), b=b, basis_cols=cols)


@SETTINGS
@given(instances())
def test_instance_round_trip_property(inst):
    text = dumps_canonical(instance_to_obj(inst))
    assert obj_to_instance(json.loads(text)) == inst


@SETTINGS
@given(instances())
def test_solve_witness_reads_back(inst):
    try:
        outcome = solve(inst)
    except (RankDeficientError, SingularError):
        hypothesis.assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "i.json"), os.path.join(tmp, "r.json")
        write_text(src, dumps_canonical(instance_to_obj(inst)))
        assert main(["solve", "-i", src, "-o", dst, "--no-timing"]) == EXIT[outcome.status.value]
        assert load_result_x(dst) == outcome.x
