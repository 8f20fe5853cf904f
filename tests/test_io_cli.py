import json
import math
import os
import pathlib
import signal
import stat
import sys
import warnings

import pytest

from diobox import IntMat, InstanceFormatError, ProblemInstance, batch
from diobox.cli import main
from diobox.io import (
    dumps_canonical,
    instance_to_obj,
    load_instance,
    obj_to_instance,
    parse_int,
)
from conftest import OPTIMIZED, diobox_process


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _inst_json(a_rows, b, basis_cols=None):
    obj = {
        "m": len(a_rows),
        "n": len(a_rows[0]),
        "A": [[str(e) for e in row] for row in a_rows],
        "b": [str(e) for e in b],
    }
    if basis_cols is not None:
        obj["basis_cols"] = basis_cols
    return json.dumps(obj)


def test_parse_int_accepts_ints_and_strings():
    assert parse_int(7, "x") == 7
    assert parse_int("-12", "x") == -12
    assert parse_int("123456789012345678901234567890", "x") == 123456789012345678901234567890
    for bad in (1.5, "1.5", "", "0x1f", True, None, []):
        with pytest.raises(InstanceFormatError):
            parse_int(bad, "x")


def test_instance_round_trip(tmp_path):
    inst = ProblemInstance(a=IntMat([[5, 2, 3]]), b=(4,), basis_cols=(0,))
    text = dumps_canonical(instance_to_obj(inst))
    path = _write(tmp_path / "inst.json", text)
    again = load_instance(path)
    assert again == inst
    assert text.endswith("\n")


def test_instance_accepts_plain_ints(tmp_path):
    path = _write(
        tmp_path / "i.json",
        json.dumps({"m": 1, "n": 2, "A": [[2, 3]], "b": [7]}),
    )
    inst = load_instance(path)
    assert inst.a == IntMat([[2, 3]]) and inst.b == (7,)


def test_instance_basis_cols_one_based(tmp_path):
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4], basis_cols=[2]))
    inst = load_instance(path)
    assert inst.basis_cols == (1,)


@pytest.mark.parametrize(
    "obj,needle",
    [
        ({"m": 1, "n": 2, "A": [[1, 2]]}, "'b'"),
        ({"m": 1, "n": 2, "A": [[1, "x"]], "b": [1]}, "A[0][1]"),
        ({"m": 2, "n": 3, "A": [[1, 2, 3]], "b": [1, 2]}, "rows"),
        ({"m": 1, "n": 2, "A": [[1, 2]], "b": [1], "basis_cols": [3]}, "basis_cols"),
        ({"m": 1, "n": 2, "A": [[1, 2]], "b": [1], "basis_cols": [1, 2]}, "basis_cols"),
        ({"m": 2, "n": 2, "A": [[1, 2], [3, 4]], "b": [1, 2]}, "n > m"),
        ({"m": 1, "n": 2, "A": [[1, 2]], "b": [1.5]}, "b[0]"),
    ],
)
def test_instance_schema_errors(obj, needle):
    with pytest.raises(InstanceFormatError) as exc:
        obj_to_instance(obj)
    assert needle in str(exc.value)


def test_malformed_json_reports_position(tmp_path):
    path = _write(tmp_path / "bad.json", '{\n  "m": 1,\n  "n": \n}')
    with pytest.raises(InstanceFormatError) as exc:
        load_instance(path)
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_cli_solve_exit_codes(tmp_path):
    cases = [
        ([[5, 2, 3]], [4], 0),
        ([[5, 2, 3]], [1], 1),
        ([[2, 4]], [3], 2),
    ]
    for rows, b, want in cases:
        path = _write(tmp_path / "i.json", _inst_json(rows, b))
        out = tmp_path / "o.json"
        assert main(["solve", "-i", path, "-o", str(out), "--no-timing"]) == want
        result = json.loads(out.read_text())
        if want == 0:
            assert result["status"] == "nonnegative"
            assert result["x"] is not None
        elif want == 1:
            assert result["status"] == "integer_only"
            assert result["deep_cone"]["holds"] is False
        else:
            assert result["status"] == "infeasible"
            assert result["x"] is None


def test_cli_singular_basis_cols_are_one_based(tmp_path, capsys):
    # the error names the columns as the file gives them, 1-based
    path = _write(tmp_path / "i.json", _inst_json([[0, 1, 2]], [4], basis_cols=[1]))
    out = tmp_path / "o.json"
    assert main(["solve", "-i", path, "-o", str(out), "--no-timing"]) == 3
    assert capsys.readouterr().err == "error: chosen basis columns [1] (1-based) are singular\n"
    assert not out.exists()


def test_cli_solve_timing_toggle(tmp_path):
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    out = tmp_path / "o.json"
    main(["solve", "-i", path, "-o", str(out)])
    assert "timing" in json.loads(out.read_text())
    main(["solve", "-i", path, "-o", str(out), "--no-timing"])
    assert "timing" not in json.loads(out.read_text())


def test_cli_solve_missing_file(tmp_path):
    assert main(["solve", "-i", str(tmp_path / "nope.json")]) == 3


def test_cli_unwritable_output_and_non_utf8_input(tmp_path, capsys):
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["solve", "-i", path, "-o", str(tmp_path / "no" / "such" / "dir.json")]) == 3
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"m": 1, "n": 2, "A": [["1", "2"]], "b": ["\xe9"]}')
    assert main(["solve", "-i", str(latin)]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_cli_solve_malformed(tmp_path, capsys):
    path = _write(tmp_path / "bad.json", "{not json")
    assert main(["solve", "-i", path]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_bad_usage_is_input_error(capsys):
    assert main(["solve"]) == 3
    assert main(["gen", "--m", "2"]) == 3
    assert main(["nonsense"]) == 3
    capsys.readouterr()


def test_cli_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen", "--m", "2", "--n", "4", "--seed", "9", "--mode", "deep"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_gen_solve_verify_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    assert main(["gen", "--m", "2", "--n", "5", "--seed", "3", "--mode", "deep", "-o", str(inst)]) == 0
    assert main(["solve", "-i", str(inst), "-o", str(res), "--no-timing"]) == 0
    assert main(["verify", "-i", str(inst), "-s", str(res)]) == 0


def test_cli_verify_positional(tmp_path):
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["verify", "-i", path, "0", "2", "0"]) == 0
    assert main(["verify", "-i", path, "1", "1", "1"]) == 1
    assert main(["verify", "-i", path]) == 3


def test_cli_verify_result_without_witness(tmp_path, capsys):
    # a result file with "x": null verifies nothing: {"ok": false} goes to -o
    # (or stdout) beside the note on stderr, so a stale {"ok": true} at -o
    # from an earlier run is overwritten, and the exit code stays 1
    inst = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    res = _write(tmp_path / "s.json", '{"x": ["0", "2", "0"]}')
    out = tmp_path / "out.json"
    assert main(["verify", "-i", inst, "-s", res, "-o", str(out)]) == 0
    assert json.loads(out.read_text()) == {"ok": True}
    _write(tmp_path / "s.json", '{"x": null}')
    assert main(["verify", "-i", inst, "-s", res, "-o", str(out)]) == 1
    assert json.loads(out.read_text()) == {"ok": False}
    assert "carries no witness" in capsys.readouterr().err
    assert main(["verify", "-i", inst, "-s", res]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"ok": False}
    assert "carries no witness" in captured.err


def test_cli_frobenius(tmp_path, capsys):
    assert main(["frobenius", "6", "10", "15"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["f_chain"] == ["6", "2", "1"]
    assert obj["G"] == "29"
    assert obj["F"] == "29"
    assert main(["frobenius", "6", "10"]) == 3  # gcd 2


def test_cli_check_sections(tmp_path, capsys):
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["check", "-i", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert "deep_cone" in obj and "per_facet" in obj["deep_cone"]
    assert obj["frobenius"] == {"G": "3", "applies": True}
    assert obj["projection_bound"]["approx"] is True

    path = _write(tmp_path / "j.json", _inst_json([[2, 0, 1], [0, 2, 1]], [7, 7]))
    assert main(["check", "-i", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["shifted_cone"]["applicable"] is True
    assert obj["shifted_cone"]["holds"] is True


def test_cli_bounds(tmp_path, capsys):
    path = _write(tmp_path / "i.json", _inst_json([[2, 0, 1], [0, 2, 1]], [3, 3]))
    assert main(["bounds", "-i", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["det_b"] == "4"
    assert obj["gcd"] == "2"
    assert obj["lattice_determinant"] == "2"
    assert obj["hermite_constant_threshold"] == "not evaluated"
    assert obj["deep_threshold"]["approx"] is True


def test_cli_batch(tmp_path):
    d = tmp_path / "batch"
    d.mkdir()
    _write(d / "one.json", _inst_json([[5, 2, 3]], [4]))
    _write(d / "two.json", _inst_json([[2, 4]], [3]))
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 0
    one = json.loads((d / "one.result.json").read_text())
    two = json.loads((d / "two.result.json").read_text())
    assert one["status"] == "nonnegative"
    assert two["status"] == "infeasible"
    # result files are not re-consumed on a second pass
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 0
    assert not (d / "one.result.result.json").exists()


def test_cli_batch_reports_bad_files(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    _write(d / "ok.json", _inst_json([[5, 2, 3]], [4]))
    _write(d / "bad.json", "{oops")
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 3
    assert (d / "ok.result.json").exists()
    capsys.readouterr()


def test_cli_batch_with_output_is_usage_error(tmp_path, capsys):
    # batch results go next to their inputs, so -o FILE would be ignored
    d = tmp_path / "batch"
    d.mkdir()
    _write(d / "ok.json", _inst_json([[5, 2, 3]], [4]))
    out = tmp_path / "out.json"
    assert main(["solve", "--batch", str(d), "-o", str(out), "--no-timing"]) == 3
    assert "--output" in capsys.readouterr().err
    assert not out.exists() and not (d / "ok.result.json").exists()
    # an existing -o file is not the batch's output, so it stays as it was
    _write(out, "earlier\n")
    assert main(["solve", "--batch", str(d), "-o", str(out), "--no-timing"]) == 3
    assert out.read_bytes() == b"earlier\n" and not (d / "ok.result.json").exists()
    capsys.readouterr()


def test_cli_batch_failure_removes_stale_result(tmp_path, capsys):
    # a file that fails keeps no result file, not even the one an earlier
    # run wrote; with two usable CPUs the second file is a forked worker's
    d = tmp_path / "batch"
    d.mkdir()
    _write(d / "a.json", _inst_json([[5, 2, 3]], [4]))
    _write(d / "x.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 0
    assert (d / "x.result.json").exists()
    _write(d / "x.json", "{oops")
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 3
    assert "2 file(s), 1 failure(s)" in capsys.readouterr().err
    assert (d / "a.result.json").exists() and not (d / "x.result.json").exists()


# per command that takes -o: a run that succeeds and a run that fails with
# exit 3. "I" is a good instance, "S" a result file with a witness for it and
# "BAD" a malformed file; each failing run reads BAD, if it reads a file
_OUTPUT_RUNS = {
    "solve": (["solve", "-i", "I", "--no-timing"], ["solve", "-i", "BAD"]),
    "check": (["check", "-i", "I"], ["check", "-i", "BAD"]),
    "bounds": (["bounds", "-i", "I"], ["bounds", "-i", "BAD"]),
    "verify -i": (["verify", "-i", "I", "0", "2", "0"], ["verify", "-i", "BAD", "0", "2", "0"]),
    "verify -s": (["verify", "-i", "I", "-s", "S"], ["verify", "-i", "I", "-s", "BAD"]),
    "gen": (["gen", "--m", "1", "--n", "3", "--seed", "1"], ["gen", "--m", "3", "--n", "1", "--seed", "1"]),
    "frobenius": (["frobenius", "6", "10", "15"], ["frobenius", "6", "10"]),
}


def _output_runs(tmp_path, command):
    files = {
        "I": _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4])),
        "S": _write(tmp_path / "s.json", '{"x": ["0", "2", "0"]}'),
        "BAD": _write(tmp_path / "bad.json", "{oops"),
    }
    return [[files.get(a, a) for a in argv] for argv in _OUTPUT_RUNS[command]], files


@pytest.mark.parametrize("command", list(_OUTPUT_RUNS))
def test_cli_failure_removes_stale_output(tmp_path, capsys, command):
    # a run that fails keeps no regular file at its -o, such as the result of
    # an earlier run, unless that file is one of the run's inputs
    (good, bad), files = _output_runs(tmp_path, command)
    out = tmp_path / "out.json"
    assert main(good + ["-o", str(out)]) == 0
    assert out.exists()
    assert main(bad + ["-o", str(out)]) == 3
    assert not out.exists()
    if files["BAD"] in bad:  # a missing input file fails the same way
        _write(out, "stale")
        gone = [str(tmp_path / "gone.json") if a == files["BAD"] else a for a in bad]
        assert main(gone + ["-o", str(out)]) == 3
        assert not out.exists()
    for name, path in files.items():
        if path in bad:
            before = pathlib.Path(path).read_bytes()
            assert main(bad + ["-o", path]) == 3, name
            assert pathlib.Path(path).read_bytes() == before, name
    capsys.readouterr()


@pytest.mark.parametrize("flag", OPTIMIZED)
@pytest.mark.parametrize("command", ["check", "bounds"])
def test_cli_failure_removes_stale_output_optimized(tmp_path, command, flag):
    (_, bad), _ = _output_runs(tmp_path, command)
    out = _write(tmp_path / "out.json", "stale")
    proc = diobox_process(*bad, "-o", out, flags=(flag,))
    assert (proc.returncode, os.path.exists(out)) == (3, False), proc.stderr


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs and symlinks")
@pytest.mark.parametrize("command", list(_OUTPUT_RUNS))
def test_cli_failure_keeps_special_output(tmp_path, capsys, command):
    # only a regular file at the target is removed: a FIFO or a symlink (as
    # /dev/stdout is) stays where it was, and so does the symlink's target
    (_, bad), _ = _output_runs(tmp_path, command)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    target = _write(tmp_path / "target.json", "kept")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    for out in (fifo, link):
        assert main(bad + ["-o", str(out)]) == 3
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert link.is_symlink() and (tmp_path / "target.json").read_text() == "kept"
    capsys.readouterr()


@pytest.mark.parametrize("text", ["3\n", "3\r\n", " 3", "3 "])
def test_parse_int_rejects_surrounding_whitespace(tmp_path, capsys, text):
    with pytest.raises(InstanceFormatError):
        parse_int(text, "x")
    path = _write(tmp_path / "i.json", json.dumps({"m": 1, "n": 3, "A": [["5", "2", text]], "b": ["4"]}))
    assert main(["solve", "-i", path, "--no-timing"]) == 3
    assert "field 'A[0][2]'" in capsys.readouterr().err


def test_cli_batch_bad_directory_is_input_error(tmp_path, capsys):
    plain = _write(tmp_path / "plain.json", _inst_json([[5, 2, 3]], [4]))
    for path in (str(tmp_path / "missing"), plain):
        assert main(["solve", "--batch", path, "--no-timing"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "internal error" not in err


def test_cli_as_module(tmp_path):
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    proc = diobox_process("solve", "-i", path, "--no-timing")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "nonnegative"


OVER_LIMIT = "1" + "0" * 4400  # above the interpreter's 4300-digit int/str limit


def test_parse_int_over_limit_is_format_error():
    with pytest.raises(InstanceFormatError) as exc:
        parse_int(OVER_LIMIT, "field 'b[0]'")
    assert "b[0]" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    ["1_0", "\u0663", " 5", "5\n", "0x10", OVER_LIMIT],
    ids=["underscore", "arabic_digit", "space", "newline", "hex", "over_limit"],
)
@pytest.mark.parametrize(
    "args,flag",
    [
        (["frobenius", "{}", "7"], "entries"),
        (["frobenius", "10", "7", "--cap", "{}"], "--cap"),
        (["gen", "--m", "{}", "--n", "3", "--seed", "1"], "--m"),
        (["gen", "--m", "1", "--n", "{}", "--seed", "1"], "--n"),
        (["gen", "--m", "1", "--n", "3", "--seed", "{}"], "--seed"),
        (["gen", "--m", "1", "--n", "3", "--seed", "1", "--max-entry", "{}"], "--max-entry"),
    ],
)
def test_cli_integer_arguments_follow_the_file_rule(capsys, text, args, flag):
    # argparse's int() takes "1_0", " 5" and non-ASCII digits, which an
    # instance file and verify's entries reject: every integer argument is
    # read by parse_int's rule, and exits 3 naming the argument
    assert main([a.format(text) for a in args]) == 3
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 1, "n": 2, "A": [["%s", "3"]], "b": ["5"]}' % OVER_LIMIT,  # decimal string
        '{"m": 1, "n": 2, "A": [[%s, 3]], "b": [5]}' % OVER_LIMIT,  # JSON literal
    ],
    ids=["string", "literal"],
)
def test_cli_over_limit_entry_exits_3(tmp_path, capsys, text):
    path = _write(tmp_path / "big.json", text)
    out = tmp_path / "o.json"
    assert main(["solve", "-i", path, "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "A[0][0]" in err and "Traceback" not in err
    assert not out.exists()

    d = tmp_path / "batch"
    d.mkdir()
    _write(d / "big.json", text)
    _write(d / "ok.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 3
    assert "2 file(s), 1 failure(s)" in capsys.readouterr().err
    assert (d / "ok.result.json").exists()
    assert not (d / "big.result.json").exists()


LONG = int("7" + "0" * 2499 + "1")  # 2501 digits: below the limit, its square is not


def test_cli_result_over_limit_is_written(tmp_path):
    # results longer than the 4300-digit int/str limit are written, with
    # the limit lifted only while they are formatted
    limit = sys.get_int_max_str_digits()
    path = _write(tmp_path / "long.json", _inst_json([[LONG, 3, 5]], [7]))
    for args, code in (["solve", "--no-timing"], 1), (["check"], 0), (["bounds"], 0):
        out = tmp_path / f"{args[0]}.json"
        assert main([args[0], "-i", path, "-o", str(out), *args[1:]]) == code
        assert sys.get_int_max_str_digits() == limit
        obj = json.loads(out.read_text(encoding="utf-8"))
        if args[0] == "bounds":
            assert obj["det_b"] == str(LONG)
            t_sq = obj["deep_threshold_squared"]  # 25 (D - 1)^2
            assert t_sq.isdigit() and len(t_sq) > 5000
            assert obj["deep_threshold"]["value"] is None
        else:
            lhs = obj["deep_cone"]["per_facet"][0]["lhs_squared"]  # 49 / D^2
            assert lhs.startswith("49/") and len(lhs) > 5000
    with pytest.raises(ValueError):
        str(LONG * LONG)


@pytest.mark.parametrize("digits,finite", [(210, True), (400, False)])
def test_cli_diagnostics_beyond_float(tmp_path, digits, finite):
    # an entry of 10^(digits - 1): the approximate diagnostics take the root
    # before converting to float, and one beyond the largest double is null
    big = 10 ** (digits - 1)
    path = _write(tmp_path / "big.json", _inst_json([[big, 3, 5]], [7]))
    out = tmp_path / "o.json"
    assert main(["check", "-i", path, "-o", str(out)]) == 0
    check = json.loads(out.read_text(encoding="utf-8"))
    assert main(["bounds", "-i", path, "-o", str(out)]) == 0
    bounds = json.loads(out.read_text(encoding="utf-8"))
    proj = bounds["projection_bound"]["value"]  # sqrt(3) sqrt(D^2 + 34)
    t = bounds["deep_threshold"]["value"]  # l_N (D - 1) = 5 (D - 1)
    assert check["projection_bound"]["value"] == proj
    if finite:
        assert proj == pytest.approx(math.sqrt(3) * float(big), rel=1e-12)
        assert t == pytest.approx(5.0 * float(big), rel=1e-12)
    else:
        assert proj is None and t is None


def test_no_assert_in_package():
    # ``python -O`` strips asserts and ``__debug__`` branches, and -OO sets
    # every ``__doc__`` to None, so every guarantee is an explicit check
    import ast

    import diobox

    for path in pathlib.Path(diobox.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)
                 or {getattr(n, "id", None), getattr(n, "attr", None)} & {"__debug__", "__doc__"}]
        assert not found, f"{path.name} has assert, __debug__ or __doc__ at lines {found}"


def test_cli_internal_error_exits_4(tmp_path, capsys, monkeypatch):
    # a deep-cone report that holds for an integer-only witness breaks the
    # one-sided contract: the solver must refuse it, and the CLI exit 4
    import diobox.solver as solver_mod
    from diobox import InternalError, solve

    real = solver_mod.deep_cone_report

    def always_holds(*args):
        return real(*args)._replace(holds=True)

    monkeypatch.setattr(solver_mod, "deep_cone_report", always_holds)
    inst = ProblemInstance(a=IntMat([[5, 2, 3]]), b=(1,))
    with pytest.raises(InternalError) as exc:
        solve(inst)
    assert exc.value.instance == inst

    bad = _write(tmp_path / "bad.json", _inst_json([[5, 2, 3]], [1]))
    out = tmp_path / "o.json"
    assert main(["solve", "-i", bad, "-o", str(out), "--no-timing"]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("internal error: InternalError:")
    assert not out.exists()

    d = tmp_path / "batch"
    d.mkdir()
    _write(d / "bad.json", _inst_json([[5, 2, 3]], [1]))
    _write(d / "ok.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 4
    assert "2 file(s), 1 failure(s)" in capsys.readouterr().err
    assert (d / "ok.result.json").exists()


def test_cli_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    import diobox.cli as cli_mod

    def broken(inst):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli_mod, "solve_with_conditions", broken)
    path = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["solve", "-i", path]) == 4
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: boom\n"


def test_cli_parser_build_failure_exits_4(capsys, monkeypatch):
    # building the parser falls under the same failure rule as a command: one
    # line and exit 4, not a traceback and the interpreter's exit 1
    import diobox.cli as cli_mod

    def broken():
        raise RuntimeError("no parser")

    monkeypatch.setattr(cli_mod, "build_parser", broken)
    assert main(["solve", "-i", "i.json"]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: no parser\n"


DEEP = "[" * 100_000  # nested past the JSON decoder's recursion limit


def test_cli_deeply_nested_instance_exits_3(tmp_path, capsys):
    # malformed JSON is bad input, however it is malformed
    deep = _write(tmp_path / "deep.json", DEEP)
    out = _write(tmp_path / "o.json", "stale")
    assert main(["solve", "-i", deep, "-o", out]) == 3
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply to parse\n"
    assert not os.path.exists(out)


def test_cli_deeply_nested_batch_file_exits_3(tmp_path, capsys):
    d = tmp_path / "batch"
    d.mkdir()
    deep = _write(d / "deep.json", DEEP)
    _write(d / "deep.result.json", "stale")
    _write(d / "ok.json", _inst_json([[5, 2, 3]], [4]))
    assert main(["solve", "--batch", str(d), "--no-timing"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {deep}: JSON nested too deeply to parse",
        "2 file(s), 1 failure(s): 1 nonnegative, 0 integer_only, 0 infeasible",
    ]
    assert (d / "ok.result.json").exists() and not (d / "deep.result.json").exists()


def test_cli_deeply_nested_result_exits_3(tmp_path, capsys):
    inst = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    deep = _write(tmp_path / "s.json", DEEP)
    assert main(["verify", "-i", inst, "-s", deep]) == 3
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply to parse\n"


def test_cli_result_field_errors_name_the_file(tmp_path, capsys):
    # like an instance file's, a result file's field errors carry its path
    inst = _write(tmp_path / "i.json", _inst_json([[5, 2, 3]], [4]))
    for text, field in (
        ('{"x": 5}', "field 'x': expected a list, got int"),
        ('{"x": ["0", "two", "0"]}', "field 'x[1]': expected an integer or decimal string, got 'two'"),
    ):
        res = _write(tmp_path / "r.json", text)
        assert main(["verify", "-i", inst, "-s", res]) == 3
        assert capsys.readouterr().err == f"error: {res}: {field}\n"


def _mixed_batch(d):
    """Write a batch with every kind of outcome, sorted so that every
    worker count from 1 to 3 gets a mix; return its summary line."""
    d.mkdir()
    _write(d / "a_nonnegative.json", _inst_json([[5, 2, 3]], [4]))
    _write(d / "b_integer_only.json", _inst_json([[5, 2, 3]], [1]))
    _write(d / "c_infeasible.json", _inst_json([[2, 4]], [3]))
    _write(d / "d_malformed.json", "{oops")
    _write(d / "e_over_limit.json", '{"m": 1, "n": 2, "A": [["%s", "3"]], "b": ["5"]}' % OVER_LIMIT)
    _write(d / "f_internal.json", _inst_json([[5, 2, 3]], [11]))
    _write(d / "g_nonnegative.json", _inst_json([[3, 5, 1], [1, 1, 0]], [8, 2]))
    return "7 file(s), 3 failure(s): 2 nonnegative, 1 integer_only, 1 infeasible"


def _raise_internal_for(b):
    import diobox.cli as cli_mod
    from diobox import InternalError

    real = cli_mod.solve_with_conditions

    def solve_with_conditions(inst):
        if inst.b == b:
            raise InternalError("forced", instance=inst)
        return real(inst)

    return solve_with_conditions


def _run_batch(d, capsys):
    code = main(["solve", "--batch", str(d), "--no-timing"])
    results = {p.name: p.read_bytes() for p in sorted(d.glob("*.result.json"))}
    for p in d.glob("*.result.json"):
        p.unlink()
    return code, capsys.readouterr().err, results


@pytest.mark.parametrize("workers", [2, 3, "fork fails"])
def test_cli_batch_workers_match_one_worker(tmp_path, capsys, monkeypatch, workers):
    # result files, stderr lines and their order, the summary and the exit
    # code do not depend on how many workers split the batch
    import diobox.cli as cli_mod

    summary = _mixed_batch(tmp_path / "batch")
    monkeypatch.setattr(cli_mod, "solve_with_conditions", _raise_internal_for((11,)))
    monkeypatch.setattr(batch, "usable_cpus", lambda: 1)
    one = _run_batch(tmp_path / "batch", capsys)
    assert one[0] == 4
    err = one[1].splitlines()
    assert [line.split(":")[0] for line in err[:-1]] == ["error", "error", "internal error"]
    assert err[-1] == summary
    assert "d_malformed.json" in err[0] and "e_over_limit.json" in err[1] and "f_internal.json" in err[2]
    assert sorted(one[2]) == [
        f"{n}.result.json" for n in ("a_nonnegative", "b_integer_only", "c_infeasible", "g_nonnegative")
    ]

    if workers == "fork fails":  # every share the children would take falls back to this process

        def no_fork():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        workers = 3
    monkeypatch.setattr(batch, "usable_cpus", lambda: workers)
    assert _run_batch(tmp_path / "batch", capsys) == one
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_batch_dead_worker_is_internal_error(tmp_path, capsys, monkeypatch):
    # a worker that dies leaves its unreported files as internal errors, and
    # is reaped; their result paths follow the rule for any failed file: a
    # regular file there is removed, a symlink or a directory stays
    import diobox.cli as cli_mod

    d = tmp_path / "batch"
    d.mkdir()
    names = ["a", "b_dies", "c", "d_after", "e", "f_after", "g"]  # worker 1 of 2 takes b, d and f
    for k, name in enumerate(names):
        _write(d / f"{name}.json", _inst_json([[5, 2, 3]], [4 + k]))
    (d / "b_dies.result.json").write_text("stale", encoding="utf-8")
    target = _write(tmp_path / "target.json", "kept")
    (d / "d_after.result.json").symlink_to(target)
    (d / "f_after.result.json").mkdir()
    parent = os.getpid()
    real = cli_mod.solve_with_conditions

    def dies_on_b(inst):
        if inst.b == (5,):
            if os.getpid() == parent:
                raise AssertionError("the dying file landed in the calling process")
            os._exit(9)
        return real(inst)

    monkeypatch.setattr(cli_mod, "solve_with_conditions", dies_on_b)
    monkeypatch.setattr(batch, "usable_cpus", lambda: 2)

    def hang(signum, frame):
        raise TimeoutError("the batch did not finish")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # fork in a threaded process warns from 3.12
            code = main(["solve", "--batch", str(d), "--no-timing"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert code == 4
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"internal error: {d / name}.json: batch worker exited with status 9 before reporting this file"
        for name in ("b_dies", "d_after", "f_after")
    ] + ["7 file(s), 3 failure(s): 4 nonnegative, 0 integer_only, 0 infeasible"]
    assert sorted(p.name for p in d.glob("*.result.json")) == [
        f"{name}.result.json" for name in ("a", "c", "d_after", "e", "f_after", "g")
    ]
    assert (d / "d_after.result.json").is_symlink() and (tmp_path / "target.json").read_text() == "kept"
    assert (d / "f_after.result.json").is_dir()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
