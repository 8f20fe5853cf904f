"""Reading and writing instance and result files.

Files are UTF-8 JSON. Every matrix or vector entry travels as a decimal
string so that arbitrary-precision values survive any JSON reader; plain
JSON integers are accepted on input. ``basis_cols`` is 1-based in files and
0-based in the API. Serialization is canonical (fixed key order, two-space
indent, trailing newline), so identical data produces identical bytes.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import DioboxError, InstanceFormatError
from .linalg import IntMat
from .solver import ProblemInstance

_INT_RE = re.compile(r"[+-]?[0-9]+")


def parse_int(value: Any, where: str) -> int:
    if isinstance(value, bool):
        raise InstanceFormatError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # longer than the interpreter's int/str digit limit
            raise InstanceFormatError(
                f"{where}: integer of {len(value)} characters is over Python's digit limit"
            ) from None
    raise InstanceFormatError(f"{where}: expected an integer or decimal string, got {value!r}")


def _json_int(text: str) -> int | str:
    # a JSON integer literal over the digit limit stays a string, for
    # parse_int to report with the field it sits in
    try:
        return int(text)
    except ValueError:
        return text


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise InstanceFormatError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def obj_to_instance(obj: Any) -> ProblemInstance:
    """Validate a decoded instance object; errors carry the offending field."""
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"instance must be an object, got {type(obj).__name__}")
    for key in ("m", "n", "A", "b"):
        if key not in obj:
            raise InstanceFormatError(f"missing field {key!r}")
    m = parse_int(obj["m"], "field 'm'")
    n = parse_int(obj["n"], "field 'n'")
    if m < 1 or n <= m:
        raise InstanceFormatError(f"need n > m >= 1, got m={m} n={n}")
    rows = _as_list(obj["A"], "field 'A'")
    if len(rows) != m:
        raise InstanceFormatError(f"field 'A': {len(rows)} rows, expected {m}")
    a = []
    for i, row in enumerate(rows):
        row = _as_list(row, f"field 'A[{i}]'")
        if len(row) != n:
            raise InstanceFormatError(f"field 'A[{i}]': {len(row)} entries, expected {n}")
        a.append([parse_int(e, f"field 'A[{i}][{j}]'") for j, e in enumerate(row)])
    bvec = _as_list(obj["b"], "field 'b'")
    if len(bvec) != m:
        raise InstanceFormatError(f"field 'b': {len(bvec)} entries, expected {m}")
    b = tuple(parse_int(e, f"field 'b[{i}]'") for i, e in enumerate(bvec))
    basis_cols = None
    if obj.get("basis_cols") is not None:
        raw = _as_list(obj["basis_cols"], "field 'basis_cols'")
        cols = [parse_int(e, f"field 'basis_cols[{i}]'") for i, e in enumerate(raw)]
        for i, c in enumerate(cols):
            if not 1 <= c <= n:
                raise InstanceFormatError(
                    f"field 'basis_cols[{i}]': index {c} out of range 1..{n}"
                )
        if len(set(cols)) != len(cols) or len(cols) != m:
            raise InstanceFormatError(
                f"field 'basis_cols': need {m} distinct 1-based indices, got {cols}"
            )
        basis_cols = tuple(c - 1 for c in cols)
    return ProblemInstance(a=IntMat(a), b=b, basis_cols=basis_cols)


def instance_to_obj(inst: ProblemInstance) -> dict:
    obj = {
        "m": inst.a.rows,
        "n": inst.a.cols,
        "A": [[str(e) for e in row] for row in inst.a],
        "b": [str(e) for e in inst.b],
    }
    if inst.basis_cols is not None:
        obj["basis_cols"] = [c + 1 for c in inst.basis_cols]
    return obj


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _read_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except OSError as exc:
        raise InstanceFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8: {exc.reason}") from exc
    except RecursionError as exc:  # the decoder recurses once per nested array or object
        raise InstanceFormatError(f"{path}: JSON nested too deeply to parse") from exc


def load_instance(path: str) -> ProblemInstance:
    """Parse an instance file.

    Raises:
        InstanceFormatError: on malformed JSON (with line and column) or on
            any schema violation (with the field name).
    """
    obj = _read_json(path)
    try:
        return obj_to_instance(obj)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # an unwritable output path is bad usage, exit 3
        raise DioboxError(f"{path}: {exc.strerror or exc}") from exc


def load_result_x(path: str) -> tuple[int, ...] | None:
    """Extract the witness vector from a result file (None when absent)."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{path}: result must be an object")
    x = obj.get("x")
    if x is None:
        return None
    x = _as_list(x, f"{path}: field 'x'")
    return tuple(parse_int(e, f"{path}: field 'x[{i}]'") for i, e in enumerate(x))
