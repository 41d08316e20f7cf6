"""Self-contained, replayable JSON reports for the command-line tools.

A report records the tool version, a digest of the raw input bytes, the
command line, the RNG seed, and one record per check; the same input and
seed reproduce the values section byte for byte on the same build.

Report JSON: keys sorted (a non-str key as str(key), the last value winning
when two collide), a two-space indent, numpy scalars and arrays and tuples
written as the plain values and lists that jsonable makes of them, floats in
their shortest repr and strings ASCII-escaped.  The bytes are those of
json.dumps(..., indent=2, sort_keys=True) on the jsonable form, written in
one pass.  NaN and +-inf anywhere are refused with a ValueError that names
the path of the first one (`... not JSON compliant at values.lambda: nan`);
a value of another type is refused with a TypeError, before any NaN.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import __version__

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP = "skip"


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"a report value cannot be a {type(obj).__name__}")


_INF = float("inf")
_PLAIN = {dict, list, str, int, float, bool, type(None)}
_esc = json.encoder.encode_basestring_ascii


class _NonFinite(ValueError):
    """A NaN or infinite float; the containers it unwinds through add their
    key or index to path, innermost first."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.value, self.path = value, []


def _float_text(x: float) -> str:
    if not -_INF < x < _INF:
        raise _NonFinite(x)
    return float.__repr__(x)


# the text of each scalar type that is written as it is
_SCALAR = {str: _esc, int: int.__repr__, float: _float_text, np.float64: _float_text,
           bool: {True: "true", False: "false"}.__getitem__, type(None): {None: "null"}.get}


def _text(obj: Any, nl: str) -> str:
    """The JSON text of obj; nl is a newline and the indent of obj's line."""
    scalar = _SCALAR.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if type(obj) is dict:
        return _dict_text(obj, nl)
    if type(obj) is list or type(obj) is tuple:
        return _list_text(obj, nl)
    if type(obj) is np.ndarray and obj.ndim:
        return _list_text(obj.tolist(), nl)
    # as jsonable converts it (numpy scalars and 0-d arrays, subclasses;
    # TypeError for the rest) and json.dumps writes that
    obj = jsonable(obj)
    if type(obj) in _PLAIN:
        return _text(obj, nl)
    for base in (str, int, float):
        if isinstance(obj, base):
            return _SCALAR[base](obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dict_text(d: dict, nl: str) -> str:
    if not d:
        return "{}"
    if {*map(type, d)} != {str}:    # as str(key), the last value winning
        d = {k if type(k) is str else str(k): v for k, v in d.items()}
    inner = nl + "  "
    items = []
    for k, v in sorted(d.items()):      # keys differ, so values are never compared
        try:
            items.append(_esc(k) + ": " + _text(v, inner))
        except _NonFinite as exc:
            exc.path.append(k)
            raise
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def _list_text(seq, nl: str) -> str:
    if not seq:
        return "[]"
    inner = nl + "  "
    items = []
    for i, x in enumerate(seq):
        try:
            items.append(_text(x, inner))
        except _NonFinite as exc:
            exc.path.append(i)
            raise
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def digest(raw: Optional[bytes]) -> str:
    return "sha256:" + hashlib.sha256(raw or b"").hexdigest()


@dataclass
class Check:
    name: str
    anchor: str            # the mathematical statement being exercised
    status: str
    values: dict = field(default_factory=dict)
    witness: Optional[dict] = None


@dataclass
class Report:
    command: list[str]
    input_digest: str
    seed: Optional[int] = None
    checks: list[Check] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def add(self, name: str, anchor: str, passed: Optional[bool],
            values: Optional[dict] = None, witness: Optional[dict] = None) -> None:
        status = STATUS_SKIP if passed is None else (STATUS_PASS if passed else STATUS_FAIL)
        self.checks.append(Check(name=name, anchor=anchor, status=status,
                                 values=values or {}, witness=witness))

    @property
    def failed(self) -> bool:
        return any(c.status == STATUS_FAIL for c in self.checks)

    def dumps(self) -> str:
        checks = [{"name": c.name, "anchor": c.anchor, "status": c.status, "values": c.values,
                   **({"witness": c.witness} if c.witness else {})} for c in self.checks]
        try:
            return _text({"tool": f"plap {__version__}", "command": list(self.command),
                          "input_digest": self.input_digest, "seed": self.seed,
                          "checks": checks, "values": self.values}, "\n")
        except (TypeError, ValueError) as exc:
            # a value of another type is refused first, the first one in
            # insertion order, as converting the whole report first would
            for c in checks:
                jsonable(c)
            jsonable(self.values)
            if not isinstance(exc, _NonFinite):
                raise
            where = "".join(f"[{key}]" if type(key) is int else f".{key}"
                            for key in reversed(exc.path))
            raise ValueError("Out of range float values are not JSON compliant at "
                             f"{where[1:]}: {jsonable(exc.value)!r}") from None


def csv_rows(grid_rows: list[dict]) -> str:
    """Fixed-order CSV for p-grids: p, lambda, residual, m1, m2 at 17
    significant digits."""
    cols = ("p", "lambda", "residual", "m1", "m2")
    lines = [",".join(cols)]
    for row in grid_rows:
        lines.append(",".join(format(float(row[c]), ".17g") for c in cols))
    return "\n".join(lines) + "\n"
