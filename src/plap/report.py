"""Self-contained, replayable JSON reports for the command-line tools.

A report records the tool version, a digest of the raw input bytes, the
command line, the RNG seed, and one record per check; the same input and
seed reproduce the values section byte for byte on the same build.
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

    def to_dict(self) -> dict:
        return {
            "tool": f"plap {__version__}",
            "command": list(self.command),
            "input_digest": self.input_digest,
            "seed": self.seed,
            "checks": [
                {"name": c.name, "anchor": c.anchor, "status": c.status,
                 "values": jsonable(c.values),
                 **({"witness": jsonable(c.witness)} if c.witness else {})}
                for c in self.checks
            ],
            "values": jsonable(self.values),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def csv_rows(grid_rows: list[dict]) -> str:
    """Fixed-order CSV for p-grids: p, lambda, residual, m1, m2 at 17
    significant digits."""
    cols = ("p", "lambda", "residual", "m1", "m2")
    lines = [",".join(cols)]
    for row in grid_rows:
        lines.append(",".join(format(float(row[c]), ".17g") for c in cols))
    return "\n".join(lines) + "\n"
