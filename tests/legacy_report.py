"""The report writer as it was before the one-pass encoder, kept verbatim
as the reference the byte-identity tests compare `Report.dumps` against:
convert the whole report with `jsonable`, then `json.dumps` it."""

import json
from typing import Any

import numpy as np

from plap import __version__


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
    return json.dumps(to_dict(self), indent=2, sort_keys=True, allow_nan=False)
