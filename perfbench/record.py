"""Record the reference values that workloads.py checks answers against.

Run from the root of a checkout whose plap is the baseline to compare with:

    python3 perfbench/record.py

It rewrites perfbench/reference.json in one pass, with one `recorded_with`
block, and for every pool member any seed can draw:
  * solve:  the p = 1.5 extremal value of each fixed generic graph, or the
            exception it raised;
  * ln:     the exact top cutoff eigenvalue L_n of each signed pool graph;
  * cli:    the exit code of each CLI command the cli workload runs.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
from pathlib import Path

import bootstrap

PATH = bootstrap.HERE / "reference.json"


def record_solve(wl, plap) -> dict:
    from plap import solver
    out = {}
    for n, i in wl.EXTREMAL_GENERIC:
        g = wl.signed_graph(n, i)
        for which in ("largest", "smallest"):
            key = f"signed-n{n}-i{i}|{which}|1.5"
            try:
                out[key] = {"value": getattr(solver, f"solve_{which}")(g, 1.5).value}
            except plap.SolverError as exc:
                out[key] = {"error": type(exc).__name__}
    return out


def record_ln(wl, plap) -> dict:
    from plap import cutoff
    out = {}
    for n in range(8, 17):
        for i in range(wl.ENUM_POOL):
            b = cutoff.exact_ln(wl.signed_graph(n, i))
            if not b.exact:
                raise RuntimeError(f"L_n of signed-n{n}-i{i} is not exact")
            out[f"signed-n{n}-i{i}"] = b.lower
    return out


def record_cli(wl, plap) -> dict:
    from plap import graph
    out = {}
    with tempfile.TemporaryDirectory(dir=bootstrap.ROOT) as tmp:
        for (n, kind, cmds), i in zip(wl.CLI_RECIPE, wl.cli_pool_members()):
            gid = f"{kind}-n{n}-i{i}"
            path = Path(tmp) / f"{gid}.json"
            path.write_text(graph.dumps(wl.cli_graph(kind, n, i)) + "\n")
            for command in sorted(cmds):
                rc, _ = wl.run_cli(wl.cli_argv(command, str(path), kind, i))
                out[f"{gid}|{command}"] = rc
    return out


SECTIONS = {"solve": record_solve, "ln": record_ln, "cli": record_cli}


def main() -> int:
    settings = bootstrap.configure()
    plap = bootstrap.import_plap()
    import numpy as np

    import provenance
    import workloads as wl
    ref = {}
    for name, record in SECTIONS.items():
        ref[name] = record(wl, plap)
        print(f"recorded {name}: {len(ref[name])} entries", file=sys.stderr, flush=True)
    ref["recorded_with"] = {**settings, **provenance.describe(), "numpy": np.__version__,
                            "python": platform.python_version()}
    PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
