"""Spans around calls into plap's layers, recorded from outside the package.

`Tracer.install()` replaces each traced function, wherever a plap module
holds a reference to it, by a wrapper that records a span: name, start, end,
parent span and job id.  Spans stay in memory until `write()`.  Self time is
a span's duration minus the durations of its direct children.

Pool workers are not traced.  plap's process pool is recorded as one span,
`cutoff.pool`, from entering the executor to its shutdown; the wrappers a
forked worker inherits are switched off in the child.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gzip
import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

import plap
from plap import cli, combinatorics, cutoff, graph, linalg, report, solver, tensor

MODULES = (plap, graph, linalg, solver, cutoff, combinatorics, tensor, report, cli)

FUNCTIONS = [
    (graph, "classify_balance"), (graph, "from_json_dict"),
    (linalg, "normalized_spectrum"),
    (solver, "solve_largest"), (solver, "solve_smallest"), (solver, "_ascent"),
    (solver, "rayleigh"), (solver, "_newton_polish"), (solver, "apply_plap"),
    (solver, "_power_refine"), (solver, "_finish"),
    (cutoff, "exact_ln"), (cutoff, "_lambda_max_signs"), (cutoff, "bracket"),
    (cutoff, "lower_bound_subgraphs"), (cutoff, "upper_bound_subsets"),
    (cutoff, "interlacing_check"), (cutoff, "limit_scan"),
    (combinatorics, "max_independent_set"), (combinatorics, "max_matching"),
    (combinatorics, "inertia_report"),
    (tensor, "build_tensor"), (tensor, "apply_tensor"), (tensor, "eigen_correspondence"),
    (cli, "main"),
]
METHODS = [("graph.edge_arrays", graph.SignedGraph, "edge_arrays"),
           ("report.Report.dumps", report.Report, "dumps")]
DENSE_EIG = ("eigh", "eigvalsh")          # every numpy.linalg call, as linalg.dense_eig
REPEAT_TRACKED = ("cutoff.exact_ln", "combinatorics.max_independent_set",
                  "linalg.normalized_spectrum")


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []      # (sid, name id, start, end, parent sid, job, nested)
        self._stack: list[tuple] = []
        self._depth: Counter = Counter()
        self._next = 0
        self.job = -1
        self.active = False
        self.counters: Counter = Counter()
        self._tols: list[float] = []
        self._seen: set = set()
        self._restore: list[tuple] = []
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # --- spans ----------------------------------------------------------------------

    def open(self, nid: int) -> None:
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        nested = self._depth[nid] > 0
        self._depth[nid] += 1
        self._stack.append((sid, nid, parent, nested, perf_counter()))

    def close(self) -> None:
        end = perf_counter()
        sid, nid, parent, nested, start = self._stack.pop()
        self._depth[nid] -= 1
        self.spans.append((sid, nid, start, end, parent, self.job, nested))

    def begin_job(self, job: int) -> None:
        """Open the job's root span; spans are recorded only inside a job."""
        self.job = job
        self._seen.clear()
        self.open(self.name_id("job"))
        self.active = True

    def end_job(self) -> None:
        self.active = False
        self.close()

    # --- installation -----------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        tracer = self
        pops_tol = name.startswith("solver.solve_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
                if pops_tol:
                    tracer._tols.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def _hooks(self, name: str):
        if name in REPEAT_TRACKED:
            def before(args, kwargs):
                key = (name, args[0])
                self.counters[name + ".repeats"] += key in self._seen
                self._seen.add(key)
            return before, None
        if name.startswith("solver.solve_"):
            def before(args, kwargs):
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                self._tols.append(cfg.tol if cfg is not None else solver.SolverConfig().tol)
            return before, None
        if name == "solver._finish":
            def after(args, result):
                _, lam, res = result
                self.counters["solver.restart.attempts"] += 1
                tol = self._tols[-1] if self._tols else solver.SolverConfig().tol
                self.counters["solver.restart.converged"] += res <= tol * (1.0 + abs(lam))
            return None, after
        if name == "cutoff._lambda_max_signs":
            def before(args, kwargs):
                self.counters["cutoff.sign_space"] += 1 << (args[0].n - 1)
            return before, None
        return None, None

    def install(self) -> None:
        for module, attr in FUNCTIONS:
            name = f"{_short(module)}.{attr}"
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, *self._hooks(name))
            for mod in MODULES:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for name, cls, attr in METHODS:
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig))
        for attr in DENSE_EIG:
            orig = getattr(np.linalg, attr)
            self._restore.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self._wrap("linalg.dense_eig", orig))
        orig_pool = concurrent.futures.ProcessPoolExecutor
        self._restore.append((concurrent.futures, "ProcessPoolExecutor", orig_pool))
        concurrent.futures.ProcessPoolExecutor = self._traced_pool(orig_pool)

    def _traced_pool(self, base):
        tracer = self
        nid = self.name_id("cutoff.pool")

        class TracedPool(base):
            def __enter__(self):
                self._traced = tracer.active
                if self._traced:
                    tracer.counters["cutoff.pool.calls"] += 1
                    tracer.open(nid)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._traced:
                        tracer.close()
        return TracedPool

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- results ----------------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ms and total_ms (outermost spans only)."""
        if not self.spans:
            return {}
        arr = np.array([s[:5] for s in self.spans], dtype=float)
        sid = arr[:, 0].astype(np.intp)
        nid = arr[:, 1].astype(np.intp)
        dur = arr[:, 3] - arr[:, 2]
        parent = arr[:, 4].astype(np.intp)
        nested = np.array([s[6] for s in self.spans], dtype=bool)
        by_sid = np.zeros(sid.max() + 1)
        by_sid[sid] = dur
        child = np.bincount(parent[parent >= 0], dur[parent >= 0], minlength=by_sid.size)
        self_t = dur - child[sid]
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_ms = np.bincount(nid, self_t, minlength=k) * 1e3
        total_ms = np.bincount(nid[~nested], dur[~nested], minlength=k) * 1e3
        return {name: {"calls": float(calls[i]), "self_ms": float(self_ms[i]),
                       "total_ms": float(total_ms[i])}
                for i, name in enumerate(self.names)}

    def job_totals(self, name: str) -> dict[int, float]:
        """Total ms of outermost spans of one name, per job."""
        nid = self._ids.get(name)
        out: Counter = Counter()
        for sid, n, start, end, parent, job, nested in self.spans:
            if n == nid and not nested:
                out[job] += (end - start) * 1e3
        return dict(out)

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": ["sid", "name", "start", "end",
                                                      "parent", "job"]}) + "\n")
            for sid, nid, start, end, parent, job, _ in self.spans:
                fh.write(f'[{sid},"{self.names[nid]}",{start:.9f},{end:.9f},{parent},{job}]\n')
