"""plap benchmark: seeded workloads, answer checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload extremal --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

One process runs a workload's fixed job list as a closed loop, one job at a
time, in whole passes, until at least --seconds of jobs have run; the jobs
under CHEAP_S also run EXTRA_ROUNDS more times per pass.  A job's latency and
CPU time are their means over its runs, each divided by the machine's
slowdown while it ran, which a fixed kernel measures between and during jobs
(speed.py).  Every answer is checked (workloads.py).  Human-readable lines
come first; the last line of stdout is one JSON object with "correct",
"attempted", "failed" and "metrics": the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A traced run measures half its time
untraced, half traced, one run per job per pass, and reports per-layer
metrics per pass of the job list.  Full records (every job, provenance, and
with --trace 1 the spans) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field

import bootstrap
import speed

WORKLOADS = ("extremal", "sparse", "enumerate", "cli")
SETUP_SAMPLES = 3           # one in this process, the rest in fresh interpreters
CHEAP_S = 0.05              # jobs faster than this also run in the extra rounds of a pass
EXTRA_ROUNDS = 2            # extra rounds of the cheap jobs per steady pass

END_TO_END = [
    ("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"), ("peak_rss_mb", "MiB"), ("exact_ratio", "ratio"),
]
REPORTED_ONLY = [("fail_ratio", "ratio")]     # zero on most workloads; see README.md

CLI_COMMANDS = ("verify-all", "monotonicity", "cutoff", "bounds", "spectrum")
PER_LAYER = [
    ("graph.edge_arrays.calls", "count"), ("graph.edge_arrays.self_ms", "ms"),
    ("graph.classify_balance.self_ms", "ms"), ("graph.from_json_dict.self_ms", "ms"),
    ("linalg.dense_eig.calls", "count"), ("linalg.dense_eig.self_ms", "ms"),
    ("linalg.normalized_spectrum.self_ms", "ms"),
    ("linalg.normalized_spectrum.repeat_ratio", "ratio"),
    ("solver.solve_largest.total_ms", "ms"), ("solver.solve_smallest.total_ms", "ms"),
    ("solver._ascent.calls", "count"), ("solver._ascent.self_ms", "ms"),
    ("solver.rayleigh.calls", "count"), ("solver.rayleigh.self_ms", "ms"),
    ("solver._newton_polish.self_ms", "ms"),
    ("solver.apply_plap.calls", "count"), ("solver.apply_plap.self_ms", "ms"),
    ("solver._power_refine.self_ms", "ms"),
    ("solver.restart.attempts_per_solve", "count"), ("solver.restart.converged_ratio", "ratio"),
    ("cutoff.exact_ln.calls", "count"), ("cutoff.exact_ln.total_ms", "ms"),
    ("cutoff.exact_ln.repeat_ratio", "ratio"),
    ("cutoff._lambda_max_signs.self_ms", "ms"), ("cutoff.sign_space", "codes"),
    ("cutoff.pool.calls", "count"), ("cutoff.pool.total_ms", "ms"),
    ("cutoff.pool.speedup", "x"),
    ("cutoff.bracket.total_ms", "ms"), ("cutoff.lower_bound_subgraphs.self_ms", "ms"),
    ("cutoff.upper_bound_subsets.self_ms", "ms"), ("cutoff.interlacing_check.total_ms", "ms"),
    ("cutoff.limit_scan.total_ms", "ms"),
    ("combinatorics.max_independent_set.calls", "count"),
    ("combinatorics.max_independent_set.self_ms", "ms"),
    ("combinatorics.max_independent_set.repeat_ratio", "ratio"),
    ("combinatorics.max_matching.self_ms", "ms"), ("combinatorics.inertia_report.total_ms", "ms"),
    ("tensor.build_tensor.self_ms", "ms"), ("tensor.apply_tensor.self_ms", "ms"),
    ("tensor.eigen_correspondence.total_ms", "ms"),
    ("report.Report.dumps.self_ms", "ms"), ("cli.main.total_ms", "ms"),
] + [(f"cli.main.{c}.total_ms", "ms") for c in CLI_COMMANDS] + [("trace.overhead", "ratio")]


@dataclass
class Record:
    name: str
    index: int                  # position of the job in the job list
    wall_s: float
    cpu_s: float
    failed: bool
    wrong: bool
    answers: int
    exact: int
    note: str
    extra: bool = False         # a repeat of a cheap job (not counted as an attempt)
    probes: list = field(default_factory=list)  # speed samples before, during, after (s)

    @property
    def slowdown(self) -> float:
        """The machine's slowdown while the job ran: mean probe over nominal."""
        return sum(self.probes) / len(self.probes) / speed.NOMINAL_S


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# --- setup --------------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import plap, then generate and validate the workload's inputs."""
    t0 = time.perf_counter()
    bootstrap.import_plap()
    import workloads
    workdir = bootstrap.OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = workloads.build(workload, seed, workdir)
    return time.perf_counter() - t0, jobs, workdir


def setup_probe(workload: str, seed: int) -> float:
    proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", workload,
                           "--seed", str(seed)], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# --- measurement ----------------------------------------------------------------------

def _cpu() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _call(job):
    try:
        return job.run(), None
    except Exception as exc:            # a failed job is counted, not fatal
        return None, exc


def run_job(job, index: int, extra: bool, records: list, probe, steady: bool,
            tracer=None) -> None:
    before = probe.sample()
    if records:
        records[-1].probes.append(before)
    if tracer is not None:
        tracer.begin_job(len(records))
    c0, t0 = _cpu(), time.perf_counter()
    if steady:
        with probe.during() as inside:
            result, error = _call(job)
    else:
        (result, error), inside = _call(job), []
    t1, c1 = time.perf_counter(), _cpu()
    if tracer is not None:
        tracer.end_job()
    stolen = probe.inside_s if steady else 0.0
    wall, cpu, probes = t1 - t0 - stolen, c1 - c0 - stolen, [before, *inside]
    if error is not None:
        kind = type(error).__name__
        records.append(Record(job.name, index, wall, cpu, True, kind != job.expect,
                              0, 0, f"{kind}: {error}", extra, probes))
        return
    out = job.check(result)
    records.append(Record(job.name, index, wall, cpu, out.failed or not out.ok, not out.ok,
                          out.answers, out.exact, out.note, extra, probes))


def measure(jobs, seconds: float, probe, steady: bool, tracer=None) -> tuple[list, int]:
    """Whole passes until `seconds` of job time have run.  A steady pass
    samples the machine's speed inside jobs too, and after the job list runs
    EXTRA_ROUNDS more times the jobs that took under CHEAP_S (at nominal
    speed) in the first pass."""
    records: list[Record] = []
    passes, cheap = 0, []
    while passes == 0 or sum(r.wall_s for r in records) < seconds:
        for index, job in enumerate(jobs):
            run_job(job, index, False, records, probe, steady, tracer)
        if passes == 0 and steady:
            cheap = [r.index for r in records if r.wall_s / r.slowdown < CHEAP_S]
        for _ in range(EXTRA_ROUNDS):
            for index in cheap:
                run_job(jobs[index], index, True, records, probe, steady, tracer)
        passes += 1
    records[-1].probes.append(probe.sample())
    return records, passes


def per_job_means(records: list):
    """Each job's mean latency and CPU time over its runs, each divided by
    the machine's slowdown while it ran.  A mean, not a median: a job's time
    was seen to alternate between two levels from one call to the next (by
    up to 1.7x on the same inputs), and a median of a few runs jumps between
    them."""
    import numpy as np
    by_job: dict[int, list] = {}
    for r in records:
        by_job.setdefault(r.index, []).append(r)
    lat = np.array([np.mean([r.wall_s / r.slowdown for r in rs]) for rs in by_job.values()])
    cpu = np.array([np.mean([r.cpu_s / r.slowdown for r in rs]) for rs in by_job.values()])
    return lat, cpu


def hd_quantile(x, q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta((n+1)q, (n+1)(1-q))-weighted
    mean of all order statistics.  A job mix leaves gaps between classes of
    jobs, and a single order statistic jumps across a gap when two jobs swap
    places; this estimate moves smoothly instead."""
    import numpy as np
    x = np.sort(np.asarray(x, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    t = (np.arange(256 * n) + 0.5) / (256 * n)      # midpoints of a fine grid on (0, 1)
    pdf = np.exp((a - 1) * (np.log(t) - math.log(q)) + (b - 1) * (np.log1p(-t) - math.log1p(-q)))
    w = np.bincount((t * n).astype(int), pdf, n)    # Beta mass on ((i-1)/n, i/n]
    return float(w @ x / w.sum())


def end_to_end(records: list, setup_samples: list) -> dict:
    import numpy as np
    lat, cpu = per_job_means(records)
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    attempts = [r for r in records if not r.extra]
    answers = sum(r.answers for r in attempts)
    p50, p90 = hd_quantile(lat * 1e3, 0.5), hd_quantile(lat * 1e3, 0.9)
    return {
        "setup_s": float(np.median(setup_samples)),
        "jobs_per_s": len(lat) / float(lat.sum()),
        "job_p50_ms": float(p50),
        "job_p90_ms": float(p90),
        "cpu_ms_per_job": 1e3 * float(cpu.mean()),
        "peak_rss_mb": max(me, kids) / 1024.0,
        "exact_ratio": sum(r.exact for r in attempts) / answers if answers else 1.0,
        "fail_ratio": sum(r.failed for r in attempts) / len(attempts),
    }


def per_layer(tracer, passes: int, records: list, jobs, overhead: float,
              pool_speedup: float) -> dict:
    agg = tracer.aggregate()
    out = {}

    def stat(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0.0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counters
    solves = stat("solver.solve_largest", "calls") + stat("solver.solve_smallest", "calls")
    commands = {k: jobs[k % len(jobs)].command for k in range(len(records))}
    cli_by_job = tracer.job_totals("cli.main")
    for metric, _ in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric == "solver.restart.attempts_per_solve":
            value = ratio(c["solver.restart.attempts"] / passes, solves)
        elif metric == "solver.restart.converged_ratio":
            value = ratio(c["solver.restart.converged"], c["solver.restart.attempts"])
        elif metric == "cutoff.sign_space":
            value = c["cutoff.sign_space"] / passes
        elif metric == "cutoff.pool.calls":
            value = c["cutoff.pool.calls"] / passes
        elif metric == "cutoff.pool.speedup":
            value = pool_speedup
        elif metric == "trace.overhead":
            value = overhead
        elif field == "repeat_ratio":
            value = ratio(c[head + ".repeats"], agg.get(head, {}).get("calls", 0.0))
        elif head.startswith("cli.main.") and head.count(".") == 2:
            cmd = head.split(".")[2]
            value = sum(ms for job, ms in cli_by_job.items() if commands.get(job) == cmd) / passes
        else:
            value = stat(head, field)
        out[metric] = value
    return out


def pool_speedup(jobs) -> float:
    """Serial (PLAP_THREADS=1) over pooled wall time of the n=16 exact_ln jobs;
    0.0 when the workload has none."""
    big = [j for j in jobs if j.n == 16]
    if not big:
        return 0.0
    times = {}
    for threads in ("1", os.environ["PLAP_THREADS"]):
        os.environ["PLAP_THREADS"], t0 = threads, time.perf_counter()
        for job in big:
            job.run()
        times[threads] = time.perf_counter() - t0
    return times["1"] / times[os.environ["PLAP_THREADS"]]


# --- output ---------------------------------------------------------------------------

def report_lines(workload: str, records: list, passes: int, metrics: dict, units: dict) -> None:
    attempts = [r for r in records if not r.extra]
    failed = [r for r in attempts if r.failed]
    print(f"# {workload}: {len(attempts)} jobs in {passes} pass(es) of {len(attempts) // passes}"
          f", {len(records) - len(attempts)} extra runs of cheap jobs")
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]:6s} (n={len(attempts)})")
    for r in failed[: len(failed) // passes]:
        print(f"#   failed: {r.name}: {r.note[:160]}")
    for r in records:
        if r.wrong:
            print(f"#   WRONG: {r.name}: {r.note[:200]}")


def run_all(args) -> int:
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    rows = {name: ([r["metrics"][name]["value"] for r in results.values()], m["unit"])
            for name, m in results[WORKLOADS[0]]["metrics"].items()}
    if not args.trace:
        rows["fail_ratio"] = ([r["failed"] / r["attempted"] for r in results.values()], "ratio")
    print(f"# summary {'':35s}" + " ".join(f"{w:>14s}" for w in WORKLOADS))
    for name, (values, unit) in rows.items():
        print(f"{name:44s} " + " ".join(f"{v:14.6g}" for v in values) + f"  {unit}")
    print("# samples " + " ".join(f"{w}={r['attempted']}" for w, r in results.items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    settings = bootstrap.configure()
    if args.workload == "all":
        return run_all(args)
    seconds, jobs, workdir = setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(seconds)
            return 0
        return measure_and_report(args, settings, seconds, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, settings: dict, first_setup: float, jobs) -> int:
    import numpy as np

    import provenance
    probe = speed.Probe()
    samples = [first_setup] + [setup_probe(args.workload, args.seed)
                               for _ in range(SETUP_SAMPLES - 1)]
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **provenance.describe(), **settings,
            "numpy": np.__version__, "python_impl": platform.python_implementation(),
            "setup_samples_s": samples}
    print("# provenance " + json.dumps(info, sort_keys=True))
    bootstrap.OUT.mkdir(exist_ok=True)
    stem = bootstrap.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if args.trace:
        import spans
        plain, plain_passes = measure(jobs, args.seconds / 2, probe, False)
        tracer = spans.Tracer()
        tracer.install()
        try:
            records, passes = measure(jobs, args.seconds / 2, probe, False, tracer)
        finally:
            tracer.uninstall()
        speedup = pool_speedup(jobs) if args.workload == "enumerate" else 0.0
        overhead = (end_to_end(records, samples)["jobs_per_s"]
                    / end_to_end(plain, samples)["jobs_per_s"])
        metrics = per_layer(tracer, passes, records, jobs, overhead, speedup)
        units = dict(PER_LAYER)
        tracer.write(stem.with_suffix(".spans.jsonl.gz"), info)
        print("# per-layer metrics are per pass of the job list; code in pool workers is "
              "not traced: cutoff.pool is one span from executor start to shutdown")
        records, passes = plain + records, plain_passes + passes
    else:
        records, passes = measure(jobs, args.seconds, probe, True)
        metrics = end_to_end(records, samples)
        units = dict(END_TO_END + REPORTED_ONLY)
    report_lines(args.workload, records, passes, metrics, units)
    correct = not any(r.wrong for r in records)
    attempts = [r for r in records if not r.extra]
    result = {"correct": correct, "attempted": len(attempts),
              "failed": sum(r.failed for r in attempts),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in (PER_LAYER if args.trace else END_TO_END)}}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"provenance": info, "result": result,
                   "jobs": [r.__dict__ for r in records]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
