"""Every defaulted parameter of plap's public functions has a caller in the
package that sets it.  A tuning value with one value in use is a module
constant instead (solver.MAX_ITERS, cutoff.DEFAULT_SIGN_CAP, ...), which a
test can monkeypatch; a new keyword must name its caller here."""

import dataclasses
import inspect

from plap import cli, combinatorics, cutoff, families, graph, linalg, report, solver, tensor

MODULES = (graph, linalg, solver, cutoff, combinatorics, tensor, families, report, cli)

# module.function.parameter (or module.Class.method.parameter): who sets it
SETTERS = {
    "graph.validate.mu": "graph.from_json_dict, combinatorics.with_signature",
    "graph.validate.kappa": "graph.from_json_dict, combinatorics.with_signature",
    "graph.dumps.indent": "plap generate",
    "linalg.adjacency.negate": "linalg._normalized_sym",
    "linalg.normalized_adjacency.edge_mask": "cutoff._first_max, cutoff._top_values",
    "linalg.normalized_adjacency.negate": "cutoff._subgraph_lowers",
    "linalg.normalized_adjacency.absolute": "cutoff._top_values, cutoff._subset_uppers",
    "linalg.normalized_spectrum.negate": "cutoff.limit_scan",
    "linalg.normalized_values.negate": "cutoff.lower_bounds_full_all",
    "solver.solve_largest.cfg": "plap spectrum/verify --tol --restarts --seed",
    "solver.solve_largest_grid.cfg": "plap verify monotonicity/limit --tol --restarts --seed",
    "solver.solve_smallest.cfg": "plap spectrum/verify --tol --restarts --seed",
    "cutoff.exact_ln.seed": "cutoff.brackets",
    "cutoff.brackets.budget": "plap cutoff --budget",
    "cutoff.brackets.seed": "plap cutoff --seed",
    "cutoff.interlacing_checks.budget": "plap verify --budget",
    "cutoff.interlacing_checks.ln": "plap verify (one exact_ln for every suite)",
    "cutoff.limit_scan.cfg": "plap verify limit --tol --restarts --seed",
    "combinatorics.default_signature_pool.seed": "combinatorics.inertia_report",
    "combinatorics.inertia_report.budget": "plap bounds --budget",
    "combinatorics.inertia_report.seed": "plap bounds --seed",
    "tensor.eigen_correspondence.ln": "plap verify (one exact_ln for every suite)",
    "families.random_graph.signed": "families.generate (plap generate --signed)",
    "families.generate.negated": "plap generate --negate",
    "report.Report.add.values": "every plap command",
    "report.Report.add.witness": "plap bounds, plap verify interlacing",
    "cli.main.argv": "perfbench's cli workload",
    # no caller in the package: the only way to check every signature
    # (full_signature_pool), and the paper's bound holds for each one
    "combinatorics.inertia_report.pool": "callers checking their own signatures",
}


def _defaulted(name, fn):
    return [f"{name}.{p}" for p, prm in inspect.signature(fn).parameters.items()
            if prm.default is not inspect.Parameter.empty]


def _public_defaulted():
    """Defaulted parameters of the public functions and the public methods
    of the public classes of each module (dataclass fields excepted)."""
    out = []
    for mod in MODULES:
        short = mod.__name__.split(".")[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out += _defaulted(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, meth in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(meth):
                        out += _defaulted(f"{short}.{name}.{attr}", meth)
    return out


def test_every_defaulted_parameter_has_a_listed_caller():
    found = _public_defaulted()
    assert len(found) == len(set(found))
    assert set(found) - set(SETTERS) == set(), "add the caller that sets each new one"
    assert set(SETTERS) - set(found) == set(), "drop the entries of removed ones"


def test_solver_config_holds_the_cli_settings_only():
    assert {f.name for f in dataclasses.fields(solver.SolverConfig)} == {"tol", "restarts",
                                                                         "rng_seed"}
