"""Every public function of plap has a caller in the package, or a named
reason to stay, and every defaulted parameter has a caller that sets it.  A
tuning value with one value in use is a module constant instead
(solver.MAX_ITERS, cutoff.DEFAULT_SIGN_CAP, ...), which a test can
monkeypatch; a new keyword must name its caller here."""

import ast
import dataclasses
import inspect
from pathlib import Path

import plap
from plap import cli, combinatorics, cutoff, families, graph, linalg, report, solver, tensor

MODULES = (graph, linalg, solver, cutoff, combinatorics, tensor, families, report, cli)

# module.function.parameter (or module.Class.method.parameter): who sets it
SETTERS = {
    "graph.validate.mu": "graph.from_json_dict",
    "graph.validate.kappa": "graph.from_json_dict",
    "graph.dumps.indent": "plap generate",
    "linalg.normalized_adjacency.edge_mask": "cutoff._first_max, cutoff._top_values",
    "linalg.normalized_adjacency.negate": "cutoff._subgraph_lowers",
    "linalg.normalized_adjacency.absolute": "cutoff._top_values, cutoff._absadj",
    "linalg.normalized_spectrum.negate": "cutoff.limit_scan",
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
    "combinatorics.inertia_report.seed": "plap bounds --seed",
    "tensor.eigen_correspondence.ln": "plap verify (one exact_ln for every suite)",
    "families.random_graph.prob": "families.generate (plap generate --prob)",
    "families.random_graph.seed": "families.generate (plap generate --seed)",
    "families.random_graph.signed": "families.generate (plap generate --signed)",
    "families.generate.negated": "plap generate --negate",
    "report.Report.add.values": "every plap command",
    "report.Report.add.witness": "plap bounds, plap verify interlacing",
    "cli.main.argv": "perfbench's cli workload",
}

# public functions and methods that nothing in the package calls: why each stays
UNCALLED = {
    "combinatorics.min_edge_cover": "paper quantity: the edge cover number beta",
    "cutoff.r_q_infty": "paper quantity: R_q^infty of a function",
    "cutoff.lower_bound_full": "paper quantity: the full-graph bound on one L_k",
    "cutoff.bracket": "perfbench traces and calls it",
    "cutoff.lower_bound_subgraphs": "perfbench traces it",
    "cutoff.upper_bound_subsets": "perfbench traces it",
    "cutoff.interlacing_check": "perfbench traces it",
    "graph.components": "paper hypothesis: connectedness of the Perron results",
    "graph.spanning_subgraph": "paper quantity: the graph of a lower-bound certificate",
    "graph.SignedGraph.edge_arrays": "perfbench traces it",
    "solver.closed_form_star": "paper quantity; perfbench's extremal oracle calls it",
    "solver.complete_extremes": "paper quantity; perfbench's extremal oracle calls it",
    "solver.potential_shift_check": "paper quantity: the potential shift bound",
}


def _defaulted(name, fn):
    return [f"{name}.{p}" for p, prm in inspect.signature(fn).parameters.items()
            if prm.default is not inspect.Parameter.empty]


def _public_functions():
    """module.function and module.Class.method for the public functions, and
    the public methods of the public classes, of each module."""
    out = {}
    for mod in MODULES:
        short = mod.__name__.split(".")[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{short}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr, meth in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(meth):
                        out[f"{short}.{name}.{attr}"] = meth
    return out


def _names_read_in_the_package():
    """Every name and attribute that src/plap reads, outside plap/__init__.py
    (which only re-exports)."""
    names = set()
    for path in Path(plap.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def _exports():
    """module.name for each non-module name that plap/__init__.py exports."""
    return {f"{obj.__module__.split('.')[-1]}.{name}"
            for name, obj in vars(plap).items()
            if not name.startswith("_") and not inspect.ismodule(obj)}


def test_every_public_function_has_a_caller_or_a_reason():
    read = _names_read_in_the_package()
    public = set(_public_functions()) | _exports()
    uncalled = {name for name in public if name.rsplit(".", 1)[-1] not in read}
    assert uncalled - set(UNCALLED) == set(), "call it, delete it, or say why it stays"
    assert set(UNCALLED) - uncalled == set(), "drop the entries of called or removed ones"


def _public_defaulted():
    """Defaulted parameters of the public functions and methods (dataclass
    fields excepted)."""
    return [p for name, fn in _public_functions().items() for p in _defaulted(name, fn)]


def test_every_defaulted_parameter_has_a_listed_caller():
    found = _public_defaulted()
    assert len(found) == len(set(found))
    assert set(found) - set(SETTERS) == set(), "add the caller that sets each new one"
    assert set(SETTERS) - set(found) == set(), "drop the entries of removed ones"


def test_every_eigvalsh_call_is_in_the_flushed_helper():
    # linalg._eigvals and linalg._eigh hold the one eigvalsh and the one
    # eigh call and flush their matrices; a call anywhere else would skip it
    calls = []
    for path in sorted(Path(plap.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name in ("eigh", "eigvalsh"):
                    calls.append(f"{name} in {path.stem}.{getattr(top, 'name', '<module>')}")
    assert sorted(calls) == ["eigh in linalg._eigh", "eigvalsh in linalg._eigvals"]


def test_solver_config_holds_the_cli_settings_only():
    assert {f.name for f in dataclasses.fields(solver.SolverConfig)} == {"tol", "restarts",
                                                                         "rng_seed"}
