"""Signed-graph p-Laplacian spectral toolkit.

Data model and switching (graph), dense spectra (linalg), extremal
p-Laplacian eigenpairs and closed forms (solver), cutoff adjacency
eigenvalues and brackets (cutoff), independence/cover bounds
(combinatorics), the even-p tensor form (tensor), graph families
(families), and a CLI (cli).
"""

__version__ = "0.1.0"

from .graph import (BalanceClass, Edge, GraphError, SignedGraph,
                    classify_balance, components, induced_subgraph, negate,
                    spanning_subgraph, structural_constants, switch, validate)
from .linalg import EigenDecomposition, adjacency, normalized_spectrum, sign_counts
from .solver import (MonotonicityReport, PEigenPair, ShiftReport, SolverConfig,
                     SolverError, apply_plap, closed_form_complete,
                     closed_form_star, complete_extremes,
                     monotonicity_functionals, potential_shift_check, rayleigh,
                     residual, solve_largest, solve_largest_grid, solve_smallest)
from .cutoff import (CutoffBracket, LimitScanResult, bracket, brackets, exact_ln,
                     interlacing_check, interlacing_checks, limit_scan, lower_bound_full,
                     lower_bound_subgraphs, r_q_infty, upper_bound_subsets)
from .combinatorics import (EdgeCover, IndependentSet, InertiaReport, Matching,
                            cvetkovic_bound, inertia_report, max_independent_set,
                            max_matching, min_edge_cover)
from .tensor import (CorrespondenceReport, PLapTensor, apply_tensor, build_tensor,
                     eigen_correspondence)
from .families import generate
