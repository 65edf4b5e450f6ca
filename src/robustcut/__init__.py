"""Robust and distributionally robust max-cut via semidefinite relaxation
and randomized hyperplane rounding, with brute-force certification at desk
scale."""

import os as _os

# Honor the thread cap before numpy (and its BLAS) come up; harmless no-op
# if numpy was already imported by the embedding process.
_cap = _os.environ.get("ROBUSTCUT_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os

from .instances import (ALLEQUAL, DICUT, MAXCUT, DomainError, Instance,
                        ParseError, allequal_instance, allequal_value,
                        cut_value, dicut_value, graph_instance,
                        instance_from_dict, instance_to_dict, instance_to_json,
                        load_instance, parse_instance, term_coefficients)
from .numerics import (FeasibleTableau, InfeasibleError, LpResult, NumericError,
                       UnboundedError, simplex_solve, sqrt_psd)
from .oracle import (OracleResult, SandwichReport, brute_force_robust,
                     certify_sandwich)
from .robust import (SaddleSolution, SolverConfig, dual_reformulated_value,
                     ellipsoid_reformulated_value, inner_worst, solve_robust)
from .rounding import (ALLEQUAL_COEF, APPROX_RATIO_DICUT, APPROX_RATIO_MAXCUT,
                       CROSSOVER_GAMMA, allequal_round, alpha_ratio,
                       dicut_biased_ratio_search, dicut_triple_prob,
                       expected_allequal_exact, expected_rounded_value,
                       expected_terms, hyperplane_round,
                       large_cut_ratio, negative_weight_bound, round_cut,
                       rounding_draws, sign_round_psd)
from .sdp import (SolveReport, default_rank, relaxed_value, solve_elliptope_max,
                  term_gram_coefficients)
from .uncertainty import (UncertaintySpec, box_spec, ellipsoidal_spec,
                          load_spec, parse_spec, polyhedral_spec, singleton_spec,
                          spec_from_dict, spec_to_dict, spec_to_json,
                          validate_set, wasserstein_spec, worst_case_mean,
                          worst_case_weights)

__version__ = "0.1.0"

__all__ = [
    "ALLEQUAL", "ALLEQUAL_COEF", "APPROX_RATIO_DICUT", "APPROX_RATIO_MAXCUT",
    "CROSSOVER_GAMMA", "DICUT", "DomainError", "FeasibleTableau",
    "InfeasibleError", "Instance", "LpResult", "MAXCUT", "NumericError",
    "OracleResult", "ParseError", "SaddleSolution", "SandwichReport",
    "SolveReport", "SolverConfig", "UnboundedError", "UncertaintySpec",
    "allequal_instance", "allequal_round", "allequal_value", "alpha_ratio",
    "box_spec",
    "brute_force_robust", "certify_sandwich", "cut_value", "default_rank",
    "dicut_biased_ratio_search", "dicut_triple_prob", "dicut_value",
    "dual_reformulated_value", "ellipsoid_reformulated_value",
    "ellipsoidal_spec", "expected_allequal_exact", "expected_rounded_value",
    "expected_terms", "graph_instance",
    "hyperplane_round", "inner_worst", "instance_from_dict", "instance_to_dict",
    "instance_to_json", "large_cut_ratio", "load_instance", "load_spec",
    "negative_weight_bound", "parse_instance", "parse_spec",
    "polyhedral_spec", "relaxed_value", "round_cut", "rounding_draws",
    "sign_round_psd", "simplex_solve", "singleton_spec",
    "solve_elliptope_max", "solve_robust", "spec_from_dict", "spec_to_dict",
    "spec_to_json", "sqrt_psd", "term_coefficients", "term_gram_coefficients",
    "validate_set", "wasserstein_spec", "worst_case_mean",
    "worst_case_weights"]
