"""Kernel SVM with the zero-one hinge loss, trained by ADMM.

The public surface: kernels and Gram assembly (:mod:`zeroone.kernels`),
closed-form proximal operators (:mod:`zeroone.prox`), the ADMM solver
(:mod:`zeroone.admm`), first-order optimality certificates
(:mod:`zeroone.stationarity`), the deployable classifier
(:mod:`zeroone.model`), dataset utilities (:mod:`zeroone.data`), hinge and
squared-hinge baselines on the same solver (:mod:`zeroone.baselines`), and
the ``zeroone`` command line (:mod:`zeroone.cli`).
"""

from .admm import (AdmmState, Hyperparams, SolveTrace, TraceRecord, solve,
                   update_c, update_u, zeros_state)
from .baselines import objective, solve_baseline
from .data import (Dataset, StandardizeStats, flip_labels, format_csv,
                   format_libsvm, gen_double_circles, gen_double_moons,
                   load_dataset, parse_csv, parse_libsvm, split, standardize)
from .errors import (ConfigError, InputError, NumericalError, ParseError,
                     ZeroOneError)
from .kernels import (FAMILIES, GramMatrix, KernelSpec, cross_matrix,
                      data_fingerprint, eval_kernel, gaussian_spec,
                      gram_matrix)
from .model import (TrainedModel, accuracy, decision_function, from_json,
                    from_solution, load_model, predict, save_model,
                    support_vectors, support_vectors_dual, to_json)
from .prox import LossKind, ProxParams, prox_hinge, prox_l01, prox_sqhinge
from .stationarity import (StationarityReport, check_kkt,
                           check_prox_stationary, construct_gamma,
                           equivalence_roundtrip, subdiff_l01_contains)

__version__ = "0.1.0"

__all__ = [
    "AdmmState", "Hyperparams", "SolveTrace", "TraceRecord", "solve",
    "update_c", "update_u", "zeros_state",
    "LossKind", "objective", "solve_baseline",
    "Dataset", "StandardizeStats", "flip_labels", "format_csv",
    "format_libsvm", "gen_double_circles", "gen_double_moons",
    "load_dataset", "parse_csv", "parse_libsvm", "split", "standardize",
    "ConfigError", "InputError", "NumericalError", "ParseError",
    "ZeroOneError",
    "FAMILIES", "GramMatrix", "KernelSpec", "cross_matrix",
    "data_fingerprint", "eval_kernel", "gaussian_spec", "gram_matrix",
    "TrainedModel", "accuracy", "decision_function", "from_json",
    "from_solution", "load_model", "predict", "save_model",
    "support_vectors", "support_vectors_dual", "to_json",
    "ProxParams", "prox_hinge", "prox_l01", "prox_sqhinge",
    "StationarityReport", "check_kkt", "check_prox_stationary",
    "construct_gamma", "equivalence_roundtrip", "subdiff_l01_contains",
    "__version__",
]
