"""Outer-product emulation toolkit for expensive simulators.

Builds fast Student-t surrogates of multi-output computer models from a
small number of runs: space-filling designs, separable regression bases
and residual kernels, conjugate Bayesian fitting, marginal-likelihood
hyperparameter optimization, leave-one-out validation, and emulator-driven
sensitivity and uncertainty analyses.
"""

__version__ = "0.1.0"

from .design import Design, DesignSpace, lhd, maximin_lhd, regular_grid
from .basis import InputBasis, OutputBasis, RegressorMatrixPair, regressor_matrices
from .kernels import KernelSpec, kernel_matrices, input_correlation, output_correlation
from .emulator import (
    NigPrior,
    OpeModel,
    PredictiveBatch,
    PredictiveSeries,
    TrainingSet,
    credible_interval,
    fit,
    load_model,
    predict,
    save_model,
)
from .likelihood import (
    HyperparamEstimate,
    MarginalLikelihoodState,
    estimate_hyperparams,
    log_marginal_likelihood,
    log_marginal_likelihood_gradient,
    optimize_correlation_lengths,
)
from .validation import DiagnosticsReport, LooDiagnostic, loo, mcil, med, rmse
from .analysis import (
    BetaInputSpec,
    SweepSpec,
    max_elevation,
    sample_beta,
    sensitivity_sweep,
    uq_monte_carlo,
)
from .simulator import (
    DimensionalScaling,
    ToyWaveParams,
    dimensionalize,
    ingest_runs,
    nondimensionalize,
    toy_simulate,
    toy_training_set,
    write_training_csv,
)

__all__ = [
    "__version__",
    "Design",
    "DesignSpace",
    "lhd",
    "maximin_lhd",
    "regular_grid",
    "InputBasis",
    "OutputBasis",
    "RegressorMatrixPair",
    "regressor_matrices",
    "KernelSpec",
    "kernel_matrices",
    "input_correlation",
    "output_correlation",
    "NigPrior",
    "OpeModel",
    "PredictiveBatch",
    "PredictiveSeries",
    "TrainingSet",
    "credible_interval",
    "fit",
    "predict",
    "save_model",
    "load_model",
    "HyperparamEstimate",
    "MarginalLikelihoodState",
    "estimate_hyperparams",
    "log_marginal_likelihood",
    "log_marginal_likelihood_gradient",
    "optimize_correlation_lengths",
    "DiagnosticsReport",
    "LooDiagnostic",
    "loo",
    "mcil",
    "med",
    "rmse",
    "BetaInputSpec",
    "SweepSpec",
    "max_elevation",
    "sample_beta",
    "sensitivity_sweep",
    "uq_monte_carlo",
    "DimensionalScaling",
    "ToyWaveParams",
    "dimensionalize",
    "ingest_runs",
    "nondimensionalize",
    "toy_simulate",
    "toy_training_set",
    "write_training_csv",
]
