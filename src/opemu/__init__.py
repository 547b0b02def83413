"""Outer-product emulation toolkit for expensive simulators.

Builds fast Student-t surrogates of multi-output computer models from a
small number of runs: space-filling designs, separable regression bases
and residual kernels, conjugate Bayesian fitting, marginal-likelihood
hyperparameter optimization, leave-one-out validation, and emulator-driven
sensitivity and uncertainty analyses.
"""

__version__ = "0.1.0"

import importlib

# Public names are re-exported lazily (PEP 562): `import opemu` loads
# neither numpy nor scipy, so `python -m opemu.cli` can set its thread
# variables before numpy starts a BLAS thread pool.
_EXPORTS = {
    "design": ("Design", "DesignSpace", "lhd", "maximin_lhd"),
    "basis": ("InputBasis", "OutputBasis", "regressor_matrices"),
    "kernels": ("KernelSpec", "kernel_matrices"),
    "emulator": ("NigPrior", "OpeModel", "Predictive", "TrainingSet", "credible_interval",
                 "fit", "load_model", "save_model"),
    "likelihood": ("HyperparamEstimate", "MarginalLikelihoodState", "estimate_hyperparams",
                   "log_marginal_likelihood", "log_marginal_likelihood_gradient",
                   "optimize_correlation_lengths"),
    "validation": ("DiagnosticsReport", "LooDiagnostic", "loo", "med", "rmse"),
    "analysis": ("BetaInputSpec", "SweepSpec", "max_elevation", "mcil", "sample_beta",
                 "sensitivity_sweep", "uq_monte_carlo"),
    "simulator": ("ToyWaveParams", "ingest_runs", "toy_simulate", "toy_training_set",
                  "write_training_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
