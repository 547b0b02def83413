"""Run configuration: one JSON file drives the whole pipeline.

Defaults reproduce the reference wave-elevation study setup (40-point
maximin design over x0 in [-3,1], u0 in [1,2], c in [0.5,3]; time grid
0..35 at dt=0.2; frequencies {1/6,1/5,1/4,1/3,1/2}; prior dof 3). Any
subset can be overridden; unknown keys are rejected so typos fail loudly.
The resolved configuration is hashed (SHA-256 over canonical JSON) and the
hash is embedded in every output file.
"""

import copy
import hashlib
import json
import math

import numpy as np

from . import __version__
from .analysis import BetaInputSpec, SweepSpec
from .basis import DEFAULT_FREQUENCIES, InputBasis, OutputBasis
from .design import DesignSpace
from .errors import ConfigError
from .kernels import KernelSpec
from .simulator import ToyWaveParams

DEFAULTS = {
    "design": {
        "n": 40,
        "bounds": [[-3.0, 1.0], [1.0, 2.0], [0.5, 3.0]],
        "names": ["x0", "u0", "c"],
        "seed": 7,
        "candidates": 100,
    },
    "basis": {"frequencies": list(DEFAULT_FREQUENCIES)},
    "kernel": {
        "exponent": 1.5,
        "jitter": 1e-8,
        "lengths": None,
        "length_bounds": None,
        "restarts": 5,
        "opt_seed": 0,
    },
    "prior": {"dof": 3.0, "sigma2": None, "scale": None, "split": 0.5},
    "time": {"t_min": 0.0, "t_max": 35.0, "dt": 0.2},
    "simulator": {
        "damping": 0.05,
        "base_period": 3.0,
        "period_per_spread": 0.8,
        "position_gain": 0.3,
        "speed_gain": 1.0,
    },
    "validate": {"level": 0.95, "reoptimize": False},
    "analysis": {
        "mc_samples": 1000,
        "seed": 7,
        "bins": 30,
        "beta": [[5.0, 2.0, -2.0, 0.0], [2.0, 5.0, 1.0, 2.0], [2.0, 5.0, 0.5, 2.5]],
        "sweeps": [
            {"dim": "x0", "lower": -2.0, "upper": 0.0, "resolution": 21,
             "fixed": [-1.0, 1.5, 1.5]},
            {"dim": "u0", "lower": 1.0, "upper": 2.0, "resolution": 21,
             "fixed": [-1.0, 1.5, 1.5]},
            {"dim": "c", "lower": 0.5, "upper": 2.5, "resolution": 21,
             "fixed": [-1.0, 1.5, 1.5]},
        ],
    },
    "paths": {
        "design": "design.csv",
        "training": "training.csv",
        "model": "model.json",
        "reports": "reports",
    },
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


# integer keys with their smallest allowed value, and keys that take any
# finite number; checked before anything compares or computes with them
_INT_KEYS = (("design.n", 2), ("design.candidates", 1), ("design.seed", 0),
             ("kernel.restarts", 1), ("kernel.opt_seed", 0), ("analysis.seed", 0),
             ("analysis.mc_samples", 1), ("analysis.bins", 1))
_NUMBER_KEYS = ("time.t_min", "time.t_max", "time.dt", "kernel.jitter", "prior.dof",
                "prior.split", "validate.level")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_length_bounds(bounds, dims):
    """One [lower, upper] pair per dimension, finite, with 0 < lower < upper."""
    if not isinstance(bounds, (list, tuple)) or len(bounds) != len(dims):
        raise ConfigError(
            f"kernel.length_bounds needs {len(dims)} [lower, upper] pairs, one per "
            f"dimension ({', '.join(dims)}), got {bounds!r}"
        )
    for dim, pair in zip(dims, bounds):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(_is_number(v) and math.isfinite(v) for v in pair)):
            raise ConfigError(
                f"kernel.length_bounds for dimension {dim}: need two finite "
                f"numbers, got {pair!r}"
            )
        if not 0 < pair[0] < pair[1]:
            raise ConfigError(
                f"kernel.length_bounds for dimension {dim}: need 0 < lower < upper, "
                f"got {list(pair)}"
            )


class RunConfig:
    """Resolved configuration with typed accessors for the domain objects."""

    def __init__(self, raw: dict | None = None):
        self.raw = _merge(DEFAULTS, raw or {})
        self._validate()

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls(raw)

    def _validate(self):
        for key, minimum in _INT_KEYS:
            section, name = key.split(".")
            value = self.raw[section][name]
            if not (_is_number(value) and isinstance(value, int) and value >= minimum):
                raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
        for key in _NUMBER_KEYS:
            section, name = key.split(".")
            value = self.raw[section][name]
            if not (_is_number(value) and math.isfinite(value)):
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
        d = self.raw["design"]
        names = d["names"]
        if len(names) != len(d["bounds"]):
            raise ConfigError("design.names and design.bounds lengths differ")
        for name, (lo, hi) in zip(names, d["bounds"]):
            if not lo < hi:
                raise ConfigError(
                    f"design bounds for dimension {name}: lower {lo} must be "
                    f"strictly below upper {hi}"
                )
        t = self.raw["time"]
        if not t["t_min"] < t["t_max"] or t["dt"] <= 0:
            raise ConfigError("time section needs t_min < t_max and dt > 0")
        k = len(names)
        if self.raw["kernel"]["lengths"] is not None:
            if len(self.raw["kernel"]["lengths"]) != k + 1:
                raise ConfigError(
                    f"kernel.lengths needs {k + 1} entries (inputs then time)"
                )
        if self.raw["kernel"]["length_bounds"] is not None:
            _check_length_bounds(self.raw["kernel"]["length_bounds"], [*names, "time"])
        beta = self.raw["analysis"]["beta"]
        if len(beta) != k:
            raise ConfigError(
                f"analysis.beta needs one [alpha, beta, lower, upper] row per "
                f"input dimension ({k}), got {len(beta)}"
            )
        prior = self.raw["prior"]
        if (prior["sigma2"] is None) != (prior["scale"] is None):
            raise ConfigError("prior.sigma2 and prior.scale must be set together")
        for i, sweep in enumerate(self.raw["analysis"]["sweeps"]):
            for required in ("dim", "lower", "upper", "fixed"):
                if required not in sweep:
                    raise ConfigError(f"analysis.sweeps[{i}] is missing {required!r}")
            self._sweep_dim(sweep)
            if len(sweep["fixed"]) != k:
                raise ConfigError(
                    f"analysis.sweeps[{i}].fixed needs {k} values, got "
                    f"{len(sweep['fixed'])}"
                )
        # the domain objects check their own values; build each once so a
        # bad value fails at load, named by its key, not in a later command
        exponent = self.raw["kernel"]["exponent"]
        for key, build in (("kernel.exponent", lambda: KernelSpec((1.0,), 1.0, exponent)),
                           ("kernel.lengths", self.kernel_spec),
                           ("basis.frequencies", self.output_basis),
                           ("simulator", self.toy_params),
                           ("analysis.beta", self.beta_spec),
                           ("analysis.sweeps", self.sweep_specs)):
            try:
                build()
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{key}: {exc}") from None

    def _sweep_dim(self, sweep: dict) -> int:
        dim = sweep.get("dim")
        names = self.raw["design"]["names"]
        if isinstance(dim, str):
            if dim not in names:
                raise ConfigError(f"sweep dimension {dim!r} is not a design dimension")
            return names.index(dim)
        if isinstance(dim, int) and 0 <= dim < len(names):
            return dim
        raise ConfigError(f"sweep dim must be a dimension name or index, got {dim!r}")

    # -- typed accessors -------------------------------------------------

    def space(self) -> DesignSpace:
        d = self.raw["design"]
        return DesignSpace(bounds=[tuple(b) for b in d["bounds"]], names=tuple(d["names"]))

    def time_grid(self) -> np.ndarray:
        t = self.raw["time"]
        q = int(round((t["t_max"] - t["t_min"]) / t["dt"])) + 1
        return np.round(t["t_min"] + t["dt"] * np.arange(q), 12)

    def input_basis(self) -> InputBasis:
        return InputBasis(self.space())

    def output_basis(self) -> OutputBasis:
        return OutputBasis(tuple(self.raw["basis"]["frequencies"]))

    def kernel_spec(self) -> KernelSpec | None:
        lengths = self.raw["kernel"]["lengths"]
        if lengths is None:
            return None
        return KernelSpec(
            input_lengths=tuple(lengths[:-1]),
            output_length=lengths[-1],
            exponent=self.raw["kernel"]["exponent"],
        )

    def toy_params(self) -> ToyWaveParams:
        return ToyWaveParams(**self.raw["simulator"])

    def beta_spec(self) -> BetaInputSpec:
        return BetaInputSpec(tuple(tuple(row) for row in self.raw["analysis"]["beta"]))

    def sweep_specs(self) -> list:
        specs = []
        for sweep in self.raw["analysis"]["sweeps"]:
            specs.append(
                SweepSpec(
                    dim=self._sweep_dim(sweep),
                    lower=float(sweep["lower"]),
                    upper=float(sweep["upper"]),
                    fixed=tuple(float(v) for v in sweep["fixed"]),
                    resolution=int(sweep.get("resolution", 21)),
                )
            )
        return specs

    def hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def meta(self, seed=None) -> dict:
        out = {"config_hash": self.hash(), "version": __version__}
        if seed is not None:
            out["seed"] = seed
        return out
