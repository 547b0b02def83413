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
import re

import numpy as np

from . import __version__
from .analysis import BetaInputSpec, SweepSpec, check_sweep
from .basis import DEFAULT_FREQUENCIES, InputBasis, OutputBasis
from .design import DesignSpace
from .errors import ConfigError
from .kernels import KernelSpec
from .simulator import DEFAULT_TOY, ToyWaveParams

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
        "restarts": 5,
        "opt_seed": 0,
    },
    "prior": {"dof": 3.0, "sigma2": None, "scale": None, "split": 0.5},
    "time": {"t_min": 0.0, "t_max": 35.0, "dt": 0.2},
    "validate": {"level": 0.95},
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


# the keys of one analysis.sweeps object, each with a value of its kind;
# all but resolution are required
_SWEEP = {"dim": "x0", "lower": 0.0, "upper": 1.0, "resolution": 21, "fixed": []}

# the smallest value of each integer key, and the kind of each number whose
# default is null; kernel.lengths, a list with one entry per dimension,
# takes its kind check with its count in _validate
_KINDS = {"design.n": 2, "design.candidates": 1, "design.seed": 0, "kernel.restarts": 1,
          "kernel.opt_seed": 0, "analysis.mc_samples": 1, "analysis.seed": 0,
          "analysis.bins": 1, "analysis.sweeps.resolution": 2,
          "prior.sigma2": float, "prior.scale": float}
_KIND_NAMES = {str: "a string", list: "a list"}

# value ranges of the scalars that no domain object checks, given whether the
# prior is moment-matched (no prior.sigma2: fit matches it to the training data)
_RANGES = (
    ("kernel.jitter", ">= 0", lambda v, matched: v >= 0),
    ("validate.level", "strictly between 0 and 1", lambda v, matched: 0 < v < 1),
    ("prior.sigma2", "> 0", lambda v, matched: v is None or v > 0),
    ("prior.scale", "> 0", lambda v, matched: v is None or v > 0),
    ("prior.dof", "> 2 for moment matching, and > 0 with prior.sigma2 set",
     lambda v, matched: v > (2 if matched else 0)),
    ("prior.split", "strictly between 0 and 1 for moment matching",
     lambda v, matched: not matched or 0 < v < 1),
)


def _check_kind(where: str, value, default):
    """A set key must have the JSON kind of its default (see _KINDS)."""
    rule = _KINDS.get(re.sub(r"\[\d+\]", "", where))
    if default is None and (value is None or rule is None):
        return
    kind = rule if isinstance(rule, type) else type(default)
    if kind is int:
        ok, want = type(value) is int and value >= rule, f"an integer >= {rule}"
    elif kind is float:
        ok, want = type(value) in (int, float) and math.isfinite(value), "a finite number"
    else:
        ok, want = isinstance(value, kind), _KIND_NAMES[kind]
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {value!r}")


def _check_numbers(where: str, values):
    """Each entry of a number list must be a finite number (see _check_kind)."""
    for j, value in enumerate(values):
        _check_kind(f"{where}[{j}]", value, 1.0)


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
            _check_kind(where, value, base[key])
            out[key] = copy.deepcopy(value)
    return out


def _build(key: str, build):
    """build(), with a domain object's complaint turned into a ConfigError naming key."""
    try:
        return build()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the config file ({exc.strerror})")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        return cls(raw)

    def _validate(self):
        # the names first, so that every later message can name a dimension
        names = self.raw["design"]["names"]
        _build("design.names", lambda: DesignSpace([(0.0, 1.0)] * len(names), names))
        k = len(names)
        t = self.raw["time"]
        if not t["t_min"] < t["t_max"] or t["dt"] <= 0:
            raise ConfigError("time section needs t_min < t_max and dt > 0")
        if t["t_min"] < 0:
            raise ConfigError(f"time.t_min must be >= 0 (the toy simulator's times "
                              f"start at 0), got {t['t_min']}")
        kernel = self.raw["kernel"]
        lengths = kernel["lengths"]
        if lengths is not None and not (isinstance(lengths, list) and len(lengths) == k + 1):
            raise ConfigError(f"kernel.lengths needs a list of {k + 1} entries, one per "
                              f"dimension ({', '.join(names)}, time), got {lengths!r}")
        _check_numbers("kernel.lengths", lengths or ())
        _check_numbers("basis.frequencies", self.raw["basis"]["frequencies"])
        beta = self.raw["analysis"]["beta"]
        if len(beta) != k:
            raise ConfigError(
                f"analysis.beta needs one [alpha, beta, lower, upper] row per "
                f"input dimension ({k}), got {len(beta)}"
            )
        for i, row in enumerate(beta):
            _check_kind(f"analysis.beta[{i}]", row, [])
            _check_numbers(f"analysis.beta[{i}]", row)
        prior = self.raw["prior"]
        if (prior["sigma2"] is None) != (prior["scale"] is None):
            raise ConfigError("prior.sigma2 and prior.scale must be set together")
        for key, want, ok in _RANGES:
            section, name = key.split(".")
            value = self.raw[section][name]
            if not ok(value, prior["sigma2"] is None):
                raise ConfigError(f"{key} must be {want}, got {value!r}")
        for i, sweep in enumerate(self.raw["analysis"]["sweeps"]):
            where = f"analysis.sweeps[{i}]"
            if not isinstance(sweep, dict):
                raise ConfigError(f"{where} must be an object, got {sweep!r}")
            _merge(_SWEEP, sweep, where)
            for required in ("dim", "lower", "upper", "fixed"):
                if required not in sweep:
                    raise ConfigError(f"{where} is missing {required!r}")
            _check_numbers(f"{where}.fixed", sweep["fixed"])
            if sweep["dim"] not in names:
                raise ConfigError(f"{where}.dim {sweep['dim']!r} is not a design dimension")
        # the domain objects check their own values; build each once so a
        # bad value fails at load, named by its key, not in a later command
        exponent = kernel["exponent"]
        for key, build in (("design.bounds", self.space),
                           ("kernel.exponent", lambda: KernelSpec((1.0,), 1.0, exponent)),
                           ("kernel.lengths", self.kernel_spec),
                           ("basis.frequencies", self.output_basis),
                           ("analysis.beta", self.beta_spec),
                           ("analysis.sweeps", self.sweep_specs)):
            _build(key, build)
        space, specs = self.space(), self.sweep_specs()
        for i, spec in enumerate(specs):
            _build(f"analysis.sweeps[{i}]", lambda: check_sweep(spec, space))
            if any(other.dim == spec.dim for other in specs[:i]):
                name = space.names[spec.dim]
                raise ConfigError(f"analysis.sweeps[{i}] sweeps {name} again; each sweep "
                                  f"writes sweep_<dim>.csv")

    # -- typed accessors -------------------------------------------------

    def space(self) -> DesignSpace:
        d = self.raw["design"]
        return DesignSpace(bounds=d["bounds"], names=d["names"])

    def time_grid(self) -> np.ndarray:
        """t_min + i*dt up to t_max, never past it; the 1e-9 slack on the step
        count absorbs float noise (35 / 0.2 = 174.99999999999997)."""
        t = self.raw["time"]
        q = math.floor((t["t_max"] - t["t_min"]) / t["dt"] + 1e-9) + 1
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
        """The toy wave's constants, which no config key sets."""
        return DEFAULT_TOY

    def beta_spec(self) -> BetaInputSpec:
        return BetaInputSpec(tuple(tuple(row) for row in self.raw["analysis"]["beta"]))

    def sweep_specs(self) -> list:
        names = self.raw["design"]["names"]
        return [
            SweepSpec(
                dim=names.index(sweep["dim"]),
                lower=float(sweep["lower"]),
                upper=float(sweep["upper"]),
                fixed=tuple(float(v) for v in sweep["fixed"]),
                resolution=sweep.get("resolution", _SWEEP["resolution"]),
            )
            for sweep in self.raw["analysis"]["sweeps"]
        ]

    def hash(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def meta(self, stream: str) -> dict:
        """An artifact's hash, version and the seed of ``stream`` (design, analysis)."""
        return {"config_hash": self.hash(), "version": __version__,
                "seed": self.raw[stream]["seed"]}
