"""In-memory spans around calls into opemu's layers.

The tracer rebinds each layer's public functions (and the few public
methods other layers call) with a wrapper that records a span: name,
start, end, parent span and pass id. A module-level function is rebound
in every opemu module that imported it, so cross-layer calls such as
``loo -> fit`` or ``uq_monte_carlo -> sample_beta`` are seen too. Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` restores the originals,
so a pass run without the tracer installed pays no tracing cost.

Spans live in a list and are written out (as JSON) only when asked, at the
end of a process. ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so
spans recorded by CLI child processes line up with the parent's.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute) per traced callable; "Class.method" names a method.
TARGETS = {
    "design": ("maximin_lhd", "lhd", "save_design_csv", "load_design_csv",
               "Design.min_distance"),
    "simulator": ("toy_training_set", "write_training_csv", "ingest_runs"),
    "basis": ("regressor_matrices", "InputBasis.evaluate", "InputBasis.evaluate_many",
              "OutputBasis.evaluate_many"),
    "kernels": ("kernel_matrices", "input_correlation_matrix",
                "output_correlation_matrix"),
    "likelihood": ("estimate_hyperparams", "optimize_correlation_lengths",
                   "log_marginal_likelihood", "log_marginal_likelihood_gradient"),
    "emulator": ("fit", "OpeModel.predict", "save_model", "load_model",
                 "credible_interval"),
    "validation": ("loo", "save_fold_csv", "save_report_json"),
    "analysis": ("sensitivity_sweep", "uq_monte_carlo", "sample_beta", "save_sweep_csv",
                 "save_quantiles_csv", "save_quantiles_json", "save_histogram_csv"),
    "config": ("RunConfig.load",),
    "ioutil": ("atomic_write_text", "read_table"),
}

# config and ioutil belong to the cli layer; spans the benchmark opens
# itself (pass roots, CLI subprocesses) name their own layer.
LAYER_OF_MODULE = {"config": "cli", "ioutil": "cli"}
LAYERS = ("design", "simulator", "basis", "kernels", "likelihood", "emulator",
          "validation", "analysis", "cli", "bench")

# span fields
NAME, START, END, PARENT, PASS, ATTRS = range(6)


def layer_of(name: str) -> str:
    module = name.split(".", 1)[0]
    return LAYER_OF_MODULE.get(module, module)


class Tracer:
    """Records spans; single-threaded (every workload runs with threads=1)."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._saved = []

    # -- recording -------------------------------------------------------

    def open(self, name, attrs=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, attrs])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def add(self, name, start, end, attrs=None) -> int:
        """Record a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.pass_id, attrs])
        return len(self.spans) - 1

    def merge(self, spans, parent: int) -> None:
        """Adopt spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _, attrs in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.pass_id, attrs])

    # -- rebinding -------------------------------------------------------

    def _wrap(self, name, func):
        tracer = self

        if name == "emulator.OpeModel.predict":
            @functools.wraps(func)
            def predict(model, r, times=None):
                # a training-grid predict is cold until the model caches its
                # time-side factors (OpeModel._grid_cache)
                cached = getattr(model, "_grid_cache", True) is not None
                attrs = {"cold": times is None and not cached, "grid": times is None}
                idx = tracer.open(name, attrs)
                try:
                    series = func(model, r, times)
                    attrs["clamped"] = series.clamped
                    return series
                finally:
                    tracer.close(idx)
            return predict

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for key, m in sys.modules.items()
                   if key.startswith("opemu") and m is not None]
        for module_name, attrs in TARGETS.items():
            module = importlib.import_module(f"opemu.{module_name}")
            for attr in attrs:
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(name, original.__func__))
                    else:
                        wrapped = self._wrap(name, original)
                    self._rebind(owner, meth, original, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._rebind(mod, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans, root: int) -> dict:
    """Seconds of self time per layer inside span ``root`` and its subtree.

    A span's self time is its duration minus the time its children cover,
    so the layers' self times add up to the root span's duration.
    """
    child_time = [0.0] * len(spans)
    inside = [False] * len(spans)
    inside[root] = True
    # parents always precede their children in the list
    for i in range(root + 1, len(spans)):
        par = spans[i][PARENT]
        if par >= 0 and inside[par]:
            inside[i] = True
            child_time[par] += spans[i][END] - spans[i][START]
    out = {layer: 0.0 for layer in LAYERS}
    for i in range(root, len(spans)):
        if inside[i]:
            s = spans[i]
            out[layer_of(s[NAME])] += (s[END] - s[START]) - child_time[i]
    return out
