"""Record and compare the bits of two length searches.

Run by hand, from the repository root, with ``src`` on the path:

    PYTHONPATH=src python tests/make_search_bits.py
    PYTHONPATH=src python tests/make_search_bits.py --check [--fallback]
    PYTHONPATH=src python tests/make_search_bits.py --paths

BLAS is pinned to one thread by the variables the CLI sets, unless they
are set already; under that pin the search runs its starts in worker
processes, one per usable CPU.

The cases are the default config's search, and one at n=8 (design seed 0,
10 candidates, exponent 2.0, 3 restarts) whose start 0 stops unconverged.
Per case the facts are the search's log-likelihood, tau_hat and lengths
as float hex, the per-start records, the evaluation count and a sha256
over the trace rows in hex.

The first form rewrites ``tests/data/search_bits.json`` through
``scipy.optimize.minimize``. ``--check`` reruns both cases and exits 1
naming each that differs from the recording; ``--fallback`` runs them
through ``minimize`` instead of the directly driven L-BFGS-B routine. The
recorded bits hold only where they were recorded: they move with the
thread count, the CPU's BLAS kernels and the numpy and scipy builds (the
file names the versions). ``--paths`` needs no recording: it runs both
cases through the direct routine, again with this process pinned to one
CPU, which runs every start in one process, and then through ``minimize``,
all in one process, and exits 1 naming each run whose facts differ from
the first, which holds on any host. Where every search runs in one
process anyway, it says so.
"""

import argparse
import hashlib
import json
import os
import sys

# as the CLI pins them, before the first import that loads numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy
import scipy

import opemu
from opemu import likelihood
from opemu.config import RunConfig

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "search_bits.json")

# each case's settings over the default config's
CASES = {"default": {},
         "unconverged": {"n": 8, "seed": 0, "candidates": 10, "exponent": 2.0, "restarts": 3}}


def _row_hex(row) -> str:
    return ",".join(str(v) if isinstance(v, int) else float(v).hex() for v in row)


def search(case: str) -> dict:
    """The recorded facts of one case's search, run as the library runs it."""
    cfg = RunConfig()
    raw = cfg.raw
    d, k = raw["design"], raw["kernel"]
    c = {"n": d["n"], "seed": d["seed"], "candidates": d["candidates"],
         "exponent": k["exponent"], "restarts": k["restarts"], **CASES[case]}
    design = opemu.maximin_lhd(c["n"], cfg.space(), c["seed"], c["candidates"])
    train = opemu.toy_training_set(design, cfg.time_grid(), cfg.toy_params())
    ib, ob = cfg.input_basis(), cfg.output_basis()
    est = opemu.estimate_hyperparams(train, ib, ob, raw["prior"]["dof"], raw["prior"]["split"])
    state = opemu.optimize_correlation_lengths(
        train, ib, ob, est.sigma2, restarts=c["restarts"], seed=k["opt_seed"],
        exponent=c["exponent"], jitter=k["jitter"], collect_trace=True)
    rows = "\n".join(map(_row_hex, state.trace))
    return {"loglik": state.value.hex(), "tau": state.tau.hex(),
            "lengths": [float(v).hex() for v in state.input_lengths + (state.output_length,)],
            "starts": state.starts, "evaluations": len(state.trace),
            "trace_sha256": hashlib.sha256(rows.encode()).hexdigest()}


def _at_one_cpu(case: str) -> dict:
    """:func:`search` with this process pinned to one of its usable CPUs."""
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    try:
        return search(case)
    finally:
        os.sched_setaffinity(0, usable)


def _report(what: str, cases, bad) -> int:
    print(f"{len(cases)} searches {what}, {len(bad)} differ")
    for case in bad:
        print("  differs:", case)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with the recorded bits instead of rewriting them")
    mode.add_argument("--paths", action="store_true",
                      help="compare the direct routine at every CPU and at one with "
                           "minimize, without the recording")
    parser.add_argument("--fallback", action="store_true",
                        help="search through scipy.optimize.minimize")
    args = parser.parse_args(argv)
    if args.paths:
        direct = {case: search(case) for case in CASES}
        bad = [f"{case} at one CPU" for case in CASES if _at_one_cpu(case) != direct[case]]
        likelihood._setulb = lambda: None
        bad += [f"{case} through minimize" for case in CASES if search(case) != direct[case]]
        status = _report("compared across the two paths and at one CPU", CASES, bad)
        if len(os.sched_getaffinity(0)) < 2:
            print("  only one CPU is usable: every search ran in one process")
        elif likelihood._search_workers(2) < 2:
            print("  BLAS is not pinned to one thread: every search ran in one process")
        return status
    if args.fallback or not args.check:
        likelihood._setulb = lambda: None
    got = {case: search(case) for case in CASES}
    if args.check:
        with open(OUT, encoding="utf-8") as fh:
            recorded = json.load(fh)["cases"]
        return _report("checked", CASES, [case for case in CASES if got[case] != recorded[case]])
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"generator": "tests/make_search_bits.py", "versions": versions,
                   "cases": got}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
