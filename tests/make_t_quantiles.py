"""Record 40-digit Student-t quantiles for ``tests/test_emulator.py``.

Run by hand, from the repository root:

    python tests/make_t_quantiles.py

It needs mpmath (installed with sympy; opemu does not depend on it) and
rewrites ``tests/data/t_quantiles.json``. Each case is a dof and a
credible level; the quantile is at the float p = 0.5 * (1 + level) that
``credible_interval`` passes on: the root t of the two-sided tail
I_x(dof/2, 1/2) = 2 (1 - p), x = dof / (dof + t^2), found at 60 digits by
the secant method from ``scipy.special.stdtrit``'s value.
"""

import json
import os

import mpmath as mp
from scipy.special import stdtrit

CASES = [(1.0, 0.95), (2.5, 0.5), (3.0, 0.999), (5.0, 0.9), (30.0, 0.99), (100.0, 0.95),
         (1000.0, 0.999), (2999.0, 0.95), (3000.0, 0.99), (6867.0, 0.95), (7043.0, 0.5),
         (7043.0, 0.999), (1e5, 0.95)]

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "t_quantiles.json")


def t_quantile(dof: float, level: float) -> mp.mpf:
    p = 0.5 * (1.0 + level)  # the float credible_interval passes on
    nu = mp.mpf(dof)
    alpha = 2 * (1 - mp.mpf(p))
    return mp.findroot(
        lambda t: mp.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) - alpha,
        mp.mpf(float(stdtrit(dof, p))))


def main():
    mp.mp.dps = 60
    rows = [{"dof": dof, "level": level, "quantile": mp.nstr(t_quantile(dof, level), 40)}
            for dof, level in CASES]
    with open(OUT, "w") as fh:
        json.dump({"generator": "tests/make_t_quantiles.py", "mpmath": mp.__version__,
                   "digits": 40, "cases": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
