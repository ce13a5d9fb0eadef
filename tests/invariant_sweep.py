"""Fit and check ``cli.INVARIANT_ROUNDING_COEFF``, the k of the bound
k ((eps Omega + eta)(Omega + |Delta| + w) + eta) on ``invariant_residual``.

Run by name, not collected by pytest:

    PYTHONPATH=src python tests/invariant_sweep.py [DRAWS]

Omega, |Delta| and w are log-uniform in [1e-6, 1e4]; a tenth of the draws
take w = 1, as the CLI does, a tenth a subnormal Omega (log-uniform over
the subnormals), a tenth Delta = 0, and Delta has either sign. t is uniform
over the period. The seed is fixed and no test draws from it. It prints the
largest ratio of the residual to ``cli.invariant_rounding`` and the drive and
time where it occurs, and exits 1 if that ratio exceeds k.
"""

import sys

import numpy as np

from hologate import DriveParams, invariant_residual
from hologate.cli import INVARIANT_ROUNDING_COEFF, invariant_rounding

SEED = 20261021
DRAWS = 20000


def draw(rng):
    """A drive and a time in its period."""
    omega, delta, w = 10.0 ** rng.uniform(-6.0, 4.0, 3)
    kind = rng.integers(10)
    if kind == 0:
        w = 1.0
    elif kind == 1:
        omega = 2.0 ** rng.uniform(-1074.0, -1022.0)
    elif kind == 2:
        delta = 0.0
    p = DriveParams(float(omega), float(rng.choice((-1.0, 1.0)) * delta), float(w))
    return p, float(rng.uniform()) * p.period


def main(draws: int) -> int:
    rng = np.random.default_rng(SEED)
    worst, where, zeros = 0.0, None, 0
    for _ in range(draws):
        p, t = draw(rng)
        residual = invariant_residual(p, t)
        zeros += residual == 0.0
        ratio = residual / invariant_rounding(p)
        if ratio > worst:
            worst, where = ratio, (p, t)
    print(f"{draws} draws, seed {SEED}; {zeros} residuals read exactly 0")
    print(f"largest residual / invariant_rounding: {worst:.3f} at {where[0]}, t = {where[1]!r}")
    print(f"k = {INVARIANT_ROUNDING_COEFF} covers every draw: {worst <= INVARIANT_ROUNDING_COEFF}")
    return 0 if worst <= INVARIANT_ROUNDING_COEFF else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else DRAWS))
