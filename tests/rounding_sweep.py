"""Fit and check ``conftest.rounding_bound``, the bound on every comparison
of two roundings of the same midpoint product.

Run by name, not collected by pytest:

    PYTHONPATH=src python tests/rounding_sweep.py [DRAWS]

The draws cover the drive box of the tests (Omega in [0, 2], Delta in
[-1, 2], w in [0.5, 2], 1-3000 steps, a fraction 0.01-1 of a period). A third
of them put every coordinate at an end of its range, or Delta at 0, where
hypothesis draws often; the corner Omega = Delta = 2, w = 0.5 of a full period
turns the most, phi = 35.5 rad, and Omega = Delta = 0 is the zero field,
whose every factor is the identity. The seed is fixed. Each draw measures, in
units of eps:
- ``one_shot``: ``propagate`` against ``tests/one_shot_product.py``;
- ``level``: the scan level against the one-shot tree's level;
- ``samples``: segment snapshots (2-40 samples of 1-500 steps each) against
  the one-shot prefix products;
- ``oracle``: ``propagate`` against ``tests/midpoint_oracle.py``;
- ``scan``: the prefix products of the scan level, with at most 1-64 blocks
  or the default 1024, against the oracle;
- ``samples_oracle``: the segment snapshots against the oracle.

It prints the largest gap per band of phi = |(Omega, Delta)| duration and
of the zero-field draws, the line c0 + c1 phi through the largest gaps, the
largest share of ``rounding_bound`` that a gap takes, and every gap the bound
does not cover; the exit code is 1 if there is one.
"""

import sys
from unittest import mock

import numpy as np

import hologate.evolution as evolution
from hologate import DriveParams, propagate
from hologate.su2 import pair_matrix, max_abs

from conftest import EPS, rounding_bound, rotation_angle
from midpoint_oracle import midpoint_product
from one_shot_product import step_factors, tree_product

SEED = 20261018
DRAWS = 20000
BANDS = (0.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0)


def draw(rng):
    """A drive, a step count, a fraction of a period, a sample grid and the
    most scan blocks."""
    if rng.uniform() < 1 / 3:
        corners = ((0.0, 2.0), (-1.0, 0.0, 2.0), (0.5, 2.0))
        p = DriveParams(*(float(rng.choice(ends)) for ends in corners))
        frac = float(rng.choice((0.01, 1.0)))
    else:
        p = DriveParams(rng.uniform(0.0, 2.0), rng.uniform(-1.0, 2.0), rng.uniform(0.5, 2.0))
        frac = rng.uniform(0.01, 1.0)
    steps, samples, per_segment = (int(rng.integers(1, n + 1)) for n in (3000, 40, 500))
    max_blocks = int(rng.choice((int(rng.integers(1, 65)), evolution._SCAN_BLOCKS)))
    return p, steps, frac, max(samples, 2), per_segment, max_blocks


def gaps(p, steps, frac, samples, per_segment, max_blocks):
    """The six gaps of one draw, in eps."""
    duration = frac * p.period
    u = propagate(p, duration, steps)
    (a, b), (_, la, lb) = tree_product(
        *step_factors(p, 0.0, duration, steps), max_blocks=evolution._SCAN_BLOCKS
    )
    _, got_a, got_b = evolution._scan_level(p, duration, steps)
    with mock.patch.object(evolution, "_SCAN_BLOCKS", max_blocks):
        size, scan_a, scan_b = evolution._scan_level(p, duration, steps)
    ends = np.minimum(size * np.arange(1, scan_a.shape[0] + 1), steps)
    times = np.linspace(0.0, duration, samples)
    dt = duration / (samples - 1) / per_segment
    snapshots = evolution._prefix_products(*evolution._row_products(p, dt, times[:-1], per_segment))
    rows = step_factors(p, times[:-1, None], duration / (samples - 1), per_segment)
    one_shot = evolution._prefix_products(*tree_product(*rows))
    segment_ends = per_segment * np.arange(1, samples)
    return {
        "one_shot": max_abs(u - pair_matrix(a, b)),
        "level": max(max_abs(got_a - la), max_abs(got_b - lb)),
        "samples": max_abs(pair_matrix(*snapshots) - pair_matrix(*one_shot)),
        "oracle": max_abs(u - midpoint_product(p, steps, duration / steps)),
        "scan": max_abs(
            pair_matrix(*evolution._prefix_products(scan_a, scan_b))
            - midpoint_product(p, ends, duration / steps)
        ),
        "samples_oracle": max_abs(pair_matrix(*snapshots) - midpoint_product(p, segment_ends, dt)),
    }


def main(draws: int) -> int:
    rng = np.random.default_rng(SEED)
    rows = []
    for _ in range(draws):
        case = draw(rng)
        p, frac = case[0], case[2]
        rows.append((rotation_angle(p, frac * p.period), case, gaps(*case)))
    names = list(rows[0][2])
    print(f"{len(rows)} draws, seed {SEED}; largest gap / eps per band of phi (rad)")
    print(f"{'phi':>9} {'draws':>6} " + " ".join(f"{n:>14}" for n in names))
    for lo, hi in zip(BANDS, BANDS[1:]):
        band = [g for phi, _, g in rows if lo <= phi < hi]
        if band:
            worst = [max(g[n] for g in band) / EPS for n in names]
            print(f"{lo:4.0f}-{hi:<4.0f} {len(band):6d} " + " ".join(f"{w:14.2f}" for w in worst))
    zero = [g for _, (p, *_), g in rows if p.omega_rabi == p.detuning == 0.0]
    if zero:
        worst = [max(g[n] for g in zero) / EPS for n in names]
        print(f"{'zero':>9} {len(zero):6d} " + " ".join(f"{w:14.2f}" for w in worst))
    # the line through the largest gaps: c0 covers phi < 2, c1 the steepest rest
    worst = [(phi, max(g.values()) / EPS) for phi, _, g in rows]
    c0 = max(w for phi, w in worst if phi < 2.0)
    c1 = max((w - c0) / phi for phi, w in worst if phi >= 2.0)
    print(f"envelope of the largest gaps: c0 = {c0:.2f}, c1 = {c1:.3f}")
    uncovered, share = 0, 0.0
    for _, case, g in rows:
        p, frac = case[0], case[2]
        bound = rounding_bound(p, frac * p.period)
        for name, gap in g.items():
            share = max(share, gap / bound)
            if gap > bound:
                uncovered += 1
                print(f"NOT COVERED {name}: {gap:.3e} > {bound:.3e} at {case}")
    print(f"largest gap / rounding_bound: {share:.3f}")
    print(f"rounding_bound covers every gap: {uncovered == 0}")
    return 1 if uncovered else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else DRAWS))
