import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import hologate

settings.register_profile("default", deadline=None)
settings.load_profile("default")


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_hologate():
    """Fresh interpreters started by tests import the hologate under test.

    pyproject's pytest ``pythonpath`` reaches only this process, so a plain
    ``pytest`` from a checkout without an install would leave them without it.
    """
    src = str(Path(hologate.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


#: Machine epsilon of float64, the unit of ``rounding_bound``.
EPS = float(np.finfo(float).eps)
#: rounding_bound = (ROUNDING_C0 + ROUNDING_C1 phi) EPS.
ROUNDING_C0 = 12.0
ROUNDING_C1 = 1.5


def rotation_angle(p, duration: float) -> float:
    """phi = |(Omega, Delta)| duration, the angle the field turns the state
    through in the frame that co-rotates with the drive."""
    return math.hypot(p.omega_rabi, p.detuning) * duration


def rounding_bound(p, duration: float) -> float:
    """Largest max-abs gap between two roundings of the midpoint product of
    drive ``p`` over ``duration``: ``propagate``, its scan level and segment
    snapshots against the one-shot product and the closed-form oracle.

    The factors' rounding repeats coherently along the product, so the gap
    grows with the total rotation angle phi, not with the step count.
    ``tests/rounding_sweep.py`` fits the two constants and checks them.
    """
    return (ROUNDING_C0 + ROUNDING_C1 * rotation_angle(p, duration)) * EPS


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random U(2) via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(r.diagonal() / np.abs(r.diagonal()))


def random_drive(rng: np.random.Generator):
    """Random drive triple over the range the model is exercised in."""
    from hologate import DriveParams

    return DriveParams(
        omega_rabi=float(rng.uniform(0.0, 2.0)),
        detuning=float(rng.uniform(-1.0, 2.0)),
        omega_drive=float(rng.uniform(0.5, 2.0)),
    )
