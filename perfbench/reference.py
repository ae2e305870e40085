"""Reference loop for speed-normalised timings.

The host's vCPUs are shared: measured on 2 vCPUs (Intel Xeon, 2.0 GHz), the
same 1.5 s reflection solve took 1.07-2.29 s within three minutes, and two
processes pinned to the two vCPUs slowed down independently (correlation
-0.23).  Raw seconds of a fixed amount of work therefore spread across runs
by far more than a useful regression bound, and no run the budget allows is
long enough to average it out.

``sample`` times a fixed loop that mixes the two kinds of work qrmirror
does: pure-Python float arithmetic (the amplitude solver's RK loop) and
scipy ``quad`` over a numpy integrand on a few hundred nodes (the potential
quadrature).  A timing is reported as ``raw * NOMINAL_S / median(samples)``,
with samples taken on the same CPU during the measured stretch: seconds on a
machine where this loop takes ``NOMINAL_S``.  The loop is benchmark code, so
a change to qrmirror moves only the raw time.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import quad

NOMINAL_S = 0.1
_PY_ITERATIONS = 300_000
_QUADS = 9
_KAPPA = np.linspace(1.0, 30.0, 240)
_WEIGHTS = np.full(240, 0.1)


def _integrand(x: float) -> float:
    return float(np.sum(_WEIGHTS * np.exp(-x * _KAPPA)
                        * np.sqrt(_KAPPA * _KAPPA - 1.0 + x)))


def sample() -> float:
    """Seconds the reference loop takes now."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(_PY_ITERATIONS):
        acc += (i * 0.5) ** 0.5
    for _ in range(_QUADS):
        quad(_integrand, 0.0, 5.0, epsabs=0.0, epsrel=1e-12, limit=200)
    return time.perf_counter() - t
