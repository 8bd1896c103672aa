"""Unit covariance: scaling delta, eps0, A and omega by s gives H(t) -> s H(s t).

The scaled system runs the same dynamics on a clock s times faster, so
frequencies scale by s, dimensionless results (the cycle matrix, the one-period
operator, the populations, the flags) stay put, and a trace keeps its samples
at times divided by s.  With s a power of two every scaling is exact in
floating point, so the package must reproduce each result bit for bit.
"""

import numpy as np
import pytest

from drivenqubit.analysis import extract_frequency
from drivenqubit.dynamics import DriveParams, QubitState, evolution_operator, propagate_exact
from drivenqubit.rwa import rwa_predict
from drivenqubit.transfer_matrix import full_cycle_matrix, tm_slow_frequency


def _points() -> list[tuple[float, float, float, float]]:
    """20 seeded (delta, eps0, A, omega) with crossings well clear of tangency (A >= eps0 + 0.5)."""
    rng = np.random.default_rng(20261020)
    points = []
    for _ in range(20):
        delta, eps0, omega = rng.uniform(0.5, 2.0), rng.uniform(0.0, 5.0), rng.uniform(0.5, 5.0)
        points.append((float(delta), float(eps0), float(eps0 + rng.uniform(0.5, 20.0)), float(omega)))
    return points


_POINTS = _points()


@pytest.mark.parametrize("k", [-3, -1, 1, 3])
def test_scaled_units_reproduce_every_result_exactly(k):
    s = 2.0**k
    for delta, eps0, amp, omega in _POINTS:
        p = DriveParams(delta=delta, epsilon0=eps0, amplitude=amp, omega=omega)
        q = DriveParams(delta=s * delta, epsilon0=s * eps0, amplitude=s * amp, omega=s * omega)
        where = (delta, eps0, amp, omega, s)
        assert rwa_predict(q).omega_osc / s == rwa_predict(p).omega_osc, where
        assert tm_slow_frequency(q) / s == tm_slow_frequency(p), where
        assert full_cycle_matrix(q) == full_cycle_matrix(p), where
        assert evolution_operator(q, 0.0, q.period, 64) == evolution_operator(p, 0.0, p.period, 64), where
        ts_p = propagate_exact(p, QubitState.up(), 40 * p.period, steps_per_period=64)
        ts_q = propagate_exact(q, QubitState.up(), 40 * q.period, steps_per_period=64)
        assert ts_q.dt * s == ts_p.dt and np.array_equal(ts_q.values, ts_p.values), where
        est_p = extract_frequency(ts_p, drive_period=p.period)
        est_q = extract_frequency(ts_q, drive_period=q.period)
        assert est_q.flags == est_p.flags and est_q.amplitude == est_p.amplitude, where
        assert est_q.omega_est / s == est_p.omega_est, where
