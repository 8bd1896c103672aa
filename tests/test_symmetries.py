"""Exact symmetries of the drive H(t) = -(delta/2) sigma_x - (eps0 + A cos(omega t + phi))/2 sigma_z.

Unit covariance: scaling delta, eps0, A and omega by s gives H(t) -> s H(s t).
The scaled system runs the same dynamics on a clock s times faster, so
frequencies scale by s, dimensionless results (the cycle matrix, the one-period
operator, the populations, the flags) stay put, and a trace keeps its samples
at times divided by s.  With s a power of two every scaling is exact in
floating point, so the package must reproduce each result bit for bit.

Phase shift: phi = 2 pi k / spp starts the drive k substeps later, so the
midpoint rule's one-period operator is the phi = 0 product with its factors
cycled, a conjugate of it with the same trace; Re u11 is half that trace.

Time reversal: at phi = 0 the bias is even about T/2, and each midpoint
factor exp(-i h H) of a real symmetric H is symmetric, so the second half
period's product is the transpose of the first's, V, and U_T = V^T V.
"""

from dataclasses import replace

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


def _drives() -> list[tuple[DriveParams, int]]:
    """100 seeded drives (A 1.6-32, eps0/A in [0, 0.9], omega 0.3-10) with an even spp in [16, 128]."""
    rng = np.random.default_rng(20261021)
    drives = []
    for _ in range(100):
        amp = float(rng.uniform(1.6, 32.0))
        p = DriveParams(
            delta=1.0, epsilon0=float(amp * rng.uniform(0.0, 0.9)), amplitude=amp, omega=float(rng.uniform(0.3, 10.0))
        )
        drives.append((p, 2 * int(rng.integers(8, 65))))
    return drives


_DRIVES = _drives()
# Over these drives the worst errors were 2.7e-14 (phase shift) and 3.5e-14
# (time reversal), the rounding of up to 128 composed factors; 1e-12 leaves
# room for another libm and still fails a broken symmetry by far.
_SYMMETRY_TOL = 1e-12


def test_phase_shift_by_whole_substeps_keeps_the_period_trace():
    for p, spp in _DRIVES:
        trace = evolution_operator(p, 0.0, p.period, spp).u11.real
        for k in (1, spp // 3, spp - 1):
            q = replace(p, phi=2.0 * np.pi * k / spp)
            assert abs(evolution_operator(q, 0.0, q.period, spp).u11.real - trace) <= _SYMMETRY_TOL, (p, spp, k)


def test_time_reversal_makes_the_period_operator_the_half_period_transpose_product():
    for p, spp in _DRIVES:
        half = evolution_operator(p, 0.0, 0.5 * p.period, spp).as_matrix()
        full = evolution_operator(p, 0.0, p.period, spp).as_matrix()
        assert np.max(np.abs(full - half.T @ half)) <= _SYMMETRY_TOL, (p, spp)
