"""Rotating-frame predictor checks: indices, frequencies, CDT, Rabi."""

import math

import numpy as np
import pytest

from drivenqubit.analysis import extract_frequency
from drivenqubit.dynamics import DriveParams, QubitState, propagate_exact
from drivenqubit.errors import ConfigError
from drivenqubit.rwa import cdt_amplitudes, rwa_predict
from drivenqubit.specfun import MAX_J0_ZERO_INDEX, bessel_j0_zero, bessel_jn


def _p(eps0, amp, omega):
    return DriveParams(delta=1.0, epsilon0=eps0, amplitude=amp, omega=omega)


@pytest.mark.parametrize(
    "eps0, omega, expected",
    [
        (0.0, 1.0, 0),
        (3.0, 1.0, -3),
        (3.0, 3.0, -1),
        (7.0, 3.0, -2),
        (0.4, 1.0, 0),
        (0.6, 1.0, -1),
        # exact tie between -2 and -3: the smaller |n| wins
        (2.5, 1.0, -2),
        (3.0, 2.0, -1),
    ],
)
def test_resonant_index(eps0, omega, expected):
    assert rwa_predict(_p(eps0, amp=1.0, omega=omega)).n == expected


def test_resonant_index_minimizes_detuning():
    rng = np.random.RandomState(5)
    for _ in range(100):
        p = _p(float(rng.uniform(0, 10)), 1.0, float(rng.uniform(0.2, 20)))
        n = rwa_predict(p).n
        d = abs(n * p.omega + p.epsilon0)
        for m in (n - 1, n + 1):
            assert d <= abs(m * p.omega + p.epsilon0) + 1e-12


def test_rwa_frequency_is_bessel_weighted():
    assert rwa_predict(_p(3.0, 10.0, 3.0)).omega_osc == pytest.approx(abs(bessel_jn(1, 10.0 / 3.0)), rel=1e-12)
    assert rwa_predict(_p(0.0, 10.0, 3.0)).omega_osc == pytest.approx(abs(bessel_jn(0, 10.0 / 3.0)), rel=1e-12)
    # Orders up to |n| = 200 are bessel_jn's range; n = -201 is refused.
    assert rwa_predict(_p(200.0, 10.0, 1.0)).n == -200
    with pytest.raises(ValueError):
        rwa_predict(_p(201.0, 10.0, 1.0))


@pytest.mark.parametrize("n", [1.5, True, 2.0])
def test_rwa_frequency_takes_only_integer_orders(n):
    # rwa_predict's frequency takes its order through bessel_jn, whose rule governs: no coercion to an int.
    with pytest.raises(ValueError):
        bessel_jn(n, 10.0 / 3.0)


def test_rwa_frequency_envelope_bound():
    # |J_n(z)| <= ~sqrt(2/(pi z)) for z well above n: Omega is bounded by
    # delta * 1.1 * sqrt(2 omega/(pi A)).
    for amp, omega in ((30.0, 1.0), (40.0, 2.0), (50.0, 5.0)):
        p = _p(2.0, amp, omega)
        bound = 1.1 * math.sqrt(2.0 * omega / (math.pi * amp))
        assert rwa_predict(p).omega_osc <= bound


def test_cdt_amplitudes_sit_on_j0_zeros():
    omega = 5.0
    amps = cdt_amplitudes(omega)
    assert len(amps) == MAX_J0_ZERO_INDEX
    for k, a in enumerate(amps, start=1):
        assert a == pytest.approx(omega * bessel_j0_zero(k), rel=1e-12)
        assert abs(bessel_jn(0, a / omega)) < 1e-10
    assert np.all(np.diff(amps) > 0.0)


def test_cdt_amplitudes_validation():
    for omega in (0.0, -1.0, math.inf):
        with pytest.raises(ConfigError):
            cdt_amplitudes(omega)


def test_rabi_prediction_against_exact_trace():
    # Weakly driven resonant point, omega = sqrt(delta^2 + eps0^2): the
    # extracted envelope frequency matches the Rabi formula A*sin(alpha)/2,
    # with sin(alpha) = delta/omega here, within a few percent.
    p = _p(3.0, 0.15, math.hypot(1.0, 3.0))
    omega_rabi = 0.5 * p.amplitude * p.delta / p.omega
    t_end = 4.0 * 2.0 * math.pi / omega_rabi
    ts = propagate_exact(p, QubitState.up(), t_end, steps_per_period=128)
    est = extract_frequency(ts, drive_period=p.period)
    assert est.omega_est == pytest.approx(omega_rabi, rel=0.05)
    assert est.amplitude > 0.5


def test_rwa_predict_fields_consistent():
    p = _p(3.0, 15.0, 3.0)
    pred = rwa_predict(p)
    assert pred.n == -1
    assert pred.omega_osc == pytest.approx(abs(bessel_jn(1, 5.0)), rel=1e-12)
    assert pred.width == pred.omega_osc
    # The width scale is Omega/|n|; n = 0 has no detuning slope, so no width.
    two = rwa_predict(_p(6.0, 15.0, 3.0))
    assert two.n == -2
    assert two.width == two.omega_osc / 2.0
    zero_n = rwa_predict(_p(0.0, 4.0, 3.0))
    assert zero_n.n == 0
    assert zero_n.width is None
