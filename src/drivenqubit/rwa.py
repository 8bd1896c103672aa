"""Rotating-wave-approximation predictors.

In a frame rotating with the drive, the coupling splits into a ladder of
harmonics weighted by Bessel functions J_n(A/omega).  Near the n-photon
resonance n*omega + epsilon0 = 0 the slow dynamics is an oscillation at
Omega = Delta*|J_n(A/omega)|, with a resonance width of order Omega/|n|.
The n = 0 channel reproduces coherent destruction of tunnelling: the
oscillation freezes wherever J_0(A/omega) = 0.

These formulas assume omega well above Delta.  Where they apply is
decided in one place, analysis.classify_regime (its ``rwa`` field,
omega/Delta > 1); this module only evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import DriveParams, _nearest_integer, _positive
from .specfun import MAX_J0_ZERO_INDEX, bessel_j0_zero, bessel_jn

__all__ = [
    "RwaPrediction",
    "cdt_amplitudes",
    "rwa_predict",
]

@dataclass(frozen=True)
class RwaPrediction:
    """Resonance report: photon index n, on-resonance frequency, and width
    scale Omega/|n| (a scale, not a sharp FWHM; None when n = 0, which has
    no detuning slope).  Whether the RWA applies is classify_regime's
    ``rwa`` field."""

    n: int
    omega_osc: float
    width: float | None


def cdt_amplitudes(omega: float) -> list[float]:
    """Drive amplitudes A_k = omega*j_{0,k}, k = 1..MAX_J0_ZERO_INDEX, where tunnelling is frozen.

    At epsilon0 = 0 the slow frequency is delta*|J_0(A/omega)|, so the
    zeros of J_0 mark the coherent-destruction points; omega is a number
    > 0, else ConfigError.
    """
    _positive("omega", omega)
    return [omega * bessel_j0_zero(k) for k in range(1, MAX_J0_ZERO_INDEX + 1)]


def rwa_predict(p: DriveParams) -> RwaPrediction:
    """Resonance report for the nearest multi-photon resonance.

    n is the integer minimizing |n*omega + epsilon0|, so for positive bias
    it is negative (n = -epsilon0/omega at exact resonance) and |n| is the
    photon number; a half-integer epsilon0/omega (within 1e-12) is a tie
    between two equally detuned resonances, broken toward the smaller |n|.
    The on-resonance frequency is Omega = delta*|J_n(A/omega)|.

    Raises ValueError if |n| > 200, the largest order ``bessel_jn`` takes.
    """
    n = -_nearest_integer(p.epsilon0 / p.omega)
    omega_osc = p.delta * abs(bessel_jn(n, p.amplitude / p.omega))
    return RwaPrediction(n=n, omega_osc=omega_osc, width=None if n == 0 else omega_osc / abs(n))
