"""Rotating-wave-approximation predictors.

In a frame rotating with the drive, the coupling splits into a ladder of
harmonics weighted by Bessel functions J_n(A/omega).  Near the n-photon
resonance n*omega + epsilon0 = 0 the slow dynamics is an oscillation at
Omega = Delta*|J_n(A/omega)|, with a resonance width of order Omega/|n|.
The n = 0 channel reproduces coherent destruction of tunnelling: the
oscillation freezes wherever J_0(A/omega) = 0.

These formulas assume omega well above Delta; predictions carry a
quality grade instead of silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import DriveParams, _count, _nearest_integer, _positive
from .specfun import MAX_J0_ZERO_INDEX, bessel_j0_zero, bessel_jn

__all__ = [
    "RwaPrediction",
    "rwa_resonant_index",
    "rwa_frequency",
    "cdt_amplitudes",
    "rwa_predict",
]

# Quality thresholds on omega/delta; the approximation needs omega well
# above delta, and breaks down below it.
_INVALID_BELOW = 1.0
_OK_ABOVE = 3.0


@dataclass(frozen=True)
class RwaPrediction:
    """Resonance report: photon index n, detuning n*omega + epsilon0,
    on-resonance frequency, width scale Omega/|n| (a scale, not a sharp
    FWHM; None when n = 0, which has no detuning slope), and validity."""

    n: int
    detuning: float
    omega_osc: float
    width: float | None
    valid: bool
    quality: str
    reason: str


def rwa_resonant_index(p: DriveParams) -> int:
    """Integer n minimizing |n*omega + epsilon0|.

    For positive bias the resonant index is negative (n = -epsilon0/omega
    at exact resonance); |n| is the photon number.  A half-integer
    epsilon0/omega (within 1e-12) is a tie between two equally detuned
    resonances and is broken toward the smaller |n|.
    """
    return -_nearest_integer(p.epsilon0 / p.omega)


def rwa_frequency(p: DriveParams, n: int) -> float:
    """On-resonance oscillation frequency Omega = delta*|J_n(A/omega)|.

    Raises ValueError unless n is an int (not a bool) with |n| <= 200.
    """
    return p.delta * abs(bessel_jn(n, p.amplitude / p.omega))


def cdt_amplitudes(omega: float, k_max: int) -> list[float]:
    """Drive amplitudes A_k = omega*j_{0,k} where tunnelling is frozen.

    At epsilon0 = 0 the slow frequency is delta*|J_0(A/omega)|, so the
    first k_max zeros of J_0 mark the coherent-destruction points.
    """
    _positive("omega", omega)
    return [omega * bessel_j0_zero(k) for k in range(1, _count("k_max", k_max, 1, MAX_J0_ZERO_INDEX) + 1)]


def rwa_predict(p: DriveParams) -> RwaPrediction:
    """Full resonance report for the nearest multi-photon resonance."""
    n = rwa_resonant_index(p)
    omega_osc = rwa_frequency(p, n)
    width = None if n == 0 else omega_osc / abs(n)
    ratio = p.omega / p.delta
    if ratio < _INVALID_BELOW:
        quality, valid = "invalid", False
        reason = f"omega/delta = {ratio:.3g} < {_INVALID_BELOW:g}: rotating-frame expansion breaks down"
    elif ratio < _OK_ABOVE:
        quality, valid = "marginal", True
        reason = f"omega/delta = {ratio:.3g} in [{_INVALID_BELOW:g}, {_OK_ABOVE:g}): treat quantitatively with care"
    else:
        quality, valid = "ok", True
        reason = f"omega/delta = {ratio:.3g} >= {_OK_ABOVE:g}"
    return RwaPrediction(
        n=n,
        detuning=n * p.omega + p.epsilon0,
        omega_osc=omega_osc,
        width=width,
        valid=valid,
        quality=quality,
        reason=reason,
    )
