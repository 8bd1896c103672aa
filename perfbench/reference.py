"""Independent references for the benchmark's output checks.

Nothing here imports drivenqubit.  Each reference recomputes a quantity the
package reports from the model's defining formulas (README, "Model and
conventions") with numpy and scipy alone, so a check compares the package
against code it does not share:

* the exponential-midpoint trace, composed by a parallel prefix product
  instead of the package's sequential loop;
* the slow-frequency extraction (one-period boxcar, Hann window, rfft peak
  with log-parabolic refinement, 3 dB ambiguity rule);
* the RWA frequency through ``scipy.special.jv`` and the transfer-matrix
  cycle through ``scipy.special.loggamma`` and ``scipy.integrate.quad``.

All quantities are in units of delta (delta = 1).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.integrate import quad

# Regime thresholds on A*omega/delta^2 and the scan sizing rule, as the
# package documents them (README "Numerical notes", ScanConfig defaults).
TM_FAST_MIN = 10.0
TM_SLOW_MAX = 0.1
SUPPRESSED_AMPLITUDE = 0.02
AMBIGUOUS_RATIO = 10.0 ** (-3.0 / 20.0)
AMBIGUOUS_MIN_SEPARATION = 3
TARGET_SLOW_PERIODS = 5.0
MIN_DRIVE_PERIODS = 50
MAX_DRIVE_PERIODS = 5000


def nearest_index(x: float) -> int:
    """Integer nearest to x; an exact half-integer goes to the smaller magnitude."""
    lo = math.floor(x)
    hi = lo + 1
    if abs((x - lo) - (hi - x)) <= 1e-12:
        return lo if abs(lo) < abs(hi) else hi
    return lo if x - lo < hi - x else hi


def rwa_index(eps0: float, omega: float) -> int:
    """Photon index n minimizing |n*omega + eps0| (negative for eps0 > 0)."""
    return nearest_index(-eps0 / omega)


def rwa_frequency(eps0: float, amp: float, omega: float) -> float:
    """Delta*|J_n(A/omega)| at the nearest multi-photon resonance."""
    return abs(float(special.jv(rwa_index(eps0, omega), amp / omega)))


def regime_label(eps0: float, amp: float, omega: float) -> str:
    speed = amp * omega
    if amp > 1.0 and amp > eps0:
        if speed >= TM_FAST_MIN:
            return "TM_FAST"
        if speed <= TM_SLOW_MAX:
            return "TM_SLOW"
        return "TM_INTERMEDIATE"
    if amp < 1.0:
        return "RABI"
    return "RWA" if omega > 1.0 else "OUTSIDE"


def slow_lhs(eps0: float, amp: float, omega: float) -> float:
    """Slow-crossing resonance condition eps0/w + 2 sqrt(A^2-eps0^2)/(pi w) - 2 eps0 acos(eps0/A)/(pi w)."""
    root = math.sqrt(amp * amp - eps0 * eps0)
    return (eps0 + 2.0 * root / math.pi - 2.0 * eps0 * math.acos(eps0 / amp) / math.pi) / omega


def tm_cycle(eps0: float, amp: float, omega: float) -> np.ndarray:
    """One-cycle transfer matrix G_LZ2 G_2 G_LZ1 G_1 (A > eps0, phi = 0).

    Crossing matrices [[cos(chi/2), sin(chi/2) e^{i theta}], [-sin(chi/2) e^{-i theta}, cos(chi/2)]]
    with sin^2(chi/2) = 1 - exp(-pi/(2v)), theta_LZ1 = pi - theta_S,
    theta_LZ2 = theta_S; phase matrices diag(e^{-i theta}, e^{i theta}) with
    the boundary-independent region phases theta_tilde_1, theta_tilde_2.
    """
    root = math.sqrt(amp * amp - eps0 * eps0)
    v = omega * root
    chi = 2.0 * math.asin(min(1.0, math.sqrt(-math.expm1(-math.pi / (2.0 * v)))))
    d = 1.0 / (4.0 * v)
    theta_s = 0.25 * math.pi + float(np.imag(special.loggamma(complex(1.0, -d)))) + d * (math.log(d) - 1.0)
    c = math.acos(-eps0 / amp)
    t_c1, t_c2 = c / omega, (2.0 * math.pi - c) / omega
    period = 2.0 * math.pi / omega

    def gap_excess(t: float) -> float:
        e = eps0 + amp * math.cos(omega * t)
        return 0.5 * (math.sqrt(e * e + 1.0) - abs(e))

    f1 = quad(gap_excess, t_c2, t_c1 + period, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    f2 = quad(gap_excess, t_c1, t_c2, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
    gamma = math.acos(eps0 / amp)
    theta1 = -root / omega + eps0 * gamma / omega - math.pi * eps0 / omega - f1
    theta2 = root / omega - eps0 * gamma / omega + f2

    cc, ss = math.cos(0.5 * chi), math.sin(0.5 * chi)

    def crossing(theta: float) -> np.ndarray:
        off = ss * np.exp(1j * theta)
        return np.array([[cc, off], [-np.conj(off), cc]])

    def phase(theta: float) -> np.ndarray:
        return np.diag([np.exp(-1j * theta), np.exp(1j * theta)])

    return crossing(theta_s) @ phase(theta2) @ crossing(math.pi - theta_s) @ phase(theta1)


def tm_frequency(eps0: float, amp: float, omega: float) -> float:
    """omega*zeta_FC/(2 pi) with zeta_FC = 2 arcsin|G_12| of the composed cycle."""
    g = tm_cycle(eps0, amp, omega)
    return omega * 2.0 * math.asin(min(1.0, abs(g[0, 1]))) / (2.0 * math.pi)


def cycle_from_angles(zeta: float, theta: float, phi: float) -> np.ndarray:
    """SU(2) matrix for an xy-rotation by zeta about azimuth phi following a z-rotation by theta."""
    u11 = math.cos(0.5 * zeta) * np.exp(-0.5j * theta)
    u12 = math.sin(0.5 * zeta) * np.exp(1j * (phi + 0.5 * theta))
    return np.array([[u11, u12], [-np.conj(u12), np.conj(u11)]])


def trace_p_up(eps0: float, amp: float, omega: float, h: float, n: int) -> np.ndarray:
    """P_up(k*h), k = 0..n, from |up> under the exponential-midpoint rule.

    Substep k applies exp(-i h H(t_k)) with t_k = (k + 1/2) h; every factor
    has the SU(2) form [[a, b], [-conj(b), conj(a)]], and the running
    products come from a Hillis-Steele prefix scan over (a, b) pairs.
    """
    t_mid = h * (np.arange(n) + 0.5)
    bz = -0.5 * (eps0 + amp * np.cos(omega * t_mid))
    r = np.hypot(0.5, bz)
    s = np.sin(h * r) / r
    a = np.cos(h * r) - 1j * s * bz
    b = 0.5j * s
    d = 1
    while d < n:
        a_new = a.copy()
        b_new = b.copy()
        a_new[d:] = a[d:] * a[:-d] - b[d:] * np.conj(b[:-d])
        b_new[d:] = a[d:] * b[:-d] + b[d:] * np.conj(a[:-d])
        a, b = a_new, b_new
        d *= 2
    out = np.empty(n + 1)
    out[0] = 1.0
    out[1:] = a.real * a.real + a.imag * a.imag
    return out


def extract(values: np.ndarray, h: float, period: float) -> tuple[float, float, tuple[str, ...]]:
    """(omega_est, amplitude, flags) of a P_up trace sampled every h."""
    width = int(round(period / h))
    csum = np.concatenate(([0.0], np.cumsum(values)))
    smooth = (csum[width:] - csum[:-width]) / width
    amplitude = float(min(1.0, max(0.0, smooth.max() - smooth.min())))
    n = smooth.size
    spectrum = np.abs(np.fft.rfft((smooth - smooth.mean()) * np.hanning(n)))
    masked = spectrum.copy()
    masked[0] = 0.0  # DC is never a peak candidate, but still feeds the refinement at k = 1
    k = int(np.argmax(masked))
    shift = 0.0
    if 1 <= k < spectrum.size - 1 and min(spectrum[k - 1], spectrum[k], spectrum[k + 1]) > 0.0:
        lm, lc, lp = np.log(spectrum[k - 1 : k + 2])
        curvature = lm - 2.0 * lc + lp
        if curvature < 0.0:
            shift = min(0.5, max(-0.5, 0.5 * (lm - lp) / curvature))
    omega_est = max(0.0, 2.0 * math.pi * (k + shift) / (n * h))

    flags = []
    if amplitude < SUPPRESSED_AMPLITUDE:
        flags.append("suppressed")
    i = np.arange(1, masked.size - 1)
    local_max = (masked[i] >= masked[i - 1]) & (masked[i] >= masked[i + 1])
    rivals = i[local_max & (np.abs(i - k) > AMBIGUOUS_MIN_SEPARATION)]
    if masked[k] > 0.0 and rivals.size and masked[rivals].max() >= AMBIGUOUS_RATIO * masked[k]:
        flags.append("ambiguous")
    return omega_est, amplitude, tuple(flags)


def scan_cell(eps0: float, amp: float, omega: float, steps_per_period: int) -> dict:
    """Predictions, sizing, exact trace and extraction for one scan cell."""
    omega_rwa = rwa_frequency(eps0, amp, omega)
    tm_applies = amp > eps0
    omega_tm = tm_frequency(eps0, amp, omega) if tm_applies else math.nan
    lhs = slow_lhs(eps0, amp, omega) if tm_applies else math.nan
    finite = [w for w in (omega_rwa, omega_tm) if math.isfinite(w) and w > 1e-12]
    needed = TARGET_SLOW_PERIODS * omega / min(finite) if finite else math.inf
    n_periods = max(float(MIN_DRIVE_PERIODS), needed)
    capped = n_periods > MAX_DRIVE_PERIODS
    n_periods = MAX_DRIVE_PERIODS if capped else int(math.ceil(n_periods - 1e-9))
    period = 2.0 * math.pi / omega
    h = period / steps_per_period
    omega_est, amplitude, flags = extract(trace_p_up(eps0, amp, omega, h, n_periods * steps_per_period), h, period)
    if capped:
        flags = flags + ("below_resolution",)
    return {
        "omega_est": omega_est,
        "amplitude": amplitude,
        "omega_rwa": omega_rwa,
        "omega_tm": omega_tm,
        "slow_lhs": lhs,
        "flags": flags,
        # Spectral bin 2 pi/(n h) of the boxcarred trace, about n_periods - 1 periods long.
        "bin": omega / (n_periods - 1),
    }
