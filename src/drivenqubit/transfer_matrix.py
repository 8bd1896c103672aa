"""Transfer-matrix treatment of repeated avoided-crossing traversals.

When the drive amplitude exceeds the static bias (A > eps0), the bias
sweeps through zero twice per period and the evolution splits into four
discrete steps: free phase accumulation on the eps > 0 side (region 1),
a downward crossing (k = 1), phase accumulation on the eps < 0 side
(region 2), and an upward crossing (k = 2).  Each step is a simple 2x2
unitary; one drive cycle is their ordered product

    G_cycle = G_LZ2 @ G_2 @ G_LZ1 @ G_1,

with the cycle boundary placed just after the upward crossing.  The
module builds these matrices from boundary-independent phases, extracts
the (zeta_FC, theta_FC, phi_FC) rotation decomposition of the cycle,
propagates stroboscopically, and evaluates the fast- and slow-crossing
analytic predictors for the resonance condition, oscillation frequency
and resonance width.

Phase conventions.  theta_tilde_1 = -integral of the band energy
0.5*sqrt(eps^2 + delta^2) over region 1 (negative: the up state rides
the lower branch there), theta_tilde_2 = +the same integral over region
2 (upper branch).  Their closed forms split off f_1, f_2 >= 0, the
integrals of 0.5*(sqrt(eps^2 + delta^2) - |eps|), which are computed by
adaptive quadrature rather than the logarithmic estimate.  With phi = 0
the bias is even about t = 0 and about t = T/2, so each is twice a
half-period quadrature: f_1 over [0, t_c1] and f_2 over [t_c1, T/2].
The crossing phases are theta_LZ1 = pi - theta_Stokes and
theta_LZ2 = theta_Stokes.

cycle_phases is the one source of theta_tilde_1, theta_tilde_2, f_1 and
f_2: full_cycle_matrix and propagate_tm read them from it (two
quadratures per call), and the slow-crossing condition and the
fast-crossing frequency use only their closed parts (no quadrature).
Windowed band integrals belong to full_cycle_matrix_windowed alone.

A note on the closed-form rotation angle: expanding |g12| of the cycle
product gives sin(zeta_FC/2) = 2 sin(chi/2) cos(chi/2) |cos(...)|; the
small-mixing shortcut that drops the cos(chi/2) factor is accurate only
to O(sin^2(chi/2)).  This module always takes zeta_FC from the composed
matrix itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from .dynamics import DriveParams, QubitState, TimeSeries, Unitary2, _apply, _compose, _powers, _unitary
from .errors import ConfigError, QuadratureError, RegimeError
from .specfun import stokes_phase

__all__ = [
    "LzCrossing",
    "CyclePhases",
    "FullCycleDecomposition",
    "SlowResonance",
    "crossing_times",
    "sweep_rate",
    "lz_mixing_angle",
    "lz_crossing",
    "lz_transfer_matrix",
    "phase_matrix",
    "cycle_phases",
    "full_cycle_matrix",
    "full_cycle_matrix_windowed",
    "decompose_full_cycle",
    "reconstruct_full_cycle",
    "propagate_tm",
    "tm_fast_frequency",
    "tm_fast_resonance_check",
    "tm_resonance_width",
    "tm_slow_resonance_lhs",
    "tm_slow_frequency",
]

# Aw/delta^2 below this value counts as the slow-crossing regime for the
# rough resonance condition; above 1 the fast-crossing formulas apply.
_SLOW_REGIME_MAX = 1.0


@dataclass(frozen=True)
class LzCrossing:
    """Single-crossing data: mixing angle chi, the two boundary-independent
    crossing phases, the linearized sweep rate v = omega*sqrt(A^2 - eps0^2),
    and the adiabaticity parameter delta^2/(4v)."""

    chi: float
    theta_lz_1: float
    theta_lz_2: float
    sweep_rate: float
    delta_adiab: float


@dataclass(frozen=True)
class CyclePhases:
    """Boundary-independent between-crossing phases (theta_tilde_1/2) and
    the gap corrections f1, f2 >= 0 they include."""

    theta_tilde_1: float
    theta_tilde_2: float
    f1: float
    f2: float


@dataclass(frozen=True)
class FullCycleDecomposition:
    """Cycle matrix factored as (xy-rotation by zeta_fc about azimuth
    phi_fc) following (z-rotation by theta_fc).

    zeta_fc lies in [0, pi].  theta_fc = -2*arg(u11) lies in (-2pi, 2pi];
    the half-angle construction needs this doubled range to represent
    every special unitary (a (-pi, pi] z-phase cannot, since u11 carries
    theta_fc/2).
    """

    zeta_fc: float
    theta_fc: float
    phi_fc: float


@dataclass(frozen=True)
class SlowResonance:
    """Rough slow-crossing resonance report: the condition's left-hand
    side, its nearest integer and residual, and the regime flag."""

    lhs: float
    nearest_integer: int
    residual: float
    in_slow_regime: bool


def _require_crossings(p: DriveParams) -> None:
    if p.amplitude <= p.epsilon0:
        raise RegimeError(
            f"amplitude {p.amplitude:g} must exceed epsilon0 {p.epsilon0:g}: "
            "the bias never crosses zero, so there are no crossing events"
        )
    if p.phi != 0.0:
        raise RegimeError(
            "crossing bookkeeping is defined for phi = 0 (the cycle layout "
            "is drive-phase invariant; rephase the problem to phi = 0)"
        )


def crossing_times(p: DriveParams) -> tuple[float, float]:
    """Times of the two bias zeros in [0, 2pi/omega).

    t_c1 = arccos(-eps0/A)/omega is the downward (k = 1) crossing and
    t_c2 = (2pi - arccos(-eps0/A))/omega the upward (k = 2) one.
    Requires A > eps0 and phi = 0.
    """
    _require_crossings(p)
    c = math.acos(-p.epsilon0 / p.amplitude)
    return c / p.omega, (2.0 * math.pi - c) / p.omega


def sweep_rate(p: DriveParams) -> float:
    """|d eps/dt| at the crossing: v = omega*sqrt(A^2 - eps0^2)."""
    _require_crossings(p)
    return p.omega * math.sqrt(p.amplitude**2 - p.epsilon0**2)


def lz_mixing_angle(p: DriveParams) -> float:
    """Mixing angle chi with sin^2(chi/2) = 1 - exp(-pi*delta^2/(2v)).

    The sweep rates of the two crossings are equal, so chi is shared.
    """
    v = sweep_rate(p)
    p_flip = -math.expm1(-math.pi * p.delta**2 / (2.0 * v))
    return 2.0 * math.asin(min(1.0, math.sqrt(p_flip)))


def lz_crossing(p: DriveParams) -> LzCrossing:
    """Bundle chi, the crossing phases and the adiabaticity parameter."""
    v = sweep_rate(p)
    delta_adiab = p.delta**2 / (4.0 * v)
    theta_s = stokes_phase(delta_adiab)
    return LzCrossing(
        chi=lz_mixing_angle(p),
        theta_lz_1=math.pi - theta_s,
        theta_lz_2=theta_s,
        sweep_rate=v,
        delta_adiab=delta_adiab,
    )


def _lz_pair(crossing: LzCrossing, theta_lz: float) -> tuple[complex, complex]:
    """SU(2) pair (cos(chi/2), sin(chi/2) e^{i theta_lz}) of one crossing."""
    s = math.sin(0.5 * crossing.chi)
    return complex(math.cos(0.5 * crossing.chi)), s * complex(math.cos(theta_lz), math.sin(theta_lz))


def _phase_pair(theta: float) -> tuple[complex, complex]:
    """SU(2) pair (e^{-i theta}, 0) of a between-crossing phase step."""
    return complex(math.cos(theta), -math.sin(theta)), 0.0j


def lz_transfer_matrix(crossing: LzCrossing, k: int) -> Unitary2:
    """Crossing unitary with cos(chi/2) diagonal and sin(chi/2)e^{+-i theta_LZ,k} off-diagonal."""
    if k == 1:
        theta = crossing.theta_lz_1
    elif k == 2:
        theta = crossing.theta_lz_2
    else:
        raise ConfigError(f"crossing direction must be 1 or 2, got {k!r}")
    return _unitary(*_lz_pair(crossing, theta))


def phase_matrix(theta: float) -> Unitary2:
    """Between-crossing free evolution diag(e^{-i theta}, e^{i theta})."""
    return _unitary(*_phase_pair(theta))


def _band_integral(p: DriveParams, a: float, b: float) -> float:
    """Integral of the band energy 0.5*sqrt(eps(t)^2 + delta^2) over [a, b]."""

    def integrand(t: float) -> float:
        e = p.epsilon0 + p.amplitude * math.cos(p.omega * t)
        return 0.5 * math.hypot(e, p.delta)

    val, err = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
    # quad's error estimate is conservative; allow ~5 ulp-equivalents of
    # the integral size before declaring failure.
    if err > max(1e-10, 5e-12 * abs(val)):
        raise QuadratureError(f"band-energy integral on [{a:g}, {b:g}] only reached abserr {err:g}")
    return val


def _doubled_gap_excess(p: DriveParams, a: float, b: float) -> float:
    """Twice the integral of 0.5*(sqrt(eps^2 + delta^2) - |eps|) over [a, b]; nonnegative."""
    e0, amp, omega, delta = p.epsilon0, p.amplitude, p.omega, p.delta

    def integrand(t: float) -> float:
        e = e0 + amp * math.cos(omega * t)
        return 0.5 * (math.hypot(e, delta) - abs(e))

    val, err = quad(integrand, a, b, epsabs=0.5e-13, epsrel=1e-12, limit=200)
    if 2.0 * err > 1e-10:
        raise QuadratureError(f"gap-excess integral on 2x[{a:g}, {b:g}] only reached abserr {2.0 * err:g}")
    return 2.0 * val


def _closed_phases(p: DriveParams) -> tuple[float, float]:
    """Closed-form parts of (theta_tilde_1, theta_tilde_2), before the gap corrections.

    With s = sqrt(A^2 - eps0^2) and gamma = arccos(eps0/A), region 2
    gives s/omega - (eps0/omega)*gamma and region 1 minus that minus
    pi*eps0/omega.  Requires A > eps0.
    """
    s_over_omega = math.sqrt(p.amplitude**2 - p.epsilon0**2) / p.omega
    gamma = math.acos(p.epsilon0 / p.amplitude)
    closed_2 = s_over_omega - (p.epsilon0 / p.omega) * gamma
    return -closed_2 - math.pi * p.epsilon0 / p.omega, closed_2


def cycle_phases(p: DriveParams) -> CyclePhases:
    """Boundary-independent between-crossing phases for one cycle.

    theta_tilde_1 = closed_1 - f1 and theta_tilde_2 = closed_2 + f2, with
    the gap corrections from two half-period quadratures: region 1 is
    [t_c2, t_c1 + T], symmetric about T, so f1 is twice the integral over
    [0, t_c1]; region 2 is [t_c1, t_c2], symmetric about T/2, so f2 is
    twice the integral over [t_c1, T/2].  Requires A > eps0 and phi = 0.
    """
    t_c1, _ = crossing_times(p)
    f1 = _doubled_gap_excess(p, 0.0, t_c1)
    f2 = _doubled_gap_excess(p, t_c1, 0.5 * p.period)
    closed_1, closed_2 = _closed_phases(p)
    return CyclePhases(theta_tilde_1=closed_1 - f1, theta_tilde_2=closed_2 + f2, f1=f1, f2=f2)


def _compose_cycle(cr: LzCrossing, th1: float, th2: float) -> tuple[complex, complex]:
    """SU(2) pair of G_LZ2 G_2 G_LZ1 G_1 with region phases th1, th2."""
    g = _compose(*_lz_pair(cr, cr.theta_lz_2), *_phase_pair(th2))
    g = _compose(*g, *_lz_pair(cr, cr.theta_lz_1))
    return _compose(*g, *_phase_pair(th1))


def full_cycle_matrix(p: DriveParams) -> Unitary2:
    """One-cycle propagator G_LZ2 G_2 G_LZ1 G_1 from boundary-independent phases."""
    ph = cycle_phases(p)
    return _unitary(*_compose_cycle(lz_crossing(p), ph.theta_tilde_1, ph.theta_tilde_2))


def full_cycle_matrix_windowed(p: DriveParams, tau: float) -> Unitary2:
    """One-cycle propagator built from boundary-dependent phases at window tau.

    The region phases are exact band-energy integrals over the regions
    trimmed by crossing windows of half-width tau, which must lie in
    (0, half the shorter between-crossing interval).  The total window
    phase is assigned to theta_LZ1 (theta_LZ1 = pi - theta_Stokes - W1 -
    W2, theta_LZ2 = theta_Stokes).  With this split every entry of the
    product is independent of tau up to the window-asymmetry terms of
    order omega^2*eps0*tau^3, exactly so for eps0 = 0; that
    near-invariance is the point of the construction.
    """
    t_c1, t_c2 = crossing_times(p)
    half_gap = 0.5 * min(t_c2 - t_c1, p.period - (t_c2 - t_c1))
    if not 0.0 < tau < half_gap:
        raise ConfigError(
            f"window half-width {tau:g} must lie in (0, {half_gap:g}) "
            "so the windows stay inside both between-crossing intervals"
        )
    theta1 = -_band_integral(p, t_c2 + tau, t_c1 + p.period - tau)
    theta2 = _band_integral(p, t_c1 + tau, t_c2 - tau)
    w1 = _band_integral(p, t_c1 - tau, t_c1 + tau)
    w2 = _band_integral(p, t_c2 - tau, t_c2 + tau)
    cr = lz_crossing(p)
    return _unitary(*_compose_cycle(replace(cr, theta_lz_1=cr.theta_lz_1 - w1 - w2), theta1, theta2))


_DEGENERATE_TOL = 1e-12


def decompose_full_cycle(u: Unitary2) -> FullCycleDecomposition:
    """Factor a special-unitary cycle matrix into xy-rotation x z-rotation.

    Accepts matrices of the form [[u11, u12], [-conj(u12), conj(u11)]]
    (every composed cycle matrix has this det = 1 form).  Returns
    zeta_fc = 2*arcsin|u12| in [0, pi], theta_fc = -2*arg(u11) in
    (-2pi, 2pi], and the azimuth phi_fc = arg(u12) + arg(u11).  At the
    degenerate points |u12| in {0, 1} the azimuth is set to 0 and the
    whole phase is carried by theta_fc.
    """
    if (
        abs(u.u22 - u.u11.conjugate()) > 1e-9
        or abs(u.u21 + u.u12.conjugate()) > 1e-9
    ):
        raise ConfigError(
            "matrix is not in special-unitary form [[a, b], [-conj(b), conj(a)]]; "
            "strip any global phase before decomposing"
        )
    m = min(1.0, abs(u.u12))
    zeta = 2.0 * math.asin(m)
    if m <= _DEGENERATE_TOL:
        theta = -2.0 * math.atan2(u.u11.imag, u.u11.real)
        phi = 0.0
    elif m >= 1.0 - _DEGENERATE_TOL:
        theta = 2.0 * math.atan2(u.u12.imag, u.u12.real)
        phi = 0.0
    else:
        arg11 = math.atan2(u.u11.imag, u.u11.real)
        theta = -2.0 * arg11
        phi = math.atan2(u.u12.imag, u.u12.real) + arg11
    if theta <= -2.0 * math.pi:
        theta += 4.0 * math.pi
    return FullCycleDecomposition(zeta_fc=zeta, theta_fc=theta, phi_fc=phi)


def reconstruct_full_cycle(d: FullCycleDecomposition) -> Unitary2:
    """Rebuild the cycle matrix from its (zeta_fc, theta_fc, phi_fc) factors."""
    c = math.cos(0.5 * d.zeta_fc)
    s = math.sin(0.5 * d.zeta_fc)
    half = 0.5 * d.theta_fc
    u11 = c * complex(math.cos(half), -math.sin(half))
    u12 = s * complex(math.cos(d.phi_fc + half), math.sin(d.phi_fc + half))
    return _unitary(u11, u12)


def propagate_tm(p: DriveParams, psi0: QubitState, n_cycles: int) -> TimeSeries:
    """Stroboscopic P_up at successive cycle boundaries.

    The state starts at t = 0 (inside region 1, since eps(0) = eps0 + A)
    and is carried to the first boundary just after the upward crossing
    by a prelude G_LZ2 G_2 G_LZ1 G_1p, where G_1p covers only [0, t_c1]:
    region 1 is symmetric about t = 0, so its phase is theta_tilde_1/2.
    Samples then follow each application of the full-cycle matrix:
    n_cycles + 1 values at t = t_c2 + k*period.
    The state after k cycles is the closed-form cycle power shared by
    every stroboscopic path, never k repeated multiplications, so rounding
    does not grow with k and does not limit n_cycles.
    """
    if not isinstance(n_cycles, int) or isinstance(n_cycles, bool) or n_cycles < 1:
        raise ConfigError(f"n_cycles must be a positive integer, got {n_cycles!r}")
    cr = lz_crossing(p)
    ph = cycle_phases(p)
    _, t_c2 = crossing_times(p)
    u0, d0 = _apply(*_compose_cycle(cr, 0.5 * ph.theta_tilde_1, ph.theta_tilde_2), psi0.up_amp, psi0.down_amp)
    u, _ = _powers(*_compose_cycle(cr, ph.theta_tilde_1, ph.theta_tilde_2), u0, d0, np.arange(n_cycles + 1))
    return TimeSeries(t0=t_c2, dt=p.period, values=np.clip(u.real**2 + u.imag**2, 0.0, 1.0))


def tm_fast_frequency(p: DriveParams) -> float:
    """Fast-crossing on-resonance frequency.

    Omega = (2 omega/pi) sqrt(pi delta^2 / (2 omega sqrt(A^2 - eps0^2)))
    * |cos(theta_tilde_2 - pi/4)| with theta_tilde_2 in its closed form
    (f2 dropped: negligible in this regime).  Requires the fast side,
    A*omega >= delta^2, besides A > eps0.
    """
    _require_crossings(p)
    if p.amplitude * p.omega < p.delta**2:
        raise RegimeError(
            f"A*omega/delta^2 = {p.amplitude * p.omega / p.delta**2:g} < 1: "
            "fast-crossing formula outside its regime"
        )
    _, closed_2 = _closed_phases(p)
    prefactor = (2.0 * p.omega / math.pi) * math.sqrt(math.pi * p.delta**2 / (2.0 * sweep_rate(p)))
    return prefactor * abs(math.cos(closed_2 - 0.25 * math.pi))


def _nearest_integer(x: float) -> int:
    """Integer nearest to x; a half-integer tie within 1e-12 goes to the smaller one."""
    lo = math.floor(x)
    return lo if (x - lo) - (lo + 1 - x) <= 1e-12 else lo + 1


def tm_fast_resonance_check(p: DriveParams) -> tuple[int, float]:
    """Nearest integer to eps0/omega and the residual |eps0/omega - n|.

    The fast-crossing resonance condition is eps0/omega = n; see
    _nearest_integer for ties.
    """
    _require_crossings(p)
    x = p.epsilon0 / p.omega
    n = _nearest_integer(x)
    return n, abs(x - n)


def tm_resonance_width(p: DriveParams, zeta_fc: float, n: int) -> float:
    """Resonance width delta_omega = omega^2 * zeta_fc / (2 pi eps0).

    Needs a sloped resonance: n >= 1 and eps0 > 0; the unbiased n = 0
    resonance has no detuning scale ("not applicable").
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"photon index n must be an integer, got {n!r}")
    if n < 1:
        raise RegimeError(f"width not applicable: need photon index n >= 1, got {n!r}")
    if p.epsilon0 <= 0.0:
        raise RegimeError("width not applicable: eps0 = 0 resonance has no detuning slope")
    if not (math.isfinite(zeta_fc) and 0.0 <= zeta_fc <= math.pi):
        raise ConfigError(f"zeta_fc must lie in [0, pi], got {zeta_fc!r}")
    return p.omega**2 * zeta_fc / (2.0 * math.pi * p.epsilon0)


def tm_slow_resonance_lhs(p: DriveParams) -> SlowResonance:
    """Rough slow-crossing resonance condition from the closed phases.

    lhs = (closed_2 - closed_1)/pi = eps0/omega + 2 sqrt(A^2-eps0^2)/(pi omega)
          - (2 eps0/(pi omega)) arccos(eps0/A);
    resonance when lhs is close to an integer.  No quadrature runs: the
    gap corrections f1 + f2 are dropped here.  Keeping them gives the
    refined angle 2 (theta_tilde_2 - theta_tilde_1) - 2 pi
    = -2 pi + 2 pi lhs + 2 (f1 + f2) from cycle_phases.  The regime flag
    marks A*omega/delta^2 <= 1; the arithmetic itself only needs A > eps0.
    """
    _require_crossings(p)
    closed_1, closed_2 = _closed_phases(p)
    lhs = (closed_2 - closed_1) / math.pi
    nearest = _nearest_integer(lhs)
    return SlowResonance(
        lhs=lhs,
        nearest_integer=nearest,
        residual=abs(lhs - nearest),
        in_slow_regime=p.amplitude * p.omega <= _SLOW_REGIME_MAX * p.delta**2,
    )


def tm_slow_frequency(p: DriveParams) -> float:
    """Oscillation frequency omega*zeta_fc/(2 pi) from the composed cycle.

    Valid in both crossing limits; this is the numerical route the
    closed fast-limit formula approximates.
    """
    d = decompose_full_cycle(full_cycle_matrix(p))
    return p.omega * d.zeta_fc / (2.0 * math.pi)
