"""Transfer-matrix treatment of repeated avoided-crossing traversals.

When the drive amplitude exceeds the static bias (A > eps0), the bias
sweeps through zero twice per period and the evolution splits into four
discrete steps: free phase accumulation on the eps > 0 side (region 1),
a downward crossing (k = 1), phase accumulation on the eps < 0 side
(region 2), and an upward crossing (k = 2).  Each step is an SU(2) pair
(a, b), the matrix [[a, b], [-conj(b), conj(a)]]; one drive cycle is
their ordered product

    G_cycle = G_LZ2 @ G_2 @ G_LZ1 @ G_1,

with the cycle boundary placed just after the upward crossing, composed
pair by pair and returned as the ``Unitary2`` of its pair.  lz_crossing
is the one accessor of the crossing data (sweep rate, mixing angle chi,
crossing phases, adiabaticity parameter).  The module builds these
matrices from boundary-independent phases, extracts
the (zeta_FC, theta_FC, phi_FC) rotation decomposition of the cycle,
propagates stroboscopically, and evaluates the fast- and slow-crossing
analytic predictors for the resonance condition, oscillation frequency
and resonance width.

Phase conventions.  theta_tilde_1 = -integral of the band energy
0.5*sqrt(eps^2 + delta^2) over region 1 (negative: the up state rides
the lower branch there), theta_tilde_2 = +the same integral over region
2 (upper branch).  Their closed forms split off f_1, f_2 >= 0, the
integrals of 0.5*(sqrt(eps^2 + delta^2) - |eps|), which are computed by
quadrature rather than the logarithmic estimate.  With phi = 0 the bias
is even about t = 0 and about t = T/2, so each is twice a half-period
integral: f_1 over [0, t_c1] and f_2 over [t_c1, T/2].
The crossing phases are theta_LZ1 = pi - theta_Stokes and
theta_LZ2 = theta_Stokes.

Every integral here goes through quad, one fixed tanh-sinh rule (Takahasi
& Mori, Publ. RIMS 9, 721 (1974)) evaluated in one numpy pass over 217
nodes, with the difference from its embedded half-density rule as the
error estimate.  Its nodes cluster at the interval ends, so the one sharp
feature of each integrand, the gap minimum at a crossing, is placed at an
end: the half-period integrals both end at a crossing.  Every call
integrates its intervals as the rows of one array, so the two
half-period integrals of a cycle are one call.

cycle_phases is the one source of theta_tilde_1, theta_tilde_2, f_1 and
f_2 (one stacked quadrature per call: both half-periods as a (2, 217)
array in the drive phase omega*t, each row held to its own error bound):
full_cycle_matrix and propagate_tm read them from it, and the
slow-crossing condition and the fast-crossing frequency use only their
closed parts (no quadrature).  full_cycle_matrix keeps its last point's
cycle: one entry, keyed by the DriveParams value, with raised errors not
kept.

A note on the closed-form rotation angle: expanding |g12| of the cycle
product gives sin(zeta_FC/2) = 2 sin(chi/2) cos(chi/2) |cos(...)|; the
small-mixing shortcut that drops the cos(chi/2) factor is accurate only
to O(sin^2(chi/2)).  This module always takes zeta_FC from the composed
matrix itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    DriveParams, QubitState, TimeSeries, Unitary2, _compose, _count, _finite, _nearest_integer, _stroboscope,
)
from .errors import QuadratureError, RegimeError
from .specfun import stokes_phase

__all__ = [
    "LzCrossing",
    "CyclePhases",
    "FullCycleDecomposition",
    "SlowResonance",
    "crossing_times",
    "lz_crossing",
    "lz_transfer_matrix",
    "phase_matrix",
    "cycle_phases",
    "full_cycle_matrix",
    "decompose_full_cycle",
    "reconstruct_full_cycle",
    "propagate_tm",
    "tm_fast_frequency",
    "tm_fast_resonance_check",
    "tm_resonance_width",
    "tm_slow_resonance_lhs",
    "tm_slow_frequency",
]

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
    side and its nearest integer."""

    lhs: float
    nearest_integer: int


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


def _sweep_rate(p: DriveParams) -> float:
    """|d eps/dt| at the crossing: v = omega*sqrt(A^2 - eps0^2)."""
    _require_crossings(p)
    return p.omega * math.sqrt(p.amplitude**2 - p.epsilon0**2)


def lz_crossing(p: DriveParams) -> LzCrossing:
    """Both crossings' data: the sweep rate v, chi, the crossing phases and the adiabaticity parameter.

    The two crossings share v, so they share the mixing angle chi, with
    sin^2(chi/2) = 1 - exp(-pi*delta^2/(2v)).
    """
    v = _sweep_rate(p)
    delta_adiab = p.delta**2 / (4.0 * v)
    theta_s = stokes_phase(delta_adiab)
    p_flip = -math.expm1(-math.pi * p.delta**2 / (2.0 * v))
    return LzCrossing(
        chi=2.0 * math.asin(min(1.0, math.sqrt(p_flip))),
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
    """Crossing unitary with cos(chi/2) diagonal and sin(chi/2)e^{+-i theta_LZ,k} off-diagonal; k the int 1 or 2."""
    theta = crossing.theta_lz_1 if _count("crossing direction k", k, 1, 2) == 1 else crossing.theta_lz_2
    return Unitary2(*_lz_pair(crossing, theta))


def phase_matrix(theta: float) -> Unitary2:
    """Between-crossing free evolution diag(e^{-i theta}, e^{i theta}); theta a finite number."""
    return Unitary2(*_phase_pair(_finite("theta", theta)))


def _tanh_sinh_rule() -> tuple[np.ndarray, ...]:
    """Nodes and weights of the tanh-sinh rule on [0, 1] at step h = 1/32.

    Node k sits a fraction (1 + tanh(pi/2 sinh(k h)))/2 across the
    interval, with weight (pi h/4) cosh(k h)/cosh^2(pi/2 sinh(k h)).  Nodes
    weighing less than 1e-20 are dropped, which leaves 217; the integrands
    are bounded, so the dropped tail is negligible.  Each node is kept as
    its distance from the nearer end, 1/(1 + exp(pi |sinh(k h)|)), so the
    end clusters carry no cancellation.  Returns the near-end mask (True
    for the a end), the signed offsets from that end, the weights, and the
    weights of the embedded step-2h rule (twice the even-k weights, zero
    elsewhere).
    """
    h = 1.0 / 32.0
    k = np.arange(-128, 129)  # |k h| <= 4, where the weights are ~1e-37
    u = 0.5 * math.pi * np.sinh(h * k)
    weight = 0.25 * math.pi * h * np.cosh(h * k) / np.cosh(u) ** 2
    keep = weight >= 1e-20
    k, u, weight = k[keep], u[keep], weight[keep]
    near = 1.0 / (1.0 + np.exp(2.0 * np.abs(u)))
    left = k <= 0
    return left, np.where(left, near, -near), weight, np.where(k % 2 == 0, 2.0 * weight, 0.0)


_TS_LEFT, _TS_OFFSET, _TS_WEIGHT, _TS_COARSE = _tanh_sinh_rule()
# One product with these rows lays out the nodes of every interval [a, b] as
# a*[left] + b*[right] + (b - a)*offset; the end terms are exact, so each
# node is its nearer end plus its offset.  One product with the two weight
# columns then sums every row at both steps.
_TS_BASIS = np.stack((_TS_LEFT, ~_TS_LEFT, _TS_OFFSET)).astype(float)
_TS_PAIR = np.stack((_TS_WEIGHT, _TS_COARSE), axis=1)


def quad(f, a: tuple[float, ...], b: tuple[float, ...]) -> list[tuple[float, float]]:
    """Integrals of f over the rows [a[i], b[i]] by the fixed tanh-sinh rule, each with its error estimate.

    f maps a (rows, 217) array of abscissae, row i the nodes of [a[i],
    b[i]], to the values of one integrand per row, and is evaluated once.
    Each row gives a (value, abserr) pair, in row order.  The estimate is
    |I(1/32) - I(1/16)|, the gap to the embedded rule on the even nodes;
    for an integrand analytic near its interval the step-1/32 value is far
    more accurate than that.
    """
    spans = [end - start for start, end in zip(a, b)]
    x = np.array((a, b, spans)).T @ _TS_BASIS
    rows = []
    for span, (fine, coarse) in zip(spans, (f(x) @ _TS_PAIR).tolist()):
        fine *= span
        rows.append((fine, abs(fine - span * coarse)))
    return rows


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

    theta_tilde_1 = closed_1 - f1 and theta_tilde_2 = closed_2 + f2.  The
    gap corrections are twice half-period integrals of the excess
    0.5*(sqrt(eps^2 + delta^2) - |eps|): region 1 is [t_c2, t_c1 + T],
    symmetric about T, so f1 is twice the integral over [0, t_c1]; region
    2 is [t_c1, t_c2], symmetric about T/2, so f2 is twice the integral
    over [t_c1, T/2].  Both run as one stacked quadrature in the drive
    phase omega*t, over [0, c] and [c, pi] with c = arccos(-eps0/A), and
    each meets its own 1e-10 bound.  Requires A > eps0 and phi = 0.
    """
    _require_crossings(p)
    e0, amp, delta = p.epsilon0, p.amplitude, p.delta
    c = math.acos(-e0 / amp)
    delta2 = delta * delta
    half_delta2 = 0.5 * delta2

    def excess(theta: np.ndarray) -> np.ndarray:
        # the excess written as delta^2/(2(sqrt(eps^2 + delta^2) + |eps|)), free of cancellation
        e = np.abs(e0 + amp * np.cos(theta))
        return half_delta2 / (np.sqrt(e * e + delta2) + e)

    # twice each integral, and d(omega*t) = omega*dt
    scale = 2.0 / p.omega
    t_c1 = c / p.omega
    f = []
    for (val, err), a, b in zip(quad(excess, (0.0, c), (c, math.pi)), (0.0, t_c1), (t_c1, 0.5 * p.period)):
        if scale * err > 1e-10:
            raise QuadratureError(f"gap-excess integral on 2x[{a:g}, {b:g}] only reached abserr {scale * err:g}")
        f.append(scale * val)
    f1, f2 = f
    closed_1, closed_2 = _closed_phases(p)
    return CyclePhases(theta_tilde_1=closed_1 - f1, theta_tilde_2=closed_2 + f2, f1=f1, f2=f2)


def _compose_cycle(cr: LzCrossing, th1: float, th2: float) -> tuple[complex, complex]:
    """SU(2) pair of G_LZ2 G_2 G_LZ1 G_1 with region phases th1, th2."""
    g = _compose(*_lz_pair(cr, cr.theta_lz_2), *_phase_pair(th2))
    g = _compose(*g, *_lz_pair(cr, cr.theta_lz_1))
    return _compose(*g, *_phase_pair(th1))


@functools.lru_cache(maxsize=1)
def _cycle(p: DriveParams) -> Unitary2:
    """full_cycle_matrix's cycle, kept for the last point only.

    One entry, so a pass over many points holds nothing from earlier
    points; lru_cache stores no raised error, so a failing point fails on
    every call.  DriveParams is frozen, with float fields, so equal points
    hash alike and give the same cycle (0.0 and -0.0 included).
    """
    ph = cycle_phases(p)
    return Unitary2(*_compose_cycle(lz_crossing(p), ph.theta_tilde_1, ph.theta_tilde_2))


def full_cycle_matrix(p: DriveParams) -> Unitary2:
    """One-cycle propagator G_LZ2 G_2 G_LZ1 G_1 from boundary-independent phases.

    The last point's cycle is kept, so a repeat call on an equal point
    (tm_slow_frequency after full_cycle_matrix, say) runs no quadrature.
    """
    return _cycle(p)


_DEGENERATE_TOL = 1e-12


def _xy_rotation(u: Unitary2) -> tuple[float, float]:
    """|u12| clipped to 1, and the xy-rotation angle zeta_fc = 2*arcsin of it."""
    m = min(1.0, abs(u.u12))
    return m, 2.0 * math.asin(m)


def decompose_full_cycle(u: Unitary2) -> FullCycleDecomposition:
    """Factor a special-unitary cycle matrix into xy-rotation x z-rotation.

    A ``Unitary2`` is the pair (u11, u12) of [[u11, u12], [-conj(u12),
    conj(u11)]] (det = 1 by construction), so every one is special-unitary
    and the pair determines it.  Returns
    zeta_fc = 2*arcsin|u12| in [0, pi], theta_fc = -2*arg(u11) in
    (-2pi, 2pi], and the azimuth phi_fc = arg(u12) + arg(u11).  At the
    degenerate points |u12| in {0, 1} the azimuth is set to 0 and the
    whole phase is carried by theta_fc.
    """
    m, zeta = _xy_rotation(u)
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
    return Unitary2(u11, u12)


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
    cr = lz_crossing(p)
    ph = cycle_phases(p)
    _, t_c2 = crossing_times(p)
    prelude = _compose_cycle(cr, 0.5 * ph.theta_tilde_1, ph.theta_tilde_2)
    cycle = _compose_cycle(cr, ph.theta_tilde_1, ph.theta_tilde_2)
    return _stroboscope(psi0, prelude, cycle, n_cycles, t_c2, p.period)


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
    prefactor = (2.0 * p.omega / math.pi) * math.sqrt(math.pi * p.delta**2 / (2.0 * _sweep_rate(p)))
    return prefactor * abs(math.cos(closed_2 - 0.25 * math.pi))


def tm_fast_resonance_check(p: DriveParams) -> tuple[int, float]:
    """Nearest integer to eps0/omega and the residual |eps0/omega - n|.

    The fast-crossing resonance condition is eps0/omega = n; see
    _nearest_integer for ties.
    """
    _require_crossings(p)
    x = p.epsilon0 / p.omega
    n = _nearest_integer(x)
    return n, abs(x - n)


def tm_resonance_width(p: DriveParams) -> float:
    """Width delta_omega = omega^2 * zeta_fc / (2 pi eps0) of the n-photon resonance nearest the drive point.

    n is the integer nearest eps0/omega (as ``tm_fast_resonance_check``
    gives it) and zeta_fc the xy-rotation angle of ``full_cycle_matrix``.
    Needs a sloped resonance, n >= 1: below it (eps0 = 0 included) the
    n = 0 resonance has no detuning scale, a RegimeError raised before any
    cycle is built.
    """
    n = _nearest_integer(p.epsilon0 / p.omega)
    if n < 1:
        raise RegimeError(f"width not applicable: need photon index n >= 1, got {n}")
    _, zeta_fc = _xy_rotation(full_cycle_matrix(p))
    return p.omega**2 * zeta_fc / (2.0 * math.pi * p.epsilon0)


def tm_slow_resonance_lhs(p: DriveParams) -> SlowResonance:
    """Rough slow-crossing resonance condition from the closed phases.

    lhs = (closed_2 - closed_1)/pi = eps0/omega + 2 sqrt(A^2-eps0^2)/(pi omega)
          - (2 eps0/(pi omega)) arccos(eps0/A);
    resonance when lhs is close to an integer.  No quadrature runs: the
    gap corrections f1 + f2 are dropped here.  Keeping them gives the
    refined angle 2 (theta_tilde_2 - theta_tilde_1) - 2 pi
    = -2 pi + 2 pi lhs + 2 (f1 + f2) from cycle_phases.  The arithmetic
    only needs A > eps0; where the slow-crossing picture applies is
    classify_regime's ``tm_speed``.
    """
    _require_crossings(p)
    closed_1, closed_2 = _closed_phases(p)
    lhs = (closed_2 - closed_1) / math.pi
    return SlowResonance(lhs=lhs, nearest_integer=_nearest_integer(lhs))


def tm_slow_frequency(p: DriveParams) -> float:
    """Oscillation frequency omega*zeta_fc/(2 pi) from the composed cycle.

    Valid in both crossing limits; this is the numerical route the
    closed fast-limit formula approximates.
    """
    _, zeta_fc = _xy_rotation(full_cycle_matrix(p))
    return p.omega * zeta_fc / (2.0 * math.pi)
