"""Physical model and exact time-domain propagation.

The system is a two-level system with fixed tunnelling splitting and a
harmonically driven bias,

    H(t) = -(Delta/2) sigma_x - (eps(t)/2) sigma_z,
    eps(t) = eps0 + A cos(omega t + phi),

in units with hbar = 1.  The basis is |up> = (1, 0), |down> = (0, 1), so
the upper-left entry of H is -eps(t)/2.

Propagation uses an exponential-midpoint rule: each substep applies the
closed-form exponential of the traceless Hermitian 2x2 Hamiltonian frozen
at the substep midpoint.  Every factor is exactly unitary up to rounding
and has the SU(2) form [[a, b], [-conj(b), conj(a)]]; the
time-discretization error is second order in the substep.

Factors are composed as (a, b) pairs by a vectorised log-depth scan, never
one substep at a time.  On a period-aligned grid H(t + T) = H(t) makes every
period apply the same factors, so ``propagate_exact`` builds one period,
takes its product U_T and reaches the period boundaries with the closed-form
power U_T^k (Floquet composition).  Other grids, ``evolution_operator`` and
``propagate_linear_sweep`` compose all their factors block by block.

One closed-form power, ``_powers``, applies a cycle k times for every
stroboscopic path: ``propagate_exact``, ``propagate_tm`` (the transfer-matrix
cycle) and ``stroboscopic_exact`` (the exact one-cycle operator).  No path
powers a cycle by repeated multiplication, so rounding does not limit run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureError

__all__ = [
    "DriveParams",
    "QubitState",
    "Unitary2",
    "TimeSeries",
    "drive_epsilon",
    "hamiltonian",
    "step_unitary",
    "evolution_operator",
    "propagate_exact",
    "propagate_linear_sweep",
]

_UNITARY_TOL = 1e-10
_NORM_TOL = 1e-12

# Factor tables and sample blocks hold at most this many entries (one block
# of substeps, or whole periods of samples on the Floquet path), so a long
# run never materializes its whole substep table at once.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class DriveParams:
    """Drive and qubit parameters: bias eps(t) = epsilon0 + amplitude*cos(omega*t + phi).

    All energies are angular frequencies (hbar = 1).  Requires delta > 0,
    omega > 0, amplitude >= 0, epsilon0 >= 0; phi defaults to 0 so the
    drive starts at the top of the cosine, eps(0) = epsilon0 + amplitude.
    """

    delta: float
    epsilon0: float
    amplitude: float
    omega: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta", "epsilon0", "amplitude", "omega", "phi"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ConfigError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.omega <= 0.0:
            raise ConfigError(f"omega must be positive, got {self.omega}")
        if self.amplitude < 0.0:
            raise ConfigError(f"amplitude must be nonnegative, got {self.amplitude}")
        if self.epsilon0 < 0.0:
            raise ConfigError(f"epsilon0 must be nonnegative, got {self.epsilon0}")

    @property
    def period(self) -> float:
        """One drive period 2*pi/omega."""
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class QubitState:
    """Pure state amplitudes (up_amp, down_amp); must be normalized to 1e-12."""

    up_amp: complex
    down_amp: complex

    def __post_init__(self) -> None:
        cu = complex(self.up_amp)
        cd = complex(self.down_amp)
        object.__setattr__(self, "up_amp", cu)
        object.__setattr__(self, "down_amp", cd)
        norm2 = abs(cu) ** 2 + abs(cd) ** 2
        if not math.isfinite(norm2) or abs(norm2 - 1.0) > _NORM_TOL:
            raise ConfigError(f"state norm^2 = {norm2!r} is not 1 within {_NORM_TOL}")

    @classmethod
    def up(cls) -> "QubitState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def down(cls) -> "QubitState":
        return cls(0.0j, 1.0 + 0.0j)

    @property
    def probability_up(self) -> float:
        return abs(self.up_amp) ** 2

    def as_vector(self) -> np.ndarray:
        return np.array([self.up_amp, self.down_amp], dtype=complex)


@dataclass(frozen=True)
class Unitary2:
    """A 2x2 unitary stored entrywise; construction rejects non-unitary input."""

    u11: complex
    u12: complex
    u21: complex
    u22: complex

    def __post_init__(self) -> None:
        a, b, c, d = complex(self.u11), complex(self.u12), complex(self.u21), complex(self.u22)
        object.__setattr__(self, "u11", a)
        object.__setattr__(self, "u12", b)
        object.__setattr__(self, "u21", c)
        object.__setattr__(self, "u22", d)
        # The three distinct entries of |U^H U - I| (the fourth mirrors the
        # off-diagonal one); NaN or inf fails every comparison below.
        dev = (
            abs(a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0),
            abs(b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0),
            abs(a.conjugate() * b + c.conjugate() * d),
        )
        if not (dev[0] <= _UNITARY_TOL and dev[1] <= _UNITARY_TOL and dev[2] <= _UNITARY_TOL):
            worst = next(x for x in dev if not x <= _UNITARY_TOL)
            raise ConfigError(f"matrix is not unitary within {_UNITARY_TOL}: deviation {worst:g}")

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=complex)


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled up-state probability P_up(t0 + k*dt), k = 0..len-1."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError("values must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("values contain non-finite entries")
        if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
            raise ConfigError("probabilities leave [0, 1] by more than 1e-9")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.values.size - 1)


def drive_epsilon(t, p: DriveParams):
    """Instantaneous bias eps(t) = epsilon0 + amplitude*cos(omega*t + phi).

    Accepts a scalar or an ndarray of times and returns the same shape.
    """
    return p.epsilon0 + p.amplitude * np.cos(p.omega * np.asarray(t, dtype=float) + p.phi)


def hamiltonian(t: float, p: DriveParams) -> np.ndarray:
    """H(t) = -(delta/2) sigma_x - (eps(t)/2) sigma_z as a 2x2 complex array."""
    eps = float(drive_epsilon(float(t), p))
    return np.array(
        [[-0.5 * eps, -0.5 * p.delta], [-0.5 * p.delta, 0.5 * eps]],
        dtype=complex,
    )


def _step_entries(eps_mid: np.ndarray, delta: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Entries (u11, u12) of exp(-i h H) with the bias frozen at each eps_mid.

    For H = a sigma_x + b sigma_z (a = -delta/2, b = -eps_mid/2):
    exp(-i h H) = cos(h r) I - i sin(h r)/r (a sigma_x + b sigma_z) with
    r = hypot(a, b); u21 = u12 and u22 = conj(u11).  Returns arrays shaped
    like eps_mid.
    """
    a = -0.5 * delta
    b = -0.5 * eps_mid
    r = np.hypot(a, b)
    theta = h * r
    # sin(h r)/r -> h as r -> 0 (possible only for delta = 0 at eps_mid = 0).
    s = np.where(r > 0.0, np.sin(theta) / np.where(r > 0.0, r, 1.0), h)
    u11 = np.cos(theta) - 1j * (s * b)
    u12 = (-1j * a) * s
    return u11, u12


def step_unitary(t: float, h: float, p: DriveParams) -> Unitary2:
    """One exponential-midpoint substep covering [t, t + h]."""
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigError(f"step size must be positive, got {h!r}")
    u11s, u12s = _step_entries(drive_epsilon([t + 0.5 * h], p), p.delta, h)
    return _unitary(complex(u11s[0]), complex(u12s[0]))


def _compose(a1, b1, a2, b2):
    """(a, b) of the product X Y of X = (a1, b1) and Y = (a2, b2).

    A pair (a, b) stands for [[a, b], [-conj(b), conj(a)]], the form of
    every midpoint factor (u12 is imaginary, so u21 = u12 = -conj(u12));
    products keep it.  Works on complex scalars and broadcasting arrays.
    """
    return a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def _unitary(a: complex, b: complex) -> Unitary2:
    """The Unitary2 [[a, b], [-conj(b), conj(a)]] of an SU(2) pair (a, b)."""
    return Unitary2(a, b, -b.conjugate(), a.conjugate())


def _running_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running products W_1..W_n = F_1, F_2 F_1, ..., F_n...F_1 of factors (a, b).

    Odd-even scan: the products of neighbouring pairs are scanned
    recursively, which gives every odd index, and each even index takes
    one more factor.  The work is O(n) vectorised operations and every
    W_j is a product of at most 2 log2(n) rounded factors, where the
    sequential product of j factors rounds j times.
    """
    n = a.size
    if n == 1:
        return a, b
    qa, qb = _running_products(*_compose(a[1::2], b[1::2], a[:-1:2], b[:-1:2]))
    wa = np.empty_like(a)
    wb = np.empty_like(b)
    wa[0], wb[0] = a[0], b[0]
    wa[1::2], wb[1::2] = qa, qb
    e = (n - 1) // 2
    wa[2::2], wb[2::2] = _compose(a[2::2], b[2::2], qa[:e], qb[:e])
    return wa, wb


def _block_products(eps_of, delta: float, t_start: float, h: float, n: int):
    """Yield (i0, wa, wb) for each block of at most _CHUNK substeps from t_start.

    Substep i covers [t_start + i h, t_start + (i+1) h] with the bias
    eps_of(t) frozen at its midpoint; (wa, wb) are the running products of
    the block's factors, so wa[-1], wb[-1] is the whole block.
    """
    for i0 in range(0, n, _CHUNK):
        t_mid = t_start + h * (np.arange(i0, min(i0 + _CHUNK, n)) + 0.5)
        yield (i0, *_running_products(*_step_entries(eps_of(t_mid), delta, h)))


def _product(eps_of, delta: float, t_start: float, h: float, n: int) -> tuple[complex, complex]:
    """(a, b) of the composed midpoint propagator over n substeps from t_start."""
    ua, ub = 1.0 + 0.0j, 0.0j
    for _, wa, wb in _block_products(eps_of, delta, t_start, h, n):
        ua, ub = _compose(complex(wa[-1]), complex(wb[-1]), ua, ub)
    return ua, ub


def _apply(a, b, u, d):
    """State (u, d) after the SU(2) pair (a, b)."""
    return a * u + b * d, -b.conjugate() * u + a.conjugate() * d


def _up_probability(a, b, u, d, out: np.ndarray) -> None:
    """out = |a u + b d|^2, the up population of (u, d) after (a, b); broadcasts."""
    amp = a * u + b * d
    np.square(amp.real, out=out)
    out += np.square(amp.imag)


def _powers(ua: complex, ub: complex, u0: complex, d0: complex, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States (u_k, d_k) = U^k (u0, d0) for the one-cycle SU(2) pair U = (ua, ub).

    U has eigenphases +-lambda (cos lambda = Re ua, sin lambda =
    hypot(Im ua, |ub|)), so U^k = cos(k lambda) I + sin(k lambda)/sin(lambda)
    (U - cos(lambda) I) for every integer k in the array: exactly unitary
    however large k is, where repeated multiplication would round k times.
    Every stroboscopic path powers its cycle here.

    Raises QuadratureError if |ua|^2 + |ub|^2 drifts from 1 by more than
    1e-10: the cycle itself is then not unitary.
    """
    norm2 = ua.real * ua.real + ua.imag * ua.imag + ub.real * ub.real + ub.imag * ub.imag
    if abs(norm2 - 1.0) > 1e-10:
        raise QuadratureError(f"norm drifted to {norm2!r} over one period; integrator state corrupted")
    sin_l = math.hypot(ua.imag, abs(ub))
    lam = math.atan2(sin_l, ua.real)
    # (U - cos(lambda) I) psi0 / sin(lambda); U = +-I when sin(lambda) = 0.
    gu, gd = (0.0j, 0.0j) if sin_l == 0.0 else (
        (1j * ua.imag * u0 + ub * d0) / sin_l,
        (-ub.conjugate() * u0 - 1j * ua.imag * d0) / sin_l,
    )
    c, s = np.cos(k * lam), np.sin(k * lam)
    return c * u0 + s * gu, c * d0 + s * gd


def _floquet_samples(p: DriveParams, h: float, spp: int, u0: complex, d0: complex, out: np.ndarray) -> None:
    """Fill out[i] = P_up(i h) from (u0, d0) on a period-aligned grid, h = T/spp.

    Builds one period's factors and their prefixes W_j, takes U_T = W_spp
    and powers it with _powers (see propagate_exact); rows of periods are
    written in blocks of at most _CHUNK samples.
    """
    wa, wb = _running_products(*_step_entries(drive_epsilon(h * (np.arange(spp) + 0.5), p), p.delta, h))
    ua, ub = complex(wa[-1]), complex(wb[-1])
    # Prefixes W_0 = I, W_1, ..., W_{spp-1}: the samples within a period.
    wa = np.concatenate(([1.0 + 0.0j], wa[:-1]))
    wb = np.concatenate(([0.0j], wb[:-1]))
    periods, r = divmod(out.size - 1, spp)
    grid = out[: periods * spp].reshape(periods, spp)
    rows = max(1, _CHUNK // spp)
    for k0 in range(0, periods + 1, rows):
        k = np.arange(k0, min(k0 + rows, periods + 1))
        u, d = _powers(ua, ub, u0, d0, k)
        u, d = u[:, None], d[:, None]
        if k[-1] == periods:
            # The last period boundary and the partial period after it.
            _up_probability(wa[: r + 1], wb[: r + 1], u[-1], d[-1], out[periods * spp :])
            u, d = u[:-1], d[:-1]
        _up_probability(wa, wb, u, d, grid[k0 : k0 + len(u)])


def _substep_count(p: DriveParams, duration: float, steps_per_period: int) -> tuple[int, bool]:
    """Substeps covering duration, and whether they tile the drive period.

    A ratio duration/T * steps_per_period within 4 ulps of an integer is
    taken as that integer, so h = T/steps_per_period and the grid is
    period-aligned (True).  Rounding can push the ratio for a whole number
    of periods just above an integer, and its ceiling would add a substep
    and move every sample off the period grid.  Any other ratio is rounded
    up (False).
    """
    x = duration / p.period * steps_per_period
    n = round(x)
    if n >= 1 and abs(x - n) <= 4.0 * math.ulp(x):
        return n, True
    return max(1, math.ceil(x)), False


def evolution_operator(
    p: DriveParams, t_start: float, t_end: float, steps_per_period: int = 256
) -> Unitary2:
    """Composed midpoint propagator from t_start to t_end (t_end > t_start)."""
    if steps_per_period < 16:
        raise ConfigError(f"steps_per_period must be >= 16, got {steps_per_period}")
    if not t_end > t_start:
        raise ConfigError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    n, _ = _substep_count(p, t_end - t_start, steps_per_period)
    ua, ub = _product(lambda t: drive_epsilon(t, p), p.delta, t_start, (t_end - t_start) / n, n)
    return _unitary(ua, ub)


def propagate_exact(
    p: DriveParams,
    psi0: QubitState,
    t_end: float,
    steps_per_period: int = 256,
) -> TimeSeries:
    """Evolve psi0 from t = 0 to t_end, recording P_up at every substep.

    Parameters
    ----------
    p : DriveParams
    psi0 : QubitState
        State at t = 0.
    t_end : float
        Final time, > 0.
    steps_per_period : int
        Substeps per drive period, >= 16 (default 256).  The substep is
        h = t_end / n with n = t_end/T * steps_per_period, rounded up
        unless it is an integer to within 4 ulps, so samples are uniform
        and the last one lands exactly on t_end.

    Returns
    -------
    TimeSeries
        P_up at t = 0, h, 2h, ..., t_end (n+1 samples).

    Notes
    -----
    When n is an integer the grid is period-aligned: h = T/steps_per_period
    and H(t + T) = H(t), so every period applies the same factors.  Only
    one period's factors F_1..F_spp are built; their running products
    W_j (W_0 = I) come from a log-depth scan and U_T = W_spp.  U_T is in
    SU(2) form with eigenphases +-lambda (cos lambda = Re u11, sin lambda
    = hypot(Im u11, |u12|)), so the period-boundary states follow in
    closed form, psi_k = U_T^k psi0 = cos(k lambda) psi0
    + sin(k lambda) (U_T - cos lambda I) psi0 / sin lambda, exactly unitary
    for every k, and P_up(kT + jh) = |[W_j psi_k]_up|^2.  A partial last
    period uses the first r prefixes.  U_T is never powered by repeated
    multiplication, whose rounding compounds over the periods.  Any other
    t_end composes all n factors block by block with the same scan.

    Raises
    ------
    QuadratureError
        If norm^2 drifts from 1 by more than 1e-10: over one period U_T
        on a period-aligned grid, else the final state.
    """
    if steps_per_period < 16:
        raise ConfigError(f"steps_per_period must be >= 16, got {steps_per_period}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError(f"t_end must be positive, got {t_end!r}")
    n, aligned = _substep_count(p, t_end, steps_per_period)
    h = t_end / n
    u0 = complex(psi0.up_amp)
    d0 = complex(psi0.down_amp)
    out = np.empty(n + 1)
    if aligned:
        _floquet_samples(p, h, steps_per_period, u0, d0, out)
    else:
        out[0] = u0.real * u0.real + u0.imag * u0.imag
        cu, cd = u0, d0
        for i0, wa, wb in _block_products(lambda t: drive_epsilon(t, p), p.delta, 0.0, h, n):
            _up_probability(wa, wb, cu, cd, out[i0 + 1 : i0 + 1 + wa.size])
            cu, cd = _apply(complex(wa[-1]), complex(wb[-1]), cu, cd)
        norm2 = cu.real * cu.real + cu.imag * cu.imag + cd.real * cd.real + cd.imag * cd.imag
        if abs(norm2 - 1.0) > 1e-10:
            raise QuadratureError(f"norm drifted to {norm2!r}; integrator state corrupted")
    np.clip(out, 0.0, 1.0, out=out)
    return TimeSeries(t0=0.0, dt=h, values=out)


def propagate_linear_sweep(
    delta: float,
    v: float,
    span: float,
    psi0: QubitState,
    steps: int = 20000,
) -> QubitState:
    """Evolve through a single linear bias sweep eps(t) = v*t.

    The sweep runs from eps = -span to eps = +span (time -span/v to
    +span/v) with the same midpoint-exponential rule as the harmonic
    propagator.  Used as the numerical reference for the single-crossing
    transition probability; span should be much larger than delta for
    the asymptotic formulas to apply.
    """
    if steps < 1000:
        raise ConfigError(f"steps must be >= 1000, got {steps}")
    if not (math.isfinite(v) and v > 0.0):
        raise ConfigError(f"sweep rate must be positive, got {v!r}")
    if not (math.isfinite(span) and span > 0.0):
        raise ConfigError(f"span must be positive, got {span!r}")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ConfigError(f"delta must be nonnegative, got {delta!r}")
    a, b = _product(lambda t: v * t, delta, -span / v, 2.0 * span / (v * steps), steps)
    return QubitState(*_apply(a, b, complex(psi0.up_amp), complex(psi0.down_amp)))
