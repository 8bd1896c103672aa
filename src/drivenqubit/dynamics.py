"""Physical model and exact time-domain propagation.

The system is a two-level system with fixed tunnelling splitting and a
harmonically driven bias,

    H(t) = -(Delta/2) sigma_x - (eps(t)/2) sigma_z,
    eps(t) = eps0 + A cos(omega t + phi),

in units with hbar = 1.  The basis is |up> = (1, 0), |down> = (0, 1), so
the upper-left entry of H is -eps(t)/2.

Propagation uses an exponential-midpoint rule: each substep applies the
closed-form exponential of the traceless Hermitian 2x2 Hamiltonian frozen
at the substep midpoint.  Every factor is exactly unitary up to rounding,
which is what makes million-step interference runs trustworthy; the
time-discretization error is second order in the substep.
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

# Substeps are generated and consumed in slabs of this many entries so a
# long run never materializes the whole substep table at once.
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

    @classmethod
    def identity(cls) -> "Unitary2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Unitary2":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ConfigError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.u11, self.u12], [self.u21, self.u22]], dtype=complex)

    def dagger(self) -> "Unitary2":
        return Unitary2(
            self.u11.conjugate(),
            self.u21.conjugate(),
            self.u12.conjugate(),
            self.u22.conjugate(),
        )

    def __matmul__(self, other: "Unitary2") -> "Unitary2":
        if not isinstance(other, Unitary2):
            return NotImplemented
        return Unitary2(
            self.u11 * other.u11 + self.u12 * other.u21,
            self.u11 * other.u12 + self.u12 * other.u22,
            self.u21 * other.u11 + self.u22 * other.u21,
            self.u21 * other.u12 + self.u22 * other.u22,
        )

    def apply(self, state: QubitState) -> QubitState:
        return QubitState(
            self.u11 * state.up_amp + self.u12 * state.down_amp,
            self.u21 * state.up_amp + self.u22 * state.down_amp,
        )


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
    u11, u12 = complex(u11s[0]), complex(u12s[0])
    return Unitary2(u11, u12, u12, u11.conjugate())


def _substep_count(p: DriveParams, duration: float, steps_per_period: int) -> int:
    x = duration / p.period * steps_per_period
    # Rounding can push the ratio for a whole number of periods just above
    # an integer; its ceiling would add a substep and move every sample off
    # the period grid, so a ratio within 4 ulps of an integer counts as it.
    n = round(x)
    return max(1, n if abs(x - n) <= 4.0 * math.ulp(x) else math.ceil(x))


def evolution_operator(
    p: DriveParams, t_start: float, t_end: float, steps_per_period: int = 256
) -> Unitary2:
    """Composed midpoint propagator from t_start to t_end (t_end > t_start)."""
    if steps_per_period < 16:
        raise ConfigError(f"steps_per_period must be >= 16, got {steps_per_period}")
    if not t_end > t_start:
        raise ConfigError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    n = _substep_count(p, t_end - t_start, steps_per_period)
    h = (t_end - t_start) / n
    m11 = 1.0 + 0.0j
    m12 = 0.0j
    m21 = 0.0j
    m22 = 1.0 + 0.0j
    for i0 in range(0, n, _CHUNK):
        i1 = min(i0 + _CHUNK, n)
        t_mid = t_start + h * (np.arange(i0, i1) + 0.5)
        u11s, u12s = _step_entries(drive_epsilon(t_mid, p), p.delta, h)
        for a11, a12 in zip(u11s.tolist(), u12s.tolist()):
            a22 = a11.conjugate()
            m11, m12, m21, m22 = (
                a11 * m11 + a12 * m21,
                a11 * m12 + a12 * m22,
                a12 * m11 + a22 * m21,
                a12 * m12 + a22 * m22,
            )
    return Unitary2(m11, m12, m21, m22)


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
        h = t_end / ceil(t_end/T * steps_per_period), so samples are
        uniform and the last one lands exactly on t_end; a whole number
        of periods gives exactly periods * steps_per_period substeps.

    Returns
    -------
    TimeSeries
        P_up at t = 0, h, 2h, ..., t_end (n+1 samples).

    Raises
    ------
    QuadratureError
        If the final state's norm^2 drifts from 1 by more than 1e-10.
    """
    if steps_per_period < 16:
        raise ConfigError(f"steps_per_period must be >= 16, got {steps_per_period}")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ConfigError(f"t_end must be positive, got {t_end!r}")
    n = _substep_count(p, t_end, steps_per_period)
    h = t_end / n
    cu = complex(psi0.up_amp)
    cd = complex(psi0.down_amp)
    out = np.empty(n + 1)
    out[0] = cu.real * cu.real + cu.imag * cu.imag
    k = 1
    for i0 in range(0, n, _CHUNK):
        i1 = min(i0 + _CHUNK, n)
        t_mid = h * (np.arange(i0, i1) + 0.5)
        u11s, u12s = _step_entries(drive_epsilon(t_mid, p), p.delta, h)
        for a11, a12 in zip(u11s.tolist(), u12s.tolist()):
            cu, cd = a11 * cu + a12 * cd, a12 * cu + a11.conjugate() * cd
            out[k] = cu.real * cu.real + cu.imag * cu.imag
            k += 1
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
    t_i = -span / v
    h = 2.0 * span / (v * steps)
    t_mid = t_i + h * (np.arange(steps) + 0.5)
    u11s, u12s = _step_entries(v * t_mid, delta, h)
    cu = complex(psi0.up_amp)
    cd = complex(psi0.down_amp)
    for a11, a12 in zip(u11s.tolist(), u12s.tolist()):
        cu, cd = a11 * cu + a12 * cd, a12 * cu + a11.conjugate() * cd
    return QubitState(cu, cd)
