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
time-discretization error is second order in the substep.  ``Unitary2``
is that form held as its pair (a, b): the constructor checks
|a|^2 + |b|^2 = 1, and ``as_matrix`` derives the lower row.

Factors are composed as (a, b) pairs by a vectorised log-depth scan,
``_running_products``: a doubling scan up to 256 factors (one period of a
scan cell), an odd-even scan above.  The walker ``_walk`` carries a state
through n substeps in blocks of at most ``_CHUNK`` factors; it serves
``evolution_operator``, ``propagate_linear_sweep`` and ``propagate_exact``
off the period grid.  Every other sample comes from a one-period form,
``_periodic_form``: one cycle's prefixes and eigenphase give
P(k m + j) = A_j + Re(B_j e^{2ik lambda}) (Shirley, Phys. Rev. 138, B979
(1965)), and ``_form_values`` writes its samples.  It serves
``propagate_exact`` on every period-aligned grid (H(t + T) = H(t), so one
period serves all) and, with m = 1, ``propagate_tm`` and
``stroboscopic_exact``; no cycle is powered by repeated multiplication.
A period-aligned ``propagate_exact`` series keeps its form, which
``analysis.extract_frequency`` reads, and writes its samples on the first
read of ``values``, so a run read only through its form (a scan cell)
writes no trace.  Every computed series, copies and unpickled ones
included, comes from ``TimeSeries._computed``.  ``_check_norm`` holds the
one 1e-10 norm bound, and ``_substep_count`` the run limits of every grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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

# Factor tables and sample blocks hold at most this many entries (a block of
# substeps, or whole periods of samples), so no run builds its whole substep
# table; it is also the largest steps_per_period, so one period fits a block.
_CHUNK = 1 << 16

# Running products of at most this many factors take the doubling scan, whose
# O(n log n) work costs fewer numpy calls than the odd-even scan at this size.
_DOUBLING_MAX = 256

# Largest trace propagate_exact records (0.8 GB of float64); a run of this
# many substeps or more is a ConfigError, raised before anything is allocated.
_MAX_SAMPLES = 10**8


def _count(name: str, value, low: int, high: int) -> int:
    """value if it is an int (not a bool) in [low, high], else ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        raise ConfigError(f"{name} must be an integer >= {low} and <= {high}, got {value!r}")
    return value


def _is_number(value) -> bool:
    """True if value is a finite int or float, not a bool; an int too large for a float is not finite."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _real_array(name: str, values) -> np.ndarray:
    """values as a new float array if it holds ints or floats (no bools, strings or ragged lists), else ConfigError."""
    try:
        arr = np.array(values)
    except ValueError as exc:  # a ragged list
        raise ConfigError(f"{name} must hold integers or floats in a regular array") from exc
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must hold integers or floats, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _amplitude(name: str, value) -> complex:
    """value as a complex if it is an int, float or complex number (not a bool or a string), else ConfigError.

    An int too large for a float is refused here; NaN and inf pass, and the
    norm checks of QubitState and Unitary2 refuse them.
    """
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        try:
            return complex(value)
        except OverflowError:
            pass
    raise ConfigError(f"{name} must be an int, float or complex number, got {value!r}")


def _positive(name: str, value) -> float:
    """value as a float if it is a number (``_is_number``) > 0, else ConfigError."""
    if not (_is_number(value) and value > 0):
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return float(value)


def _finite(name: str, value) -> float:
    """value as a float if it is a number (``_is_number``), else ConfigError."""
    if not _is_number(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _nearest_integer(x: float) -> int:
    """Integer nearest to x; a half-integer tie within 1e-12 goes to the smaller one."""
    lo = math.floor(x)
    return lo if (x - lo) - (lo + 1 - x) <= 1e-12 else lo + 1


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
            if type(v) is float and math.isfinite(v):
                continue  # a finite plain float is stored as it is
            object.__setattr__(self, name, _finite(name, v))
        _positive("delta", self.delta)
        _positive("omega", self.omega)
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
        cu = _amplitude("up_amp", self.up_amp)
        cd = _amplitude("down_amp", self.down_amp)
        object.__setattr__(self, "up_amp", cu)
        object.__setattr__(self, "down_amp", cd)
        norm2 = cu.real * cu.real + cu.imag * cu.imag + cd.real * cd.real + cd.imag * cd.imag
        if not math.isfinite(norm2) or abs(norm2 - 1.0) > _NORM_TOL:
            raise ConfigError(f"state norm^2 = {norm2!r} is not 1 within {_NORM_TOL}")

    @classmethod
    def up(cls) -> "QubitState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def down(cls) -> "QubitState":
        return cls(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class Unitary2:
    """The SU(2) matrix [[u11, u12], [-conj(u12), conj(u11)]] of the pair (u11, u12), |u11|^2 + |u12|^2 = 1.

    Each entry is an int, float or complex number (not a bool or a
    string), and the pair must lie on the unit sphere within 1e-10; NaN or
    inf fails (ConfigError).  The lower row is derived, so det = 1 holds
    by construction.
    """

    u11: complex
    u12: complex

    def __post_init__(self) -> None:
        a, b = _amplitude("u11", self.u11), _amplitude("u12", self.u12)
        self.__dict__.update(u11=a, u12=b)
        dev = abs(a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag - 1.0)
        if not dev <= _UNITARY_TOL:
            raise ConfigError(f"|u11|^2 + |u12|^2 is not 1 within {_UNITARY_TOL}: deviation {dev:g}")

    def as_matrix(self) -> np.ndarray:
        a, b = self.u11, self.u12
        return np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)


class _Form(NamedTuple):
    """One period of a period-aligned trace: P(k m + j) = mean[j] + Re(swing[j] e^{2 i k lam}), m = mean.size."""

    mean: np.ndarray
    swing: np.ndarray
    lam: float


@dataclass(frozen=True, eq=False, repr=False)
class TimeSeries:
    """Uniformly sampled up-state probability P_up(t0 + k*dt), k = 0..len-1; read-only.

    ``TimeSeries(t0, dt, values)`` takes a finite number t0 and a
    positive dt, and copies values, a nonempty 1-D array of ints or floats
    in [0, 1] (to 1e-9).  Every series the package computes,
    copies and unpickled ones included (``__reduce__``), comes from
    ``_computed``, so its values and form stay read-only.

    ``_form`` is the one-period ``_Form`` of a period-aligned
    ``propagate_exact`` run (else None), which ``analysis.extract_frequency``
    reads; such a series writes its samples from it (``_form_values``) on
    the first read of ``values`` and keeps them.  ``len``, ``t_end``,
    ``times()`` and ``repr`` do not write them.
    """

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self) -> None:
        t0 = _finite("t0", self.t0)
        dt = _positive("dt", self.dt)
        arr = _real_array("values", self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError("values must be a nonempty 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("values contain non-finite entries")
        if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
            raise ConfigError("probabilities leave [0, 1] by more than 1e-9")
        arr.flags.writeable = False
        self.__dict__.update(t0=t0, dt=dt, values=arr, _form=None, _size=arr.size)

    @classmethod
    def _computed(cls, t0: float, dt: float, size: int, form: _Form | None = None, values=None) -> "TimeSeries":
        """A series of size samples: values adopted without a copy, or written from form on first read, or both.

        The arrays are made read-only.  The samples are finite exactly when
        the form is, so the check runs on the form when there is one.
        """
        if form is None:
            finite = np.isfinite(values).all()
        else:
            finite = math.isfinite(form.lam) and np.isfinite(form.mean).all() and np.isfinite(form.swing).all()
            form.mean.flags.writeable = form.swing.flags.writeable = False
        if not finite:
            raise ConfigError("values contain non-finite entries")
        ts = object.__new__(cls)
        ts.__dict__.update(t0=t0, dt=dt, _form=form, _size=size)
        if values is not None:
            values.flags.writeable = False
            ts.__dict__["values"] = values
        return ts

    def __reduce__(self):
        return type(self)._computed, (self.t0, self.dt, self._size, self._form, self.__dict__.get("values"))

    def __getattr__(self, name: str):
        # Normal lookup found nothing: on a period-aligned series, values before their first read.
        form = self.__dict__.get("_form") if name == "values" else None
        if form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = self.__dict__["values"] = _form_values(form, self._size)
        values.flags.writeable = False
        return values

    def __repr__(self) -> str:
        return f"{type(self).__name__}(t0={self.t0!r}, dt={self.dt!r}, {self._size} samples)"

    def __len__(self) -> int:
        return self._size

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self._size)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self._size - 1)


def drive_epsilon(t, p: DriveParams):
    """Instantaneous bias eps(t) = epsilon0 + amplitude*cos(omega*t + phi).

    Accepts a scalar or an ndarray of times and returns the same shape.
    """
    return p.epsilon0 + p.amplitude * np.cos(p.omega * np.asarray(t, dtype=float) + p.phi)


def hamiltonian(t: float, p: DriveParams) -> np.ndarray:
    """H(t) = -(delta/2) sigma_x - (eps(t)/2) sigma_z as a 2x2 complex array; t a finite number."""
    eps = float(drive_epsilon(_finite("t", t), p))
    return np.array(
        [[-0.5 * eps, -0.5 * p.delta], [-0.5 * p.delta, 0.5 * eps]],
        dtype=complex,
    )


def _step_entries(eps_mid: np.ndarray, delta: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Entries (u11, u12) of exp(-i h H) with the bias frozen at each eps_mid.

    For H = a sigma_x + b sigma_z (a = -delta/2, b = -eps_mid/2):
    exp(-i h H) = cos(h r) I - i sin(h r)/r (a sigma_x + b sigma_z) with
    r = hypot(a, b); u12 is imaginary, so the lower row [-conj(u12),
    conj(u11)] is [u12, conj(u11)].  Returns arrays shaped like eps_mid.
    """
    a = -0.5 * delta
    b = -0.5 * eps_mid
    r = np.hypot(a, b)
    theta = h * r
    # sin(h r)/r -> h as r -> 0 (possible only for delta = 0 at eps_mid = 0).
    s = np.divide(np.sin(theta), r, out=np.full_like(r, h), where=r > 0.0)
    u11 = np.cos(theta) - 1j * (s * b)
    u12 = (-1j * a) * s
    return u11, u12


def step_unitary(t: float, h: float, p: DriveParams) -> Unitary2:
    """One exponential-midpoint substep covering [t, t + h]; t a finite number, h > 0."""
    _finite("t", t)
    _positive("step size", h)
    u11s, u12s = _step_entries(drive_epsilon([t + 0.5 * h], p), p.delta, h)
    return Unitary2(complex(u11s[0]), complex(u12s[0]))


def _compose(a1, b1, a2, b2):
    """(a, b) of the product X Y of X = (a1, b1) and Y = (a2, b2).

    A pair (a, b) stands for [[a, b], [-conj(b), conj(a)]], the form of
    every midpoint factor and of ``Unitary2``; products keep it.  Works on
    complex scalars and broadcasting arrays.
    """
    return a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def _running_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running products W_1..W_n = F_1, F_2 F_1, ..., F_n...F_1 of factors (a, b).

    Up to _DOUBLING_MAX factors, a doubling (Hillis-Steele) scan: the step
    of span d composes every entry i >= d with entry i - d, so after the
    steps d = 1, 2, 4, ... entry i holds all factors up to i.  That is
    ceil(log2 n) vectorised compositions, each W_j a product of at most
    ceil(log2 n) + 1 rounded factors.  Longer runs take an odd-even scan:
    the products of neighbouring pairs are scanned recursively, which gives
    every odd index, and each even index takes one more factor.  Its work
    is O(n) vectorised operations, and W_j is a product of at most
    2 log2(n) rounded factors, where the sequential product of j factors
    rounds j times.
    """
    n = a.size
    if n <= _DOUBLING_MAX:
        a, b = a.copy(), b.copy()
        d = 1
        while d < n:
            a[d:], b[d:] = _compose(a[d:], b[d:], a[:-d], b[:-d])
            d *= 2
        return a, b
    qa, qb = _running_products(*_compose(a[1::2], b[1::2], a[:-1:2], b[:-1:2]))
    wa = np.empty_like(a)
    wb = np.empty_like(b)
    wa[0], wb[0] = a[0], b[0]
    wa[1::2], wb[1::2] = qa, qb
    e = (n - 1) // 2
    wa[2::2], wb[2::2] = _compose(a[2::2], b[2::2], qa[:e], qb[:e])
    return wa, wb


def _apply(a, b, u, d):
    """State (u, d) after the SU(2) pair (a, b)."""
    return a * u + b * d, -b.conjugate() * u + a.conjugate() * d


def _check_norm(u: complex, d: complex, span: str = "") -> None:
    """Raise QuadratureError if |u|^2 + |d|^2 drifts from 1 by more than 1e-10 (over span)."""
    norm2 = u.real * u.real + u.imag * u.imag + d.real * d.real + d.imag * d.imag
    if abs(norm2 - 1.0) > 1e-10:
        raise QuadratureError(f"norm drifted to {norm2!r}{span}; integrator state corrupted")


def _walk(eps_of, delta: float, t_start: float, h: float, n: int, u: complex, d: complex, out=None):
    """State (u, d) after n midpoint substeps of length h from t_start, bias eps_of(t).

    Factors are built and scanned in blocks of at most _CHUNK.  If out is
    given, out[i] = P_up after substep i + 1.  The final norm is checked.
    """
    for i0 in range(0, n, _CHUNK):
        t_mid = t_start + h * (np.arange(i0, min(i0 + _CHUNK, n)) + 0.5)
        wa, wb = _running_products(*_step_entries(eps_of(t_mid), delta, h))
        if out is not None:
            amp = wa * u + wb * d
            out[i0 : i0 + wa.size] = amp.real * amp.real + amp.imag * amp.imag
        u, d = _apply(complex(wa[-1]), complex(wb[-1]), u, d)
    _check_norm(u, d)
    return u, d


def _rotation(ua: complex, ub: complex, u0: complex, d0: complex) -> tuple[float, complex, complex]:
    """Eigenphase lambda of the one-cycle SU(2) pair U = (ua, ub) and g = (U - cos(lambda) I) (u0, d0) / sin(lambda).

    U has eigenphases +-lambda (cos lambda = Re ua, sin lambda =
    hypot(Im ua, |ub|)), so U^k = cos(k lambda) I + sin(k lambda)/sin(lambda)
    (U - cos(lambda) I) and U^k (u0, d0) = cos(k lambda) (u0, d0) +
    sin(k lambda) g for every integer k.  g = 0 when U = +-I.

    Raises QuadratureError if |ua|^2 + |ub|^2 drifts from 1 by more than
    1e-10: the cycle itself is then not unitary.
    """
    _check_norm(ua, ub, " over one period")
    sin_l = math.hypot(ua.imag, abs(ub))
    lam = math.atan2(sin_l, ua.real)
    gu, gd = (0.0j, 0.0j) if sin_l == 0.0 else (
        (1j * ua.imag * u0 + ub * d0) / sin_l,
        (-ub.conjugate() * u0 - 1j * ua.imag * d0) / sin_l,
    )
    return lam, gu, gd


def _periodic_form(wa, wb, ua: complex, ub: complex, u0: complex, d0: complex) -> _Form:
    """The ``_Form`` of P_up(W_j U^k psi0) for the prefixes W_j = (wa[j], wb[j]) of one cycle U = (ua, ub).

    Sample k m + j (m = wa.size) is the up population after W_j and k
    cycles from psi0 = (u0, d0).  U^k psi0 = cos(k lambda) psi0 +
    sin(k lambda) g (``_rotation``), exactly unitary however large k is, so
    with a_j = [W_j psi0]_up and b_j = [W_j g]_up the sample is
    |cos(k lambda) a_j + sin(k lambda) b_j|^2 = mean_j +
    Re(swing_j e^{2 i k lambda}), mean_j = (|a_j|^2 + |b_j|^2)/2 and
    swing_j = (|a_j|^2 - |b_j|^2)/2 - i Re(a_j conj(b_j)).
    """
    lam, gu, gd = _rotation(ua, ub, u0, d0)
    a, b = wa * u0 + wb * d0, wa * gu + wb * gd
    aa, bb = a.real * a.real + a.imag * a.imag, b.real * b.real + b.imag * b.imag
    mean, swing = 0.5 * (aa + bb), 0.5 * (aa - bb) - 1j * (a * b.conjugate()).real
    return _Form(mean, swing, lam)


def _form_values(form: _Form, size: int) -> np.ndarray:
    """Samples 0..size-1 of the form, clipped to [0, 1], written in rows of periods of at most _CHUNK samples."""
    m = form.mean.size
    out = np.empty(size)
    rows = _CHUNK // m
    for i0 in range(0, size, rows * m):
        k = np.arange(i0 // m, min(i0 // m + rows, -(-size // m)))
        phase = (2.0 * form.lam) * k[:, None]
        block = np.cos(phase) * form.swing.real
        block -= np.sin(phase) * form.swing.imag
        block += form.mean
        out[i0 : i0 + block.size] = block.reshape(-1)[: size - i0]
    return np.clip(out, 0.0, 1.0, out=out)


def _stroboscope(psi0: QubitState, pre, cycle, n_cycles: int, t0: float, dt: float) -> TimeSeries:
    """P_up of psi0 after the SU(2) pair pre and then k = 0..n_cycles cycles, from t0, dt apart.

    They come from the one-sample form of cycle (W_0 = I), so rounding does not limit n_cycles.
    """
    size = _count("n_cycles", n_cycles, 1, _MAX_SAMPLES - 1) + 1
    u0, d0 = _apply(*pre, psi0.up_amp, psi0.down_amp)
    form = _periodic_form(np.ones(1, complex), np.zeros(1, complex), *cycle, u0, d0)
    return TimeSeries._computed(t0, dt, size, values=_form_values(form, size))


def _steps_per_period(value) -> int:
    """value if it is an int in [16, _CHUNK], so one period's factors fit one block, else ConfigError."""
    return _count("steps_per_period", value, 16, _CHUNK)


def _substep_count(p: DriveParams, duration: float, steps_per_period: int) -> tuple[int, bool]:
    """Substeps covering duration, and whether they tile the drive period.

    A ratio duration/T * steps_per_period within 4 ulps of an integer is
    taken as that integer, so h = T/steps_per_period and the grid is
    period-aligned (True).  Rounding can push the ratio for a whole number
    of periods just above an integer, and its ceiling would add a substep
    and move every sample off the period grid.  Any other ratio is rounded
    up (False).  duration must be positive and finite, steps_per_period an
    int in [16, _CHUNK] and the ratio at most _MAX_SAMPLES - 1, infinity
    included (ConfigError, before anything is rounded or allocated).
    """
    x = _positive("duration", duration) / p.period * _steps_per_period(steps_per_period)
    if not x <= _MAX_SAMPLES - 1:
        raise ConfigError(f"a run of {x:.6g} substeps exceeds the {_MAX_SAMPLES - 1}-substep limit")
    n = round(x)
    if n >= 1 and abs(x - n) <= 4.0 * math.ulp(x):
        return n, True
    return max(1, math.ceil(x)), False


def evolution_operator(
    p: DriveParams, t_start: float, t_end: float, steps_per_period: int = 256
) -> Unitary2:
    """Composed midpoint propagator from t_start to t_end (finite numbers, t_end > t_start)."""
    _finite("t_start", t_start)
    _finite("t_end", t_end)
    n, _ = _substep_count(p, t_end - t_start, steps_per_period)
    u, d = _walk(lambda t: drive_epsilon(t, p), p.delta, t_start, (t_end - t_start) / n, n, 1.0 + 0.0j, 0.0j)
    return Unitary2(u, -d.conjugate())  # U |up> = (a, -conj(b)) for the pair (a, b) of U


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
        Final time, > 0.  The run may take at most 10^8 - 1 substeps.
    steps_per_period : int
        Substeps per drive period, in [16, 65536] (default 256).  The
        substep is h = t_end / n with n = t_end/T * steps_per_period,
        rounded up unless it is an integer to within 4 ulps, so samples are
        uniform and the last one lands exactly on t_end.

    Returns
    -------
    TimeSeries
        P_up at t = 0, h, 2h, ..., t_end (n+1 samples).

    Notes
    -----
    When n is an integer the grid is period-aligned: h = T/steps_per_period
    and H(t + T) = H(t), so every period applies the same factors.  Only
    one period's factors F_1..F_spp are built; their running products W_j
    (W_0 = I) give U_T = W_spp, in SU(2) form with eigenphases +-lambda
    (cos lambda = Re u11, sin lambda = hypot(Im u11, |u12|)).  Then
    U_T^k psi0 = cos(k lambda) psi0 + sin(k lambda) g, g = (U_T -
    cos lambda I) psi0 / sin lambda (zero when U_T = +-I), exactly unitary
    for every k, and every sample follows from the one-period form
    P(kT + jh) = A_j + Re(B_j e^{2ik lambda}), with A_j and B_j from
    a_j = [W_j psi0]_up and b_j = [W_j g]_up; a partial last period takes
    its first entries.  U_T is never powered by repeated multiplication,
    whose rounding compounds over the periods.  Every other run composes
    all n factors block by block with the same scan.

    The series keeps this form, O(steps_per_period), from which
    ``extract_frequency`` takes the boxcar amplitude and the spectrum in
    closed form, and writes its samples from it on the first read of
    ``values``; ``len(ts)``, ``ts.t_end`` and ``ts.times()`` do not write
    them, so a caller that reads only the form never pays for the trace.
    The norm check of U_T and the finiteness check of the samples (on the
    form, which is finite exactly when they are) still run here.

    Raises
    ------
    QuadratureError
        If norm^2 drifts from 1 by more than 1e-10: over one period U_T
        when one period is powered, else the final state.
    ConfigError
        If the samples are not finite (a drive that overflows).
    """
    n, aligned = _substep_count(p, t_end, steps_per_period)
    h = t_end / n
    u0, d0 = psi0.up_amp, psi0.down_amp
    if aligned:
        t_mid = h * (np.arange(steps_per_period) + 0.5)
        wa, wb = _running_products(*_step_entries(drive_epsilon(t_mid, p), p.delta, h))
        # Prefixes W_0 = I, ..., W_{spp-1} (the samples within a period), then U_T = W_spp.
        prefixes = np.concatenate(([1.0 + 0.0j], wa[:-1])), np.concatenate(([0.0j], wb[:-1]))
        form = _periodic_form(*prefixes, complex(wa[-1]), complex(wb[-1]), u0, d0)
        return TimeSeries._computed(0.0, h, n + 1, form=form)
    out = np.empty(n + 1)
    out[0] = u0.real * u0.real + u0.imag * u0.imag
    _walk(lambda t: drive_epsilon(t, p), p.delta, 0.0, h, n, u0, d0, out[1:])
    return TimeSeries._computed(0.0, h, n + 1, values=np.clip(out, 0.0, 1.0, out=out))


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
    the asymptotic formulas to apply.  The final state is renormalised:
    the walker's 1e-10 drift check guards it, and a long sweep may drift
    past QubitState's 1e-12 bound within that.
    """
    steps = _count("steps", steps, 1000, _MAX_SAMPLES - 1)
    v, span = _positive("sweep rate", v), _positive("span", span)
    if not (_is_number(delta) and delta >= 0.0):
        raise ConfigError(f"delta must be nonnegative, got {delta!r}")
    u, d = _walk(lambda t: v * t, delta, -span / v, 2.0 * span / (v * steps), steps, psi0.up_amp, psi0.down_amp)
    norm = math.hypot(abs(u), abs(d))
    return QubitState(u / norm, d / norm)
