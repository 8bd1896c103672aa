"""Trace analysis, regime classification, and resonance scans.

The propagators in :mod:`dynamics` produce raw P_up(t) traces; everything
here reduces them to the observables the approximate treatments predict:
the slow oscillation frequency, the envelope amplitude, resonance-ridge
positions over parameter grids, and half-widths of individual ridges.

Conventions:

* All spectral quantities are angular frequencies.
* Traces are coarse-grained by a one-drive-period boxcar before spectral
  analysis, so the fast micromotion at the drive frequency and its
  harmonics is removed and only the slow envelope survives.
* Parameter scans fix delta = 1; absolute units are restored at the
  serialization layer, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    _MAX_SAMPLES, DriveParams, QubitState, TimeSeries, _is_number, _positive, _real_array, _steps_per_period,
    _stroboscope, evolution_operator, propagate_exact,
)
from .errors import BracketError, ConfigError, DrivenQubitError, InsufficientDataError, RegimeError
from .rwa import rwa_predict
from .transfer_matrix import crossing_times, tm_slow_frequency, tm_slow_resonance_lhs

__all__ = [
    "FrequencyEstimate",
    "RegimeLabel",
    "ScanResult",
    "classify_regime",
    "extract_frequency",
    "measure_resonance_width",
    "scan_resonance_map",
    "stroboscopic_exact",
]

# Envelope peak-to-peak below which a trace is reported as CDT-like.
_SUPPRESSED_AMPLITUDE = 0.02

# Sub-regime thresholds on A*omega/delta^2.  The underlying criteria are
# asymptotic (>> 1 and << 1); the factor-of-ten cutoffs make them usable
# as a classifier.  They are fixed: README states them, and the tests pin
# the label on each side of each cut.
_TM_FAST_MIN = 10.0
_TM_SLOW_MAX = 0.1

_MIN_SAMPLES = 32
# Amplitude ratio equivalent to 3 dB; a secondary peak above it is ambiguous.
_AMBIGUOUS_RATIO = 10.0 ** (-3.0 / 20.0)
_AMBIGUOUS_MIN_SEPARATION = 3

# The closed-form spectrum (``_form_spectrum``) sums the exponentials of the
# boxcar whose weight is at least _LINE_FLOOR of the strongest, at the bins
# within _LINE_REACH of those at least _STRONG_LINE of it.  A boxcar whose
# strongest exponential weighs at most _FLAT_WEIGHT, the rounding level of a
# probability, is flat: its lines are rounding noise, all of them "strong".
_LINE_FLOOR = 1e-15
_STRONG_LINE = 0.25
_LINE_REACH = 4
_FLAT_WEIGHT = 1e-14


@dataclass(frozen=True)
class FrequencyEstimate:
    """Dominant slow frequency of a coarse-grained population trace.

    Attributes
    ----------
    omega_est : float
        Angular frequency of the strongest non-DC spectral peak.
    amplitude : float
        Peak-to-peak excursion of the coarse-grained P_up, in [0, 1].
    flags : tuple of str
        Subset of {"suppressed", "ambiguous"}.  "suppressed" marks
        CDT-like traces (amplitude below 0.02),
        where ``omega_est`` is noise-dominated and should not be
        trusted; "ambiguous" marks a secondary peak within 3 dB.
    """

    omega_est: float
    amplitude: float
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (_is_number(self.omega_est) and self.omega_est >= 0.0):
            raise ConfigError(f"omega_est must be a finite number >= 0, got {self.omega_est!r}")
        if not (_is_number(self.amplitude) and -1e-9 <= self.amplitude <= 1.0 + 1e-9):
            raise ConfigError(f"amplitude must be a number in [0, 1], got {self.amplitude!r}")


@dataclass(frozen=True)
class RegimeLabel:
    """Validity-region classification of a drive configuration.

    ``label`` is the most specific applicable region; the booleans expose
    every region whose condition holds, since the regions overlap.
    """

    label: str
    ratios: tuple[float, float, float]
    rabi: bool
    rwa: bool
    tm: bool
    tm_speed: str | None


# Scan and width runs cover _TARGET_SLOW_PERIODS oscillations of the slowest
# prediction, with at least _MIN_DRIVE_PERIODS drive periods; a run capped at
# _MAX_DRIVE_PERIODS is flagged "below_resolution".
_TARGET_SLOW_PERIODS = 5.0
_MIN_DRIVE_PERIODS = 50
_MAX_DRIVE_PERIODS = 5000

_SCAN_PARAMETERS = ("epsilon0", "amplitude", "omega")
_MAX_SCAN_CELLS = 1_000_000


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Gridded frequency estimates with analytic predictions attached.

    All 2-D arrays are indexed ``[i, j]`` with ``i`` along ``axis1`` and
    ``j`` along ``axis2``.  Prediction columns are NaN where the
    corresponding treatment is inapplicable (e.g. the transfer matrix
    at A <= epsilon0), and extraction columns are NaN for cells whose
    simulation or extraction failed; such cells carry an "error:..."
    flag and the scan continues.
    """

    fixed_name: str
    fixed_value: float
    axis1_name: str
    axis2_name: str
    axis1: np.ndarray
    axis2: np.ndarray
    omega_est: np.ndarray
    amplitude: np.ndarray
    omega_rwa: np.ndarray
    omega_tm: np.ndarray
    slow_lhs: np.ndarray
    flags: tuple[tuple[tuple[str, ...], ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        shape = (len(self.axis1), len(self.axis2))
        for name in ("omega_est", "amplitude", "omega_rwa", "omega_tm", "slow_lhs"):
            if getattr(self, name).shape != shape:
                raise ConfigError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if len(self.flags) != shape[0] or any(len(row) != shape[1] for row in self.flags):
            raise ConfigError("flags grid does not match the axis shape")


def extract_frequency(ts: TimeSeries, drive_period: float | None = None) -> FrequencyEstimate:
    """Estimate the dominant slow angular frequency of a P_up trace.

    The trace is boxcar-averaged over one drive period (when
    ``drive_period`` is given), mean-subtracted, Hann-windowed, and
    Fourier-transformed; the strongest non-DC bin is refined by
    quadratic interpolation of the log magnitude.

    A series from ``propagate_exact`` on a period-aligned grid carries the
    one-period form of its samples, P(k m + j) = A_j + Re(B_j e^{2ik lambda})
    (see ``propagate_exact``).  When the boxcar spans
    exactly its m samples, the estimate comes from the form in O(m) work,
    without reading the trace: the boxcar is mean(A) + Re(Z_j e^{2ik lambda})
    with Z from a two-period prefix sum of B, the amplitude is its max - min
    over the windows the trace has, and the Hann spectrum is summed from
    the closed-form kernel at the bins near its strong lines.  It agrees
    with the FFT of the same samples to rounding: the amplitude to 1e-10,
    ``omega_est`` to 1e-6 bins and the flags away from the 0.02 and 3 dB
    thresholds.  Any other series or another boxcar width takes the FFT.

    Raises
    ------
    InsufficientDataError
        Fewer than 32 usable samples.
    """
    n = len(ts)
    if n < _MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    width = 1
    if drive_period is not None:
        ratio = _positive("drive_period", drive_period) / ts.dt
        if not ratio < n:  # inf included, which no boxcar width can round to
            raise InsufficientDataError(f"trace of {n} samples is shorter than one drive period ({ratio:.6g} samples)")
        width = max(1, int(round(ratio)))
        if width >= 2 and n < 2 * width:
            raise InsufficientDataError(f"trace of {n} samples is too short for a {width}-sample boxcar")
    size = n - width + 1
    if size < _MIN_SAMPLES:
        raise InsufficientDataError(f"only {size} samples remain after coarse-graining")

    form = ts._form
    if form is not None and width == form.mean.size:
        amplitude, bins, mags = _form_spectrum(form, size)
    else:
        values = ts.values
        if width >= 2:
            csum = np.concatenate(([0.0], np.cumsum(values)))
            values = (csum[width:] - csum[:-width]) / width
        amplitude = float(np.max(values) - np.min(values))
        mags = np.abs(np.fft.rfft((values - values.mean()) * np.hanning(size)))
        bins = np.arange(mags.size)
    # Bin k sits at angular frequency 2*pi*k/(size*dt); DC is never a peak candidate.
    bin_step = 2.0 * math.pi / (size * ts.dt)
    position, ambiguous = _spectral_peak(bins, mags)

    amplitude = min(1.0, max(0.0, amplitude))
    flags: list[str] = []
    if amplitude < _SUPPRESSED_AMPLITUDE:
        flags.append("suppressed")
    if ambiguous:
        flags.append("ambiguous")
    return FrequencyEstimate(omega_est=max(0.0, bin_step * position), amplitude=amplitude, flags=tuple(flags))


def _spectral_peak(bins: np.ndarray, mags: np.ndarray) -> tuple[float, bool]:
    """Refined position (in bins) of the strongest bin past DC, and whether a rival comes within 3 dB.

    ``bins`` are increasing bin indices and ``mags`` their spectral
    magnitudes; a bin's neighbours count only where bins k - 1 and k + 1
    are present.  Bin 0, the DC bin of the mean-removed spectrum, is
    rounding noise, different on the two extraction paths: it counts as
    magnitude 0, so it is never the peak or a rival, and a peak at bin 1
    is not refined through it.  The peak k is otherwise shifted by
    quadratic interpolation of the log magnitude over k - 1, k, k + 1.  A
    rival is a local maximum more than 3 bins from k.
    """
    masked = np.where(bins > 0, mags, 0.0)
    i = int(np.argmax(masked))
    k = int(bins[i])
    shift = 0.0
    if k >= 2 and 0 < i < bins.size - 1 and bins[i - 1] == k - 1 and bins[i + 1] == k + 1:
        below, peak, above = mags[i - 1 : i + 2].tolist()
        if below > 0.0 and peak > 0.0 and above > 0.0:
            lm, lc, lp = math.log(below), math.log(peak), math.log(above)
            curvature = lm - 2.0 * lc + lp
            if curvature < 0.0:
                shift = min(0.5, max(-0.5, 0.5 * (lm - lp) / curvature))
    if masked[i] <= 0.0:
        return k + shift, False
    # Bins increase, so a bin's two neighbours are both present where the bins either side differ by 2.
    inner = masked[1:-1]
    rivals = (
        (bins[2:] - bins[:-2] == 2) & (inner >= masked[:-2]) & (inner >= masked[2:])
        & (np.abs(bins[1:-1] - k) > _AMBIGUOUS_MIN_SEPARATION) & (inner >= _AMBIGUOUS_RATIO * masked[i])
    )
    return k + shift, bool(rivals.any())


def _form_spectrum(form, size: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Amplitude, bins and Hann spectrum magnitudes of the one-period boxcar of a series with ``form``.

    ``size`` is the boxcar length.  The window starting at sample
    s = k m + j holds mid + Re(Z_j e^{2ik lambda}), mid the mean of A; Z
    is a two-period prefix sum of B, whose second period is B e^{2i lambda}.
    With x = 2 lambda / m, Z_j e^{-ixj} is m-periodic, so its m-point FFT
    y_p gives the boxcar as mid + Re sum_p y_p e^{i nu_p s}, nu_p =
    x + 2 pi p / m.  The spectrum sums the Hann kernel of every exponential
    with |y_p| at least _LINE_FLOOR of the largest, less the kernel of
    their share of the boxcar mean, at the bins within _LINE_REACH of the
    lines at least _STRONG_LINE of it (a weaker line cannot by itself make
    the peak or a 3 dB rival: a line's Hann peak loses at most 1.42 dB
    between bins).  The spectrum of a flat boxcar is zero (bins 0 and 1
    returned), so its ``omega_est`` is 0.
    """
    m, lam, b = form.swing.size, form.lam, form.swing
    csum = np.cumsum(np.concatenate((b, b * np.exp(2j * lam))))
    z = csum[m - 1 : 2 * m - 1].copy()
    z[1:] -= csum[: m - 1]
    z /= m
    amplitude = _boxcar_swing(z, lam, size)

    y = np.fft.fft(z * np.exp(-2j * lam / m * np.arange(m))) / m
    weight = np.abs(y)
    top = weight.max()
    if top <= _FLAT_WEIGHT:
        return amplitude, np.arange(2), np.zeros(2)
    keep = weight >= _LINE_FLOOR * top
    nu = (2.0 * lam + 2.0 * math.pi * np.fft.fftfreq(m, 1.0 / m)[keep]) / m
    # Bins within reach of every strong line, its bin folded into [0, size / 2].
    strong = nu[weight[keep] >= _STRONG_LINE * top]
    centre = np.rint(np.abs(np.remainder(strong / (2.0 * math.pi) + 0.5, 1.0) - 0.5) * size).astype(int)
    reach = range(-_LINE_REACH, _LINE_REACH + 1)
    bins = np.array(sorted({c + r for c in centre.tolist() for r in reach if 0 <= c + r <= size // 2}))

    coef = 0.5 * y[keep]
    # The lines' share of the boxcar mean, sum_s e^{i nu s} / size over each
    # line and its conjugate: twice the real part of the sum over one half.
    offset = 2.0 * (coef @ _hann_kernel(nu, size, window=False)).real / size
    nu, coef = np.concatenate((nu, -nu)), np.concatenate((coef, coef.conjugate()))
    # Every line, and in the last column (a line at 0) that constant, subtracted.
    kernel = _hann_kernel(np.append(nu, 0.0), size, bins=bins)
    return amplitude, bins, np.abs(kernel @ np.append(coef, -offset))


def _hann_kernel(nu: np.ndarray, size: int, window: bool = True, bins: np.ndarray | None = None) -> np.ndarray:
    """sum_{s < size} w_s e^{i nu s} for the Hann window w = np.hanning(size), or w = 1 when not ``window``.

    With x = nu/2 reduced to [-pi/2, pi/2) and S(x) = sin(size x)/sin(x)
    (size at x = 0, its limit), the sum is e^{i (size-1) x} times S(x), or
    times S(x)/2 + S(x + b)/4 + S(x - b)/4 with b = pi/(size - 1) for the
    window.  The arguments of S stay within (-pi, pi), so x = 0 and
    x = -+b are the only vanishing denominators.

    With ``bins`` (integers in [0, size/2]), row k holds the sum at
    nu - 2 pi k / size times e^{i (size-1) pi k / size}, a factor the same
    for every nu of the row, so a sum over nu keeps its magnitude: the
    phase stays e^{i (size-1) x} and S is taken at x - pi k / size, in
    [-pi, pi/2).  Below -pi/2 that argument moves up by pi, where S changes
    by (-1)^(size+1), so for even size the phase changes sign there.
    """
    x = 0.5 * (np.remainder(nu + math.pi, 2.0 * math.pi) - math.pi)
    phase = np.exp(1j * (size - 1) * x)
    if bins is not None:
        x = x - (math.pi / size) * bins[:, None]
        wrapped = x < -0.5 * math.pi
        x = np.where(wrapped, x + math.pi, x)
        if size % 2 == 0:
            phase = np.where(wrapped, -phase, phase)
    if window:
        b = math.pi / (size - 1)
        shape = _dirichlet(x[..., None] + np.array((0.0, b, -b)), size) @ np.array((0.5, 0.25, 0.25))
    else:
        shape = _dirichlet(x, size)
    return phase * shape


def _dirichlet(x: np.ndarray, size: int) -> np.ndarray:
    """sin(size x) / sin(x), and its limit size where sin(x) = 0."""
    den = np.sin(x)
    return np.divide(np.sin(size * x), den, out=np.full_like(x, float(size)), where=den != 0.0)


def _boxcar_swing(z: np.ndarray, lam: float, size: int) -> float:
    """max - min of Re(z[s % m] e^{2i (s // m) lam}) over the windows s < size.

    Every j reaches the periods k < last_k, and j <= last_j also k = last_k.
    Re(z_j e^{i theta}) peaks where theta is nearest -arg z_j (mod 2 pi) and
    dips where it is nearest pi - arg z_j, so among k < last_k only the two
    periods whose phases 2k lambda flank each target are evaluated.
    """
    m = z.size
    last_k, last_j = divmod(size - 1, m)
    # e^{2ik lambda} for every period k <= last_k, read by index below.
    turn = np.exp(2j * lam * np.arange(last_k + 1))
    theta = np.remainder(2.0 * lam * np.arange(last_k), 2.0 * math.pi)
    order = np.argsort(theta)
    rot = np.angle(z)
    targets = np.remainder(np.concatenate((-rot, math.pi - rot)), 2.0 * math.pi)
    at = np.searchsorted(theta[order], targets)
    k = np.concatenate((order[at - 1], order[at % last_k], np.full(last_j + 1, last_k)))
    zz = np.concatenate((z, z, z, z, z[: last_j + 1]))
    vals = (zz * turn[k]).real
    return float(vals.max() - vals.min())


def classify_regime(p: DriveParams) -> RegimeLabel:
    """Place a drive configuration in the approximation-validity map.

    Conditions: Rabi for A/delta < 1, rotating-wave for omega/delta > 1,
    transfer-matrix for A/delta > 1 with A > epsilon0 (crossings must
    exist).  The TM sub-label follows A*omega/delta^2: FAST at or above
    10, SLOW at or below 0.1, INTERMEDIATE between.  The returned
    ``label`` is the most specific applicable region (TM over Rabi over
    bare RWA); regions that also apply are reported through the boolean
    fields.

    ``tm`` marks the transfer matrix's validity region (A > delta and
    A > epsilon0), not where it can be evaluated: ``predict``, ``scan`` and
    ``simulate`` compute transfer-matrix values wherever crossings exist
    (A > epsilon0, phi = 0), just as they compute RWA values at any
    omega.  This is the one validity rule of each approximation: the
    predictors evaluate their formulas and grade nothing, and ``predict``
    reports ``rwa.valid`` from ``rwa`` here.
    """
    drive_ratio = p.amplitude / p.delta
    freq_ratio = p.omega / p.delta
    speed_ratio = drive_ratio * freq_ratio
    rabi = drive_ratio < 1.0
    rwa = freq_ratio > 1.0
    tm = drive_ratio > 1.0 and p.amplitude > p.epsilon0
    tm_speed: str | None = None
    if tm:
        if speed_ratio >= _TM_FAST_MIN:
            tm_speed = "FAST"
        elif speed_ratio <= _TM_SLOW_MAX:
            tm_speed = "SLOW"
        else:
            tm_speed = "INTERMEDIATE"
        label = f"TM_{tm_speed}"
    elif rabi:
        label = "RABI"
    elif rwa:
        label = "RWA"
    else:
        label = "OUTSIDE"
    return RegimeLabel(
        label=label,
        ratios=(drive_ratio, freq_ratio, speed_ratio),
        rabi=rabi,
        rwa=rwa,
        tm=tm,
        tm_speed=tm_speed,
    )


def _cell_predictions(p: DriveParams) -> tuple[float, float, float]:
    """(RWA Omega, TM Omega, slow-resonance lhs), NaN where inapplicable."""
    try:
        omega_rwa = rwa_predict(p).omega_osc
    except ValueError:
        omega_rwa = math.nan
    try:
        omega_tm = tm_slow_frequency(p)
        slow_lhs = tm_slow_resonance_lhs(p).lhs
    except RegimeError:
        omega_tm = math.nan
        slow_lhs = math.nan
    return omega_rwa, omega_tm, slow_lhs


def _sized_periods(p: DriveParams, predictions: tuple[float, ...]) -> tuple[int, bool]:
    """Drive-period count for a run, and whether the cap truncated it.

    Sizing targets ``_TARGET_SLOW_PERIODS`` of the slowest credible
    prediction, so disagreeing predictors err on the long side.
    """
    finite = [w for w in predictions if math.isfinite(w) and w > 1e-12]
    if finite:
        needed = _TARGET_SLOW_PERIODS * (2.0 * math.pi / min(finite)) / p.period
    else:
        needed = math.inf
    n_periods = max(float(_MIN_DRIVE_PERIODS), needed)
    if n_periods > _MAX_DRIVE_PERIODS:
        return _MAX_DRIVE_PERIODS, True
    return int(math.ceil(n_periods - 1e-9)), False


def _scan_steps(steps_per_period) -> int:
    """steps_per_period if it passes dynamics' rule and a capped run of it fits the sample limit, else ConfigError."""
    _steps_per_period(steps_per_period)
    if _MAX_DRIVE_PERIODS * steps_per_period + 1 > _MAX_SAMPLES:
        raise ConfigError(
            f"{_MAX_DRIVE_PERIODS} periods of {steps_per_period} steps exceed the {_MAX_SAMPLES}-sample limit"
        )
    return steps_per_period


def _estimate_cell(
    p: DriveParams, predictions: tuple[float, float, float], steps_per_period: int
) -> tuple[FrequencyEstimate, bool]:
    """Run one exact trace sized from the cell's ``_cell_predictions`` and extract."""
    n_periods, capped = _sized_periods(p, predictions[:2])
    ts = propagate_exact(p, QubitState.up(), n_periods * p.period, steps_per_period=steps_per_period)
    return extract_frequency(ts, drive_period=p.period), capped


def _validate_axis(name: str, grid: np.ndarray) -> np.ndarray:
    if name not in _SCAN_PARAMETERS:
        raise ConfigError(f"unknown scan parameter {name!r}; expected one of {_SCAN_PARAMETERS}")
    arr = _real_array(f"axis {name!r}", grid)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"axis {name!r} must be a nonempty 1-D grid")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"axis {name!r} contains non-finite values")
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        raise ConfigError(f"axis {name!r} must be strictly increasing")
    lower_ok = arr > 0.0 if name == "omega" else arr >= 0.0
    if not np.all(lower_ok):
        raise ConfigError(f"axis {name!r} contains values outside the validated range")
    return arr


def scan_resonance_map(
    fixed: tuple[str, float],
    axis1: tuple[str, np.ndarray],
    axis2: tuple[str, np.ndarray],
    steps_per_period: int = 128,
) -> ScanResult:
    """Map envelope amplitude and slow frequency over a 2-D parameter grid.

    ``fixed`` pins one of {"epsilon0", "amplitude", "omega"}; the two
    axes sweep the other two (in any order).  Each cell simulates the
    exact dynamics from the ground state at ``steps_per_period`` substeps
    per drive period (an integer in [16, 19999]) for 5 oscillations of the
    slowest analytic prediction, between 50 and 5000 drive periods, and
    attaches the predictions themselves for side-by-side comparison.
    delta = 1 throughout.

    Per-cell failures (package errors, ValueError, ArithmeticError) are
    recorded in that cell's flags as ``error:<ExceptionName>`` with NaN
    observables and the scan continues; any other exception propagates.
    Cells that hit the run-length cap are flagged "below_resolution".
    """
    steps_per_period = _scan_steps(steps_per_period)
    if not _is_number(fixed[1]):
        raise ConfigError(f"fixed {fixed[0]!r} must be a finite number, got {fixed[1]!r}")
    fixed_name, fixed_value = fixed[0], float(fixed[1])
    axis1_name, axis1_grid = axis1[0], _validate_axis(axis1[0], axis1[1])
    axis2_name, axis2_grid = axis2[0], _validate_axis(axis2[0], axis2[1])
    if {fixed_name, axis1_name, axis2_name} != set(_SCAN_PARAMETERS):
        raise ConfigError(
            f"fixed/axis1/axis2 must name {_SCAN_PARAMETERS} exactly once each, "
            f"got {(fixed_name, axis1_name, axis2_name)!r}"
        )
    _validate_axis(fixed_name, np.asarray([fixed_value]))
    if axis1_grid.size * axis2_grid.size > _MAX_SCAN_CELLS:
        raise ConfigError(
            f"grid of {axis1_grid.size} x {axis2_grid.size} cells exceeds the {_MAX_SCAN_CELLS} guard"
        )

    shape = (axis1_grid.size, axis2_grid.size)
    omega_est = np.full(shape, math.nan)
    amplitude = np.full(shape, math.nan)
    omega_rwa = np.full(shape, math.nan)
    omega_tm = np.full(shape, math.nan)
    slow_lhs = np.full(shape, math.nan)
    flag_rows: list[tuple[tuple[str, ...], ...]] = []

    for i, v1 in enumerate(axis1_grid):
        row_flags: list[tuple[str, ...]] = []
        for j, v2 in enumerate(axis2_grid):
            params = {fixed_name: fixed_value, axis1_name: float(v1), axis2_name: float(v2)}
            cell_flags: list[str] = []
            try:
                p = DriveParams(delta=1.0, **params)
                predictions = _cell_predictions(p)
                omega_rwa[i, j], omega_tm[i, j], slow_lhs[i, j] = predictions
                est, capped = _estimate_cell(p, predictions, steps_per_period)
                omega_est[i, j] = est.omega_est
                amplitude[i, j] = est.amplitude
                cell_flags.extend(est.flags)
                if capped:
                    cell_flags.append("below_resolution")
            except (DrivenQubitError, ValueError, ArithmeticError) as exc:
                # Per-cell isolation for numerical and regime failures only;
                # anything else is a bug and escapes.
                cell_flags.append(f"error:{type(exc).__name__}")
            row_flags.append(tuple(cell_flags))
        flag_rows.append(tuple(row_flags))

    return ScanResult(
        fixed_name=fixed_name,
        fixed_value=fixed_value,
        axis1_name=axis1_name,
        axis2_name=axis2_name,
        axis1=axis1_grid,
        axis2=axis2_grid,
        omega_est=omega_est,
        amplitude=amplitude,
        omega_rwa=omega_rwa,
        omega_tm=omega_tm,
        slow_lhs=slow_lhs,
        flags=tuple(flag_rows),
    )


def measure_resonance_width(
    p: DriveParams,
    omega_grid: np.ndarray,
    steps_per_period: int = 128,
) -> float:
    """Half-width at half-maximum of the envelope amplitude versus omega.

    Sweeps the drive frequency over ``omega_grid`` with all other
    parameters held at ``p`` (its ``omega`` is replaced at every point),
    measures the coarse-grained peak-to-peak amplitude at each point, and
    returns half the separation of the half-maximum crossings around the
    amplitude peak.  The grid picks the resonance: it must bracket one
    ridge.  Each point is one exact run sized as a ``scan_resonance_map``
    cell.

    Raises
    ------
    BracketError
        The amplitude maximum sits on a grid edge, or a half-maximum
        crossing lies outside the grid.
    """
    steps_per_period = _scan_steps(steps_per_period)
    grid = _validate_axis("omega", omega_grid)
    if grid.size < 5:
        raise ConfigError("omega_grid must have at least 5 points")

    amps = np.empty(grid.size)
    for i, w in enumerate(grid):
        q = replace(p, omega=w)
        amps[i] = _estimate_cell(q, _cell_predictions(q), steps_per_period)[0].amplitude
    k = int(np.argmax(amps))
    if k == 0 or k == grid.size - 1:
        raise BracketError(
            f"amplitude maximum at omega = {grid[k]:.6g} lies on the grid edge; widen the grid"
        )
    half = 0.5 * amps[k]
    left = _half_crossing(grid, amps, k, half, step=-1)
    right = _half_crossing(grid, amps, k, half, step=+1)
    return 0.5 * (right - left)


def _half_crossing(grid: np.ndarray, amps: np.ndarray, k: int, half: float, step: int) -> float:
    """Linear-interpolated omega where the amplitude first drops to half."""
    i = k
    while 0 <= i + step < len(grid):
        j = i + step
        if amps[j] <= half:
            # Interpolate between the last above-half point and this one.
            frac = (amps[i] - half) / (amps[i] - amps[j])
            return float(grid[i] + frac * (grid[j] - grid[i]))
        i = j
    side = "left" if step < 0 else "right"
    raise BracketError(f"amplitude never drops to half-maximum on the {side} side of the grid")


def stroboscopic_exact(
    p: DriveParams,
    psi0: QubitState,
    n_cycles: int,
    steps_per_period: int = 1024,
) -> TimeSeries:
    """Exact P_up sampled once per drive cycle, between the crossings.

    The samples sit at t = (k+1)T, k = 0..n_cycles.  With phi = 0 the
    epsilon > 0 inter-crossing interval that follows the upward sweep at
    t_c2 is symmetric about t = T, so each sample sits in its middle,
    where the exact populations have settled onto the plateau that the
    transfer-matrix cycle samples represent.  Sampling at the crossing
    time itself would catch the exact trace mid-transition (half the
    Landau-Zener step short) and is not a like-for-like comparison.
    Requires A > eps0 and phi = 0 (RegimeError otherwise).

    Returns a TimeSeries of ``n_cycles + 1`` samples spaced by the drive
    period, aligned index-for-index with ``propagate_tm`` output.  One
    one-period operator U_T carries psi0 to the first sample and each
    cycle to the next; the state after k cycles is the closed-form power
    of U_T, never k repeated multiplications, so rounding does not grow
    with k and does not limit n_cycles.
    """
    crossing_times(p)  # RegimeError unless A > eps0 and phi = 0
    u = evolution_operator(p, 0.0, p.period, steps_per_period=steps_per_period)
    cycle = (u.u11, u.u12)
    return _stroboscope(psi0, cycle, cycle, n_cycles, p.period, p.period)
