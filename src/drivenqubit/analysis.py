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

from .dynamics import DriveParams, QubitState, TimeSeries, _apply, _powers, evolution_operator, propagate_exact
from .errors import BracketError, ConfigError, DrivenQubitError, InsufficientDataError, RegimeError
from .rwa import rwa_predict
from .transfer_matrix import crossing_times, tm_slow_frequency, tm_slow_resonance_lhs

__all__ = [
    "SUPPRESSED_AMPLITUDE",
    "TM_FAST_MIN",
    "TM_SLOW_MAX",
    "FrequencyEstimate",
    "RegimeLabel",
    "ScanConfig",
    "ScanResult",
    "classify_regime",
    "extract_frequency",
    "measure_resonance_width",
    "scan_resonance_map",
    "stroboscopic_exact",
]

# Envelope peak-to-peak below which a trace is reported as CDT-like.
SUPPRESSED_AMPLITUDE = 0.02

# Sub-regime thresholds on A*omega/delta^2.  The underlying criteria are
# asymptotic (>> 1 and << 1); the factor-of-ten cutoffs make them usable
# as a classifier and are deliberately exposed for adjustment.
TM_FAST_MIN = 10.0
TM_SLOW_MAX = 0.1

_MIN_SAMPLES = 32
# Amplitude ratio equivalent to 3 dB; a secondary peak above it is ambiguous.
_AMBIGUOUS_RATIO = 10.0 ** (-3.0 / 20.0)
_AMBIGUOUS_MIN_SEPARATION = 3


@dataclass(frozen=True)
class FrequencyEstimate:
    """Dominant slow frequency of a coarse-grained population trace.

    Attributes
    ----------
    omega_est : float
        Angular frequency of the strongest non-DC spectral peak.
    amplitude : float
        Peak-to-peak excursion of the coarse-grained P_up, in [0, 1].
    confidence : float
        Ratio of the peak spectral magnitude to the median magnitude of
        the searched bins.  Large values mean a clean single line.
    flags : tuple of str
        Subset of {"suppressed", "ambiguous"}.  "suppressed" marks
        CDT-like traces (amplitude below ``SUPPRESSED_AMPLITUDE``),
        where ``omega_est`` is noise-dominated and should not be
        trusted; "ambiguous" marks a secondary peak within 3 dB.
    """

    omega_est: float
    amplitude: float
    confidence: float
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (self.omega_est >= 0.0):
            raise ConfigError(f"omega_est must be nonnegative, got {self.omega_est!r}")
        if not (-1e-9 <= self.amplitude <= 1.0 + 1e-9):
            raise ConfigError(f"amplitude must lie in [0, 1], got {self.amplitude!r}")


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


@dataclass(frozen=True)
class ScanConfig:
    """Sizing and integration settings for parameter scans.

    ``target_slow_periods`` slow oscillations are requested per trace,
    subject to a floor of ``min_drive_periods`` and a hard cap of
    ``max_drive_periods`` drive cycles; traces that hit the cap before
    covering the requested slow periods are flagged "below_resolution".
    """

    steps_per_period: int = 128
    target_slow_periods: float = 5.0
    min_drive_periods: int = 50
    max_drive_periods: int = 5000

    def __post_init__(self) -> None:
        if not (isinstance(self.steps_per_period, int) and self.steps_per_period >= 16):
            raise ConfigError(f"steps_per_period must be an integer >= 16, got {self.steps_per_period!r}")
        if not (math.isfinite(self.target_slow_periods) and self.target_slow_periods >= 1.0):
            raise ConfigError(f"target_slow_periods must be >= 1, got {self.target_slow_periods!r}")
        if not (isinstance(self.min_drive_periods, int) and self.min_drive_periods >= 2):
            raise ConfigError(f"min_drive_periods must be an integer >= 2, got {self.min_drive_periods!r}")
        if not (isinstance(self.max_drive_periods, int) and self.max_drive_periods >= self.min_drive_periods):
            raise ConfigError("max_drive_periods must be >= min_drive_periods")


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
    confidence: np.ndarray
    omega_rwa: np.ndarray
    omega_tm: np.ndarray
    slow_lhs: np.ndarray
    flags: tuple[tuple[tuple[str, ...], ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        shape = (len(self.axis1), len(self.axis2))
        for name in ("omega_est", "amplitude", "confidence", "omega_rwa", "omega_tm", "slow_lhs"):
            if getattr(self, name).shape != shape:
                raise ConfigError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if len(self.flags) != shape[0] or any(len(row) != shape[1] for row in self.flags):
            raise ConfigError("flags grid does not match the axis shape")


def extract_frequency(
    ts: TimeSeries,
    band: tuple[float, float] | None = None,
    drive_period: float | None = None,
) -> FrequencyEstimate:
    """Estimate the dominant slow angular frequency of a P_up trace.

    The trace is boxcar-averaged over one drive period (when
    ``drive_period`` is given), mean-subtracted, Hann-windowed, and
    Fourier-transformed; the strongest non-DC bin is refined by
    quadratic interpolation of the log magnitude.  ``band``, if given,
    restricts the peak search to angular frequencies in [lo, hi].

    Raises
    ------
    InsufficientDataError
        Fewer than 32 usable samples, or no spectral bins in ``band``.
    """
    values = np.asarray(ts.values, dtype=float)
    if len(values) < _MIN_SAMPLES:
        raise InsufficientDataError(f"need at least {_MIN_SAMPLES} samples, got {len(values)}")
    dt = ts.dt
    if drive_period is not None:
        if not (math.isfinite(drive_period) and drive_period > 0.0):
            raise ConfigError(f"drive_period must be positive, got {drive_period!r}")
        width = int(round(drive_period / dt))
        if width >= 2:
            if len(values) < 2 * width:
                raise InsufficientDataError(
                    f"trace of {len(values)} samples is too short for a {width}-sample boxcar"
                )
            csum = np.concatenate(([0.0], np.cumsum(values)))
            values = (csum[width:] - csum[:-width]) / width
    if len(values) < _MIN_SAMPLES:
        raise InsufficientDataError(f"only {len(values)} samples remain after coarse-graining")

    amplitude = float(min(1.0, max(0.0, np.max(values) - np.min(values))))

    n = len(values)
    windowed = (values - values.mean()) * np.hanning(n)
    spectrum = np.abs(np.fft.rfft(windowed))
    # Bin k sits at angular frequency 2*pi*k/(n*dt); DC is never a peak candidate.
    bin_step = 2.0 * np.pi / (n * dt)
    usable = np.ones(spectrum.shape, dtype=bool)
    usable[0] = False
    if band is not None:
        lo, hi = float(band[0]), float(band[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
            raise ConfigError(f"band must satisfy 0 <= lo < hi, got {band!r}")
        freqs = bin_step * np.arange(len(spectrum))
        usable &= (freqs >= lo) & (freqs <= hi)
    if not usable.any():
        raise InsufficientDataError(f"no spectral bins inside band {band!r}")

    masked = np.where(usable, spectrum, 0.0)
    k = int(np.argmax(masked))
    peak = spectrum[k]

    shift = 0.0
    if 1 <= k < len(spectrum) - 1 and spectrum[k - 1] > 0.0 and peak > 0.0 and spectrum[k + 1] > 0.0:
        lm, lc, lp = np.log(spectrum[k - 1]), np.log(peak), np.log(spectrum[k + 1])
        curvature = lm - 2.0 * lc + lp
        if curvature < 0.0:
            shift = min(0.5, max(-0.5, 0.5 * (lm - lp) / curvature))
    omega_est = max(0.0, bin_step * (k + shift))

    background = float(np.median(spectrum[usable]))
    confidence = float(peak / background) if background > 0.0 else math.inf

    flags: list[str] = []
    if amplitude < SUPPRESSED_AMPLITUDE:
        flags.append("suppressed")
    if _has_competing_peak(masked, k):
        flags.append("ambiguous")
    return FrequencyEstimate(omega_est=omega_est, amplitude=amplitude, confidence=confidence, flags=tuple(flags))


def _has_competing_peak(mags: np.ndarray, k: int) -> bool:
    """True when a separated local maximum comes within 3 dB of bin k."""
    if mags[k] <= 0.0:
        return False
    interior = np.arange(1, len(mags) - 1)
    is_peak = (mags[interior] >= mags[interior - 1]) & (mags[interior] >= mags[interior + 1])
    candidates = interior[is_peak & (np.abs(interior - k) > _AMBIGUOUS_MIN_SEPARATION)]
    if candidates.size == 0:
        return False
    return bool(np.max(mags[candidates]) >= _AMBIGUOUS_RATIO * mags[k])


def classify_regime(p: DriveParams) -> RegimeLabel:
    """Place a drive configuration in the approximation-validity map.

    Conditions: Rabi for A/delta < 1, rotating-wave for omega/delta > 1,
    transfer-matrix for A/delta > 1 with A > epsilon0 (crossings must
    exist).  The TM sub-label follows A*omega/delta^2: FAST at or above
    ``TM_FAST_MIN``, SLOW at or below ``TM_SLOW_MAX``, INTERMEDIATE
    between.  The returned ``label`` is the most specific applicable
    region (TM over Rabi over bare RWA); regions that also apply are
    reported through the boolean fields.
    """
    drive_ratio = p.amplitude / p.delta
    freq_ratio = p.omega / p.delta
    speed_ratio = drive_ratio * freq_ratio
    rabi = drive_ratio < 1.0
    rwa = freq_ratio > 1.0
    tm = drive_ratio > 1.0 and p.amplitude > p.epsilon0
    tm_speed: str | None = None
    if tm:
        if speed_ratio >= TM_FAST_MIN:
            tm_speed = "FAST"
        elif speed_ratio <= TM_SLOW_MAX:
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


def _sized_periods(p: DriveParams, predictions: tuple[float, ...], config: ScanConfig) -> tuple[int, bool]:
    """Drive-period count for a run, and whether the cap truncated it.

    Sizing targets ``target_slow_periods`` of the slowest credible
    prediction, so disagreeing predictors err on the long side.
    """
    finite = [w for w in predictions if math.isfinite(w) and w > 1e-12]
    if finite:
        needed = config.target_slow_periods * (2.0 * math.pi / min(finite)) / p.period
    else:
        needed = math.inf
    n_periods = max(float(config.min_drive_periods), needed)
    if n_periods > config.max_drive_periods:
        return config.max_drive_periods, True
    return int(math.ceil(n_periods - 1e-9)), False


def _estimate_cell(
    p: DriveParams, predictions: tuple[float, float, float], config: ScanConfig
) -> tuple[FrequencyEstimate, bool]:
    """Run one exact trace sized from the cell's ``_cell_predictions`` and extract."""
    n_periods, capped = _sized_periods(p, predictions[:2], config)
    ts = propagate_exact(p, QubitState.up(), n_periods * p.period, steps_per_period=config.steps_per_period)
    return extract_frequency(ts, drive_period=p.period), capped


def _validate_axis(name: str, grid: np.ndarray) -> np.ndarray:
    if name not in _SCAN_PARAMETERS:
        raise ConfigError(f"unknown scan parameter {name!r}; expected one of {_SCAN_PARAMETERS}")
    arr = np.asarray(grid, dtype=float)
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
    config: ScanConfig | None = None,
) -> ScanResult:
    """Map envelope amplitude and slow frequency over a 2-D parameter grid.

    ``fixed`` pins one of {"epsilon0", "amplitude", "omega"}; the two
    axes sweep the other two (in any order).  Each cell simulates the
    exact dynamics from the ground state, sized by the analytic
    frequency predictions via the rules in :class:`ScanConfig`, and
    attaches the predictions themselves for side-by-side comparison.
    delta = 1 throughout.

    Per-cell failures (package errors, ValueError, ArithmeticError) are
    recorded in that cell's flags as ``error:<ExceptionName>`` with NaN
    observables and the scan continues; any other exception propagates.
    Cells that hit the run-length cap are flagged "below_resolution".
    """
    if config is None:
        config = ScanConfig()
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
    confidence = np.full(shape, math.nan)
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
                est, capped = _estimate_cell(p, predictions, config)
                omega_est[i, j] = est.omega_est
                amplitude[i, j] = est.amplitude
                confidence[i, j] = est.confidence
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
        confidence=confidence,
        omega_rwa=omega_rwa,
        omega_tm=omega_tm,
        slow_lhs=slow_lhs,
        flags=tuple(flag_rows),
    )


def measure_resonance_width(
    p: DriveParams,
    n: int,
    omega_grid: np.ndarray,
    config: ScanConfig | None = None,
) -> float:
    """Half-width at half-maximum of the envelope amplitude versus omega.

    Sweeps the drive frequency over ``omega_grid`` with all other
    parameters held at ``p``, measures the coarse-grained peak-to-peak
    amplitude at each point, and returns half the separation of the
    half-maximum crossings around the amplitude peak.  ``n`` names the
    resonance under study (positive by convention) and is recorded for
    validation only; the grid itself must bracket the ridge.

    Raises
    ------
    BracketError
        The amplitude maximum sits on a grid edge, or a half-maximum
        crossing lies outside the grid.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"resonance index must be a positive integer, got {n!r}")
    grid = np.asarray(omega_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 5:
        raise ConfigError("omega_grid must be a 1-D grid with at least 5 points")
    if not np.all(np.isfinite(grid)) or not np.all(grid > 0.0):
        raise ConfigError("omega_grid must be positive and finite")
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError("omega_grid must be strictly increasing")
    if config is None:
        config = ScanConfig()

    amps = np.empty(grid.size)
    for i, w in enumerate(grid):
        q = replace(p, omega=w)
        amps[i] = _estimate_cell(q, _cell_predictions(q), config)[0].amplitude
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
    settle_fraction: float = 0.5,
    steps_per_period: int = 1024,
) -> TimeSeries:
    """Exact P_up sampled once per drive cycle, between the crossings.

    The sample point sits ``settle_fraction`` of the way through the
    epsilon > 0 inter-crossing interval that follows the upward sweep,
    where the exact populations have settled onto the plateau that the
    transfer-matrix cycle samples represent.  Sampling at the crossing
    time itself would catch the exact trace mid-transition (half the
    Landau-Zener step short) and is not a like-for-like comparison.

    Returns a TimeSeries of ``n_cycles + 1`` samples spaced by the drive
    period, aligned index-for-index with ``propagate_tm`` output.  The
    state after k cycles is the closed-form power of the one-cycle
    operator, never k repeated multiplications, so rounding does not grow
    with k and does not limit n_cycles.
    """
    if not isinstance(n_cycles, int) or isinstance(n_cycles, bool) or n_cycles < 1:
        raise ConfigError(f"n_cycles must be a positive integer, got {n_cycles!r}")
    if not (0.0 < settle_fraction < 1.0):
        raise ConfigError(f"settle_fraction must lie in (0, 1), got {settle_fraction!r}")
    t_c1, t_c2 = crossing_times(p)
    gap = p.period - (t_c2 - t_c1)
    t0 = t_c2 + settle_fraction * gap
    u_pre = evolution_operator(p, 0.0, t0, steps_per_period=steps_per_period)
    u_cycle = evolution_operator(p, t0, t0 + p.period, steps_per_period=steps_per_period)
    u0, d0 = _apply(u_pre.u11, u_pre.u12, psi0.up_amp, psi0.down_amp)
    u, _ = _powers(u_cycle.u11, u_cycle.u12, u0, d0, np.arange(n_cycles + 1))
    return TimeSeries(t0=t0, dt=p.period, values=np.clip(u.real**2 + u.imag**2, 0.0, 1.0))
