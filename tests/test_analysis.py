"""Trace-analysis checks: spectral extraction, regime map, scans, widths."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drivenqubit import analysis, dynamics
from drivenqubit.analysis import (
    FrequencyEstimate,
    ScanResult,
    classify_regime,
    extract_frequency,
    measure_resonance_width,
    scan_resonance_map,
    stroboscopic_exact,
)
from drivenqubit.dynamics import DriveParams, QubitState, TimeSeries, propagate_exact
from drivenqubit.errors import BracketError, ConfigError, InsufficientDataError
from drivenqubit.rwa import rwa_predict
from drivenqubit.specfun import bessel_j0_zero, bessel_jn
from drivenqubit.transfer_matrix import crossing_times, propagate_tm


def _p(eps0, amp, omega):
    return DriveParams(delta=1.0, epsilon0=eps0, amplitude=amp, omega=omega)


def _sine_series(omega0, n=4096, dt=0.05, amp=0.4, offset=0.5):
    t = np.arange(n) * dt
    return TimeSeries(t0=0.0, dt=dt, values=offset + amp * np.sin(omega0 * t))


# ---------------------------------------------------------------------------
# extract_frequency


def test_synthetic_sine_frequency_and_amplitude():
    omega0 = 0.37
    est = extract_frequency(_sine_series(omega0))
    # Quadratic peak interpolation must beat the raw bin spacing (0.031 here)
    # by a wide margin.
    assert abs(est.omega_est - omega0) / omega0 < 1e-2
    assert abs(est.omega_est - omega0) < 5e-3
    assert abs(est.amplitude - 0.8) < 0.02
    assert est.flags == ()


def test_weak_tone_wins_over_the_dc_bin():
    # Bin 0 counts as magnitude 0, so a tone whose bins are far weaker than
    # any other fill value is still the peak.
    t = np.arange(2000) * 0.1
    est = extract_frequency(TimeSeries(t0=0.0, dt=0.1, values=0.5 + 1e-6 * np.sin(2.0 * t)))
    assert abs(est.omega_est - 2.0) < 0.01
    assert est.flags == ("suppressed",)


def test_comparable_tones_raise_ambiguous_flag():
    t = np.arange(4096) * 0.05
    vals = 0.5 + 0.22 * np.sin(0.25 * t) + 0.20 * np.sin(0.60 * t)
    est = extract_frequency(TimeSeries(t0=0.0, dt=0.05, values=vals))
    assert "ambiguous" in est.flags
    # A tone 11 dB down is not a competitor: the stronger one is the estimate.
    vals = 0.5 + 0.30 * np.sin(0.25 * t) + 0.08 * np.sin(0.60 * t)
    est = extract_frequency(TimeSeries(t0=0.0, dt=0.05, values=vals))
    assert "ambiguous" not in est.flags
    assert abs(est.omega_est - 0.25) < 0.01


@pytest.mark.parametrize("amp, flags", [(0.0099, ("suppressed",)), (0.0101, ())])
def test_suppressed_below_two_percent_peak_to_peak(amp, flags):
    est = extract_frequency(_sine_series(0.37, amp=amp))
    assert abs(est.amplitude - 2.0 * amp) < 1e-6
    assert est.flags == flags


def test_flat_trace_is_suppressed():
    est = extract_frequency(TimeSeries(t0=0.0, dt=0.05, values=np.full(64, 0.3)))
    assert est.flags == ("suppressed",)
    assert est.amplitude == 0.0
    assert est.omega_est == 0.0


def test_insufficient_data_paths():
    with pytest.raises(InsufficientDataError):
        extract_frequency(TimeSeries(t0=0.0, dt=0.05, values=np.linspace(0.1, 0.9, 16)))
    short = _sine_series(0.37, n=64)
    with pytest.raises(InsufficientDataError):
        # 40-sample boxcar needs at least 80 samples.
        extract_frequency(short, drive_period=2.0)
    for period in (1e300, 1e308):
        # A drive period longer than the trace, even one whose width overflows to inf.
        with pytest.raises(InsufficientDataError, match="shorter than one drive period"):
            extract_frequency(short, drive_period=period)


def test_extract_frequency_validation():
    with pytest.raises(ConfigError):
        extract_frequency(_sine_series(0.37), drive_period=0.0)


def test_undriven_trace_recovers_splitting():
    p = _p(0.0, 0.0, 1.0)
    ts = propagate_exact(p, QubitState.up(), 40 * 2.0 * math.pi, steps_per_period=64)
    # No drive, no micromotion: the boxcar stays off, or it would null the
    # oscillation at exactly omega = delta.
    est = extract_frequency(ts)
    assert abs(est.omega_est - 1.0) < 0.02


def test_driven_trace_matches_sideband_prediction():
    p = _p(3.0, 10.0, 3.0)
    predicted = abs(bessel_jn(1, p.amplitude / p.omega))
    n_periods = int(math.ceil(5.0 * (2.0 * math.pi / predicted) / p.period))
    ts = propagate_exact(p, QubitState.up(), n_periods * p.period, steps_per_period=256)
    est = extract_frequency(ts, drive_period=p.period)
    assert abs(est.omega_est - predicted) / predicted < 0.15
    assert est.amplitude > 0.5


def test_extraction_invariant_under_sampling_refinement():
    p = _p(3.0, 10.0, 3.0)
    duration = 73 * p.period
    coarse = extract_frequency(
        propagate_exact(p, QubitState.up(), duration, steps_per_period=256),
        drive_period=p.period,
    )
    fine = extract_frequency(
        propagate_exact(p, QubitState.up(), duration, steps_per_period=512),
        drive_period=p.period,
    )
    assert abs(coarse.omega_est - fine.omega_est) / fine.omega_est < 0.01


def test_omega_est_is_a_python_float_on_both_paths():
    p = _p(3.0, 10.0, 3.0)
    ts = propagate_exact(p, QubitState.up(), 60 * p.period, steps_per_period=64)
    assert ts._form is not None
    for series in (ts, _fft_copy(ts)):
        assert type(extract_frequency(series, drive_period=p.period).omega_est) is float


# ---------------------------------------------------------------------------
# the closed-form path: a series carrying its one-period form against the
# FFT of a plain copy of the same samples


def _fft_copy(ts):
    return TimeSeries(ts.t0, ts.dt, ts.values)


def _fft_margins(ts, width):
    """(runner-up local maximum over the peak, best rival over the 3 dB ratio) of the plain spectrum."""
    csum = np.concatenate(([0.0], np.cumsum(ts.values)))
    box = (csum[width:] - csum[:-width]) / width
    mags = np.abs(np.fft.rfft((box - box.mean()) * np.hanning(box.size)))
    mags[0] = 0.0
    k = int(np.argmax(mags))
    if mags[k] == 0.0:
        return 0.0, 0.0
    inner = np.arange(1, mags.size - 1)
    peaks = inner[(mags[inner] >= mags[inner - 1]) & (mags[inner] >= mags[inner + 1])]
    others = mags[peaks[peaks != k]]
    rivals = mags[peaks[np.abs(peaks - k) > analysis._AMBIGUOUS_MIN_SEPARATION]]
    runner_up = others.max() / mags[k] if others.size else 0.0
    rival = rivals.max() / mags[k] if rivals.size else 0.0
    return runner_up, rival / analysis._AMBIGUOUS_RATIO


def _assert_paths_agree(ts, period):
    """The closed form matches the FFT path: amplitude to 1e-10, omega_est to 1e-6 bins, flags away from thresholds.

    omega_est is compared on cells that are not suppressed and whose two
    highest local maxima differ by more than rounding; the flags where the
    amplitude is more than 1e-9 from 0.02 and the best rival more than
    1e-6 from the 3 dB ratio.
    """
    width = round(period / ts.dt)
    assert ts._form is not None and ts._form.mean.size == width
    closed = extract_frequency(ts, drive_period=period)
    plain = extract_frequency(_fft_copy(ts), drive_period=period)
    assert math.isfinite(closed.omega_est)
    assert abs(closed.amplitude - plain.amplitude) <= 1e-10
    runner_up, rival = _fft_margins(ts, width)
    bin_step = 2.0 * math.pi / ((len(ts) - width + 1) * ts.dt)
    if "suppressed" not in plain.flags and runner_up < 1.0 - 1e-9:
        assert abs(closed.omega_est - plain.omega_est) <= 1e-6 * bin_step
    if plain.amplitude < 1e-9:
        # A boxcar flat to rounding has a spectrum of rounding noise: the rival flag means nothing there.
        assert "suppressed" in closed.flags and "suppressed" in plain.flags
    elif abs(plain.amplitude - analysis._SUPPRESSED_AMPLITUDE) > 1e-9 and abs(rival - 1.0) > 1e-6:
        assert closed.flags == plain.flags
    return closed, plain


@settings(max_examples=40, deadline=None)
@given(
    epsilon0=st.floats(0.0, 20.0),
    amplitude=st.floats(0.0, 30.0),
    omega=st.floats(0.5, 8.0),
    steps=st.integers(16, 1024),
    periods=st.integers(3, 5000),
    extra=st.integers(0, 1023),
)
def test_closed_form_extraction_matches_the_fft(epsilon0, amplitude, omega, steps, periods, extra):
    # Up to 200 000 samples: 5000 periods at up to 40 steps, and a partial
    # last period of extra % steps samples.
    p = _p(epsilon0, amplitude, omega)
    periods = min(periods, 200_000 // steps)
    ts = propagate_exact(p, QubitState.up(), (periods + (extra % steps) / steps) * p.period, steps_per_period=steps)
    assume(ts._form is not None)
    _assert_paths_agree(ts, p.period)


@pytest.mark.parametrize(
    "eps0, amp, omega, periods, steps",
    [
        (9.2, 14.0, 3.0, 57, 256),  # a scan_map cell
        (5.0, 34.95, 5.0, 5000, 128),  # a capped scan cell
        (2.0, 0.0, 3.0, 60, 64),  # undriven
        (0.0, 5.0 * bessel_j0_zero(1), 5.0, 25, 512),  # the first CDT node
        (0.0, 5.0 * bessel_j0_zero(1), 5.0, 5000, 64),
        # Free Rabi peaking at bin 1, whose refinement through the rounding noise of bin 0 split the paths.
        (0.0, 0.0, 2.0, 3, 16),
    ],
    ids=["scan-cell", "capped", "undriven", "cdt-node", "cdt-node-long", "peak-at-bin-1"],
)
def test_closed_form_extraction_on_marked_cells(eps0, amp, omega, periods, steps):
    p = _p(eps0, amp, omega)
    _assert_paths_agree(propagate_exact(p, QubitState.up(), periods * p.period, steps_per_period=steps), p.period)


def test_closed_form_extraction_of_a_constant_trace():
    # delta rounds to 0 in every factor, so each one, U_T included, is I
    # exactly: lambda = 0, P_up = 1, and both paths see no line at all.
    p = DriveParams(delta=5e-324, epsilon0=0.0, amplitude=0.0, omega=1.0)
    ts = propagate_exact(p, QubitState.up(), 40 * p.period, steps_per_period=32)
    assert ts._form.lam == 0.0 and np.all(ts.values == 1.0)
    closed, plain = _assert_paths_agree(ts, p.period)
    assert closed == plain == FrequencyEstimate(0.0, 0.0, ("suppressed",))


def test_closed_form_extraction_of_a_boxcar_flat_to_rounding():
    # delta = 1e-20 leaves up a Floquet state to rounding: every line of the
    # boxcar is noise near 1e-17, which the FFT reads as a spectrum.  The
    # closed form takes such a boxcar as flat instead of summing hundreds
    # of noise lines at hundreds of bins.
    p = DriveParams(delta=1e-20, epsilon0=2.3, amplitude=1.0, omega=0.5)
    ts = propagate_exact(p, QubitState.up(), 2000 * p.period, steps_per_period=1024)
    closed = extract_frequency(ts, drive_period=p.period)
    assert closed.omega_est == 0.0 and closed.amplitude < 1e-15 and closed.flags == ("suppressed",)
    assert "suppressed" in extract_frequency(_fft_copy(ts), drive_period=p.period).flags


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["identity", "minus-identity"])
def test_closed_form_extraction_when_the_period_is_plus_minus_identity(sign):
    # Random one-period prefixes closed by U_T = +-I (lambda = 0 or pi): the
    # trace repeats every period, its boxcar is flat to rounding, and the
    # kernel meets its vanishing denominators; the result stays finite.
    rng = np.random.default_rng(7)
    steps = 48
    a = rng.normal(size=steps) + 1j * rng.normal(size=steps)
    b = rng.normal(size=steps) + 1j * rng.normal(size=steps)
    norm = np.hypot(np.abs(a), np.abs(b))
    wa, wb = a / norm, b / norm
    u0, d0 = 0.6 + 0.0j, 0.8j
    # U_T^k psi0 = (+-1)^k psi0, so every period repeats |wa_j u0 + wb_j d0|^2.
    trace = np.resize(np.abs(wa * u0 + wb * d0) ** 2, 30 * steps + 11)
    form = dynamics._periodic_form(wa, wb, complex(sign), 0j, u0, d0)
    assert form.lam == (0.0 if sign > 0 else math.pi)
    ts = TimeSeries._computed(0.0, 0.1, trace.size, form=form, values=trace)
    closed = extract_frequency(ts, drive_period=steps * 0.1)
    plain = extract_frequency(_fft_copy(ts), drive_period=steps * 0.1)
    assert math.isfinite(closed.omega_est)
    assert abs(closed.amplitude - plain.amplitude) <= 1e-10
    assert "suppressed" in closed.flags and "suppressed" in plain.flags


@pytest.mark.parametrize("size", [32, 33, 64, 65, 1000])
def test_hann_kernel_matches_the_windowed_sum(size):
    # Its denominators vanish at nu = 0 and nu = +-2 pi/(size - 1), and
    # again one turn away: there it takes the limit.
    alpha = 2.0 * math.pi / (size - 1)
    nu = np.array([0.0, alpha, -alpha, 2.0 * math.pi, -2.0 * math.pi + alpha, math.pi, -math.pi, 0.3, 1e-13])
    s = np.arange(size)
    want = np.exp(1j * nu[:, None] * s) @ np.hanning(size)
    got = analysis._hann_kernel(nu, size, np.array([0]))[0]
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-10 * size
    # On bins, row k is the sum at nu - 2 pi k/size times e^{i (size-1) pi k/size};
    # lines near +-pi reach the wrapped half of the bins, where an even size
    # flips the phase.
    lines = np.array([0.3, -0.3, 2.9, -2.9])
    bins = np.arange(size // 2 + 1)
    want = np.exp(1j * (lines - 2.0 * math.pi * bins[:, None] / size)[..., None] * s) @ np.hanning(size)
    want *= np.exp(1j * (size - 1) * math.pi * bins / size)[:, None]
    got = analysis._hann_kernel(lines, size, bins)
    assert np.max(np.abs(got - want)) <= 1e-10 * size


def test_hann_scalloping_and_envelope_bound_the_kernel():
    # The two bounds behind the closed-form spectrum's choice of lines and
    # bins, against the kernel itself over dense offsets d in bins, at even
    # and odd sizes: a line keeps at least 8/(3 pi) of its peak within half
    # a bin, and its |kernel| / peak never exceeds _hann_envelope, which
    # falls with d.  Half a bin off, the least share tends to 8/(3 pi) from
    # above; far off, the envelope to the d^-3 sidelobe decay 1/(pi d (d^2 - 1)).
    scallop = 8.0 / (3.0 * math.pi)
    half = np.linspace(0.0, 0.5, 201)
    for size in [*range(32, 72), 255, 256, 1000, 1001, 4096, 4097, 65536, 65537]:
        peak = 0.5 * (size - 1)
        near = np.abs(analysis._hann_kernel(2.0 * math.pi * half / size, size, np.array([0]))[0]) / peak
        assert near.min() >= scallop
        d = np.concatenate((np.linspace(0.0, 12.0, 2401), np.linspace(12.0, 0.5 * size, 2001)))
        ratio = np.abs(analysis._hann_kernel(2.0 * math.pi * d / size, size, np.array([0]))[0]) / peak
        envelope = analysis._hann_envelope(d, size)
        assert np.all(ratio <= envelope + 4.0 * np.finfo(float).eps)
        assert np.all(np.diff(envelope) <= 0.0)
    # At the largest size, 65 537.
    assert near.min() == pytest.approx(scallop, rel=1e-4)
    far = np.array([2.5, 10.0, 100.0])
    assert np.allclose(analysis._hann_envelope(far, 65537) * math.pi * far * (far**2 - 1.0), 1.0, rtol=1e-3)


def _form_with_lines(lines, m, lam):
    """A one-period form whose boxcar has the lines {p: y_p}, scaled so that P stays in [0, 1].

    The boxcar's Z_j = sum_p y_p e^{i nu_p j} (``_form_spectrum``), and
    Z_{j+1} - Z_j = B_j (e^{2i lambda} - 1)/m with Z_m = Z_0 e^{2i lambda},
    so the swing B follows from Z; A = 1/2 and |B| <= 1/2.
    """
    y = np.zeros(m, complex)
    for p, weight in lines.items():
        y[p] = weight
    z = m * np.fft.ifft(y) * np.exp(2j * lam / m * np.arange(m))
    turn = np.exp(2j * lam)
    swing = m * (np.append(z[1:], z[0] * turn) - z) / (turn - 1.0)
    return dynamics._Form(np.full(m, 0.5), 0.5 * swing / np.abs(swing).max(), lam)


# Forms of 41 periods of 64 samples, whose lines sit (lambda/pi + p) * 40.016
# bins up.  At lambda = pi/2 line p folds onto the mirror of line -p-1.
_LINE_CASES = {
    # Lines 3 and -4 at 0.4 of the top, between the strong-line share and
    # twice it, fold in phase onto bin 140 into a 3 dB rival of the top's bin 20.
    "rival-pair": ({0: 1.0, 3: 0.4, -4: 0.4}, math.pi / 2),
    # The top line at 19.458 rounds to bin 19, but a weak mirror line (0.25,
    # 1.1 bins up) moves the maximum to bin 20, refined through bin 21.
    "weak-line-moves-the-peak": ({0: 1.0, -1: 0.25 * np.exp(0.75j * math.pi)}, 0.5 * math.pi * (1.0 - 1.1 / 40.015625)),
    # The top line 1.6 bins from DC and 0.4 from Nyquist, each folding onto itself.
    "near-dc": ({0: 1.0, 1: 0.1}, 1.6 * math.pi / 40.015625),
    "near-nyquist": ({32: 1.0, 1: 0.1}, -0.4 * math.pi / 40.015625),
    # Line -1 folds onto the top line in antiphase and leaves 0.1 of it, so
    # the weak line 3 (0.29) at bin 140 is the peak: the bound cannot place
    # it near the strong lines, and the FFT is taken.
    "cancelled-top-line": ({0: 1.0, -1: -0.9, 3: 0.29}, math.pi / 2),
}


@pytest.mark.parametrize("case", list(_LINE_CASES))
def test_closed_form_extraction_of_chosen_lines(case):
    lines, lam = _LINE_CASES[case]
    m, dt = 64, 0.1
    ts = TimeSeries._computed(0.0, dt, 41 * m, form=_form_with_lines(lines, m, lam))
    size = len(ts) - m + 1
    assert (analysis._form_spectrum(ts._form, size) is None) == (case == "cancelled-top-line")
    closed, plain = _assert_paths_agree(ts, m * dt)
    bin_step = 2.0 * math.pi / (size * dt)
    assert abs(closed.omega_est - plain.omega_est) <= 1e-6 * bin_step
    want = {"rival-pair": ("ambiguous",), "near-nyquist": ("suppressed",)}.get(case, ())
    assert closed.flags == want
    if case == "weak-line-moves-the-peak":
        assert 19.5 < closed.omega_est / bin_step < 20.0


def _every_line_spectrum(form, size, bins):
    """The closed-form spectrum at bins with every line of the boxcar summed."""
    m, lam = form.mean.size, form.lam
    csum = np.cumsum(np.concatenate((form.swing, form.swing * np.exp(2j * lam))))
    z = csum[m - 1 : 2 * m - 1].copy()
    z[1:] -= csum[: m - 1]
    z /= m
    y = np.fft.fft(z * np.exp(-2j * lam / m * np.arange(m))) / m
    nu = (2.0 * lam + 2.0 * math.pi * np.fft.fftfreq(m, 1.0 / m)) / m
    share = analysis._boxcar_swing(z, lam, size)[1]
    kernel = analysis._hann_kernel(np.concatenate((nu, -nu, [0.0])), size, bins)
    return np.abs(kernel @ np.concatenate((0.5 * y, 0.5 * y.conjugate(), [-share])))


def test_selected_lines_and_bins_match_every_line_at_every_near_bin():
    # Seeded cells: the closed form answers, the spectrum of the lines and
    # bins it selects matches every line summed to a few ulp of its peak,
    # and so does the peak and rival reading of every bin within 2 of any line.
    rng = np.random.default_rng(13)
    for _ in range(12):
        p = _p(rng.uniform(0.0, 12.0), rng.uniform(0.0, 25.0), rng.uniform(1.0, 6.0))
        steps, periods = int(rng.choice([64, 128, 256])), int(rng.integers(50, 300))
        ts = propagate_exact(p, QubitState.up(), periods * p.period, steps_per_period=steps)
        size = len(ts) - steps + 1
        _, bins, mags = analysis._form_spectrum(ts._form, size)
        every = _every_line_spectrum(ts._form, size, bins)
        assert np.max(np.abs(mags - every)) <= 4.0 * np.finfo(float).eps * mags.max()
        lines = (np.arange(steps) + ts._form.lam / math.pi) * size / steps
        fold = np.abs(np.remainder(lines / size + 0.5, 1.0) - 0.5) * size
        near = np.unique(np.clip(np.rint(fold).astype(int)[:, None] + np.arange(-2, 3), 0, size // 2))
        position, ambiguous = analysis._spectral_peak(near, _every_line_spectrum(ts._form, size, near))
        assert analysis._spectral_peak(bins, mags) == (pytest.approx(position, abs=1e-9), ambiguous)


def test_spectral_peak_interpolates_only_a_log_concave_triple_of_positive_bins():
    bins = np.arange(6)
    # Bins 1, 2, 3 are flat about the peak bin 2 once their logarithms
    # round: zero curvature, so no shift, and no division by it.
    big = 1e100
    mags = np.array([0.0, np.nextafter(big, 0.0), big, big, 0.5, 0.2])
    assert analysis._spectral_peak(bins, mags) == (2.0, False)
    # A zero neighbour has no logarithm: no shift, and no error.
    assert analysis._spectral_peak(bins, np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0])) == (2.0, False)
    # A peak at bin 1 is never refined: bin 0 is rounding noise once the mean is removed.
    assert analysis._spectral_peak(bins, np.array([1.0, 2.0, 1.5, 0.5, 0.2, 0.1])) == (1.0, False)


def test_other_boxcar_takes_the_fft(monkeypatch):
    p = _p(3.0, 10.0, 3.0)
    ts = propagate_exact(p, QubitState.up(), 60 * p.period, steps_per_period=64)

    def no_closed_form(*args):
        raise AssertionError("closed-form path taken")

    monkeypatch.setattr(analysis, "_form_spectrum", no_closed_form)
    for kwargs in ({"drive_period": 2.0 * p.period}, {}):
        assert extract_frequency(ts, **kwargs) == extract_frequency(_fft_copy(ts), **kwargs)
    with pytest.raises(AssertionError, match="closed-form path taken"):
        extract_frequency(ts, drive_period=p.period)


def test_frequency_estimate_field_validation():
    # Each field is a finite int or float in its range: not a string, a bool or an inf.
    for omega_est in (-1.0, "1", True, math.inf):
        with pytest.raises(ConfigError, match="omega_est"):
            FrequencyEstimate(omega_est=omega_est, amplitude=0.5)
    for amplitude in (1.5, "0.5", True):
        with pytest.raises(ConfigError, match="amplitude"):
            FrequencyEstimate(omega_est=1.0, amplitude=amplitude)


# ---------------------------------------------------------------------------
# classify_regime


@pytest.mark.parametrize(
    "eps0, amp, omega, label",
    [
        (0.0, 0.5, 4.0, "RABI"),
        (3.0, 15.0, 3.0, "TM_FAST"),
        (1.0, 2.0, 0.5, "TM_INTERMEDIATE"),
        (1.0, 2.0, 0.04, "TM_SLOW"),
        # The sub-label cuts on A*omega/delta^2: FAST from 10, SLOW up to 0.1.
        (1.0, 5.0, 2.0, "TM_FAST"),
        (1.0, 5.0, 1.98, "TM_INTERMEDIATE"),
        (1.0, 2.0, 0.05, "TM_SLOW"),
        (1.0, 2.0, 0.051, "TM_INTERMEDIATE"),
        # Strong drive but no crossings (A <= eps0): only the rotating frame is left.
        (5.0, 3.0, 2.0, "RWA"),
        # A/delta exactly 1 satisfies neither side, and omega is slow.
        (0.5, 1.0, 0.5, "OUTSIDE"),
    ],
)
def test_classify_labels(eps0, amp, omega, label):
    assert classify_regime(_p(eps0, amp, omega)).label == label


def test_classify_reports_overlapping_regions():
    lab = classify_regime(_p(0.0, 0.5, 4.0))
    assert lab.label == "RABI"
    assert lab.rabi and lab.rwa and not lab.tm
    assert lab.tm_speed is None
    lab = classify_regime(_p(3.0, 15.0, 3.0))
    # TM wins the label but the fast-drive condition also holds.
    assert lab.tm and lab.rwa and not lab.rabi
    assert lab.tm_speed == "FAST"
    assert lab.ratios == (15.0, 3.0, 45.0)


def test_classify_depends_only_on_ratios():
    a = classify_regime(_p(1.0, 2.0, 0.5))
    b = classify_regime(DriveParams(delta=2.0, epsilon0=2.0, amplitude=4.0, omega=1.0))
    assert a.label == b.label
    assert a.ratios == b.ratios


# ---------------------------------------------------------------------------
# scan_resonance_map


def test_scan_isolates_per_cell_failures(monkeypatch):
    # Two drive periods at 16 steps each leave too few coarse samples, so
    # every cell fails in extraction; the scan must still return.
    monkeypatch.setattr(analysis, "_MIN_DRIVE_PERIODS", 2)
    monkeypatch.setattr(analysis, "_MAX_DRIVE_PERIODS", 2)
    res = scan_resonance_map(
        ("omega", 3.0), ("epsilon0", np.array([3.0])), ("amplitude", np.array([10.0])), steps_per_period=16
    )
    assert res.flags[0][0] == ("error:InsufficientDataError",)
    assert math.isnan(res.omega_est[0, 0])
    assert math.isnan(res.amplitude[0, 0])
    # Predictions were computed before the failure and survive it.
    assert math.isfinite(res.omega_rwa[0, 0])


def test_scan_lets_programming_errors_escape(monkeypatch):
    def broken_extract(*args, **kwargs):
        raise TypeError("bug in extraction")

    monkeypatch.setattr(analysis, "extract_frequency", broken_extract)
    with pytest.raises(TypeError, match="bug in extraction"):
        scan_resonance_map(
            ("omega", 3.0), ("epsilon0", np.array([3.0])), ("amplitude", np.array([10.0])), steps_per_period=16
        )


def test_scan_flags_capped_runs():
    res = scan_resonance_map(
        ("epsilon0", 5.0), ("amplitude", np.array([34.95])), ("omega", np.array([5.0])), steps_per_period=16
    )
    assert "below_resolution" in res.flags[0][0]


def _no_fill(*args):
    raise AssertionError("a trace was filled")


def test_scan_and_width_fill_no_trace(monkeypatch):
    # Every cell and width point reads only the one-period form of its run.
    monkeypatch.setattr(dynamics, "_form_values", _no_fill)
    res = scan_resonance_map(("omega", 3.0), ("epsilon0", [8.0, 9.2]), ("amplitude", [12.0, 14.0]), steps_per_period=64)
    assert np.all(np.isfinite(res.omega_est)) and np.all(np.isfinite(res.amplitude))
    assert not any(flag.startswith("error:") for row in res.flags for cell in row for flag in cell)
    width = measure_resonance_width(_p(5.0, 8.0, 5.0), np.linspace(4.2, 5.8, 5))
    assert 0.0 < width < 0.8


def test_capped_scan_cell_memory_is_its_one_period_form():
    # 5000 periods of 128 steps: the trace alone would take 640 001 samples, 5.1 MB.
    tracemalloc.start()
    try:
        res = scan_resonance_map(("omega", 5.0), ("epsilon0", [5.0]), ("amplitude", [34.95]), steps_per_period=128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "below_resolution" in res.flags[0][0]
    assert peak < 2**20


def test_scan_ridge_peaks_at_multiphoton_resonance():
    # eps0 = 3 omega is the three-photon ridge; amplitude there saturates
    # while one drive quantum away it stays small.
    res = scan_resonance_map(
        ("omega", 3.0),
        ("epsilon0", np.array([8.0, 9.0, 10.0])),
        ("amplitude", np.array([15.0])),
        steps_per_period=64,
    )
    amps = res.amplitude[:, 0]
    assert int(np.argmax(amps)) == 1
    assert amps[1] > 0.9
    assert amps[1] > 4.0 * max(amps[0], amps[2])
    assert abs(res.omega_est[1, 0] - res.omega_rwa[1, 0]) / res.omega_rwa[1, 0] < 0.05
    assert np.all(np.isfinite(res.omega_tm[:, 0]))


def test_scan_axis_and_name_validation():
    ok = np.array([1.0, 2.0])
    with pytest.raises(ConfigError):
        scan_resonance_map(("omega", 3.0), ("tilt", ok), ("amplitude", ok))
    with pytest.raises(ConfigError):
        scan_resonance_map(("omega", 3.0), ("omega", ok), ("amplitude", ok))
    with pytest.raises(ConfigError):
        scan_resonance_map(("omega", 3.0), ("epsilon0", np.array([2.0, 1.0])), ("amplitude", ok))
    with pytest.raises(ConfigError):
        scan_resonance_map(("epsilon0", 1.0), ("omega", np.array([0.0, 1.0])), ("amplitude", ok))
    with pytest.raises(ConfigError):
        scan_resonance_map(("omega", 0.0), ("epsilon0", ok), ("amplitude", ok))
    big = np.linspace(1.0, 2.0, 1001)
    with pytest.raises(ConfigError):
        scan_resonance_map(("omega", 3.0), ("epsilon0", big), ("amplitude", big))
    # Fixed values and grids are numbers: no bool, string or other dtype.
    for value in (True, "3", "x"):
        with pytest.raises(ConfigError):
            scan_resonance_map(("omega", value), ("epsilon0", ok), ("amplitude", ok))
    for grid in (["1", "2"], ["x"], np.array([False, True]), np.array([1.0, 2.0 + 1j]), [[1.0], [2.0, 3.0]]):
        with pytest.raises(ConfigError):
            scan_resonance_map(("omega", 3.0), ("epsilon0", grid), ("amplitude", ok))


def test_scan_config_validation():
    # steps_per_period follows dynamics' rule, and 5000 periods of it must
    # fit the 10^8-sample limit (19 999 steps do, 20 000 do not).
    ok = np.array([1.0])
    for spp in (8, 20_000):
        with pytest.raises(ConfigError):
            scan_resonance_map(("omega", 3.0), ("epsilon0", ok), ("amplitude", ok), steps_per_period=spp)


def test_scan_result_shape_validation():
    grid = np.array([1.0, 2.0])
    good = np.zeros((2, 1))
    with pytest.raises(ConfigError):
        ScanResult(
            fixed_name="omega",
            fixed_value=3.0,
            axis1_name="epsilon0",
            axis2_name="amplitude",
            axis1=grid,
            axis2=np.array([5.0]),
            omega_est=np.zeros((1, 2)),
            amplitude=good,
            omega_rwa=good,
            omega_tm=good,
            slow_lhs=good,
            flags=(((),), ((),)),
        )


# ---------------------------------------------------------------------------
# measure_resonance_width


_WIDTH_CFG = 32


def test_width_tracks_lineshape_theory():
    # n = 1 resonance at omega = eps0 = 5: the rotating-frame lineshape puts
    # the half-maximum points Omega/|n| away from the peak.
    p = _p(5.0, 8.0, 5.0)
    theory = rwa_predict(p).width
    hwhm = measure_resonance_width(p, np.linspace(4.2, 5.8, 9), _WIDTH_CFG)
    assert 0.5 * theory < hwhm < 2.0 * theory


def test_scan_and_width_default_to_128_steps_per_period():
    # README documents the default; a default of 129 would give the
    # explicit-129 results instead.
    def scan(*spp):
        r = scan_resonance_map(("omega", 3.0), ("epsilon0", [8.0, 9.0]), ("amplitude", [11.0, 15.0]), *spp)
        return r.omega_est.tobytes(), r.amplitude.tobytes(), r.flags

    def width(*spp):
        return measure_resonance_width(_p(5.0, 8.0, 5.0), np.linspace(4.2, 5.8, 5), *spp)

    for run in (scan, width):
        assert run() == run(128)
        assert run() != run(129)


def test_width_requires_interior_maximum():
    p = _p(5.0, 8.0, 5.0)
    with pytest.raises(BracketError):
        measure_resonance_width(p, np.linspace(5.0, 6.6, 9), _WIDTH_CFG)


def test_width_requires_half_crossings_in_grid():
    p = _p(5.0, 8.0, 5.0)
    with pytest.raises(BracketError):
        measure_resonance_width(p, np.linspace(4.9, 5.1, 5), _WIDTH_CFG)


def test_width_argument_validation():
    p = _p(5.0, 8.0, 5.0)
    grid = np.linspace(4.0, 6.0, 9)
    with pytest.raises(ConfigError):
        measure_resonance_width(p, np.array([4.0, 5.0, 6.0]))
    with pytest.raises(ConfigError):
        measure_resonance_width(p, grid[::-1])
    with pytest.raises(ConfigError):
        measure_resonance_width(p, grid - 10.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: stroboscopic_exact(p, QubitState.up(), True),
        lambda p: measure_resonance_width(p, np.linspace(4.0, 6.0, 9), steps_per_period=True),
        lambda p: propagate_tm(p, QubitState.up(), True),
    ],
    ids=["stroboscopic_exact", "measure_resonance_width", "propagate_tm"],
)
def test_bool_counts_are_rejected(call):
    # bool is an int subclass; True must not pass as a count of 1.
    with pytest.raises(ConfigError):
        call(_p(5.0, 30.0, 5.0))


# ---------------------------------------------------------------------------
# stroboscopic_exact


def test_stroboscopic_grid_alignment():
    p = _p(5.0, 30.0, 5.0)
    st = stroboscopic_exact(p, QubitState.up(), 6, steps_per_period=256)
    t_c1, t_c2 = crossing_times(p)
    gap = p.period - (t_c2 - t_c1)
    assert st.t0 == pytest.approx(t_c2 + 0.5 * gap, abs=1e-12)
    # t_c1 + t_c2 = T, so the middle of the gap is the period itself: sample k sits at (k + 1)T.
    assert st.t0 == p.period
    assert st.dt == pytest.approx(p.period, abs=1e-12)
    assert len(st) == 7
    assert np.all(st.values >= 0.0) and np.all(st.values <= 1.0)
    whole = propagate_exact(p, QubitState.up(), 7 * p.period, steps_per_period=256)
    assert np.max(np.abs(st.values - whole.values[256::256])) <= 1e-12


def test_stroboscopic_validation():
    p = _p(5.0, 30.0, 5.0)
    with pytest.raises(ConfigError):
        stroboscopic_exact(p, QubitState.up(), 0)
