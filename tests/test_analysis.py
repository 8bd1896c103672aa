"""Trace-analysis checks: spectral extraction, regime map, scans, widths."""

import math

import numpy as np
import pytest

from drivenqubit import analysis
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
from drivenqubit.specfun import bessel_jn
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


def test_band_selects_secondary_tone():
    t = np.arange(4096) * 0.05
    vals = 0.5 + 0.30 * np.sin(0.25 * t) + 0.08 * np.sin(1.10 * t)
    ts = TimeSeries(t0=0.0, dt=0.05, values=vals)
    assert abs(extract_frequency(ts).omega_est - 0.25) < 0.01
    inside = extract_frequency(ts, band=(0.8, 1.5))
    assert abs(inside.omega_est - 1.10) < 0.01


def test_comparable_tones_raise_ambiguous_flag():
    t = np.arange(4096) * 0.05
    vals = 0.5 + 0.22 * np.sin(0.25 * t) + 0.20 * np.sin(0.60 * t)
    est = extract_frequency(TimeSeries(t0=0.0, dt=0.05, values=vals))
    assert "ambiguous" in est.flags
    # A tone 11 dB down is not a competitor.
    vals = 0.5 + 0.30 * np.sin(0.25 * t) + 0.08 * np.sin(0.60 * t)
    est = extract_frequency(TimeSeries(t0=0.0, dt=0.05, values=vals))
    assert "ambiguous" not in est.flags


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
    with pytest.raises(InsufficientDataError):
        # Band entirely above Nyquist holds no bins.
        extract_frequency(_sine_series(0.37), band=(100.0, 200.0))


def test_extract_frequency_validation():
    ts = _sine_series(0.37)
    with pytest.raises(ConfigError):
        extract_frequency(ts, band=(1.0, 1.0))
    with pytest.raises(ConfigError):
        extract_frequency(ts, band=(-0.5, 1.0))
    with pytest.raises(ConfigError):
        extract_frequency(ts, drive_period=0.0)


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


def test_frequency_estimate_field_validation():
    with pytest.raises(ConfigError):
        FrequencyEstimate(omega_est=-1.0, amplitude=0.5)
    with pytest.raises(ConfigError):
        FrequencyEstimate(omega_est=1.0, amplitude=1.5)


# ---------------------------------------------------------------------------
# classify_regime


@pytest.mark.parametrize(
    "eps0, amp, omega, label",
    [
        (0.0, 0.5, 4.0, "RABI"),
        (3.0, 15.0, 3.0, "TM_FAST"),
        (1.0, 2.0, 0.5, "TM_INTERMEDIATE"),
        (1.0, 2.0, 0.04, "TM_SLOW"),
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
    for grid in (["1", "2"], ["x"], np.array([False, True]), np.array([1.0, 2.0 + 1j])):
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
    hwhm = measure_resonance_width(p, 1, np.linspace(4.2, 5.8, 9), _WIDTH_CFG)
    assert 0.5 * theory < hwhm < 2.0 * theory


def test_width_requires_interior_maximum():
    p = _p(5.0, 8.0, 5.0)
    with pytest.raises(BracketError):
        measure_resonance_width(p, 1, np.linspace(5.0, 6.6, 9), _WIDTH_CFG)


def test_width_requires_half_crossings_in_grid():
    p = _p(5.0, 8.0, 5.0)
    with pytest.raises(BracketError):
        measure_resonance_width(p, 1, np.linspace(4.9, 5.1, 5), _WIDTH_CFG)


def test_width_argument_validation():
    p = _p(5.0, 8.0, 5.0)
    grid = np.linspace(4.0, 6.0, 9)
    with pytest.raises(ConfigError):
        measure_resonance_width(p, 0, grid)
    with pytest.raises(ConfigError):
        measure_resonance_width(p, 1, np.array([4.0, 5.0, 6.0]))
    with pytest.raises(ConfigError):
        measure_resonance_width(p, 1, grid[::-1])
    with pytest.raises(ConfigError):
        measure_resonance_width(p, 1, grid - 10.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: stroboscopic_exact(p, QubitState.up(), True),
        lambda p: measure_resonance_width(p, True, np.linspace(4.0, 6.0, 9)),
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
    assert st.dt == pytest.approx(p.period, abs=1e-12)
    assert len(st) == 7
    assert np.all(st.values >= 0.0) and np.all(st.values <= 1.0)


def test_stroboscopic_validation():
    p = _p(5.0, 30.0, 5.0)
    with pytest.raises(ConfigError):
        stroboscopic_exact(p, QubitState.up(), 0)
