"""End-to-end acceptance: twelve numbered criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion, at the stated
tolerances.  Each test also prints an ``ACCEPTANCE nn ... PASS`` line,
visible with ``-s`` or in captured output."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from drivenqubit.analysis import (
    extract_frequency,
    measure_resonance_width,
    scan_resonance_map,
    stroboscopic_exact,
)
from drivenqubit.cli import main as cli_main
from drivenqubit.dynamics import (
    DriveParams,
    QubitState,
    Unitary2,
    evolution_operator,
    propagate_exact,
    propagate_linear_sweep,
)
from drivenqubit.rwa import rwa_predict
from drivenqubit.specfun import bessel_j0_zero, bessel_jn, stokes_phase
from drivenqubit.transfer_matrix import (
    decompose_full_cycle,
    full_cycle_matrix,
    propagate_tm,
    reconstruct_full_cycle,
    tm_fast_frequency,
    tm_fast_resonance_check,
)


def _report(number, label):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def test_criterion_01_unitarity_and_convergence():
    started = time.monotonic()
    rng = np.random.RandomState(20260823)
    worst = 0.0
    for _ in range(100):
        p = DriveParams(
            delta=1.0,
            epsilon0=rng.uniform(0.0, 10.0),
            amplitude=rng.uniform(0.0, 50.0),
            omega=rng.uniform(0.2, 20.0),
        )
        u = evolution_operator(p, 0.0, 100.0 * p.period, steps_per_period=32).as_matrix()
        # The same stepping code backs propagate_exact, so operator
        # unitarity is norm conservation for every initial state at once.
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(2)))))
    assert worst < 1e-10

    for _ in range(3):
        p = DriveParams(
            delta=1.0,
            epsilon0=rng.uniform(0.0, 10.0),
            amplitude=rng.uniform(1.0, 50.0),
            omega=rng.uniform(0.2, 20.0),
        )
        span = 5.0 * p.period
        ref = evolution_operator(p, 0.0, span, steps_per_period=8192).as_matrix()
        errs = [
            float(np.max(np.abs(evolution_operator(p, 0.0, span, steps_per_period=n).as_matrix() - ref)))
            for n in (256, 512)
        ]
        # Second-order stepper: halving h divides the error by about 4.
        assert 3.0 < errs[0] / errs[1] < 5.5
    assert time.monotonic() - started < 60.0
    _report(1, "unitarity and halving convergence")


def test_criterion_02_undriven_limits():
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=0.0, omega=1.0)
    ts = propagate_exact(p, QubitState.down(), 3.0 * p.period, steps_per_period=256)
    assert float(np.max(np.abs(ts.values - np.sin(ts.times() / 2.0) ** 2))) < 1e-6

    p = DriveParams(delta=1.0, epsilon0=10.0, amplitude=0.0, omega=1.0)
    ts = propagate_exact(p, QubitState.down(), p.period, steps_per_period=512)
    assert 0.009 < float(np.max(ts.values)) < 0.011
    _report(2, "undriven Rabi and far-detuned bound")


def test_criterion_03_landau_zener_formula():
    # The endpoint probability at span 50 rings at the Fresnel truncation
    # scale (over 20% relative at v = 100), so the asymptote is read from
    # the sweep tail: Hann-weighted average of the adiabatic-branch
    # weight over end spans 20..50.
    def tail_averaged_probability(v):
        spans = np.linspace(20.0, 50.0, 31)
        weights = np.hanning(len(spans))
        values = []
        for span in spans:
            out = propagate_linear_sweep(1.0, v, float(span), QubitState.up(), steps=16000)
            vec = np.array([out.up_amp, out.down_amp])
            h = np.array([[-span / 2.0, -0.5], [-0.5, span / 2.0]])
            _, ev = np.linalg.eigh(h)
            values.append(abs(np.vdot(ev[:, 1], vec)) ** 2)
        return float(np.sum(weights * np.asarray(values)) / np.sum(weights))

    for v in (2.0, 5.0, 20.0, 100.0):
        theory = 1.0 - math.exp(-math.pi / (2.0 * v))
        assert abs(tail_averaged_probability(v) - theory) / theory < 0.05
    _report(3, "Landau-Zener transition probability")


def test_criterion_04_stokes_phase_limits():
    assert math.pi / 4.0 - 1e-3 <= stokes_phase(1e-4) <= math.pi / 4.0
    assert stokes_phase(100.0) < 1e-2
    _report(4, "Stokes phase limits")


def _extracted_frequency(p, predicted, steps_per_period=256, slow_periods=6.0, max_periods=1500):
    n_periods = int(math.ceil(slow_periods * (2.0 * math.pi / predicted) / p.period))
    n_periods = min(max_periods, max(50, n_periods))
    ts = propagate_exact(p, QubitState.up(), n_periods * p.period, steps_per_period=steps_per_period)
    return extract_frequency(ts, drive_period=p.period).omega_est


def test_criterion_05_rwa_frequency_on_strong_drive_grid():
    started = time.monotonic()
    for amp in (10.0, 15.0, 20.0):
        p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=amp, omega=3.0)
        predicted = abs(bessel_jn(1, amp / 3.0))
        measured = _extracted_frequency(p, predicted)
        assert abs(measured - predicted) / predicted < 0.15
    assert time.monotonic() - started < 60.0
    _report(5, "sideband frequency vs exact traces")


def test_criterion_06_transfer_matrix_frequencies():
    started = time.monotonic()
    for amp in (10.0, 15.0, 20.0):
        p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=amp, omega=3.0)
        measured = _extracted_frequency(p, abs(bessel_jn(1, amp / 3.0)))
        assert abs(tm_fast_frequency(p) - measured) / measured < 0.15

    for amp in (12.0, 16.0, 20.0):
        p = DriveParams(delta=1.0, epsilon0=1.0, amplitude=amp, omega=0.5)
        deco = decompose_full_cycle(full_cycle_matrix(p))
        omega_exact_tm = p.omega * deco.zeta_fc / (2.0 * math.pi)
        measured = _extracted_frequency(p, max(omega_exact_tm, 1e-9))
        assert abs(omega_exact_tm - measured) / measured < 0.30
        # The closed form misplaces its cos nodes here (dropped f terms
        # and the finite-delta Stokes shift), so its pointwise relative
        # error diverges near destroyed resonances; bound its deviation
        # by half its own envelope scale instead.
        envelope = (2.0 * p.omega / math.pi) * math.sqrt(
            math.pi / (2.0 * p.omega * math.sqrt(amp**2 - 1.0))
        )
        assert abs(tm_fast_frequency(p) - measured) < 0.5 * envelope
    # Away from the nodes the strict relative reading also holds.
    p = DriveParams(delta=1.0, epsilon0=1.0, amplitude=16.0, omega=0.5)
    deco = decompose_full_cycle(full_cycle_matrix(p))
    measured = _extracted_frequency(p, p.omega * deco.zeta_fc / (2.0 * math.pi))
    assert abs(tm_fast_frequency(p) - measured) / measured < 0.50
    assert time.monotonic() - started < 120.0
    _report(6, "transfer-matrix frequencies on both grids")


def test_criterion_07_tunnelling_suppression():
    started = time.monotonic()
    omega = 5.0
    node = omega * bessel_j0_zero(1)
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=node, omega=omega)

    probe = propagate_exact(p, QubitState.up(), 25.0 * p.period, steps_per_period=512)
    est = extract_frequency(probe, drive_period=p.period)
    assert "suppressed" in est.flags

    # The residual beyond-leading-order tunnelling completes oscillations
    # only over thousands of cycles; measure its frequency there.
    long = propagate_exact(p, QubitState.up(), 5000.0 * p.period, steps_per_period=64)
    assert extract_frequency(long, drive_period=p.period).omega_est < 0.02

    for offset in (-0.5, 0.5):
        p_side = DriveParams(delta=1.0, epsilon0=0.0, amplitude=omega * (bessel_j0_zero(1) + offset), omega=omega)
        side = propagate_exact(p_side, QubitState.up(), 25.0 * p_side.period, steps_per_period=512)
        assert extract_frequency(side, drive_period=p_side.period).amplitude > 0.8
    assert time.monotonic() - started < 60.0
    _report(7, "tunnelling suppression at the Bessel node")


def test_criterion_08_resonance_ridge_location():
    started = time.monotonic()
    omega = 3.0
    grid = omega * np.linspace(2.5, 3.5, 51)
    result = scan_resonance_map(("omega", omega), ("epsilon0", grid), ("amplitude", np.array([15.0])))
    peak = float(grid[int(np.argmax(result.amplitude[:, 0]))])
    cell = float(grid[1] - grid[0])
    assert abs(peak - 3.0 * omega) <= cell + 1e-9
    assert time.monotonic() - started < 300.0
    _report(8, "multiphoton ridge location")


def test_criterion_09_width_scaling_with_photon_number():
    started = time.monotonic()
    # Match the oscillation frequency between the one- and two-photon
    # resonances: |J_1(A1/omega)| = |J_2(A2/omega)| with A2/omega = 3.
    omega = 5.0
    target = abs(bessel_jn(2, 3.0))
    x1 = brentq(lambda x: abs(bessel_jn(1, x)) - target, 0.2, 1.8)
    p1 = DriveParams(delta=1.0, epsilon0=5.0, amplitude=omega * x1, omega=omega)
    p2 = DriveParams(delta=1.0, epsilon0=10.0, amplitude=15.0, omega=omega)
    assert rwa_predict(p1).omega_osc == pytest.approx(rwa_predict(p2).omega_osc, rel=1e-12)

    width1 = measure_resonance_width(p1, np.linspace(4.2, 5.8, 11))
    width2 = measure_resonance_width(p2, np.linspace(4.55, 5.45, 11))
    assert 1.0 < width1 / width2 < 4.0
    assert time.monotonic() - started < 600.0
    _report(9, "resonance width scaling, ratio %.3f" % (width1 / width2))


def test_criterion_10_stroboscopic_tm_matches_exact():
    for amp in (30.0, 34.95):
        p = DriveParams(delta=1.0, epsilon0=5.0, amplitude=amp, omega=1.0)
        exact = stroboscopic_exact(p, QubitState.up(), 20)
        strobe = propagate_tm(p, QubitState.up(), 20)
        assert float(np.max(np.abs(exact.values - strobe.values))) <= 0.1
    n, residual = tm_fast_resonance_check(DriveParams(delta=1.0, epsilon0=5.0, amplitude=34.95, omega=1.0))
    assert n == 5 and residual == 0.0
    _report(10, "transfer matrix vs exact stroboscope")


def test_criterion_11_decomposition_round_trip():
    rng = np.random.RandomState(11)
    worst = 0.0
    for _ in range(1000):
        z = rng.randn(2, 2) + 1j * rng.randn(2, 2)
        q, r = np.linalg.qr(z)
        q = q @ np.diag(np.exp(-1j * np.angle(np.diag(r))))
        q = q / np.sqrt(complex(np.linalg.det(q)))
        u = Unitary2(q[0, 0], q[0, 1])
        rebuilt = reconstruct_full_cycle(decompose_full_cycle(u)).as_matrix()
        worst = max(worst, float(np.max(np.abs(rebuilt - q))))
    assert worst < 1e-10
    _report(11, "decomposition round trip")


def test_criterion_12_scan_output_is_deterministic(tmp_path):
    argv = [
        "scan", "--omega", "3",
        "--axis1", "eps0:8.9:9.1:2",
        "--axis2", "amp:15:15:1",
        "--steps-per-period", "64",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(first)]) == 0
    assert cli_main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    _report(12, "deterministic scan output")
