"""Propagator checks: closed-form limits, unitarity, convergence order."""

import copy
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenqubit import dynamics
from drivenqubit.analysis import extract_frequency, scan_resonance_map
from drivenqubit.dynamics import (
    DriveParams,
    QubitState,
    TimeSeries,
    Unitary2,
    drive_epsilon,
    evolution_operator,
    hamiltonian,
    propagate_exact,
    propagate_linear_sweep,
    step_unitary,
)
from drivenqubit.errors import ConfigError, QuadratureError
from drivenqubit.rwa import cdt_amplitudes
from drivenqubit.transfer_matrix import lz_crossing, lz_transfer_matrix, phase_matrix, propagate_tm


def _random_params(rng):
    return DriveParams(
        delta=1.0,
        epsilon0=float(rng.uniform(0.0, 10.0)),
        amplitude=float(rng.uniform(0.0, 50.0)),
        omega=float(rng.uniform(0.2, 20.0)),
    )


# ---------------------------------------------------------------------------
# undriven closed forms (the midpoint rule is exact for a constant H)

def test_undriven_resonant_is_exact_rabi():
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=0.0, omega=1.3)
    ts = propagate_exact(p, QubitState.up(), 8.0 * p.period, steps_per_period=128)
    expected = 1.0 - np.sin(0.5 * ts.times()) ** 2
    assert np.max(np.abs(ts.values - expected)) < 1e-12


def test_samples_are_clipped_to_probabilities():
    # Free Rabi returns to P_up = 1 each period; unclipped, the form's
    # rounding puts a sample there at 1.0000000000000036.
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=0.0, omega=0.5)
    values = propagate_exact(p, QubitState.up(), 20 * p.period, steps_per_period=64).values
    assert values.min() >= 0.0 and values.max() <= 1.0


def test_undriven_detuned_amplitude():
    # P_down peaks at delta^2/(delta^2 + eps0^2); trace matches closed form.
    p = DriveParams(delta=1.0, epsilon0=10.0, amplitude=0.0, omega=2.0)
    ts = propagate_exact(p, QubitState.up(), 30.0, steps_per_period=512)
    gap = math.hypot(p.delta, p.epsilon0)
    expected = 1.0 - (p.delta / gap) ** 2 * np.sin(0.5 * gap * ts.times()) ** 2
    assert np.max(np.abs(ts.values - expected)) < 1e-12
    p_down_max = 1.0 - ts.values.min()
    assert 0.009 <= p_down_max <= 0.011


# ---------------------------------------------------------------------------
# unitarity and composition

def test_norm_conservation_random_drives():
    rng = np.random.RandomState(42)
    for _ in range(20):
        p = _random_params(rng)
        ts = propagate_exact(p, QubitState.up(), 10.0 * p.period, steps_per_period=128)
        assert np.all(ts.values >= 0.0) and np.all(ts.values <= 1.0)


def test_row_norm_identity():
    # P_up(from up) + P_up(from down) = 1 for any unitary evolution.
    p = DriveParams(delta=1.0, epsilon0=2.0, amplitude=17.0, omega=2.7)
    a = propagate_exact(p, QubitState.up(), 5.0 * p.period, steps_per_period=128)
    b = propagate_exact(p, QubitState.down(), 5.0 * p.period, steps_per_period=128)
    assert np.max(np.abs(a.values + b.values - 1.0)) < 1e-10


def test_step_unitary_matches_operator_on_one_substep():
    p = DriveParams(delta=1.0, epsilon0=1.0, amplitude=8.0, omega=3.0)
    h = p.period / 256
    u_step = step_unitary(1.234, h, p)
    m = u_step.as_matrix()
    assert np.allclose(m.conj().T @ m, np.eye(2), atol=1e-14)
    # u12 = -i sin()/r * a is imaginary, so the lower-left entry -conj(u12) equals it
    assert m[1, 0] == m[0, 1]


def test_step_unitary_is_the_exponential_of_the_midpoint_hamiltonian():
    # exp(-i h H(t + h/2)) from the eigenvectors of H: a flipped bias sign
    # or a dropped tunnelling term moves the step by O(1).
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(240):
        p = DriveParams(
            delta=rng.uniform(0.2, 3.0), epsilon0=rng.uniform(0.0, 10.0), amplitude=rng.uniform(0.0, 30.0),
            omega=rng.uniform(0.3, 8.0), phi=0.0 if k % 3 == 0 else rng.uniform(-math.pi, math.pi),
        )
        t, h = rng.uniform(-20.0, 20.0), rng.uniform(1e-4, 0.5)
        energies, vectors = np.linalg.eigh(hamiltonian(t + h / 2, p))
        expected = (vectors * np.exp(-1j * h * energies)) @ vectors.conj().T
        worst = max(worst, np.abs(step_unitary(t, h, p).as_matrix() - expected).max())
    assert worst < 1e-12


def test_evolution_operator_composition():
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=12.0, omega=1.7)
    whole = evolution_operator(p, 0.0, p.period, steps_per_period=512)
    first = evolution_operator(p, 0.0, 0.5 * p.period, steps_per_period=512)
    second = evolution_operator(p, 0.5 * p.period, p.period, steps_per_period=512)
    dev = np.max(np.abs(second.as_matrix() @ first.as_matrix() - whole.as_matrix()))
    # Same substep grid on both sides, so agreement is roundoff-level.
    assert dev < 1e-12


def test_propagate_matches_operator_samples():
    p = DriveParams(delta=1.0, epsilon0=1.5, amplitude=9.0, omega=2.2)
    ts = propagate_exact(p, QubitState.up(), 3.0 * p.period, steps_per_period=64)
    for k in (1, 47, len(ts) - 1):
        t_k = ts.t0 + k * ts.dt
        u = evolution_operator(p, 0.0, t_k, steps_per_period=64)
        vec = u.as_matrix()[:, 0]
        assert ts.values[k] == pytest.approx(abs(vec[0]) ** 2, abs=5e-9)


def test_halving_convergence_second_order():
    rng = np.random.RandomState(3)
    for _ in range(3):
        p = _random_params(rng)
        ref = evolution_operator(p, 0.0, p.period, steps_per_period=8192).as_matrix()
        errs = []
        for spp in (128, 256, 512):
            u = evolution_operator(p, 0.0, p.period, steps_per_period=spp).as_matrix()
            errs.append(np.max(np.abs(u - ref)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 < coarse / fine < 5.5


# ---------------------------------------------------------------------------
# Landau-Zener sweep

def test_linear_sweep_matches_lz_formula_wide_span():
    delta = 1.0
    for v in (2.0, 20.0):
        final = propagate_linear_sweep(delta, v, 400.0, QubitState.up(), steps=120_000)
        p_flip = 1.0 - abs(final.up_amp) ** 2
        exact = 1.0 - math.exp(-math.pi * delta**2 / (2.0 * v))
        assert p_flip == pytest.approx(exact, rel=0.01)


def test_linear_sweep_span_50_absolute():
    # At span 50 the finite-span ripple is a few percent of the flip
    # probability; the absolute deviation stays below 0.02.
    delta = 1.0
    for v in (5.0, 100.0):
        final = propagate_linear_sweep(delta, v, 50.0, QubitState.up(), steps=40_000)
        p_flip = 1.0 - abs(final.up_amp) ** 2
        exact = 1.0 - math.exp(-math.pi * delta**2 / (2.0 * v))
        assert abs(p_flip - exact) < 0.02


def test_linear_sweep_zero_gap_never_flips():
    final = propagate_linear_sweep(0.0, 5.0, 100.0, QubitState.up(), steps=5000)
    assert abs(final.up_amp) ** 2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# drive and Hamiltonian plumbing

def test_drive_epsilon_vectorized_and_phase():
    p = DriveParams(delta=1.0, epsilon0=2.0, amplitude=3.0, omega=4.0, phi=0.7)
    t = np.linspace(0.0, 5.0, 11)
    expected = 2.0 + 3.0 * np.cos(4.0 * t + 0.7)
    assert np.allclose(drive_epsilon(t, p), expected, atol=1e-15)
    assert drive_epsilon(0.5, p) == pytest.approx(2.0 + 3.0 * math.cos(2.7))


def test_hamiltonian_matrix_layout():
    p = DriveParams(delta=1.0, epsilon0=2.0, amplitude=0.0, omega=1.0)
    h = hamiltonian(0.0, p)
    assert np.allclose(h, h.conj().T)
    assert h[0, 0] == pytest.approx(-1.0)  # -eps/2 on the up-up entry
    assert h[0, 1] == pytest.approx(-0.5)  # -delta/2 off-diagonal
    assert np.trace(h) == pytest.approx(0.0)


def test_timeseries_grid():
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=5.0, omega=2.0)
    ts = propagate_exact(p, QubitState.up(), 2.5 * p.period, steps_per_period=64)
    assert ts.t0 == 0.0
    assert ts.dt == pytest.approx(2.5 * p.period / (len(ts) - 1))
    assert ts.t_end == pytest.approx(2.5 * p.period)
    assert ts.values[0] == pytest.approx(1.0)


def test_timeseries_holds_a_propagated_trace_once():
    # 8192 periods x 256 = 2 097 153 samples, 16 MB: the series adopts the
    # propagator's fresh read-only array instead of copying it.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    tracemalloc.start()
    try:
        ts = propagate_exact(p, QubitState.up(), 8192 * p.period, steps_per_period=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 8192 * 256 + 1
    assert peak < 1.5 * ts.values.nbytes


def test_one_long_period_walks_in_blocks():
    # 15.3 periods of the finest grid, 65 536 substeps each, are off the
    # period grid: 1 002 701 substeps (8 MB trace) that the walker composes
    # at most _CHUNK factors at a time.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    tracemalloc.start()
    try:
        ts = propagate_exact(p, QubitState.up(), 15.3 * p.period, steps_per_period=dynamics._CHUNK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 1_002_701 + 1
    assert peak < 3 * ts.values.nbytes


def test_finest_aligned_period_is_sampled_without_the_walker(monkeypatch):
    # Every steps_per_period fits one block, so every period-aligned run
    # takes the one-period path, the finest grid included.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    monkeypatch.setattr(dynamics, "_walk", _no_walk)
    ts = propagate_exact(p, QubitState.up(), p.period, steps_per_period=dynamics._CHUNK)
    h, expected = _oracle_propagate(p, QubitState.up(), p.period, dynamics._CHUNK)
    assert len(ts) == dynamics._CHUNK + 1 and ts.dt == h
    assert np.max(np.abs(ts.values - expected)) <= 1e-10


def test_timeseries_copies_a_writeable_array():
    values = np.full(8, 0.5)
    ts = TimeSeries(0.0, 0.1, values)
    values[0] = 0.9
    assert ts.values[0] == 0.5
    assert not ts.values.flags.writeable


def test_whole_periods_give_period_aligned_grid():
    # 1000 * T / T * 256 rounds to just above 256000; the grid must still
    # hold exactly 256 substeps per period.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    ts = propagate_exact(p, QubitState.up(), 1000 * p.period, steps_per_period=256)
    assert len(ts) == 256_001
    assert ts.dt * 256 == pytest.approx(p.period, rel=1e-14)


# ---------------------------------------------------------------------------
# sequential oracle: the per-substep loops the propagators ran before the
# Floquet-period composition, kept verbatim as the reference

_ORACLE_CHUNK = 1 << 16


def _oracle_propagate(p, psi0, t_end, steps_per_period):
    n, _ = dynamics._substep_count(p, t_end, steps_per_period)
    h = t_end / n
    cu = complex(psi0.up_amp)
    cd = complex(psi0.down_amp)
    out = np.empty(n + 1)
    out[0] = cu.real * cu.real + cu.imag * cu.imag
    k = 1
    for i0 in range(0, n, _ORACLE_CHUNK):
        i1 = min(i0 + _ORACLE_CHUNK, n)
        t_mid = h * (np.arange(i0, i1) + 0.5)
        u11s, u12s = dynamics._step_entries(drive_epsilon(t_mid, p), p.delta, h)
        for a11, a12 in zip(u11s.tolist(), u12s.tolist()):
            cu, cd = a11 * cu + a12 * cd, a12 * cu + a11.conjugate() * cd
            out[k] = cu.real * cu.real + cu.imag * cu.imag
            k += 1
    np.clip(out, 0.0, 1.0, out=out)
    return h, out


def _oracle_operator(p, t_start, t_end, steps_per_period):
    n, _ = dynamics._substep_count(p, t_end - t_start, steps_per_period)
    h = (t_end - t_start) / n
    m11 = 1.0 + 0.0j
    m12 = 0.0j
    m21 = 0.0j
    m22 = 1.0 + 0.0j
    for i0 in range(0, n, _ORACLE_CHUNK):
        i1 = min(i0 + _ORACLE_CHUNK, n)
        t_mid = t_start + h * (np.arange(i0, i1) + 0.5)
        u11s, u12s = dynamics._step_entries(drive_epsilon(t_mid, p), p.delta, h)
        for a11, a12 in zip(u11s.tolist(), u12s.tolist()):
            a22 = a11.conjugate()
            m11, m12, m21, m22 = (
                a11 * m11 + a12 * m21,
                a11 * m12 + a12 * m22,
                a12 * m11 + a22 * m21,
                a12 * m12 + a22 * m22,
            )
    return np.array([[m11, m12], [m21, m22]])


def _oracle_sweep(delta, v, span, psi0, steps):
    t_i = -span / v
    h = 2.0 * span / (v * steps)
    t_mid = t_i + h * (np.arange(steps) + 0.5)
    u11s, u12s = dynamics._step_entries(v * t_mid, delta, h)
    cu = complex(psi0.up_amp)
    cd = complex(psi0.down_amp)
    for a11, a12 in zip(u11s.tolist(), u12s.tolist()):
        cu, cd = a11 * cu + a12 * cd, a12 * cu + a11.conjugate() * cd
    return np.array([cu, cd])


_STATES = {"up": QubitState.up(), "down": QubitState.down(), "mixed": QubitState(0.6, 0.8j)}


@settings(max_examples=60, deadline=None)
@given(
    epsilon0=st.floats(0.0, 10.0),
    amplitude=st.floats(0.0, 30.0),
    omega=st.floats(0.3, 10.0),
    phi=st.floats(0.1, 6.0),
    cycles=st.integers(0, 12),
    steps_per_period=st.integers(16, 48),
    grid=st.sampled_from(["whole", "partial", "off-grid"]),
    fraction=st.floats(0.01, 0.99),
    state=st.sampled_from(sorted(_STATES)),
)
def test_propagate_exact_matches_sequential_oracle(
    epsilon0, amplitude, omega, phi, cycles, steps_per_period, grid, fraction, state
):
    p = DriveParams(delta=1.0, epsilon0=epsilon0, amplitude=amplitude, omega=omega, phi=phi)
    spp = steps_per_period
    if grid == "whole":
        t_end = max(cycles, 1) * p.period
    elif grid == "partial":
        # An aligned grid that ends j substeps into the last period.
        t_end = (cycles + max(1, int(fraction * spp)) / spp) * p.period
    else:
        # Half a substep off the grid.
        t_end = (cycles + (int(fraction * spp) + 0.5) / spp) * p.period
    n, aligned = dynamics._substep_count(p, t_end, spp)
    assert aligned == (grid != "off-grid")
    ts = propagate_exact(p, _STATES[state], t_end, steps_per_period=spp)
    h, expected = _oracle_propagate(p, _STATES[state], t_end, spp)
    assert len(ts) == n + 1 and ts.dt == h
    assert np.max(np.abs(ts.values - expected)) <= 1e-10


def test_multi_block_runs_match_sequential_oracle():
    # Both grids span more than one block of factors or samples.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0, phi=0.3)
    for cycles in (4100, 4100.3):
        ts = propagate_exact(p, QubitState(0.6, 0.8j), cycles * p.period, steps_per_period=16)
        h, expected = _oracle_propagate(p, QubitState(0.6, 0.8j), cycles * p.period, 16)
        assert len(ts) > dynamics._CHUNK + 1 and ts.dt == h
        assert np.max(np.abs(ts.values - expected)) <= 1e-10


@pytest.mark.parametrize(
    "t_start, t_end, spp",
    [(0.0, 1.0, 64), (0.3, 2.3, 16), (1.1, 9.7, 37), (0.0, 150.0, 512)],
)
def test_evolution_operator_matches_sequential_oracle(t_start, t_end, spp):
    p = DriveParams(delta=1.0, epsilon0=2.0, amplitude=11.0, omega=2.3, phi=0.4)
    u = evolution_operator(p, t_start * p.period, t_end * p.period, steps_per_period=spp).as_matrix()
    expected = _oracle_operator(p, t_start * p.period, t_end * p.period, spp)
    assert np.max(np.abs(u - expected)) <= 1e-12


@pytest.mark.parametrize("delta, v, span, steps", [(1.0, 2.0, 60.0, 70_001), (0.7, 20.0, 50.0, 5000), (0.0, 5.0, 10.0, 1000)])
def test_linear_sweep_matches_sequential_oracle(delta, v, span, steps):
    for psi0 in _STATES.values():
        final = propagate_linear_sweep(delta, v, span, psi0, steps=steps)
        expected = _oracle_sweep(delta, v, span, psi0, steps)
        assert np.max(np.abs(np.array([final.up_amp, final.down_amp]) - expected)) <= 1e-12


def test_long_linear_sweep_returns_a_normalised_state():
    # The scan drifts by about 3e-12 over these 150 000 steps: inside the
    # walker's 1e-10 bound, outside QubitState's 1e-12 one.
    final = propagate_linear_sweep(1.0, 4.0, 10.0, QubitState.up(), steps=150_000)
    expected = _oracle_sweep(1.0, 4.0, 10.0, QubitState.up(), 150_000)
    assert np.max(np.abs(np.array([final.up_amp, final.down_amp]) - expected)) <= 1e-12


def test_one_period_product_is_su2():
    rng = np.random.RandomState(7)
    for _ in range(20):
        p = DriveParams(
            delta=1.0,
            epsilon0=float(rng.uniform(0.0, 10.0)),
            amplitude=float(rng.uniform(0.0, 50.0)),
            omega=float(rng.uniform(0.2, 20.0)),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        spp = int(rng.randint(16, 1025))
        h = p.period / spp
        a, b = dynamics._running_products(*dynamics._step_entries(drive_epsilon(h * (np.arange(spp) + 0.5), p), p.delta, h))
        # Every running product, U_T = W_spp included, keeps the SU(2) form.
        assert np.max(np.abs(a * a.conj() + b * b.conj() - 1.0)) <= 1e-12
        u = Unitary2(a[-1], b[-1]).as_matrix()
        assert np.max(np.abs(u - evolution_operator(p, 0.0, p.period, steps_per_period=spp).as_matrix())) <= 1e-12


def test_long_floquet_run_keeps_its_norm():
    # 300000 periods of 16 substeps: powering U_T by repeated multiplication
    # drifts past the 1e-10 norm guard here; the closed-form power does not.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    cycles = 300_000
    ts = propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=16)
    assert len(ts) == cycles * 16 + 1
    from_up = ts.values[::16].copy()
    del ts
    from_down = propagate_exact(p, QubitState.down(), cycles * p.period, steps_per_period=16).values[::16]
    # Row norm of U_T^k at every period boundary.
    assert np.max(np.abs(from_up + from_down - 1.0)) <= 1e-12
    u_t = evolution_operator(p, 0.0, p.period, steps_per_period=16).as_matrix()
    for k in (1, 1234, cycles):
        final = np.linalg.matrix_power(u_t, k)[:, 0]
        assert from_up[k] == pytest.approx(abs(final[0]) ** 2, abs=1e-8)


_GENERIC_PAIR = (complex(0.48, -0.64), complex(0.36, 0.48))


@pytest.mark.parametrize(
    "pair",
    [(1.0 + 0.0j, 0.0j), (-1.0 + 0.0j, 0.0j), _GENERIC_PAIR],
    ids=["identity", "minus-identity", "generic"],
)
def test_closed_form_power_matches_matrix_power(pair):
    # A stroboscope of 1000 cycles: P_up of U^k psi0 from the one-sample form, for two states.
    m = Unitary2(*pair).as_matrix()
    for psi0 in (QubitState(0.6, 0.8j), QubitState(0.8, -0.6)):
        ts = dynamics._stroboscope(psi0, (1.0 + 0.0j, 0.0j), pair, 1000, 0.0, 1.0)
        expected = [abs((np.linalg.matrix_power(m, k) @ [psi0.up_amp, psi0.down_amp])[0]) ** 2 for k in range(1001)]
        assert np.max(np.abs(ts.values - expected)) <= 1e-12


def test_aligned_runs_carry_their_one_period_form():
    # P(k m + j) = mean_j + Re(swing_j e^{2ik lambda}) reproduces every
    # sample, the partial last period included; off the period grid, and
    # on any series built from values, there is no form.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    ts = propagate_exact(p, QubitState.up(), 30.25 * p.period, steps_per_period=64)
    form = ts._form
    assert form is not None and form.mean.size == form.swing.size == 64
    assert not form.mean.flags.writeable and not form.swing.flags.writeable
    k, j = np.divmod(np.arange(len(ts)), 64)
    model = form.mean[j] + (form.swing[j] * np.exp(2j * k * form.lam)).real
    assert np.max(np.abs(model - ts.values)) <= 1e-12
    assert propagate_exact(p, QubitState.up(), 30.1 * p.period, steps_per_period=64)._form is None
    assert TimeSeries(ts.t0, ts.dt, ts.values)._form is None
    assert "_form" not in repr(ts)


def test_period_aligned_series_pickles_read_or_unread():
    # An unread series pickles its form, not a trace; both come back with the form and the same values.
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    unread = propagate_exact(p, QubitState.up(), 10 * p.period, steps_per_period=64)
    read = propagate_exact(p, QubitState.up(), 10 * p.period, steps_per_period=64)
    assert read.values.size == 641 and len(pickle.dumps(unread)) < read.values.nbytes
    for ts in (pickle.loads(pickle.dumps(unread)), pickle.loads(pickle.dumps(read))):
        assert len(ts) == 641 and ts._form is not None and ts._form.lam == read._form.lam
        assert np.array_equal(ts._form.swing, read._form.swing)
        assert np.array_equal(ts.values, read.values)
    assert np.array_equal(unread.values, read.values)


def _series(kind):
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    if kind == "eager":
        return propagate_exact(p, QubitState.up(), 10.1 * p.period, steps_per_period=64)
    ts = propagate_exact(p, QubitState.up(), 10 * p.period, steps_per_period=64)
    if kind == "read":
        assert ts.values.size == 641
    return ts


@pytest.mark.parametrize("kind", ["eager", "unread", "read"])
@pytest.mark.parametrize(
    "duplicate",
    [lambda ts: pickle.loads(pickle.dumps(ts)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_and_pickles_stay_read_only(duplicate, kind):
    ts = _series(kind)
    dup = duplicate(ts)
    assert type(dup) is TimeSeries and (dup.t0, dup.dt, len(dup)) == (ts.t0, ts.dt, len(ts))
    assert not dup.values.flags.writeable
    assert np.array_equal(dup.values, ts.values)
    assert (dup._form is None) == (kind == "eager")
    if dup._form is not None:
        assert not dup._form.mean.flags.writeable and not dup._form.swing.flags.writeable
        assert dup._form.lam == ts._form.lam
        assert np.array_equal(dup._form.mean, ts._form.mean) and np.array_equal(dup._form.swing, ts._form.swing)


def test_repr_writes_no_trace(monkeypatch):
    monkeypatch.setattr(dynamics, "_form_values", _no_sample)
    p = DriveParams(delta=1.0, epsilon0=5.0, amplitude=34.95, omega=5.0)
    ts = propagate_exact(p, QubitState.up(), 5000 * p.period, steps_per_period=128)
    assert repr(ts) == f"TimeSeries(t0=0.0, dt={ts.dt!r}, 640001 samples)"


@pytest.mark.parametrize(
    "pair",
    [(1.0 + 0.0j, 0.0j), (-1.0 + 0.0j, 0.0j), _GENERIC_PAIR],
    ids=["identity", "minus-identity", "generic"],
)
def test_periodic_form_reproduces_the_sampler(pair):
    # Random prefixes W_j of a cycle U: sample k m + j is P_up of W_j U^k psi0, the last period partial.
    rng = np.random.default_rng(3)
    a = rng.normal(size=24) + 1j * rng.normal(size=24)
    b = rng.normal(size=24) + 1j * rng.normal(size=24)
    norm = np.hypot(np.abs(a), np.abs(b))
    wa, wb = a / norm, b / norm
    psi0 = np.array([0.6, 0.8j])
    values = dynamics._form_values(dynamics._periodic_form(wa, wb, *pair, *psi0), 24 * 1000 + 5)
    prefixes = np.array([Unitary2(x, y).as_matrix() for x, y in zip(wa, wb)])
    cycle = Unitary2(*pair).as_matrix()
    for k in range(1001):
        expected = np.abs((prefixes @ (np.linalg.matrix_power(cycle, k) @ psi0))[:, 0]) ** 2
        row = values[24 * k : 24 * k + 24]
        assert np.max(np.abs(row - expected[: row.size])) <= 1e-12


def test_closed_form_power_rejects_a_leaky_pair():
    ua, ub = _GENERIC_PAIR
    with pytest.raises(QuadratureError, match="norm drifted"):
        dynamics._periodic_form(np.ones(1, complex), np.zeros(1, complex), ua * (1.0 + 1e-9), ub, 1.0 + 0.0j, 0.0j)


@settings(max_examples=40, deadline=None)
@given(
    epsilon0=st.floats(0.0, 20.0),
    amplitude=st.floats(0.0, 30.0),
    omega=st.floats(0.5, 8.0),
    steps=st.integers(16, 1024),
    periods=st.integers(0, 40),
    extra=st.integers(0, 1023),
)
def test_deferred_samples_are_the_eager_fill(epsilon0, amplitude, omega, steps, periods, extra):
    # A period-aligned run writes its samples from its one-period form on
    # the first read of values, bit for bit as an eager _form_values of the
    # form, and within 1e-11 of the walker on the same grid; len, t_end and
    # times() do not write them.
    p = DriveParams(delta=1.0, epsilon0=epsilon0, amplitude=amplitude, omega=omega)
    fills = []
    write = dynamics._form_values

    def recorded(form, size):
        fills.append(write(form, size))
        return fills[-1]

    duration = max(1, periods * steps + extra % steps) / steps * p.period
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_form_values", recorded)
        ts = propagate_exact(p, QubitState.up(), duration, steps_per_period=steps)
        if ts._form is None:
            return  # the ratio fell off the period grid: the walker filled it
        n = len(ts) - 1
        assert ts.t_end == n * ts.dt and ts.times().size == n + 1
        assert fills == []
        values = ts.values
        assert ts.values is values and len(fills) == 1
    assert not values.flags.writeable
    assert np.array_equal(values, write(ts._form, n + 1))
    walked = np.ones(n + 1)
    dynamics._walk(lambda t: drive_epsilon(t, p), p.delta, 0.0, ts.dt, n, 1.0 + 0.0j, 0.0j, walked[1:])
    assert np.max(np.abs(values - walked)) <= 1e-11


def test_aligned_run_errors_raise_before_any_sample(monkeypatch):
    # The norm check of the cycle and the finiteness check of the samples
    # run when propagate_exact is called, not on the first read of values.
    monkeypatch.setattr(dynamics, "_form_values", _no_sample)
    exact = dynamics._step_entries
    with monkeypatch.context() as leaky:
        leaky.setattr(dynamics, "_step_entries", lambda *args: tuple(x * (1.0 + 1e-9) for x in exact(*args)))
        with pytest.raises(QuadratureError, match="norm drifted"):
            propagate_exact(_P, QubitState.up(), 3.0 * _P.period, steps_per_period=16)
    # eps0 + A overflows to inf at the top of the cosine, and its factors to NaN.
    huge = DriveParams(delta=1.0, epsilon0=1e308, amplitude=1e308, omega=1.0)
    for periods in (3.0, 0.25):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="non-finite entries"):
            propagate_exact(huge, QubitState.up(), periods * huge.period, steps_per_period=16)


def test_norm_guard_on_both_grids(monkeypatch):
    exact = dynamics._step_entries
    monkeypatch.setattr(dynamics, "_step_entries", lambda *args: tuple(x * (1.0 + 1e-9) for x in exact(*args)))
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    # Aligned: the one-period product U_T is checked; off-grid: the final state.
    for cycles in (3.0, 3.3):
        with pytest.raises(QuadratureError, match="norm drifted"):
            propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=16)
    with pytest.raises(QuadratureError, match="norm drifted"):
        evolution_operator(p, 0.0, 3.0 * p.period, steps_per_period=16)


# ---------------------------------------------------------------------------
# validation

_INVALID_DRIVES = [
    ({"delta": -1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0}, "delta must be positive, got -1.0"),
    ({"delta": 0.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0}, "delta must be positive, got 0.0"),
    ({"delta": 1.0, "epsilon0": -0.1, "amplitude": 1.0, "omega": 1.0}, "epsilon0 must be nonnegative, got -0.1"),
    ({"delta": 1.0, "epsilon0": 0.0, "amplitude": -2.0, "omega": 1.0}, "amplitude must be nonnegative, got -2.0"),
    ({"delta": 1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 0.0}, "omega must be positive, got 0.0"),
    ({"delta": 1.0, "epsilon0": float("nan"), "amplitude": 1.0, "omega": 1.0}, "epsilon0 must be a finite number, got nan"),
    ({"delta": True, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0}, "delta must be a finite number, got True"),
    ({"delta": 1.0, "epsilon0": 0.0, "amplitude": math.inf, "omega": 1.0}, "amplitude must be a finite number, got inf"),
    ({"delta": 1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0, "phi": -math.inf}, "phi must be a finite number, got -inf"),
    ({"delta": 1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": "1"}, "omega must be a finite number, got '1'"),
    ({"delta": 1.0, "epsilon0": 10**400, "amplitude": 1.0, "omega": 1.0}, "epsilon0 must be a finite number, got 1000"),
    ({"delta": 1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": -3}, "omega must be positive, got -3.0"),
    # Every field must be a number before any sign is checked; then delta,
    # omega, amplitude and epsilon0 are checked in that order.
    ({"delta": -1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0, "phi": "0"}, "phi must be a finite number"),
    ({"delta": 0.0, "epsilon0": -1.0, "amplitude": -1.0, "omega": -1.0}, "delta must be positive"),
    ({"delta": 1.0, "epsilon0": -1.0, "amplitude": -1.0, "omega": -1.0}, "omega must be positive"),
    ({"delta": 1.0, "epsilon0": -1.0, "amplitude": -1.0, "omega": 1.0}, "amplitude must be nonnegative"),
]


@pytest.mark.parametrize("kwargs, message", _INVALID_DRIVES, ids=[f"kwargs{i}" for i in range(len(_INVALID_DRIVES))])
def test_drive_params_rejects_invalid(kwargs, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        DriveParams(**kwargs)


def test_drive_params_stores_plain_floats():
    p = DriveParams(delta=np.float64(0.5), epsilon0=3, amplitude=np.float64(15.0), omega=3.0, phi=np.float64(-0.0))
    assert [type(v) for v in vars(p).values()] == [float] * 5
    assert p == DriveParams(delta=0.5, epsilon0=3.0, amplitude=15.0, omega=3.0)


_P = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)


def _no_walk(*args, **kwargs):
    raise AssertionError("the walker was reached")


def _no_sample(*args):
    raise AssertionError("a sample was written")


@pytest.mark.parametrize(
    "call",
    [
        lambda: propagate_linear_sweep(1.0, 1.0, 10.0, QubitState.up(), steps=2000.0),
        lambda: propagate_linear_sweep(1.0, "1", 10.0, QubitState.up()),
        lambda: propagate_linear_sweep(1.0, 1.0, math.inf, QubitState.up()),
        lambda: propagate_linear_sweep("1", 1.0, 10.0, QubitState.up()),
        lambda: propagate_linear_sweep(True, 1.0, 10.0, QubitState.up()),
        lambda: propagate_exact(_P, QubitState.up(), True),
        lambda: propagate_exact(_P, QubitState.up(), "1"),
        lambda: evolution_operator(_P, 0.0, math.inf),
        lambda: step_unitary(0.0, "0.1", _P),
        lambda: TimeSeries(0.0, "0.1", np.array([0.5, 0.5])),
        lambda: step_unitary(0.0, 10**400, _P),
        lambda: extract_frequency(propagate_exact(_P, QubitState.up(), 3.0 * _P.period), drive_period="3"),
        lambda: cdt_amplitudes(True),
        # Refused before the 8 TB trace is allocated.
        lambda: propagate_tm(_P, QubitState.up(), 10**12),
        # Runs of more than 10^8 - 1 substeps, refused before any walk.
        lambda: propagate_linear_sweep(1.0, 1.0, 10.0, QubitState.up(), steps=10**12),
        lambda: evolution_operator(DriveParams(1.0, 0.0, 1.0, 1.0), 0.0, 1e300),
        lambda: propagate_exact(_P, QubitState.up(), 1e308),
    ],
    ids=[
        "sweep-steps-float", "sweep-rate-str", "sweep-span-inf", "sweep-delta-str", "sweep-delta-bool", "t_end-bool",
        "t_end-str", "duration-inf", "step-str", "dt-str", "step-int-overflow", "drive-period-str",
        "cdt-omega-bool", "n_cycles-huge", "sweep-steps-huge", "duration-huge", "t_end-overflow",
    ],
)
def test_counts_and_positive_reals_are_config_errors(monkeypatch, call):
    monkeypatch.setattr(dynamics, "_walk", _no_walk)
    with pytest.raises(ConfigError):
        call()


# Each call and the argument its ConfigError names.
_CHECKED_ARGUMENTS = {
    "state-str": (lambda: QubitState("1", "0"), "up_amp"),
    "state-bool": (lambda: QubitState(True, False), "up_amp"),
    "state-letter": (lambda: QubitState("a", 0), "up_amp"),
    "state-huge-int": (lambda: QubitState(0, 10**400), "down_amp"),
    "state-norm-overflow": (lambda: QubitState(1e200, 0.0), "norm"),
    "unitary-str": (lambda: Unitary2("1", "0"), "u11"),
    "unitary-bool": (lambda: Unitary2(True, False), "u11"),
    "unitary-huge-int": (lambda: Unitary2(1.0, 10**400), "u12"),
    "phase-bool": (lambda: phase_matrix(True), "theta"),
    "phase-str": (lambda: phase_matrix("1"), "theta"),
    "phase-inf": (lambda: phase_matrix(math.inf), "theta"),
    "phase-nan": (lambda: phase_matrix(math.nan), "theta"),
    "k-bool": (lambda: lz_transfer_matrix(lz_crossing(_P), True), "crossing direction k"),
    "k-float": (lambda: lz_transfer_matrix(lz_crossing(_P), 2.0), "crossing direction k"),
    "hamiltonian-str": (lambda: hamiltonian("1", _P), "t must"),
    "hamiltonian-bool": (lambda: hamiltonian(True, _P), "t must"),
    "hamiltonian-nan": (lambda: hamiltonian(math.nan, _P), "t must"),
    "step-t-str": (lambda: step_unitary("0", 0.1, _P), "t must"),
    "step-t-nan": (lambda: step_unitary(math.nan, 0.1, _P), "t must"),
    "step-t-bool": (lambda: step_unitary(True, 0.1, _P), "t must"),
    "t_start-str": (lambda: evolution_operator(_P, "0", 1.0), "t_start"),
    "t_start-bool": (lambda: evolution_operator(_P, True, 3.0), "t_start"),
    "t_end-bool": (lambda: evolution_operator(_P, 0.0, True), "t_end"),
}


@pytest.mark.parametrize("case", list(_CHECKED_ARGUMENTS))
def test_times_amplitudes_and_crossing_index_are_checked(monkeypatch, case):
    # Times and theta are finite numbers, amplitudes and Unitary2 entries
    # ints, floats or complex numbers, and k the int 1 or 2: never a bool
    # or a string.
    call, name = _CHECKED_ARGUMENTS[case]
    monkeypatch.setattr(dynamics, "_walk", _no_walk)
    with pytest.raises(ConfigError, match=name):
        call()


def test_qubit_state_requires_normalization():
    with pytest.raises(ConfigError):
        QubitState(1.0, 1.0)
    s = QubitState(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    assert abs(s.up_amp) ** 2 == pytest.approx(0.5)


def test_unitary_rejects_non_unitary():
    with pytest.raises(ConfigError, match="is not 1 within"):
        Unitary2(1.0, 1.0)


@pytest.mark.parametrize("pair", [(0.0, 1.0), (1j, 0.0), (complex(0.48, -0.64), complex(0.36, 0.48))])
def test_unitary_matrix_has_determinant_one(pair):
    # The lower row is derived from the pair, so no det -1 or global-phase matrix can be built.
    m = Unitary2(*pair).as_matrix()
    assert abs(np.linalg.det(m) - 1.0) <= 1e-15
    assert np.max(np.abs(m.conj().T @ m - np.eye(2))) <= 1e-15


def _pushed(component: int, push) -> list:
    """_GENERIC_PAIR with one of its four real coordinates (Re u11, Im u11, Re u12, Im u12) moved by push.

    Every coordinate is nonzero, so each push moves |u11|^2 + |u12|^2 at first order.
    """
    entries = list(_GENERIC_PAIR)
    entries[component // 2] += push * (1.0, 1j)[component % 2]
    return entries


@pytest.mark.parametrize("entry", range(4))
def test_unitary_check_tolerance_per_entry(entry):
    Unitary2(*_pushed(entry, 1e-12))
    Unitary2(*_pushed(entry, -1e-12))
    with pytest.raises(ConfigError):
        Unitary2(*_pushed(entry, 1e-8))
    with pytest.raises(ConfigError):
        Unitary2(*_pushed(entry, -1e-8))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 0.0)])
@pytest.mark.parametrize("entry", range(4))
def test_unitary_rejects_non_finite_entries(entry, bad):
    with pytest.raises(ConfigError):
        Unitary2(*_pushed(entry, bad))


def test_timeseries_rejects_bad_values():
    with pytest.raises(ConfigError):
        TimeSeries(0.0, 0.1, np.array([0.5, 1.5]))
    with pytest.raises(ConfigError):
        TimeSeries(0.0, -0.1, np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        TimeSeries(0.0, 0.1, np.array([]))
    # Values hold integers or floats, as the scan grids do.
    for values in ("abc", [0.5, 1j], np.array([True, False]), ["0.5", "0.25"], [[0.5], [0.5, 0.5]], [None, 0.5]):
        with pytest.raises(ConfigError):
            TimeSeries(0.0, 0.1, values)
    # t0 is a finite number: a string would fail only in times(), and NaN
    # would give a NaN t_end.
    for t0 in ("a", math.nan, math.inf, None, True, 10**400):
        with pytest.raises(ConfigError, match="t0"):
            TimeSeries(t0, 0.1, [0.5] * 40)
    assert np.array_equal(TimeSeries(0, 1, [0, 1]).values, [0.0, 1.0])


def test_timeseries_stores_t0_and_dt_as_floats():
    # As a computed series holds them: an int t0 reads and prints as 0.0.
    ts = TimeSeries(0, 1, [0, 1])
    assert type(ts.t0) is float and type(ts.dt) is float
    assert repr(ts) == "TimeSeries(t0=0.0, dt=1.0, 2 samples)"


@pytest.mark.parametrize("steps_per_period", [32.0, 16.5, True, "32"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p, spp: propagate_exact(p, QubitState.up(), 2.0 * p.period, steps_per_period=spp),
        lambda p, spp: evolution_operator(p, 0.0, p.period, steps_per_period=spp),
        lambda p, spp: scan_resonance_map(("omega", 3.0), ("epsilon0", [3.0]), ("amplitude", [15.0]), spp),
    ],
    ids=["propagate_exact", "evolution_operator", "scan_resonance_map"],
)
def test_steps_per_period_must_be_an_integer(call, steps_per_period):
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    with pytest.raises(ConfigError, match="steps_per_period must be an integer >= 16"):
        call(p, steps_per_period)


def test_propagate_rejects_bad_grid():
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=1.0, omega=1.0)
    with pytest.raises(ConfigError):
        propagate_exact(p, QubitState.up(), -1.0)
    with pytest.raises(ConfigError):
        propagate_exact(p, QubitState.up(), 1.0, steps_per_period=8)
    with pytest.raises(ConfigError):
        evolution_operator(p, 1.0, 1.0)
