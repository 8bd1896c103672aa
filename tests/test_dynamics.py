"""Propagator checks: closed-form limits, unitarity, convergence order."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivenqubit import dynamics
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
    # special-unitary shape: u22 = conj(u11), u21 = u12 = -i sin()/r * a
    assert u_step.u22 == np.conj(u_step.u11)
    assert u_step.u21 == u_step.u12


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
        vec = u.as_matrix() @ QubitState.up().as_vector()
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
        p_flip = 1.0 - final.probability_up
        exact = 1.0 - math.exp(-math.pi * delta**2 / (2.0 * v))
        assert p_flip == pytest.approx(exact, rel=0.01)


def test_linear_sweep_span_50_absolute():
    # At span 50 the finite-span ripple is a few percent of the flip
    # probability; the absolute deviation stays below 0.02.
    delta = 1.0
    for v in (5.0, 100.0):
        final = propagate_linear_sweep(delta, v, 50.0, QubitState.up(), steps=40_000)
        p_flip = 1.0 - final.probability_up
        exact = 1.0 - math.exp(-math.pi * delta**2 / (2.0 * v))
        assert abs(p_flip - exact) < 0.02


def test_linear_sweep_zero_gap_never_flips():
    final = propagate_linear_sweep(0.0, 5.0, 100.0, QubitState.up(), steps=5000)
    assert final.probability_up == pytest.approx(1.0, abs=1e-12)


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
        assert np.max(np.abs(final.as_vector() - expected)) <= 1e-12


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
        u = Unitary2(a[-1], b[-1], -np.conj(b[-1]), np.conj(a[-1])).as_matrix()
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
        final = np.linalg.matrix_power(u_t, k) @ QubitState.up().as_vector()
        assert from_up[k] == pytest.approx(abs(final[0]) ** 2, abs=1e-8)


_GENERIC_PAIR = (complex(0.48, -0.64), complex(0.36, 0.48))


@pytest.mark.parametrize(
    "pair",
    [(1.0 + 0.0j, 0.0j), (-1.0 + 0.0j, 0.0j), _GENERIC_PAIR],
    ids=["identity", "minus-identity", "generic"],
)
def test_closed_form_power_matches_matrix_power(pair):
    ua, ub = pair
    k = np.array([0, 1, 7, 1000])
    u0, d0 = 0.6 + 0.0j, 0.8j
    u, d = dynamics._powers(ua, ub, u0, d0, k)
    m = dynamics._unitary(ua, ub).as_matrix()
    for i, ki in enumerate(k):
        expected = np.linalg.matrix_power(m, int(ki)) @ np.array([u0, d0])
        assert np.max(np.abs(np.array([u[i], d[i]]) - expected)) <= 1e-12


def test_closed_form_power_rejects_a_leaky_pair():
    ua, ub = _GENERIC_PAIR
    with pytest.raises(QuadratureError, match="norm drifted"):
        dynamics._powers(ua * (1.0 + 1e-9), ub, 1.0 + 0.0j, 0.0j, np.arange(3))


def test_norm_guard_on_both_grids(monkeypatch):
    exact = dynamics._step_entries
    monkeypatch.setattr(dynamics, "_step_entries", lambda *args: tuple(x * (1.0 + 1e-9) for x in exact(*args)))
    p = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
    # Aligned: the one-period product U_T is checked; off-grid: the final state.
    for cycles in (3.0, 3.3):
        with pytest.raises(QuadratureError, match="norm drifted"):
            propagate_exact(p, QubitState.up(), cycles * p.period, steps_per_period=16)


# ---------------------------------------------------------------------------
# validation

@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": -1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0},
        {"delta": 0.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 1.0},
        {"delta": 1.0, "epsilon0": -0.1, "amplitude": 1.0, "omega": 1.0},
        {"delta": 1.0, "epsilon0": 0.0, "amplitude": -2.0, "omega": 1.0},
        {"delta": 1.0, "epsilon0": 0.0, "amplitude": 1.0, "omega": 0.0},
        {"delta": 1.0, "epsilon0": float("nan"), "amplitude": 1.0, "omega": 1.0},
    ],
)
def test_drive_params_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        DriveParams(**kwargs)


def test_qubit_state_requires_normalization():
    with pytest.raises(ConfigError):
        QubitState(1.0, 1.0)
    s = QubitState(1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
    assert s.probability_up == pytest.approx(0.5)


def test_unitary_rejects_non_unitary():
    with pytest.raises(ConfigError):
        Unitary2(1.0, 1.0, 0.0, 1.0)


_ROTATION = (complex(0.6, 0.0), complex(0.0, 0.8), complex(0.0, 0.8), complex(0.6, 0.0))


@pytest.mark.parametrize("entry", range(4))
def test_unitary_check_tolerance_per_entry(entry):
    def perturbed(eps):
        entries = list(_ROTATION)
        entries[entry] += eps
        return Unitary2(*entries)

    perturbed(1e-12)
    perturbed(1e-12j)
    with pytest.raises(ConfigError):
        perturbed(1e-8)
    with pytest.raises(ConfigError):
        perturbed(1e-8j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 0.0)])
@pytest.mark.parametrize("entry", range(4))
def test_unitary_rejects_non_finite_entries(entry, bad):
    entries = list(_ROTATION)
    entries[entry] = bad
    with pytest.raises(ConfigError):
        Unitary2(*entries)


def test_timeseries_rejects_bad_values():
    with pytest.raises(ConfigError):
        TimeSeries(0.0, 0.1, np.array([0.5, 1.5]))
    with pytest.raises(ConfigError):
        TimeSeries(0.0, -0.1, np.array([0.5, 0.5]))
    with pytest.raises(ConfigError):
        TimeSeries(0.0, 0.1, np.array([]))


def test_propagate_rejects_bad_grid():
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=1.0, omega=1.0)
    with pytest.raises(ConfigError):
        propagate_exact(p, QubitState.up(), -1.0)
    with pytest.raises(ConfigError):
        propagate_exact(p, QubitState.up(), 1.0, steps_per_period=8)
    with pytest.raises(ConfigError):
        evolution_operator(p, 1.0, 1.0)
