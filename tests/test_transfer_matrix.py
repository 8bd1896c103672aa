"""Transfer-matrix checks: crossings, phases, composition, decomposition.

Phase integrals are re-derived here with direct scipy quadrature over the
instantaneous gap, so the closed forms in the package are tested against
an independent computation, not against themselves.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from drivenqubit import analysis, cli, transfer_matrix
from drivenqubit.dynamics import DriveParams, QubitState, drive_epsilon, evolution_operator, propagate_linear_sweep
from drivenqubit.errors import ConfigError, QuadratureError, RegimeError
from drivenqubit.specfun import stokes_phase
from drivenqubit.transfer_matrix import (
    crossing_times,
    cycle_phases,
    decompose_full_cycle,
    full_cycle_matrix,
    full_cycle_matrix_windowed,
    lz_crossing,
    lz_mixing_angle,
    lz_transfer_matrix,
    phase_matrix,
    propagate_tm,
    reconstruct_full_cycle,
    sweep_rate,
    tm_fast_frequency,
    tm_fast_resonance_check,
    tm_resonance_width,
    tm_slow_frequency,
    tm_slow_resonance_lhs,
)

_FAST_FIVE_PHOTON = DriveParams(delta=1.0, epsilon0=5.0, amplitude=30.0, omega=1.0)
_FAST_ONE_PHOTON = DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0)
_SLOW = DriveParams(delta=1.0, epsilon0=0.5, amplitude=2.0, omega=0.05)


def _half_gap_integral(p, a, b):
    """Independent oracle: integral of sqrt(eps^2 + delta^2)/2 over [a, b]."""
    val, err = quad(
        lambda t: 0.5 * math.hypot(drive_epsilon(t, p), p.delta),
        a, b, epsabs=1e-12, epsrel=1e-12, limit=300,
    )
    assert err < 1e-6 * (1.0 + abs(val))
    return val


# ---------------------------------------------------------------------------
# crossings and sweep rate

def test_crossing_times_are_zeros_of_the_bias():
    for p in (_FAST_FIVE_PHOTON, _FAST_ONE_PHOTON):
        t_c1, t_c2 = crossing_times(p)
        assert 0.0 < t_c1 < t_c2 < p.period
        assert drive_epsilon(t_c1, p) == pytest.approx(0.0, abs=1e-12)
        assert drive_epsilon(t_c2, p) == pytest.approx(0.0, abs=1e-12)
        # first crossing sweeps downward, second upward
        h = 1e-7
        assert drive_epsilon(t_c1 + h, p) < 0.0 < drive_epsilon(t_c1 - h, p)
        assert drive_epsilon(t_c2 - h, p) < 0.0 < drive_epsilon(t_c2 + h, p)


def test_crossing_requires_amplitude_above_bias():
    with pytest.raises(RegimeError):
        crossing_times(DriveParams(delta=1.0, epsilon0=5.0, amplitude=4.0, omega=1.0))
    with pytest.raises(RegimeError):
        crossing_times(DriveParams(delta=1.0, epsilon0=5.0, amplitude=5.0, omega=1.0))
    with pytest.raises(RegimeError):
        crossing_times(DriveParams(delta=1.0, epsilon0=1.0, amplitude=5.0, omega=1.0, phi=0.3))


def test_sweep_rate_matches_drive_slope():
    for p in (_FAST_FIVE_PHOTON, _FAST_ONE_PHOTON):
        v = sweep_rate(p)
        assert v == pytest.approx(p.omega * math.sqrt(p.amplitude**2 - p.epsilon0**2), rel=1e-12)
        t_c1, _ = crossing_times(p)
        h = 1e-6
        slope = (drive_epsilon(t_c1 + h, p) - drive_epsilon(t_c1 - h, p)) / (2.0 * h)
        assert abs(slope) == pytest.approx(v, rel=1e-5)


# ---------------------------------------------------------------------------
# single-crossing transfer matrix

def test_mixing_angle_against_sweep_oracle():
    p = DriveParams(delta=1.0, epsilon0=2.0, amplitude=10.0, omega=1.5)
    chi = lz_mixing_angle(p)
    flip = math.sin(0.5 * chi) ** 2
    final = propagate_linear_sweep(1.0, sweep_rate(p), 400.0, QubitState.up(), steps=120_000)
    assert flip == pytest.approx(1.0 - final.probability_up, rel=0.02)


def test_lz_crossing_phases():
    c = lz_crossing(_FAST_ONE_PHOTON)
    assert c.sweep_rate == pytest.approx(sweep_rate(_FAST_ONE_PHOTON))
    assert c.delta_adiab == pytest.approx(1.0 / (4.0 * c.sweep_rate))
    theta_s = stokes_phase(c.delta_adiab)
    assert c.theta_lz_2 == pytest.approx(theta_s, abs=1e-12)
    assert c.theta_lz_1 == pytest.approx(math.pi - theta_s, abs=1e-12)


def test_lz_transfer_matrix_structure():
    c = lz_crossing(_FAST_ONE_PHOTON)
    for k, theta in ((1, c.theta_lz_1), (2, c.theta_lz_2)):
        g = lz_transfer_matrix(c, k).as_matrix()
        assert g[0, 0] == pytest.approx(math.cos(0.5 * c.chi))
        assert g[0, 1] == pytest.approx(math.sin(0.5 * c.chi) * np.exp(1j * theta))
        assert g[1, 0] == pytest.approx(-math.sin(0.5 * c.chi) * np.exp(-1j * theta))
        assert np.allclose(g.conj().T @ g, np.eye(2), atol=1e-14)
    with pytest.raises(ConfigError):
        lz_transfer_matrix(c, 3)


def test_phase_matrix_is_diagonal_z_rotation():
    g = phase_matrix(0.7).as_matrix()
    assert g[0, 0] == pytest.approx(np.exp(-0.7j))
    assert g[1, 1] == pytest.approx(np.exp(0.7j))
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0


# ---------------------------------------------------------------------------
# cycle phases against direct quadrature

@pytest.mark.parametrize("p", [_FAST_FIVE_PHOTON, _FAST_ONE_PHOTON, _SLOW], ids=["five_photon", "one_photon", "slow"])
def test_theta_tildes_match_gap_quadrature(p):
    ph = cycle_phases(p)
    t_c1, t_c2 = crossing_times(p)
    # region 2 (eps < 0) spans [t_c1, t_c2]; region 1 the rest of the cycle
    theta2 = _half_gap_integral(p, t_c1, t_c2)
    theta1 = -_half_gap_integral(p, t_c2, t_c1 + p.period)
    assert ph.theta_tilde_2 == pytest.approx(theta2, abs=1e-9)
    assert ph.theta_tilde_1 == pytest.approx(theta1, abs=1e-9)
    assert ph.f1 >= 0.0 and ph.f2 >= 0.0


def _gap_excess_oracle(p, a, b):
    """Independent oracle: integral of (sqrt(eps^2 + delta^2) - |eps|)/2 over all of [a, b]."""
    val, err = quad(
        lambda t: 0.5 * (math.hypot(drive_epsilon(t, p), p.delta) - abs(drive_epsilon(t, p))),
        a, b, epsabs=1e-14, epsrel=1e-13, limit=400,
    )
    # quad's estimate is conservative: 1e-11 here means far below 1e-12 in fact.
    assert err < 1e-11
    return val


@settings(max_examples=50, deadline=None)
@given(
    omega=st.floats(0.05, 20.0),
    amplitude=st.floats(1.1, 316.0),
    bias_fraction=st.floats(0.0, 0.95),
)
def test_half_period_gap_corrections_and_su2_cycle(omega, amplitude, bias_fraction):
    p = DriveParams(delta=1.0, epsilon0=bias_fraction * amplitude, amplitude=amplitude, omega=omega)
    ph = cycle_phases(p)
    t_c1, t_c2 = crossing_times(p)
    # f1, f2 come from doubled half-period quadratures; the oracle covers
    # each whole region.
    assert ph.f1 == pytest.approx(_gap_excess_oracle(p, t_c2, t_c1 + p.period), abs=1e-12)
    assert ph.f2 == pytest.approx(_gap_excess_oracle(p, t_c1, t_c2), abs=1e-12)
    assert ph.f1 >= 0.0 and ph.f2 >= 0.0
    # Region 1 is symmetric about t = 0, so propagate_tm's prelude phase
    # over [0, t_c1] is half of theta_tilde_1.
    assert 0.5 * ph.theta_tilde_1 == pytest.approx(-_half_gap_integral(p, 0.0, t_c1), rel=1e-11, abs=1e-11)
    u = full_cycle_matrix(p)
    assert abs(u.u22 - u.u11.conjugate()) <= 1e-12
    assert abs(u.u21 + u.u12.conjugate()) <= 1e-12
    assert abs(abs(u.u11) ** 2 + abs(u.u12) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "call, expected",
    [
        (full_cycle_matrix, 2),
        (tm_slow_resonance_lhs, 0),
        (tm_slow_frequency, 2),
        (lambda p: propagate_tm(p, QubitState.up(), 3), 2),
        (analysis._cell_predictions, 2),
        (cycle_phases, 2),
        (lambda p: full_cycle_matrix_windowed(p, 0.05), 4),
        (lambda p: cli.main(["predict", "--eps0", "3", "--amp", "15", "--omega", "3", "--format", "json"]), 4),
    ],
    ids=[
        "full_cycle_matrix",
        "tm_slow_resonance_lhs",
        "tm_slow_frequency",
        "propagate_tm",
        "cell_predictions",
        "cycle_phases",
        "full_cycle_matrix_windowed",
        "cli_predict",
    ],
)
def test_quadrature_counts(monkeypatch, call, expected):
    # cycle_phases runs the only two gap-correction quadratures on the
    # boundary-independent path; the slow-crossing condition needs none,
    # and only the windowed construction pays for four band integrals.
    # The CLI predict point is (3, 15, 3), the same as _FAST_ONE_PHOTON.
    calls = []

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(transfer_matrix, "quad", counting_quad)
    call(_FAST_ONE_PHOTON)
    assert len(calls) == expected


def test_gap_excess_scales_quadratically_in_delta():
    # f_j ~ delta^2 (log-corrected): doubling delta multiplies f2 by ~4.
    small = cycle_phases(DriveParams(delta=0.5, epsilon0=3.0, amplitude=15.0, omega=3.0))
    big = cycle_phases(DriveParams(delta=1.0, epsilon0=3.0, amplitude=15.0, omega=3.0))
    ratio = big.f2 / small.f2
    assert 3.0 < ratio < 4.5


def test_windowed_construction_rejects_bad_window():
    # the windows must stay inside both between-crossing intervals
    with pytest.raises(ConfigError):
        full_cycle_matrix_windowed(_FAST_ONE_PHOTON, 10.0)
    with pytest.raises(ConfigError):
        full_cycle_matrix_windowed(_FAST_ONE_PHOTON, -0.1)


# ---------------------------------------------------------------------------
# full-cycle matrix: closed entries, decomposition, windows

def _closed_form_entries(p):
    """Hand-composed g11, g12 from the four-factor product."""
    c = lz_crossing(p)
    ph = cycle_phases(p)
    cos2 = math.cos(0.5 * c.chi) ** 2
    sin2 = math.sin(0.5 * c.chi) ** 2
    sc = math.sin(0.5 * c.chi) * math.cos(0.5 * c.chi)
    big_p = ph.theta_tilde_1 + ph.theta_tilde_2
    big_q = c.theta_lz_1 - c.theta_lz_2 + ph.theta_tilde_1 - ph.theta_tilde_2
    g11 = cos2 * np.exp(-1j * big_p) - sin2 * np.exp(-1j * big_q)
    g12 = sc * (
        np.exp(1j * (c.theta_lz_1 + ph.theta_tilde_1 - ph.theta_tilde_2))
        + np.exp(1j * (c.theta_lz_2 + ph.theta_tilde_1 + ph.theta_tilde_2))
    )
    return g11, g12, big_p, big_q, cos2, sin2


@pytest.mark.parametrize("p", [_FAST_FIVE_PHOTON, _FAST_ONE_PHOTON], ids=["five_photon", "one_photon"])
def test_full_cycle_matrix_matches_closed_entries(p):
    g11, g12, *_ = _closed_form_entries(p)
    u = full_cycle_matrix(p).as_matrix()
    assert u[0, 0] == pytest.approx(g11, abs=1e-12)
    assert u[0, 1] == pytest.approx(g12, abs=1e-12)
    assert u[1, 0] == pytest.approx(-np.conj(g12), abs=1e-12)
    assert u[1, 1] == pytest.approx(np.conj(g11), abs=1e-12)


@pytest.mark.parametrize("p", [_FAST_FIVE_PHOTON, _FAST_ONE_PHOTON, _SLOW], ids=["five_photon", "one_photon", "slow"])
def test_theta_fc_closed_form(p):
    _, _, big_p, big_q, cos2, sin2 = _closed_form_entries(p)
    theta_closed = 2.0 * math.atan2(
        cos2 * math.sin(big_p) - sin2 * math.sin(big_q),
        cos2 * math.cos(big_p) - sin2 * math.cos(big_q),
    )
    deco = decompose_full_cycle(full_cycle_matrix(p))
    diff = (deco.theta_fc - theta_closed) % (4.0 * math.pi)
    assert min(diff, 4.0 * math.pi - diff) < 1e-9


def test_g12_argument_identity():
    for p in (_FAST_FIVE_PHOTON, _FAST_ONE_PHOTON):
        c = lz_crossing(p)
        ph = cycle_phases(p)
        u = full_cycle_matrix(p).as_matrix()
        predicted = 0.5 * (c.theta_lz_1 + c.theta_lz_2) + ph.theta_tilde_1
        diff = (np.angle(u[0, 1]) - predicted) % math.pi
        assert min(diff, math.pi - diff) < 1e-9


def test_windowed_construction_invariance_at_zero_bias():
    p = DriveParams(delta=1.0, epsilon0=0.0, amplitude=20.0, omega=5.0)
    base = full_cycle_matrix(p).as_matrix()
    for tau in (0.05, 0.1, 0.2):
        win = full_cycle_matrix_windowed(p, tau).as_matrix()
        assert np.max(np.abs(win - base)) < 1e-12


def test_windowed_construction_small_drift_at_small_bias():
    p = DriveParams(delta=1.0, epsilon0=0.1, amplitude=20.0, omega=5.0)
    tau = 0.05
    a = full_cycle_matrix_windowed(p, tau).as_matrix()
    b = full_cycle_matrix_windowed(p, 2.0 * tau).as_matrix()
    assert np.max(np.abs(a - b)) < 1e-3


def test_decompose_reconstruct_round_trip():
    rng = np.random.RandomState(17)
    for _ in range(200):
        zeta = float(rng.uniform(0.0, math.pi))
        theta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        u = reconstruct_full_cycle_like(zeta, theta, phi)
        deco = decompose_full_cycle(u)
        assert 0.0 <= deco.zeta_fc <= math.pi
        assert -2.0 * math.pi < deco.theta_fc <= 2.0 * math.pi
        back = reconstruct_full_cycle(deco).as_matrix()
        assert np.max(np.abs(back - u.as_matrix())) < 1e-12


def reconstruct_full_cycle_like(zeta, theta, phi):
    """Build the su(2) matrix directly from angles, outside the package."""
    from drivenqubit.dynamics import Unitary2

    u11 = math.cos(0.5 * zeta) * np.exp(-0.5j * theta)
    u12 = math.sin(0.5 * zeta) * np.exp(1j * (phi + 0.5 * theta))
    return Unitary2(u11, u12, -np.conj(u12), np.conj(u11))


def test_decompose_degenerate_conventions():
    from drivenqubit.dynamics import Unitary2

    ident = decompose_full_cycle(Unitary2(1.0, 0.0, 0.0, 1.0))
    assert ident.zeta_fc == pytest.approx(0.0)
    assert ident.theta_fc == pytest.approx(0.0)
    assert ident.phi_fc == pytest.approx(0.0)

    phase = decompose_full_cycle(Unitary2(np.exp(-0.4j), 0.0, 0.0, np.exp(0.4j)))
    assert phase.zeta_fc == pytest.approx(0.0)
    assert phase.theta_fc == pytest.approx(0.8)
    assert phase.phi_fc == pytest.approx(0.0)

    swap = decompose_full_cycle(Unitary2(0.0, 1.0, -1.0, 0.0))
    assert swap.zeta_fc == pytest.approx(math.pi)
    assert swap.phi_fc == pytest.approx(0.0)


def test_decompose_rejects_general_unitary():
    from drivenqubit.dynamics import Unitary2

    # unitary but not of the su(2) form (det = -1)
    with pytest.raises(ConfigError):
        decompose_full_cycle(Unitary2(0.0, 1.0, 1.0, 0.0))


def test_cycle_start_choice_preserves_eigenphases():
    # Starting the cycle in the other region conjugates the product, so
    # the trace (hence the quasienergy splitting) is unchanged.
    p = _FAST_ONE_PHOTON
    c = lz_crossing(p)
    ph = cycle_phases(p)
    g1 = phase_matrix(ph.theta_tilde_1).as_matrix()
    g2 = phase_matrix(ph.theta_tilde_2).as_matrix()
    l1 = lz_transfer_matrix(c, 1).as_matrix()
    l2 = lz_transfer_matrix(c, 2).as_matrix()
    u_region1_start = l2 @ g2 @ l1 @ g1
    u_region2_start = l1 @ g1 @ l2 @ g2
    assert np.trace(u_region1_start) == pytest.approx(np.trace(u_region2_start), abs=1e-12)
    assert np.max(np.abs(full_cycle_matrix(p).as_matrix() - u_region1_start)) < 1e-12


# ---------------------------------------------------------------------------
# stroboscopic propagation

def test_propagate_tm_shape_and_range():
    ts = propagate_tm(_FAST_FIVE_PHOTON, QubitState.up(), 20)
    assert len(ts) == 21
    assert ts.dt == pytest.approx(_FAST_FIVE_PHOTON.period)
    assert np.all(ts.values >= 0.0) and np.all(ts.values <= 1.0)
    assert ts.values[0] != pytest.approx(ts.values[5], abs=1e-6)


def test_propagate_tm_tracks_exact_plateaus():
    from drivenqubit.analysis import stroboscopic_exact

    exact = stroboscopic_exact(_FAST_FIVE_PHOTON, QubitState.up(), 10)
    tm = propagate_tm(_FAST_FIVE_PHOTON, QubitState.up(), 10)
    assert np.max(np.abs(exact.values - tm.values)) < 0.05


# ---------------------------------------------------------------------------
# per-cycle oracles: the loops propagate_tm and stroboscopic_exact ran
# before the closed-form power, in plain complex arithmetic

def _oracle_strobe(prelude, cycle, psi0, n_cycles):
    """P_up of the prelude-carried state after 0..n_cycles multiplications by cycle."""
    (p11, p12), (p21, p22) = prelude.tolist()
    (m11, m12), (m21, m22) = cycle.tolist()
    u0, d0 = complex(psi0.up_amp), complex(psi0.down_amp)
    u, d = p11 * u0 + p12 * d0, p21 * u0 + p22 * d0
    values = [abs(u) ** 2]
    for _ in range(n_cycles):
        u, d = m11 * u + m12 * d, m21 * u + m22 * d
        values.append(abs(u) ** 2)
    return np.clip(values, 0.0, 1.0)


def _tm_prelude_and_cycle(p):
    """propagate_tm's prelude G_LZ2 G_2 G_LZ1 G_1p and cycle, as 2x2 arrays."""
    c = lz_crossing(p)
    ph = cycle_phases(p)
    head = lz_transfer_matrix(c, 2).as_matrix() @ phase_matrix(ph.theta_tilde_2).as_matrix()
    head = head @ lz_transfer_matrix(c, 1).as_matrix()
    return head @ phase_matrix(0.5 * ph.theta_tilde_1).as_matrix(), head @ phase_matrix(ph.theta_tilde_1).as_matrix()


def _oracle_propagate_tm(p, psi0, n_cycles):
    return _oracle_strobe(*_tm_prelude_and_cycle(p), psi0, n_cycles)


def _oracle_stroboscopic_exact(p, psi0, n_cycles, steps_per_period):
    t_c1, t_c2 = crossing_times(p)
    t0 = t_c2 + 0.5 * (p.period - (t_c2 - t_c1))
    prelude = evolution_operator(p, 0.0, t0, steps_per_period=steps_per_period).as_matrix()
    cycle = evolution_operator(p, t0, t0 + p.period, steps_per_period=steps_per_period).as_matrix()
    return _oracle_strobe(prelude, cycle, psi0, n_cycles)


_STATES = [QubitState.up(), QubitState.down(), QubitState(0.6, 0.8j)]


@settings(max_examples=40, deadline=None)
@given(
    amplitude=st.floats(1.1, 50.0),
    eps_fraction=st.floats(0.0, 0.95),
    omega=st.floats(0.1, 10.0),
    n_cycles=st.integers(1, 1000),
    state=st.integers(0, len(_STATES) - 1),
)
def test_stroboscopic_paths_match_per_cycle_oracles(amplitude, eps_fraction, omega, n_cycles, state):
    p = DriveParams(delta=1.0, epsilon0=eps_fraction * amplitude, amplitude=amplitude, omega=omega)
    psi0 = _STATES[state]
    tm = propagate_tm(p, psi0, n_cycles)
    assert np.max(np.abs(tm.values - _oracle_propagate_tm(p, psi0, n_cycles))) <= 1e-10
    exact = analysis.stroboscopic_exact(p, psi0, n_cycles, steps_per_period=64)
    assert np.max(np.abs(exact.values - _oracle_stroboscopic_exact(p, psi0, n_cycles, 64))) <= 1e-10


def test_propagate_tm_long_run_matches_matrix_power():
    # 300000 cycles: the per-cycle QubitState loop drifted past the 1e-12
    # state-norm check here; the closed-form power does not drift.
    p = _FAST_ONE_PHOTON
    cycles = 300_000
    ts = propagate_tm(p, QubitState.up(), cycles)
    assert len(ts) == cycles + 1
    prelude, cycle = _tm_prelude_and_cycle(p)
    start = prelude @ QubitState.up().as_vector()
    for k in (1, 1000, cycles):
        final = np.linalg.matrix_power(cycle, k) @ start
        assert ts.values[k] == pytest.approx(abs(final[0]) ** 2, abs=1e-8)


def test_leaky_cycle_pair_is_a_numerical_error(monkeypatch, capsys):
    exact = transfer_matrix._phase_pair
    monkeypatch.setattr(transfer_matrix, "_phase_pair", lambda theta: tuple(x * (1.0 + 1e-9) for x in exact(theta)))
    with pytest.raises(QuadratureError, match="norm drifted"):
        propagate_tm(_FAST_ONE_PHOTON, QubitState.up(), 3)
    assert cli.main(["simulate", "--eps0", "3", "--amp", "15", "--omega", "3", "--cycles", "3"]) == 4
    assert "norm drifted" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fast and slow predictors

@pytest.mark.parametrize("x, n", [(2.5, 2), (2.5 + 1e-13, 2), (2.6, 3), (2.4, 2), (0.0, 0)])
def test_nearest_integer_sends_ties_within_the_band_down(x, n):
    assert transfer_matrix._nearest_integer(x) == n
    assert isinstance(transfer_matrix._nearest_integer(x), int)


def test_fast_frequency_agrees_with_exact_matrix_route():
    for p in (_FAST_ONE_PHOTON, DriveParams(delta=1.0, epsilon0=3.0, amplitude=20.0, omega=3.0)):
        closed = tm_fast_frequency(p)
        exact = tm_slow_frequency(p)  # omega * zeta_fc / (2 pi), valid generally
        assert closed == pytest.approx(exact, rel=0.10)


def test_fast_frequency_regime_guard():
    with pytest.raises(RegimeError):
        tm_fast_frequency(DriveParams(delta=1.0, epsilon0=0.5, amplitude=2.0, omega=0.4))


@pytest.mark.parametrize(
    "eps0, omega, n_expected, dev_expected",
    [(5.0, 1.0, 5, 0.0), (5.3, 1.0, 5, 0.3), (5.5, 1.0, 5, 0.5), (0.0, 3.0, 0, 0.0)],
)
def test_fast_resonance_check(eps0, omega, n_expected, dev_expected):
    p = DriveParams(delta=1.0, epsilon0=eps0, amplitude=30.0, omega=omega)
    n, dev = tm_fast_resonance_check(p)
    assert n == n_expected
    assert dev == pytest.approx(dev_expected, abs=1e-12)


def test_tm_resonance_width_formula_and_guards():
    p = _FAST_FIVE_PHOTON
    zeta = decompose_full_cycle(full_cycle_matrix(p)).zeta_fc
    width = tm_resonance_width(p, zeta, 5)
    assert width == pytest.approx(p.omega**2 * zeta / (2.0 * math.pi * p.epsilon0), rel=1e-12)
    with pytest.raises(RegimeError):
        tm_resonance_width(p, zeta, 0)
    with pytest.raises(RegimeError):
        tm_resonance_width(DriveParams(delta=1.0, epsilon0=0.0, amplitude=30.0, omega=1.0), zeta, 1)
    with pytest.raises(ConfigError):
        tm_resonance_width(p, 4.0, 1)


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_tm_resonance_width_rejects_non_integer_index(n):
    # A photon index of the wrong type is a configuration error; only the
    # integer n = 0 (and eps0 = 0) lie outside the width's regime.
    p = _FAST_FIVE_PHOTON
    zeta = decompose_full_cycle(full_cycle_matrix(p)).zeta_fc
    with pytest.raises(ConfigError, match="photon index"):
        tm_resonance_width(p, zeta, n)


def test_slow_resonance_lhs_closed_form():
    p = _SLOW
    res = tm_slow_resonance_lhs(p)
    s = math.sqrt(p.amplitude**2 - p.epsilon0**2) / p.omega
    gamma = math.acos(p.epsilon0 / p.amplitude)
    by_hand = p.epsilon0 / p.omega + 2.0 * s / math.pi - 2.0 * p.epsilon0 * gamma / (math.pi * p.omega)
    assert res.lhs == pytest.approx(by_hand, rel=1e-12)
    assert res.nearest_integer == round(res.lhs)
    assert res.residual == pytest.approx(res.lhs - res.nearest_integer)
    assert res.in_slow_regime


def _refined_theta_fc(p):
    """Slow-crossing theta_FC keeping the gap corrections: 2 (theta_tilde_2 - theta_tilde_1) - 2 pi."""
    ph = cycle_phases(p)
    return 2.0 * (ph.theta_tilde_2 - ph.theta_tilde_1) - 2.0 * math.pi


def test_slow_refined_theta_is_the_printed_formula():
    p = _SLOW
    res = tm_slow_resonance_lhs(p)
    ph = cycle_phases(p)
    by_hand = -2.0 * math.pi + 2.0 * math.pi * res.lhs + 2.0 * (ph.f1 + ph.f2)
    assert _refined_theta_fc(p) == pytest.approx(by_hand, rel=1e-12)


def test_slow_refined_theta_relation_to_decomposition():
    # The refined expression drops the Stokes phase and carries the
    # opposite overall sign convention; against the exact decomposition
    # it satisfies theta_fc + refined = -2 pi - 4 theta_stokes (mod 4 pi)
    # up to adiabatic corrections of order cos^2(chi/2) ~ 1e-7 here.
    # Either sign describes the same resonance set mod 2 pi.
    refined = _refined_theta_fc(_SLOW)
    deco = decompose_full_cycle(full_cycle_matrix(_SLOW))
    theta_s = stokes_phase(lz_crossing(_SLOW).delta_adiab)
    combo = (deco.theta_fc + refined + 2.0 * math.pi + 4.0 * theta_s) % (4.0 * math.pi)
    assert min(combo, 4.0 * math.pi - combo) < 1e-5


def test_slow_limit_azimuth_relation():
    # In the adiabatic limit the decomposition azimuth collapses onto
    # pi/2 + 2*theta_stokes + theta_tilde_2 (mod pi), with corrections
    # of order cos^2(chi/2) ~ 1e-7 here.
    c = lz_crossing(_SLOW)
    ph = cycle_phases(_SLOW)
    deco = decompose_full_cycle(full_cycle_matrix(_SLOW))
    predicted = 0.5 * math.pi + 2.0 * stokes_phase(c.delta_adiab) + ph.theta_tilde_2
    diff = (deco.phi_fc - predicted) % math.pi
    assert min(diff, math.pi - diff) < 1e-4


def test_slow_frequency_positive_and_scaled():
    omega_slow = tm_slow_frequency(_SLOW)
    deco = decompose_full_cycle(full_cycle_matrix(_SLOW))
    assert omega_slow == pytest.approx(_SLOW.omega * deco.zeta_fc / (2.0 * math.pi), rel=1e-12)
    assert 0.0 <= omega_slow <= 0.5 * _SLOW.omega
