"""The one-period eigenphase against an independent Floquet-matrix oracle (numpy only).

Shirley, Phys. Rev. 138, B979 (1965): with H(t) = H0 + V (e^{i omega t} +
e^{-i omega t}), H0 = -(delta/2) sigma_x - (eps0/2) sigma_z and
V = -(A/4) sigma_z, the quasienergies q are the eigenvalues of the
Hermitian matrix with blocks H0 + m omega on the diagonal and V between
neighbouring Fourier indices m and m + 1.  The one-period operator U_T has
eigenvalues e^{-i q T}, so its eigenphase lambda in [0, pi] has
cos(lambda) = cos(q T) for every q.  The midpoint propagator's lambda
converges to it at second order in the substep.
"""

import math

import numpy as np

from drivenqubit.dynamics import DriveParams, evolution_operator


def _floquet_lambda(p: DriveParams, margin: int = 30) -> float:
    """arccos(cos(q T)) for the quasienergy q nearest 0, Fourier indices |m| <= (A + eps0)/omega + margin."""
    n = int((p.amplitude + p.epsilon0) // p.omega) + margin
    m = np.arange(-n, n + 1)
    h0 = np.array([[-0.5 * p.epsilon0, -0.5 * p.delta], [-0.5 * p.delta, 0.5 * p.epsilon0]])
    v = np.diag([-0.25 * p.amplitude, 0.25 * p.amplitude])
    neighbours = np.eye(m.size, k=1) + np.eye(m.size, k=-1)
    h = np.kron(np.eye(m.size), h0) + np.kron(np.diag(p.omega * m), np.eye(2)) + np.kron(neighbours, v)
    q = np.linalg.eigvalsh(h)
    return math.acos(math.cos(q[np.argmin(np.abs(q))] * p.period))


def _midpoint_lambda(p: DriveParams, steps_per_period: int) -> float:
    """Eigenphase of the midpoint U_T: cos(lambda) = Re u11, sin(lambda) = hypot(Im u11, |u12|)."""
    u = evolution_operator(p, 0.0, p.period, steps_per_period)
    return math.atan2(math.hypot(u.u11.imag, abs(u.u12)), u.u11.real)


def _points() -> list[DriveParams]:
    rng = np.random.default_rng(10)
    return [
        DriveParams(
            delta=1.0, epsilon0=float(rng.uniform(0.0, 10.0)), amplitude=float(rng.uniform(0.0, 20.0)),
            omega=float(rng.uniform(1.0, 6.0)),
        )
        for _ in range(12)
    ]


def test_midpoint_eigenphase_converges_to_the_floquet_one_at_second_order():
    # Bands from 3 000 seeded points of this distribution (2 990 with
    # sin(lambda) >= 0.05): the per-halving error ratios read 3.13-4.59
    # (128 -> 256) and 3.79-4.15 (256 -> 512), the outliers being points
    # whose h^2 coefficient is small, so h^4 competes.  The Richardson value
    # was at least 10.7x closer than lambda(128), with a median of 13 200x
    # and a 5% quantile of 785x.
    gains = []
    for p in _points():
        exact = _floquet_lambda(p)
        if math.sin(exact) < 0.05:
            continue  # arccos is ill-conditioned near 0 and pi
        lam = [_midpoint_lambda(p, spp) for spp in (128, 256, 512)]
        err = [x - exact for x in lam]
        for coarse, fine in zip(err, err[1:]):
            assert 3.0 <= coarse / fine <= 5.0, (p, err)
        richardson = lam[1] + (lam[1] - lam[0]) / 3.0
        gains.append(abs(err[0]) / abs(richardson - exact))
    assert len(gains) >= 10
    assert min(gains) >= 8.0
    assert float(np.median(gains)) >= 1000.0


def test_floquet_oracle_is_converged_in_its_truncation():
    # Ten more Fourier indices on each side move the oracle's lambda by rounding only.
    for p in _points()[:2]:
        assert abs(_floquet_lambda(p, 40) - _floquet_lambda(p)) <= 1e-11
