"""Special-function checks against frozen high-precision references.

Reference values were generated once with mpmath at 30 significant
digits and are frozen here; mpmath itself is also used directly as a
cross-check oracle where a live comparison is clearer.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from drivenqubit.specfun import MAX_J0_ZERO_INDEX, bessel_j0_zero, bessel_jn, stokes_phase

# (n, x, J_n(x)) spanning the series branch, the Miller branch, a zero,
# and deep exponential tails.
_BESSEL_REFERENCE = [
    (0, 0.5, 0.9384698072408129),
    (0, 2.404825557695773, -6.10876525973673e-17),
    (1, 3.3333333333333335, 0.20691801245808952),
    (1, 5.0, -0.32757913759146523),
    (2, 11.9, -0.06353402147470293),
    (3, 12.1, 0.18092987885069797),
    (5, 30.0, -0.14324029551207706),
    (10, 17.5, -0.14745649083318327),
    (40, 12.0, 6.744882148469006e-18),
    (100, 50.0, 1.1159273690838094e-21),
    (200, 150.0, 8.057702198396854e-14),
    (7, 0.05, 1.2109203976980754e-15),
]

_J0_ZEROS = [
    2.404825557695773, 5.520078110286311, 8.653727912911013,
    11.791534439014281, 14.930917708487787, 18.071063967910924,
    21.21163662987926, 24.352471530749302, 27.493479132040253,
    30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998,
    58.90698392608094, 62.048469190227166,
]

# log Gamma(z) on the line z = 1 - i*delta, the one stokes_phase evaluates, out to delta = 1e3.
_LOG_GAMMA_REFERENCE = [
    ((1.0, -0.01), (-8.224399770387167e-05, 0.005771755984118057)),
    ((1.0, -0.5), (-0.19094549918677936, 0.24405829890542777)),
    ((1.0, -4.0), (-4.671099593408887, -2.309698056572535)),
    ((1.0, -30.0), (-44.50435257981115, -72.81854173257099)),
    ((1.0, -1000.0), (-1566.4235106222009, -5908.5405938121985)),
]

_STOKES_REFERENCE = [
    (0.0001, 0.7844348509263401),
    (0.01, 0.7351182175216855),
    (0.25, 0.32706191325871725),
    (1.0, 0.0870384838649815),
    (5.0, 0.016689150953025703),
    (100.0, 0.0008333361111904821),
]


@pytest.mark.parametrize("n, x, ref", _BESSEL_REFERENCE)
def test_bessel_reference_values(n, x, ref):
    got = bessel_jn(n, x)
    assert abs(got - ref) <= 1e-12 + 1e-10 * abs(ref)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("x", [0.3, 2.5, 11.0, 27.0])
def test_bessel_parity(n, x):
    assert bessel_jn(-n, x) == pytest.approx((-1.0) ** n * bessel_jn(n, x), abs=1e-300)
    assert bessel_jn(n, -x) == pytest.approx((-1.0) ** n * bessel_jn(n, x), abs=1e-300)


def test_bessel_three_term_recurrence():
    rng = np.random.RandomState(20260823)
    for _ in range(200):
        n = int(rng.randint(1, 60))
        x = float(rng.uniform(0.1, 80.0))
        lhs = bessel_jn(n - 1, x) + bessel_jn(n + 1, x)
        rhs = (2.0 * n / x) * bessel_jn(n, x)
        scale = abs(lhs) + abs(rhs) + 1e-280
        assert abs(lhs - rhs) <= 1e-11 * scale


@pytest.mark.parametrize("x", [0.7, 4.0, 13.0, 40.0, 95.0])
def test_bessel_normalization_sum(x):
    # J_0 + 2 * sum_{k>=1} J_{2k} = 1 for any argument.
    total = bessel_jn(0, x)
    for k in range(1, 100):
        term = bessel_jn(2 * k, x)
        total += 2.0 * term
        if 2 * k > x + 40 and abs(term) < 1e-18:
            break
    assert total == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("z", [5.0, 12.5, 30.0, 80.0])
def test_bessel_large_argument_asymptote(z):
    # Leading large-z form; the next correction is (4n^2-1)/(8z) smaller.
    envelope = math.sqrt(2.0 / (math.pi * z))
    for n, bound in ((0, 0.05 / z), (1, 0.2 / z)):
        lead = envelope * math.cos(z - (2 * n + 1) * math.pi / 4.0)
        assert abs(bessel_jn(n, z) - lead) <= bound


def test_bessel_against_mpmath_random():
    rng = np.random.RandomState(7)
    for _ in range(60):
        n = int(rng.randint(0, 120))
        x = float(rng.uniform(0.0, 150.0))
        ref = float(mp.besselj(n, x))
        assert abs(bessel_jn(n, x) - ref) <= 1e-12 + 1e-9 * abs(ref)


@pytest.mark.parametrize("bad", [1.5, float("nan"), "2"])
def test_bessel_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        bessel_jn(bad, 1.0)


def test_bessel_rejects_out_of_range():
    with pytest.raises(ValueError):
        bessel_jn(201, 1.0)
    with pytest.raises(ValueError):
        bessel_jn(0, float("inf"))


@pytest.mark.parametrize("k", range(1, MAX_J0_ZERO_INDEX + 1))
def test_j0_zeros_reference(k):
    zk = bessel_j0_zero(k)
    assert zk == pytest.approx(_J0_ZEROS[k - 1], abs=1e-12)
    assert abs(bessel_jn(0, zk)) < 1e-12


def test_j0_zeros_interlace_with_pi():
    zeros = [bessel_j0_zero(k) for k in range(1, MAX_J0_ZERO_INDEX + 1)]
    gaps = np.diff(zeros)
    assert np.all(gaps > 3.0)
    assert np.all(gaps < math.pi + 0.2)
    # Gaps approach pi from above as k grows.
    assert gaps[-1] == pytest.approx(math.pi, abs=2e-3)


@pytest.mark.parametrize("k", [0, 21, -3, 2.5])
def test_j0_zero_rejects_bad_index(k):
    with pytest.raises(ValueError):
        bessel_j0_zero(k)


@pytest.mark.parametrize("z, ref", _LOG_GAMMA_REFERENCE)
def test_log_gamma_reference_values(z, ref):
    # stokes_phase(d) - pi/4 - d (ln d - 1) is its arg Gamma(1 - i d), the imaginary part of log Gamma.
    d = -z[1]
    arg_gamma = stokes_phase(d) - 0.25 * math.pi - d * (math.log(d) - 1.0)
    assert arg_gamma == pytest.approx(ref[1], abs=1e-12, rel=1e-12)


def test_stokes_phase_against_mpmath_random():
    # The validated range: absolute error below 2e-12 for 1e-6 <= delta <= 1e3.
    with mp.workdps(40):
        for d in [1e-6, 1e3, *(10.0 ** np.random.RandomState(13).uniform(-6.0, 3.0, 100))]:
            ref = mp.pi / 4 + mp.im(mp.loggamma(mp.mpc(1, -d))) + d * (mp.log(d) - 1)
            assert abs(stokes_phase(float(d)) - float(ref)) <= 2e-12, d


@pytest.mark.parametrize("d, ref", _STOKES_REFERENCE)
def test_stokes_phase_reference_values(d, ref):
    assert stokes_phase(d) == pytest.approx(ref, abs=1e-12)


def test_stokes_phase_limits_and_monotonicity():
    assert math.pi / 4.0 - 1e-3 <= stokes_phase(1e-4) <= math.pi / 4.0
    assert 0.0 < stokes_phase(100.0) < 1e-2
    grid = np.logspace(-4, 2, 61)
    values = [stokes_phase(d) for d in grid]
    assert np.all(np.diff(values) < 0.0)


@pytest.mark.parametrize("d", [0.0, -1.0, float("nan")])
def test_stokes_phase_rejects_nonpositive(d):
    with pytest.raises(ValueError):
        stokes_phase(d)


# (call of one number argument, a good value, the exception the function documents)
_NUMBER_ARGUMENTS = {
    "stokes_phase": (stokes_phase, 1.0, ValueError),
    "bessel_jn": (lambda v: bessel_jn(1, v), 1.0, ValueError),
}


@pytest.mark.parametrize("bad", [True, "1", 10**400], ids=["bool", "str", "int-overflow"])
@pytest.mark.parametrize("name", list(_NUMBER_ARGUMENTS))
def test_number_arguments_refuse_bools_strings_and_huge_ints(name, bad):
    # True is an int and would pass as 1; a string such as "1" converts to
    # a number; 10**400 has no float.  Each is refused with the
    # function's documented exception, and a numpy float still passes.
    call, good, error = _NUMBER_ARGUMENTS[name]
    with pytest.raises(error):
        call(bad)
    assert call(np.float64(good)) == call(good)
