"""Special functions for the resonance predictors, on top of ``scipy.special``.

Bessel functions J_n of integer order (``jv``), positive zeros of J0
(``jn_zeros``), the complex log-gamma on the right half-plane
(``loggamma``), and the Stokes phase of one avoided-crossing traversal.
scipy supplies the kernels; this module validates input and fixes the
domains the physics uses.  The mpmath oracles in ``tests/test_specfun.py``
pin the branch and the accuracy independently of scipy.  Validated ranges:

* ``bessel_jn``: absolute error below 1e-12 for |x| <= 50 and |n| <= 50;
  orders up to |n| = 200 are supported.
* ``log_gamma_complex``: relative error below 1e-10 on the line
  z = 1 - i*delta for 0 < delta <= 1e3 (the only line the physics needs).

All functions are pure and hold no global state.
"""

from __future__ import annotations

import math

from scipy import special

from .dynamics import _is_number

__all__ = [
    "MAX_BESSEL_ORDER",
    "MAX_J0_ZERO_INDEX",
    "bessel_jn",
    "bessel_j0_zero",
    "log_gamma_complex",
    "stokes_phase",
]

#: Largest |order| accepted by :func:`bessel_jn`.
MAX_BESSEL_ORDER = 200

#: Largest zero index accepted by :func:`bessel_j0_zero`.
MAX_J0_ZERO_INDEX = 20


def bessel_jn(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer order.

    Parameters
    ----------
    n : int
        Order, |n| <= 200.
    x : float
        Argument, a finite int or float (not a bool).

    Returns
    -------
    float
        J_n(x).  Absolute error is below 1e-12 in the validated window
        |x| <= 50, |n| <= 50 and stays small for the rest of the
        supported domain.

    Raises
    ------
    ValueError
        If x is not a finite int or float (NaN, infinity, a bool, a string
        or an int too large for a float), n is not an integer, or
        |n| > 200.
    """
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise ValueError(f"bessel order must be an integer, got {n!r}")
    if not _is_number(x):
        raise ValueError(f"bessel argument must be a finite number, got {x!r}")
    if abs(n) > MAX_BESSEL_ORDER:
        raise ValueError(f"bessel order out of validated range: |{n}| > {MAX_BESSEL_ORDER}")
    return float(special.jv(n, x))


def bessel_j0_zero(k: int) -> float:
    """k-th positive zero of J_0.

    Parameters
    ----------
    k : int
        Zero index, 1 <= k <= 20.

    Returns
    -------
    float
        The k-th positive root of J_0, absolute error below 1e-9.

    Raises
    ------
    ValueError
        If k is outside [1, 20].
    """
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_J0_ZERO_INDEX:
        raise ValueError(f"zero index must be an integer in [1, {MAX_J0_ZERO_INDEX}], got {k!r}")
    return float(special.jn_zeros(0, k)[-1])


def log_gamma_complex(z: complex) -> complex:
    """Principal-branch log Gamma(z) for Re(z) > 0.

    Parameters
    ----------
    z : complex
        A complex, int or float (not a bool) with positive real part.  (The
        physics only ever evaluates the line z = 1 - i*delta, so the left
        half-plane is rejected.)

    Returns
    -------
    complex
        log Gamma(z), continuous on vertical lines in the right
        half-plane; relative error below 1e-10 on z = 1 - i*delta for
        0 < delta <= 1e3.

    Raises
    ------
    ValueError
        If z is not a finite complex, int or float (a bool, a string or an
        int too large for a float included), or Re(z) <= 0.
    """
    if isinstance(z, complex):
        finite = math.isfinite(z.real) and math.isfinite(z.imag)
    else:
        finite = _is_number(z)
    if not finite:
        raise ValueError(f"log_gamma_complex requires a finite number z, got {z!r}")
    z = complex(z)
    if z.real <= 0.0:
        raise ValueError(f"log_gamma_complex requires Re(z) > 0, got {z!r}")
    return complex(special.loggamma(z))


def stokes_phase(delta_adiab: float) -> float:
    """Stokes phase of one linear avoided-crossing traversal.

    Parameters
    ----------
    delta_adiab : float
        Adiabaticity parameter delta = Delta^2 / (4 v) with v the sweep
        rate of the bias at the crossing; a positive int or float, not a
        bool.

    Returns
    -------
    float
        theta_S = pi/4 + arg Gamma(1 - i*delta) + delta*(ln delta - 1),
        which decreases monotonically from pi/4 (sudden limit) to 0
        (adiabatic limit).

    Raises
    ------
    ValueError
        If delta_adiab is not a positive finite int or float (a bool, a
        string or an int too large for a float included).
    """
    if not (_is_number(delta_adiab) and delta_adiab > 0):
        raise ValueError(f"adiabaticity parameter must be positive and finite, got {delta_adiab!r}")
    d = float(delta_adiab)
    arg_gamma = log_gamma_complex(complex(1.0, -d)).imag
    return 0.25 * math.pi + arg_gamma + d * (math.log(d) - 1.0)
