"""Special functions for the resonance predictors, on top of ``scipy.special``.

Bessel functions J_n of integer order (``jv``), positive zeros of J0
(``jn_zeros``), and the Stokes phase of one avoided-crossing traversal,
through the complex log-gamma (``loggamma``).
scipy supplies the kernels; this module validates input and fixes the
domains the physics uses.  The mpmath oracles in ``tests/test_specfun.py``
pin the branch and the accuracy independently of scipy.  Validated ranges:

* ``bessel_jn``: absolute error below 1e-12 for |x| <= 50 and |n| <= 50;
  orders up to |n| = 200 are supported.
* ``stokes_phase``: absolute error below 2e-12 for 1e-6 <= delta <= 1e3,
  the log Gamma(1 - i*delta) of ``loggamma`` included.

All functions are pure and hold no global state.
"""

from __future__ import annotations

import math

from scipy import special

from .dynamics import _is_number

__all__ = [
    "MAX_J0_ZERO_INDEX",
    "bessel_jn",
    "bessel_j0_zero",
    "stokes_phase",
]

# Largest |order| accepted by bessel_jn.
_MAX_BESSEL_ORDER = 200

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
    if abs(n) > _MAX_BESSEL_ORDER:
        raise ValueError(f"bessel order out of validated range: |{n}| > {_MAX_BESSEL_ORDER}")
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
    # loggamma is continuous on vertical lines in the right half-plane, so its imaginary part is the unwrapped arg.
    arg_gamma = complex(special.loggamma(complex(1.0, -d))).imag
    return 0.25 * math.pi + arg_gamma + d * (math.log(d) - 1.0)
