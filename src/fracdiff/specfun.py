"""The parabolic-cylinder combinations S, T in closed form.

    S^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) + D_{nu-1}(sqrt2 z))
            =  2 U(a,0)          M(nu/2,     1/2, -z^2)
    T^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) - D_{nu-1}(sqrt2 z))
            = -2 sqrt2 U'(a,0) z M((nu+1)/2, 3/2, -z^2),      a = 1/2 - nu.

D_{nu-1} = U(a, .) = U(a,0) u1 + U'(a,0) u2 in the even and odd Weber
solutions, exp(-w^2/4) times Kummer functions M(., ., w^2/2) (DLMF
12.7.12-13), so S keeps u1 alone and T u2 alone; Kummer's transformation
(DLMF 13.2.39) absorbs the Gaussian.  U(a,0), U'(a,0) are DLMF 12.2.6-7 and
M is scipy.special.hyp1f1, finite for every real z.  S is even, T is odd.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hyp1f1

from .errors import DomainError

__all__ = ["s_combo", "t_combo", "gamma_rec"]


def gamma_rec(x: float) -> float:
    """1/Gamma(x), with the poles of Gamma mapped to 0."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _minus_z2(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("non-finite argument in combo evaluation")
    return -z * z


def s_combo(nu: float, z):
    """S^nu(z), elementwise over the array z (a scalar z gives a numpy float64)."""
    x, a = _minus_z2(z), 0.5 - nu
    if nu < 0.5:
        # hyp1f1(a, 1/2, x) is off by up to 4e-12 for a < 0.06 and x near
        # -2.4; DLMF 13.3.4, M(a,b,x) = M(a+1,b,x) - (x/b) M(a+1,b+1,x), is not
        m = hyp1f1(nu / 2.0 + 1.0, 0.5, x) - 2.0 * x * hyp1f1(nu / 2.0 + 1.0, 1.5, x)
    else:
        m = hyp1f1(nu / 2.0, 0.5, x)
    return 2.0 * math.sqrt(math.pi) * gamma_rec(0.75 + 0.5 * a) / 2.0 ** (0.5 * a + 0.25) * m


def t_combo(nu: float, z):
    """T^nu(z), elementwise over the array z (a scalar z gives a numpy float64)."""
    x, a = _minus_z2(z), 0.5 - nu
    pref = 2.0 * math.sqrt(2.0 * math.pi) * gamma_rec(0.25 + 0.5 * a) / 2.0 ** (0.5 * a - 0.25)
    return pref * np.asarray(z, dtype=float) * hyp1f1((nu + 1.0) / 2.0, 1.5, x)
