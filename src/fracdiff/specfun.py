"""The parabolic-cylinder combinations S, T in closed form.

    S^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) + D_{nu-1}(sqrt2 z))
            =  2 U(a,0)          M(nu/2,     1/2, -z^2)
    T^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) - D_{nu-1}(sqrt2 z))
            = -2 sqrt2 U'(a,0) z M((nu+1)/2, 3/2, -z^2),      a = 1/2 - nu.

D_{nu-1} = U(a, .) = U(a,0) u1 + U'(a,0) u2 in the even and odd Weber
solutions, exp(-w^2/4) times Kummer functions M(., ., w^2/2) (DLMF
12.7.12-13), so S keeps u1 alone and T u2 alone; Kummer's transformation
(DLMF 13.2.39) absorbs the Gaussian.  U(a,0), U'(a,0) are DLMF 12.2.6-7.
S is even, T is odd.

kummer_m evaluates M(a, b, -z^2) in numpy, for b - a > -1 (every order the
kernels use):

- for x = z^2 <= 64, as exp(-x) M(b-a, b, x) (DLMF 13.2.39), whose series
  terms after the first share one sign, so the sum cancels only near a zero
  of M;
- above, by the algebraic asymptotic series (DLMF 13.7.2)
  Gamma(b)/Gamma(b-a) x^-a sum_s (a)_s (a-b+1)_s / s! x^-s, Horner-summed in
  1/x.  The exponential part it drops, Gamma(b)/Gamma(a) exp(-x) x^(a-b), is
  below 1e-25 of M(0) = 1 there, and below 1e-17 of the algebraic part for
  beta <= 0.99999 (it grows as 1/(1 - beta), as 1/Gamma(b-a) falls).

Both are cut where their terms fall below 1e-17 of the sum at x = 64.

chebyshev_coefficients is the one Chebyshev fit, with two callers: the L0
table of greens and the propagator of timeint.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["s_combo", "t_combo", "gamma_rec", "kummer_m", "chebyshev_coefficients"]

_SWITCH = 64.0
_SERIES_TERMS = 160
_ASYMPTOTIC_TERMS = 24
_ROWS = 1024  # series rows summed per block: 1.3 MB of terms


def gamma_rec(x: float) -> float:
    """1/Gamma(x), with the poles of Gamma mapped to 0."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def kummer_m(a: float, b: float, z):
    """M(a, b, -z^2), elementwise over the finite array z (a scalar z gives a
    numpy float64)."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise DomainError("non-finite argument in combo evaluation")
    # x is inf past |z| = 1.3e154: 1/x = 0 is still right there, and the
    # asymptotic sum takes x^-a as |z|^-2a, which does not overflow
    with np.errstate(over="ignore"):
        x = z * z
    out = np.empty_like(x)
    near = x <= _SWITCH
    xs = x[near]
    if xs.size:
        j = np.arange(_SERIES_TERMS - 1)
        ratio = (b - a + j) / ((b + j) * (j + 1.0))
        for i in range(0, xs.size, _ROWS):
            blk = xs[i:i + _ROWS]
            terms = ratio * blk[:, None]
            np.cumprod(terms, axis=1, out=terms)
            xs[i:i + _ROWS] = np.exp(-blk) * (1.0 + terms.sum(axis=1))
        out[near] = xs
    zl = np.abs(z[~near])
    if zl.size:
        inv, acc = 1.0 / x[~near], np.ones_like(zl)
        for s in range(_ASYMPTOTIC_TERMS - 1, 0, -1):
            acc *= ((a + s - 1.0) * (a - b + s) / s) * inv
            acc += 1.0
        out[~near] = math.gamma(b) * gamma_rec(b - a) * zl ** (-2.0 * a) * acc
    return out[()]


def s_combo(nu: float, z):
    """S^nu(z), elementwise over the array z (a scalar z gives a numpy float64)."""
    a = 0.5 - nu
    return (2.0 * math.sqrt(math.pi) * gamma_rec(0.75 + 0.5 * a) / 2.0 ** (0.5 * a + 0.25)
            * kummer_m(nu / 2.0, 0.5, z))


def t_combo(nu: float, z):
    """T^nu(z), elementwise over the array z (a scalar z gives a numpy float64)."""
    a = 0.5 - nu
    pref = 2.0 * math.sqrt(2.0 * math.pi) * gamma_rec(0.25 + 0.5 * a) / 2.0 ** (0.5 * a - 0.25)
    return pref * np.asarray(z, dtype=float) * kummer_m((nu + 1.0) / 2.0, 1.5, z)


def _dct1(v: np.ndarray) -> np.ndarray:
    """The type-1 DCT of v, v_0 + (-1)^i v_K + 2 sum_{0<j<K} v_j cos(pi i j/K):
    the real part of the rFFT of v's even extension."""
    return np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real


def chebyshev_coefficients(f, lo: float, hi: float, tol: float, max_degree: int):
    """Chebyshev coefficients of f on [lo, hi], cut where they fall below
    tol of the largest, or None if that needs degree max_degree or more:
    one DCT-I of f at K + 1 Chebyshev points, K doubling until the upper
    half of the coefficients is below the cut.

    f is called on 1-D arrays, elementwise, and once per point: point j of K
    is point 2j of 2K to the bit (pi 2j/(2K) rounds as pi j/K does), so a
    doubling evaluates f at the K new odd points only.
    """
    def points(j, k):
        return 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * j / k)

    k = 16
    v = f(points(np.arange(k + 1), k))
    while True:
        c = _dct1(v) / k
        c[[0, k]] *= 0.5
        big = np.flatnonzero(np.abs(c) > tol * np.abs(c).max())
        degree = int(big[-1]) if big.size else 0
        if degree >= max_degree:
            return None
        if 2 * degree < k:
            return c[:degree + 1]
        both = np.empty(2 * k + 1)
        both[::2] = v
        both[1::2] = f(points(np.arange(1, 2 * k, 2), 2 * k))
        v, k = both, 2 * k
