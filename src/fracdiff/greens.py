"""Fundamental solution of the fractional diffusion equation.

The reduced profile L0_alpha is the symmetric alpha-stable density with
characteristic function exp(-|k|^alpha), so it has the Fourier representation

    L0(x) = (1/pi) int_0^inf cos(kx) exp(-k^alpha) dk

(Nolan 1997, Numerical calculation of stable densities and distribution
functions) and, for large |x|, the asymptotic expansion

    L0(x) ~ -(1/(x pi)) sum_{n>=1} (-x^-alpha)^n Gamma(1+alpha n)/n! sin(alpha n pi/2).

Below x = 12, L0 is smooth on a fixed interval, so one Chebyshev fit per
alpha on [0, 12] (Trefethen 2013, Approximation Theory and Approximation
Practice), cut at 1e-15 of its largest coefficient, gives it to within 3e-16
absolute: degree 82 near alpha = 1, 74 at 1.1, 52 at 1.5, 43 at 1.9 and 41
near 2, from 257 nodes up to alpha = 1.26 and 129 above.  From x = 12 on, the
optimally truncated asymptotic sum is within 7e-17 absolute, and 1e-15
relative up to alpha = 1.9; closer to 2 L0 carries a factor sin(alpha pi/2)
-> 0 that the size of the terms does not show, and what the sum misses, the
Gaussian core exp(-x^2/4) of alpha = 2, is 1e-11 of L0(12) at alpha = 1.995
and 1e-8 at 1.99999.  The fit (specfun.chebyshev_coefficients) is cached;
its nodes take the Fourier integral by one tanh-sinh rule (Takahasi & Mori
1974).  The mass of L0 on |x| <= y integrates the same two branches: the
Chebyshev fit exactly, and the asymptotic sum term by term through

    int_x^inf L0 = -(1/pi) sum_{n>=1} (-1)^n Gamma(alpha n)/n! sin(alpha n pi/2) x^-(alpha n).

The fit's antiderivative keeps an absolute precision of only about 3e-16,
which is 5e-12 of the mass near y = 1e-4.  Below y = 1 the mass instead
integrates the fit by Gauss-Legendre with ceil((degree + 1)/2) nodes, a rule
exact for the fit's degree that sums positive terms: within 1e-15 relative
of the series int_0^y L0 = (1/pi) sum_{n>=0} (-1)^n Gamma(1 + (2n+1)/alpha)
y^(2n+1) / ((2n+1)! (2n+1)) for every y < 1.

The characteristic width R_alpha is the first absolute moment of L0_alpha,
which for this law has the closed form (2/pi) Gamma(1 - 1/alpha)
(Samorodnitsky & Taqqu 1994, Prop. 1.2.17, p = 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import lgamma

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebval
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError, DomainError
from .specfun import chebyshev_coefficients

__all__ = [
    "FractionalOrder",
    "reduced_green",
    "reduced_green_mass",
    "green_function",
    "characteristic_width",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Fractional order bookkeeping: alpha = beta + 1, gamma = 1/alpha."""

    alpha: float

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (1, 2), got {self.alpha}")

    @property
    def beta(self) -> float:
        return self.alpha - 1.0

    @property
    def gamma(self) -> float:
        return 1.0 / self.alpha

    @classmethod
    def from_beta(cls, beta: float) -> "FractionalOrder":
        if not (0.0 < beta < 1.0):
            raise DomainError(f"beta must lie in (0, 1), got {beta}")
        return cls(alpha=beta + 1.0)


def _as_order(alpha) -> FractionalOrder:
    if isinstance(alpha, FractionalOrder):
        return alpha
    return FractionalOrder(float(alpha))


# L0 and the kernel tables (kernels.scaled) are evaluated in blocks of this
# many points, so that no temporary grows with the argument
_BLOCK = 8192


def _blockwise(evaluate, x):
    """An array of x's shape (a numpy float64 for a scalar x), filled by
    evaluate(block, out) for each block of _BLOCK points of x and its slice
    out of the result.  For an elementwise evaluate the values do not depend
    on the blocking."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    flat, into = x.reshape(-1), out.reshape(-1)
    for i in range(0, len(flat), _BLOCK):
        evaluate(flat[i:i + _BLOCK], into[i:i + _BLOCK])
    return out[()]


# L0 is one Chebyshev table per alpha below x = _SPLIT and the asymptotic
# sum from it on; the table is fitted at nodes of the Fourier integral,
# whose error estimate must meet the _NODE tolerances
_SPLIT = 12.0
_ASYM_TERMS = 300
_TABLE_TOL = 1e-15
_TABLE_MAX_DEGREE = 256
_NODE_EPSABS = 1e-14
_NODE_EPSREL = 1e-12
# the tanh-sinh rule for the Fourier integral: t = j/256 for |j| <= 870,
# 1741 nodes with |t| <= 3.4, so that the sliver k < K exp(-pi sinh 3.4) it
# leaves out is below 5e-20 of L0 (at |t| <= 3.2 it is 2e-16)
_TS_STEP = 1.0 / 256.0
_TS_HALF = 870
# (nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], exact to
# degree 2n - 1: the mass integrates the table below y = 1 with it
_gauss_legendre = functools.lru_cache(maxsize=8)(leggauss)


def _l0_fourier(alpha: float, x: np.ndarray) -> np.ndarray:
    """L0 at each point of the 1-D array x from the Fourier integral, cut at
    K = 40^(1/alpha), beyond which exp(-k^alpha) < 5e-18.

    The rule is tanh-sinh (Takahasi & Mori 1974): k = K / (1 + exp(-pi sinh t))
    maps the real t line onto (0, K) with doubly exponential decay at both
    ends, so the trapezoidal sum in t converges geometrically despite the
    cusp of exp(-k^alpha) at k = 0.  Its error estimate is the difference from
    the sum over every second node, at twice the step.

    The points go one at a time, so every temporary is one 14 KB row: a
    freed mapped block would raise glibc's mmap threshold for the whole
    process (see schemes._interaction).
    """
    top = 40.0 ** (1.0 / alpha)
    t = np.arange(-_TS_HALF, _TS_HALF + 1) * _TS_STEP
    u = 0.5 * math.pi * np.sinh(t)
    k = top / (1.0 + np.exp(-2.0 * u))
    w = (0.25 * math.pi * _TS_STEP * top) * np.cosh(t) / np.cosh(u) ** 2 * np.exp(-k ** alpha)
    out = np.empty(len(x))
    for i, xi in enumerate(x):
        row = np.cos(k * xi)
        val = float(row @ w)
        err = abs(val - 2.0 * float(row[::2] @ w[::2]))
        if err > _NODE_EPSABS + _NODE_EPSREL * abs(val):
            raise AccuracyError(
                f"L0 Fourier integral error estimate {err:.1e} too large "
                f"(alpha={alpha}, x={xi})", partial=val / math.pi)
        out[i] = val / math.pi
    return out


@functools.lru_cache(maxsize=64)
def _l0_model(alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The L0 model at this alpha (read-only, shared): the Chebyshev
    coefficients of L0 on [0, _SPLIT], those of int_0^x L0 in the same
    variable, and the asymptotic tail int_SPLIT^inf L0."""
    coef = chebyshev_coefficients(lambda x: _l0_fourier(alpha, x), 0.0, _SPLIT,
                                  _TABLE_TOL, _TABLE_MAX_DEGREE)
    if coef is None:
        raise AccuracyError(f"L0 table needs degree {_TABLE_MAX_DEGREE} or more (alpha={alpha})")
    integral = chebint(coef, lbnd=-1.0)
    coef.setflags(write=False)
    integral.setflags(write=False)
    return coef, integral, _mass_tail(alpha, _SPLIT)


def _mass_tail(alpha: float, x: float) -> float:
    """int_x^inf L0 from the asymptotic expansion (module docstring)."""
    return float(-_asym_sum(alpha, np.array([x]), 0.0)[0] / math.pi)


def _asym_sum(alpha: float, ax: np.ndarray, shift: float) -> np.ndarray:
    """sum_n (-1)^n sin(alpha n pi/2) Gamma(shift + alpha n)/n! ax^(-alpha n),
    over a 1-D array, each element frozen at its smallest term.

    Growth detection uses the sin-free term envelope: sin(alpha n pi/2) can
    pass arbitrarily close to zero, which would otherwise fake a minimum.
    Only the elements still summing are carried from one term to the next,
    so an element's value does not depend on the others.
    """
    out = np.empty_like(ax)
    live = np.arange(ax.size)
    lnx = np.log(ax)
    acc = np.zeros_like(ax)
    prev_env = np.full(ax.shape, np.inf)
    for n in range(1, _ASYM_TERMS + 1):
        s = math.sin(alpha * n * math.pi / 2.0)
        clog = lgamma(shift + alpha * n) - lgamma(n + 1.0)
        env = np.exp(clog - alpha * n * lnx)
        grown = env > prev_env
        acc += np.where(grown, 0.0, ((-1.0) ** n * s) * env)
        stop = grown | (env <= 1e-17 * np.abs(acc))
        if stop.any():
            out[live[stop]] = acc[stop]
            keep = ~stop
            live, lnx, acc, env = live[keep], lnx[keep], acc[keep], env[keep]
        if not live.size:
            break
        prev_env = env
    out[live] = acc
    return out


def _l0_asym(alpha: float, ax: np.ndarray) -> np.ndarray:
    """Asymptotic branch of L0 at ax > 0."""
    # ax pi overflows past ax of about 5.7e307, where L0 is 0 to float range
    with np.errstate(over="ignore"):
        return -_asym_sum(alpha, ax, 1.0) / (ax * math.pi)


def reduced_green(alpha, x):
    """Reduced Green function L0_alpha(x), elementwise over the array x (a
    scalar x gives a numpy float64).  Even in x.

    x is taken in blocks of _BLOCK points (_blockwise), so no temporary
    grows with x: both branches are elementwise (_asym_sum freezes each
    element on its own), so the values do not depend on the blocking.  A
    non-finite entry raises DomainError from its block.
    """
    alpha = _as_order(alpha).alpha
    coef = _l0_model(alpha)[0]

    def evaluate(x, out):
        ax = np.abs(x)
        if not np.all(np.isfinite(ax)):
            raise DomainError("non-finite argument to reduced_green")
        small = ax < _SPLIT
        if small.any():
            out[small] = chebval(2.0 * ax[small] / _SPLIT - 1.0, coef)
        if not small.all():
            out[~small] = _l0_asym(alpha, ax[~small])
    return _blockwise(evaluate, x)


def reduced_green_mass(alpha, y) -> float:
    """Mass int_{-y}^{y} L0_alpha(x) dx of the reduced Green function, y >= 0.

    The Chebyshev table integrates exactly up to the split, by Gauss-Legendre
    below y = 1 and by its antiderivative above (module docstring); beyond
    the split the optimally truncated tail integral of the asymptotic
    expansion adds int_split^y L0 = tail(split) - tail(y).
    """
    order = _as_order(alpha)
    y = float(y)
    if not y >= 0.0:
        raise DomainError(f"y must be non-negative, got {y}")
    coef, integral, tail_split = _l0_model(order.alpha)
    if y < 1.0:
        nodes, weights = _gauss_legendre(-(-len(coef) // 2))
        return y * float(weights @ chebval(y * (nodes + 1.0) / _SPLIT - 1.0, coef))
    half = 0.5 * _SPLIT * chebval(2.0 * min(y, _SPLIT) / _SPLIT - 1.0, integral)
    if y > _SPLIT:
        half += tail_split - _mass_tail(order.alpha, y)
    return 2.0 * float(half)


def green_function(alpha, x, t):
    """Fundamental solution G0_alpha(x, t) = t^{-1/alpha} L0_alpha(x t^{-1/alpha})."""
    order = _as_order(alpha)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    scale = t ** (-order.gamma)
    val = reduced_green(order, np.asarray(x, dtype=float) * scale)
    return val * scale


def green_function_symmetric(alpha, x, t):
    """green_function at an odd count of points with x[::-1] == -x, as a
    field's centers: on the non-negative half, mirrored, bit for bit (L0 is
    even and reduced_green takes |x|)."""
    half = green_function(alpha, x[len(x) // 2:], t)
    return np.concatenate([half[:0:-1], half])


# ---------------------------------------------------------------------------
# characteristic width R_alpha


def characteristic_width(alpha) -> float:
    """First absolute moment R_alpha of the reduced Green function.

    L0_alpha is the symmetric alpha-stable density with characteristic
    function exp(-|k|^alpha), so E|X| = (2/pi) Gamma(1 - 1/alpha)
    (Samorodnitsky & Taqqu 1994, Prop. 1.2.17 with p = 1).
    """
    order = _as_order(alpha)
    return 2.0 / math.pi * math.gamma(1.0 - order.gamma)
