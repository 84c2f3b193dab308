"""Fundamental solution of the fractional diffusion equation.

The reduced profile L0_alpha is the symmetric alpha-stable density with
characteristic function exp(-|k|^alpha), so it has the Fourier representation

    L0(x) = (1/pi) int_0^inf cos(kx) exp(-k^alpha) dk

(Nolan 1997, Numerical calculation of stable densities and distribution
functions) and, for large |x|, the asymptotic expansion

    L0(x) ~ -(1/(x pi)) sum_{n>=1} (-x^-alpha)^n Gamma(1+alpha n)/n! sin(alpha n pi/2).

Evaluation switches to the asymptotic sum at a crossover: the smallest x on a
0.025 grid from which, up to x = 12, the optimally truncated sum agrees with
the Fourier integral to 1e-8 relative.  For alpha close to 1 that crossover
sits near x ~ 1.1; near alpha = 2 it moves out to x ~ 10.6 (alpha = 1.99),
because L0 then carries a factor sin(alpha pi/2) -> 0 that the size of the
terms does not show.  Below it, L0 is smooth on a fixed interval, so one
degree-40 Chebyshev interpolant per alpha reproduces it to within 6e-15
absolute (Trefethen 2013, Approximation Theory and Approximation Practice).
Against the power series in 50 digits that is 2e-14 relative at the peak,
and more where L0 falls off towards a crossover further out: up to 5e-13 at
alpha = 1.9 and 2e-11 at alpha = 1.995.  The interpolant is fitted once, at
Chebyshev nodes whose values come from the Fourier integral by one tanh-sinh
rule (Takahasi & Mori 1974), and cached; the crossover scan uses the same
rule.  The mass of L0 on |x| <= y integrates the same two branches term by
term: the Chebyshev interpolant exactly, and the asymptotic sum through

    int_x^inf L0 = -(1/pi) sum_{n>=1} (-1)^n Gamma(alpha n)/n! sin(alpha n pi/2) x^-(alpha n).

Below y = 1e-4, where that integral keeps only an absolute precision of about
1e-17, the mass takes two terms of int_0^y L0 = (1/pi) sum_{n>=0} (-1)^n
Gamma(1 + (2n+1)/alpha) y^(2n+1) / ((2n+1)! (2n+1)).

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
from numpy.polynomial.chebyshev import chebint, chebinterpolate, chebval

from .errors import AccuracyError, DomainError

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


_CROSSOVER_CAP = 12.0
_CROSSOVER_TOL = 1e-8
_ASYM_TERMS = 300
# below the crossover: one Chebyshev table per alpha, fitted at nodes of the
# Fourier integral, whose error estimate must meet these tolerances
_TABLE_DEGREE = 40
_NODE_EPSABS = 1e-14
_NODE_EPSREL = 1e-12
# the tanh-sinh rule for the Fourier integral: t = j/256 for |j| <= 820,
# 1641 nodes with |t| <= 3.2
_TS_STEP = 1.0 / 256.0
_TS_HALF = 820
_MASS_SERIES_Y = 1e-4


def _l0_fourier(alpha: float, x: np.ndarray) -> np.ndarray:
    """L0 at each point of the 1-D array x from the Fourier integral, cut at
    K = 40^(1/alpha), beyond which exp(-k^alpha) < 5e-18.

    The rule is tanh-sinh (Takahasi & Mori 1974): k = K / (1 + exp(-pi sinh t))
    maps the real t line onto (0, K) with doubly exponential decay at both
    ends, so the trapezoidal sum in t converges geometrically despite the
    cusp of exp(-k^alpha) at k = 0.  Its error estimate is the difference from
    the sum over every second node, at twice the step.

    The points go one at a time, so every temporary is one 13 KB row: a
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
def _l0_model(alpha: float) -> tuple[float, np.ndarray, np.ndarray, float]:
    """The L0 model at this alpha (read-only, shared): the crossover, the
    Chebyshev coefficients of L0 on [0, crossover], those of int_0^x L0 in the
    same variable, and the asymptotic tail int_crossover^inf L0.

    The crossover is the smallest grid x from which up to the cap the
    asymptotic branch agrees with the Fourier integral to _CROSSOVER_TOL
    relative.
    """
    grid = np.arange(0.8, _CROSSOVER_CAP + 1e-9, 0.025)[::-1]
    exact = _l0_fourier(alpha, grid)
    bad = np.abs(_l0_asym(alpha, grid) - exact) > _CROSSOVER_TOL * exact
    # walking down from the cap, the last x before the first disagreement
    agreed = int(np.argmax(bad)) if bad.any() else len(grid)
    cross = float(grid[agreed - 1]) if agreed else _CROSSOVER_CAP
    coef = chebinterpolate(lambda t: _l0_fourier(alpha, 0.5 * cross * (t + 1.0)),
                           _TABLE_DEGREE)
    integral = chebint(coef, lbnd=-1.0)
    coef.setflags(write=False)
    integral.setflags(write=False)
    return cross, coef, integral, _mass_tail(alpha, cross)


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
    scalar x gives a numpy float64).  Even in x."""
    order = _as_order(alpha)
    ax = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(ax)):
        raise DomainError("non-finite argument to reduced_green")
    cross, coef = _l0_model(order.alpha)[:2]
    out = np.empty_like(ax)
    small = ax < cross
    if small.any():
        out[small] = chebval(2.0 * ax[small] / cross - 1.0, coef)
    if (~small).any():
        out[~small] = _l0_asym(order.alpha, ax[~small])
    return out[()]


def reduced_green_mass(alpha, y) -> float:
    """Mass int_{-y}^{y} L0_alpha(x) dx of the reduced Green function, y >= 0.

    The Chebyshev table integrates exactly up to the crossover; beyond it the
    optimally truncated tail integral of the asymptotic expansion (module
    docstring) adds int_cross^y L0 = tail(cross) - tail(y).
    """
    order = _as_order(alpha)
    y = float(y)
    if not y >= 0.0:
        raise DomainError(f"y must be non-negative, got {y}")
    if y < _MASS_SERIES_Y:  # the series' third term is below 1e-15 relative
        g1, g3 = math.gamma(1.0 + 1.0 / order.alpha), math.gamma(1.0 + 3.0 / order.alpha)
        return 2.0 * y * (g1 - y * y * g3 / 18.0) / math.pi
    cross, _, integral, tail_cross = _l0_model(order.alpha)
    half = 0.5 * cross * chebval(2.0 * min(y, cross) / cross - 1.0, integral)
    if y > cross:
        half += tail_cross - _mass_tail(order.alpha, y)
    return 2.0 * float(half)


def green_function(alpha, x, t):
    """Fundamental solution G0_alpha(x, t) = t^{-1/alpha} L0_alpha(x t^{-1/alpha})."""
    order = _as_order(alpha)
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    scale = t ** (-order.gamma)
    val = reduced_green(order, np.asarray(x, dtype=float) * scale)
    return val * scale


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
