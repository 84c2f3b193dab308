"""Radial interaction kernels of the particle schemes.

All kernels derive from the squared-exponential mollifier

    eta(r) = exp(-r^2)/sqrt(pi);

the schemes apply its derivative eta1, not eta, and the parabolic-cylinder
combinations S^nu, T^nu (closed forms in the Kummer function M, which
specfun computes in numpy):

    kappa^beta(r) = 2^{(beta-3)/2}/(sqrt(pi) sin(beta pi/2)) S^beta(r)
    F(r)          = 2^{(beta-2)/2}/(sqrt(pi) sin(beta pi/2)) T^alpha(r)
    G^d(r)        = -2^{(alpha-2)/2}/(sqrt(pi) cos(alpha pi/2)) S^{alpha+1}(r)
    K(r)          = -(1/r) d(kappa^beta)/dr = -F(r)/r
                  = K(0) M((alpha+1)/2, 3/2, -r^2)
    E(r)          = L0_alpha(r)

T^alpha(r) is r times that Kummer function M, so r divides out of K in
closed form and K(0) = -2^alpha / (sin(beta pi/2) Gamma((1-alpha)/2)).

kappa = c_beta int eta(t) |r - t|^-beta dt, c_beta = 1/(2 Gamma(1-beta)
sin(beta pi/2)), is the smoothed Riemann-Liouville potential of a unit
particle; F is its derivative (the flux kernel) and G^d its second
derivative (the Riesz derivative of the mollifier).  Scaled
variants follow the mollifier pattern k_eps(r) = (1/eps) k(r/eps); scaled
names the kernel by its KernelKind.  ETA1 and F are odd, the rest even.

Arrays in, arrays out: every kernel evaluates elementwise over r and returns
an array of r's shape; a scalar r gives a numpy float64, which is a float.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError
from .greens import FractionalOrder, _as_order, _blockwise, reduced_green
from .specfun import gamma_rec, kummer_m, s_combo, t_combo

__all__ = [
    "KernelKind",
    "ODD_KINDS",
    "eta1",
    "kernel_gd",
    "kernel_kappa",
    "kernel_f",
    "kernel_k",
    "scaled",
]

_SQRT_PI = math.sqrt(math.pi)


class KernelKind(enum.Enum):
    ETA1 = "eta1"
    GD = "gd"
    KAPPA_BETA = "kappa"
    F = "f"
    K = "k"
    E = "e"


ODD_KINDS = frozenset({KernelKind.ETA1, KernelKind.F})


def eta1(r):
    """First-derivative (divergence) kernel, odd: eta1(r) = -2r exp(-r^2)/sqrt(pi)."""
    r = np.asarray(r, dtype=float)
    return -2.0 * r * np.exp(-r * r) / _SQRT_PI


def kernel_gd(alpha, r):
    """Direct-differentiation kernel G^d_alpha(r) (even)."""
    a = _as_order(alpha).alpha
    pref = -(2.0 ** ((a - 2.0) / 2.0)) / (_SQRT_PI * math.cos(math.pi * a / 2.0))
    return pref * s_combo(a + 1.0, r)


def kernel_kappa(beta: float, r):
    """Smoothed Riemann-Liouville kernel kappa^beta(r) (even, ~ c_beta r^-beta)."""
    FractionalOrder.from_beta(beta)  # a DomainError unless 0 < beta < 1
    pref = 2.0 ** ((beta - 3.0) / 2.0) / (_SQRT_PI * math.sin(beta * math.pi / 2.0))
    return pref * s_combo(beta, r)


def kernel_f(alpha, r):
    """Flux kernel F(r) = d(kappa^beta)/dr (odd, negative for r > 0)."""
    order = _as_order(alpha)
    b = order.beta
    pref = 2.0 ** ((b - 2.0) / 2.0) / (_SQRT_PI * math.sin(b * math.pi / 2.0))
    return pref * t_combo(order.alpha, r)


def kernel_k(alpha, r):
    """Strength-exchange kernel K(r) = -F(r)/r (even, positive)."""
    order = _as_order(alpha)
    a = order.alpha
    k0 = -(2.0 ** a) * gamma_rec((1.0 - a) / 2.0) / math.sin(order.beta * math.pi / 2.0)
    return k0 * kummer_m((a + 1.0) / 2.0, 1.5, r)


_DISPATCH = {
    KernelKind.ETA1: lambda order, r: eta1(r),
    KernelKind.GD: kernel_gd,
    KernelKind.KAPPA_BETA: lambda order, r: kernel_kappa(order.beta, r),
    KernelKind.F: kernel_f,
    KernelKind.K: kernel_k,
    # looked up at each call, so a wrapper patched over reduced_green sees E
    KernelKind.E: lambda order, r: reduced_green(order, r),
}


def scaled(kind: KernelKind, r, order: FractionalOrder, eps: float):
    """Mollifier scaling of the kernel of this kind: k_eps(r) = (1/eps) k(r/eps).

    r is taken in blocks of greens._BLOCK points (greens._blockwise), so no
    temporary grows with r: every kernel is elementwise (kummer_m sums its
    series row by row, reduced_green freezes each asymptotic sum on its
    own), so the values do not depend on the blocking, and a table is still
    one call.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise DomainError(f"epsilon must be positive, got {eps}")
    kernel = _DISPATCH[kind]

    def evaluate(r, out):
        out[:] = kernel(order, r / eps)
        out /= eps
    return _blockwise(evaluate, r)
