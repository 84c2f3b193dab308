"""Right-hand-side and stepping operators of the five particle schemes.

Rate operators (du_i/dt):

    DD     du_i/dt = eps^-alpha   sum_j V_j u_j G^d_eps(x_i - x_j)
    FPSE   Q_i     = -eps^-beta   sum_j V_j u_j F_eps(x_i - x_j)
           du_i/dt = -(1/eps)     sum_j V_j (Q_j + Q_i) eta1_eps(x_i - x_j)
    KPSE   du_i/dt = alpha/eps^alpha sum_j V_j (u_j - u_i) K_eps(x_j - x_i)
    RLPSE  ut_i    = eps^{1-beta} sum_j V_j u_j kappa_eps(x_i - x_j)
           du_i/dt = 2/eps^2      sum_j V_j (ut_j - ut_i) Phi_eps(x_j - x_i)

Stepper:

    GPSE   u_i^{n+1} = u_i^n + sum_j V_j (u_j^n - u_i^n) E_eps(x_j - x_i),
           eps = dt^{1/alpha}  (tied to the step; field.epsilon is ignored)

Every scheme is built from one interaction sum, pref sum_j V_j k_eps(x_i - x_j) w_j,
with a scheme-specific kernel and prefactor, applied once (DD, KPSE, GPSE) or
twice (FPSE, RLPSE), together with its fixed row sums.  On uniform grids that
sum is a Toeplitz matrix-vector product: one real FFT product against the
spectrum of the per-separation kernel table's circulant embedding, built once
per operator (positions never move) with pref and the volume folded in.  The
circulant length is the smallest power of two >= 2N-1, or the 5-smooth length
when 2N-1 fills at most 15/16 of that power.  Non-uniform fields use the dense
pairwise matrix.  RLPSE is experimental: its smoothed potential decays like
|x|^-beta, so the exchange pass sees large errors near the grid edges.
"""

from __future__ import annotations

import enum
import math

import numpy as np
import scipy.fft

from . import kernels
from .errors import ConfigError, DomainError
from .field import ParticleField
from .greens import FractionalOrder
from .kernels import ODD_KINDS, KernelKind

__all__ = [
    "SchemeKind",
    "rate_prefactors",
    "make_rate_operator",
    "make_gpse_stepper",
    "assemble_matrix",
    "MATRIX_SIZE_GUARD",
]

MATRIX_SIZE_GUARD = 20000


class SchemeKind(enum.Enum):
    DD = "dd"
    FPSE = "fpse"
    KPSE = "kpse"
    RLPSE = "rlpse"
    GPSE = "gpse"


def _pairwise_matrix(field: ParticleField, kind: KernelKind, eps: float,
                     block: int = 512) -> np.ndarray:
    """Dense kernel matrix M[i, j] = k_eps(x_i - x_j) (general positions)."""
    x = field.positions
    n = len(x)
    out = np.empty((n, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = kernels.scaled(kind, x[lo:hi, None] - x[None, :], field.order, eps)
    return out


def _interaction(field: ParticleField, kind: KernelKind, eps: float, pref: float):
    """The interaction sum apply(w)_i = pref sum_j V_j k_eps(x_i - x_j) w_j and
    its fixed row sums row = apply(1).

    pref and V are folded once into the dense matrix or, on a uniform grid,
    into the spectrum of the circulant embedding (unequal volumes keep V_j/V_0
    as a per-call weight).  apply reuses its own padded buffer: not reentrant.
    """
    v = field.volumes
    n = len(field)
    h = field.uniform_spacing()
    if h is None:
        apply = (pref * _pairwise_matrix(field, kind, eps) * v).dot
    else:
        half = kernels.scaled(kind, np.arange(n) * h, field.order, eps)
        # a power of two costs about as much as the 5-smooth length, or less,
        # when 2N-1 fills more than 15/16 of it; below that it can cost 3x
        m = 1 << (2 * n - 2).bit_length()
        if 16 * (2 * n - 1) <= 15 * m:
            m = scipy.fft.next_fast_len(2 * n - 1, real=True)
        circ = np.zeros(m)
        circ[:n] = half
        circ[m - n + 1:] = (-1.0 if kind in ODD_KINDS else 1.0) * half[:0:-1]
        spectrum = scipy.fft.rfft((pref * v[0]) * circ)
        weight = None if np.all(v == v[0]) else v / v[0]
        buf = np.zeros(m)
        # each call allocates and frees the rfft and irfft outputs and
        # pocketfft's scratch, about 8m bytes each.  Freeing a mapped block
        # raises glibc's mmap and trim thresholds above it (mallopt(3)), so
        # after this untouched 32m-byte block those come from the heap
        # instead of being mapped and faulted in afresh on every call
        np.empty(4 * m)

        def apply(w: np.ndarray) -> np.ndarray:
            buf[:n] = w if weight is None else weight * w
            x = scipy.fft.rfft(buf)
            x *= spectrum
            return scipy.fft.irfft(x, m, overwrite_x=True)[:n]
    return apply, apply(np.ones(n))


def rate_prefactors(kind: SchemeKind, order: FractionalOrder,
                    eps: float) -> tuple[float, ...]:
    """The prefactors of a rate scheme's interaction sums at smoothing length eps, in
    make_rate_operator's order.  A power out of float range raises OverflowError
    or ZeroDivisionError."""
    alpha, beta = order.alpha, order.beta
    if kind is SchemeKind.DD:
        return (eps ** (-alpha),)
    if kind is SchemeKind.KPSE:
        return (alpha / eps ** alpha,)
    if kind is SchemeKind.FPSE:
        return (-(eps ** (-beta)), -1.0 / eps)
    if kind is SchemeKind.RLPSE:
        return (eps ** (1.0 - beta), 2.0 / eps ** 2)
    raise ConfigError(f"{kind} is not a rate scheme")


def make_rate_operator(field: ParticleField, kind: SchemeKind):
    """Build du/dt = L(u) as a reusable closure over fixed positions."""
    eps = field.epsilon
    pref = rate_prefactors(kind, field.order, eps)
    if kind is SchemeKind.DD:
        return _interaction(field, KernelKind.GD, eps, pref[0])[0]
    if kind is SchemeKind.KPSE:
        k, row = _interaction(field, KernelKind.K, eps, pref[0])
        return lambda u: k(u) - u * row
    if kind is SchemeKind.FPSE:
        f, _ = _interaction(field, KernelKind.F, eps, pref[0])
        e1, row = _interaction(field, KernelKind.ETA1, eps, pref[1])

        def rate(u: np.ndarray) -> np.ndarray:
            q = f(u)
            return e1(q) + q * row

        return rate
    # RLPSE: rate_prefactors has rejected every other kind
    kappa, _ = _interaction(field, KernelKind.KAPPA_BETA, eps, pref[0])
    phi, row = _interaction(field, KernelKind.PHI, eps, pref[1])

    def rate(u: np.ndarray) -> np.ndarray:
        ut = kappa(u)
        return phi(ut) - ut * row

    return rate


def make_gpse_stepper(field: ParticleField, dt: float):
    """Build the GPSE map u^n -> u^{n+1} for a fixed time step."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt}")
    e, row = _interaction(field, KernelKind.E, dt ** field.order.gamma, 1.0)

    def step(u: np.ndarray) -> np.ndarray:
        # (u + e(u)) - u row; the sum is a fresh length-N array, so the
        # padded FFT output that e(u) is a view of is freed at once
        out = u + e(u)
        out -= u * row
        return out

    return step


def assemble_matrix(field: ParticleField, kind: SchemeKind,
                    size_guard: int = MATRIX_SIZE_GUARD) -> np.ndarray:
    """Dense A with du/dt = A u, for the rate schemes DD, FPSE, KPSE.

    A is symmetric (radial kernels, uniform volumes); for the conservative
    schemes its V-weighted column sums vanish.
    """
    n = len(field)
    if n > size_guard:
        raise ConfigError(f"n={n} exceeds the matrix size guard {size_guard}")
    v = field.volumes
    eps = field.epsilon
    alpha = field.order.alpha
    beta = field.order.beta
    if kind is SchemeKind.DD:
        ker = _pairwise_matrix(field, KernelKind.GD, eps)
        return eps ** (-alpha) * ker * v[None, :]
    if kind is SchemeKind.KPSE:
        ker = _pairwise_matrix(field, KernelKind.K, eps)
        b = (alpha / eps ** alpha) * ker * v[None, :]
        return b - np.diag(b.sum(axis=1))
    if kind is SchemeKind.FPSE:
        e1 = _pairwise_matrix(field, KernelKind.ETA1, eps)
        f = _pairwise_matrix(field, KernelKind.F, eps)
        left = e1 * v[None, :] + np.diag(e1 @ v)
        return eps ** (-1.0 - beta) * left @ (f * v[None, :])
    raise ConfigError(f"assemble_matrix supports rate schemes only, got {kind}")
