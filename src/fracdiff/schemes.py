"""Right-hand-side and stepping operators of the four particle schemes.

Rate operators (du_i/dt), on the uniform grid x_i = i h of volumes h:

    DD     du_i/dt = eps^-alpha   sum_j h u_j G^d_eps(x_i - x_j)
    FPSE   Q_i     = -eps^-beta   sum_j h u_j F_eps(x_i - x_j)
           du_i/dt = -(1/eps)     sum_j h (Q_j + Q_i) eta1_eps(x_i - x_j)
    KPSE   du_i/dt = alpha/eps^alpha sum_j h (u_j - u_i) K_eps(x_j - x_i)

Stepper:

    GPSE   u_i^{n+1} = u_i^n + sum_j h (u_j^n - u_i^n) E_eps(x_j - x_i),
           eps = dt^{1/alpha}  (tied to the step; field.epsilon is ignored)

Every scheme is built from one interaction sum, pref sum_j h k_eps(x_i - x_j) w_j,
with a scheme-specific kernel and prefactor, applied once (DD, KPSE, GPSE) or
twice (FPSE), together with its fixed row sums.  On the uniform grid that sum
is a Toeplitz matrix-vector product: one real FFT product against the
spectrum of the per-separation kernel table's circulant embedding, built once
per operator (positions never move) with pref and h folded in.  The
circulant length is the smallest power of two >= 2N-1, or the 5-smooth length
when 2N-1 fills at most 15/16 of that power.
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
    "spectral_interval",
]


class SchemeKind(enum.Enum):
    DD = "dd"
    FPSE = "fpse"
    KPSE = "kpse"
    GPSE = "gpse"


def _spectrum(field: ParticleField, kind: KernelKind, eps: float,
              pref: float) -> tuple[np.ndarray, int]:
    """(spectrum, m): the rFFT of the length-m circulant embedding of the
    interaction sum pref sum_j h k_eps(x_i - x_j), with pref and h folded in.

    It is the sum's finite-section symbol sampled at theta = 2 pi k/m: real
    for an even kernel, imaginary for an odd one.
    """
    n = len(field)
    half = kernels.scaled(kind, np.arange(n) * field.h, field.order, eps)
    if kind in (KernelKind.K, KernelKind.E):
        # the exchange schemes' self term h k(0) (u_i - u_i) is exactly 0;
        # carried, it cancels in u + e(u) - u row once eps << h
        half[0] = 0.0
    # a power of two costs about as much as the 5-smooth length, or less,
    # when 2N-1 fills more than 15/16 of it; below that it can cost 3x
    m = 1 << (2 * n - 2).bit_length()
    if 16 * (2 * n - 1) <= 15 * m:
        m = scipy.fft.next_fast_len(2 * n - 1, real=True)
    circ = np.zeros(m)
    circ[:n] = half
    circ[m - n + 1:] = (-1.0 if kind in ODD_KINDS else 1.0) * half[:0:-1]
    return scipy.fft.rfft((pref * field.h) * circ), m


def _interaction(field: ParticleField, kind: KernelKind, eps: float, pref: float):
    """The interaction sum apply(w)_i = pref sum_j h k_eps(x_i - x_j) w_j and
    its fixed row sums row = apply(1).

    apply is one FFT product against _spectrum.  It reuses its own padded
    buffer: not reentrant.
    """
    n = len(field)
    spectrum, m = _spectrum(field, kind, eps, pref)
    buf = np.zeros(m)
    # each call allocates and frees the rfft and irfft outputs and
    # pocketfft's scratch, about 8m bytes each.  Freeing a mapped block
    # raises glibc's mmap and trim thresholds above it (mallopt(3)), so
    # after this untouched 32m-byte block those come from the heap
    # instead of being mapped and faulted in afresh on every call
    np.empty(4 * m)

    def apply(w: np.ndarray) -> np.ndarray:
        buf[:n] = w
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
    # FPSE: rate_prefactors has rejected every other kind
    f, _ = _interaction(field, KernelKind.F, eps, pref[0])
    e1, row = _interaction(field, KernelKind.ETA1, eps, pref[1])

    def rate(u: np.ndarray) -> np.ndarray:
        q = f(u)
        return e1(q) + q * row

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


def spectral_interval(field: ParticleField, kind: SchemeKind,
                      dt: float) -> tuple[float, float]:
    """(lo, hi): an interval holding the spectrum of the rate operator A, or,
    for GPSE, of P - I with P the exchange step at time step dt (the rate
    schemes do not use dt).

    The eigenvalues of a Toeplitz section lie in the range of its symbol
    (Grenander & Szego 1958), here the circulant spectrum of _spectrum:

        DD     [min sigma_Gd, max(max sigma_Gd, 0)]
        KPSE   [min sigma_K - sigma_K(0), 0]: A = T_K - diag(row) is a
               negative semidefinite graph Laplacian (K >= 0), and each row
               sum is at most sigma_K(0), the sum of the whole kernel table
        GPSE   the same for P - I = T_E - diag(row_E)
        FPSE   [min sigma_F sigma_eta1, 0]: the product of two imaginary
               spectra is real.  FPSE's A is not symmetric, so this is an
               estimate of its spectrum, not a bound.

    lo is widened by 1%, which covers both the sampling of the symbol on the
    circulant's grid and FPSE's estimate.
    """
    eps = field.epsilon
    if kind is SchemeKind.GPSE:
        sigma = _spectrum(field, KernelKind.E, dt ** field.order.gamma, 1.0)[0].real
        lo, hi = sigma.min() - sigma[0], 0.0
    else:
        pref = rate_prefactors(kind, field.order, eps)
        if kind is SchemeKind.DD:
            sigma = _spectrum(field, KernelKind.GD, eps, pref[0])[0].real
            lo, hi = sigma.min(), max(sigma.max(), 0.0)
        elif kind is SchemeKind.KPSE:
            sigma = _spectrum(field, KernelKind.K, eps, pref[0])[0].real
            lo, hi = sigma.min() - sigma[0], 0.0
        else:
            sigma = (_spectrum(field, KernelKind.F, eps, pref[0])[0]
                     * _spectrum(field, KernelKind.ETA1, eps, pref[1])[0]).real
            lo, hi = sigma.min(), 0.0
    return 1.01 * float(lo), float(hi)
