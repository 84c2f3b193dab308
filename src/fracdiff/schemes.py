"""Right-hand-side and stepping operators of the four particle schemes.

Rate operators (du_i/dt), on the uniform grid x_i = i h of volumes h:

    DD     du_i/dt = eps^-alpha   sum_j h u_j G^d_eps(x_i - x_j)
    FPSE   Q_i     = -eps^-beta   sum_j h u_j F_eps(x_i - x_j)
           du_i/dt = -(1/eps)     sum_j h (Q_j + Q_i) eta1_eps(x_i - x_j)
    KPSE   du_i/dt = alpha/eps^alpha sum_j h (u_j - u_i) K_eps(x_j - x_i)

GPSE's step is KPSE's exchange sum with kernel E and prefactor 1, taken once
on the field whose eps is tied to the step (gpse_field):

    GPSE   u_i^{n+1} = u_i^n + sum_j h (u_j^n - u_i^n) E_eps(x_j - x_i),
           eps = dt^{1/alpha}

so its operator A = P - I is the exchange sum itself.

Every scheme is built from one interaction sum, pref sum_j h k_eps(x_i - x_j) w_j,
with a scheme-specific kernel and prefactor, applied once (DD, KPSE, GPSE) or
twice (FPSE), together with its fixed row sums.  _operator is the one place
that composes them, and it reads each operator's symbol off the same spectra.
On the uniform grid that sum is a Toeplitz matrix-vector product: one real
FFT product against the spectrum of the per-separation kernel table's
circulant embedding, built once per operator (positions never move) with pref
and h folded in.  The circulant length is the smallest power of two >= 2N-1,
or the 5-smooth length when 2N-1 fills at most 15/16 of that power.
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace

import numpy as np
import scipy.fft

from . import kernels
from .errors import DomainError
from .field import ParticleField
from .greens import FractionalOrder
from .kernels import ODD_KINDS, KernelKind

__all__ = [
    "SchemeKind",
    "rate_prefactors",
    "make_rate_operator",
    "gpse_field",
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
        # carried, it cancels in e(u) - u row once eps << h
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
    """(apply, row, spectrum): the interaction sum
    apply(w)_i = pref sum_j h k_eps(x_i - x_j) w_j, its fixed row sums
    row = apply(1), and the spectrum of _spectrum that apply multiplies by.

    apply is one FFT product against that spectrum.  It reuses its own padded
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
    return apply, apply(np.ones(n)), spectrum


def rate_prefactors(kind: SchemeKind, order: FractionalOrder,
                    eps: float) -> tuple[float, ...]:
    """The prefactors of a scheme's interaction sums at smoothing length eps, in
    _operator's order.  A power out of float range raises OverflowError or
    ZeroDivisionError."""
    alpha, beta = order.alpha, order.beta
    if kind is SchemeKind.DD:
        return (eps ** (-alpha),)
    if kind is SchemeKind.KPSE:
        return (alpha / eps ** alpha,)
    if kind is SchemeKind.FPSE:
        return (-(eps ** (-beta)), -1.0 / eps)
    return (1.0,)  # GPSE: one exchange at eps = dt^{1/alpha} is a whole step


def _operator(field: ParticleField, kind: SchemeKind):
    """(A, sigma): the scheme's operator A at field.epsilon, a closure over
    fixed positions, and its real symbol sigma, read off the spectra A applies:

        DD     A = T_Gd                           sigma = sigma_Gd
        FPSE   A = (T_eta1 + diag(row_eta1)) T_F  sigma = sigma_F sigma_eta1
        KPSE   A = T_K - diag(row_K)              sigma = sigma_K - sigma_K(0)
        GPSE   A = T_E - diag(row_E) = P - I      sigma = sigma_E - sigma_E(0)
    """
    eps = field.epsilon
    pref = rate_prefactors(kind, field.order, eps)
    if kind is SchemeKind.DD:
        a, _, spectrum = _interaction(field, KernelKind.GD, eps, pref[0])
        return a, spectrum.real
    if kind is SchemeKind.FPSE:
        f, _, spectrum_f = _interaction(field, KernelKind.F, eps, pref[0])
        e1, row, spectrum_e1 = _interaction(field, KernelKind.ETA1, eps, pref[1])

        def rate(u: np.ndarray) -> np.ndarray:
            q = f(u)
            return e1(q) + q * row

        return rate, (spectrum_f * spectrum_e1).real
    kernel = KernelKind.E if kind is SchemeKind.GPSE else KernelKind.K
    k, row, spectrum = _interaction(field, kernel, eps, pref[0])
    return (lambda u: k(u) - u * row), spectrum.real - spectrum[0].real


def make_rate_operator(field: ParticleField, kind: SchemeKind):
    """Build du/dt = A u as a reusable closure over fixed positions; for GPSE,
    A = P - I with P the exchange step at the field's epsilon."""
    return _operator(field, kind)[0]


def gpse_field(field: ParticleField, dt: float) -> ParticleField:
    """The field that GPSE exchanges on at time step dt: eps = dt^{1/alpha}."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt}")
    return replace(field, epsilon=dt ** field.order.gamma)


def make_gpse_stepper(field: ParticleField, dt: float):
    """Build the GPSE map u^n -> u^{n+1} = u^n + A u^n for a fixed time step."""
    a = _operator(gpse_field(field, dt), SchemeKind.GPSE)[0]
    return lambda u: u + a(u)


def spectral_interval(field: ParticleField, kind: SchemeKind) -> tuple[float, float]:
    """(lo, hi): an interval holding the spectrum of A, from _operator's sigma.

    The eigenvalues of a Toeplitz section lie in the range of its symbol
    (Grenander & Szego 1958).  KPSE's and GPSE's A = T_k - diag(row) is a
    negative semidefinite graph Laplacian (k >= 0) whose row sums are at most
    sigma_k(0), the sum of the whole kernel table; FPSE's A is not symmetric,
    so its sigma is an estimate, not a bound.  hi is max(max sigma, 0) for DD
    and 0 for the others, where FFT rounding must not lift it.  lo is min sigma
    widened by 1%, which covers the sampling of the symbol on the circulant's
    grid and FPSE's estimate.
    """
    sigma = _operator(field, kind)[1]
    hi = max(sigma.max(), 0.0) if kind is SchemeKind.DD else 0.0
    return 1.01 * float(sigma.min()), float(hi)
