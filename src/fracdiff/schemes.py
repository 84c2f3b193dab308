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
FFT product (numpy.fft) against the spectrum of the per-separation kernel
table's circulant embedding, built once per operator (positions never move)
with pref and h folded in.  The circulant length is the smallest power of two
>= 2N-1, or the smallest 5-smooth length >= 2N-1 when 2N-1 fills at most
15/16 of that power.

The grid is symmetric about its centre and every kernel is even or odd, so
each sum maps an even or odd vector to an even or odd one.  Runs start from
the even Green function and stay even, and for them the product is folded
about the centre: a Toeplitz-plus-Hankel product of half the size, one real
FFT product of length L >= N (_interaction).  A vector of mixed parity, such
as power iteration's start, takes the full-length product.
"""

from __future__ import annotations

import enum
import math
from dataclasses import replace

import numpy as np

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
    "spectral_interval",
]


class SchemeKind(enum.Enum):
    DD = "dd"
    FPSE = "fpse"
    KPSE = "kpse"
    GPSE = "gpse"


def _spectrum(field: ParticleField, kind: KernelKind, eps: float,
              pref: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spectrum, toeplitz, hankel): rFFTs of the interaction sum
    pref sum_j h k_eps(x_i - x_j), with pref and h folded in, from one table
    t_d = pref h k_eps(d h), d = 0..N-1, t_{-d} = +-t_d:

    spectrum  the length-m circulant embedding of the N = 2c+1 section (lags
              -2c..2c); it is the sum's finite-section symbol sampled at
              theta = 2 pi k/m: real for an even kernel, imaginary for an odd one
    toeplitz  the length-L circulant embedding of lags -c..c, L >= N
    hankel    lags 0..2c at 0..2c, zero-padded to length L
    """
    n = len(field)
    c = n // 2
    half = kernels.scaled(kind, np.arange(n) * field.h, field.order, eps)
    if kind in (KernelKind.K, KernelKind.E):
        # the exchange schemes' self term h k(0) (u_i - u_i) is exactly 0;
        # carried, it cancels in e(u) - u row once eps << h
        half[0] = 0.0
    sign = -1.0 if kind in ODD_KINDS else 1.0
    m, fold = _circulant_length(n), _circulant_length(c + 1)
    # the Hankel lags get a transform of their own: the Toeplitz spectrum of
    # a centred table times the phase exp(-2 pi i k c/L) rounds worse
    hankel = np.zeros(fold)
    hankel[:n] = half
    return tuple(np.fft.rfft((pref * field.h) * circ)
                 for circ in (_circulant(half, sign, m), _circulant(half[:c + 1], sign, fold),
                              hankel))


def _circulant(half: np.ndarray, sign: float, length: int) -> np.ndarray:
    """The length-`length` circulant embedding of the Toeplitz section with
    lags t_d = half[d], t_{-d} = sign half[d], |d| < len(half)."""
    n = len(half)
    circ = np.zeros(length)
    circ[:n] = half
    circ[length - n + 1:] = sign * half[:0:-1]
    return circ


def _circulant_length(n: int) -> int:
    """m, the length of the circulant embedding of an N = n Toeplitz section:
    a symbol sampled by _spectrum lies at theta = 2 pi k/m, k < m//2 + 1."""
    # a power of two costs about as much as the 5-smooth length, or less,
    # when 2N-1 fills more than 15/16 of it; below that it can cost 3x
    m = 1 << (2 * n - 2).bit_length()
    return _five_smooth(2 * n - 1) if 16 * (2 * n - 1) <= 15 * m else m


def _five_smooth(target: int) -> int:
    """The smallest 2^i 3^j 5^k >= target: the fastest real FFT length there."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 2^i >= target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _interaction(field: ParticleField, kind: KernelKind, eps: float, pref: float):
    """(apply, row, spectrum): the interaction sum
    apply(w)_i = pref sum_j h k_eps(x_i - x_j) w_j, its fixed row sums
    row = apply(1), and the full-length spectrum of _spectrum.

    The sum commutes with the reflection about the centre c = (N-1)/2 up to
    the kernel's sign, so apply reads the parity of w first: the end pair,
    then the whole vector.  An even (s = +1) or odd (s = -1) w is folded onto
    its half W_q = w_{c+q}, q = 0..c, with W_0 halved, where the sum is the
    Toeplitz-plus-Hankel product y_p = sum_q (t_{p-q} + s t_{p+q}) W_q of half
    the size (Martucci 1994): one length-L FFT product,
    y = irfft(toeplitz rfft(W) + s hankel conj(rfft(W))), mirrored into the
    output with the kernel's sign times s, and an odd output's centre set to
    its exact 0.  So an even or odd iterate stays exactly even or odd.  A
    mixed w takes the full length-m product against spectrum.

    apply writes into buffers of its own: it returns a view of its real
    buffer, valid until its next call, and is not reentrant.
    """
    n = len(field)
    c = n // 2
    sign = -1.0 if kind in ODD_KINDS else 1.0
    # a table near the float limit overflows in the transforms; the inf it
    # leaves is reported where the operator is applied (by the divergence
    # guard or power iteration), so numpy need not warn of it here
    with np.errstate(over="ignore"):
        spectrum, toeplitz, hankel = _spectrum(field, kind, eps, pref)
        m, fold = _circulant_length(n), _circulant_length(c + 1)
        # each transform allocates and frees pocketfft's scratch, about 8m
        # bytes (8L folded).  Freeing a mapped block raises glibc's mmap
        # threshold to its size and the trim threshold to twice that
        # (mallopt(3)), so after this untouched 32m-byte block those come
        # from the heap instead of being mapped and faulted in afresh on
        # every call.  glibc raises it only for blocks up to 32 MiB, so for
        # the full product this holds while m < 2^20 (N up to about 4.9e5);
        # the folded one stays on the heap at least up to N = 1.5e6.  The
        # folded product that forms row leaves its heap pages faulted in
        np.empty(4 * m)
        # both paths share one real and one complex buffer: the fold works
        # in buf[c:c + L], whose head is the output's upper half, and in two
        # length-L/2+1 spectra
        buf = np.zeros(max(m, c + fold))
        z = np.empty(max(m // 2 + 1, 2 * (fold // 2 + 1)), dtype=complex)
        out, full, z_full = buf[:n], buf[:m], z[:m // 2 + 1]
        folded, z_half, z_conj = buf[c:c + fold], z[:fold // 2 + 1], z[fold // 2 + 1:fold + 2]

        def apply(w: np.ndarray) -> np.ndarray:
            lo, hi = w[:c], w[:c:-1]
            if w[0] == w[-1] and np.array_equal(lo, hi):
                s = 1.0
            elif w[0] == -w[-1] and w[c] == 0.0 and np.array_equal(lo, -hi):
                s = -1.0
            else:
                full[:n] = w
                full[n:] = 0.0  # the last product's wrap-around
                np.multiply(np.fft.rfft(full, out=z_full), spectrum, out=z_full)
                return np.fft.irfft(z_full, m, out=full)[:n]
            folded[:c + 1] = w[c:]
            folded[0] *= 0.5
            folded[c + 1:] = 0.0
            np.fft.rfft(folded, out=z_half)
            np.multiply(np.conjugate(z_half, out=z_conj), hankel, out=z_conj)
            np.multiply(z_half, toeplitz, out=z_half)
            (np.add if s > 0.0 else np.subtract)(z_half, z_conj, out=z_half)
            np.fft.irfft(z_half, fold, out=folded)
            if sign * s > 0.0:
                out[:c] = out[:c:-1]
            else:
                np.negative(out[:c:-1], out=out[:c])
                out[c] = 0.0
            return out
        return apply, apply(np.ones(n)).copy(), spectrum


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
    fixed positions that returns a fresh array, and its real symbol sigma,
    read off the spectra A applies:

        DD     A = T_Gd                           sigma = sigma_Gd
        FPSE   A = (T_eta1 + diag(row_eta1)) T_F  sigma = sigma_F sigma_eta1
        KPSE   A = T_K - diag(row_K)              sigma = sigma_K - sigma_K(0)
        GPSE   A = T_E - diag(row_E) = P - I      sigma = sigma_E - sigma_E(0)

    Built once per field and scheme (field.operators), so a run that steps and
    reads the interval, or iterates from sigma's extremal mode, shares one.
    """
    if kind not in field.operators:
        field.operators[kind] = _build_operator(field, kind)
    return field.operators[kind]


def _build_operator(field: ParticleField, kind: SchemeKind):
    eps = field.epsilon
    pref = rate_prefactors(kind, field.order, eps)
    if kind is SchemeKind.DD:
        a, _, spectrum = _interaction(field, KernelKind.GD, eps, pref[0])
        return (lambda u: a(u).copy()), spectrum.real
    if kind is SchemeKind.FPSE:
        f, _, spectrum_f = _interaction(field, KernelKind.F, eps, pref[0])
        e1, row, spectrum_e1 = _interaction(field, KernelKind.ETA1, eps, pref[1])

        def rate(u: np.ndarray) -> np.ndarray:
            q = f(u)
            out = q * row
            return np.add(e1(q), out, out=out)

        return rate, (spectrum_f * spectrum_e1).real
    kernel = KernelKind.E if kind is SchemeKind.GPSE else KernelKind.K
    k, row, spectrum = _interaction(field, kernel, eps, pref[0])

    def rate(u: np.ndarray) -> np.ndarray:
        out = u * row
        return np.subtract(k(u), out, out=out)

    return rate, spectrum.real - spectrum[0].real


def make_rate_operator(field: ParticleField, kind: SchemeKind):
    """Build du/dt = A u as a reusable closure over fixed positions; for GPSE,
    A = P - I with P the exchange step at the field's epsilon."""
    return _operator(field, kind)[0]


def gpse_field(field: ParticleField, dt: float) -> ParticleField:
    """The field that GPSE exchanges on at time step dt: eps = dt^{1/alpha}."""
    if not (dt > 0.0 and math.isfinite(dt)):
        raise DomainError(f"dt must be positive, got {dt}")
    return replace(field, epsilon=dt ** field.order.gamma)


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
