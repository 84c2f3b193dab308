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
that composes them, and it reads each operator's symbol off the length-m
circulant spectra of the same kernel tables.  On the uniform grid that sum is
a Toeplitz matrix-vector product.  The grid is symmetric about its centre and
every kernel is even or odd, so the product folds about the centre into a
Toeplitz-plus-Hankel product of half the size (_interaction): one batched
real FFT product (numpy.fft) of length L >= N against two spectra of the
kernel table, built once per operator (positions never move) with pref and h
folded in.  A vector's length tells its form: the upper half u[c:],
c = (N-1)/2, of an even or odd u, such as every iterate of a run started
from the even Green function, takes one row of it and gives the upper half
of the product, and a whole vector, such as power iteration's, takes both
rows.  Each circulant length, m for the N-section and L for its half, is
the smallest power of two >= 2n-1 (n = N or (N+1)/2), or the smallest
5-smooth length >= 2n-1 when 2n-1 fills at most 15/16 of that power.
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


def _spectrum(field: ParticleField, kind: KernelKind,
              pref: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spectrum, toeplitz, hankel): rFFTs of the interaction sum
    pref sum_j h k_eps(x_i - x_j) at eps = field.epsilon, from one table
    t_d = pref h k_eps(d h), d = 0..N-1, t_{-d} = +-t_d, scaled once and
    embedded three ways:

    spectrum  the length-m circulant embedding of the N = 2c+1 section (lags
              -2c..2c); it is the sum's finite-section symbol sampled at
              theta = 2 pi k/m: real for an even kernel, imaginary for an odd one
    toeplitz  the length-L circulant embedding of lags -c..c, L >= N
    hankel    lags 0..2c at 0..2c, zero-padded to length L

    The table is evaluated in fixed blocks (kernels.scaled), and each
    embedding is built and transformed on its own, so that no more than one
    real embedding lives beside the table and the spectra.
    """
    n = len(field)
    c = n // 2
    half = kernels.scaled(kind, np.arange(n) * field.h, field.order, field.epsilon)
    if kind in (KernelKind.K, KernelKind.E):
        # the exchange schemes' self term h k(0) (u_i - u_i) is exactly 0;
        # carried, it cancels in e(u) - u row once eps << h
        half[0] = 0.0
    half *= pref * field.h
    sign = -1.0 if kind in ODD_KINDS else 1.0
    fold = _circulant_length(c + 1)
    spectrum = np.fft.rfft(_circulant(half, sign, _circulant_length(n)))
    toeplitz = np.fft.rfft(_circulant(half[:c + 1], sign, fold))
    # the Hankel lags get a transform of their own: the Toeplitz spectrum of
    # a centred table times the phase exp(-2 pi i k c/L) rounds worse
    return spectrum, toeplitz, np.fft.rfft(half, fold)


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


def _interaction(field: ParticleField, kind: KernelKind, pref: float,
                 work: list | None = None):
    """(apply, spectrum): the interaction sum
    apply(w)_i = pref sum_j h k_eps(x_i - x_j) w_j at eps = field.epsilon, and
    the full-length spectrum of _spectrum, for sigma.

    The sum commutes with the reflection about the centre c = (N-1)/2 up to
    the kernel's sign, so it folds onto the halves U_q = w_{c+q} and
    D_q = w_{c-q}, q = 0..c, centre entries halved, as a Toeplitz-plus-Hankel
    product of half the size (Martucci 1994): y_{c+q} = sum_r t_{q-r} U_r +
    t_{q+r} D_r, and y_{c-q} is the kernel's sign times the same with U and
    D swapped.  One batched length-L FFT product gives both halves,
    irfft(toeplitz rfft(U) + hankel conj(rfft(D))) and its swap.

    w's length tells its form:

    - its (N+1)/2 upper entries w[c:], of a w of the given parity s (+1 by
      default, -1 for odd), so D = s U: one row, the half-length core, whose
      output is y[c:], with an odd output's centre set to its exact 0, so an
      even or odd iterate stays exactly so;
    - all N entries, of any parity: both rows.

    apply writes into the buffers held in work, a one-element list (a new
    one by default) that the sums of one operator may share: FPSE's second
    sum takes the first's output where it lies, so one workspace serves
    both.  The second row's room comes with the first whole vector, once the
    one-row buffers are freed.  apply returns a view of the real buffer,
    valid until the next call of any sum sharing it, and is not reentrant.
    """
    n = len(field)
    c = n // 2
    sign = -1.0 if kind in ODD_KINDS else 1.0
    spectrum, toeplitz, hankel = _spectrum(field, kind, pref)
    fold = _circulant_length(c + 1)

    def workspace(k: int):
        # k rows, each row's spectrum next to its conjugate product; two rows
        # sit after room for y's lower half, so that row 0's head, y's upper
        # half, completes y = buf[:n]
        buf = np.zeros((k - 1) * c + k * fold)
        z, z_conj = np.empty((k, 2, fold // 2 + 1), dtype=complex).transpose(1, 0, 2)
        return buf, buf[(k - 1) * c:].reshape(k, fold), z, z_conj

    # one row until the first whole vector, which only power iteration makes
    work = [] if work is None else work
    if not work:
        work.append(workspace(1))

    def product(r, zr, zc, partner, s):
        # rows r hold the folded halves, centre entries halved
        r[..., 0] *= 0.5
        r[..., c + 1:] = 0.0
        np.fft.rfft(r, out=zr)
        np.multiply(np.conjugate(partner, out=zc), hankel, out=zc)
        np.multiply(zr, toeplitz, out=zr)
        (np.subtract if s < 0.0 else np.add)(zr, zc, out=zr)
        np.fft.irfft(zr, fold, out=r)

    def apply(w: np.ndarray, s: float = 1.0) -> np.ndarray:
        if len(w) == c + 1:
            _, rows, z, z_conj = work[0]
            r = rows[0]
            r[:c + 1] = w
            product(r, z[0], z_conj[0], z[0], s)
            if sign * s < 0.0:
                r[0] = 0.0  # an odd output's exact centre
            return r[:c + 1]
        if len(work[0][1]) == 1:
            work[0] = None  # the one-row buffers go before the two-row ones come
            # freeing a mapped block raises glibc's mmap threshold to its size,
            # and the trim threshold to twice that (mallopt(3)), so after this
            # untouched 32L-byte block each whole-vector product's temporaries
            # come from the heap instead of being faulted in on every call.
            # glibc does so for blocks below 32 MiB: L < 2^20
            np.empty(4 * fold)
            work[0] = workspace(2)
        buf, rows, z, z_conj = work[0]
        rows[0, :c + 1] = w[c:]
        rows[1, :c + 1] = w[c::-1]
        product(rows, z, z_conj, z[::-1], 0.0)
        # y_0..y_{c-1}: the second row, reversed, times the sign
        np.multiply(rows[1, c:0:-1], sign, out=buf[:c])
        return buf[:n]
    return apply, spectrum


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
        # a table near the float limit overflows in the transforms and sigma,
        # leaving infs and NaNs that the divergence guard or power iteration
        # reports where the operator is applied, so numpy need not warn here
        with np.errstate(over="ignore", invalid="ignore"):
            field.operators[kind] = _build_operator(field, kind)
        # a block of 2N floats, written and freed after the build, leaves that
        # much heap faulted in: the first matvec's pocketfft scratch and fresh
        # result come from it, wherever the build's own arrays landed
        np.ones(2 * len(field))
    return field.operators[kind]


def _build_operator(field: ParticleField, kind: SchemeKind):
    n = len(field)
    pref = rate_prefactors(kind, field.order, field.epsilon)

    def row_sums(apply, sign: float) -> np.ndarray:
        # apply(1) from its upper half: the lower half is its mirror times
        # the kernel's sign
        half = apply(np.ones(n // 2 + 1))
        return np.concatenate((sign * half[:0:-1], half))

    if kind is SchemeKind.DD:
        a, spectrum = _interaction(field, KernelKind.GD, pref[0])
        # copied, so that sigma does not keep the complex spectrum alive
        return (lambda u: a(u).copy()), spectrum.real.copy()
    if kind is SchemeKind.FPSE:
        # one workspace: the second sum takes q where the first left it
        work = []
        f, spectrum_f = _interaction(field, KernelKind.F, pref[0], work)
        e1, spectrum_e1 = _interaction(field, KernelKind.ETA1, pref[1], work)
        row = row_sums(e1, -1.0)

        def rate(u: np.ndarray) -> np.ndarray:
            # an upper half u is even (make_rate_operator), so its q is odd
            q = f(u)
            out = q * row[n - len(u):]
            return np.add(e1(q, -1.0), out, out=out)

        np.multiply(spectrum_f, spectrum_e1, out=spectrum_f)
        del spectrum_e1  # freed before sigma is copied out
        return rate, spectrum_f.real.copy()
    kernel = KernelKind.E if kind is SchemeKind.GPSE else KernelKind.K
    k, spectrum = _interaction(field, kernel, pref[0])
    row = row_sums(k, 1.0)

    def rate(u: np.ndarray) -> np.ndarray:
        out = u * row[n - len(u):]
        return np.subtract(k(u), out, out=out)

    return rate, spectrum.real - spectrum[0].real


def make_rate_operator(field: ParticleField, kind: SchemeKind):
    """Build du/dt = A u as a reusable closure over fixed positions; for GPSE,
    A = P - I with P the exchange step at the field's epsilon.

    The closure returns a fresh array of u's length, whose form it follows:
    all N entries, of any parity, or the (N+1)/2 upper entries u[c:] of an
    even u, c = (N-1)/2, for which it returns (A u)[c:], the upper half of
    the even A u.
    """
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
