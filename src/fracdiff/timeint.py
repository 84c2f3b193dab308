"""Explicit time integration and spectral stability analysis.

RK1 is forward Euler; RK2 is the explicit midpoint rule.  The strength
evolution is du/dt = A u with A time-invariant and its spectrum real and
nonpositive.  GPSE's exchange step is P u = u + A u on schemes.gpse_field,
whose eps = dt^{1/alpha}: a GPSE run is an RK1 run of unit step there, whatever
the configured order.  A is symmetric for DD, KPSE and GPSE (even kernels);
FPSE's A composes two odd-kernel sums truncated at the grid edge and is not,
though its column sums vanish as KPSE's and GPSE's do, so the conservative
schemes have lambda_max = 0.

A run of n steps with step map s (RK1: s(z) = 1 + z, RK2: 1 + z + z^2/2)
computes p(A) u0 with p(lambda) = s(dt lambda)^n, dt = 1 for GPSE.
integrate evaluates it by one Chebyshev recurrence, the Chebyshev propagator
of Tal-Ezer & Kosloff (1984), whenever all of these hold:

- u0 is finite;
- |s(dt lambda)| <= 1 on schemes.spectral_interval, so the run lies inside
  the region where stepping stays bounded;
- the expansion's degree + 1 is fewer matvecs than stepping spends (n, or
  2n for RK2).

Otherwise it steps, under the divergence guard.  The expansion is of
q(lambda) = (p(lambda) - 1)/lambda, fitted by specfun.chebyshev_coefficients
(as greens' L0 table is) with a cut at CHEBYSHEV_TOL, and the result is
u0 + A q(A) u0, so u0 alone carries the conserved sum.  The interval bounds
the spectrum for DD, KPSE and GPSE; FPSE's A is not symmetric, and its
interval, from its two symbols' product, is an estimate the 1% widening covers.
Every A commutes with the grid's reflection, so from a u0 that reads the same
both ways, bit for bit, every iterate does too.  integrate is the one place
that tells a run's parity: from such a u0 the recurrence, or the stepping,
carries the (N+1)/2-entry upper halves, which the operator closure takes in
place of the whole vectors (schemes.make_rate_operator), the divergence guard
measures the whole vector from its upper half, and the result is mirrored
once.  Any other start, and power iteration, keep whole vectors.

The stability bound of forward Euler is dt <= 2/|lambda_min|, reported as
the nondimensional constant a = 2 D / (|lambda_min| h^alpha) with D = 1.
lambda_min is the dominant eigenvalue of A, so plain power iteration
applies, run matrix-free with the convolution operators.  It starts from the
symbol's extremal Fourier mode: A is built from Toeplitz sections and row
sums (schemes._operator), and its extremal eigenvectors are close to a
windowed cos(theta* j), theta* = argmin sigma (Grenander & Szego 1958).  The
eigenvalues cluster at the spectral edge, so convergence is declared on the
relative Rayleigh-quotient increment.  The reported lambda_min is that
Rayleigh quotient, so for the symmetric DD and KPSE it is at or above the
true lambda_min, and a is at or above the true constant: the unsafe side, a
dt limit slightly too large.  Against the dense matrix's eigenvalues at
n = 201 (the rows of `fracdiff stability --n 201`), lambda_min sits 8.1e-6
to 9.7e-6 relative above for DD and 1.3e-5 to 4.0e-5 for KPSE; at n = 2001,
7.3e-7 to 1.0e-6 for DD and 1.8e-7 to 4.4e-5 for KPSE.  a is high by as
much.  FPSE's A is not symmetric, so its estimate has no such side (3.2e-7
below to 8.7e-6 above at n = 201, 8.0e-7 to 1.2e-5 above at n = 2001), and
its Rayleigh quotients need not be monotone: the increment rule can stop at
their turn, short of lambda_min.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AccuracyError, ConfigError, InstabilityError
from .field import ParticleField, is_mirrored
from .schemes import (SchemeKind, _circulant_length, _operator, gpse_field,
                      make_rate_operator, spectral_interval)
from .specfun import chebyshev_coefficients

__all__ = [
    "RKOrder",
    "IntegratorSpec",
    "StabilityReport",
    "integrate",
    "make_gpse_stepper",
    "power_iteration_min_eig",
    "DIVERGENCE_FACTOR",
]

DIVERGENCE_FACTOR = 1e6
# Chebyshev coefficients below this share of the largest are dropped
CHEBYSHEV_TOL = 1e-13


class RKOrder(enum.Enum):
    RK1 = 1
    RK2 = 2


@dataclass(frozen=True)
class IntegratorSpec:
    order: RKOrder
    dt: float
    t0: float
    tf: float

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.tf > self.t0:
            raise ConfigError(f"tf must exceed t0, got t0={self.t0}, tf={self.tf}")
        steps = (self.tf - self.t0) / self.dt
        if not (math.isfinite(steps) and abs(steps - round(steps)) <= 1e-8 * max(1.0, steps)):
            raise ConfigError(
                f"(tf - t0)/dt = {steps} is not an integer; partial final steps "
                "are not supported"
            )

    @property
    def n_steps(self) -> int:
        return round((self.tf - self.t0) / self.dt)


@dataclass(frozen=True)
class StabilityReport:
    lambda_min: float
    a_constant: float
    iterations: int


def make_gpse_stepper(field: ParticleField, dt: float):
    """The GPSE map u^n -> u^{n+1} = u^n + A u^n for a fixed time step."""
    a = make_rate_operator(gpse_field(field, dt), SchemeKind.GPSE)
    return lambda u: u + a(u)


def _norm(u: np.ndarray, even: bool = False) -> float:
    """||u||_2, or with even, that of the even vector whose upper half u is:
    its centre counted once and every other entry twice.  The plain sum of
    squares overflows once entries pass about 1e154, so an inf from it is
    rechecked by hypot, which scales as it goes."""
    head, tail, w = (float(u[0]), u[1:], 2.0) if even else (0.0, u, 1.0)
    norm = math.sqrt(head * head + w * (tail @ tail))
    if norm == math.inf:
        norm = math.hypot(head, math.sqrt(w) * float(np.hypot.reduce(tail)))
    return norm


def _chebyshev_run(op, u0: np.ndarray, interval: tuple[float, float], scale: float,
                   n: int, rk2: bool, work: list[np.ndarray]):
    """p(A) u0 for p(lambda) = s(scale lambda)^n, or None where stepping is
    as cheap or the run lies outside the stability region.

    q(lambda) = (p(lambda) - 1)/lambda is expanded in Chebyshev polynomials
    T_k(B), B = (2A - (hi + lo)) / (hi - lo), and u0 + A sum_k c_k T_k(B) u0
    is summed by the three-term recurrence: degree + 1 matvecs of op = A.
    The recurrence rotates three iterates and one temporary through the rows
    of work, four arrays of u0's length.  u0 alone carries the conserved sum.
    op is the closure of schemes.make_rate_operator, whose form follows from
    u0's length: all N entries, or the upper half of an even start, whose
    p(A) u0 is then the upper half of the even result.
    """
    lo, hi = interval

    def s_minus_1(lam):
        z = scale * lam
        return z * (1.0 + 0.5 * z) if rk2 else z

    # |s| is convex, so its maximum on the interval is at an end
    if not np.abs(1.0 + s_minus_1(np.array([lo, hi]))).max() <= 1.0:
        return None

    def q(lam):
        # p - 1 by expm1/log1p where s > 0, so it does not cancel near 0
        d = s_minus_1(lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            pm1 = np.where(d > -1.0, np.expm1(n * np.log1p(d)), (1.0 + d) ** n - 1.0)
            return np.where(lam == 0.0, n * scale, pm1 / lam)

    c = chebyshev_coefficients(q, lo, hi, CHEBYSHEV_TOL, (2 if rk2 else 1) * n - 1)
    if c is None:
        return None

    tmp = work[3]
    acc = c[0] * u0
    prev, cur = None, u0
    for k in range(1, len(c)):
        # T_k = 2 B T_{k-1} - T_{k-2}, into the row that holds neither
        nxt = work[k % 3]
        np.multiply(op(cur), 2.0 / (hi - lo), out=nxt)
        nxt -= np.multiply(cur, (hi + lo) / (hi - lo), out=tmp)
        if k > 1:
            nxt *= 2.0
            nxt -= prev
        prev, cur = cur, nxt
        acc += np.multiply(cur, c[k], out=tmp)
    return u0 + op(acc)


def integrate(field: ParticleField, kind: SchemeKind, spec: IntegratorSpec) -> ParticleField:
    """Advance the field from t0 to tf, by one Chebyshev recurrence where the
    module docstring says so and by stepping otherwise; raises
    InstabilityError on divergence."""
    field = replace(field)  # a copy, so its operator build ends with this call
    dt, n = spec.dt, spec.n_steps
    scale, rk2 = dt, spec.order is RKOrder.RK2
    if kind is SchemeKind.GPSE:
        # one exchange step is one RK1 step of unit length on GPSE's field
        field, scale, rk2 = gpse_field(field, dt), 1.0, False
    # an even start, such as the Green function, has even iterates: the run
    # carries its upper half and mirrors the result once
    even = is_mirrored(field.strengths)
    u = field.strengths[len(field) // 2 if even else 0:].copy()
    # the recurrence's rows, zero-filled before the build: allocated after it,
    # they pushed the matvecs' temporaries onto fresh pages (schemes._operator)
    work = [np.zeros_like(u) for _ in range(4)]
    rate = make_rate_operator(field, kind)
    if not rk2:
        def advance(u):
            # u + scale * rate(u), in place: u is owned here, rate(u) is fresh
            r = rate(u)
            r *= scale
            u += r
            return u
    else:
        def advance(u):
            k1 = rate(u)
            return u + scale * rate(u + 0.5 * scale * k1)

    def result(u):
        # u, and its mirrored whole, are owned here: the field takes them uncopied
        return replace(field, strengths=np.concatenate((u[:0:-1], u)) if even else u)

    if np.isfinite(u).all():
        # an overflow in the recurrence falls back to stepping, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            out = _chebyshev_run(rate, u, spectral_interval(field, kind), scale, n, rk2,
                                 work)
        if out is not None and np.isfinite(out).all():
            return result(out)
    # an overflow leaves an inf (in u, or in _norm's sum of squares), or a NaN
    # where infs meet (inf - inf in the product), and the guard reports that,
    # so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        guard = DIVERGENCE_FACTOR * max(_norm(u, even), 1e-300)
        for step in range(n):
            u = advance(u)
            # a NaN or inf entry fails this test, even against an inf guard
            if not _norm(u, even) < guard:
                what = (": the operator's product of the start is not finite (it "
                        "overflows float range)" if step == 0 and not np.isfinite(u).all()
                        else " diverged")
                raise InstabilityError(f"{kind.value}{what} at step {step + 1} of {n} "
                                       f"(dt={dt})", step=step + 1)
    return result(u)


def _extremal_mode(field: ParticleField, kind: SchemeKind) -> np.ndarray:
    """The start vector of power iteration: the symbol's extremal Fourier mode
    theta* = argmin sigma under a sine window, normalized.

    A commutes with the grid's reflection j -> n-1-j, so each eigenvector is
    even or odd about the centre; the pi/4 phase gives the start both parts,
    and neither parity's extremal eigenvector is out of reach.
    """
    n = len(field)
    theta = 2.0 * math.pi * int(np.argmin(_operator(field, kind)[1])) / _circulant_length(n)
    j = np.arange(n)
    v = np.sin(math.pi * (j + 1) / (n + 1)) * np.cos(theta * (j - 0.5 * (n - 1)) + 0.25 * math.pi)
    return v / math.sqrt(v @ v)


def power_iteration_min_eig(field: ParticleField, kind: SchemeKind,
                            tol: float = 1e-8, max_iter: int = 50000) -> StabilityReport:
    """Most negative eigenvalue of A by matrix-free power iteration from the
    symbol's extremal mode (_extremal_mode), so reruns repeat to the bit.

    Convergence: relative change of the Rayleigh quotient below ``tol``.
    Raises AccuracyError (carrying the best estimate) if max_iter is hit.
    """
    if kind not in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE):
        raise ConfigError(f"stability analysis applies to rate schemes, got {kind}")
    field = replace(field)  # a copy, so its operator build ends with this call
    rate = make_rate_operator(field, kind)
    v = _extremal_mode(field, kind)
    lam = 0.0
    # an operator with entries past about 1e154 overflows the plain sum of
    # squares (_norm rechecks it), and one near the float limit leaves infs
    # and NaNs in its product (reported below), so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            av = rate(v)
            lam_new = float(np.dot(v, av))
            nav = _norm(av)
            if nav == 0.0:
                raise AccuracyError("power iteration hit a null vector", partial=0.0)
            if not math.isfinite(nav):
                raise AccuracyError(f"power iteration iterate {it} is not finite",
                                    partial=lam)
            if it > 1 and abs(lam_new - lam) <= tol * abs(lam_new):
                a_const = 2.0 / (abs(lam_new) * field.h ** field.order.alpha)
                return StabilityReport(lambda_min=lam_new, a_constant=a_const,
                                       iterations=it)
            av /= nav
            lam, v = lam_new, av
    raise AccuracyError(
        f"power iteration did not converge in {max_iter} iterations",
        partial=lam,
    )
