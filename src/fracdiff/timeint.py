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
q(lambda) = (p(lambda) - 1)/lambda, its coefficients cut at CHEBYSHEV_TOL of
the largest, and the result is u0 + A q(A) u0, so u0 alone carries the
conserved sum.  The interval is a bound for DD, KPSE and GPSE; FPSE's A is
not symmetric, and its interval, from the product of its two symbols, is an
estimate that the interval's 1% widening covers.

The stability bound of forward Euler is dt <= 2/|lambda_min|, reported as
the nondimensional constant a = 2 D / (|lambda_min| h^alpha) with D = 1.
lambda_min is the dominant eigenvalue of A, so plain power iteration
applies, run matrix-free with the convolution operators.  The eigenvalues
cluster at the spectral edge, so convergence is declared on the relative
Rayleigh-quotient increment; the final residual ||Av - lambda v|| is
reported alongside.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import AccuracyError, ConfigError, InstabilityError
from .field import ParticleField
from .schemes import (SchemeKind, gpse_field, make_rate_operator,
                      spectral_interval)
# not called here: perfbench/layertrace.py traces GPSE steppers through it
from .schemes import make_gpse_stepper  # noqa: F401

__all__ = [
    "RKOrder",
    "IntegratorSpec",
    "StabilityReport",
    "integrate",
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
    residual: float


def _norm(u: np.ndarray) -> float:
    """||u||_2.  The plain sum of squares overflows once entries pass about
    1e154, so an inf from it is rechecked by hypot, which scales as it goes."""
    norm = math.sqrt(u @ u)
    return float(np.hypot.reduce(u)) if norm == math.inf else norm


def _chebyshev_coefficients(q, lo: float, hi: float, max_degree: int):
    """Chebyshev coefficients of q on [lo, hi], cut where they fall below
    CHEBYSHEV_TOL of the largest, or None if that needs degree max_degree or
    more.

    They come from one DCT-I of q at K + 1 Chebyshev points, K doubling
    until the upper half of the coefficients is below the cut.
    """
    k = 16
    while True:
        lam = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(k + 1) / k)
        c = scipy.fft.dct(q(lam), type=1) / k
        c[[0, k]] *= 0.5
        big = np.flatnonzero(np.abs(c) > CHEBYSHEV_TOL * np.abs(c).max())
        degree = int(big[-1]) if big.size else 0
        if degree >= max_degree:
            return None
        if 2 * degree < k:
            return c[:degree + 1]
        k *= 2


def _chebyshev_run(op, u0: np.ndarray, interval: tuple[float, float], scale: float,
                   n: int, rk2: bool):
    """p(A) u0 for p(lambda) = s(scale lambda)^n, or None where stepping is
    as cheap or the run lies outside the stability region.

    q(lambda) = (p(lambda) - 1)/lambda is expanded in Chebyshev polynomials
    T_k(B), B = (2A - (hi + lo)) / (hi - lo), and u0 + A sum_k c_k T_k(B) u0
    is summed by the three-term recurrence: degree + 1 matvecs of op = A.
    u0 alone carries the conserved sum.
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

    c = _chebyshev_coefficients(q, lo, hi, (2 if rk2 else 1) * n - 1)
    if c is None:
        return None

    def b(v):
        # a fresh length-N product: op's result can be a view that holds
        # the whole padded FFT output, and the recurrence keeps three
        out = (2.0 / (hi - lo)) * op(v)
        out -= ((hi + lo) / (hi - lo)) * v
        return out

    acc = c[0] * u0
    prev, cur = None, u0
    for k in range(1, len(c)):
        nxt = b(cur)
        if k > 1:
            nxt *= 2.0
            nxt -= prev
        prev, cur = cur, nxt
        acc += c[k] * cur
    return u0 + op(acc)


def integrate(field: ParticleField, kind: SchemeKind, spec: IntegratorSpec) -> ParticleField:
    """Advance the field from t0 to tf, by one Chebyshev recurrence where the
    module docstring says so and by stepping otherwise; raises
    InstabilityError on divergence."""
    u = field.strengths.copy()
    dt, n = spec.dt, spec.n_steps
    scale, rk2 = dt, spec.order is RKOrder.RK2
    if kind is SchemeKind.GPSE:
        # one exchange step is one RK1 step of unit length on GPSE's field
        field, scale, rk2 = gpse_field(field, dt), 1.0, False
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
    if np.isfinite(u).all():
        # an overflow in the recurrence falls back to stepping, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            out = _chebyshev_run(rate, u, spectral_interval(field, kind), scale, n, rk2)
        if out is not None and np.isfinite(out).all():
            return field.with_strengths(out)
    # an overflow leaves an inf (in u, or in _norm's sum of squares), and the
    # guard reports that, so numpy need not warn of it
    with np.errstate(over="ignore"):
        guard = DIVERGENCE_FACTOR * max(_norm(u), 1e-300)
        for step in range(n):
            u = advance(u)
            # a NaN or inf entry fails this test, even against an inf guard
            if not _norm(u) < guard:
                raise InstabilityError(
                    f"{kind.value} diverged at step {step + 1} of {n} "
                    f"(dt={dt})",
                    step=step + 1,
                )
    return field.with_strengths(u)


def power_iteration_min_eig(field: ParticleField, kind: SchemeKind,
                            tol: float = 1e-8, max_iter: int = 50000) -> StabilityReport:
    """Most negative eigenvalue of A by matrix-free power iteration from one
    fixed start vector, so reruns repeat to the bit.

    Convergence: relative change of the Rayleigh quotient below ``tol``.
    Raises AccuracyError (carrying the best estimate) if max_iter is hit.
    """
    if kind not in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE):
        raise ConfigError(f"stability analysis applies to rate schemes, got {kind}")
    rate = make_rate_operator(field, kind)
    v = np.random.default_rng(0).standard_normal(len(field))
    v /= math.sqrt(v @ v)
    lam = 0.0
    # an operator with entries past about 1e154 overflows the plain sum of
    # squares; _norm rechecks an inf from it, so numpy need not warn of it
    with np.errstate(over="ignore"):
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
                                       iterations=it, residual=_norm(av - lam_new * v))
            av /= nav
            lam, v = lam_new, av
    raise AccuracyError(
        f"power iteration did not converge in {max_iter} iterations",
        partial=lam,
    )
