"""Explicit time integration and spectral stability analysis.

RK1 is forward Euler; RK2 is the explicit midpoint rule.  GPSE carries its
own exact-in-time propagator and is advanced by repeated exchange steps with
eps = dt^{1/alpha}.

For the rate schemes the strength evolution is du/dt = A u with A
time-invariant and its spectrum real and nonpositive.  A is symmetric for DD
and KPSE (even kernels); FPSE's A composes two odd-kernel sums truncated at
the grid edge and is not, though its column sums vanish as KPSE's do, so the
conservative schemes have lambda_max = 0.  The stability bound of forward
Euler is dt <= 2/|lambda_min|, reported as the nondimensional constant
a = 2 D / (|lambda_min| h^alpha) with D = 1.  lambda_min is the dominant
eigenvalue of A, so plain power iteration applies, run matrix-free with the
convolution operators.  The eigenvalues cluster at the spectral edge, so
convergence is declared on the relative Rayleigh-quotient increment; the
final residual ||Av - lambda v|| is reported alongside.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConfigError, InstabilityError
from .field import ParticleField
from .schemes import SchemeKind, make_gpse_stepper, make_rate_operator

__all__ = [
    "RKOrder",
    "IntegratorSpec",
    "StabilityReport",
    "integrate",
    "power_iteration_min_eig",
    "DIVERGENCE_FACTOR",
]

DIVERGENCE_FACTOR = 1e6


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


def integrate(field: ParticleField, kind: SchemeKind, spec: IntegratorSpec) -> ParticleField:
    """Advance the field from t0 to tf; raises InstabilityError on divergence."""
    u = field.strengths.copy()
    dt = spec.dt
    if kind is SchemeKind.GPSE:
        advance = make_gpse_stepper(field, dt)
    else:
        rate = make_rate_operator(field, kind)
        if spec.order is RKOrder.RK1:
            def advance(u):
                # u + dt * rate(u), in place: u is owned here, rate(u) is fresh
                r = rate(u)
                r *= dt
                u += r
                return u
        else:
            def advance(u):
                k1 = rate(u)
                return u + dt * rate(u + 0.5 * dt * k1)
    # an overflow leaves an inf (in u, or in _norm's sum of squares), and the
    # guard reports that, so numpy need not warn of it
    with np.errstate(over="ignore"):
        guard = DIVERGENCE_FACTOR * max(_norm(u), 1e-300)
        for step in range(spec.n_steps):
            u = advance(u)
            # a NaN or inf entry fails this test, even against an inf guard
            if not _norm(u) < guard:
                raise InstabilityError(
                    f"{kind.value} diverged at step {step + 1} of {spec.n_steps} "
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
