"""Particle discretization of the diffusing field.

A field is the standard smooth-particle representation

    u(x) = sum_i V_i u_i eta_eps(x - x_i)

on fixed particle positions.  The uniform constructor places an odd number of
particles symmetrically about x = 0 with the first and last particle centers
on the domain boundary +-D, spacing h = 2D/(N-1), volumes V_i = h, and
epsilon = overlap * h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError
from .greens import FractionalOrder
from .kernels import KernelKind

__all__ = [
    "ParticleField",
    "init_uniform",
    "eval_u",
    "eval_utilde",
    "eval_flux",
    "total_strength",
]


@dataclass(frozen=True)
class ParticleField:
    positions: np.ndarray
    volumes: np.ndarray
    strengths: np.ndarray
    epsilon: float
    order: FractionalOrder

    def __post_init__(self):
        x = np.ascontiguousarray(self.positions, dtype=float)
        v = np.ascontiguousarray(self.volumes, dtype=float)
        u = np.ascontiguousarray(self.strengths, dtype=float)
        if not (x.ndim == v.ndim == u.ndim == 1 and len(x) == len(v) == len(u)):
            raise DomainError("positions, volumes, strengths must be 1D and equally long")
        if len(x) == 0:
            raise DomainError("empty particle field")
        if not np.all(np.diff(x) > 0.0):
            raise DomainError("positions must be strictly increasing")
        if not np.all(v > 0.0):
            raise DomainError("volumes must be positive")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        for name, arr in (("positions", x), ("volumes", v), ("strengths", u)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.positions)

    def with_strengths(self, strengths: np.ndarray) -> "ParticleField":
        return replace(self, strengths=np.array(strengths, dtype=float))

    def uniform_spacing(self) -> float | None:
        """Grid spacing h if the particles are uniformly spaced, else None.

        Spacings that agree to within a few ulps of the coordinate magnitude
        count as uniform (constructing x_i = i*h rounds each position once).
        """
        d = np.diff(self.positions)
        if len(d) == 0:
            return None
        h = float(np.mean(d))
        tol = 1e-12 * h + 8.0 * np.finfo(float).eps * float(np.abs(self.positions).max())
        if np.allclose(d, h, rtol=0.0, atol=tol):
            return h
        return None


def init_uniform(half_width: float, n: int, order: FractionalOrder, overlap: float,
                 init: Callable[[np.ndarray], np.ndarray]) -> ParticleField:
    """Uniform symmetric grid of n particles on [-D, D], D = half_width, with
    collocation-sampled strengths.

    ``init`` is called once, on the array of particle centers (midpoint-rule
    sampling), and must return the strengths as an array of the same shape.
    """
    if not half_width > 0.0:
        raise ConfigError(f"half_width must be positive, got {half_width}")
    if n < 3 or n % 2 == 0:
        raise ConfigError(f"n must be odd and >= 3, got {n}")
    if overlap < 1.0:
        raise ConfigError(f"overlap must be >= 1, got {overlap}")
    h = 2.0 * half_width / (n - 1)
    # integer multiples of h: center particle exactly at 0, exact +- symmetry,
    # and nested refinements (N -> 2N-1) share coarse nodes bit for bit
    x = (np.arange(n) - (n - 1) // 2) * h
    u = np.asarray(init(x), dtype=float)
    if u.shape != x.shape:
        raise ConfigError(f"init: returned shape {u.shape} for {n} particle centers")
    return ParticleField(
        positions=x,
        volumes=np.full(n, h),
        strengths=u,
        epsilon=overlap * h,
        order=order,
    )


def eval_u(field: ParticleField, x: float) -> float:
    """Field value sum_i V_i u_i eta_eps(x - x_i)."""
    w = kernels.scaled(KernelKind.ETA, x - field.positions, field.order, field.epsilon)
    return float(np.dot(field.volumes * field.strengths, w))


def eval_utilde(field: ParticleField, x: float) -> float:
    """Smoothed Riemann-Liouville potential

    utilde(x) = eps^{1-beta} sum_i V_i u_i kappa^beta_eps(x - x_i).
    """
    w = kernels.scaled(KernelKind.KAPPA_BETA, x - field.positions, field.order, field.epsilon)
    return field.epsilon ** (1.0 - field.order.beta) * float(
        np.dot(field.volumes * field.strengths, w)
    )


def eval_flux(field: ParticleField, x: float) -> float:
    """Fractional diffusion flux Q^beta(x) = -eps^{-beta} sum_i V_i u_i F_eps(x - x_i)."""
    w = kernels.scaled(KernelKind.F, x - field.positions, field.order, field.epsilon)
    return -(field.epsilon ** (-field.order.beta)) * float(
        np.dot(field.volumes * field.strengths, w)
    )


def total_strength(field: ParticleField) -> float:
    """sum_i V_i u_i by exact (error-free) summation; order-independent."""
    return math.fsum(field.volumes * field.strengths)
