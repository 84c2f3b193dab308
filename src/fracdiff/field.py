"""Particle discretization of the diffusing field.

A field is the standard smooth-particle representation

    u(x) = sum_i h u_i eta_eps(x - x_i)

on a fixed uniform grid: an odd number N of particles at x_i = i h,
i = -(N-1)/2 .. (N-1)/2, each of volume h.  init_uniform puts the first and
last particle centers on the domain boundary +-D, so h = 2D/(N-1), and sets
epsilon = overlap * h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .greens import FractionalOrder

__all__ = ["ParticleField", "init_uniform", "total_strength", "exact_sum", "is_mirrored"]


def _centers(n: int, h: float) -> np.ndarray:
    # integer multiples of h: center particle exactly at 0, exact +- symmetry,
    # and nested refinements (N -> 2N-1) share coarse nodes bit for bit
    return (np.arange(n) - (n - 1) // 2) * h


@dataclass(frozen=True)
class ParticleField:
    h: float
    strengths: np.ndarray
    epsilon: float
    order: FractionalOrder
    # schemes._operator's builds on this grid, by scheme; a replace() starts empty
    operators: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        u = np.ascontiguousarray(self.strengths, dtype=float)
        if u.ndim != 1 or len(u) < 3 or len(u) % 2 == 0:
            raise DomainError(f"strengths must be 1D with an odd count >= 3, got shape {u.shape}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise DomainError(f"h must be positive and finite, got {self.h}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        u.setflags(write=False)
        object.__setattr__(self, "strengths", u)

    def __len__(self) -> int:
        return len(self.strengths)

    @property
    def positions(self) -> np.ndarray:
        return _centers(len(self), self.h)

    def with_strengths(self, strengths: np.ndarray) -> "ParticleField":
        return replace(self, strengths=np.array(strengths, dtype=float))


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
    x = _centers(n, h)
    u = np.asarray(init(x), dtype=float)
    if u.shape != x.shape:
        raise ConfigError(f"init: returned shape {u.shape} for {n} particle centers")
    return ParticleField(h=h, strengths=u, epsilon=overlap * h, order=order)


def total_strength(field: ParticleField) -> float:
    """sum_i h u_i by exact (error-free) summation; order-independent."""
    return exact_sum(field.h * field.strengths)


def is_mirrored(a: np.ndarray) -> bool:
    """Whether a reads the same both ways, bit for bit (so -0.0 is not 0.0)."""
    c = len(a) // 2
    bits = a.view(np.uint64)
    return np.array_equal(bits[:c], bits[:c:-1])


def exact_sum(a: np.ndarray) -> float:
    """math.fsum over a's entries, as floats, read through a memoryview: the
    correctly rounded exact sum, with fsum's errors, and no list built."""
    return math.fsum(memoryview(np.asarray(a, dtype=float)))
