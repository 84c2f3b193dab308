"""Error metrics and convergence-order estimation.

The accuracy measure is the relative L1 error over a centered subinterval
|x| <= d_eps, with the particle-sum numerator and the exact-solution integral
in the denominator:

    err = sum_{|x_i|<=d_eps} h |u_i - G0(x_i, t)|  /  int_{-d_eps}^{d_eps} |G0(x, t)| dx.

The denominator is the mass of L0 on |x| <= d_eps t^{-1/alpha}, in closed
form from the L0 table and the tail integral of its asymptotic expansion
(greens.reduced_green_mass), not by quadrature.

Self-convergence orders come from the final fields of three runs whose
control parameter halves between levels:

    p = log2( sum_I |u^(l) - u^(l+1)| / sum_I |u^(l+1) - u^(l+2)| )

over the particles I shared by all three levels.  self_convergence_order
restricts the fields itself: on nested grids N -> 2N-1 -> 4N-3 the coarse
nodes are every second, resp. fourth, fine node; a time sweep's levels share
one grid.

The strength drift of a run is max_n |S_n - S_0| / |S_0| over its snapshots,
S = sum_i h u_i (conservation_drift).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError
from .field import ParticleField, exact_sum, total_strength
from .greens import _as_order, green_function_symmetric, reduced_green_mass

__all__ = [
    "rel_l1_error",
    "self_convergence_order",
    "conservation_drift",
]


def exact_mass(field_order, t: float, d_eps: float) -> float:
    """int_{-d_eps}^{d_eps} |G0| dx (G0 > 0), the mass of L0 on |x| <= d_eps t^{-1/alpha}."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    return reduced_green_mass(field_order, d_eps * t ** -_as_order(field_order).gamma)


def rel_l1_error(field: ParticleField, t: float, d_eps: float) -> float:
    """Relative L1 error of the field against the fundamental solution at t."""
    x = field.positions
    mask = np.abs(x) <= d_eps
    if not mask.any():
        raise DomainError(f"no particles inside |x| <= {d_eps}")
    exact = green_function_symmetric(field.order, x[mask], t)
    num = exact_sum(field.h * np.abs(field.strengths[mask] - exact))
    den = exact_mass(field.order, t, d_eps)
    if not den > 0.0:
        raise DomainError(f"the exact mass on |x| <= {d_eps} underflows to 0 at t = {t}")
    return num / den


def self_convergence_order(fields: Sequence[ParticleField],
                           parameters: Sequence[float]) -> float:
    """Observed order p from three runs on nested uniform grids (N, 2N-1,
    4N-3, or one grid) whose parameter halves between levels.

    Strengths are restricted to the coarsest grid's nodes, which are every
    2^k-th node of level k; positions are checked to actually coincide.
    """
    if len(fields) != 3 or len(parameters) != 3:
        raise DomainError("self-convergence needs exactly three levels")
    for a, b in zip(parameters, parameters[1:]):
        ratio = a / b
        if abs(ratio - 2.0) > 1e-9:
            raise DomainError(f"parameters must halve between levels, got ratio {ratio}")
    coarse = fields[0]
    strengths = []
    for lvl, f in enumerate(fields):
        stride = (len(f) - 1) // (len(coarse) - 1) if len(coarse) > 1 else 1
        if stride * (len(coarse) - 1) != len(f) - 1:
            raise DomainError(f"level {lvl} grid is not a refinement of level 0")
        if not np.allclose(f.positions[::stride], coarse.positions, rtol=0.0,
                           atol=1e-9 * max(1.0, abs(coarse.positions[-1]))):
            raise DomainError(f"level {lvl} nodes do not contain the coarse nodes")
        strengths.append(f.strengths[::stride])
    num = exact_sum(np.abs(strengths[0] - strengths[1]))
    den = exact_sum(np.abs(strengths[1] - strengths[2]))
    for name, diff in (("denominator", den), ("numerator", num)):
        if diff == 0.0:
            raise DomainError(f"degenerate level difference (zero {name})")
    return math.log2(num / den)


def conservation_drift(history: Sequence[ParticleField]) -> float:
    """max_n |S_n - S_0| / |S_0| over a sequence of snapshots."""
    if len(history) < 2:
        raise DomainError("conservation drift needs at least two snapshots")
    s0 = total_strength(history[0])
    scale = abs(s0) if s0 != 0.0 else 1.0
    return max(abs(total_strength(f) - s0) for f in history[1:]) / scale
