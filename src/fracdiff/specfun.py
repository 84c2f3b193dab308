"""Parabolic cylinder functions U, V, D_nu and the radial combinations S, T.

Two evaluation regimes are used, switched on the magnitude of the argument:

* series: the standard even/odd solutions u1, u2 of the Weber equation,
  combined with the boundary values U(a,0), U'(a,0), V(a,0), V'(a,0).
  For moderately large positive z the combination U(a,0)*u1 + U'(a,0)*u2
  cancels catastrophically (U is the recessive solution there, while u1 and
  u2 both grow like exp(z^2/4)); a post-hoc cancellation check reruns the
  same series in extended precision when too many digits were lost.
* asymptotic: the large-z expansions of U and V, summed adaptively to their
  smallest term.  Negative arguments are folded back with the reflection
  U(a,-z) = -sin(pi a) U(a,z) + pi/Gamma(1/2+a) V(a,z).

The combinations

    S^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) + D_{nu-1}(sqrt2 z))
    T^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) - D_{nu-1}(sqrt2 z))

collapse to a *single* even (resp. odd) series,

    S^nu(z) =  2 U(a,0)  exp(-z^2) b1(a, sqrt2 z),   a = 1/2 - nu,
    T^nu(z) = -2 U'(a,0) exp(-z^2) b2(a, sqrt2 z),

because the odd (resp. even) halves cancel identically, so no precision is
lost and the combos vectorize cheaply; for large arguments they are routed
through the U/V form, with the exponential factors cancelled analytically so
that nothing overflows.  S is even in z, T is odd.

Intended parameter range: nu in (-2, 3), real z; complex arguments and
arbitrary-precision output are out of scope.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DomainError

__all__ = [
    "DEFAULT_SWITCH_RADIUS",
    "pcf_u",
    "pcf_v",
    "pcf_d",
    "s_combo",
    "t_combo",
    "gamma_rec",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

#: |z| at which evaluation switches from series to asymptotics.  For the
#: S/T combos the switch is applied to the sqrt(2)-scaled argument.  10.0
#: keeps the adaptively-summed asymptotic branch below ~1e-11 relative over
#: the whole overlap band [0.8 sr, 1.2 sr] even for the widest order used
#: (S^{alpha+1} with beta = 0.9); at 8.0 the band's lower edge only reaches
#: ~3e-7 there.
DEFAULT_SWITCH_RADIUS = 10.0

_MAX_SERIES_TERMS = 500
_SERIES_TOL = 1e-16
_MAX_ASYM_TERMS = 120
# rerun the series in extended precision once the U(a,0)*u1 + U'(a,0)*u2
# cancellation has eaten more than ~6 of the 16 float digits
_CANCEL_GUARD = 1e-6


def gamma_rec(x: float) -> float:
    """1/Gamma(x), with the poles of Gamma mapped to 0."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _u_origin(a: float) -> tuple[float, float]:
    """U(a,0) and U'(a,0)."""
    u0 = _SQRT_PI * gamma_rec(0.75 + 0.5 * a) / 2.0 ** (0.5 * a + 0.25)
    u0p = -_SQRT_PI * gamma_rec(0.25 + 0.5 * a) / 2.0 ** (0.5 * a - 0.25)
    return u0, u0p


def _v_origin(a: float) -> tuple[float, float]:
    """V(a,0) and V'(a,0)."""
    v0 = math.pi * 2.0 ** (0.5 * a + 0.25) * gamma_rec(0.75 - 0.5 * a) ** 2 * gamma_rec(0.25 + 0.5 * a)
    v0p = math.pi * 2.0 ** (0.5 * a + 0.75) * gamma_rec(0.25 - 0.5 * a) ** 2 * gamma_rec(0.75 + 0.5 * a)
    return v0, v0p


def _brackets(a: float, z: float, tol: float = _SERIES_TOL, max_terms: int = _MAX_SERIES_TERMS):
    """Bracket sums b1, b2 of the u1/u2 power series (without exp(-z^2/4)).

    u1 = exp(-z^2/4) * b1,  u2 = exp(-z^2/4) * b2.
    """
    zz = z * z
    b1 = 1.0
    b2 = z
    t1 = 1.0
    t2 = z
    for p in range(1, max_terms):
        t1 *= (a - 1.5 + 2 * p) * zz / ((2 * p - 1) * (2 * p))
        t2 *= (a - 0.5 + 2 * p) * zz / ((2 * p) * (2 * p + 1))
        b1 += t1
        b2 += t2
        if abs(t1) + abs(t2) <= tol * (abs(b1) + abs(b2)):
            return b1, b2
    raise AccuracyError(
        f"u1/u2 series did not converge in {max_terms} terms at a={a}, z={z}",
        partial=(b1, b2),
    )


def _series_uv_mp(a: float, z: float, dps: int) -> tuple[float, float]:
    """Same series as the float path, summed with mpmath working precision."""
    with mp.workdps(dps):
        am = mp.mpf(a)
        zm = mp.mpf(z)
        zz = zm * zm
        b1 = mp.mpf(1)
        b2 = zm
        t1 = mp.mpf(1)
        t2 = zm
        for p in range(1, 4 * _MAX_SERIES_TERMS):
            t1 *= (am - mp.mpf(3) / 2 + 2 * p) * zz / ((2 * p - 1) * (2 * p))
            t2 *= (am - mp.mpf(1) / 2 + 2 * p) * zz / ((2 * p) * (2 * p + 1))
            b1 += t1
            b2 += t2
            if abs(t1) + abs(t2) < mp.mpf(10) ** (-dps) * (abs(b1) + abs(b2)):
                break
        e = mp.exp(-zz / 4)
        u0 = mp.sqrt(mp.pi) * mp.rgamma(mp.mpf(3) / 4 + am / 2) / mp.mpf(2) ** (am / 2 + mp.mpf(1) / 4)
        u0p = -mp.sqrt(mp.pi) * mp.rgamma(mp.mpf(1) / 4 + am / 2) / mp.mpf(2) ** (am / 2 - mp.mpf(1) / 4)
        v0 = mp.pi * mp.mpf(2) ** (am / 2 + mp.mpf(1) / 4) * mp.rgamma(mp.mpf(3) / 4 - am / 2) ** 2 * mp.rgamma(mp.mpf(1) / 4 + am / 2)
        v0p = mp.pi * mp.mpf(2) ** (am / 2 + mp.mpf(3) / 4) * mp.rgamma(mp.mpf(1) / 4 - am / 2) ** 2 * mp.rgamma(mp.mpf(3) / 4 + am / 2)
        u = e * (u0 * b1 + u0p * b2)
        v = e * (v0 * b1 + v0p * b2)
        return float(u), float(v)


def _series_uv(a: float, z: float) -> tuple[float, float]:
    """U and V by the origin series, repaired in extended precision when the
    recessive-direction cancellation eats the float64 budget."""
    b1, b2 = _brackets(a, z)
    e = math.exp(-0.25 * z * z)
    u0, u0p = _u_origin(a)
    v0, v0p = _v_origin(a)
    u = e * (u0 * b1 + u0p * b2)
    v = e * (v0 * b1 + v0p * b2)
    gross_u = e * (abs(u0 * b1) + abs(u0p * b2))
    gross_v = e * (abs(v0 * b1) + abs(v0p * b2))
    if abs(u) < _CANCEL_GUARD * gross_u or abs(v) < _CANCEL_GUARD * gross_v:
        worst = max(gross_u / max(abs(u), 5e-324), gross_v / max(abs(v), 5e-324))
        dps = 25 + int(math.log10(worst))
        return _series_uv_mp(a, z, min(dps, 200))
    return u, v


def _asym_tail_u(a: float, z: float, tol: float = 1e-17):
    """Adaptively summed bracket of the U expansion: U ~ e^{-z^2/4} z^{-a-1/2} * sum."""
    izz = 1.0 / (z * z)
    s = 1.0
    t = 1.0
    for k in range(1, _MAX_ASYM_TERMS):
        t_next = -t * (a + 2 * k - 1.5) * (a + 2 * k - 0.5) / (2 * k) * izz
        if abs(t_next) >= abs(t) or abs(t_next) <= tol * abs(s):
            if abs(t_next) < abs(t):
                s += t_next
            break
        s += t_next
        t = t_next
    return s


def _asym_tail_v(a: float, z: float, tol: float = 1e-17):
    """Adaptively summed bracket of the V expansion: V ~ sqrt(2/pi) e^{z^2/4} z^{a-1/2} * sum."""
    izz = 1.0 / (z * z)
    s = 1.0
    t = 1.0
    for k in range(1, _MAX_ASYM_TERMS):
        t_next = t * (a - 2 * k + 1.5) * (a - 2 * k + 0.5) / (2 * k) * izz
        if abs(t_next) >= abs(t) or abs(t_next) <= tol * abs(s):
            if abs(t_next) < abs(t):
                s += t_next
            break
        s += t_next
        t = t_next
    return s


def _u_asym(a: float, z: float) -> float:
    """U(a,z) for z >= switch radius."""
    return math.exp(-0.25 * z * z) * z ** (-a - 0.5) * _asym_tail_u(a, z)


def _v_asym(a: float, z: float) -> float:
    """V(a,z) for z >= switch radius."""
    return math.sqrt(2.0 / math.pi) * math.exp(0.25 * z * z) * z ** (a - 0.5) * _asym_tail_v(a, z)


def _check_finite(*vals: float):
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"non-finite argument: {v!r}")


def pcf_u(a: float, z: float, switch_radius: float = DEFAULT_SWITCH_RADIUS) -> float:
    """Parabolic cylinder function U(a, z)."""
    _check_finite(a, z)
    if abs(z) < switch_radius:
        return _series_uv(a, z)[0]
    if z > 0:
        return _u_asym(a, z)
    # reflection: U(a,-w) = -sin(pi a) U(a,w) + pi/Gamma(1/2+a) V(a,w)
    w = -z
    return -math.sin(math.pi * a) * _u_asym(a, w) + math.pi * gamma_rec(0.5 + a) * _v_asym(a, w)


def pcf_v(a: float, z: float, switch_radius: float = DEFAULT_SWITCH_RADIUS) -> float:
    """Parabolic cylinder function V(a, z)."""
    _check_finite(a, z)
    if abs(z) < switch_radius:
        return _series_uv(a, z)[1]
    if z > 0:
        return _v_asym(a, z)
    # V(a,-w) = cos(pi a)/Gamma(1/2-a) U(a,w) + sin(pi a) V(a,w)
    w = -z
    return math.cos(math.pi * a) * gamma_rec(0.5 - a) * _u_asym(a, w) + math.sin(math.pi * a) * _v_asym(a, w)


def pcf_d(nu: float, z: float, switch_radius: float = DEFAULT_SWITCH_RADIUS) -> float:
    """Whittaker parabolic cylinder function D_nu(z) = U(-1/2 - nu, z)."""
    _check_finite(nu, z)
    return pcf_u(-0.5 - nu, z, switch_radius)


def _combo_brackets_many(a: float, w: np.ndarray, tol: float = _SERIES_TOL,
                         max_terms: int = _MAX_SERIES_TERMS):
    """Vectorized b1(a,w), b2(a,w) for w >= 0."""
    ww = w * w
    b1 = np.ones_like(w)
    t1 = np.ones_like(w)
    b2 = w.copy()
    t2 = w.copy()
    for p in range(1, max_terms):
        t1 = t1 * ((a - 1.5 + 2 * p) / ((2 * p - 1) * (2 * p))) * ww
        t2 = t2 * ((a - 0.5 + 2 * p) / ((2 * p) * (2 * p + 1))) * ww
        b1 += t1
        b2 += t2
        if np.all(np.abs(t1) + np.abs(t2) <= tol * (np.abs(b1) + np.abs(b2))):
            return b1, b2
    raise AccuracyError(
        f"combo series did not converge in {max_terms} terms (a={a}, max w={w.max()})",
        partial=(b1, b2),
    )


def _combo_asym_tails(a: float, w: np.ndarray, tol: float = 1e-17,
                      max_terms: int = _MAX_ASYM_TERMS):
    """Vectorized asymptotic bracket sums P_U, P_V, frozen per element at the
    smallest term."""
    izz = 1.0 / (w * w)
    pu = np.ones_like(w)
    tu = np.ones_like(w)
    pv = np.ones_like(w)
    tv = np.ones_like(w)
    done_u = np.zeros(w.shape, dtype=bool)
    done_v = np.zeros(w.shape, dtype=bool)
    for k in range(1, max_terms):
        tu_next = -tu * ((a + 2 * k - 1.5) * (a + 2 * k - 0.5) / (2 * k)) * izz
        tv_next = tv * ((a - 2 * k + 1.5) * (a - 2 * k + 0.5) / (2 * k)) * izz
        done_u |= np.abs(tu_next) >= np.abs(tu)
        done_v |= np.abs(tv_next) >= np.abs(tv)
        pu += np.where(done_u, 0.0, tu_next)
        pv += np.where(done_v, 0.0, tv_next)
        done_u |= np.abs(tu_next) <= tol * np.abs(pu)
        done_v |= np.abs(tv_next) <= tol * np.abs(pv)
        if done_u.all() and done_v.all():
            break
        tu = np.where(done_u, tu, tu_next)
        tv = np.where(done_v, tv, tv_next)
    return pu, pv


def _combo_eval(nu: float, z, odd: bool, switch_radius: float):
    """Shared S/T evaluation.  ``odd`` selects T (odd) over S (even)."""
    z_arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("non-finite argument in combo evaluation")
    sign = np.sign(z_arr) if odd else np.ones_like(z_arr)
    az = np.abs(z_arr)
    w = _SQRT2 * az
    a = 0.5 - nu

    out = np.empty_like(az)
    series = w < switch_radius
    if series.any():
        ws = w[series]
        b1, b2 = _combo_brackets_many(a, ws)
        damp = np.exp(-az[series] ** 2)
        if odd:
            u0p = _u_origin(a)[1]
            out[series] = -2.0 * u0p * damp * b2
        else:
            u0 = _u_origin(a)[0]
            out[series] = 2.0 * u0 * damp * b1
    large = ~series
    if large.any():
        wl = w[large]
        pu, pv = _combo_asym_tails(a, wl)
        # exp(-z^2/2) U(a,w) = exp(-z^2)   w^{-a-1/2} P_U
        # exp(-z^2/2) V(a,w) = sqrt(2/pi)  w^{a-1/2}  P_V
        u_part = np.exp(-az[large] ** 2) * wl ** (-a - 0.5) * pu
        v_part = math.sqrt(2.0 / math.pi) * wl ** (a - 0.5) * pv
        h = math.pi * gamma_rec(0.5 + a)
        if odd:
            g = -(1.0 + math.sin(math.pi * a))
        else:
            g = 1.0 - math.sin(math.pi * a)
        out[large] = g * u_part + h * v_part
    out = out * sign
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(out)
    return out


def s_combo(nu: float, z, switch_radius: float = DEFAULT_SWITCH_RADIUS):
    """S^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) + D_{nu-1}(sqrt2 z)).

    Even in z.  Accepts scalars or arrays.
    """
    return _combo_eval(nu, z, odd=False, switch_radius=switch_radius)


def t_combo(nu: float, z, switch_radius: float = DEFAULT_SWITCH_RADIUS):
    """T^nu(z) = exp(-z^2/2) (D_{nu-1}(-sqrt2 z) - D_{nu-1}(sqrt2 z)).

    Odd in z.  Accepts scalars or arrays.
    """
    return _combo_eval(nu, z, odd=True, switch_radius=switch_radius)
