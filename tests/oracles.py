"""Independent quadrature/finite-difference oracles used across the tests.

These deliberately avoid the library's own evaluation paths: parabolic
cylinder values come from the Gaussian-power integral

    int_0^inf x^(th-1) exp(-b x^2 - m x) dx
        = (2b)^(-th/2) Gamma(th) exp(m^2/(8b)) D_{-th}(m / sqrt(2b)),

the fractional derivative from the regularized difference quotient

    D^alpha f(x) = Gamma(1+alpha)/pi sin(alpha pi/2)
                   int_0^inf (f(x+s) - 2 f(x) + f(x-s)) / s^(1+alpha) ds,

the smoothed potential from its defining convolution, and the
characteristic width R_alpha both from the characteristic function alone,

    R_alpha = (2/pi) int_0^inf (1 - exp(-k^alpha)) k^-2 dk,

and by integrating x L0(x) with the series on [0, M] and the asymptotic
expansion on [M, inf) (H1 and H2), summed in mpmath precision.  L0 itself
comes from its convergent power series

    L0(x) = (1/pi) sum_k (-1)^k Gamma(1+(2k+1)/alpha) x^{2k} / (2k+1)!,

summed in mpmath precision, which absorbs the alternating-series
cancellation while the series converges, and from its Fourier integral, by
adaptive quadrature (l0_fourier_quad), independent of the library's tanh-sinh
rule, and in mpmath precision on a ray of the complex k plane, where it
neither oscillates nor cancels (l0_contour_mp).

The dense operator matrix (assemble_matrix) sums the kernels pair by pair
instead of by the FFT Toeplitz product, DD's stability constant on the
infinite lattice (dd_lattice_constant) comes from the closed-form Fourier
transform of its kernel alone, and the field evaluations (eval_u,
eval_utilde, eval_flux) sum the kernels at an arbitrary point x on raw arrays of
particle positions and weights, so a single particle is as easy to pose as a
grid.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from fracdiff import kernels
from fracdiff.errors import AccuracyError, ConfigError, DomainError
from fracdiff.greens import _as_order, green_function
from fracdiff.kernels import KernelKind
from fracdiff.schemes import SchemeKind


def pcf_d(nu: float, z: float) -> float:
    """Whittaker parabolic cylinder function D_nu(z), by mpmath.pcfd."""
    return float(mp.pcfd(nu, z))


def pcf_d_quad(nu: float, z: float) -> float:
    """D_nu(z) from the integral formula; nu >= 0 is reached by the standard
    recurrence D_{nu+1} = z D_nu - nu D_{nu-1} from two negative orders."""
    if nu < 0.0:
        th = -nu
        # x = s^(1/th) removes the x^(th-1) endpoint singularity
        def integrand(s):
            x = s ** (1.0 / th)
            return math.exp(-0.5 * x * x - z * x) / th

        val, _ = quad(integrand, 0.0, math.inf, epsabs=1e-300, epsrel=1e-12,
                      limit=400)
        return math.exp(-0.25 * z * z) / math.gamma(th) * val
    if nu < 1.0:
        return z * pcf_d_quad(nu - 1.0, z) - (nu - 1.0) * pcf_d_quad(nu - 2.0, z)
    return z * pcf_d_quad(nu - 1.0, z) - (nu - 1.0) * pcf_d_quad(nu - 2.0, z)


def riesz_quad(f, x: float, alpha: float) -> float:
    """Riesz fractional derivative of a smooth f by adaptive quadrature.

    The difference quotient under the integral is cancellation-noisy for
    s below ~1e-2, so that part is integrated analytically from the Taylor
    expansion (f'' and f'''' by high-order central stencils); beyond s = 100
    only the -2 f(x) term of a localized f survives, with an algebraic tail
    in closed form.
    """
    pref = math.gamma(1.0 + alpha) / math.pi * math.sin(alpha * math.pi / 2.0)

    def integrand(s):
        return (f(x + s) - 2.0 * f(x) + f(x - s)) / s ** (1.0 + alpha)

    s0 = 1e-2
    h = 1e-2
    f2 = (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
          + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)
    h4 = 2e-2
    f4 = (f(x + 2 * h4) - 4 * f(x + h4) + 6 * f(x)
          - 4 * f(x - h4) + f(x - 2 * h4)) / h4 ** 4
    val = (f2 * s0 ** (2.0 - alpha) / (2.0 - alpha)
           + f4 / 12.0 * s0 ** (4.0 - alpha) / (4.0 - alpha))
    for a, b in ((s0, 1.0), (1.0, 10.0), (10.0, 100.0)):
        v, _ = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-10, limit=400)
        val += v
    val += -2.0 * f(x) * 100.0 ** -alpha / alpha
    return pref * val


def eta(r):
    """The squared-exponential mollifier exp(-r^2)/sqrt(pi), of unit mass."""
    r = np.asarray(r, dtype=float)
    return np.exp(-r * r) / math.sqrt(math.pi)


def c_beta(beta: float) -> float:
    """kappa's tail constant 1/(2 Gamma(1-beta) sin(beta pi/2)): kappa^beta(r)
    ~ c_beta r^-beta."""
    return 1.0 / (2.0 * math.gamma(1.0 - beta) * math.sin(beta * math.pi / 2.0))


def utilde_quad(u, x: float, beta: float) -> float:
    """c_beta * int u(xi) |x - xi|^-beta dxi with the singularity substituted away.

    With s = t^(1/(1-beta)), int_0^inf u(x +- s) s^-beta ds
    = 1/(1-beta) int_0^inf u(x +- t^(1/(1-beta))) dt.
    """
    p = 1.0 / (1.0 - beta)

    def one_side(sign):
        def integrand(t):
            return u(x + sign * t ** p)

        val = 0.0
        for a, b in ((0.0, 1.0), (1.0, 50.0), (50.0, math.inf)):
            v, _ = quad(integrand, a, b, epsabs=1e-300, epsrel=1e-11, limit=400)
            val += v
        return val * p

    return c_beta(beta) * (one_side(+1.0) + one_side(-1.0))


def central_second(f, x: float, h: float) -> float:
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def central_first(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def r_alpha_quad(alpha: float) -> float:
    """R_alpha from the characteristic function exp(-|k|^alpha).

    E|X| = (2/pi) int_0^inf (1 - exp(-k^alpha)) k^-2 dk, integrated in the
    log variable k = e^s, where the integrand decays like e^((alpha-1) s) to
    the left and like e^-s to the right.
    """

    def integrand(s):
        if s > 0.0:
            return -math.expm1(-math.exp(min(alpha * s, 700.0))) * math.exp(-s)
        u = math.exp(alpha * s)  # (1 - e^-u)/u -> 1 as u -> 0
        ratio = 1.0 if u == 0.0 else -math.expm1(-u) / u
        return ratio * math.exp((alpha - 1.0) * s)

    val = 0.0
    for a, b in ((-math.inf, 0.0), (0.0, math.inf)):
        v, _ = quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=400)
        val += v
    return 2.0 / math.pi * val


# ---------------------------------------------------------------------------
# R_alpha by the split series: 2 (H1 + H2) at a split point M


def _h1_peak(alpha: float, M: float) -> float:
    c = M * M * (2.0 / alpha) ** (2.0 / alpha) / 4.0
    if c <= 1.0:
        return 1.0
    return c ** (1.0 / (2.0 - 2.0 / alpha))


def _h1_log_tmax(alpha: float, M: float) -> float:
    """log of the largest H1 series term relative to the first (integral estimate)."""
    kstar = _h1_peak(alpha, M)
    if kstar <= 1.0:
        return 0.0
    c = M * M * (2.0 / alpha) ** (2.0 / alpha) / 4.0
    p = 2.0 - 2.0 / alpha
    # integral of log(c * k^-p) dk from 0 to kstar
    return kstar * math.log(c) - p * kstar * (math.log(kstar) - 1.0)


_H1_PEAK_BUDGET = 900.0


def _default_split(alpha: float) -> float:
    """Default split point, balancing the two failure modes.

    H2's optimal truncation error improves with M (it is a series in M^-alpha)
    and degrades sharply as alpha -> 2, so the target grows from 5 to 8 over
    alpha in (1.65, 1.9); H1's term peak explodes with M as alpha -> 1, which
    caps M near 2 at the small-alpha end.
    """
    m_h2 = max(5.0, 5.0 + 12.0 * (alpha - 1.65))
    m_cap = 2.0 * _H1_PEAK_BUDGET ** (1.0 - 1.0 / alpha) * (alpha / 2.0) ** (1.0 / alpha)
    return min(m_h2, m_cap)


def _r_alpha_at(alpha: float, M: float, gamma_h1, gamma_h2) -> mp.mpf:
    """2*(H1 + H2) at a given split point, in the ambient mpmath precision."""
    Mm = mp.mpf(M)
    # H1 = (M/pi) sum_k (-1)^k Gamma(1+(2k+1)/alpha) M^(2k+1) / (2k+2)!
    h1 = mp.mpf(0)
    term_cap = int(4 * _h1_peak(alpha, M)) + 300
    magpeak = mp.mpf(0)
    converged = False
    mpow = Mm  # M^(2k+1)
    fact = mp.mpf(2)  # (2k+2)!
    for k in range(term_cap):
        t = gamma_h1(k) * mpow / fact
        if k % 2:
            t = -t
        h1 += t
        magpeak = max(magpeak, abs(t))
        if abs(t) < mp.mpf("1e-30") * abs(h1) and k > 4:
            converged = True
            break
        mpow *= Mm * Mm
        fact *= (2 * k + 3) * (2 * k + 4)
    if not converged:
        raise AccuracyError(f"H1 series did not converge (alpha={alpha}, M={M})")
    h1 *= Mm / mp.pi
    # H2 = (M/pi) sum_n (-1)^n Gamma(1+alpha n) sin(pi alpha n/2) M^(-n alpha) / (n! (1-alpha n))
    # the sin factor passes through near-zeros, so growth detection and the
    # stopping rule work on the sin-free envelope
    h2 = mp.mpf(0)
    prev_env = mp.inf
    mpow = Mm ** (-alpha)
    fact = mp.mpf(1)
    for n in range(1, 2000):
        base = gamma_h2(n) * mpow / (fact * (1 - mp.mpf(alpha) * n))
        if n % 2:
            base = -base
        env = abs(base)
        if env > prev_env:
            break
        h2 += base * mp.sinpi(mp.mpf(alpha) * n / 2)
        if env < mp.mpf("1e-30") * abs(h2):
            break
        prev_env = env
        mpow *= Mm ** (-alpha)
        fact *= n + 1
    h2 *= Mm / mp.pi
    return 2 * (h1 + h2)


def r_alpha_split_series(alpha, split_point: float | None = None) -> float:
    """First absolute moment R_alpha of L0_alpha by the mpmath split series.

    Computed as 2*(H1 + H2) from the series/asymptotic split at M, and
    cross-checked at a second split point; disagreement beyond 1e-4 raises
    AccuracyError.
    """
    order = _as_order(alpha)
    a = order.alpha
    M = split_point if split_point is not None else _default_split(a)
    if not (M > 0):
        raise DomainError("split_point must be positive")
    # second split point for the stability check: 1.25*M when its series
    # stays within budget, otherwise M/1.25
    if _h1_peak(a, 1.25 * M) <= _H1_PEAK_BUDGET:
        M2 = 1.25 * M
    else:
        M2 = M / 1.25
    ltm = max(_h1_log_tmax(a, M), _h1_log_tmax(a, M2))
    dps = 30 + max(0, int(ltm / math.log(10.0)))
    with mp.workdps(dps):
        am = mp.mpf(a)

        @functools.lru_cache(maxsize=None)
        def gamma_h1(k: int):
            return mp.gamma(1 + mp.mpf(2 * k + 1) / am)

        @functools.lru_cache(maxsize=None)
        def gamma_h2(n: int):
            return mp.gamma(1 + am * n)

        r1 = _r_alpha_at(a, M, gamma_h1, gamma_h2)
        r2 = _r_alpha_at(a, M2, gamma_h1, gamma_h2)
        if abs(r1 - r2) > mp.mpf("1e-4"):
            raise AccuracyError(
                f"R_alpha unstable under split-point change: {r1} vs {r2} "
                f"(alpha={a}, M={M}, M2={M2})",
                partial=float(r1),
            )
        return float(r1)


# ---------------------------------------------------------------------------
# L0 by its power series in extended precision


_MP_GAMMA_CACHE: dict = {}


def l0_series_mp(alpha: float, xs: np.ndarray, term_cap: int) -> np.ndarray:
    """L0 by its power series in 50 digits, for the band where the float
    series cancels; it converges in 4 term_cap terms only up to an alpha-
    dependent x (about 1.4 at alpha = 1.05 for term_cap = 500)."""
    key = round(alpha, 12)
    cache = _MP_GAMMA_CACHE.setdefault(key, {})
    out = np.empty_like(xs)
    with mp.workdps(50):
        am = mp.mpf(alpha)
        for i, xv in enumerate(xs):
            xm = mp.mpf(float(xv))
            xx = xm * xm
            s = mp.mpf(0)
            xpow = mp.mpf(1)
            fact = mp.mpf(1)  # (2k+1)!
            for k in range(4 * term_cap):
                g = cache.get(k)
                if g is None:
                    g = cache[k] = mp.gamma(1 + mp.mpf(2 * k + 1) / am)
                t = g * xpow / fact
                s += -t if (k % 2) else t
                if k > 4 and t < mp.mpf("1e-40") * abs(s):
                    break
                xpow *= xx
                fact *= (2 * k + 2) * (2 * k + 3)
            else:
                raise AccuracyError(f"L0 extended series did not converge (alpha={alpha}, x={xv})")
            out[i] = float(s / mp.pi)
    return out


def l0_mass_series_mp(alpha: float, y: float) -> float:
    """The mass int_{-y}^{y} L0 by the power series integrated term by term,

        (2/pi) sum_k (-1)^k Gamma(1+(2k+1)/alpha) y^{2k+1} / ((2k+1)! (2k+1)),

    in 50 digits, to a term below 1e-40 of the sum (about 600 terms at
    alpha = 1.01 and y = 1)."""
    cache = _MP_GAMMA_CACHE.setdefault(round(alpha, 12), {})
    with mp.workdps(50):
        am, ym = mp.mpf(alpha), mp.mpf(float(y))
        s = mp.mpf(0)
        ypow = ym  # y^(2k+1)
        fact = mp.mpf(1)  # (2k+1)!
        for k in range(4000):
            g = cache.get(k)
            if g is None:
                g = cache[k] = mp.gamma(1 + mp.mpf(2 * k + 1) / am)
            t = g * ypow / (fact * (2 * k + 1))
            s += -t if (k % 2) else t
            if k > 4 and t < mp.mpf("1e-40") * abs(s):
                return float(2 * s / mp.pi)
            ypow *= ym * ym
            fact *= (2 * k + 2) * (2 * k + 3)
    raise AccuracyError(f"L0 mass series did not converge (alpha={alpha}, y={y})")


def l0_contour_mp(alpha: float, x: float) -> float:
    """L0(x) = (1/pi) Re int_0^inf exp(ikx - k^alpha) dk in 30 digits, on the
    ray k = t exp(i theta), theta = pi/(4 alpha) (Cauchy: the integrand is
    analytic in the sector, and it vanishes on its arc since cos(alpha
    theta) > 0).  On the ray |integrand| = exp(-t x sin(theta) -
    t^alpha cos(pi/4)), so the sum neither oscillates through the
    cancellation of the real-axis integral nor decays slowly at small x."""
    with mp.workdps(30):
        a, xm = mp.mpf(alpha), mp.mpf(float(x))
        e1, ea = mp.expj(mp.pi / (4 * a)), mp.expj(mp.pi / 4)
        val = mp.quad(lambda t: mp.exp(1j * t * e1 * xm - t ** a * ea), [0, 1, mp.inf])
        return float(mp.re(e1 * val) / mp.pi)


def l0_fourier_quad(alpha: float, x: float) -> float:
    """L0(x) = (1/pi) int_0^inf cos(kx) exp(-k^alpha) dk by adaptive
    quadrature, cut where exp(-k^alpha) underflows."""
    val, err = quad(lambda k: math.cos(k * x) * math.exp(-k ** alpha),
                    0.0, 745.0 ** (1.0 / alpha), epsabs=1e-14, epsrel=1e-12, limit=200)
    if err > 1e-14 + 1e-12 * abs(val):
        raise AccuracyError(f"L0 Fourier quadrature error estimate {err:.1e} too large "
                            f"(alpha={alpha}, x={x})")
    return val / math.pi


# ---------------------------------------------------------------------------
# the rel_l1 denominator by adaptive quadrature


def exact_mass_quad(field_order, t: float, d_eps: float) -> float:
    """int_{-d_eps}^{d_eps} |G0| dx by adaptive quadrature (G0 > 0)."""
    val, _ = quad(lambda x: green_function(field_order, x, t), 0.0, d_eps,
                  epsabs=1e-12, epsrel=1e-10, limit=200)
    return 2.0 * val


# ---------------------------------------------------------------------------
# the particle field summed pair by pair


MATRIX_SIZE_GUARD = 20000


def _pairwise_matrix(field, kind: KernelKind, eps: float, block: int = 512) -> np.ndarray:
    """Dense kernel matrix M[i, j] = k_eps(x_i - x_j)."""
    x = field.positions
    n = len(x)
    out = np.empty((n, n))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        out[lo:hi] = kernels.scaled(kind, x[lo:hi, None] - x[None, :], field.order, eps)
    return out


def assemble_matrix(field, kind: SchemeKind, size_guard: int = MATRIX_SIZE_GUARD) -> np.ndarray:
    """Dense A with du/dt = A u, for the rate schemes DD, FPSE, KPSE.

    A is symmetric for DD and KPSE (even kernels, uniform volumes).  FPSE's A
    composes two odd-kernel sums truncated at the grid edge and is not
    symmetric: ||A - A^T||_F / ||A||_F = 0.136 at n = 201, D = 10, beta = 0.5,
    overlap 2.  For the conservative schemes FPSE and KPSE the column sums of
    A vanish.
    """
    n = len(field)
    if n > size_guard:
        raise ConfigError(f"n={n} exceeds the matrix size guard {size_guard}")
    v = np.full(n, field.h)
    eps = field.epsilon
    alpha = field.order.alpha
    beta = field.order.beta
    if kind is SchemeKind.DD:
        ker = _pairwise_matrix(field, KernelKind.GD, eps)
        return eps ** (-alpha) * ker * v[None, :]
    if kind is SchemeKind.KPSE:
        ker = _pairwise_matrix(field, KernelKind.K, eps)
        b = (alpha / eps ** alpha) * ker * v[None, :]
        return b - np.diag(b.sum(axis=1))
    if kind is SchemeKind.FPSE:
        e1 = _pairwise_matrix(field, KernelKind.ETA1, eps)
        f = _pairwise_matrix(field, KernelKind.F, eps)
        left = e1 * v[None, :] + np.diag(e1 @ v)
        return eps ** (-1.0 - beta) * left @ (f * v[None, :])
    raise ConfigError(f"assemble_matrix supports rate schemes only, got {kind}")


def dd_lattice_constant(beta: float, r: float) -> float:
    """DD's stability constant on the infinite lattice at overlap r = eps/h,

        a_inf = 2 / max_theta sum_m |theta + 2 pi m|^alpha exp(-r^2 (theta + 2 pi m)^2 / 4),

    the symbol of G^d (Fourier transform -|k|^alpha exp(-k^2 eps^2/4)) sampled
    at spacing h and summed over its aliases by Poisson summation.  A finite
    section's spectrum lies inside the symbol's range, so its a is at or above
    a_inf.
    """
    alpha = 1.0 + beta
    # aliases past |theta + 2 pi m| r/2 = 7 weigh below exp(-49)
    m_max = math.ceil(14.0 / (2.0 * math.pi * r)) + 1
    m = np.arange(-m_max, m_max + 1)

    def symbol(theta):
        k = np.abs(theta + 2.0 * math.pi * m)
        return float(np.sum(k ** alpha * np.exp(-(r * k / 2.0) ** 2)))

    # the symbol is even and 2 pi periodic: a grid on [0, pi] brackets the
    # peak, and a bounded search refines it
    grid = np.linspace(0.0, math.pi, 2049)
    i = int(np.argmax([symbol(t) for t in grid]))
    step = grid[1]
    best = minimize_scalar(lambda t: -symbol(t), method="bounded",
                           bounds=(max(grid[i] - step, 0.0), min(grid[i] + step, math.pi)),
                           options={"xatol": 1e-12})
    return 2.0 / max(float(-best.fun), symbol(grid[i]))


def field_arrays(field) -> tuple:
    """(positions, weights h u_i, order, epsilon) of a field, as the eval_*
    oracles take them."""
    return field.positions, field.h * field.strengths, field.order, field.epsilon


def eval_u(x: float, positions, weights, order, eps: float) -> float:
    """Field value sum_i w_i eta_eps(x - x_i), with weights w_i = V_i u_i."""
    return float(np.dot(weights, eta((x - np.asarray(positions)) / eps) / eps))


def eval_utilde(x: float, positions, weights, order, eps: float) -> float:
    """Smoothed Riemann-Liouville potential

    utilde(x) = eps^{1-beta} sum_i w_i kappa^beta_eps(x - x_i).
    """
    w = kernels.scaled(KernelKind.KAPPA_BETA, x - np.asarray(positions), order, eps)
    return eps ** (1.0 - order.beta) * float(np.dot(weights, w))


def eval_flux(x: float, positions, weights, order, eps: float) -> float:
    """Fractional diffusion flux Q^beta(x) = -eps^{-beta} sum_i w_i F_eps(x - x_i)."""
    w = kernels.scaled(KernelKind.F, x - np.asarray(positions), order, eps)
    return -(eps ** (-order.beta)) * float(np.dot(weights, w))
