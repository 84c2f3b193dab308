import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from fracdiff import kernels
from fracdiff.errors import DomainError
from fracdiff.greens import _BLOCK, FractionalOrder, reduced_green
from fracdiff.kernels import (ODD_KINDS, KernelKind, eta1, kernel_f, kernel_gd,
                              kernel_k, kernel_kappa, scaled)

from oracles import c_beta, central_first, central_second, eta, riesz_quad, utilde_quad

EVEN_KINDS = [kind for kind in KernelKind if kind not in ODD_KINDS]


def test_c_beta_closed_form():
    # the oracles' tail constant, which test_kappa_tail holds kappa to
    assert c_beta(0.5) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)


def test_c_beta_gamma_oracle():
    with mp.workdps(40):
        ref = float(1 / (2 * mp.gamma(1 - mp.mpf("0.3")) * mp.sinpi(mp.mpf("0.3") / 2)))
    assert c_beta(0.3) == pytest.approx(ref, rel=1e-12)


def test_mollifier_values():
    assert eta(0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    assert eta1(0.0) == 0.0
    assert eta1(0.7) == -eta1(-0.7)
    # eta1 = eta'
    assert eta1(0.7) == pytest.approx(central_first(eta, 0.7, 1e-6), rel=1e-6)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_kernel_parity(beta):
    # the parity the FFT operators embed: ODD_KINDS odd, every other kind even
    assert ODD_KINDS == {KernelKind.ETA1, KernelKind.F}
    order = FractionalOrder.from_beta(beta)
    r = np.array([0.2, 0.9, 2.7, 6.0, 15.0])
    for kind in EVEN_KINDS:
        assert np.allclose(scaled(kind, r, order, 1.0), scaled(kind, -r, order, 1.0),
                           rtol=0, atol=0)
    for kind in ODD_KINDS:
        assert np.allclose(scaled(kind, r, order, 1.0), -scaled(kind, -r, order, 1.0),
                           rtol=0, atol=0)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_scaled_arrays_in_arrays_out(kind):
    # an array gives an array of its shape; a scalar a numpy float64 (a float)
    # equal to the matching element
    order = FractionalOrder(1.5)
    r = np.array([[0.0, 0.4], [1.3, 7.0]])
    out = scaled(kind, r, order, 0.8)
    assert isinstance(out, np.ndarray) and out.shape == r.shape
    one = scaled(kind, 1.3, order, 0.8)
    assert type(one) is np.float64 and isinstance(one, float)
    assert one == out[1, 0]


# every kernel table, and L0 itself, as a function of a 1-D array
_ORDER = FractionalOrder.from_beta(0.3)
BLOCKED = {**{kind.value: functools.partial(scaled, kind, order=_ORDER, eps=0.7)
              for kind in KernelKind},
           "reduced_green": functools.partial(reduced_green, _ORDER)}


@pytest.mark.parametrize("length", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
@pytest.mark.parametrize("name", BLOCKED)
def test_blocked_evaluation_equals_its_pieces(name, length):
    # a table is evaluated in blocks of _BLOCK points; evaluated in one call it
    # equals, bit for bit, its pieces evaluated apart, cut across the block
    # ends, with every branch (the Kummer series and its asymptotic sum past
    # |r/eps| = 8, L0's Chebyshev fit and its asymptotic sum past 12) in
    # each block
    table = BLOCKED[name]
    r = np.random.default_rng(length).uniform(-30.0, 30.0, length)
    r[::97] = 0.0
    whole = table(r)
    cuts = sorted({0, 1, 100, _BLOCK - 2, _BLOCK + 3, 2 * _BLOCK - 1, length}
                  & set(range(length + 1)))
    pieces = np.concatenate([table(r[a:b]) for a, b in zip(cuts, cuts[1:])])
    assert whole.shape == (length,)
    assert np.array_equal(whole.view(np.uint64), pieces.view(np.uint64))
    for i in (0, min(length, _BLOCK) - 1, length - 1):
        assert table(r[i]) == whole[i]


@pytest.mark.parametrize("name", [name for name in BLOCKED if name != "eta1"])
def test_blocked_evaluation_rejects_a_late_nonfinite_entry(name):
    # eta1 has no domain check: -2 r exp(-r^2) of an inf is a NaN
    r = np.linspace(0.0, 30.0, 3 * _BLOCK + 7)
    for bad in (math.nan, math.inf, -math.inf):
        r[-2] = bad
        with pytest.raises(DomainError, match="non-finite"):
            BLOCKED[name](r)


def test_k_f_identity():
    # K(r) r + F(r) = 0
    order = FractionalOrder(1.5)
    for r in np.geomspace(1e-3, 20.0, 40):
        assert abs(kernel_k(order, r) * r + kernel_f(order, r)) <= 1e-12 * max(1.0, abs(kernel_f(order, r)))


def test_k_limit_matches_kappa_second_derivative():
    # K(0) = -kappa''(0), by central difference at h = 1e-4
    order = FractionalOrder(1.5)
    fd = -central_second(lambda r: kernel_kappa(order.beta, r), 0.0, 1e-4)
    assert kernel_k(order, 0.0) == pytest.approx(fd, rel=1e-6)


@pytest.mark.parametrize("beta", [0.01, 0.5, 0.99, 0.999, 0.99999])
def test_k_matches_mpmath_flux_over_r(beta):
    # K = -F/r, with F from its parabolic-cylinder definition at 40 digits,
    # down to r = 1e-8 (inside the old limit switch at 1e-6); K(0) is the limit
    order = FractionalOrder.from_beta(beta)
    with mp.workdps(40):
        a, b = mp.mpf(order.alpha), mp.mpf(beta)
        pref = mp.mpf(2) ** ((b - 2) / 2) / (mp.sqrt(mp.pi) * mp.sin(b * mp.pi / 2))

        def k_ref(r):
            w = mp.sqrt(2) * mp.mpf(r)
            t = mp.exp(-w * w / 4) * (mp.pcfd(a - 1, -w) - mp.pcfd(a - 1, w))
            return float(-pref * t / mp.mpf(r))

        k0 = float(-mp.mpf(2) ** a * mp.rgamma((1 - a) / 2) / mp.sin(b * mp.pi / 2))
        r = np.array([1e-8, 1e-6, 1e-3, 0.3, 1.0, 2.5, 4.0, 6.4, 9.0])
        ref = np.array([k_ref(ri) for ri in r])
    assert kernel_k(order, 0.0) == pytest.approx(k0, rel=1e-15)
    # abs=0: approx's default absolute 1e-12 would pass any error in the tail
    assert np.asarray(kernel_k(order, r)) == pytest.approx(ref, rel=5e-14, abs=0)


def test_k_rejects_nonfinite():
    with pytest.raises(DomainError):
        kernel_k(FractionalOrder(1.5), np.array([0.5, math.nan]))


def test_k_positive():
    order = FractionalOrder(1.5)
    r = np.geomspace(1e-4, 30.0, 50)
    assert np.all(np.asarray(kernel_k(order, r)) > 0.0)


def test_f_odd_and_zero_at_origin():
    order = FractionalOrder(1.5)
    assert kernel_f(order, 0.0) == 0.0
    assert kernel_f(order, -0.5) == -kernel_f(order, 0.5)
    # negative for r > 0 (flux points down-gradient)
    assert kernel_f(order, 1.0) < 0.0


def test_kappa_tail():
    beta = 0.5
    assert kernel_kappa(beta, 100.0) * 100.0 ** beta == pytest.approx(c_beta(beta), rel=2e-2)


def test_kappa_quadrature_oracle():
    # kappa^beta(r) = c_beta int eta(t) |r-t|^-beta dt
    ref = utilde_quad(eta, 0.9, 0.5)
    assert kernel_kappa(0.5, 0.9) == pytest.approx(ref, rel=1e-7)


def test_gd_riesz_oracle():
    # G^d(r) equals the Riesz derivative of the mollifier
    order = FractionalOrder(1.5)
    ref = riesz_quad(eta, 1.2, order.alpha)
    assert kernel_gd(order, 1.2) == pytest.approx(ref, rel=1e-7)


def test_gd_convolution_second_derivative_oracle():
    # G^d(r) = d^2/dr^2 [c_beta int eta(t)|r-t|^-beta dt]
    order = FractionalOrder(1.5)
    ref = central_second(lambda x: utilde_quad(eta, x, order.beta), 1.2, 1e-3)
    assert kernel_gd(order, 1.2) == pytest.approx(ref, rel=1e-5)


def test_f_is_derivative_of_kappa():
    order = FractionalOrder(1.5)
    fd = central_first(lambda r: kernel_kappa(order.beta, r), 1.1, 1e-6)
    assert kernel_f(order, 1.1) == pytest.approx(fd, rel=1e-7)


def test_kernel_e_delegates(monkeypatch):
    # E is L0 itself, looked up in kernels at each call: a wrapper patched
    # over kernels.reduced_green (as a tracer does) sees every E table
    order = FractionalOrder(1.5)
    r = np.array([0.0, 0.5, 3.0, 20.0])
    assert np.array_equal(scaled(KernelKind.E, r, order, 1.0), reduced_green(order, r))
    seen = []
    monkeypatch.setattr(kernels, "reduced_green", lambda a, x: seen.append(x) or 0.0 * x)
    assert np.array_equal(scaled(KernelKind.E, r, order, 2.0), np.zeros(4))
    assert len(seen) == 1 and np.array_equal(seen[0], r / 2.0)


def test_kernel_e_discrete_mass():
    # sum_j V_j E_eps(x_j) ~ 1 on a wide fine grid
    order = FractionalOrder(1.5)
    h, half = 0.05, 4000.0
    x = np.arange(-half, half + h / 2, h)
    vals = scaled(KernelKind.E, x, order, 2.0)
    assert h * vals.sum() == pytest.approx(1.0, abs=1e-4)


def test_scaled_identity_and_mass():
    # E has unit mass, as the mollifier does, and scaling keeps it
    order = FractionalOrder(1.5)
    assert scaled(KernelKind.E, 0.3, order, 1.0) == reduced_green(order, 0.3)
    for eps in (0.5, 2.0):
        m, _ = quad(lambda r: scaled(KernelKind.E, r, order, eps), -math.inf, math.inf)
        assert m == pytest.approx(1.0, abs=1e-10)
    assert scaled(KernelKind.E, 0.0, order, 0.25) == pytest.approx(
        reduced_green(order, 0.0) / 0.25, rel=1e-15)


def test_scaled_epsilon_validation():
    for eps in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="epsilon"):
            scaled(KernelKind.E, np.array([0.5]), FractionalOrder(1.5), eps)


def test_kpse_constant_is_alpha():
    """The exchange template with c = alpha converges to the Riesz derivative.

    I(eps) = (alpha/eps^alpha) int (f(y) - f(x)) K_eps(x-y) dy -> D^alpha f(x).
    """
    order = FractionalOrder(1.5)
    f = eta
    x0 = 0.3
    ref = riesz_quad(f, x0, order.alpha)

    def exchange(eps):
        def integrand(y):
            return (f(y) - f(x0)) * scaled(KernelKind.K, x0 - y, order, eps)

        val = 0.0
        for a, b in ((-math.inf, x0 - 1.0), (x0 - 1.0, x0 + 1.0), (x0 + 1.0, math.inf)):
            v, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-10, limit=300)
            val += v
        return order.alpha / eps ** order.alpha * val

    errs = [abs(exchange(eps) / ref - 1.0) for eps in (0.2, 0.1)]
    assert errs[1] < errs[0]  # refining eps improves the limit
    assert errs[1] < 5e-3
