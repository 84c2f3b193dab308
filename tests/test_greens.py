import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import levy_stable

from fracdiff import greens
from fracdiff.errors import AccuracyError, DomainError
from fracdiff.greens import (FractionalOrder, characteristic_width,
                             green_function, reduced_green, reduced_green_mass)
from fracdiff.greens import _SPLIT, _l0_asym, _l0_fourier, _l0_model

from oracles import (l0_contour_mp, l0_fourier_quad, l0_mass_series_mp, l0_series_mp,
                     r_alpha_quad, r_alpha_split_series)

R_ALPHA_TABLE = {1.1: 6.688, 1.2: 3.544, 1.3: 2.512, 1.4: 2.005, 1.5: 1.705,
                 1.6: 1.509, 1.7: 1.371, 1.8: 1.269, 1.9: 1.190}

# where the 50-digit power series (l0_series_mp, 2000 terms) is an oracle for
# L0: past x ~ 1.4 at alpha = 1.05 and 1.95 at 1.1 it does not converge, and
# past x ~ 7.6 at alpha = 1.5 its terms cancel more than 30 digits
SERIES_TOP = {1.05: 1.35, 1.1: 1.9, 1.5: 7.5, 1.9: _SPLIT, 1.99: _SPLIT, 1.995: _SPLIT}


def l0_oracle(alpha, x, above):
    """L0 on [0, _SPLIT): the power series below SERIES_TOP[alpha], the
    oracle above(alpha, x) from it on."""
    series = x < SERIES_TOP[alpha]
    out = np.empty_like(x)
    out[series] = l0_series_mp(alpha, x[series], 500)
    out[~series] = [above(alpha, v) for v in x[~series]]
    return out


def test_fractional_order_relations():
    o = FractionalOrder.from_beta(0.5)
    assert o.alpha == 1.5 and o.beta == 0.5 and o.gamma == pytest.approx(2 / 3)
    with pytest.raises(DomainError):
        FractionalOrder(2.0)
    with pytest.raises(DomainError):
        FractionalOrder.from_beta(1.0)


def test_reduced_green_even():
    for x in (0.3, 1.7, 6.0, 40.0):
        assert reduced_green(1.5, x) == reduced_green(1.5, -x)


def test_reduced_green_mass():
    # unit mass: quadrature over [0, X] plus the first-order analytic tail
    alpha = 1.5
    X = 120.0
    core, _ = quad(lambda t: reduced_green(alpha, t), 0.0, X, limit=400)
    c_tail = math.gamma(1 + alpha) * math.sin(alpha * math.pi / 2) / math.pi
    tail = c_tail / alpha * X ** (-alpha)
    assert 2.0 * (core + tail) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("alpha", [1.01, 1.1, 1.5, 1.9, 1.99])
def test_reduced_green_mass_near_zero_matches_series(alpha):
    # the table's antiderivative cancels near y = 0: it was 3e-4 off at
    # y = 1e-12 and exactly 0 from y = 1e-18, so a rel_l1 denominator divided
    # by zero, and still 5e-12 off at y = 1e-4 (alpha = 1.9)
    ys = [1e-300, 1e-18, 1e-12, *np.geomspace(1e-8, 1.0, 25), 0.5, 0.999]
    # abs=0: approx's default absolute 1e-12 would pass any mass below it, 0 too
    for y in ys:
        assert reduced_green_mass(alpha, y) == pytest.approx(
            l0_mass_series_mp(alpha, y), rel=2e-15, abs=0), y


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 1.95, 1.99])
def test_branch_agreement_at_crossover(alpha):
    # the table hands over to the asymptotic sum at x = _SPLIT
    asym = _l0_asym(alpha, np.array([_SPLIT]))[0]
    assert asym == pytest.approx(l0_fourier_quad(alpha, _SPLIT), rel=1e-8)


@pytest.mark.parametrize("alpha", [1.005, 1.1, 1.5, 1.9, 1.995])
def test_fourier_rule_matches_quadrature(alpha):
    x = np.linspace(0.0, 12.0, 97)
    ref = np.array([l0_fourier_quad(alpha, v) for v in x])
    np.testing.assert_allclose(_l0_fourier(alpha, x), ref, rtol=0.0, atol=1e-14)


def test_fourier_rule_reports_unresolved_oscillation():
    # far beyond the split the step no longer resolves cos(kx)
    with pytest.raises(AccuracyError, match="x=100.0"):
        _l0_fourier(1.5, np.array([1.0, 100.0]))


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 1.9, 1.99, 1.995])
def test_table_matches_series(alpha):
    # the table is within 4e-16 absolute: a growing share of L0 as it falls
    # off towards the split.  Above the series' range the oracle is the
    # 30-digit contour integral: adaptive quadrature on the real axis is
    # itself off by up to 3.4e-16 there (alpha = 1.05, x = 3.75)
    x = np.linspace(0.0, _SPLIT, 81)[:-1]
    ref = l0_oracle(alpha, x, l0_contour_mp)
    assert np.all(np.abs(reduced_green(alpha, x) - ref) <= 2e-15 * ref + 2e-16)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.3, 1.5, 1.9, 1.99, 1.995])
def test_table_matches_fourier_quadrature(alpha):
    # the whole table interval, and the two points where the asymptotic sum,
    # when it started at a per-alpha crossover below the split, missed by
    # 6.4e-9 (alpha = 1.1) and 3.7e-10 (alpha = 1.3)
    x = np.concatenate([np.linspace(0.0, _SPLIT, 481), [1.7526, 3.4022]])
    ref = np.array([l0_fourier_quad(alpha, v) for v in x])
    np.testing.assert_allclose(reduced_green(alpha, x), ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("alpha", [1.0 + 1e-9, 1.05, 1.5, 1.99, 2.0 - 1e-9])
def test_table_fit_evaluates_each_node_once(monkeypatch, alpha):
    seen = []

    def counted(a, x):
        seen.extend(x)
        return _l0_fourier(a, x)

    monkeypatch.setattr(greens, "_l0_fourier", counted)
    _l0_model.cache_clear()
    try:
        coef = _l0_model(alpha)[0]
    finally:
        _l0_model.cache_clear()
    # the K + 1 nodes of one Chebyshev grid on [0, _SPLIT], each taken once,
    # at most 257 of them
    k = len(seen) - 1
    assert k in (16, 32, 64, 128, 256) and len(coef) <= k // 2
    nodes = 0.5 * _SPLIT + 0.5 * _SPLIT * np.cos(np.pi * np.arange(k + 1) / k)
    assert sorted(seen) == sorted(nodes)


@pytest.mark.parametrize("alpha",
                         [1.0001, *(round(1.005 + 0.09 * i, 3) for i in range(12)), 1.99999])
def test_table_peak_matches_closed_form(alpha):
    # L0(0) = (1/pi) int_0^inf exp(-k^alpha) dk = Gamma(1 + 1/alpha)/pi
    ref = math.gamma(1.0 + 1.0 / alpha) / math.pi
    assert reduced_green(alpha, 0.0) == pytest.approx(ref, rel=2e-15, abs=0)


def test_table_reports_degree_cap(monkeypatch):
    monkeypatch.setattr(greens, "_TABLE_MAX_DEGREE", 16)
    _l0_model.cache_clear()
    try:
        with pytest.raises(AccuracyError, match=r"alpha=1\.5\b"):
            reduced_green(1.5, 0.3)
    finally:
        _l0_model.cache_clear()


@pytest.mark.parametrize("alpha", [1.01, 1.5, 1.99])
def test_asymptotic_branch_pointwise(alpha):
    # each point stops at its own smallest term: its value must not depend on
    # which points share the array
    rng = np.random.default_rng(3)
    x = np.concatenate([_SPLIT * (1.0 + rng.random(40) ** 3),
                        _SPLIT * np.exp(rng.uniform(0.0, 12.0, 40)), [_SPLIT, 1e8]])
    rng.shuffle(x)
    full = _l0_asym(alpha, x)
    for i in range(x.size):
        assert full[i] == _l0_asym(alpha, x[i:i + 1])[0]


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_reduced_green_positive_decaying(alpha):
    x = np.linspace(0.0, 25.0, 500)
    L = reduced_green(alpha, x)
    assert np.all(L > 0.0)
    assert np.all(np.diff(L) < 0.0)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_reduced_green_tail_constant(alpha):
    c_tail = math.gamma(1 + alpha) * math.sin(alpha * math.pi / 2) / math.pi
    for x in (50.0, 100.0):
        assert reduced_green(alpha, x) * x ** (1 + alpha) == pytest.approx(c_tail, rel=2e-2)


def test_green_function_t1_identity():
    for x in (0.0, 0.7, 3.0):
        assert green_function(1.5, x, 1.0) == reduced_green(1.5, x)


def test_green_function_self_similarity():
    # t^{1/alpha} G(x t^{1/alpha}, t) is independent of t
    order = FractionalOrder(1.5)
    xi = 0.9
    vals = [t ** order.gamma * green_function(order, xi * t ** order.gamma, t)
            for t in (0.25, 1.0, 4.0)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[2] == pytest.approx(vals[1], rel=1e-12)


def test_green_function_tail_formula():
    # two-term tail at alpha=1.5, x=357, t=1.5
    alpha, x, t = 1.5, 357.0, 1.5
    term1 = t * x ** -alpha * math.sin(alpha * math.pi / 2) * math.gamma(1 + alpha)
    term2 = (t ** 2 * x ** (-2 * alpha) * math.sin(alpha * math.pi)
             * math.gamma(1 + 2 * alpha) / 2.0)
    tail = -1.0 / (x * math.pi) * (-term1 + term2)
    assert green_function(alpha, x, t) == pytest.approx(tail, rel=1e-6)


def test_green_function_requires_positive_time():
    with pytest.raises(DomainError):
        green_function(1.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        green_function(1.5, 0.0, -1.0)


def test_characteristic_width_table():
    for alpha, ref in R_ALPHA_TABLE.items():
        assert characteristic_width(alpha) == pytest.approx(ref, abs=1e-3)


def test_characteristic_width_split_insensitive():
    r_default = r_alpha_split_series(1.5)
    r_alt = r_alpha_split_series(1.5, split_point=4.0)
    assert r_alt == pytest.approx(r_default, abs=1e-4)
    assert characteristic_width(1.5) == pytest.approx(r_default, abs=1e-4)


def test_characteristic_width_bad_split():
    with pytest.raises(DomainError):
        r_alpha_split_series(1.5, split_point=-1.0)
    for alpha in (1.0, 2.0):
        with pytest.raises(DomainError):
            characteristic_width(alpha)


@pytest.mark.parametrize("beta", [0.01, 0.05, 0.95, 0.99])
def test_characteristic_width_small_and_large_beta(beta):
    alpha = 1.0 + beta
    assert characteristic_width(alpha) == pytest.approx(r_alpha_quad(alpha), rel=1e-12)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 1.9, 1.99])
def test_reduced_green_matches_series_oracle(alpha):
    # dense grid over the whole table interval [0, _SPLIT)
    x = np.linspace(0.0, _SPLIT, 160, endpoint=False)
    ref = l0_oracle(alpha, x, l0_fourier_quad)
    np.testing.assert_allclose(reduced_green(alpha, x), ref, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("alpha", [1.01, 1.02])
def test_reduced_green_small_beta_matches_levy_stable(alpha):
    # levy_stable itself is ~1e-5 off near x = 0.004 at these alpha
    for x in (0.0, 0.5, 1.0, 1.1):
        assert reduced_green(alpha, x) == pytest.approx(levy_stable.pdf(x, alpha, 0.0),
                                                        rel=1e-12, abs=0)
