import numpy as np
import pytest

from fracdiff.analysis import (conservation_drift, exact_mass, rel_l1_error,
                               self_convergence_order)
from fracdiff.errors import DomainError
from fracdiff.field import init_uniform
from fracdiff.greens import (_SPLIT, FractionalOrder, characteristic_width,
                             green_function)
from fracdiff.schemes import SchemeKind
from fracdiff.timeint import IntegratorSpec, RKOrder, integrate

from oracles import exact_mass_quad

ORDER = FractionalOrder.from_beta(0.5)
R_ALPHA = characteristic_width(ORDER)


def reference_field(n=1001, C=10.0, t=0.5):
    D = C * 1.5 ** ORDER.gamma * R_ALPHA
    return init_uniform(D, n, ORDER, 2.0, lambda x: green_function(ORDER, x, t))


def test_exact_sampling_gives_zero_error():
    f = reference_field(t=1.5)
    assert rel_l1_error(f, 1.5, 5.0 * R_ALPHA) == pytest.approx(0.0, abs=1e-12)


def test_denominator_holds_97_percent():
    # |x| <= 5 R_alpha captures roughly 97% of the unit mass at t_f = 1.5
    mass = exact_mass(ORDER, 1.5, 5.0 * R_ALPHA)
    assert mass == pytest.approx(0.97, abs=0.01)


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("t", [0.51, 1.5])
@pytest.mark.parametrize("y_over_split", [0.5, 0.999, 1.001, 3.0])
def test_exact_mass_matches_quadrature(beta, t, y_over_split):
    # d_eps on both sides of the L0 split, in reduced units y = d t^{-1/alpha}
    order = FractionalOrder.from_beta(beta)
    d_eps = y_over_split * _SPLIT * t ** order.gamma
    assert exact_mass(order, t, d_eps) == pytest.approx(
        exact_mass_quad(order, t, d_eps), rel=1e-9)


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_exact_mass_total_is_one(beta):
    # the table integral and the asymptotic tail must add up to the unit mass
    assert exact_mass(FractionalOrder.from_beta(beta), 1.0, 1e12) == pytest.approx(1.0, abs=1e-9)


def test_exact_mass_rejects_bad_time():
    with pytest.raises(DomainError):
        exact_mass(ORDER, 0.0, 1.0)


def test_rel_l1_scale_awareness():
    # numerator and denominator are both absolutely homogeneous: a field at
    # twice the reference amplitude sits at rel error ~ 1, independent of
    # units of u
    f = reference_field(t=1.5)
    doubled = f.with_strengths(2.0 * f.strengths)
    err = rel_l1_error(doubled, 1.5, 5.0 * R_ALPHA)
    assert err == pytest.approx(1.0, abs=2e-3)


def test_rel_l1_requires_particles_inside():
    # the grid always holds x = 0, so only a negative d_eps leaves |x| <= d_eps empty
    f = reference_field(n=101)
    with pytest.raises(DomainError, match="no particles inside"):
        rel_l1_error(f, 1.5, -0.5)


def nested_fields(coarse_strengths, fine_only=0.0):
    """Fields on the nested grids N, 2N-1, 4N-3 of [-1, 1]: level l carries
    coarse_strengths[l] on its every 2^l-th node and fine_only elsewhere."""
    out = []
    for l, u in enumerate(coarse_strengths):
        f = init_uniform(1.0, (len(u) - 1) * 2 ** l + 1, ORDER, 2.0,
                         lambda x: np.full_like(x, fine_only))
        strengths = f.strengths.copy()
        strengths[::2 ** l] = u
        out.append(f.with_strengths(strengths))
    return out


def test_self_convergence_synthetic_second_order():
    rng = np.random.default_rng(0)
    base = rng.standard_normal(101)
    err = rng.standard_normal(101)
    grid = init_uniform(1.0, 101, ORDER, 2.0, np.zeros_like)
    fields = [grid.with_strengths(base + err * 4.0 ** -l) for l in range(3)]
    assert self_convergence_order(fields, [2.0 ** -l for l in range(3)]) == pytest.approx(
        2.0, abs=1e-12)


def test_self_convergence_validation():
    zero = init_uniform(1.0, 5, ORDER, 2.0, np.zeros_like)
    with pytest.raises(DomainError, match="three levels"):
        self_convergence_order([zero, zero], [1.0, 0.5])
    with pytest.raises(DomainError, match="three levels"):
        self_convergence_order([zero, zero, zero], [1.0, 0.5])
    with pytest.raises(DomainError, match="halve"):
        self_convergence_order([zero, zero, zero], [1.0, 0.7, 0.35])
    with pytest.raises(DomainError, match="zero denominator"):
        self_convergence_order([zero, zero, zero], [1.0, 0.5, 0.25])


def test_nested_grid_restriction():
    rng = np.random.default_rng(0)
    base = rng.standard_normal(101)
    err = rng.standard_normal(101)
    coarse = [base + err * 4.0 ** -l for l in range(3)]
    # only every 2^l-th node of level l counts: the others may hold anything
    fields = nested_fields(coarse, fine_only=1e3)
    assert [len(f) for f in fields] == [101, 201, 401]
    assert self_convergence_order(fields, [4.0, 2.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError, match="not a refinement"):
        self_convergence_order([fields[0], reference_field(n=151), fields[2]],
                               [4.0, 2.0, 1.0])
    shifted = init_uniform(1.1, 201, ORDER, 2.0, np.zeros_like)
    with pytest.raises(DomainError, match="coarse nodes"):
        self_convergence_order([fields[0], shifted, fields[2]], [4.0, 2.0, 1.0])


def test_conservation_drift_kpse_short_run():
    f0 = reference_field(n=401)
    spec = IntegratorSpec(RKOrder.RK1, 5e-4, 0.5, 0.6)
    f1 = integrate(f0, SchemeKind.KPSE, spec)
    assert conservation_drift([f0, f1]) <= 1e-12


def test_conservation_drift_needs_two_snapshots():
    f = reference_field(n=101)
    with pytest.raises(DomainError):
        conservation_drift([f])


def test_error_ordering_fpse_above_dd():
    # at equal coarse discretization the flux-divergence scheme carries the
    # larger spatial error
    f0 = reference_field(n=801)
    spec = IntegratorSpec(RKOrder.RK1, 2e-4, 0.5, 0.7)
    d_eps = 5.0 * R_ALPHA
    err = {}
    for kind in (SchemeKind.DD, SchemeKind.FPSE):
        err[kind] = rel_l1_error(integrate(f0, kind, spec), 0.7, d_eps)
    assert err[SchemeKind.FPSE] > err[SchemeKind.DD]


def test_self_convergence_zero_numerator():
    # two identical first levels: log2(0) raised a bare ValueError
    zero = init_uniform(1.0, 5, ORDER, 2.0, np.zeros_like)
    one = init_uniform(1.0, 5, ORDER, 2.0, np.ones_like)
    with pytest.raises(DomainError, match="zero numerator"):
        self_convergence_order([zero, zero, one], [1.0, 0.5, 0.25])


def test_rel_l1_error_rejects_an_exact_mass_that_underflows():
    # d_eps t^(-1/alpha) underflows to 0: num / 0 raised ZeroDivisionError
    f = init_uniform(1.0, 5, ORDER, 2.0, np.ones_like)
    with pytest.raises(DomainError, match="underflows"):
        rel_l1_error(f, 1e10, 5e-324)
