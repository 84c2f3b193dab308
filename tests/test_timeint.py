import numpy as np
import pytest

from fracdiff.analysis import conservation_drift
from fracdiff.errors import AccuracyError, ConfigError, InstabilityError
from fracdiff.field import init_uniform
from fracdiff.greens import FractionalOrder, characteristic_width, green_function
from fracdiff.schemes import SchemeKind, spectral_interval
from fracdiff.timeint import (IntegratorSpec, RKOrder, integrate,
                              power_iteration_min_eig)

from oracles import assemble_matrix

ORDER = FractionalOrder.from_beta(0.5)


def gaussian_field(n=101, D=8.0):
    return init_uniform(D, n, ORDER, 2.0, lambda x: np.exp(-x * x))


def test_integrator_spec_validation():
    IntegratorSpec(RKOrder.RK1, 5e-5, 0.5, 1.5)  # the reference setup
    with pytest.raises(ConfigError):
        IntegratorSpec(RKOrder.RK1, 3e-5, 0.0, 1e-4)  # non-integer step count
    with pytest.raises(ConfigError):
        IntegratorSpec(RKOrder.RK1, 1e-2, 1.0, 0.5)
    with pytest.raises(ConfigError):
        IntegratorSpec(RKOrder.RK1, -1e-2, 0.0, 1.0)
    assert IntegratorSpec(RKOrder.RK2, 1e-2, 0.5, 1.5).n_steps == 100


def test_integrator_spec_rejects_overflowing_step_count():
    # (tf - t0)/dt overflows to inf: round(inf) raised OverflowError
    with pytest.raises(ConfigError, match="inf is not an integer"):
        IntegratorSpec(RKOrder.RK1, 1e-47, 1.0, 1e262)


def test_zero_field_stays_zero():
    f = gaussian_field().with_strengths(np.zeros(101))
    out = integrate(f, SchemeKind.KPSE, IntegratorSpec(RKOrder.RK1, 1e-3, 0.0, 1e-2))
    assert np.all(out.strengths == 0.0)


def test_rk1_step_matches_matrix():
    f = gaussian_field(n=61)
    A = assemble_matrix(f, SchemeKind.KPSE)
    dt = 1e-3
    out = integrate(f, SchemeKind.KPSE, IntegratorSpec(RKOrder.RK1, dt, 0.0, dt))
    expected = f.strengths + dt * (A @ f.strengths)
    assert np.abs(out.strengths - expected).max() <= 1e-13 * np.abs(expected).max()


def test_rk2_step_is_explicit_midpoint():
    f = gaussian_field(n=61)
    A = assemble_matrix(f, SchemeKind.DD)
    dt = 1e-3
    out = integrate(f, SchemeKind.DD, IntegratorSpec(RKOrder.RK2, dt, 0.0, dt))
    u = f.strengths
    expected = u + dt * (A @ (u + 0.5 * dt * (A @ u)))
    assert np.abs(out.strengths - expected).max() <= 1e-13 * np.abs(expected).max()


def test_gpse_routing():
    from fracdiff.schemes import make_gpse_stepper
    f = gaussian_field(n=61)
    dt = 1e-2
    out = integrate(f, SchemeKind.GPSE, IntegratorSpec(RKOrder.RK1, dt, 0.0, 3 * dt))
    step = make_gpse_stepper(f, dt)
    manual = step(step(step(f.strengths)))
    assert np.array_equal(out.strengths, manual)


def test_divergence_guard_carries_step():
    f = gaussian_field(n=101)
    rep = power_iteration_min_eig(f, SchemeKind.KPSE)
    dt = 2.5 / abs(rep.lambda_min)  # beyond the RK1 bound 2/|lambda_min|
    spec = IntegratorSpec(RKOrder.RK1, dt, 0.0, 400 * dt)
    with pytest.raises(InstabilityError) as exc:
        integrate(f, SchemeKind.KPSE, spec)
    assert 0 < exc.value.step <= 400


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_divergence_guard_nonfinite_start(bad):
    u = gaussian_field(n=101).strengths.copy()
    u[30] = bad
    f = gaussian_field(n=101).with_strengths(u)
    for kind in (SchemeKind.DD, SchemeKind.KPSE, SchemeKind.GPSE):
        with pytest.raises(InstabilityError) as exc, np.errstate(invalid="ignore"):
            integrate(f, kind, IntegratorSpec(RKOrder.RK1, 1e-3, 0.0, 1e-2))
        assert exc.value.step == 1


def _naive_integrate(f, kind, dt, n_steps, order=RKOrder.RK1):
    """The stepping loop written out, every update a fresh array."""
    from fracdiff.kernels import KernelKind
    from fracdiff.schemes import _interaction, make_rate_operator
    u = f.strengths.copy()
    if kind is SchemeKind.GPSE:
        e, row, _ = _interaction(f, KernelKind.E, dt ** f.order.gamma, 1.0)
        for _ in range(n_steps):
            u = u + (e(u) - u * row)
        return u
    rate = make_rate_operator(f, kind)
    for _ in range(n_steps):
        if order is RKOrder.RK1:
            u = u + dt * rate(u)
        else:
            u = u + dt * rate(u + 0.5 * dt * rate(u))
    return u


def _count_matvecs(monkeypatch) -> list:
    """Count the matvecs of the operators timeint builds from here on: one
    entry per integrate call."""
    import fracdiff.timeint as ti
    counts = []

    build = ti.make_rate_operator

    def build_counted(*args):
        op = build(*args)
        counts.append(0)

        def op_counted(u):
            counts[-1] += 1
            return op(u)
        return op_counted
    monkeypatch.setattr(ti, "make_rate_operator", build_counted)
    return counts


def _stepping_dt(f, kind):
    """A time step at which 20 steps still step, because no Chebyshev
    coefficient of the step polynomial drops below the cut: dt |lo| = 1.5 for
    the rate schemes, and for GPSE dt = 0.5, where eps is about 6 h and the
    spectrum of P - I reaches down to -1."""
    if kind is SchemeKind.GPSE:
        return 0.5
    return 1.5 / abs(spectral_interval(f, kind)[0])


@pytest.mark.parametrize("kind", [SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE,
                                  SchemeKind.GPSE])
def test_in_place_steps_equal_naive_loop(kind, monkeypatch):
    # integrate updates in place; the arithmetic, and so every bit, is the same
    f = gaussian_field(n=401, D=20.0)
    dt = _stepping_dt(f, kind)
    matvecs = _count_matvecs(monkeypatch)
    out = integrate(f, kind, IntegratorSpec(RKOrder.RK1, dt, 0.0, 20 * dt))
    assert matvecs == [20]
    assert np.array_equal(out.strengths, _naive_integrate(f, kind, dt, 20))


@pytest.mark.parametrize("order", [RKOrder.RK1, RKOrder.RK2])
@pytest.mark.parametrize("kind", [SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE,
                                  SchemeKind.GPSE])
def test_chebyshev_run_matches_naive_stepping(kind, order, monkeypatch):
    # 100 steps through one Chebyshev recurrence, against the stepping loop
    # (GPSE has its own step and ignores the RK order)
    f = gaussian_field(n=401, D=20.0)
    dt = 1e-2 if kind is SchemeKind.GPSE else 1e-3
    matvecs = _count_matvecs(monkeypatch)
    out = integrate(f, kind, IntegratorSpec(order, dt, 0.0, 100 * dt))
    stepping = 100 * (2 if order is RKOrder.RK2 and kind is not SchemeKind.GPSE else 1)
    assert matvecs[0] < stepping / 2
    ref = _naive_integrate(f, kind, dt, 100, order)
    assert np.abs(out.strengths - ref).max() <= 1e-12 * np.abs(ref).max()
    if kind is not SchemeKind.DD:
        assert conservation_drift([f, out]) <= 1e-13


def test_gpse_million_step_chebyshev_run_keeps_strength(monkeypatch):
    # criterion 5's reference field over 10^6 GPSE steps.  With A = P - I
    # formed as step(v) - v, each matvec rounded relative to |v|, and the
    # accumulator, about n u0, carried that into a drift of 5.5e-12
    order = FractionalOrder.from_beta(0.5)
    d = 10.0 * 1.5 ** order.gamma * characteristic_width(order)
    f0 = init_uniform(d, 1001, order, 2.0, lambda x: green_function(order, x, 0.5))
    matvecs = _count_matvecs(monkeypatch)
    f1 = integrate(f0, SchemeKind.GPSE, IntegratorSpec(RKOrder.RK1, 1e-6, 0.5, 1.5))
    assert len(matvecs) == 1 and matvecs[0] < 1000  # the Chebyshev path
    assert conservation_drift([f0, f1]) <= 1e-12


@pytest.mark.parametrize("kind", [SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE,
                                  SchemeKind.GPSE])
def test_divergence_guard_huge_finite_start(kind):
    # ||u||^2 overflows past entries of about 1e154; the guard must not
    f = gaussian_field(n=101)
    huge = f.with_strengths(1e300 * f.strengths)
    spec = IntegratorSpec(RKOrder.RK1, 1e-3, 0.0, 1e-2)
    out = integrate(huge, kind, spec)
    ref = integrate(f, kind, spec)
    assert np.all(np.isfinite(out.strengths))
    assert np.abs(out.strengths / 1e300 - ref.strengths).max() <= 1e-12 * np.abs(ref.strengths).max()


def test_power_iteration_two_particle_closed_form():
    # the smallest grid, N = 3, against the eigenvalues of the dense oracle
    f = init_uniform(0.4, 3, ORDER, 1.25, lambda x: np.array([1.0, -0.5, 0.2]))
    for kind in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE):
        lam_exact = np.linalg.eigvals(assemble_matrix(f, kind)).real.min()
        rep = power_iteration_min_eig(f, kind, tol=1e-14)
        assert rep.lambda_min == pytest.approx(lam_exact, rel=1e-10)


def test_power_iteration_report_fields():
    f = gaussian_field(n=201)
    rep = power_iteration_min_eig(f, SchemeKind.DD)
    assert rep.lambda_min < 0.0
    assert rep.a_constant == pytest.approx(2.0 / (abs(rep.lambda_min) * f.h ** ORDER.alpha),
                                           rel=1e-12)
    assert rep.iterations > 1
    assert rep.residual >= 0.0


def test_stability_ordering():
    f = gaussian_field(n=201)
    a = {k: power_iteration_min_eig(f, k).a_constant
         for k in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE)}
    assert a[SchemeKind.FPSE] > a[SchemeKind.DD] > a[SchemeKind.KPSE]


def test_conservative_schemes_have_null_eigenvalue():
    f = gaussian_field(n=101)
    for kind in (SchemeKind.FPSE, SchemeKind.KPSE):
        ev = np.linalg.eigvals(assemble_matrix(f, kind)).real
        assert ev.max() == pytest.approx(0.0, abs=1e-10 * abs(ev.min()))
        assert ev.min() < 0.0


def test_stability_limit_check():
    # forward Euler is stable iff dt / h^alpha <= a
    f = gaussian_field(n=101)
    rep = power_iteration_min_eig(f, SchemeKind.KPSE)
    dt_edge = rep.a_constant * f.h ** ORDER.alpha
    assert dt_edge == pytest.approx(2.0 / abs(rep.lambda_min), rel=1e-12)
    for dt, stable in ((0.0, True), (0.99 * dt_edge, True), (1.01 * dt_edge, False)):
        assert (dt / f.h ** ORDER.alpha <= rep.a_constant) is stable


def test_power_iteration_rejects_steppers():
    f = gaussian_field(n=61)
    with pytest.raises(ConfigError):
        power_iteration_min_eig(f, SchemeKind.GPSE)


def test_power_iteration_max_iter():
    f = gaussian_field(n=101)
    with pytest.raises(AccuracyError) as exc:
        power_iteration_min_eig(f, SchemeKind.DD, tol=0.0, max_iter=10)
    assert exc.value.partial is not None
