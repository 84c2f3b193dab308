import numpy as np
import pytest
import scipy.fft

from fracdiff.analysis import conservation_drift
from fracdiff.errors import AccuracyError, ConfigError, InstabilityError
from fracdiff.experiments import _build_field, parse_config
from fracdiff.field import init_uniform, is_mirrored
from fracdiff.greens import FractionalOrder, characteristic_width, green_function
from fracdiff.schemes import SchemeKind, gpse_field, make_rate_operator, spectral_interval
from fracdiff.specfun import _dct1
from fracdiff.timeint import (IntegratorSpec, RKOrder, _chebyshev_run, integrate,
                              make_gpse_stepper, power_iteration_min_eig)

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
    """The stepping loop written out on the upper half of the even start,
    every update a fresh array, and mirrored at the end."""
    from fracdiff.kernels import KernelKind
    from fracdiff.schemes import _interaction
    assert is_mirrored(f.strengths)
    c = len(f) // 2
    u = f.strengths[c:].copy()
    if kind is SchemeKind.GPSE:
        e, _ = _interaction(gpse_field(f, dt), KernelKind.E, 1.0)
        row = e(np.ones(c + 1)).copy()
        for _ in range(n_steps):
            u = u + (e(u) - u * row)
    else:
        rate = make_rate_operator(f, kind)
        for _ in range(n_steps):
            if order is RKOrder.RK1:
                u = u + dt * rate(u)
            else:
                u = u + dt * rate(u + 0.5 * dt * rate(u))
    return np.concatenate((u[:0:-1], u))


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
def test_in_place_steps_equal_naive_loop(kind, matvec_lengths):
    # integrate updates in place; the arithmetic, and so every bit, is the same
    f = gaussian_field(n=401, D=20.0)
    dt = _stepping_dt(f, kind)
    out = integrate(f, kind, IntegratorSpec(RKOrder.RK1, dt, 0.0, 20 * dt))
    assert matvec_lengths == [[201] * 20]
    assert np.array_equal(out.strengths, _naive_integrate(f, kind, dt, 20))


@pytest.mark.parametrize("order", [RKOrder.RK1, RKOrder.RK2])
@pytest.mark.parametrize("kind", [SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE,
                                  SchemeKind.GPSE])
def test_chebyshev_run_matches_naive_stepping(kind, order, matvec_lengths):
    # 100 steps through one Chebyshev recurrence, against the stepping loop
    # (GPSE has its own step and ignores the RK order)
    f = gaussian_field(n=401, D=20.0)
    dt = 1e-2 if kind is SchemeKind.GPSE else 1e-3
    out = integrate(f, kind, IntegratorSpec(order, dt, 0.0, 100 * dt))
    stepping = 100 * (2 if order is RKOrder.RK2 and kind is not SchemeKind.GPSE else 1)
    assert len(matvec_lengths[0]) < stepping / 2
    ref = _naive_integrate(f, kind, dt, 100, order)
    assert np.abs(out.strengths - ref).max() <= 1e-12 * np.abs(ref).max()
    if kind is not SchemeKind.DD:
        assert conservation_drift([f, out]) <= 1e-13


def test_gpse_million_step_chebyshev_run_keeps_strength(matvec_lengths):
    # criterion 5's reference field over 10^6 GPSE steps.  With A = P - I
    # formed as step(v) - v, each matvec rounded relative to |v|, and the
    # accumulator, about n u0, carried that into a drift of 5.5e-12
    order = FractionalOrder.from_beta(0.5)
    d = 10.0 * 1.5 ** order.gamma * characteristic_width(order)
    f0 = init_uniform(d, 1001, order, 2.0, lambda x: green_function(order, x, 0.5))
    f1 = integrate(f0, SchemeKind.GPSE, IntegratorSpec(RKOrder.RK1, 1e-6, 0.5, 1.5))
    assert len(matvec_lengths) == 1 and len(matvec_lengths[0]) < 1000  # the Chebyshev path
    assert conservation_drift([f0, f1]) <= 1e-12


def _bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("n", [3, 5, 101, 4001])
@pytest.mark.parametrize("order", [RKOrder.RK1, RKOrder.RK2])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_upper_half_closure_and_run_match_the_full_ones(kind, order, n):
    # an even u's upper half u[c:] goes through the same closure: the upper
    # half of A u, and of the recurrence's p(A) u, bit for bit, but for
    # FPSE, whose odd intermediate has no exact zero centre when taken whole
    f = gaussian_field(n=n, D=20.0)
    c = n // 2
    scale, rk2 = 1e-3, order is RKOrder.RK2
    if kind is SchemeKind.GPSE:
        f, scale, rk2 = gpse_field(f, 1e-2), 1.0, False

    def assert_upper_half(half, whole):
        if kind is SchemeKind.FPSE:
            assert np.abs(half - whole[c:]).max() <= 1e-13 * np.abs(whole).max()
            assert np.abs(whole - whole[::-1]).max() <= 1e-13 * np.abs(whole).max()
        else:
            assert np.array_equal(_bits(half), _bits(whole[c:]))
            assert np.array_equal(_bits(whole), _bits(whole[::-1]))

    rate = make_rate_operator(f, kind)
    r = np.random.default_rng(n).standard_normal(n)
    for u in (f.strengths, r + r[::-1], np.zeros(n), -np.zeros(n)):
        assert_upper_half(rate(u[c:]), rate(u))
    interval = spectral_interval(f, kind)
    full, half = (_chebyshev_run(rate, u0, interval, scale, 100, rk2,
                                 [np.zeros_like(u0) for _ in range(4)])
                  for u0 in (f.strengths, f.strengths[c:]))
    assert (full is None) == (half is None)
    assert full is not None or n < 101
    if full is not None:
        assert_upper_half(half, full)


@pytest.mark.parametrize("kind", list(SchemeKind))
def test_production_run_hands_the_rate_upper_halves(kind, matvec_lengths):
    # the production grid (N = 32001), 200 steps: an even start hands the
    # rate (N+1)/2 entries a matvec, and as many matvecs (degree + 1) as a
    # start one ulp off even, which takes all N
    cfg = parse_config(f"scheme = {kind.value}")
    f = _build_field(cfg, None, cfg.n)
    u = f.strengths.copy()
    u[0] = np.nextafter(u[0], 1.0)
    spec = IntegratorSpec(RKOrder.RK1, cfg.dt, cfg.t0, cfg.t0 + 200 * cfg.dt)
    out = integrate(f, kind, spec).strengths
    near = integrate(f.with_strengths(u), kind, spec).strengths
    half, full = matvec_lengths
    assert half == [16001] * len(full) and full == [32001] * len(full)
    assert 1 < len(full) < 200
    assert np.array_equal(_bits(out), _bits(out[::-1]))
    assert np.abs(out - near).max() <= 1e-12 * np.abs(out).max()


@pytest.mark.parametrize("kind, order", [
    *((kind, order) for kind in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE)
      for order in RKOrder),
    (SchemeKind.GPSE, RKOrder.RK1),
])
def test_stepped_run_hands_the_rate_upper_halves(kind, order, matvec_lengths):
    # two steps from the Green start step, on its upper half, and the result
    # is mirrored to the bit
    cfg = parse_config(f"scheme = {kind.value}\nc = 5\nn = 201\ndt = 1e-3\n"
                       f"t0 = 0.5\ntf = 0.502\nintegrator = rk{order.value}")
    f = _build_field(cfg, None, cfg.n)
    out = integrate(f, kind, IntegratorSpec(order, cfg.dt, cfg.t0, cfg.tf)).strengths
    assert matvec_lengths == [[101] * 2 * order.value]
    assert np.array_equal(_bits(out), _bits(out[::-1]))


@pytest.mark.parametrize("d, n, kind, factor, step", [
    (10.0, 501, SchemeKind.DD, 1.05, 290),
    (20.0, 1001, SchemeKind.FPSE, 1.05, 279),
    (20.0, 1001, SchemeKind.FPSE, 1.1, 143),
])
def test_divergence_guard_step_from_the_upper_half(d, n, kind, factor, step):
    # the guard measures the whole vector from its upper half, the centre
    # once and every other entry twice: the half's own norm moved these
    # steps by one (290 -> 291, 279 -> 280, 143 -> 144)
    f = init_uniform(d, n, ORDER, 2.0, lambda x: green_function(ORDER, x, 0.5))
    dt = factor * power_iteration_min_eig(f, kind).a_constant * f.h ** ORDER.alpha
    with pytest.raises(InstabilityError) as exc:
        integrate(f, kind, IntegratorSpec(RKOrder.RK1, dt, 0.5, 0.5 + 1000 * dt))
    assert exc.value.step == step


@pytest.mark.parametrize("kind", [SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE,
                                  SchemeKind.GPSE])
def test_operator_build_ends_with_its_call(kind):
    # integrate and power iteration keep their build on a copy of the field:
    # kept on the caller's, it outlived the run, and a sweep held two at once
    f = gaussian_field(n=101)
    integrate(f, kind, IntegratorSpec(RKOrder.RK1, 1e-3, 0.0, 1e-2))
    if kind is not SchemeKind.GPSE:
        power_iteration_min_eig(f, kind)
    assert f.operators == {}


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


def test_stability_table_matches_dense_eigenvalues():
    # the 9 rows of `fracdiff stability --n 201`, against the smallest real
    # part of the dense oracle's eigenvalues: power iteration from the
    # symbol's extremal mode stops from 3.2e-7 below it (FPSE, beta = 0.1)
    # to 4.0e-5 relative above it (KPSE, beta = 0.5); from a random start it
    # stopped 3.4e-6 to 8.9e-5 above
    import fracdiff.experiments as ex
    cfg = ex.parse_config("study = stability", {"n": 201})
    for beta, sub, c, n in ex._runs(cfg):
        f = ex._build_field(sub, c, n)
        for kind in ex._STABILITY_SCHEMES:
            lam_exact = np.linalg.eigvals(assemble_matrix(f, kind)).real.min()
            lam = power_iteration_min_eig(f, kind).lambda_min
            assert lam == pytest.approx(lam_exact, rel=2e-4), (beta, kind)
            if kind is not SchemeKind.FPSE:
                # A is symmetric: a Rayleigh quotient cannot fall below
                # lambda_min (up to roundoff), so the reported a is not below
                # the true constant
                assert lam >= lam_exact * (1.0 + 1e-12), (beta, kind)


def test_power_iteration_report_fields():
    f = gaussian_field(n=201)
    rep = power_iteration_min_eig(f, SchemeKind.DD)
    assert rep.lambda_min < 0.0
    assert rep.a_constant == pytest.approx(2.0 / (abs(rep.lambda_min) * f.h ** ORDER.alpha),
                                           rel=1e-12)
    assert rep.iterations > 1


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


@pytest.mark.parametrize("k", [16 << j for j in range(10)])
def test_dct1_matches_scipy_bit_for_bit(k):
    # chebyshev_coefficients' DCT-I, at the sizes its doubling visits, is
    # scipy's type-1 DCT to the bit, on smooth samples and on noise
    rng = np.random.default_rng(k)
    smooth = np.expm1(-3.0 * (1.0 + np.cos(np.pi * np.arange(k + 1) / k)))
    for v in (smooth, rng.standard_normal(k + 1), 1e200 * rng.standard_normal(k + 1)):
        assert np.array_equal(_dct1(v), scipy.fft.dct(v, type=1))
