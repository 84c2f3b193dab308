import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracdiff
from fracdiff.errors import ConfigError
from fracdiff.field import init_uniform, total_strength
from fracdiff.greens import FractionalOrder, green_function
from fracdiff.kernels import KernelKind, scaled
from fracdiff.schemes import (SchemeKind, gpse_field, make_gpse_stepper,
                              make_rate_operator, spectral_interval)

from oracles import assemble_matrix, eval_u, field_arrays, riesz_quad

ORDER = FractionalOrder.from_beta(0.5)
RATE_SCHEMES = [SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE]
CONSERVATIVE = [SchemeKind.FPSE, SchemeKind.KPSE]


def gaussian_field(n=101, D=8.0, overlap=2.0):
    return init_uniform(D, n, ORDER, overlap, lambda x: np.exp(-x * x))


def reference_field(n=1001, C=10.0):
    D = C * 1.5 ** ORDER.gamma * 1.7054652  # R_alpha(1.5)
    return init_uniform(D, n, ORDER, 2.0, lambda x: green_function(ORDER, x, 0.5))


def rates(f, kind):
    return make_rate_operator(f, kind)(f.strengths)


def gpse_step(f, dt):
    return f.with_strengths(make_gpse_stepper(f, dt)(f.strengths))


def test_zero_field_zero_rates():
    f = gaussian_field().with_strengths(np.zeros(101))
    for kind in RATE_SCHEMES:
        assert np.all(rates(f, kind) == 0.0)


def test_symmetric_field_symmetric_rates():
    f = gaussian_field()
    for kind in RATE_SCHEMES:
        r = rates(f, kind)
        assert np.allclose(r, r[::-1], rtol=1e-12, atol=1e-13 * np.abs(r).max())


def test_uniform_strengths_fixed_points():
    f = gaussian_field().with_strengths(np.full(101, 0.7))
    assert np.allclose(rates(f, SchemeKind.KPSE), 0.0, atol=1e-14)
    # GPSE: uniform strengths are a fixed point of the exchange step
    f1 = gpse_step(f, 1e-2)
    assert np.allclose(f1.strengths, f.strengths, rtol=0, atol=1e-15)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_conservation_on_random_strengths(seed):
    rng = np.random.default_rng(seed)
    f = gaussian_field(n=51).with_strengths(rng.standard_normal(51))
    scale = math.fsum(f.h * np.abs(f.strengths))
    for kind in CONSERVATIVE:
        tot = math.fsum(f.h * rates(f, kind))
        assert abs(tot) <= 1e-12 * scale


def test_dd_not_conservative():
    f = reference_field(n=401)
    tot = math.fsum(f.h * rates(f, SchemeKind.DD))
    assert abs(tot) > 1e-6  # physical outflow through the truncated boundary


def test_gpse_step_conserves_and_keeps_positions():
    f = reference_field(n=401)
    f1 = gpse_step(f, 1e-2)
    assert f1.positions is f.positions or np.array_equal(f1.positions, f.positions)
    assert total_strength(f1) == pytest.approx(total_strength(f), abs=1e-14)


def test_cross_scheme_center_rate_consistency():
    # all discretizations approximate the same operator at the peak
    f = reference_field(n=2001)
    mid = len(f) // 2
    r_dd = rates(f, SchemeKind.DD)[mid]
    assert rates(f, SchemeKind.FPSE)[mid] == pytest.approx(r_dd, rel=0.05)
    assert rates(f, SchemeKind.KPSE)[mid] == pytest.approx(r_dd, rel=0.05)


def test_dd_center_rate_against_riesz_oracle():
    # the DD rate is exactly the Riesz derivative of the mollified field
    f = gaussian_field(n=201, D=8.0)
    mid = len(f) // 2 + 5
    x0 = float(f.positions[mid])

    # the mollified particle field, evaluated by direct summation
    ref = riesz_quad(lambda y: eval_u(y, *field_arrays(f)), x0, ORDER.alpha)
    assert rates(f, SchemeKind.DD)[mid] == pytest.approx(ref, rel=1e-5)


# --- matrix form -----------------------------------------------------------


def test_matrix_symmetry_dd_kpse():
    f = gaussian_field(n=101)
    for kind in (SchemeKind.DD, SchemeKind.KPSE):
        A = assemble_matrix(f, kind)
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()


def test_matrix_fpse_interior_symmetric_real_spectrum():
    """The FPSE composition is symmetric away from the truncated boundary.

    The two odd-kernel convolutions commute on the infinite lattice but not
    on the last few rows of a truncated grid, so exact global symmetry holds
    only in the interior block; the spectrum stays real with lambda_max = 0.
    """
    f = gaussian_field(n=101)
    A = assemble_matrix(f, SchemeKind.FPSE)
    m = 20
    interior = A[m:-m, m:-m]
    assert np.abs(interior - interior.T).max() <= 1e-12 * np.abs(A).max()
    ev = np.linalg.eigvals(A)
    assert np.abs(ev.imag).max() <= 1e-10 * np.abs(ev.real).max()
    assert ev.real.max() <= 1e-10 * abs(ev.real.min())


def test_matrix_conservation_column_sums():
    f = gaussian_field(n=101)
    for kind in (SchemeKind.FPSE, SchemeKind.KPSE):
        A = assemble_matrix(f, kind)
        cols = f.h * A.sum(axis=0)
        assert np.abs(cols).max() <= 1e-12 * np.abs(A).max()


@pytest.mark.parametrize("n", [3, 101, 401, 501])
def test_matrix_operator_equivalence(n):
    # uniform grids of every size take the FFT path; the dense matrix is the oracle
    # (n = 501 pads to a power of two, the others to a 5-smooth length)
    f = gaussian_field(n=n)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(len(f))
    for kind in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE):
        A = assemble_matrix(f, kind)
        r = make_rate_operator(f, kind)(u)
        assert np.abs(A @ u - r).max() <= 1e-13 * np.abs(r).max()


def test_matrix_toy_grid_bitwise_tolerant():
    f = init_uniform(1.0, 3, ORDER, 2.0, lambda x: np.array([0.2, 1.0, 0.4]))
    A = assemble_matrix(f, SchemeKind.KPSE)
    assert np.abs(A @ f.strengths - rates(f, SchemeKind.KPSE)).max() <= 1e-14


def test_gpse_stepper_matches_dense_exchange():
    # u + E(h u) - u (E h), with E[i, j] = E_eps(x_i - x_j) built directly
    f = reference_field(n=401)
    dt = 1e-2
    eps = dt ** ORDER.gamma
    x, h, u = f.positions, f.h, f.strengths
    E = scaled(KernelKind.E, x[:, None] - x[None, :], ORDER, eps)
    expected = u + E @ (h * u) - u * (E @ np.full(len(f), h))
    got = make_gpse_stepper(f, dt)(u)
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("n", [151, 251])
@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_spectral_interval_holds_dense_spectrum(beta, n):
    # n = 151 pads to the 5-smooth length 320, n = 251 to the power of two 512
    order = FractionalOrder.from_beta(beta)
    f = init_uniform(10.0, n, order, 2.0, lambda x: np.exp(-x * x))
    for kind in RATE_SCHEMES + [SchemeKind.GPSE]:
        if kind is SchemeKind.GPSE:
            step = make_gpse_stepper(f, 1e-2)
            a = np.column_stack([step(e) for e in np.eye(len(f))]) - np.eye(len(f))
            lo, hi = spectral_interval(gpse_field(f, 1e-2), kind)
        else:
            a = assemble_matrix(f, kind)
            lo, hi = spectral_interval(f, kind)
        ev = np.linalg.eigvals(a)
        assert hi >= 0.0
        # DD, KPSE and GPSE are bounded by the symbol itself; FPSE's symbol is an
        # estimate, covered by the 1% widening
        if kind is not SchemeKind.FPSE:
            lo /= 1.01
        tol = 1e-12 * abs(lo)
        assert np.abs(ev.imag).max() <= tol
        assert lo - tol <= ev.real.min() and ev.real.max() <= hi + tol


def test_matrix_guards():
    f = gaussian_field(n=101)
    with pytest.raises(ConfigError):
        assemble_matrix(f, SchemeKind.GPSE)
    with pytest.raises(ConfigError):
        assemble_matrix(f, SchemeKind.DD, size_guard=50)


FRESH_STEPS = """
import resource
import fracdiff.timeint as ti
from fracdiff.experiments import _build_field, parse_config
from fracdiff.schemes import SchemeKind
from fracdiff.timeint import IntegratorSpec, RKOrder, integrate

faults = []
build = ti.make_rate_operator


def counted(field, kind):
    rate = build(field, kind)

    def rate_counted(u):
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return rate(u)
    return rate_counted


ti.make_rate_operator = counted
cfg = parse_config("")  # the production case: DD, N = 32001, RK1
integrate(_build_field(cfg, None, cfg.n), SchemeKind.DD,
          IntegratorSpec(RKOrder.RK1, cfg.dt, cfg.t0, cfg.t0 + 51 * cfg.dt))
print((faults[-1] - faults[0]) / (len(faults) - 1))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts the minor page faults of glibc's allocator")
def test_fresh_process_steps_take_no_page_faults():
    # each matvec's FFT temporaries (512 KiB each at m = 65536) were mapped and
    # faulted in afresh on every step of a fresh process: about 470-700 faults
    src = os.path.dirname(os.path.dirname(fracdiff.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", FRESH_STEPS], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert float(out) < 10.0
