"""Differential oracles for the Chebyshev propagator and its interval.

integrate evaluates a whole run by one Chebyshev recurrence wherever it can
(timeint's module docstring), so the fixed-config tests elsewhere see only a
few of the runs it takes.  Here small configs are drawn over the order beta,
the grid, the overlap, the time step up to the stability limit 2/|min sigma|,
the step count, RK1/RK2 and the scheme, and integrate is checked against

- forced stepping: the same operator, with the recurrence switched off;
- the dense step matrix's power, (I + dt A)^n u0 or its RK2 analogue, with A
  from oracles.assemble_matrix, which shares no FFT code with the schemes;

and the dense spectra against spectral_interval, for overlap from 1 to 20.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdiff import timeint
from fracdiff.field import init_uniform
from fracdiff.greens import FractionalOrder
from fracdiff.kernels import KernelKind, scaled
from fracdiff.schemes import SchemeKind, gpse_field, spectral_interval
from fracdiff.timeint import IntegratorSpec, RKOrder, integrate

from oracles import assemble_matrix

# derandomized: the same draws on every run, so tier-1 repeats itself
ORACLE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
# agreement with forced stepping and with the dense power, per step and
# relative to max |u0|: the recurrence's rounding grows with the step count,
# to 2.3e-14 per step in 800 drawn runs that took it
TOL_PER_STEP = 1e-13


def _dense_operator(field, kind):
    """Dense A: assemble_matrix for the rate schemes; for GPSE (on its own
    field) the exchange sum h E_eps(x_i - x_j) less its row sums."""
    if kind is not SchemeKind.GPSE:
        return assemble_matrix(field, kind)
    x = field.positions
    e = field.h * scaled(KernelKind.E, x[:, None] - x[None, :], field.order, field.epsilon)
    return e - np.diag(e.sum(axis=1))


@st.composite
def runs(draw):
    """(field, kind, spec, a): a drawn run and the dense A it applies."""
    kind = draw(st.sampled_from(SchemeKind))
    order = FractionalOrder.from_beta(draw(st.integers(1, 99)) / 100.0)
    n = 2 * draw(st.integers(5, 60)) + 1
    seed = draw(st.integers(0, 2 ** 32 - 1)) if draw(st.booleans()) else None

    def start(x):
        # a random start excites the spectrum's edge; a Gaussian one is smooth
        if seed is None:
            return np.exp(-(3.0 * x / x[-1]) ** 2)
        return np.random.default_rng(seed).standard_normal(len(x))

    f = init_uniform(draw(st.floats(1.0, 50.0)), n, order, draw(st.floats(1.0, 8.0)), start)
    steps = draw(st.integers(2, 2000))
    if kind is SchemeKind.GPSE:
        # eps = dt^(1/alpha) from 1 to 8 spacings; the step itself has unit length
        dt = (draw(st.floats(1.0, 8.0)) * f.h) ** order.alpha
        a = _dense_operator(gpse_field(f, dt), kind)
        rk = RKOrder.RK1
    else:
        sigma_min = spectral_interval(f, kind)[0] / 1.01
        dt = draw(st.floats(0.05, 0.98)) * 2.0 / abs(sigma_min)
        a = _dense_operator(f, kind)
        rk = draw(st.sampled_from(RKOrder))
    return f, kind, IntegratorSpec(rk, dt, 0.0, steps * dt), a


@ORACLE_SETTINGS
@given(runs())
def test_propagator_matches_forced_stepping(run):
    f, kind, spec, _ = run
    out = integrate(f, kind, spec).strengths
    with mock.patch.object(timeint, "_chebyshev_run", lambda *args: None):
        ref = integrate(f, kind, spec).strengths
    assert np.abs(out - ref).max() <= TOL_PER_STEP * spec.n_steps * np.abs(f.strengths).max()


@ORACLE_SETTINGS
@given(runs())
def test_propagator_matches_dense_matrix_power(run):
    f, kind, spec, a = run
    z = (1.0 if kind is SchemeKind.GPSE else spec.dt) * a
    step = np.eye(len(f)) + z
    if spec.order is RKOrder.RK2 and kind is not SchemeKind.GPSE:
        step += 0.5 * z @ z
    ref = np.linalg.matrix_power(step, spec.n_steps) @ f.strengths
    out = integrate(f, kind, spec).strengths
    assert np.abs(out - ref).max() <= TOL_PER_STEP * spec.n_steps * np.abs(f.strengths).max()


@ORACLE_SETTINGS
@given(kind=st.sampled_from(SchemeKind), beta=st.integers(1, 99),
       n=st.integers(5, 100), half_width=st.floats(3.0, 60.0), overlap=st.floats(1.0, 20.0))
def test_dense_spectrum_inside_spectral_interval(kind, beta, n, half_width, overlap):
    order = FractionalOrder.from_beta(beta / 100.0)
    # GPSE's field is the field it exchanges on, eps = dt^(1/alpha)
    f = init_uniform(half_width, 2 * n + 1, order, overlap, np.ones_like)
    lo, hi = spectral_interval(f, kind)
    ev = np.linalg.eigvals(_dense_operator(f, kind))
    # DD, KPSE and GPSE are bounded by the symbol itself; FPSE's symbol is an
    # estimate, which the 1% widening covers
    if kind is not SchemeKind.FPSE:
        lo /= 1.01
    # eigvals rounds FPSE's non-normal A by up to about 2e-12 |lo| (its zero
    # eigenvalue, of the conserved sum, too) on a coarse grid at high overlap
    tol = 1e-11 * abs(lo)
    assert np.abs(ev.imag).max() <= tol
    assert lo - tol <= ev.real.min() and ev.real.max() <= hi + tol


@pytest.mark.parametrize("start", ["signed zeros", "one ulp", "random"])
@pytest.mark.parametrize("kind", list(SchemeKind))
def test_starts_not_even_to_the_bit_run_on_full_vectors(kind, start, matvec_lengths):
    # the recurrence runs on the upper half only of a start even bit for bit;
    # these near misses hand the rate all N entries, and still match the
    # dense matrix power
    order = FractionalOrder.from_beta(0.5)
    f = init_uniform(20.0, 101, order, 2.0, lambda x: np.exp(-(x / 4.0) ** 2))
    u = f.strengths.copy()
    if start == "signed zeros":
        u[:3], u[-3:] = 0.0, -0.0  # even by value
    elif start == "one ulp":
        u[10] = np.nextafter(u[10], 1.0)
    else:
        u = np.random.default_rng(1).standard_normal(len(u))
    f = f.with_strengths(u)
    if kind is SchemeKind.GPSE:
        dt = (2.0 * f.h) ** order.alpha
        z = _dense_operator(gpse_field(f, dt), kind)
    else:
        dt = 0.5 / abs(spectral_interval(f, kind)[0])
        z = dt * _dense_operator(f, kind)
    spec = IntegratorSpec(RKOrder.RK1, dt, 0.0, 200 * dt)
    out = integrate(f, kind, spec).strengths
    [lengths] = matvec_lengths
    assert 1 < len(lengths) < 200 and set(lengths) == {101}  # the recurrence
    ref = np.linalg.matrix_power(np.eye(len(f)) + z, 200) @ u
    assert np.abs(out - ref).max() <= TOL_PER_STEP * 200 * np.abs(u).max()
