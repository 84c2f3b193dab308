import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdiff.errors import DomainError
from fracdiff.specfun import (DEFAULT_SWITCH_RADIUS, gamma_rec, pcf_d, pcf_u,
                              pcf_v, s_combo, t_combo)
from fracdiff.specfun import _series_uv, _u_asym, _v_asym

from oracles import central_first, pcf_d_quad

SQRT2 = math.sqrt(2.0)


def test_pcf_u_gaussian_case():
    # D_0(z) = U(-1/2, z) = exp(-z^2/4)
    assert pcf_u(-0.5, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-14)


def test_pcf_u_origin_value():
    expected = math.sqrt(math.pi) / (2.0 ** 0.25 * math.gamma(0.75))
    assert pcf_u(0.0, 0.0) == pytest.approx(expected, rel=1e-14)


def test_pcf_v_origin_value():
    a = 0.25
    expected = (math.pi * 2.0 ** (a / 2 + 0.25)
                / (math.gamma(0.75 - a / 2) ** 2 * math.gamma(0.25 + a / 2)))
    assert pcf_v(a, 0.0) == pytest.approx(expected, rel=1e-14)


def test_pcf_d_trivial():
    assert pcf_d(0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert pcf_d(-0.5, 0.0) == pytest.approx(pcf_u(0.0, 0.0), rel=1e-15)


@pytest.mark.parametrize("nu,z", [(-0.5, 1.7), (-0.9, 0.4), (-0.2, -3.1),
                                  (0.7, 2.5), (1.6, -1.3), (-0.5, 7.5)])
def test_pcf_d_against_quadrature(nu, z):
    assert pcf_d(nu, z) == pytest.approx(pcf_d_quad(nu, z), rel=1e-8)


@pytest.mark.parametrize("a", [-1.3, -0.7, -0.2, 0.0, 0.3])
@pytest.mark.parametrize("z", [0.3, 1.1, 2.9, 4.4, 6.7])
def test_reflection_identity(a, z):
    # U(a,-z) = -sin(pi a) U(a,z) + pi/Gamma(1/2+a) V(a,z)
    lhs = pcf_u(a, -z)
    rhs = (-math.sin(math.pi * a) * pcf_u(a, z)
           + math.pi * gamma_rec(0.5 + a) * pcf_v(a, z))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_v_branch_agreement_example():
    a = -0.4
    # at the switch radius the branches agree far inside 1e-8
    z = DEFAULT_SWITCH_RADIUS
    assert _series_uv(a, z)[1] == pytest.approx(_v_asym(a, z), rel=1e-8)
    # below it (z = 6) the asymptotic optimal-truncation floor is ~1.0e-8
    assert _series_uv(a, 6.0)[1] == pytest.approx(_v_asym(a, 6.0), rel=2e-8)


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
def test_overlap_band_agreement(beta):
    """Series and asymptotic evaluations agree to 1e-7 across the band
    [0.8 sr, 1.2 sr] around the default switch radius (sqrt2-scaled)."""
    sr = DEFAULT_SWITCH_RADIUS
    for nu in (beta, beta + 1.0, beta + 2.0):
        for w in np.linspace(0.8 * sr, 1.2 * sr, 7):
            z = w / SQRT2
            s_ser = s_combo(nu, z, switch_radius=1e9)
            s_asy = s_combo(nu, z, switch_radius=1e-9)
            assert s_ser == pytest.approx(s_asy, rel=1e-7)
            t_ser = t_combo(nu, z, switch_radius=1e9)
            t_asy = t_combo(nu, z, switch_radius=1e-9)
            assert t_ser == pytest.approx(t_asy, rel=1e-7)


@pytest.mark.parametrize("a", [-2.2, -0.9, 0.3])
def test_u_branch_agreement_at_switch(a):
    sr = DEFAULT_SWITCH_RADIUS
    for z in (0.8 * sr, sr):
        assert _series_uv(a, z)[0] == pytest.approx(_u_asym(a, z), rel=1e-7)


@given(nu=st.floats(-1.5, 2.5), z=st.floats(-12.0, 12.0))
@settings(max_examples=60, deadline=None)
def test_combo_parity(nu, z):
    assert s_combo(nu, z) == s_combo(nu, -z)
    assert t_combo(nu, z) == -t_combo(nu, -z)


def test_t_combo_at_zero():
    for nu in (0.3, 1.5, 2.4):
        assert t_combo(nu, 0.0) == 0.0


def test_s_combo_composition_at_zero():
    # S^nu(0) = 2 D_{nu-1}(0)
    nu = 0.3
    assert s_combo(nu, 0.0) == pytest.approx(2.0 * pcf_d(nu - 1.0, 0.0), rel=1e-12)


def test_s_combo_tail_plateau():
    # S^beta(z) z^beta approaches a constant for large z
    beta = 0.5
    v1 = s_combo(beta, 50.0) * 50.0 ** beta
    v2 = s_combo(beta, 200.0) * 200.0 ** beta
    assert v1 == pytest.approx(v2, rel=2e-2)


def test_t_combo_is_derivative_of_s_combo():
    # d/dz S^nu(z) = sqrt2 T^{nu+1}(z)
    nu, z = 0.5, 0.8
    fd = central_first(lambda t: s_combo(nu, t), z, 1e-6)
    assert t_combo(nu + 1.0, z) == pytest.approx(fd / SQRT2, rel=1e-6)


def test_combo_array_matches_scalar():
    z = np.array([-9.0, -2.0, 0.0, 0.4, 5.6, 30.0])
    s = s_combo(0.7, z)
    t = t_combo(1.7, z)
    for i, zi in enumerate(z):
        assert s[i] == s_combo(0.7, float(zi))
        assert t[i] == t_combo(1.7, float(zi))


def test_nonfinite_inputs_rejected():
    with pytest.raises(DomainError):
        pcf_u(math.nan, 1.0)
    with pytest.raises(DomainError):
        pcf_u(0.1, math.inf)
    with pytest.raises(DomainError):
        s_combo(0.5, np.array([1.0, math.nan]))


def test_gamma_rec_poles():
    assert gamma_rec(0.0) == 0.0
    assert gamma_rec(-3.0) == 0.0
    assert gamma_rec(2.0) == pytest.approx(1.0, rel=1e-15)
