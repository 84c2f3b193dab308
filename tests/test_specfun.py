import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fracdiff.errors import DomainError
from fracdiff.specfun import gamma_rec, s_combo, t_combo

from oracles import central_first, pcf_d, pcf_d_quad

SQRT2 = math.sqrt(2.0)

# production radii reach (N-1)/overlap = 16000 in units of eps
Z_GRID = np.concatenate([np.linspace(0.0, 12.0, 241), np.geomspace(12.0, 16000.0, 41)[1:]])


def _u_origin_mp(a):
    """U(a,0) and U'(a,0) (DLMF 12.2.6-7), in the current mpmath precision."""
    u0 = mp.sqrt(mp.pi) * mp.rgamma(mp.mpf(3) / 4 + a / 2) / mp.mpf(2) ** (a / 2 + mp.mpf(1) / 4)
    u0p = -mp.sqrt(mp.pi) * mp.rgamma(mp.mpf(1) / 4 + a / 2) / mp.mpf(2) ** (a / 2 - mp.mpf(1) / 4)
    return u0, u0p


def s_hyp_mp(nu, z):
    """S^nu(z) = 2 U(a,0) M(nu/2, 1/2, -z^2), a = 1/2 - nu, at 40 digits."""
    with mp.workdps(40):
        nu, z = mp.mpf(nu), mp.mpf(z)
        u0, _ = _u_origin_mp(mp.mpf(1) / 2 - nu)
        return float(2 * u0 * mp.hyp1f1(nu / 2, mp.mpf(1) / 2, -z * z))


def t_hyp_mp(nu, z):
    """T^nu(z) = -2 sqrt2 U'(a,0) z M((nu+1)/2, 3/2, -z^2), at 40 digits."""
    with mp.workdps(40):
        nu, z = mp.mpf(nu), mp.mpf(z)
        _, u0p = _u_origin_mp(mp.mpf(1) / 2 - nu)
        return float(-2 * mp.sqrt(2) * u0p * z * mp.hyp1f1((nu + 1) / 2, mp.mpf(3) / 2, -z * z))


def combo_def_mp(nu, z, sign):
    """exp(-z^2/2) (D_{nu-1}(-sqrt2 z) + sign D_{nu-1}(sqrt2 z)), the definition."""
    with mp.workdps(40):
        nu, w = mp.mpf(nu), mp.sqrt(2) * mp.mpf(z)
        return float(mp.exp(-w * w / 4) * (mp.pcfd(nu - 1, -w) + sign * mp.pcfd(nu - 1, w)))


def test_pcf_u_gaussian_case():
    # U(-1/2, z) = D_0(z) = exp(-z^2/4)
    assert pcf_d(0.0, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-14)


def test_pcf_u_origin_value():
    # U(0, 0) = D_{-1/2}(0)
    expected = math.sqrt(math.pi) / (2.0 ** 0.25 * math.gamma(0.75))
    assert pcf_d(-0.5, 0.0) == pytest.approx(expected, rel=1e-14)


def test_pcf_d_trivial():
    assert pcf_d(0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    # D_1(z) = z exp(-z^2/4)
    assert pcf_d(1.0, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("nu,z", [(-0.5, 1.7), (-0.9, 0.4), (-0.2, -3.1),
                                  (0.7, 2.5), (1.6, -1.3), (-0.5, 7.5)])
def test_pcf_d_against_quadrature(nu, z):
    assert pcf_d(nu, z) == pytest.approx(pcf_d_quad(nu, z), rel=1e-8)


@pytest.mark.parametrize("a", [-1.3, -0.7, -0.2, 0.0, 0.3])
@pytest.mark.parametrize("z", [0.3, 1.1, 2.9, 4.4, 6.7])
def test_reflection_identity(a, z):
    # U(a,-z) = -sin(pi a) U(a,z) + pi/Gamma(1/2+a) V(a,z), with U(a,.) = D_{-a-1/2}
    lhs = pcf_d(-a - 0.5, -z)
    rhs = (-math.sin(math.pi * a) * pcf_d(-a - 0.5, z)
           + math.pi * gamma_rec(0.5 + a) * float(mp.pcfv(a, z)))
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.5, 0.9, 0.99])
def test_combos_match_mpmath(beta):
    """S^beta, S^{alpha+1} and T^alpha, the three orders the kernels use,
    against the Kummer-function forms in 40-digit mpmath on z in [0, 16000]."""
    alpha = 1.0 + beta
    for nu, got_fn, ref_fn in ((beta, s_combo, s_hyp_mp), (alpha + 1.0, s_combo, s_hyp_mp),
                               (alpha, t_combo, t_hyp_mp)):
        got = got_fn(nu, Z_GRID)
        ref = np.array([ref_fn(nu, z) for z in Z_GRID])
        nonzero = ref != 0.0
        assert np.array_equal(got == 0.0, ~nonzero)
        # worst measured: 1.3e-13 for T^alpha and S^{alpha+1} at beta = 0.99
        # near z = 6.4-6.7, where the Gaussian and algebraic parts cross
        rel = np.abs(got[nonzero] / ref[nonzero] - 1.0)
        assert rel.max() <= 2e-13, (nu, rel.max(), Z_GRID[nonzero][rel.argmax()])


@pytest.mark.parametrize("nu", [0.05, 0.5, 1.5, 2.5])
def test_combos_match_parabolic_cylinder_definition(nu):
    # checks the Kummer-function identities themselves against mpmath's D_nu
    for z in (0.0, 0.4, 1.5, 3.0, 6.0, 9.0):
        assert s_combo(nu, z) == pytest.approx(combo_def_mp(nu, z, 1), rel=1e-13, abs=0)
        assert t_combo(nu, z) == pytest.approx(combo_def_mp(nu, z, -1), rel=1e-13, abs=1e-300)


@given(nu=st.floats(-1.5, 2.5), z=st.floats(-12.0, 12.0))
@example(nu=-0.75, z=1.2762726675576203e-89)  # hyp1f1 gave NaN at z^2 = 1.6e-178
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
        s_combo(0.5, np.array([1.0, math.nan]))
    with pytest.raises(DomainError):
        t_combo(0.5, math.inf)


def test_gamma_rec_poles():
    assert gamma_rec(0.0) == 0.0
    assert gamma_rec(-3.0) == 0.0
    assert gamma_rec(2.0) == pytest.approx(1.0, rel=1e-15)
