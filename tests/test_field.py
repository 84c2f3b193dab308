import math

import numpy as np
import pytest

from fracdiff.errors import ConfigError, DomainError
from fracdiff.experiments import parse_config
from fracdiff.field import ParticleField, exact_sum, init_uniform, total_strength
from fracdiff.greens import FractionalOrder, green_function
from fracdiff.kernels import KernelKind, scaled

from oracles import (central_first, eta, eval_flux, eval_u, eval_utilde, field_arrays,
                     utilde_quad)

ORDER = FractionalOrder.from_beta(0.5)


def small_field(n=41, D=4.0, overlap=2.0, init=None):
    return init_uniform(D, n, ORDER, overlap, init or (lambda x: np.exp(-x * x)))


def test_reference_grid_geometry():
    f = init_uniform(357.5, 32001, ORDER, 2.0, lambda x: np.zeros_like(x))
    h = f.h
    assert h == 2.0 * 357.5 / 32000
    assert h == pytest.approx(2.234e-2, rel=1e-3)
    assert f.epsilon == pytest.approx(2 * h, rel=1e-12)
    assert f.positions[len(f) // 2] == 0.0
    assert f.positions[0] == pytest.approx(-357.5, rel=1e-12)
    assert f.positions[-1] == pytest.approx(357.5, rel=1e-12)


def test_three_particle_grid():
    f = init_uniform(1.0, 3, ORDER, 2.0, lambda x: np.ones_like(x))
    assert np.allclose(f.positions, [-1.0, 0.0, 1.0], atol=0)
    assert f.h == 1.0


def test_width_rule():
    # D = C t_f^{1/alpha} R_alpha
    assert parse_config("c = 160\ntf = 1.5").half_width() == pytest.approx(357.5, abs=0.5)


def test_even_count_rejected():
    with pytest.raises(ConfigError):
        init_uniform(1.0, 4, ORDER, 2.0, lambda x: np.zeros_like(x))


@pytest.mark.parametrize("half_width,n", [(0.0, 5), (-1.0, 5), (math.nan, 5), (1.0, 1)],
                         ids=["D-zero", "D-negative", "D-nan", "n-one"])
def test_bad_geometry_rejected(half_width, n):
    with pytest.raises(ConfigError):
        init_uniform(half_width, n, ORDER, 2.0, lambda x: np.zeros_like(x))


def test_overlap_below_one_rejected():
    with pytest.raises(ConfigError):
        init_uniform(1.0, 5, ORDER, 0.5, lambda x: np.zeros_like(x))


@pytest.mark.parametrize("init", [lambda x: 1.0, lambda x: np.zeros(3),
                                  lambda x: np.zeros((5, 1))],
                         ids=["scalar", "short", "column"])
def test_init_of_wrong_shape_rejected(init):
    # init is called once on the centers; there is no per-point fallback
    with pytest.raises(ConfigError, match="^init: "):
        init_uniform(1.0, 5, ORDER, 2.0, init)


def test_field_validation():
    # h positive and finite, an odd count >= 3 of 1D strengths, eps positive
    for h, strengths, eps in [
            (0.0, np.zeros(3), 1.0), (-1.0, np.zeros(3), 1.0), (math.inf, np.zeros(3), 1.0),
            (math.nan, np.zeros(3), 1.0), (1.0, np.zeros(4), 1.0), (1.0, np.zeros(1), 1.0),
            (1.0, np.zeros((3, 1)), 1.0), (1.0, np.zeros(3), 0.0),
            (1.0, np.zeros(3), math.inf)]:
        with pytest.raises(DomainError):
            ParticleField(h, strengths, eps, ORDER)


def test_eval_u_single_particle():
    for x in (0.0, 0.3, -1.1):
        assert eval_u(x, [0.0], [1.0], ORDER, 0.7) == pytest.approx(
            eta(x / 0.7) / 0.7, rel=1e-14)


def test_eval_u_zero_field():
    f = small_field(init=lambda x: np.zeros_like(x))
    assert eval_u(0.37, *field_arrays(f)) == 0.0


def test_eval_u_reference_peak():
    f = init_uniform(22.4, 2001, ORDER, 2.0, lambda x: green_function(ORDER, x, 0.5))
    assert eval_u(0.0, *field_arrays(f)) == pytest.approx(green_function(ORDER, 0.0, 0.5),
                                                          rel=1e-3)


def test_eval_u_collocation_second_order():
    # |eval_u(x_i) - u_i| = O(h^2): halving h cuts the defect ~4x at a fixed
    # physical location
    defects = []
    for n in (41, 81):
        f = small_field(n=n)
        i = len(f) // 2 + int(round(0.6 / f.h))
        defects.append(abs(eval_u(f.positions[i], *field_arrays(f)) - f.strengths[i]))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.25)


def test_eval_utilde_even_and_single_particle():
    f = field_arrays(small_field())
    assert eval_utilde(1.3, *f) == pytest.approx(eval_utilde(-1.3, *f), rel=1e-12)
    x = 0.55
    expected = 0.9 ** (1.0 - ORDER.beta) * scaled(KernelKind.KAPPA_BETA, x, ORDER, 0.9)
    assert eval_utilde(x, [0.0], [1.0], ORDER, 0.9) == pytest.approx(expected, rel=1e-13)


def test_eval_utilde_quadrature_oracle():
    f = field_arrays(small_field(n=21, D=2.0))
    x0 = 0.4
    ref = utilde_quad(lambda xi: eval_u(xi, *f), x0, ORDER.beta)
    assert eval_utilde(x0, *f) == pytest.approx(ref, rel=1e-6)


def test_eval_flux_symmetry():
    f = field_arrays(small_field())
    assert eval_flux(0.0, *f) == pytest.approx(0.0, abs=1e-14)
    assert eval_flux(0.8, *f) == pytest.approx(-eval_flux(-0.8, *f), rel=1e-12)


def test_eval_flux_single_particle_oracle():
    # Q(x) = -c_beta d/dx int eta_eps(xi) |x-xi|^-beta dxi for a unit particle
    eps = 0.8
    x0 = 0.9
    ref = -central_first(
        lambda x: utilde_quad(lambda s: eta(s / eps) / eps, x, ORDER.beta),
        x0, 1e-4)
    assert eval_flux(x0, [0.0], [1.0], ORDER, eps) == pytest.approx(ref, rel=1e-6)


def test_eval_flux_decays_at_domain_edge():
    f = field_arrays(init_uniform(22.4, 1001, ORDER, 2.0,
                                  lambda x: green_function(ORDER, x, 0.5)))
    inner = abs(eval_flux(2.0, *f))
    outer = abs(eval_flux(21.5, *f))
    assert outer < 0.05 * inner


def test_total_strength():
    f = small_field(init=lambda x: np.zeros_like(x))
    assert total_strength(f) == 0.0
    # reference-width domain
    g = init_uniform(357.5, 8001, ORDER, 2.0, lambda x: green_function(ORDER, x, 0.5))
    assert total_strength(g) == pytest.approx(1.0, abs=1e-3)
    # exact summation: any ordering of the addends gives the same float
    terms = g.h * g.strengths
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = rng.permutation(len(terms))
        assert math.fsum(terms[perm]) == total_strength(g)


def _mirror(upper):
    return np.concatenate((upper[:0:-1], upper))


def _sum_outcome(total, a):
    """The result's bits, or the error it raises."""
    try:
        return total(a).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


_rng = np.random.default_rng(7)
_upper = _rng.standard_normal(10001)
EXACT_SUM_CASES = {
    "n = 3": _mirror(np.array([0.3, -1e-17])),
    "all -0.0": np.full(9, -0.0),
    "+-0.0 mirrored": _mirror(np.where(_rng.random(5001) < 0.5, -0.0, 0.0)),
    "subnormals": _mirror(_rng.integers(-50, 50, 5001) * 5e-324),
    "several blocks": _mirror(_upper),
    "cancelling": _mirror(np.concatenate(([1e16], _upper, [-1e16, 1.0]))),
    "near 2^1023": _mirror(np.array([-8.9e307, 8.9e307, 8.9e307])),
    "past 2^1023": _mirror(np.array([1.0, 1.7e308])),
    "inf": _mirror(np.array([1.0, np.inf])),
    "+-inf": _mirror(np.array([-np.inf, np.inf])),
    "even by value only": np.array([0.0, 1.0, -0.0]),
    "one ulp off": np.array([1.0, 2.0, np.nextafter(1.0, 2.0)]),
    "random": _rng.standard_normal(20001),
    "even length": _rng.standard_normal(8),
    "strided view": _upper[::2],
    "reversed view": _upper[::-1],
    "read-only": np.frombuffer(_upper.tobytes()),
    "big-endian": _upper.astype(">f8"),
    "float32": _upper.astype(np.float32),
    "empty": np.zeros(0),
}


@pytest.mark.parametrize("case", list(EXACT_SUM_CASES))
def test_exact_sum_matches_fsum_of_the_whole_list(case):
    # any view, byte order or float width: the bits, or the error, of fsum
    # over the list of every entry
    a = EXACT_SUM_CASES[case]
    assert _sum_outcome(exact_sum, a) == _sum_outcome(lambda v: math.fsum(v.tolist()), a)


def test_exact_sum_builds_no_list():
    # a list of every entry holds 32 bytes a particle, and a list of 4096 of
    # them 128 KiB: the bound admits neither
    import tracemalloc
    for a in (_mirror(np.random.default_rng(1).standard_normal(100001)),
              np.random.default_rng(2).standard_normal(200001)):
        tracemalloc.start()
        exact_sum(a)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 1024
