"""Differential oracles for the stability analysis (power_iteration_min_eig).

Power iteration starts from the symbol's extremal mode (timeint's
_extremal_mode), so the fixed-config tests elsewhere see the few operators
that the stability table builds.  Here small configs are drawn over the order
beta, the grid, the overlap, the half-width and the scheme, and lambda_min is
checked against the dense eigenvalues of oracles.assemble_matrix, which
shares no FFT code with the schemes.  The n = 2001 table is checked against
DD's constant on the infinite lattice (oracles.dd_lattice_constant), which
shares no kernel code either, and its power iterations are counted.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracdiff import experiments
from fracdiff.field import init_uniform
from fracdiff.greens import FractionalOrder
from fracdiff.schemes import SchemeKind
from fracdiff.timeint import power_iteration_min_eig

from oracles import assemble_matrix, dd_lattice_constant

# derandomized: the same draws on every run, so tier-1 repeats itself
ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
# the bound of test_stability_table_matches_dense_eigenvalues
REL_TOL = 2e-4
RATE_SCHEMES = (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE)


@ORACLE_SETTINGS
@given(kind=st.sampled_from(RATE_SCHEMES), beta=st.integers(1, 99),
       n=st.integers(1, 150), half_width=st.floats(1.0, 50.0),
       overlap=st.floats(1.0, 8.0))
def test_lambda_min_matches_dense_eigenvalues(kind, beta, n, half_width, overlap):
    f = init_uniform(half_width, 2 * n + 1, FractionalOrder.from_beta(beta / 100.0),
                     overlap, np.ones_like)
    lam_exact = np.linalg.eigvals(assemble_matrix(f, kind)).real.min()
    lam = power_iteration_min_eig(f, kind).lambda_min
    assert lam == pytest.approx(lam_exact, rel=REL_TOL)
    if kind is not SchemeKind.FPSE:
        # A is symmetric: its Rayleigh quotient is not below lambda_min
        assert lam >= lam_exact * (1.0 + 1e-12)


@pytest.mark.xfail(strict=True, reason="FPSE's Rayleigh quotients are not monotone, "
                   "and the increment rule stops at their turning point")
def test_fpse_stops_short_at_a_turning_point():
    # FPSE's A is not symmetric.  Its two smallest eigenvalues, -0.62953 and
    # -0.62899, are 8.6e-4 apart, and the Rayleigh quotient of a mix of their
    # eigenvectors first rises from below -0.6298 and then falls again; the
    # 1e-8 increment rule stops at that turn, 76 iterations in, 4.0e-4 above
    # lambda_min (8.4e-4 from the old random start).  About 6% of the FPSE
    # draws of the strategy above stop this way, from either start
    f = init_uniform(10.0, 21, FractionalOrder.from_beta(0.6), 1.0, np.ones_like)
    lam_exact = np.linalg.eigvals(assemble_matrix(f, SchemeKind.FPSE)).real.min()
    lam = power_iteration_min_eig(f, SchemeKind.FPSE).lambda_min
    assert lam == pytest.approx(lam_exact, rel=REL_TOL)


@pytest.fixture(scope="module")
def table_2001(tmp_path_factory):
    """(rows, iterations): `fracdiff stability --n 2001`'s rows, and the power
    iterations its 9 rows took, counted as perfbench's PowerIterationCounter
    counts them."""
    counted = []
    original = experiments.power_iteration_min_eig

    def counting(*args, **kwargs):
        rep = original(*args, **kwargs)
        counted.append(rep.iterations)
        return rep

    cfg = experiments.parse_config("study = stability", {
        "n": 2001, "out_dir": str(tmp_path_factory.mktemp("stability"))})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "power_iteration_min_eig", counting)
        (path,) = experiments.run(cfg)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return rows, counted


def test_dd_table_within_lattice_constant(table_2001):
    # a finite section's a is at or above the lattice's; at n = 2001 the
    # dense truth sits about 5e-6 above it (4.816090 against 4.816067 at
    # beta = 0.1), and a power-iteration estimate a little more
    rows, _ = table_2001
    dd = [row for row in rows if row["scheme"] == "dd"]
    assert len(dd) == 3
    for row in dd:
        a_inf = dd_lattice_constant(float(row["beta"]), 2.0)
        assert a_inf <= float(row["a"]) <= a_inf * (1.0 + 2e-5), row


def test_table_iteration_count(table_2001):
    # a deterministic count, not a timing: 1,856 from the symbol's extremal
    # mode (1,840 of them KPSE at beta = 0.1), 46,811 from a random start
    _, counted = table_2001
    assert len(counted) == 9
    assert sum(counted) <= 2500
