import csv
import io
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracdiff
from fracdiff import __version__
from fracdiff.cli import main
from fracdiff.errors import ConfigError, DomainError
from fracdiff.experiments import PRESETS, parse_config, run
from fracdiff.schemes import SchemeKind
from fracdiff.timeint import RKOrder

TINY = """
# desk-scale single run
scheme = kpse
beta = 0.5
c = 5
n = 201
dt = 1e-3
t0 = 0.5
tf = 0.52
"""


def test_defaults_reproduce_reference_case():
    cfg = parse_config("")
    assert cfg.scheme is SchemeKind.DD
    assert cfg.beta == 0.5 and cfg.c == 160.0 and cfg.n == 32001
    assert cfg.overlap == 2.0 and cfg.integrator is RKOrder.RK1
    assert cfg.dt == 5e-5 and (cfg.t0, cfg.tf) == (0.5, 1.5)
    assert cfg.half_width() == pytest.approx(357.5, abs=0.5)


def test_small_beta_half_width_is_finite():
    assert math.isfinite(parse_config("beta = 0.05").half_width())


def test_small_beta_single_run_completes(tmp_path):
    text = "scheme = kpse\nbeta = 0.01\nc = 5\nn = 201\ntf = 0.51\n"
    files = run(parse_config(text, {"out_dir": str(tmp_path)}))
    report = [f for f in files if f.endswith("report.csv")][0]
    with open(report) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert math.isfinite(float(rows[0]["rel_l1"]))


def test_gpse_epsilon_matches_reference_spacing():
    cfg = parse_config("scheme = gpse\ndt = 1e-2\n")
    h = 2.0 * cfg.half_width() / (cfg.n - 1)
    eps = cfg.dt ** cfg.order.gamma
    assert eps / h == pytest.approx(2.0, abs=0.15)


def test_gpse_rejects_explicit_overlap():
    with pytest.raises(ConfigError, match="overlap"):
        parse_config("scheme = gpse\noverlap = 2\n")


def test_even_count_rejected():
    with pytest.raises(ConfigError, match="n"):
        parse_config("n = 32002")


def test_unknown_key_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown key: frobnicate"):
        parse_config("frobnicate = 1")
    # power iteration always starts from default_rng(0): seed is no key or option
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text(TINY + "seed = 0\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown key: seed")
    assert not (tmp_path / "out").exists()
    for argv in (["run", str(cfg_file)], ["stability"], ["kernels", "dump"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "0"])
        assert exc.value.code == 2


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("scheme kpse")


def test_rlpse_and_experimental_rejected(tmp_path, capsys):
    # the experimental fifth scheme is gone, and with it the key that enabled it
    cfg_file = tmp_path / "gone.cfg"
    for line, err in (("scheme = rlpse", "config error: invalid value for scheme: 'rlpse'"),
                      ("experimental = true", "config error: unknown key: experimental")):
        cfg_file.write_text(TINY + line + "\n")
        assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(err)
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg_file), "--experimental"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="beta"):
        parse_config("beta = banana")


def test_single_study_outputs(tmp_path):
    cfg = parse_config(TINY, {"out_dir": str(tmp_path)})
    files = run(cfg)
    assert sorted(os.path.basename(f) for f in files) == ["report.csv", "solution.csv"]
    sol = open(files[0] if files[0].endswith("solution.csv") else files[1]).read()
    assert sol.startswith("# fracdiff")
    assert "# beta = 0.5" in sol
    # data rows parse and reproduce u_exact at 17 digits
    with open([f for f in files if f.endswith("solution.csv")][0]) as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    assert rows[0] == ["x", "u", "u_exact"]
    assert len(rows) - 1 == 201


def test_rerun_bit_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        run(parse_config(TINY, {"out_dir": str(d)}))
    for name in ("solution.csv", "report.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# rel_l1 of the paper's reference case (N = 32001, 20000 RK1 steps), by
# stepping, before runs were advanced by their Chebyshev expansion
_STEPPED_REFERENCE_REL_L1 = {"dd": 1.7744265545647589e-4, "fpse": 3.6299308562665831e-4,
                             "kpse": 8.4267484584853389e-5}


@pytest.mark.parametrize("scheme", ["dd", "fpse", "kpse"])
def test_full_reference_case(tmp_path, scheme):
    (row,) = _rows(run(parse_config("", {"scheme": scheme, "out_dir": str(tmp_path)})),
                   "report.csv")
    rel_l1, drift = float(row["rel_l1"]), float(row["drift"])
    assert rel_l1 <= 1e-2
    assert rel_l1 == pytest.approx(_STEPPED_REFERENCE_REL_L1[scheme], rel=1e-7)
    if scheme != "dd":
        assert drift <= 1e-12


def _rows(files, name):
    (path,) = [f for f in files if f.endswith(name)]
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_domain_sweep(tmp_path):
    text = TINY + "study = domain\nvalues = 3,5\n"
    files = run(parse_config(text, {"out_dir": str(tmp_path)}))
    with open(files[0]) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [r["param"] for r in rows] == ["3", "5"]
    assert all(float(r["rel_l1"]) > 0 for r in rows)


def test_time_sweep_order(tmp_path):
    text = "scheme = dd\nc = 5\nn = 401\ndt = 4e-3\ntf = 0.7\nstudy = time\n"
    files = run(parse_config(text, {"out_dir": str(tmp_path)}))
    with open(files[0]) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    p = float(rows[-1]["p"])
    assert p == pytest.approx(1.0, abs=0.1)  # RK1


def test_space_sweep_order(tmp_path):
    text = "scheme = kpse\nc = 5\nn = 201\ndt = 1e-3\ntf = 0.55\nstudy = space\n"
    files = run(parse_config(text, {"out_dir": str(tmp_path)}))
    with open(files[0]) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    p = float(rows[-1]["p"])
    assert p == pytest.approx(2.0, abs=0.2)


def test_kernels_dump(tmp_path):
    files = run(parse_config("study = kernels", {"out_dir": str(tmp_path)}))
    with open(files[0]) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    kinds = {r["kind"] for r in rows}
    assert kinds == {"gd", "k", "e", "f", "kappa"}
    betas = {r["beta"] for r in rows}
    assert len(betas) == 3
    # F values are finite everywhere on the dump grid
    assert all(math.isfinite(float(r["value"])) for r in rows)


def test_stability_study_csv(tmp_path):
    text = "study = stability\nn = 201\nc = 5\n"
    files = run(parse_config(text, {"out_dir": str(tmp_path)}))
    with open(files[0]) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 9
    assert {r["scheme"] for r in rows} == {"dd", "fpse", "kpse"}
    assert all(float(r["lambda_min"]) < 0 for r in rows)
    assert all(float(r["a"]) > 0 for r in rows)


# --- command line ----------------------------------------------------------


def test_cli_run_and_exit_codes(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY)
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2 and all(os.path.exists(p) for p in out)


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 4\n")
    assert main(["run", str(bad)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_cli_os_errors_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY)
    taken = tmp_path / "taken"
    taken.write_text("")
    # --out-dir naming an existing file, and a config path that is a directory
    assert main(["run", str(cfg_file), "--out-dir", str(taken)]) == 2
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


@pytest.mark.parametrize("line", ["tf = inf", "c = nan", "values = 10, inf",
                                  "t0 = 0", "t0 = -0.5",
                                  "d_eps_factor = 0", "d_eps_factor = -1"])
def test_cli_rejects_bad_config_up_front(tmp_path, capsys, line):
    # each failed late (after the integration) or with a traceback
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(TINY + line + "\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + line.split(" =")[0] + ":")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("study,values", [
    ("domain", "5, -10"),                # a negative C
    ("domain", "5, 1e-6"),               # a C too small for 3 particles
    ("time", "2e-3, 1e-3"),              # two levels: no order
    ("time", "2e-3, 1e-3, 4e-4"),        # not halving
    ("time", "3e-3, 1.5e-3, 7.5e-4"),    # 3e-3 does not divide tf - t0
    ("domain", "5, 10, 1e300"),          # about 1e301 particles
    ("domain", "5, 1e308"),              # the half-width overflows
], ids=["domain-negative", "domain-tiny", "time-two-levels", "time-not-halving",
        "time-not-dividing", "domain-huge", "domain-overflow"])
def test_cli_rejects_bad_sweep_values(tmp_path, capsys, study, values):
    # each used to fail only after some (or all) of the sweep had run
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(TINY + f"study = {study}\nvalues = {values}\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: values: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["c = 1e300", "d = 1e300", "c = 1e-300", "d = 1e-300"])
def test_cli_rejects_prefactor_out_of_range(tmp_path, capsys, line):
    # kpse's alpha / eps^alpha raised OverflowError (eps huge) or
    # ZeroDivisionError (eps tiny) in run, with a traceback
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"scheme = kpse\nn = 51\n{line}\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: " + line.split(" =")[0] + ":")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines", [
    "c = 1e307\nvalues = 1e307\n",
    "n = 3\nc = 1e-300\ndt = 1e-24\nt0 = 1e-25\ntf = 1.1e-24\n",
], ids=["overflow", "underflow"])
def test_cli_rejects_domain_sweep_whose_half_width_is_out_of_range(tmp_path, capsys, lines):
    # the half-width sets the sweep's spacing: at inf, inf / inf is NaN and
    # round(NaN) raised ValueError; at 0, the division raised ZeroDivisionError
    cfg_file = tmp_path / "domain.cfg"
    cfg_file.write_text(TINY + "study = domain\nbeta = 0.01\n" + lines)
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: c: ")
    assert not (tmp_path / "out").exists()


def test_prefactor_check_covers_every_space_level():
    text = "scheme = kpse\nn = 51\nc = 1e-204\ndt = 1e-3\ntf = 0.51\n"
    parse_config(text)  # the n = 51 grid alone is in range
    with pytest.raises(ConfigError, match=r"^c: .* n = 201 grid"):
        parse_config(text + "study = space\n")


@pytest.mark.parametrize("study", ["stability", "kernels"])
@pytest.mark.parametrize("tf", ["-1", "0"])
def test_cli_rejects_nonpositive_tf_for_every_study(tmp_path, capsys, study, tf):
    # tf = -1 made the half-width complex: init_uniform raised TypeError (a
    # traceback), and a kernels dump wrote a complex d into its header
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"study = {study}\nn = 51\ntf = {tf}\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: tf: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("levels", [60, 40000])
def test_cli_rejects_space_levels_past_the_index_cap(tmp_path, capsys, levels):
    # each level's n is an int of about `levels` bits: levels = 40000 took 1.8 s
    # to reject by c, and levels = 1100 printed a 300-digit n
    cfg_file = tmp_path / "space.cfg"
    cfg_file.write_text(f"study = space\nn = 51\nc = 5\nlevels = {levels}\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: levels: ") and len(err) < 200
    assert not (tmp_path / "out").exists()


def test_space_levels_under_the_index_cap_accepted():
    # 50 * 2^39 + 1 = 2.7e13 particles at the finest level: under the cap
    assert parse_config("study = space\nn = 51\nc = 5\nlevels = 40\n").levels == 40


def test_cli_time_sweep_with_zero_first_difference_exit_2(tmp_path, capsys):
    # the first two levels agree to the bit: log2(0) raised a bare ValueError
    # after the whole sweep had run.  On three particles at overlap 100 DD's
    # spectral interval reaches above 0, so every level steps, and one RK2
    # step of 0.2 rounds to the same strengths as two of 0.1
    cfg_file = tmp_path / "time.cfg"
    cfg_file.write_text("study = time\nscheme = dd\nn = 3\nbeta = 0.5\nc = 0.5\n"
                        "overlap = 100\nt0 = 3\ndt = 0.2\ntf = 3.2\nintegrator = rk2\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "domain error: degenerate level difference (zero numerator)")


def test_stability_table_does_not_depend_on_scheme(tmp_path):
    # the table builds its own DD, FPSE and KPSE operators: with scheme = gpse
    # they were built at GPSE's eps = dt^(1/alpha) and power iteration hit a
    # null vector
    data = {}
    for scheme in ("dd", "gpse"):
        files = run(parse_config(f"study = stability\nn = 201\nscheme = {scheme}\n",
                                 {"out_dir": str(tmp_path / scheme)}))
        with open(files[0]) as fh:
            data[scheme] = [line for line in fh if not line.startswith("#")]
    assert len(data["dd"]) == 10 and data["gpse"] == data["dd"]


def test_stability_table_at_tiny_scale(tmp_path):
    # at c = 1e-100 the operator's entries pass 1e154, where the plain sum of
    # squares of the iterate overflowed to inf and zeroed it ("null vector");
    # a scales out, so the table equals the one at c = 1e-60
    a = {}
    for c in ("1e-100", "1e-60"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            files = run(parse_config(f"study = stability\nn = 51\nc = {c}\n",
                                     {"out_dir": str(tmp_path / c)}))
        with open(files[0], newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        assert len(rows) == 9
        a[c] = np.array([float(r["a"]) for r in rows])
    assert np.allclose(a["1e-100"], a["1e-60"], rtol=1e-12, atol=0)


def test_gpse_snapshot_echoes_its_own_epsilon(tmp_path):
    cfg = parse_config("scheme = gpse\nn = 51\nc = 5\ndt = 1e-2\ntf = 0.52\n",
                       {"out_dir": str(tmp_path)})
    run(cfg)
    header = (tmp_path / "solution.csv").read_text().splitlines()
    assert f"# epsilon = {cfg.dt ** cfg.order.gamma:.17g}" in header


def test_cli_out_of_memory_exit_2(tmp_path, capsys, monkeypatch):
    # stands in a grid too large to allocate, without allocating one
    def run_out_of_memory(cfg):
        raise MemoryError("Unable to allocate 74.5 PiB for an array")

    monkeypatch.setattr("fracdiff.cli.run", run_out_of_memory)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY)
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 74.5 PiB for an array"]


def test_cli_domain_error_exit_2(tmp_path, capsys, monkeypatch):
    # configs are checked up front, so stand in a run that meets a domain error
    def run_out_of_domain(cfg):
        raise DomainError("t must be positive")

    monkeypatch.setattr("fracdiff.cli.run", run_out_of_domain)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY)
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("domain error: ")


def test_cli_numerical_failure_exit_3(tmp_path):
    # dt far beyond the stability bound trips the divergence guard
    cfg_file = tmp_path / "unstable.cfg"
    cfg_file.write_text("scheme = kpse\nc = 5\nn = 1001\ndt = 2e-2\ntf = 1.5\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 3


def test_cli_power_iteration_stops_at_first_nonfinite_iterate(tmp_path, capsys):
    # this operator's first product is not finite; iterating on from there
    # divided by a NaN norm and ended in "did not converge" 50000 steps later
    cfg_file = tmp_path / "nan.cfg"
    cfg_file.write_text("study = stability\nbeta = 0.01\nn = 7\nc = 1e-214\ntf = 1e100\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: power iteration iterate 1 is not finite\n")


@pytest.mark.filterwarnings("error")
def test_gpse_without_self_term_keeps_a_symmetric_start_symmetric(tmp_path):
    # eps = dt^(1/alpha) = 1 is far below h = 1e13, so h E(0) dwarfs every
    # other exchange; a self term carried in u + e(u) - u row cancelled the
    # right end to -4.99e290 and drifted 1.5e-4.  Three particles cannot
    # resolve G0, so rel_l1 stays huge.  x t0^(-1/alpha) reaches about 1e308,
    # where L0's asymptotic branch overflowed pi x and warned while sampling
    # the start (its value, 0, was right)
    cfg_file = tmp_path / "far.cfg"
    cfg_file.write_text("scheme = gpse\nbeta = 0.01\nn = 3\nd = 1e13\ndt = 1\n"
                        "t0 = 1e-298\ntf = 1\nd_eps_factor = 1\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 0
    tables = {}
    for name in ("solution.csv", "report.csv"):
        with open(tmp_path / "out" / name) as fh:
            tables[name] = list(
                csv.DictReader(line for line in fh if not line.startswith("#")))
    u = [float(r["u"]) for r in tables["solution.csv"]]
    assert u[0] == u[2] and min(u) >= 0.0
    assert abs(float(tables["report.csv"][0]["drift"])) <= 1e-12


def test_cli_preset(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dt = 1e-3\ntf = 0.51\n")
    # preset swaps in the desk-scale grid; stays a valid config
    from fracdiff.experiments import parse_config as pc
    overrides = {**PRESETS["reference-small"]}
    cfg = pc(cfg_file.read_text(), overrides)
    assert cfg.n == 4001 and cfg.c == 20.0


def test_cli_kernels_dump(tmp_path):
    assert main(["kernels", "dump", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "kernels.csv").exists()


def test_csv_roundtrip_17_digits(tmp_path):
    files = run(parse_config(TINY, {"out_dir": str(tmp_path)}))
    sol = [f for f in files if f.endswith("solution.csv")][0]
    import fracdiff.experiments as ex
    with open(sol) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    # formatting at 17 significant digits round-trips the float exactly
    v = float(rows[5]["u"])
    assert ex._fmt(v) == rows[5]["u"]


def _csv_writer_bytes(echo, columns, rows):
    buf = io.StringIO(newline="")
    buf.write(f"# fracdiff {__version__}\n")
    for key, value in echo.items():
        buf.write(f"# {key} = {format(value, '.17g') if isinstance(value, float) else value}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode()


def test_write_csv_matches_csv_writer(tmp_path):
    import fracdiff.experiments as ex
    echo = {"beta": 0.5, "n": 201, "scheme": "kpse", "values": ""}
    floats = [(0.0, -0.0, 5e-320), (1e300, -1e300, -2.5e-7), (1 / 3, -math.pi, 1e-5),
              (math.inf, -math.inf, math.nan)]
    mixed = [["dd", 0.5, "dt", 5e-5, 4.0732060862549886e-05, "", 3.7e-4],
             ["dd", 0.5, "h", 0.125, "", 1.9999999999999998, ""],
             [0.1, "fpse", 2001, -1234.5, 7.049],
             ["gd", 0.1, np.float64(0.05), np.float64(-3.2e-9)]]
    # longer than two blocks; the cell types change inside a block and on both
    # sides of each block boundary
    b = ex._BLOCK
    long = [(i / 7.0, -i * 1e-300, float(i)) for i in range(2 * b + 5)]
    for i in (3, 4, 100, b - 1, b, 2 * b - 1):
        long[i] = (i / 7.0, "", i)
    long[b + 1] = (np.float64(0.25), np.float64(-1.5), 2.0)
    # ragged rows whose cells alone would repeat one row's types
    ragged = [(1.0, 2.0, 3.0), (4.0, 5.0), (6.0, 7.0, 8.0, 9.0)]
    for name, columns, rows in (("floats.csv", ["x", "u", "u_exact"], floats),
                                ("mixed.csv", list("abcdefg"), mixed),
                                ("long.csv", ["x", "u", "u_exact"], long),
                                ("ragged.csv", ["x", "u", "u_exact"], ragged)):
        path = ex._write_csv(str(tmp_path / name), echo, columns, iter(rows))
        with open(path, "rb") as fh:
            assert fh.read() == _csv_writer_bytes(echo, columns, rows)


WITH_BLOCKED_IMPORTS = """
import sys


class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath" or (name + ".").startswith("scipy.integrate."):
            raise ImportError(f"{name} is not installed")


sys.meta_path.insert(0, Blocked())
import fracdiff, fracdiff.cli
assert "mpmath" not in sys.modules
sys.exit(fracdiff.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)
"""


def test_import_leaves_mpmath_unloaded(tmp_path):
    # mpmath is a test dependency only, and scipy.integrate is not needed at
    # all: the package imports, runs a config (fitting an L0 table), builds a
    # stability table and dumps its kernels where importing either fails
    src = os.path.dirname(os.path.dirname(fracdiff.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(TINY)
    for args in ([], ["run", str(cfg_file), "--out-dir", str(tmp_path / "run")],
                 ["stability", "--n", "21", "--out-dir", str(tmp_path / "stab")],
                 ["kernels", "dump", "--out-dir", str(tmp_path / "kernels")]):
        done = subprocess.run([sys.executable, "-c", WITH_BLOCKED_IMPORTS, *args], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (args, done.stderr)
    assert (tmp_path / "run" / "report.csv").exists()
    assert (tmp_path / "stab" / "stability.csv").exists()
    assert (tmp_path / "kernels" / "kernels.csv").exists()


# --- table layout of the integrating studies --------------------------------

LAYOUT = "scheme = dd\nc = 5\nn = 51\ndt = 2e-3\nt0 = 0.5\ntf = 0.508\n"
COLUMNS = ["scheme", "beta", "param_name", "param", "rel_l1", "p", "drift"]


def _table(tmp_path, text):
    (path,) = [f for f in run(parse_config(text, {"out_dir": str(tmp_path)}))
               if not f.endswith("solution.csv")]
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _h(level):
    cfg = parse_config(LAYOUT)
    return 2.0 * cfg.half_width() / ((cfg.n - 1) * 2 ** level)


@pytest.mark.parametrize("study,extra,name,params,first_three", [
    ("single", "", "dt", [2e-3], None),
    ("domain", "values = 3, 5, 8\n", "C", [3.0, 5.0, 8.0], None),
    ("space", "levels = 4\n", "h", [_h(l) for l in range(4)], "levels = 3\n"),
    ("time", "values = 4e-3, 2e-3, 1e-3, 5e-4\n", "dt", [4e-3, 2e-3, 1e-3, 5e-4],
     "values = 4e-3, 2e-3, 1e-3\n"),
], ids=["single", "domain", "space", "time"])
def test_study_table_layout(tmp_path, study, extra, name, params, first_three):
    rows = _table(tmp_path / "all", LAYOUT + f"study = {study}\n" + extra)
    assert rows[0] == COLUMNS
    runs = rows[1:len(params) + 1]
    assert [(r[0], r[1], r[2], r[3]) for r in runs] == [
        ("dd", "0.5", name, format(v, ".17g")) for v in params]
    assert all(r[5] == "" and float(r[4]) > 0 and math.isfinite(float(r[6])) for r in runs)
    if first_three is None:
        assert len(rows) == len(params) + 1
        return
    # one p row, last, at the first run's parameter, from the first three runs
    (p_row,) = rows[len(params) + 1:]
    assert p_row[:4] == ["dd", "0.5", name, format(params[0], ".17g")]
    assert (p_row[4], p_row[6]) == ("", "")
    three = _table(tmp_path / "three", LAYOUT + f"study = {study}\n" + first_three)
    assert len(three) == 5 and p_row[5] == three[-1][5]
