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
from fracdiff import __version__, experiments
from fracdiff.cli import main
from fracdiff.errors import ConfigError, DomainError
from fracdiff.experiments import PRESETS, _build_field, parse_config, run
from fracdiff.field import _centers
from fracdiff.greens import green_function, green_function_symmetric
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


def test_gpse_rejects_rk2():
    # a GPSE step is one exchange: rk2 ran RK1 but was echoed into the CSVs
    parse_config("scheme = gpse\nintegrator = rk1\n")
    with pytest.raises(ConfigError, match="^integrator: "):
        parse_config("scheme = gpse\nintegrator = rk2\n")


def test_even_count_rejected():
    with pytest.raises(ConfigError, match="n"):
        parse_config("n = 32002")


def test_unknown_key_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="unknown key: frobnicate"):
        parse_config("frobnicate = 1")
    # power iteration always starts from the symbol's extremal mode: seed is
    # no key or option
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


# one small single run per scheme (GPSE's step sets its own eps)
SMALL = {s: f"scheme = {s}\nc = 5\nn = 201\ndt = 1e-3\nt0 = 0.5\ntf = 0.52\n"
         for s in ("dd", "fpse", "kpse")}
SMALL["gpse"] = "scheme = gpse\nc = 5\nn = 201\ndt = 1e-2\nt0 = 0.5\ntf = 0.6\n"


def _count_builds(monkeypatch) -> list:
    """The scheme of every operator schemes._operator builds from here on."""
    import fracdiff.schemes as schemes
    built, build = [], schemes._build_operator

    def build_counted(field, kind):
        built.append(kind.value)
        return build(field, kind)
    monkeypatch.setattr(schemes, "_build_operator", build_counted)
    return built


@pytest.mark.parametrize("scheme", ["dd", "fpse", "kpse", "gpse"])
def test_single_run_builds_its_operator_once(tmp_path, monkeypatch, scheme):
    # integrate steps with the operator and reads its spectral interval off
    # the same build
    built = _count_builds(monkeypatch)
    run(parse_config(SMALL[scheme], {"out_dir": str(tmp_path)}))
    assert built == [scheme]


def test_stability_table_builds_each_operator_once(tmp_path, monkeypatch):
    # power iteration's matvec and its start vector share one build per row
    built = _count_builds(monkeypatch)
    run(parse_config("study = stability", {"n": 201, "out_dir": str(tmp_path)}))
    assert sorted(built) == sorted(3 * ["dd", "fpse", "kpse"])


REUSE_ROUND = """
import sys
from fracdiff.experiments import parse_config, run
for out, text in zip(sys.argv[1::2], sys.argv[2::2]):
    run(parse_config(text, {"out_dir": out}))
"""


def test_workspace_reuse_does_not_leak_between_runs(tmp_path):
    # every operator's buffers and every recurrence's rows belong to one run:
    # the four schemes at two orders, run here and again in the reverse order
    # in a fresh process, write the same bytes
    runs = [(f"{s}-{beta}", SMALL[s] + f"beta = {beta}\n")
            for beta in (0.5, 0.3) for s in ("dd", "fpse", "kpse", "gpse")]
    for name, text in runs:
        run(parse_config(text, {"out_dir": str(tmp_path / "a" / name)}))
    args = [a for name, text in runs[::-1] for a in (str(tmp_path / "b" / name), text)]
    src = os.path.dirname(os.path.dirname(fracdiff.__file__))
    subprocess.run([sys.executable, "-c", REUSE_ROUND, *args], check=True, timeout=300,
                   env={**os.environ, "PYTHONPATH": src})
    for name, _ in runs:
        for table in ("solution.csv", "report.csv"):
            assert (tmp_path / "a" / name / table).read_bytes() == \
                (tmp_path / "b" / name / table).read_bytes()


@pytest.mark.parametrize("beta", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("n", [3, 201, 4001])
def test_half_grid_green_equals_full_grid(tmp_path, n, beta):
    # the initial strengths, the snapshot's u_exact and rel_l1's exact values
    # are evaluated on the non-negative half of the grid and mirrored, to the bit
    text = f"beta = {beta}\nn = {n}\ndt = 1e-3\nt0 = 0.5\ntf = 0.501\n"
    cfg = parse_config(text, {"out_dir": str(tmp_path)})
    f0 = _build_field(cfg, None, n)
    assert np.array_equal(f0.strengths, green_function(cfg.order, f0.positions, cfg.t0))
    x = f0.positions
    for d_eps in (0.0, 0.3 * cfg.half_width(), cfg.half_width()):
        inner = x[np.abs(x) <= d_eps]  # rel_l1_error's set
        assert np.array_equal(green_function_symmetric(cfg.order, inner, cfg.tf),
                              green_function(cfg.order, inner, cfg.tf))
    run(cfg)
    with open(tmp_path / "solution.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    x = np.array([float(r["x"]) for r in rows])
    exact = np.array([float(r["u_exact"]) for r in rows])
    assert np.array_equal(x, f0.positions)
    assert np.array_equal(exact, green_function(cfg.order, f0.positions, cfg.tf))


@pytest.mark.parametrize("stepping", [False, True])
@pytest.mark.parametrize("scheme,integrator", [
    ("dd", "rk1"), ("dd", "rk2"), ("fpse", "rk1"), ("fpse", "rk2"),
    ("kpse", "rk1"), ("kpse", "rk2"), ("gpse", "rk1")])
def test_integrate_keeps_the_start_mirror_symmetric(monkeypatch, scheme, integrator,
                                                    stepping):
    # the start is even to the bit, and the operator's product of an even or
    # odd vector is folded about the centre and mirrored, so every iterate of
    # the recurrence or of stepping is exactly even too
    from fracdiff import timeint
    if stepping:
        monkeypatch.setattr(timeint, "_chebyshev_run", lambda *args: None)
    cfg = parse_config(f"scheme = {scheme}\nintegrator = {integrator}\nc = 5\nn = 201\n"
                       "dt = 1e-3\nt0 = 0.5\ntf = 0.52\n")
    f0 = _build_field(cfg, None, cfg.n)
    u = timeint.integrate(f0, cfg.scheme,
                          timeint.IntegratorSpec(cfg.integrator, cfg.dt, cfg.t0, cfg.tf)).strengths
    assert not np.array_equal(u, f0.strengths)
    assert np.array_equal(u, u[::-1])


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


@pytest.mark.parametrize("line", ["c = 1e-189", "d = 1e-305"])
def test_cli_rejects_domain_sweep_whose_spacing_underflows(tmp_path, capsys, line):
    # the half-width is positive, but over 1e19 particles the spacing
    # 2 (half-width)/(n - 1) underflowed to 0, and planning the sweep divided
    # by it (ZeroDivisionError, a traceback)
    cfg_file = tmp_path / "domain.cfg"
    cfg_file.write_text(f"study = domain\nbeta = 0.3\nn = 10000000000000000001\n{line}\n"
                        "dt = 1\nt0 = 1\ntf = 1e-152\nd_eps_factor = 1\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: " + line.split(" =")[0] + ": ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines,key", [
    ("dt = 0.03\nt0 = 0.5\ntf = 0.6\n", "dt"),    # 3.33... steps
    ("dt = -0.01\nt0 = 0.5\ntf = 0.6\n", "dt"),
    ("dt = 0.01\nt0 = 0.5\ntf = 0.4\n", "tf"),    # tf before t0
    ("study = time\nt0 = 0.5\ntf = 0.4\n", "tf"),
    ("study = time\nvalues = 0.03, 0.015, 0.0075\nt0 = 0.5\ntf = 0.6\n", "values"),
], ids=["dt-not-dividing", "dt-negative", "tf-before-t0", "time-tf-before-t0",
        "time-not-dividing"])
def test_cli_step_errors_name_their_key(tmp_path, capsys, lines, key):
    cfg_file = tmp_path / "steps.cfg"
    cfg_file.write_text("scheme = kpse\nc = 5\nn = 21\n" + lines)
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    # one key, not a sweep's key in front of the step's own
    assert err.count(": ") == 2
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


def test_space_levels_past_memory_rejected_and_levels_that_fit_accepted():
    # 50 * 2^39 + 1 = 2.7e13 particles at the finest level: under the index
    # cap, but at over 90 bytes a particle far more memory than any machine has
    assert parse_config("study = space\nn = 51\nc = 5\nlevels = 5\n").levels == 5
    with pytest.raises(ConfigError, match="^levels: "):
        parse_config("study = space\nn = 51\nc = 5\nlevels = 40\n")


@pytest.mark.parametrize("study", ["single", "time", "stability"])
def test_cli_rejects_n_past_the_index_cap(tmp_path, capsys, study):
    # accepted, then np.arange raised "Maximum allowed size exceeded" in
    # field._centers: a ValueError traceback and exit 1
    cfg_file = tmp_path / "huge.cfg"
    cfg_file.write_text(f"study = {study}\nn = 10000000000000000001\nc = 1e16\n")
    assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error: n: ")
    assert not (tmp_path / "out").exists()


UNDER_2_GIB = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))
import fracdiff.cli
sys.exit(fracdiff.cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("lines,key", [
    ("study = domain\nscheme = kpse\nn = 21\nd = 0.001\nt0 = 1000\ntf = 1000.8\n"
     "dt = 0.1\n", "values"),  # 34M to 546M particles
    ("study = space\nn = 51\nc = 5\nlevels = 40\n", "levels"),  # up to 2.7e13
], ids=["domain", "space"])
def test_cli_rejects_grids_past_memory(tmp_path, lines, key):
    # each was accepted, and ended in MemoryError at best or the OOM killer at
    # worst: under this limit the domain sweep ran for seconds, then printed
    # "error: out of memory" and left an empty out dir.  Never run these
    # configs without a limit
    src = os.path.dirname(os.path.dirname(fracdiff.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    cfg_file = tmp_path / "big.cfg"
    cfg_file.write_text(lines)
    done = subprocess.run([sys.executable, "-c", UNDER_2_GIB, "run", str(cfg_file),
                           "--out-dir", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"config error: {key}: ")
    assert not (tmp_path / "out").exists()


RUN_PEAKS = """
import sys, tracemalloc
from fracdiff.errors import AccuracyError
from fracdiff.experiments import _STABILITY_SCHEMES, _build_field, _run_one, parse_config
from fracdiff.timeint import power_iteration_min_eig
n = int(sys.argv[1])
# 20 steps take the Chebyshev recurrence, 3 are too few for it and step
for what, tf in (("run", "0.500004"), ("step", "0.5000006")):
    for scheme in ("dd", "fpse", "kpse", "gpse"):
        cfg = parse_config(f"scheme = {scheme}\\nn = {n}\\ndt = 2e-7\\ntf = {tf}\\n")
        tracemalloc.start()
        _run_one(cfg, None, n)
        print(what, scheme, tracemalloc.get_traced_memory()[1] / n)
        tracemalloc.stop()
cfg = parse_config(f"study = stability\\nn = {n}\\n")
for scheme in _STABILITY_SCHEMES:
    tracemalloc.start()
    try:  # the peak comes with the first whole-vector products
        power_iteration_min_eig(_build_field(cfg, None, n), scheme, max_iter=3)
    except AccuracyError:
        pass
    print("stability", scheme.value, tracemalloc.get_traced_memory()[1] / n)
    tracemalloc.stop()
"""


@pytest.mark.parametrize("n", [100001, 1000001])
def test_memory_count_bounds_each_schemes_peak(n):
    # each scheme's count is a lower bound on a run's live arrays, within 10%,
    # so that _validate never rejects a grid that fits: tracemalloc's peak of
    # one 20-step run (build, recurrence, error), of one 3-step run (build,
    # stepping, error) and of a stability row's first power iterations, per
    # particle, lies in [count, count / 0.9]
    src = os.path.dirname(os.path.dirname(fracdiff.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", RUN_PEAKS, str(n)], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    counts = {"run": experiments._RUN_BYTES, "step": experiments._RUN_BYTES,
              "stability": experiments._STABILITY_BYTES}
    lines = [line.split() for line in out.splitlines()]
    assert [(what, scheme) for what, scheme, _ in lines] == [
        *(("run", s.value) for s in SchemeKind),
        *(("step", s.value) for s in SchemeKind),
        *(("stability", s.value) for s in experiments._STABILITY_SCHEMES)]
    for what, scheme, peak in lines:
        count = counts[what][SchemeKind(scheme)]
        assert count <= float(peak) <= count / 0.9, (what, scheme, peak, count)


def test_config_past_memory_names_scheme_bytes_and_memory(monkeypatch):
    # each scheme's own count: at 1e6 bytes, 10001 particles fit a DD run
    # (92 bytes each) and not an FPSE one (128), and 9001 fit a DD stability
    # row (100) and not an FPSE one (124)
    monkeypatch.setattr(experiments, "_memory_bytes", lambda: 10 ** 6)
    monkeypatch.setattr(experiments, "_resident_bytes", lambda: 0)
    assert parse_config("scheme = dd\nn = 10001\n").n == 10001
    with pytest.raises(ConfigError) as exc:
        parse_config("scheme = fpse\nn = 10001\n")
    assert str(exc.value) == ("n: the grid has 1e+04 particles, for which a fpse run needs "
                              "over 1.28e+06 bytes; 1e+06 are available")
    with pytest.raises(ConfigError) as exc:
        parse_config("study = stability\nn = 9001\n")
    assert str(exc.value) == ("n: the grid has 9e+03 particles, for which a fpse stability "
                              "row needs over 1.12e+06 bytes; 1e+06 are available")
    # what the process holds comes first: the DD run's 920,092 bytes no
    # longer fit beside 100,000 resident ones
    monkeypatch.setattr(experiments, "_resident_bytes", lambda: 10 ** 5)
    with pytest.raises(ConfigError) as exc:
        parse_config("scheme = dd\nn = 10001\n")
    assert str(exc.value) == ("n: the grid has 1e+04 particles, for which a dd run needs "
                              "over 1.02e+06 bytes; 1e+06 are available")


def test_resident_bytes_reads_this_process():
    # statm's resident pages times the page size: a live interpreter with
    # numpy holds megabytes, and far less than the machine
    resident = experiments._resident_bytes()
    if os.path.exists("/proc/self/statm"):
        assert 10 ** 6 < resident < experiments._memory_bytes()
    else:
        assert resident == 0


@pytest.mark.parametrize("scheme", [s.value for s in SchemeKind])
def test_cli_tiny_t0_exits_0_or_names_the_overflow(tmp_path, capsys, scheme):
    # the start peaks near t0^(-1/alpha) L0(0), about 1e133: the first product
    # overflows and inf - inf left a NaN, whose warning, under -W error,
    # ended DD, FPSE and KPSE in a traceback and exit 1
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text(f"scheme = {scheme}\nt0 = 1e-200\ntf = 2e-200\ndt = 1e-200\n"
                        "c = 5\nn = 101\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 3), err
    if code == 3:
        assert err == (f"numerical failure: {scheme}: the operator's product of the start "
                       "is not finite (it overflows float range) at step 1 of 1 "
                       "(dt=1e-200)\n")


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


@pytest.mark.parametrize("tf", ["1e99", "2e99"])
def test_cli_power_iteration_stops_at_first_nonfinite_iterate(tmp_path, capsys, tf):
    # the first product of a beta = 0.9 operator is not finite: DD's at
    # tf = 1e99, and KPSE's at 2e99, where DD reaches lambda = -3.5e307.
    # Iterating on from there divided by a NaN norm and ended in "did not
    # converge" 50000 steps later.  The infs meet as NaN inside the
    # transforms, which must not warn before the iterate is reported
    cfg_file = tmp_path / "nan.cfg"
    cfg_file.write_text(f"study = stability\nbeta = 0.01\nn = 7\nc = 1e-214\ntf = {tf}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: power iteration iterate 1 is not finite\n")


def test_stability_table_near_the_float_limit_matches_dense_eigenvalues(tmp_path):
    # lambda_min reaches -2.2e307 on the KPSE beta = 0.9 row, whose row sums
    # (up to 1.6e307) stay finite through the folded product of the even
    # vector of ones.  The dense A overflows at this eps, so it is assembled
    # on the grid scaled by s = 2^k, which leaves every kernel argument
    # (x_i - x_j)/eps bit for bit, and A = s^alpha A_s
    from dataclasses import replace

    from fracdiff.experiments import _STABILITY_SCHEMES, _runs

    from oracles import assemble_matrix
    text = "study = stability\nbeta = 0.01\nn = 7\nc = 1e-214\ntf = 1e100\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        files = run(parse_config(text, {"out_dir": str(tmp_path)}))
    with open(files[0], newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    cfg = parse_config(text)
    fields = [_build_field(sub, c, n) for _, sub, c, n in _runs(cfg)]
    assert len(rows) == 9 and len(fields) == 3
    for row, (f, kind) in zip(rows, [(f, k) for f in fields for k in _STABILITY_SCHEMES]):
        assert row["scheme"] == kind.value
        k = -math.frexp(f.epsilon)[1]
        scaled = replace(f, h=math.ldexp(f.h, k), epsilon=math.ldexp(f.epsilon, k))
        lam = np.linalg.eigvals(assemble_matrix(scaled, kind)).real.min()
        lam *= 2.0 ** (k * f.order.alpha)
        assert abs(float(row["lambda_min"]) / lam - 1.0) <= 1e-6
        assert math.isfinite(float(row["a"]))


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


def _mirror(upper):
    """The whole table of a snapshot's upper halves x, u, u_exact."""
    x, *even = upper
    return [np.concatenate([-x[:0:-1], x]), *(np.concatenate([v[:0:-1], v]) for v in even)]


def test_write_csv_matches_csv_writer(tmp_path):
    import fracdiff.experiments as ex
    echo = {"beta": 0.5, "n": 201, "scheme": "kpse", "values": ""}
    specials = [0.0, -0.0, 5e-320, 1e300, -1e300, -2.5e-7, 1 / 3, -math.pi, 1e-5,
                math.inf, -math.inf, math.nan]
    # 8197 rows: x is a float64 array; at rows 3, 4, 100, 4095, 4096 and
    # 8191 u holds "" and u_exact an int, and at row 4097 u holds an
    # np.float64
    n = 8197
    u = [-i * 1e-300 for i in range(n)]
    u_exact = [float(i) for i in range(n)]
    for i in (3, 4, 100, 4095, 4096, 8191):
        u[i], u_exact[i] = "", i
    u[4097], u_exact[4097] = np.float64(-1.5), 2.0
    # float64 arrays of 8197 and 4097 cells that hold every special value
    # (written by '%' itself) among random bit patterns
    bits = np.random.default_rng(20).integers(0, 2 ** 64, 2 * n, dtype=np.uint64)
    noisy = bits.view(np.float64)
    noisy[::997] = np.resize(specials, len(noisy[::997]))
    tables = {
        "floats.csv": (["x", "u", "u_exact"],
                       [np.array(specials), specials, [np.float64(v) for v in specials]]),
        "report.csv": (list("abcdefg"),
                       [["dd", "dd"], [0.5, 0.5], ["dt", "h"], [5e-5, 0.125],
                        [4.0732060862549886e-05, ""], ["", 1.9999999999999998], [3.7e-4, ""]]),
        "stability.csv": (list("abcde"), [[0.1], ["fpse"], [2001], [-1234.5], [7.049]]),
        "long.csv": (["x", "u", "u_exact"], [np.arange(n) / 7.0, u, u_exact]),
        "arrays.csv": (["x", "u"], [noisy[:n], noisy[n:]]),
        "short.csv": (["x", "u", "u_exact"], [noisy[:4097], noisy[-4097:], -noisy[5:4102]]),
        "empty.csv": (["x", "u", "u_exact"], [np.array([]), [], np.array([])]),
        # as the kernels table holds them: str and float lists, float64 arrays
        "kernels.csv": (["kind", "beta", "r", "value"],
                        [["gd"] * 10 + ["k"] * 9, [0.1] * 19,
                         np.append(0.05, np.tile(np.linspace(0.0, 2.0, 9), 2)),
                         np.append(-3.2e-9, -np.linspace(0.0, 2.0, 18) / 3.0)]),
    }
    for name, (names, columns) in tables.items():
        rows = list(zip(*columns))
        path = ex._write_table(str(tmp_path / name), echo, names, rows)
        with open(path, "rb") as fh:
            assert fh.read() == _csv_writer_bytes(echo, names, rows), name
    # a snapshot's upper halves, centre row first: 8197 rows, over the block
    # ends 4096 and 8192 counted from the last row down.  x holds +0 at the
    # centre and +inf at the end, and u the specials (nan among them) among
    # random bits
    c = 8197
    x = np.arange(c) * 0.1
    x[-1] = math.inf
    u = noisy[:c].copy()
    u[::997] = np.resize(specials, len(u[::997]))
    u[0] = math.pi
    for m in (2, 3, c):
        upper = [x[:m], u[:m], np.exp(-x[:m] * x[:m])]
        path = ex._write_snapshot(str(tmp_path / f"snapshot{m}.csv"), echo, upper)
        with open(path, "rb") as fh:
            assert fh.read() == _csv_writer_bytes(echo, ["x", "u", "u_exact"],
                                                  list(zip(*_mirror(upper)))), m


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # a table is written row by row and a snapshot block by block: the peak
    # of traced allocations (numpy's buffers among them) is a few blocks'
    # worth at any length
    import tracemalloc
    import fracdiff.experiments as ex
    ex._write_snapshot(str(tmp_path / "warm.csv"), {}, [np.ones(2)] * 3)  # fill the tables
    for writer in ("table", "snapshot"):
        peaks = []
        for n in (50001, 200001):
            x = _centers(n, 715.0 / (n - 1))
            columns = [x, np.exp(-x * x / 1e4) / 3.0, np.exp(-np.abs(x)) * 1e-3]
            tracemalloc.start()
            try:
                path = str(tmp_path / f"{writer}{n}.csv")
                if writer == "table":
                    ex._write_table(path, {"n": n}, ["x", "u", "u_exact"], zip(*columns))
                else:
                    ex._write_snapshot(path, {"n": n}, [v[n // 2:] for v in columns])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            with open(path, newline="") as fh:
                assert sum(1 for _ in fh) == n + 3, writer  # version, echo, names
        assert max(peaks) < 4 * 2 ** 20, (writer, peaks)
        assert peaks[1] < peaks[0] + 2 ** 18, (writer, peaks)


@pytest.mark.parametrize("scheme", sorted(SMALL))
def test_snapshot_u_is_the_runs_final_strengths(tmp_path, scheme):
    # the snapshot writes its lower rows from its upper ones: they must be
    # the run's own final strengths, every one, to the bit
    from fracdiff.experiments import _run_one
    cfg = parse_config(SMALL[scheme], {"out_dir": str(tmp_path)})
    run(cfg)
    with open(tmp_path / "solution.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    u = np.array([float(row["u"]) for row in rows])
    f1 = _run_one(cfg, None, cfg.n)[1]
    assert len(u) == cfg.n
    assert np.array_equal(u.view(np.uint64), f1.strengths.view(np.uint64))


def test_single_run_snapshot_formats_its_upper_half(tmp_path, monkeypatch):
    # the snapshot's lower rows are its upper rows' bytes: _format_g17 sees
    # the centre and the rows above it, (N + 1)/2 of each column
    import fracdiff.experiments as ex
    format_g17, seen = ex._format_g17, []
    monkeypatch.setattr(ex, "_format_g17", lambda x: seen.append(len(x)) or format_g17(x))
    cfg = parse_config(TINY, {"out_dir": str(tmp_path)})
    run(cfg)
    assert sum(seen) == 3 * (cfg.n + 1) // 2, seen


WITH_BLOCKED_IMPORTS = """
import sys


class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("mpmath", "scipy", "fractions", "decimal"):
            raise ImportError(f"{name} is not installed")


sys.meta_path.insert(0, Blocked())
import fracdiff, fracdiff.cli
assert not {"mpmath", "fractions", "decimal"} & set(sys.modules)
sys.exit(fracdiff.cli.main(sys.argv[1:]) if sys.argv[1:] else 0)
"""


def test_import_leaves_mpmath_unloaded(tmp_path):
    # mpmath and scipy are test dependencies only, and the CSV formatter's
    # power table is built from ints, not fractions or decimal: the package
    # imports, runs a config (fitting an L0 table), builds a stability table
    # and dumps its kernels where importing any of these modules fails
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
