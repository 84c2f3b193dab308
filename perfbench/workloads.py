"""Workloads of the benchmark, their output checks, and what each metric
should move.

A unit is one ``fracdiff.experiments.run(cfg)`` call on a config built by
``parse_config``, the path the ``fracdiff`` CLI takes.  A pass runs every
unit of a workload once.  ``--seed`` sets the order of the units within
each pass.  The config ``seed`` (the start vector of power iteration) stays
at the CLI default 0: the number of power iterations, and with it the time
of a stability table, changes by about 10% from one start vector to another,
which would hide regressions of that size.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

# acceptance tolerances of the program's own criteria
REL_L1_TOL = 1e-2          # criterion 6
DRIFT_TOL = 1e-12          # criterion 5; DD drift is physical outflow
STABILITY_DEV_TOL = 0.05   # criterion 2
STABILITY_TABLE = {(0.1, "dd"): 4.81, (0.1, "fpse"): 7.05, (0.1, "kpse"): 2.25,
                   (0.5, "dd"): 5.25, (0.5, "fpse"): 8.83, (0.5, "kpse"): 2.17,
                   (0.9, "dd"): 5.43, (0.9, "fpse"): 10.5, (0.9, "kpse"): 2.04}


@dataclass(frozen=True)
class Unit:
    name: str
    config: str                # config document, as a config file holds it
    overrides: tuple = ()      # (key, value) pairs, as the CLI passes them

    def particle_updates(self, cfg, power_iters: int) -> int:
        """Particles times operator applications: RK1 steps, or power
        iterations in the stability study."""
        if cfg.study.value == "stability":
            return cfg.n * power_iters
        return cfg.n * round((cfg.tf - cfg.t0) / cfg.dt)


@dataclass(frozen=True)
class Workload:
    why: str
    units: tuple[Unit, ...]
    tiny_units: tuple[Unit, ...]   # seconds-long variant for smoke.py

    def order(self, seed: int, pass_index: int, tiny: bool) -> list[Unit]:
        units = list(self.tiny_units if tiny else self.units)
        random.Random(seed * 1000003 + pass_index).shuffle(units)
        return units


def _single(scheme: str, steps: str, **overrides) -> Unit:
    return Unit(scheme, f"scheme = {scheme}\n{steps}\n",
                tuple(sorted(overrides.items())))


_RK1_DESK = "dt = 5e-5\nt0 = 0.5\ntf = 0.6"       # 2000 steps
_RK1_PROD = "dt = 5e-5\nt0 = 0.5\ntf = 0.51"      # 200 steps
_GPSE = "dt = 1e-2\nt0 = 0.5\ntf = 1.5"           # 100 steps
_RK1_TINY = "dt = 5e-5\nt0 = 0.5\ntf = 0.501"     # 20 steps
_GPSE_TINY = "dt = 1e-2\nt0 = 0.5\ntf = 0.6"      # 10 steps
_REFERENCE_SMALL = {"c": 20.0, "n": 4001}          # the CLI's preset

WORKLOADS = {
    "desk-run": Workload(
        why="reference-small preset, one unit per scheme: the paper's desk-scale "
            "rerun, where the Green function (L0 band, rel_l1 quad, exact column) "
            "does most of the work",
        units=tuple(_single(s, _RK1_DESK, **_REFERENCE_SMALL)
                    for s in ("dd", "fpse", "kpse"))
        + (_single("gpse", _GPSE, **_REFERENCE_SMALL),),
        tiny_units=tuple(_single(s, _RK1_TINY, c=20.0, n=401)
                         for s in ("dd", "fpse", "kpse"))
        + (_single("gpse", _GPSE_TINY, c=20.0, n=401),),
    ),
    "production-steps": Workload(
        why="production geometry (C=160, N=32001), 200 RK1 steps per rate "
            "scheme and 100 GPSE steps: large-N FFT Toeplitz matvecs do most of the work",
        units=tuple(_single(s, _RK1_PROD) for s in ("dd", "fpse", "kpse"))
        + (_single("gpse", _GPSE),),
        tiny_units=tuple(_single(s, _RK1_TINY, c=40.0, n=801)
                         for s in ("dd", "fpse", "kpse"))
        + (_single("gpse", _GPSE_TINY, c=40.0, n=801),),
    ),
    "stability-table": Workload(
        why="the 9-row stability table at n=2001: tens of thousands of "
            "power-iteration matvecs at small N, no stepping",
        units=(Unit("stability", "study = stability\n", (("n", 2001),)),),
        tiny_units=(Unit("stability", "study = stability\n", (("n", 201),)),),
    ),
}

# which end-to-end metric, on which workload, each layer's metrics should move
LAYER_MOVES = {
    "greens": "pass_s and cold_pass_s on desk-run; characteristic_width (R_alpha) "
              "also pass_s on stability-table",
    "specfun": "cold_pass_s and pass_s on production-steps (table builds)",
    "kernels": "cold_pass_s and pass_s on production-steps (table builds)",
    "field": "pass_s on desk-run",
    "schemes": "particle_steps_per_s on production-steps; pass_s on stability-table",
    "timeint": "particle_steps_per_s on production-steps; pass_s on stability-table",
    "analysis": "pass_s on desk-run",
    "experiments": "pass_s on production-steps (32001-row snapshot) and desk-run",
    "<layer>.errors": "failed units (fail_ratio)",
    "trace.overhead_s": "nothing: the cost of tracing itself",
}


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_outputs(files: list[str]) -> tuple[list[str], dict[str, float]]:
    """Problems found in one unit's CSVs, and its accuracy figures."""
    problems, figures = [], {}
    for path in files:
        if path.endswith("report.csv"):
            for row in _rows(path):
                rel_l1, drift = float(row["rel_l1"]), float(row["drift"])
                figures["rel_l1"] = max(figures.get("rel_l1", 0.0), rel_l1)
                if not rel_l1 <= REL_L1_TOL:
                    problems.append(f"{row['scheme']}: rel_l1 {rel_l1:.3e} > {REL_L1_TOL}")
                if row["scheme"] != "dd" and not drift <= DRIFT_TOL:
                    problems.append(f"{row['scheme']}: drift {drift:.3e} > {DRIFT_TOL}")
        elif path.endswith("stability.csv"):
            for row in _rows(path):
                ref = STABILITY_TABLE[(round(float(row["beta"]), 6), row["scheme"])]
                dev = abs(float(row["a"]) / ref - 1.0)
                figures["stability_dev"] = max(figures.get("stability_dev", 0.0), dev)
                if not dev <= STABILITY_DEV_TOL:
                    problems.append(f"beta={row['beta']} {row['scheme']}: a={row['a']} "
                                    f"is {100 * dev:.2f}% off the paper's {ref}")
    if not figures:
        problems.append(f"no report.csv or stability.csv among {files}")
    return problems, figures
