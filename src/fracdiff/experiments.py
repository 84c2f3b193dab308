"""Experiment driver: configs, studies, CSV artifacts.

Configs are flat ``key = value`` text (``#`` comments).  Defaults reproduce
the reference case: beta = 0.5, C = 160 (so D ~ 357.5), N = 32001,
overlap = 2, RK1 with dt = 5e-5, from t0 = 0.5 to tf = 1.5.

The single, domain, space and time studies are one loop over runs
(param, config, C, n).  Each run integrates one field from t0 to tf and adds
a row (param, rel_l1, drift) to the study's one table; the space and time
sweeps close it with the self-convergence order p of their first three runs,
and a single run also writes its solution snapshot.  The stability and
kernels studies write tables of their own.

Outputs are CSV files; every file starts with ``#``-prefixed lines echoing
the full configuration and the code version, and numbers are written with 17
significant digits so reruns can be compared bit for bit.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, kernels
from .analysis import conservation_drift, rel_l1_error, self_convergence_order
from .errors import ConfigError
from .field import ParticleField, init_uniform
from .greens import FractionalOrder, characteristic_width, green_function
from .kernels import KernelKind
from .schemes import SchemeKind, rate_prefactors
from .timeint import IntegratorSpec, RKOrder, integrate, power_iteration_min_eig

__all__ = ["StudyKind", "ExperimentConfig", "parse_config", "run", "PRESETS"]

_STABILITY_BETAS = (0.1, 0.5, 0.9)
_STABILITY_SCHEMES = (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE)
_KERNEL_DUMP_KINDS = (KernelKind.GD, KernelKind.K, KernelKind.E,
                      KernelKind.F, KernelKind.KAPPA_BETA)

PRESETS = {
    # desk-scale reference: full pipeline in minutes instead of days
    "reference-small": {"c": 20.0, "n": 4001},
}


class StudyKind(enum.Enum):
    SINGLE = "single"
    DOMAIN_SWEEP = "domain"
    SPACE_SWEEP = "space"
    TIME_SWEEP = "time"
    STABILITY = "stability"
    KERNELS = "kernels"


# the integrating studies: the table each writes, and its parameter's name
_TABLES = {
    StudyKind.SINGLE: ("report.csv", "dt"),
    StudyKind.DOMAIN_SWEEP: ("domain_sweep.csv", "C"),
    StudyKind.SPACE_SWEEP: ("space_sweep.csv", "h"),
    StudyKind.TIME_SWEEP: ("time_sweep.csv", "dt"),
}
_COLUMNS = ["scheme", "beta", "param_name", "param", "rel_l1", "p", "drift"]
# numpy indexes an array's bytes with a signed machine word
_MAX_PARTICLES = sys.maxsize // 8


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: SchemeKind = SchemeKind.DD
    beta: float = 0.5
    c: float = 160.0
    d: float | None = None  # explicit half-width overrides the C rule
    n: int = 32001
    overlap: float = 2.0
    integrator: RKOrder = RKOrder.RK1
    dt: float = 5e-5
    t0: float = 0.5
    tf: float = 1.5
    study: StudyKind = StudyKind.SINGLE
    values: tuple[float, ...] | None = None
    levels: int = 3
    d_eps_factor: float = 5.0
    out_dir: str = "."

    @property
    def order(self) -> FractionalOrder:
        return FractionalOrder.from_beta(self.beta)

    def r_alpha(self) -> float:
        return characteristic_width(self.order)

    def half_width(self, c: float | None = None) -> float:
        if self.d is not None and c is None:
            return self.d
        cc = self.c if c is None else c
        return cc * self.tf ** self.order.gamma * self.r_alpha()

    def echo(self) -> dict:
        """The CSV header's config: every key but out_dir, in field order, with
        enums as the config file spells them and d the half-width in use."""
        echo = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name != "out_dir"}
        return {**echo, "scheme": self.scheme.value, "d": self.half_width(),
                "integrator": f"rk{self.integrator.value}", "study": self.study.value,
                "values": ",".join(map(repr, self.values)) if self.values else ""}


_PARSERS = {
    "scheme": lambda s: SchemeKind(s.lower()),
    "beta": float,
    "c": float,
    "d": float,
    "n": int,
    "overlap": float,
    "integrator": lambda s: RKOrder[s.upper()],
    "dt": float,
    "t0": float,
    "tf": float,
    "study": lambda s: StudyKind(s.lower()),
    "values": lambda s: tuple(float(v) for v in s.split(",") if v.strip()),
    "levels": int,
    "d_eps_factor": float,
    "out_dir": str,
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a flat key=value document into a validated ExperimentConfig."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError(f"unknown key: {key}")
        try:
            raw[key] = _PARSERS[key](value.strip())
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"invalid value for {key}: {value.strip()!r}") from exc
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _PARSERS:
                raise ConfigError(f"unknown key: {key}")
            raw[key] = value if not isinstance(value, str) else _PARSERS[key](value)
    if raw.get("scheme") is SchemeKind.GPSE:
        if "overlap" in raw:
            raise ConfigError(
                "overlap: GPSE derives epsilon from dt (eps = dt^{1/alpha}); "
                "an independent smoothing length cannot be set"
            )
        raw.setdefault("dt", 1e-2)
    cfg = ExperimentConfig(**raw)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig):
    for key in ("beta", "c", "d", "overlap", "dt", "t0", "tf", "d_eps_factor"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
    if cfg.values and not all(map(math.isfinite, cfg.values)):
        raise ConfigError(f"values: must be finite, got {cfg.values}")
    if not (0.0 < cfg.beta < 1.0):
        raise ConfigError(f"beta: must lie in (0, 1), got {cfg.beta}")
    if cfg.n % 2 == 0 or cfg.n < 3:
        raise ConfigError(f"n: even particle count {cfg.n}; an odd count >= 3 is required")
    if cfg.overlap < 1.0:
        raise ConfigError(f"overlap: must be >= 1, got {cfg.overlap}")
    for key in ("d", "c", "t0", "tf", "d_eps_factor"):
        value = getattr(cfg, key)
        if value is not None and value <= 0:
            raise ConfigError(f"{key}: must be positive, got {value}")
    if cfg.levels < 3:
        raise ConfigError(f"levels: need at least 3, got {cfg.levels}")
    if cfg.study in _TABLES:
        # validates the step count
        IntegratorSpec(cfg.integrator, cfg.dt, cfg.t0, cfg.tf)
    if cfg.study is StudyKind.TIME_SWEEP:
        values = _sweep_values(cfg)
        for dt in values:
            try:
                IntegratorSpec(cfg.integrator, dt, cfg.t0, cfg.tf)
            except ConfigError as exc:
                raise ConfigError(f"values: {exc}") from None
        # the order estimate needs three levels whose dt halves
        if len(values) < 3 or any(abs(values[i] / values[i + 1] - 2.0) > 1e-9
                                  for i in (0, 1)):
            raise ConfigError(f"values: a time sweep needs at least 3 time steps, "
                              f"the first three halving, got {values}")
    if cfg.study is StudyKind.DOMAIN_SWEEP:
        if not 0.0 < cfg.half_width() < math.inf:  # it sets the sweep's fixed spacing
            raise ConfigError(f"c: the half-width C tf^(1/alpha) R_alpha is {cfg.half_width()}")
        for c in _sweep_values(cfg):
            if not c > 0:
                raise ConfigError(f"values: every C must be positive, got {c}")
            try:
                n = _domain_sweep_n(cfg, c)
            except OverflowError:  # the half-width itself overflows
                n = math.inf
            if n < 3:
                raise ConfigError(f"values: C = {c} leaves fewer than 3 particles "
                                  f"at the sweep's fixed spacing")
            if n > _MAX_PARTICLES:
                raise ConfigError(f"values: C = {c} asks for {n:.3g} particles at the "
                                  f"sweep's fixed spacing, more than a float64 array "
                                  f"can index")
    # the finest space level has (n-1) 2^(levels-1) + 1 particles (shift capped)
    if cfg.study is StudyKind.SPACE_SWEEP and (
            (cfg.n - 1) << (min(cfg.levels, 64) - 1) >= _MAX_PARTICLES):
        raise ConfigError(f"levels: {cfg.levels} levels refine the n = {cfg.n} grid past "
                          f"what a float64 array can index")
    # every scheme prefactor must be finite and non-zero at the smoothing
    # length of every field the study builds
    schemes = _STABILITY_SCHEMES if cfg.study is StudyKind.STABILITY else (cfg.scheme,)
    for _, sub, c, n in _runs(cfg):
        eps = sub.overlap * (2.0 * sub.half_width(c) / (n - 1))
        for scheme in schemes:
            try:
                ok = all(0.0 < abs(p) < math.inf
                         for p in rate_prefactors(scheme, sub.order, eps))
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ConfigError(f"{'c' if cfg.d is None else 'd'}: the smoothing length "
                                  f"{eps:.3g} of the n = {n} grid puts a {scheme.value} "
                                  f"prefactor outside float range")


def _sweep_values(cfg: ExperimentConfig) -> tuple[float, ...]:
    """The swept C (domain) or dt (time) values, with their defaults."""
    if cfg.values:
        return cfg.values
    if cfg.study is StudyKind.DOMAIN_SWEEP:
        return (10.0, 20.0, 40.0, 80.0, 160.0)
    return (cfg.dt, cfg.dt / 2.0, cfg.dt / 4.0)


def _domain_sweep_n(cfg: ExperimentConfig, c: float) -> int:
    """Odd particle count of domain-sweep point C, at the spacing of cfg's own grid
    (N grows with the domain)."""
    h = 2.0 * cfg.half_width() / (cfg.n - 1)
    n = int(round(2.0 * cfg.half_width(c) / h)) + 1
    return n + 1 if n % 2 == 0 else n


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@functools.lru_cache(maxsize=32)
def _line_format(types: tuple) -> str:
    """'%' template of one CSV line with cells of these types, rendered as
    _fmt renders them: floats by %.17g, anything else by %s."""
    return ",".join("%.17g" if issubclass(t, float) else "%s" for t in types) + "\r\n"


_BLOCK = 4096  # rows formatted per write


def _cell_types(row) -> tuple:
    return tuple(map(type, row))


def _type_runs(block: list) -> list[tuple]:
    """(types, rows) of each run of consecutive rows in block whose cells share
    types.  A block of one run, the common case, is recognised from the types
    of its cells laid end to end, without a type tuple per row."""
    types = _cell_types(block[0])
    if (set(map(len, block)) == {len(types)} and list(map(
            type, itertools.chain.from_iterable(block))) == list(types) * len(block)):
        return [(types, block)]
    return [(key, list(run)) for key, run in itertools.groupby(block, _cell_types)]


def _write_csv(path: str, echo: dict, columns: list[str], rows) -> str:
    """Echo header, then the rows, streamed in blocks of _BLOCK.

    Each run of rows in a block whose cells share types is formatted by one
    '%' over the run's line template repeated.  Lines end in CRLF, as
    csv.writer ends them.  No field (numbers, scheme and kernel names, column
    names) holds a comma, quote or line break, so none is quoted.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(f"# fracdiff {__version__}\n")
        for key, value in echo.items():
            fh.write(f"# {key} = {_fmt(value)}\n")
        fh.write(",".join(columns) + "\r\n")
        while block := list(itertools.islice(rows, _BLOCK)):
            for types, run in _type_runs(block):
                fh.write(_line_format(types) * len(run)
                         % tuple(itertools.chain.from_iterable(run)))
    return path


def _runs(cfg: ExperimentConfig) -> list[tuple]:
    """(param, config, C, n) of each field the study builds, in table order.
    A space level's param is None: it is the h of the field it builds."""
    if cfg.study is StudyKind.KERNELS:
        return []
    if cfg.study is StudyKind.STABILITY:
        return [(beta, replace(cfg, beta=beta), None, cfg.n) for beta in _STABILITY_BETAS]
    if cfg.study is StudyKind.DOMAIN_SWEEP:
        return [(c, cfg, c, _domain_sweep_n(cfg, c)) for c in _sweep_values(cfg)]
    if cfg.study is StudyKind.SPACE_SWEEP:
        return [(None, cfg, None, (cfg.n - 1) * 2 ** lvl + 1) for lvl in range(cfg.levels)]
    if cfg.study is StudyKind.TIME_SWEEP:
        return [(dt, replace(cfg, dt=dt), None, cfg.n) for dt in _sweep_values(cfg)]
    return [(cfg.dt, cfg, None, cfg.n)]


def _build_field(cfg: ExperimentConfig, c: float | None, n: int) -> ParticleField:
    order = cfg.order
    return init_uniform(cfg.half_width(c), n, order, cfg.overlap,
                        lambda x: green_function(order, x, cfg.t0))


def _run_one(cfg: ExperimentConfig, c: float | None, n: int):
    f0 = _build_field(cfg, c, n)
    spec = IntegratorSpec(cfg.integrator, cfg.dt, cfg.t0, cfg.tf)
    f1 = integrate(f0, cfg.scheme, spec)
    d_eps = cfg.d_eps_factor * cfg.r_alpha()
    return f0, f1, rel_l1_error(f1, cfg.tf, d_eps), conservation_drift([f0, f1])


def run(cfg: ExperimentConfig) -> list[str]:
    """Execute the configured study; returns the list of files written."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    echo = cfg.echo()
    out = []
    path = functools.partial(os.path.join, cfg.out_dir)
    if cfg.study in _TABLES:
        table, param_name = _TABLES[cfg.study]
        rows, fields, params = [], [], []
        for param, sub, c, n in _runs(cfg):
            f0, f1, err, drift = _run_one(sub, c, n)
            param = f0.h if param is None else param
            fields.append(f1)
            params.append(param)
            rows.append([cfg.scheme.value, cfg.beta, param_name, param, err, "", drift])
        if cfg.study is StudyKind.SINGLE:
            snap_echo = {"beta": cfg.beta, "t": cfg.tf, "n": len(f1),
                         "d": cfg.half_width(), "epsilon": f1.epsilon, **echo}
            exact = green_function(cfg.order, f1.positions, cfg.tf)
            # Python floats: iterating the arrays would build slower numpy scalars
            out.append(_write_csv(path("solution.csv"), snap_echo, ["x", "u", "u_exact"],
                                  zip(f1.positions.tolist(), f1.strengths.tolist(),
                                      exact.tolist())))
        elif cfg.study is not StudyKind.DOMAIN_SWEEP:
            p = self_convergence_order(fields[:3], params[:3])
            rows.append([cfg.scheme.value, cfg.beta, param_name, params[0], "", p, ""])
        out.append(_write_csv(path(table), echo, _COLUMNS, rows))
    elif cfg.study is StudyKind.STABILITY:
        rows = []
        for beta, sub, c, n in _runs(cfg):
            f = _build_field(sub, c, n)
            for scheme in _STABILITY_SCHEMES:
                rep = power_iteration_min_eig(f, scheme)
                rows.append([beta, scheme.value, len(f), rep.lambda_min,
                             rep.a_constant])
        out.append(_write_csv(path("stability.csv"), echo,
                              ["beta", "scheme", "n", "lambda_min", "a"], rows))
    else:  # kernels
        rows = []
        r = np.concatenate([np.arange(0.0, 10.0, 0.05),
                            np.geomspace(10.0, 100.0, 120)])
        for beta in _STABILITY_BETAS:
            order = FractionalOrder.from_beta(beta)
            for kind in _KERNEL_DUMP_KINDS:
                vals = kernels.scaled(kind, r, order, 1.0)
                rows.extend([kind.value, beta, ri, vi] for ri, vi in zip(r, vals))
        out.append(_write_csv(path("kernels.csv"), echo,
                              ["kind", "beta", "r", "value"], rows))
    return out
