"""Experiment driver: configs, studies, CSV artifacts.

Configs are flat ``key = value`` text (``#`` comments).  Defaults reproduce
the reference case: beta = 0.5, C = 160 (so D ~ 357.5), N = 32001,
overlap = 2, RK1 with dt = 5e-5, from t0 = 0.5 to tf = 1.5.

Outputs are CSV files; every file starts with ``#``-prefixed lines echoing
the full configuration and the code version, and numbers are written with 17
significant digits so reruns can be compared bit for bit.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .analysis import nested_levels, rel_l1_error, self_convergence_order
from .errors import ConfigError
from .field import DomainSpec, ParticleField, init_uniform, total_strength
from .greens import FractionalOrder, characteristic_width, green_function
from .kernels import KernelKind, KernelSpec, scaled
from .schemes import SchemeKind
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
    seed: int = 0
    experimental: bool = False

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
        return {
            "scheme": self.scheme.value,
            "beta": self.beta,
            "c": self.c,
            "d": self.half_width(),
            "n": self.n,
            "overlap": self.overlap,
            "integrator": f"rk{self.integrator.value}",
            "dt": self.dt,
            "t0": self.t0,
            "tf": self.tf,
            "study": self.study.value,
            "values": ",".join(repr(v) for v in self.values) if self.values else "",
            "levels": self.levels,
            "d_eps_factor": self.d_eps_factor,
            "seed": self.seed,
            "experimental": self.experimental,
        }


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
    "seed": int,
    "experimental": lambda s: s.lower() in ("1", "true", "yes", "on"),
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
    provided = frozenset(raw)
    if raw.get("scheme") is SchemeKind.GPSE:
        if "overlap" in provided:
            raise ConfigError(
                "overlap: GPSE derives epsilon from dt (eps = dt^{1/alpha}); "
                "an independent smoothing length cannot be set"
            )
        raw.setdefault("dt", 1e-2)
    cfg = ExperimentConfig(**raw)
    _validate(cfg, provided)
    return cfg


def _validate(cfg: ExperimentConfig, provided: frozenset):
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
    if cfg.scheme is SchemeKind.RLPSE and not cfg.experimental:
        raise ConfigError("scheme: rlpse is experimental; set experimental=true to enable")
    if cfg.d is not None and cfg.d <= 0:
        raise ConfigError(f"d: must be positive, got {cfg.d}")
    if cfg.c <= 0:
        raise ConfigError(f"c: must be positive, got {cfg.c}")
    if cfg.t0 <= 0:
        raise ConfigError(f"t0: must be positive, got {cfg.t0}")
    if cfg.d_eps_factor <= 0:
        raise ConfigError(f"d_eps_factor: must be positive, got {cfg.d_eps_factor}")
    if cfg.levels < 3:
        raise ConfigError(f"levels: need at least 3, got {cfg.levels}")
    if cfg.study in (StudyKind.SINGLE, StudyKind.DOMAIN_SWEEP, StudyKind.SPACE_SWEEP,
                     StudyKind.TIME_SWEEP):
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
        for c in _sweep_values(cfg):
            if not c > 0:
                raise ConfigError(f"values: every C must be positive, got {c}")
            if _domain_sweep_n(cfg, c) < 3:
                raise ConfigError(f"values: C = {c} leaves fewer than 3 particles "
                                  f"at the sweep's fixed spacing")


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


def _write_csv(path: str, echo: dict, columns: list[str], rows) -> str:
    """Echo header, then one line per row, streamed.

    Lines end in CRLF, as csv.writer ends them.  No field (numbers, scheme
    and kernel names, column names) holds a comma, quote or line break, so
    none is quoted.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# fracdiff {__version__}\n")
        for key, value in echo.items():
            fh.write(f"# {key} = {_fmt(value)}\n")
        fh.write(",".join(columns) + "\r\n")
        # one '%' per line: _fmt cell by cell is about 15% slower on 32001 rows
        fh.writelines(_line_format(tuple(map(type, row))) % tuple(row) for row in rows)
    return path


def _build_field(cfg: ExperimentConfig, c: float | None = None,
                 n: int | None = None) -> ParticleField:
    order = cfg.order
    domain = DomainSpec(half_width_D=cfg.half_width(c), n_particles=n or cfg.n,
                        width_rule_C=cfg.c if cfg.d is None else None)
    overlap = cfg.overlap
    f = init_uniform(domain, order, overlap,
                     lambda x: green_function(order, x, cfg.t0))
    if cfg.scheme is SchemeKind.GPSE:
        # epsilon is per-step (dt^{1/alpha}); the field value is unused but
        # kept consistent with it for the snapshot header
        f = replace(f, epsilon=cfg.dt ** order.gamma)
    return f


def _run_one(cfg: ExperimentConfig, c: float | None = None, n: int | None = None):
    f0 = _build_field(cfg, c=c, n=n)
    spec = IntegratorSpec(cfg.integrator, cfg.dt, cfg.t0, cfg.tf)
    f1 = integrate(f0, cfg.scheme, spec)
    d_eps = cfg.d_eps_factor * cfg.r_alpha()
    err = rel_l1_error(f1, cfg.tf, d_eps)
    drift = abs(total_strength(f1) - total_strength(f0)) / abs(total_strength(f0))
    return f0, f1, err, drift


def _snapshot_rows(field: ParticleField, t: float, order: FractionalOrder):
    exact = green_function(order, field.positions, t)
    # Python floats: iterating the arrays would build slower numpy scalars
    return zip(field.positions.tolist(), field.strengths.tolist(), exact.tolist())


def run(cfg: ExperimentConfig) -> list[str]:
    """Execute the configured study; returns the list of files written."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    echo = cfg.echo()
    out = []

    def path(name: str) -> str:
        return os.path.join(cfg.out_dir, name)

    if cfg.study is StudyKind.SINGLE:
        f0, f1, err, drift = _run_one(cfg)
        snap_echo = {"beta": cfg.beta, "t": cfg.tf, "n": len(f1),
                     "d": cfg.half_width(), "epsilon": f1.epsilon, **echo}
        out.append(_write_csv(path("solution.csv"), snap_echo,
                              ["x", "u", "u_exact"],
                              _snapshot_rows(f1, cfg.tf, cfg.order)))
        out.append(_write_csv(path("report.csv"), echo,
                              ["scheme", "beta", "param_name", "param",
                               "rel_l1", "p", "drift"],
                              [[cfg.scheme.value, cfg.beta, "dt", cfg.dt,
                                err, "", drift]]))
    elif cfg.study is StudyKind.DOMAIN_SWEEP:
        rows = []
        for c in _sweep_values(cfg):
            _, _, err, drift = _run_one(cfg, c=c, n=_domain_sweep_n(cfg, c))
            rows.append([cfg.scheme.value, cfg.beta, "C", c, err, "", drift])
        out.append(_write_csv(path("domain_sweep.csv"), echo,
                              ["scheme", "beta", "param_name", "param",
                               "rel_l1", "p", "drift"], rows))
    elif cfg.study is StudyKind.SPACE_SWEEP:
        rows, fields, params = [], [], []
        for lvl in range(cfg.levels):
            n = (cfg.n - 1) * 2 ** lvl + 1
            _, f1, err, drift = _run_one(cfg, n=n)
            h = 2.0 * cfg.half_width() / (n - 1)
            fields.append(f1)
            params.append(h)
            rows.append([cfg.scheme.value, cfg.beta, "h", h, err, "", drift])
        p = self_convergence_order(nested_levels(fields[:3], params[:3]))
        rows.append([cfg.scheme.value, cfg.beta, "h", params[0], "", p, ""])
        out.append(_write_csv(path("space_sweep.csv"), echo,
                              ["scheme", "beta", "param_name", "param",
                               "rel_l1", "p", "drift"], rows))
    elif cfg.study is StudyKind.TIME_SWEEP:
        values = _sweep_values(cfg)
        rows, fields = [], []
        for dt in values:
            sub = replace(cfg, dt=dt)
            _, f1, err, drift = _run_one(sub)
            fields.append(f1)
            rows.append([cfg.scheme.value, cfg.beta, "dt", dt, err, "", drift])
        p = self_convergence_order(nested_levels(fields[:3], list(values[:3])))
        rows.append([cfg.scheme.value, cfg.beta, "dt", values[0], "", p, ""])
        out.append(_write_csv(path("time_sweep.csv"), echo,
                              ["scheme", "beta", "param_name", "param",
                               "rel_l1", "p", "drift"], rows))
    elif cfg.study is StudyKind.STABILITY:
        rows = []
        for beta in _STABILITY_BETAS:
            sub = replace(cfg, beta=beta)
            f = _build_field(sub)
            for scheme in _STABILITY_SCHEMES:
                rep = power_iteration_min_eig(f, scheme, seed=cfg.seed)
                rows.append([beta, scheme.value, len(f), rep.lambda_min,
                             rep.a_constant])
        out.append(_write_csv(path("stability.csv"), echo,
                              ["beta", "scheme", "n", "lambda_min", "a"], rows))
    elif cfg.study is StudyKind.KERNELS:
        rows = []
        r = np.concatenate([np.arange(0.0, 10.0, 0.05),
                            np.geomspace(10.0, 100.0, 120)])
        for beta in _STABILITY_BETAS:
            order = FractionalOrder.from_beta(beta)
            for kind in _KERNEL_DUMP_KINDS:
                spec = KernelSpec(kind, order, 1.0)
                vals = np.asarray(scaled(spec, r))
                rows.extend([kind.value, beta, ri, vi] for ri, vi in zip(r, vals))
        out.append(_write_csv(path("kernels.csv"), echo,
                              ["kind", "beta", "r", "value"], rows))
    else:  # pragma: no cover
        raise ConfigError(f"unhandled study {cfg.study}")
    return out
