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
significant digits so reruns can be compared bit for bit.  The error
tables (report, sweeps, stability, kernels) are written row by row
(_write_table).  A snapshot is written from its run's upper half
(_write_snapshot): integrate returns a u that is even about the grid's
centre, to the bit, as are u_exact and x up to sign, so only the centre row
and the rows above it are formatted, and each row below is the bytes of its
mirror row with a '-' in front.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import os
import resource
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, kernels
from .analysis import conservation_drift, rel_l1_error, self_convergence_order
from .errors import ConfigError
from .field import ParticleField, init_uniform
from .greens import (FractionalOrder, characteristic_width, green_function,
                     green_function_symmetric)
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
# the bytes a particle of the arrays one field's run holds at its fullest:
# tracemalloc's peak at N = 1265625, whose FFT lengths take their least
# values, L = N and m = 2N.  An integrating run peaks in its operator's build,
# beside the strengths, integrate's upper half and the recurrence's rows,
# whether it then steps or not: DD, KPSE and GPSE as sigma is taken off the
# length-m spectrum, FPSE at its second sum's row sums, with both sums'
# spectra.  A stability row peaks at its first whole-vector product, in the
# two-row workspace.  At N = 100001 and 1000001 each peak is 1-4% higher.
_RUN_BYTES = {SchemeKind.DD: 92, SchemeKind.FPSE: 128, SchemeKind.KPSE: 100,
              SchemeKind.GPSE: 100}
_STABILITY_BYTES = {SchemeKind.DD: 100, SchemeKind.FPSE: 124, SchemeKind.KPSE: 108}


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
        if raw.get("integrator") is RKOrder.RK2:
            raise ConfigError("integrator: a GPSE step is one exchange (RK1 of unit "
                              "length); rk2 would not be used")
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
    if cfg.study is StudyKind.DOMAIN_SWEEP:
        # the sweep keeps the spacing of cfg's own grid, and _runs divides by it
        spacing = 2.0 * cfg.half_width() / (cfg.n - 1)
        if not 0.0 < spacing < math.inf:
            raise ConfigError(f"{'c' if cfg.d is None else 'd'}: the half-width "
                              f"{cfg.half_width():.3g} over n = {cfg.n} particles gives "
                              f"the domain sweep the spacing {spacing:.3g}")
    # every field the study plans, checked as run will build it: its step
    # count, its particle count and memory (under the key that sizes the grid)
    # and every scheme prefactor at its smoothing length
    key = {StudyKind.DOMAIN_SWEEP: "values", StudyKind.SPACE_SWEEP: "levels"}.get(cfg.study, "n")
    steps_key = "values" if cfg.study is StudyKind.TIME_SWEEP else "dt"
    if cfg.study is StudyKind.STABILITY:
        schemes, per_particle, what = _STABILITY_SCHEMES, _STABILITY_BYTES, "stability row"
    else:
        schemes, per_particle, what = (cfg.scheme,), _RUN_BYTES, "run"
    # a grid needs its count on top of what the process already holds
    memory, resident, params = _memory_bytes(), _resident_bytes(), []
    for param, sub, c, n in _runs(cfg):
        if cfg.study in _TABLES:
            try:
                IntegratorSpec(sub.integrator, sub.dt, sub.t0, sub.tf)
            except ConfigError as exc:
                raise ConfigError(f"{'tf' if not sub.tf > sub.t0 else steps_key}: "
                                  f"{exc}") from None
        params.append(param)
        grid = "the grid" if c is None else f"the grid of C = {c}"
        if not 3 <= n <= _MAX_PARTICLES:
            raise ConfigError(f"{key}: {grid} has {n:.3g} particles; it needs 3 or more, "
                              f"and a float64 array can index {_MAX_PARTICLES:.3g}")
        eps = sub.overlap * (2.0 * sub.half_width(c) / (n - 1))
        for scheme in schemes:
            need = resident + per_particle[scheme] * n
            if need > memory:
                raise ConfigError(f"{key}: {grid} has {n:.3g} particles, for which a "
                                  f"{scheme.value} {what} needs over {need:.3g} bytes; "
                                  f"{memory:.3g} are available")
            try:
                ok = all(0.0 < abs(p) < math.inf
                         for p in rate_prefactors(scheme, sub.order, eps))
            except (OverflowError, ZeroDivisionError):
                ok = False
            if not ok:
                raise ConfigError(f"{'c' if cfg.d is None else 'd'}: the smoothing length "
                                  f"{eps:.3g} of the n = {n} grid puts a {scheme.value} "
                                  f"prefactor outside float range")
    # the order estimate needs three levels whose dt halves
    if cfg.study is StudyKind.TIME_SWEEP and (
            len(params) < 3 or any(abs(params[i] / params[i + 1] - 2.0) > 1e-9 for i in (0, 1))):
        raise ConfigError(f"values: a time sweep needs at least 3 time steps, "
                          f"the first three halving, got {tuple(params)}")


def _memory_bytes() -> int:
    """Physical memory, or the soft address-space limit if that is smaller."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return memory if soft == resource.RLIM_INFINITY else min(memory, soft)


def _resident_bytes() -> int:
    """The process's resident size, from /proc/self/statm, or 0 without it."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return 0


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_BLOCK = 4096  # snapshot rows per write
_WIDTH = 24    # the longest %.17g of a float64, as in -1.2345678901234567e-100
_Q0 = -280     # the power table holds 10^q for q in [_Q0, 300]
_LOG10_2 = math.log10(2.0)
# a cell's source row: its 17 digit characters, these six, then the three
# digits of its exponent
_TAIL = np.frombuffer(b".0-+e\0", np.uint8)
_DOT, _ZERO, _MINUS, _PLUS, _E, _NUL, _EXP = range(17, 24)
_SOURCE = _EXP + 3


def _layout(neg: int, form: int, nz: int) -> list[int]:
    """Source positions of one %g layout.  Forms 0..20 are the fixed
    notation of exponents -4..16, forms 21..24 the exponent notation with a
    +, +, -, - sign and 2, 3, 2, 3 exponent digits; nz digits are
    significant."""
    def digits(last):  # digits 0..last-1, then a fraction if any is left
        return [*range(last), *([_DOT, *range(last, nz)] if nz > last else [])]
    if form > 20:
        sign, wide = divmod(form - 21, 2)
        cell = [*digits(1), _E, (_PLUS, _MINUS)[sign], *range(_EXP + 1 - wide, _EXP + 3)]
    elif form >= 4:  # 10^X <= |x|: all X + 1 integer digits
        cell = digits(form - 3)
    else:
        cell = [_ZERO, _DOT, *[_ZERO] * (3 - form), *range(nz)]
    return [_MINUS] * neg + cell + [_NUL] * (_WIDTH - neg - len(cell))


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The formatter's tables, built on first use:
    - hi, lo: hi + lo = 10^q to about 2^-106 relative, q from _Q0 to 300;
      hi is 10^q and lo the remainder, each correctly rounded, since
      Python's int / int rounds correctly
    - quads: the four digit characters of 0..9999
    - layouts: _layout's positions, row (neg * 25 + form) * 17 + nz - 1
    """
    hi, lo = [], []
    for q in range(_Q0, 301):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        hi.append(num / den)
        a, b = hi[-1].as_integer_ratio()
        lo.append((num * b - a * den) / (den * b))
    quads = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
    layouts = np.empty((2 * 25 * 17, _WIDTH), np.uint8)
    for row, key in zip(layouts, itertools.product(range(2), range(25), range(1, 18))):
        row[:] = _layout(*key)
    return np.array(hi), np.array(lo), (quads % 10 + ord("0")).astype(np.uint8), layouts


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits (Dekker 1971)."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _decimal(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, k, tie) for |x| in [1e-260, 1e290]: d, the 17-digit integer
    nearest |x| 10^(16-k) with k = floor(log10 |x|) (k one more when d
    rounds up to 10^17), and where that product's fraction lies within 1e-9
    of 1/2, so that d is not certified.

    The product is taken in double-double arithmetic (Dekker 1971) with the
    table's hi + lo: exact but for at most 2^-104 relative, under 5e-15 of
    d.
    """
    hi, lo = _tables()[:2]
    # k0 = floor((e - 1) log10 2) <= k <= k0 + 1 for 2^(e-1) <= |x| < 2^e
    # ((e - 1) log10 2 is 0 or over 4e-4 from an integer here, so the float
    # floor is exact), and k = k0 + 1 when |x| >= hi + lo of 10^(k0 + 1),
    # compared exactly
    k = np.floor((np.frexp(ax)[1] - 1) * _LOG10_2).astype(np.intp)
    up = k + 1 - _Q0
    k += (ax > hi[up]) | ((ax == hi[up]) & (lo[up] <= 0.0))
    # y = |x| 10^(16-k) in [1e16, 1e17) as y_hi + y_lo, y_hi an integer
    scale = 16 - k - _Q0
    b = hi[scale]
    p = ax * b
    (ah, al), (bh, bl) = _split(ax), _split(b)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl + ax * lo[scale]
    y_hi = p + t
    y_lo = t - (y_hi - p)
    whole = np.floor(y_lo)
    frac = y_lo - whole
    d = y_hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10 ** 17  # rounded up into the next decade
    k += carry
    d[carry] = 10 ** 16
    return d, k, np.abs(frac - 0.5) < 1e-9


def _format_g17(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each float64 v in x, as a NUL-padded uint8 matrix of
    one row per value.

    Values _decimal cannot certify are written by '%' itself: a fraction
    within 1e-9 of 1/2, and |x| outside [1e-260, 1e290], where the table or
    the split would leave double range (zero, subnormals, inf and nan among
    them).
    """
    quads, layouts = _tables()[2:]
    n = len(x)
    ax = np.abs(x)
    fallback = ~((ax >= 1e-260) & (ax <= 1e290))
    ax[fallback] = 1.0
    digits, k, tie = _decimal(ax)
    fallback |= tie
    # the 17 digits: a leading digit, then four groups of four
    quad = np.empty((n, 4), np.intp)
    for j in (3, 2, 1, 0):
        rest = digits // 10_000
        quad[:, j] = digits - 10_000 * rest
        digits = rest
    chars = np.empty((n, _SOURCE), np.uint8)
    chars[:, 0] = digits + ord("0")
    chars[:, 1:17] = quads.take(quad.ravel(), axis=0).reshape(n, 16)
    chars[:, 17:23] = _TAIL
    chars[:, 23:] = quads.take(np.abs(k), axis=0)[:, 1:]
    nz = 17 - np.argmax(chars[:, 16::-1] != ord("0"), axis=1)
    form = np.where((k >= -4) & (k < 17), k + 4, 21 + 2 * (k < 0) + (np.abs(k) >= 100))
    at = layouts.take(((x < 0) * 25 + form) * 17 + nz - 1, axis=0)
    out = chars.ravel().take(at + np.arange(0, n * _SOURCE, _SOURCE)[:, None])
    for i in np.flatnonzero(fallback):
        cell = ("%.17g" % x[i]).encode()
        out[i] = 0
        out[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def _head(echo: dict, names: list[str]) -> bytes:
    """The lines every CSV starts with: the version and the config echo,
    each led by '#', then the column names."""
    return "".join([f"# fracdiff {__version__}\n",
                    *(f"# {key} = {_fmt(value)}\n" for key, value in echo.items()),
                    ",".join(names) + "\r\n"]).encode()


def _write_table(path: str, echo: dict, names: list[str], rows) -> str:
    """Echo header, then one line per row: its cells as _fmt renders them
    (floats by %.17g, anything else by %s), joined with commas and ended in
    CRLF, as csv.writer writes them.  No field (numbers, scheme and kernel
    names, column names) holds a comma, quote or line break, so none is
    quoted."""
    with open(path, "wb") as fh:
        fh.write(_head(echo, names))
        for row in rows:
            fh.write((",".join(map(_fmt, row)) + "\r\n").encode())
    return path


def _write_snapshot(path: str, echo: dict, upper) -> str:
    """Echo header, then a snapshot's x, u and u_exact at all N rows, given
    as their upper halves: float64 arrays of the centre row and the rows
    above it.  The run's x is odd, with no sign bit or NaN from the centre
    (+0) up, and its u and u_exact even, bit for bit, so each row below the
    centre is its mirror row with x negated, and '%.17g' % (-v) ==
    '-' + '%.17g' % v makes its line the mirror line's bytes with a '-' in
    front.

    The upper rows are formatted by _format_g17 in blocks of _BLOCK, from
    the last down, joined with commas and CRLF line ends, and written
    reversed with a '-' before each line: the lower half, in file order.
    The centre row follows.  Then each block is read back, the last written
    first, and written as the upper lines it came from: split at each CRLF
    and '-', and reversed.
    """
    def render(block, minus):
        """The block's lines, each led by a '-' if minus."""
        cells = [_format_g17(column) for column in block]
        rows = len(cells[0])
        comma = np.full((rows, 1), ord(","), np.uint8)
        lead = [np.full((rows, 1), ord("-"), np.uint8)] if minus else []
        joined = np.concatenate(lead + [cells[0], comma, cells[1], comma, cells[2],
                                        np.full((rows, 2), (ord("\r"), ord("\n")), np.uint8)],
                                axis=1).ravel()
        return joined[joined != 0]

    m = len(upper[0])
    with open(path, "w+b") as fh:
        fh.write(_head(echo, ["x", "u", "u_exact"]))
        spans = []
        for stop in range(m, 1, -_BLOCK):
            block = [column[max(stop - _BLOCK, 1):stop][::-1] for column in upper]
            spans.append((fh.tell(), fh.write(render(block, minus=True))))
        fh.write(render([column[:1] for column in upper], minus=False))
        for offset, size in reversed(spans):
            fh.seek(offset)
            lines = fh.read(size)[1:-2].split(b"\r\n-")
            fh.seek(0, os.SEEK_END)
            lines.reverse()
            lines.append(b"")
            fh.write(b"\r\n".join(lines))
    return path


def _runs(cfg: ExperimentConfig):
    """(param, config, C, n) of each field the study builds, in table order,
    planned lazily.  A space level's param is None: it is the h of the field
    it builds.  A domain-sweep point keeps the spacing of cfg's own grid (N
    grows with the domain); one whose half-width overflows plans inf
    particles.  Without values, C (domain) or dt (time) takes its defaults."""
    if cfg.study is StudyKind.STABILITY:
        for beta in _STABILITY_BETAS:
            yield beta, replace(cfg, beta=beta), None, cfg.n
    elif cfg.study is StudyKind.DOMAIN_SWEEP:
        h = 2.0 * cfg.half_width() / (cfg.n - 1)
        for c in cfg.values or (10.0, 20.0, 40.0, 80.0, 160.0):
            x = 2.0 * cfg.half_width(c) / h
            n = int(round(x)) + 1 if math.isfinite(x) else x
            yield c, cfg, c, n + 1 if n % 2 == 0 else n
    elif cfg.study is StudyKind.SPACE_SWEEP:
        for lvl in range(cfg.levels):
            yield None, cfg, None, (cfg.n - 1) * 2 ** lvl + 1
    elif cfg.study is StudyKind.TIME_SWEEP:
        for dt in cfg.values or (cfg.dt, cfg.dt / 2.0, cfg.dt / 4.0):
            yield dt, replace(cfg, dt=dt), None, cfg.n
    elif cfg.study is StudyKind.SINGLE:
        yield cfg.dt, cfg, None, cfg.n


def _build_field(cfg: ExperimentConfig, c: float | None, n: int) -> ParticleField:
    order = cfg.order
    return init_uniform(cfg.half_width(c), n, order, cfg.overlap,
                        lambda x: green_function_symmetric(order, x, cfg.t0))


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
        converges = cfg.study in (StudyKind.SPACE_SWEEP, StudyKind.TIME_SWEEP)
        for param, sub, c, n in _runs(cfg):
            f0, f1, err, drift = _run_one(sub, c, n)
            param = f0.h if param is None else param
            if converges and len(fields) < 3:  # the runs the order is estimated from
                fields.append(f1)
                params.append(param)
            rows.append([cfg.scheme.value, cfg.beta, param_name, param, err, "", drift])
        if cfg.study is StudyKind.SINGLE:
            snap_echo = {"beta": cfg.beta, "t": cfg.tf, "n": len(f1),
                         "d": cfg.half_width(), "epsilon": f1.epsilon, **echo}
            x, u = (a[len(f1) // 2:] for a in (f1.positions, f1.strengths))
            out.append(_write_snapshot(path("solution.csv"), snap_echo,
                                       [x, u, green_function(cfg.order, x, cfg.tf)]))
        elif converges:
            p = self_convergence_order(fields, params)
            rows.append([cfg.scheme.value, cfg.beta, param_name, params[0], "", p, ""])
        out.append(_write_table(path(table), echo, _COLUMNS, rows))
    elif cfg.study is StudyKind.STABILITY:
        rows = []
        for beta, sub, c, n in _runs(cfg):
            f = _build_field(sub, c, n)
            for scheme in _STABILITY_SCHEMES:
                rep = power_iteration_min_eig(f, scheme)
                rows.append([beta, scheme.value, len(f), rep.lambda_min,
                             rep.a_constant])
        out.append(_write_table(path("stability.csv"), echo,
                                ["beta", "scheme", "n", "lambda_min", "a"], rows))
    else:  # kernels
        r = np.concatenate([np.arange(0.0, 10.0, 0.05),
                            np.geomspace(10.0, 100.0, 120)])
        rows = [(kind.value, beta, ri, v)
                for beta in _STABILITY_BETAS for kind in _KERNEL_DUMP_KINDS
                for ri, v in zip(r.tolist(), kernels.scaled(
                    kind, r, FractionalOrder.from_beta(beta), 1.0).tolist())]
        out.append(_write_table(path("kernels.csv"), echo, ["kind", "beta", "r", "value"],
                                rows))
    return out
