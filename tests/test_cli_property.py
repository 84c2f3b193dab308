"""Property test of the command line: every config either runs or names its fault.

Configs are drawn over every study and scheme, with extreme ``c``, ``d``,
``overlap``, ``dt``, ``t0`` and ``d_eps_factor``.  ``beta`` comes from a
fixed set spanning (0, 1), because each new alpha pays for a cold fit of its
L0 model.
"""

import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings, strategies as st

from fracdiff.cli import main
from fracdiff.errors import ConfigError
from fracdiff.experiments import StudyKind, _runs, parse_config
from fracdiff.schemes import SchemeKind
from fracdiff.timeint import IntegratorSpec

BETAS = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
MAX_PARTICLES = 2000
MAX_STEPS = 8


def _log_uniform(lo: float, hi: float):
    """Positive floats 10^e, e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def configs(draw) -> dict:
    """key = value pairs of one config, as a config file spells them."""
    scheme = draw(st.sampled_from(SchemeKind))
    study = draw(st.sampled_from(StudyKind))
    dt = draw(_log_uniform(-300.0, 1.0))
    t0 = draw(_log_uniform(-300.0, 300.0))
    # a time sweep's default levels take 1, 2 and 4 times the steps of dt
    steps = st.integers(1, MAX_STEPS // (4 if study is StudyKind.TIME_SWEEP else 1))
    c = draw(_log_uniform(-300.0, 300.0))
    cfg = {"study": study.value, "scheme": scheme.value,
           "beta": draw(st.sampled_from(BETAS)),
           # or one odd count past the index cap
           "n": draw(st.one_of(st.integers(1, 100).map(lambda k: 2 * k + 1),
                               st.just(10000000000000000001))),
           "c": c,
           "integrator": draw(st.sampled_from(["rk1", "rk2"])),
           "dt": dt, "t0": t0,
           # mostly a whole number of steps; tf may round back onto t0
           "tf": draw(st.one_of(steps.map(lambda k: t0 + k * dt),
                                _log_uniform(-300.0, 300.0))),
           "d_eps_factor": draw(_log_uniform(-3.0, 3.0))}
    if draw(st.booleans()):
        cfg["d"] = draw(_log_uniform(-300.0, 300.0))
    if scheme is not SchemeKind.GPSE and draw(st.booleans()):
        cfg["overlap"] = draw(_log_uniform(0.0, 6.0))
    if study is StudyKind.SPACE_SWEEP:
        cfg["levels"] = draw(st.one_of(st.integers(3, 5), st.sampled_from([40, 60])))
    if study is StudyKind.DOMAIN_SWEEP and draw(st.booleans()):
        # mostly near c, where N stays near n
        cfg["values"] = ",".join(repr(v) for v in draw(st.lists(st.one_of(
            _log_uniform(-2.0, 0.5).map(lambda r: r * c), _log_uniform(-300.0, 300.0)),
            min_size=1, max_size=4)))
    if study is StudyKind.TIME_SWEEP and draw(st.booleans()):
        first = draw(st.integers(1, 4))  # steps of the coarsest level
        cfg["values"] = ",".join(repr((cfg["tf"] - t0) / (first * 2 ** k))
                                 for k in range(draw(st.integers(3, 4))))
    return cfg


def _small(text: str) -> bool:
    """Whether every field the config plans has at most MAX_PARTICLES particles
    and every run at most MAX_STEPS steps (a rejected config plans nothing)."""
    try:
        cfg = parse_config(text)
    except ConfigError:
        return True
    for _, sub, _, n in _runs(cfg):
        if n > MAX_PARTICLES:
            return False
        if (cfg.study not in (StudyKind.STABILITY, StudyKind.KERNELS)
                and IntegratorSpec(sub.integrator, sub.dt, sub.t0, sub.tf).n_steps
                > MAX_STEPS):
            return False
    return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=configs())
# h = 2 (half-width)/(n - 1) underflowed to 0 and the sweep plan divided by it
@example(cfg={"study": "domain", "beta": 0.3, "n": 10000000000000000001, "c": 1e-189,
              "dt": 1.0, "t0": 1.0, "tf": 1e-152, "d_eps_factor": 1.0})
def test_cli_run_exits_0_2_or_3(cfg):
    """cli.main(["run", ...]) returns 0, 2 or 3 and never raises.

    Every planned field is kept at MAX_PARTICLES or fewer and every run at
    MAX_STEPS steps or fewer, so that no example allocates much memory.  Grids
    under the index cap that are too large for memory are the concern of the
    out-of-memory test, not of this one.
    """
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    assume(_small(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        assert main(["run", str(path), "--out-dir", str(Path(tmp) / "out")]) in (0, 2, 3)
