"""The benchmark's hooks still find the names they patch.

perfbench/ wraps fracdiff's module attributes by name: the layer tracer
(layertrace.Tracer) and the power-iteration counter of an untraced pass
(run.PowerIterationCounter).  A name they patch that the package drops fails
them only when the benchmark runs; here each is entered and left, so it fails
in tier-1 instead.  perfbench/ is read, not changed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fracdiff import experiments
from fracdiff.field import init_uniform
from fracdiff.greens import FractionalOrder
from fracdiff.schemes import SchemeKind

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_module(monkeypatch):
    """Load a perfbench script as a module; its own imports resolve there."""
    monkeypatch.syspath_prepend(str(PERFBENCH))

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def test_tracer_installs_and_restores_every_hook(perfbench_module):
    tracer = perfbench_module("layertrace").Tracer()
    targets = [(mod, attr) for mod, attr, _ in tracer._patches()]
    before = [getattr(mod, attr) for mod, attr in targets]
    with tracer.installed():
        assert all(getattr(mod, attr) is not orig
                   for (mod, attr), orig in zip(targets, before))
    assert all(getattr(mod, attr) is orig for (mod, attr), orig in zip(targets, before))


def test_power_iteration_counter_counts_and_restores(perfbench_module):
    original = experiments.power_iteration_min_eig
    f = init_uniform(4.0, 21, FractionalOrder.from_beta(0.5), 2.0, lambda x: np.exp(-x * x))
    with perfbench_module("run").PowerIterationCounter(experiments) as counter:
        rep = experiments.power_iteration_min_eig(f, SchemeKind.DD)
    assert counter.iterations == rep.iterations > 0
    assert experiments.power_iteration_min_eig is original
