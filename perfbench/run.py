"""Benchmark of fracdiff, driven through the same path as the ``fracdiff`` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-run --seed 1 --seconds 36 --trace 0

The package is imported from the checkout's ``src/`` (a pure-Python package:
nothing to build).  One process on one thread generates the load; the
BLAS/OpenMP thread variables are pinned to 1 before numpy loads.

A run first times ``import fracdiff, fracdiff.cli`` in fresh interpreters
(``setup_s``), then runs passes over the workload's units (see workloads.py)
for ``--seconds``: the first pass is the cold pass, the rest are warm.
A fixed reference loop is timed before each unit and after the last; the
gated pass metrics count time in reference loops, because the host's speed
drifts (perfbench/README.md).  Every unit's CSVs are checked (accuracy, conservation, paper table) and must
be byte-identical to the cold pass's.  With ``--trace 1`` warm passes
alternate between traced and untraced, and the per-layer metrics come from
the traced ones (layertrace.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, and the full result goes to ``perfbench/.out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (DRIFT_TOL, LAYER_MOVES, REL_L1_TOL, STABILITY_DEV_TOL,
                       WORKLOADS, check_outputs)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / ".out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_CODE = ("import time; t = time.perf_counter(); import fracdiff, fracdiff.cli; "
              "print(time.perf_counter() - t, fracdiff.__file__)")

E2E_UNITS = {"setup_s": "s", "cold_pass_s": "s", "pass_s.p50": "s",
             "particle_steps_per_s": "1/s", "pass_ref.p50": "ref",
             "particle_steps_per_ref": "1/ref", "reference_s.p50": "s",
             "peak_rss_mb": "MB", "tol_share.max": "ratio"}
LAYER_UNITS = {"s": "s", "self_s": "s", "us_per_point": "us", "points": "count",
               "calls": "count", "distinct_ratio": "ratio", "iters": "count",
               "csv_bytes": "bytes", "errors": "count", "overhead_s": "s",
               "iter_us": "us"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if ".ns_per_particle." in name:
        return "ns"
    if ".step_us." in name:
        return "us"
    return LAYER_UNITS[last]


# --- the program under test --------------------------------------------------

def import_program():
    """Import fracdiff from this checkout's src/, never from elsewhere."""
    if not (SRC / "fracdiff" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'fracdiff'} not found; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fracdiff
    import fracdiff.cli  # noqa: F401
    from fracdiff import experiments
    if not Path(fracdiff.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: fracdiff imported from {fracdiff.__file__}, not {SRC}")
    return fracdiff, experiments


def measure_setup(reps: int) -> list[float]:
    """Seconds to import fracdiff and fracdiff.cli, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        secs, path = proc.stdout.strip().split(maxsplit=1)
        if not Path(path).resolve().is_relative_to(SRC):
            raise SystemExit(f"error: setup imported fracdiff from {path}")
        times.append(float(secs))
    return times


class PowerIterationCounter:
    """Counts power iterations (the stability study's operator applications).

    The only hook in an untraced pass: one wrapper around the 9 calls of a
    stability table.  Restores the original on exit.
    """

    def __init__(self, experiments):
        self.iterations = 0
        self._experiments = experiments

    def __enter__(self):
        self._original = original = self._experiments.power_iteration_min_eig

        def counted(*args, **kwargs):
            rep = original(*args, **kwargs)
            self.iterations += rep.iterations
            return rep

        self._experiments.power_iteration_min_eig = counted
        return self

    def __exit__(self, *exc):
        self._experiments.power_iteration_min_eig = self._original


def reference_loop() -> float:
    """Seconds for a fixed loop, independent of fracdiff, over the libraries
    fracdiff spends its time in: FFT convolutions, plain Python arithmetic and
    mpmath at 30 digits.  Timed next to every unit, it tracks the speed the
    host gives this process at that moment."""
    import mpmath
    import numpy as np
    import scipy.fft

    x = np.arange(40000, dtype=float) % 7.0
    g = scipy.fft.rfft(x[::-1], 98304)
    t0 = time.perf_counter()
    for _ in range(25):
        scipy.fft.irfft(scipy.fft.rfft(x, 98304) * g, 98304)
    s = 0
    for i in range(150000):
        s += i * i % 7
    with mpmath.workdps(30):
        acc = mpmath.mpf(0)
        for k in range(1, 400):
            acc += mpmath.gamma(1 + mpmath.mpf(k) / 7) * mpmath.exp(-mpmath.mpf(k) / 3)
    return time.perf_counter() - t0


# --- passes ------------------------------------------------------------------

@dataclass
class PassResult:
    traced: bool = False
    seconds: float = 0.0         # sum of unit wall times
    particle_updates: int = 0
    attempted: int = 0
    failed: int = 0
    figures: dict = field(default_factory=dict)
    reference_s: list = field(default_factory=list)  # reference_loop() samples
    layers: dict | None = None

    @property
    def seconds_ref(self) -> float:
        """Pass time in units of the reference loop timed around its units."""
        return self.seconds / statistics.mean(self.reference_s)


@dataclass
class Bench:
    workload: str
    seed: int
    tiny: bool
    out_dir: Path
    experiments: object
    counter: PowerIterationCounter
    reference: dict = field(default_factory=dict)   # unit -> {file: bytes}

    def run_pass(self, index: int) -> PassResult:
        res = PassResult()
        for unit in WORKLOADS[self.workload].order(self.seed, index, self.tiny):
            res.reference_s.append(reference_loop())
            res.attempted += 1
            overrides = {**dict(unit.overrides), "out_dir": str(self.out_dir / unit.name)}
            iters0 = self.counter.iterations
            t0 = time.perf_counter()
            try:
                cfg = self.experiments.parse_config(unit.config, overrides)
                files = self.experiments.run(cfg)
            except Exception:
                files = None
                print(f"# FAILED {self.workload}/{unit.name} pass {index}:\n"
                      + traceback.format_exc(), file=sys.stderr)
            res.seconds += time.perf_counter() - t0
            if files is None:
                res.failed += 1
                continue
            res.particle_updates += unit.particle_updates(
                cfg, self.counter.iterations - iters0)
            problems, figures = check_outputs(files)
            problems += self._check_bytes(unit.name, files)
            for key, val in figures.items():
                res.figures[key] = max(res.figures.get(key, 0.0), val)
            if problems:
                res.failed += 1
                print(f"# FAILED {self.workload}/{unit.name} pass {index}: "
                      + "; ".join(problems), file=sys.stderr)
        res.reference_s.append(reference_loop())
        return res

    def _check_bytes(self, unit: str, files: list[str]) -> list[str]:
        got = {Path(f).name: Path(f).read_bytes() for f in files}
        ref = self.reference.setdefault(unit, got)
        if ref.keys() != got.keys():
            return [f"files {sorted(got)} differ from the first pass's {sorted(ref)}"]
        return [f"{name} differs from the first pass's bytes"
                for name in got if got[name] != ref[name]]


def run_window(bench: Bench, seconds: float, trace: bool) -> tuple[list[PassResult], object]:
    """Cold pass, then warm passes until the window of ``seconds`` is used.

    A warm pass is started only if the previous pass's duration still fits,
    once the minimum (one warm pass; one traced and one untraced with
    tracing) is reached.  With tracing, warm passes alternate traced and
    untraced, starting traced.
    """
    from layertrace import Tracer

    start = time.perf_counter()
    passes, last_tracer = [], None
    while True:
        t0 = time.perf_counter()
        warm = len(passes) - 1
        traced = trace and warm >= 0 and warm % 2 == 0
        if traced:
            last_tracer = Tracer()
            with last_tracer.installed():
                res = bench.run_pass(len(passes))
            res.traced, res.layers = True, last_tracer.layer_metrics()
        else:
            res = bench.run_pass(len(passes))
        passes.append(res)
        took = time.perf_counter() - t0
        warm = len(passes) - 1
        enough = warm >= (2 if trace else 1)
        if enough and time.perf_counter() - start + took > seconds:
            return passes, last_tracer


# --- metrics -----------------------------------------------------------------

def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return f"p{p}", sorted(values)[rank - 1]
    return None


def accuracy_figures(passes: list[PassResult]) -> dict[str, float]:
    """Worst rel_l1 and stability deviation over all passes (0 where absent)."""
    return {k: max(p.figures.get(k, 0.0) for p in passes)
            for k in ("rel_l1", "stability_dev")}


def end_to_end(setup: list[float], passes: list[PassResult],
               figures: dict[str, float]) -> dict[str, float]:
    warm = [p for p in passes[1:] if not p.traced]
    shares = [figures["rel_l1"] / REL_L1_TOL, figures["stability_dev"] / STABILITY_DEV_TOL]
    return {
        "setup_s": statistics.median(setup),
        "cold_pass_s": passes[0].seconds,
        "pass_s.p50": statistics.median(p.seconds for p in warm),
        "particle_steps_per_s": (sum(p.particle_updates for p in warm)
                                 / sum(p.seconds for p in warm)),
        "pass_ref.p50": statistics.median(p.seconds_ref for p in warm),
        "particle_steps_per_ref": statistics.median(
            p.particle_updates / p.seconds_ref for p in warm),
        "reference_s.p50": statistics.median(s for p in warm for s in p.reference_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tol_share.max": max(shares) or math.nan,
    }


def per_layer(passes: list[PassResult]) -> dict[str, float]:
    from layertrace import median_metrics

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes[1:] if not p.traced]
    m = median_metrics([p.layers for p in traced])
    m["trace.overhead_s"] = (statistics.median(p.seconds for p in traced)
                             - statistics.median(p.seconds for p in untraced))
    return m


def listed_metrics(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


# --- environment ---------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_block(fracdiff, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "fracdiff": fracdiff.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


# --- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for smoke.py")
    args = parser.parse_args(argv)

    # before numpy loads: one thread, and the setup interpreters inherit it
    for var in THREAD_VARS:
        os.environ[var] = "1"
    fracdiff, experiments = import_program()
    setup = measure_setup(1 if args.tiny else 5)

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' * args.tiny}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    with PowerIterationCounter(experiments) as counter:
        bench = Bench(args.workload, args.seed, args.tiny, out_dir, experiments, counter)
        passes, tracer = run_window(bench, args.seconds, bool(args.trace))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    figures = accuracy_figures(passes)
    e2e = end_to_end(setup, passes, figures)
    layers = per_layer(passes) if args.trace else {}
    warm = [p.seconds for p in passes[1:] if not p.traced]
    extra = {
        "fail_ratio": failed / attempted,
        "passes.warm": len(warm),
        "passes.traced": sum(p.traced for p in passes),
        "pass_s.tail": tail(warm) or f"n/a: {len(warm)} warm passes, 11 needed",
        "rel_l1.max": figures["rel_l1"] or "n/a",
        "stability_dev_pct.max": 100 * figures["stability_dev"] or "n/a",
        "setup_s.samples": setup,
    }
    result = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "machine": machine_block(fracdiff, args.seed),
        "tolerances": {"rel_l1": REL_L1_TOL, "drift": DRIFT_TOL,
                       "stability_dev": STABILITY_DEV_TOL},
        "end_to_end": e2e,
        "extra": extra,
        "per_layer": layers,
        "layer_moves": LAYER_MOVES,
        "pass_seconds": [p.seconds for p in passes],
        "pass_reference_s": [p.reference_s for p in passes],
        "pass_traced": [p.traced for p in passes],
    }
    if tracer is not None:
        tracer.write_spans(out_dir / "spans.tsv")
    (out_dir / "result.json").write_text(json.dumps(result, indent=1, default=str))

    print(f"# workload {args.workload}: {result['why']}")
    print(f"# machine {json.dumps(result['machine'])}")
    for name, val in {**e2e, **extra, **layers}.items():
        unit = E2E_UNITS.get(name) or (layer_unit(name) if name in layers else "")
        print(f"# {name} = {val} {unit}".rstrip())
    print(f"# full result: {out_dir / 'result.json'}")

    wanted = listed_metrics("per_layer" if args.trace else "end_to_end")
    source = layers if args.trace else e2e
    metrics = {}
    for name in wanted:
        val = source[name]
        unit = layer_unit(name) if args.trace else E2E_UNITS[name]
        metrics[name] = {"value": val if math.isfinite(val) else None, "unit": unit}
    finite = all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": failed == 0 and finite, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
