"""Layer tracing of fracdiff from outside the package.

``Tracer.installed()`` replaces module attributes of fracdiff with wrappers
that record one span (name, start, end, parent) per call, plus counts of the
work each call did, and puts the originals back on exit.  The package itself
is not modified: every wrapped name is looked up through a module attribute
at call time, so patching the attribute is enough.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory and written out by ``write_spans`` after the timed
region.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import os
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# the first part of every span name; each layer gets an error count
LAYERS = ("greens", "specfun", "kernels", "field", "schemes", "timeint",
          "analysis", "experiments")
SCHEMES = ("dd", "fpse", "kpse", "gpse")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._ids = itertools.count()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.child_total = defaultdict(float)  # (parent name, child name) -> s
        self.alphas: set[float] = set()

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, post=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a
        function of the call's arguments.  ``post(args, kwargs, result)``
        adds counts after a successful call."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            frame = [next(self._ids), span_name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[span_name.split(".", 1)[0] + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[2]
                parent = stack[-1] if stack else None
                self.spans.append((frame[0], parent[0] if parent else -1,
                                   span_name, frame[2], end))
                self.total[span_name] += dur
                self.self_time[span_name] += dur - frame[3]
                self.calls[span_name] += 1
                if parent is not None:
                    parent[3] += dur
                    self.child_total[(parent[1], span_name)] += dur
            if post is not None:
                post(args, kwargs, out)
            return out

        return wrapper

    def _count(self, key):
        """Post hook counting the points in the call's second argument."""
        def post(args, kwargs, out):
            self.counts[key] += int(np.size(args[1]))
        return post

    # -- patching ----------------------------------------------------------

    def _patches(self):
        fd = {m: importlib.import_module(f"fracdiff.{m}")
              for m in ("experiments", "greens", "kernels", "timeint")}

        def width_post(args, kwargs, out):
            a = args[0]
            self.alphas.add(float(getattr(a, "alpha", a)))

        def csv_post(args, kwargs, files):
            self.counts["experiments.csv_bytes"] += sum(
                os.path.getsize(f) for f in files)

        def integrate_post(args, kwargs, out):
            kind, spec = args[1].value, args[2]
            self.counts[f"timeint.steps.{kind}"] += spec.n_steps

        def power_post(args, kwargs, rep):
            self.counts["timeint.power_iteration.iters"] += rep.iterations

        def wrap_operator(build, kind_of):
            # the returned closure is the scheme's matvec: wrap it as well
            traced_build = self._span("schemes.operator_build", build)

            def build_traced(*args, **kwargs):
                op = traced_build(*args, **kwargs)
                kind = kind_of(args)

                def post(a, k, u):
                    self.counts[f"schemes.matvec.particles.{kind}"] += len(a[0])
                return self._span(f"schemes.matvec.{kind}", op, post)
            return build_traced

        rg_post = self._count("greens.reduced_green.points")
        combo_post = self._count("specfun.combo.points")
        spans = [  # (module, attribute, span name, post hook)
            ("experiments", "run", "experiments.run", csv_post),
            ("experiments", "init_uniform", "field.init_uniform", None),
            ("experiments", "integrate",
             lambda a, k: f"timeint.integrate.{a[1].value}", integrate_post),
            ("experiments", "power_iteration_min_eig", "timeint.power_iteration", power_post),
            ("experiments", "rel_l1_error", "analysis.rel_l1_error", None),
            ("experiments", "characteristic_width", "greens.characteristic_width", width_post),
            ("greens", "reduced_green", "greens.reduced_green", rg_post),
            ("kernels", "reduced_green", "greens.reduced_green", rg_post),
            ("kernels", "s_combo", "specfun.combo", combo_post),
            ("kernels", "t_combo", "specfun.combo", combo_post),
            ("kernels", "scaled", "kernels.table", self._count("kernels.table.points")),
        ]
        patches = [(fd[mod], attr, self._span(name, getattr(fd[mod], attr), post))
                   for mod, attr, name, post in spans]
        return patches + [
            (fd["timeint"], "make_rate_operator",
             wrap_operator(fd["timeint"].make_rate_operator, lambda a: a[1].value)),
            (fd["timeint"], "make_gpse_stepper",
             wrap_operator(fd["timeint"].make_gpse_stepper, lambda a: "gpse")),
        ]

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything this tracer recorded.

        NaN marks a metric of a layer the traced passes did not exercise.
        """
        tot, own, calls, cnt = self.total, self.self_time, self.calls, self.counts

        def per(value, count):
            return value / count if count else math.nan

        def if_called(name, value):
            return value if calls[name] else math.nan

        m = {}
        rg_points = cnt["greens.reduced_green.points"]
        m["greens.reduced_green.self_s"] = own["greens.reduced_green"]
        m["greens.reduced_green.points"] = rg_points
        m["greens.reduced_green.us_per_point"] = per(1e6 * own["greens.reduced_green"],
                                                     rg_points)
        width_calls = calls["greens.characteristic_width"]
        m["greens.characteristic_width.s"] = tot["greens.characteristic_width"]
        m["greens.characteristic_width.calls"] = width_calls
        m["greens.characteristic_width.distinct_ratio"] = per(len(self.alphas), width_calls)
        m["specfun.combo.s"] = tot["specfun.combo"]
        m["specfun.combo.points"] = cnt["specfun.combo.points"]
        m["kernels.table.s"] = tot["kernels.table"]
        m["kernels.table.points"] = cnt["kernels.table.points"]
        m["field.init_uniform.self_s"] = own["field.init_uniform"]
        m["schemes.operator_build.s"] = tot["schemes.operator_build"]
        m["schemes.matvec.calls"] = sum(calls[f"schemes.matvec.{k}"] for k in SCHEMES)
        for k in SCHEMES:
            m[f"schemes.matvec.ns_per_particle.{k}"] = per(
                1e9 * tot[f"schemes.matvec.{k}"], cnt[f"schemes.matvec.particles.{k}"])
        # a timeint iteration is an RK step in integrate or one power
        # iteration: one operator application plus guards, norms and axpy
        loops = [(f"timeint.integrate.{k}", cnt[f"timeint.steps.{k}"]) for k in SCHEMES]
        loops.append(("timeint.power_iteration", cnt["timeint.power_iteration.iters"]))
        busy = {name: tot[name] - self.child_total[(name, "schemes.operator_build")]
                for name, _ in loops}
        for (name, iters), k in zip(loops, SCHEMES):
            m[f"timeint.step_us.{k}"] = per(1e6 * busy[name], iters)
        m["timeint.iter_us"] = per(1e6 * sum(busy.values()), sum(n for _, n in loops))
        integrate_self = sum(own[name] for name, _ in loops[:-1])
        m["timeint.integrate.self_s"] = (integrate_self if any(n for _, n in loops[:-1])
                                         else math.nan)
        m["timeint.power_iteration.iters"] = cnt["timeint.power_iteration.iters"]
        m["timeint.power_iteration.self_s"] = if_called(
            "timeint.power_iteration", own["timeint.power_iteration"])
        m["timeint.self_s"] = integrate_self + own["timeint.power_iteration"]
        m["analysis.rel_l1_error.s"] = if_called(
            "analysis.rel_l1_error", tot["analysis.rel_l1_error"])
        m["analysis.rel_l1_error.self_s"] = if_called(
            "analysis.rel_l1_error", own["analysis.rel_l1_error"])
        m["experiments.run.self_s"] = own["experiments.run"]
        m["experiments.csv_bytes"] = cnt["experiments.csv_bytes"]
        for layer in LAYERS:
            m[f"{layer}.errors"] = cnt[f"{layer}.errors"]
        return m

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = min((s[3] for s in self.spans), default=0.0)
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\n")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes (counts repeat, so they pass through)."""
    keys = per_pass[0].keys()
    return {k: statistics.median(p[k] for p in per_pass) for k in keys}
