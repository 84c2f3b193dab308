"""Smoke check of the benchmark itself, at tiny sizes; takes one to two minutes.

    python3 perfbench/smoke.py

Runs every workload through run.py with ``--tiny`` (N of a few hundred, tens
of steps), untraced and traced, and checks that:

- the last line is the result object, every metric BENCHMARK.json names is
  in it with its unit and a finite value, and no unit failed (fail_ratio 0);
- the readable report names every metric, including those that only some
  workloads exercise;
- the four exact counts repeat, for a fixed seed and across seeds.

Exits 0 if all checks pass, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("schemes.matvec.calls", "timeint.power_iteration.iters",
                "greens.reduced_green.points", "experiments.csv_bytes")
REPORT_ONLY = ("fail_ratio", "pass_s.tail", "rel_l1.max", "stability_dev_pct.max",
               "pass_s.p50", "particle_steps_per_s", "cold_pass_s", "reference_s.p50",
               "schemes.matvec.ns_per_particle.gpse", "timeint.step_us.dd",
               "timeint.step_us.fpse", "timeint.step_us.kpse", "timeint.step_us.gpse",
               "timeint.integrate.self_s", "timeint.power_iteration.self_s",
               "analysis.rel_l1_error.s", "analysis.rel_l1_error.self_s")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def check(workload: str, seed: int, trace: int) -> tuple[list[str], dict]:
    result, report = bench(workload, seed, trace)
    where = f"{workload} seed={seed} trace={trace}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']}, "
                        f"{result['failed']} of {result['attempted']} units failed")
    listed = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in listed}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in listed:
        got = result["metrics"].get(m["name"], {})
        val = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(val, (int, float)) \
                or not math.isfinite(val):
            problems.append(f"{where}: {m['name']} = {got}")
    named = {line[2:].split(" = ", 1)[0] for line in report if " = " in line}
    for name in REPORT_ONLY if trace else REPORT_ONLY[:8]:
        if name not in named:
            problems.append(f"{where}: report lacks {name}")
    if "# fail_ratio = 0.0" not in report:
        problems.append(f"{where}: fail_ratio is not 0")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return problems, values


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        p, _ = check(workload, 1, 0)
        problems += p
        runs = {}
        for seed in (1, 1, 2):
            p, values = check(workload, seed, 1)
            problems += p
            runs.setdefault(seed, []).append(values)
        first = runs[1][0]
        for name in EXACT_COUNTS:
            for other in (runs[1][1], runs[2][0]):
                if other[name] != first[name]:
                    problems.append(f"{workload}: {name} differs between runs: "
                                    f"{first[name]} and {other[name]}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
