"""starclone benchmark runner.

    python3 perfbench/run.py --workload {search,evaluate,oracle-large}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (``src/starclone`` must exist).
The load is a closed loop: each pass is a fresh process (``passrun.py``)
that runs the workload's commands one after another through
``starclone.cli.main``, so every command starts cold and no in-process
cache carries over between passes.

``--trace 0`` runs passes until ``--seconds`` have elapsed (at least one),
with import-only processes between them as extra set-up samples, topped up
after the last pass until there are ``SETUP_SAMPLES``, and reports the
medians of the end-to-end metrics named in BENCHMARK.json.  Every output of
every pass is checked.  ``--trace 1`` runs the checker self-test, one
untraced and one traced pass, and the determinism and scaling probe
(grid-only table1 for M = 8 with 1 worker and with nproc workers), and
reports the per-layer metrics.

Worker and BLAS thread counts are set to nproc, the CPUs this process may
use; a pass refuses thread settings above that.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the line before it
holds the details (samples, environment, failures, missing metrics), which
are also written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
THREAD_ENV = ("STARCLONE_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")
SETUP_PROBES_PER_PASS = 2
SETUP_SAMPLES = 11  # import-only probes plus the passes' own set-ups
PASS_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no pass starts that would likely end after this
PROBE_REPEATS = 2


class BenchError(RuntimeError):
    """The benchmark cannot produce a measurement."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


NPROC = cpu_count()


def child_env(workers: int | None = None) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_ENV:
        env[name] = str(NPROC)
    if workers is not None:
        env["STARCLONE_WORKERS"] = str(workers)
    return env


def run_pass(opts, extra: list[str], env: dict, pass_id: int = 0) -> dict:
    """Start one pass process, wait for it, return its JSON result."""
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--t0", repr(t0), "--nproc", str(NPROC),
           "--pass-id", str(pass_id), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass process exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise BenchError(f"pass process exited with {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for result in results:
        for name, fails in zip(result["commands"], result["failures"]):
            attempted += 1
            if fails:
                failed += 1
                messages.extend(f"{name}: {msg}" for msg in fails)
    return attempted, failed, messages


def timed_run(opts) -> tuple[dict, int, int, dict]:
    """End-to-end metrics: medians over passes, tracing off."""
    env = child_env()
    probes: list[float] = []
    passes: list[dict] = []

    def probe_setup(count: int) -> None:
        probes.extend(run_pass(opts, ["--setup-only"], env)["setup_s"] for _ in range(count))

    started = time.monotonic()
    while True:
        # interleave the import-only probes with the passes, so drift hits both
        probe_setup(min(SETUP_PROBES_PER_PASS, SETUP_SAMPLES - len(probes) - len(passes) - 1))
        passes.append(run_pass(opts, [], env, pass_id=len(passes)))
        elapsed = time.monotonic() - started
        if elapsed >= opts.seconds or elapsed + passes[-1]["wall_s"] * 1.5 > RUN_BUDGET_S:
            break
    probe_setup(SETUP_SAMPLES - len(probes) - len(passes))
    setups = probes + [p["setup_s"] for p in passes]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    attempted, failed, messages = count_failures(passes)
    detail = {
        "passes": len(passes),
        "setup_samples": len(setups),
        "samples": {key: [p[key] for p in passes]
                    for key in ("wall_s", "cpu_s", "peak_rss_mb", "command_s")},
        "setup_s_samples": setups,
        "fail_ratio": failed / attempted,
        "failures": messages,
        "env": passes[0]["env"],
    }
    return values, attempted, failed, detail


def traced_run(opts) -> tuple[dict, int, int, dict]:
    """Per-layer metrics from one traced pass, plus overhead and the probe."""
    selftest = subprocess.run([sys.executable, str(HERE / "selftest.py")],
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    if selftest.returncode != 0:
        raise BenchError(f"checker self-test failed: {selftest.stdout.strip()[-500:]}")
    env = child_env()
    plain = run_pass(opts, [], env, pass_id=0)
    spans_file = OUT / f"spans-{opts.workload}-seed{opts.seed}.tsv"
    traced = run_pass(opts, ["--trace", "--spans", str(spans_file)], env, pass_id=1)
    serial_env = child_env(workers=1)
    probes = {1: [], NPROC: []}
    for i in range(PROBE_REPEATS):  # alternate so machine drift hits both sides
        probes[1].append(run_pass(opts, ["--probe"], serial_env, pass_id=2 + 2 * i))
        probes[NPROC].append(run_pass(opts, ["--probe"], env, pass_id=3 + 2 * i))
    probe_wall = {n: statistics.median(p["wall_s"] for p in runs) for n, runs in probes.items()}

    values = dict(traced["layers"])
    values.update(traced["setup_layers"])
    values["optimizer.grid_scan.parallel_efficiency"] = (
        probe_wall[1] / (NPROC * probe_wall[NPROC]))
    probe_runs = probes[1] + probes[NPROC]
    attempted, failed, messages = count_failures([plain, traced, *probe_runs])
    if any(p["outputs"] != probe_runs[0]["outputs"] for p in probe_runs):
        failed += 1
        messages.append("probe: table1 rows are not byte-identical across runs with 1 and "
                        f"{NPROC} workers")
    values["fail_ratio"] = failed / attempted
    detail = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "traced_minus_untraced_wall_s": traced["wall_s"] - plain["wall_s"],
        "span_count": traced["span_count"],
        "wrapper_cost_s_per_call": traced["wrapper_cost_s"],
        "spans_file": str(spans_file.relative_to(ROOT)),
        "probe_wall_s": {str(n): [p["wall_s"] for p in runs] for n, runs in probes.items()},
        "missing": traced["missing"],
        "failures": messages,
        "env": plain["env"],
    }
    return values, attempted, failed, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()

    if not (ROOT / "src" / "starclone" / "cli.py").is_file():
        print(f"no starclone sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        if opts.trace:
            values, attempted, failed, detail = traced_run(opts)
        else:
            values, attempted, failed, detail = timed_run(opts)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    missing = detail.setdefault("missing", {})
    for entry in spec["per_layer" if opts.trace else "end_to_end"]:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.setdefault(entry["name"], "not measured" if value is None else f"value {value}")
            value = None
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    detail.update(workload=opts.workload, seed=opts.seed, trace=opts.trace,
                  threads=NPROC, seconds=opts.seconds)
    (OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
