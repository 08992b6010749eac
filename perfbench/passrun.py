"""One benchmark pass in a fresh process, started by ``run.py``.

    python3 perfbench/passrun.py --workload W --seed N --t0 EPOCH_S
        --nproc N [--pass-id I] [--trace] [--spans FILE] [--setup-only] [--probe]

Imports numpy, scipy.optimize and starclone, then runs the workload's
commands one after another through ``starclone.cli.main`` with their
output captured, then checks every output.  Prints one JSON line: set-up,
pass wall and CPU time, peak RSS, check failures and, with ``--trace``,
the per-layer metrics of this pass.  ``--t0`` is the wall-clock time at
which the parent started this process, so set-up time includes
interpreter start-up.  ``--probe`` runs the grid-only table1 command of
the determinism probe instead of the workload and echoes its output.
"""

import time

_T_START = time.perf_counter()
import numpy  # noqa: E402

_T_NUMPY = time.perf_counter()
import scipy.optimize  # noqa: E402

_T_SCIPY = time.perf_counter()
import starclone  # noqa: E402
import starclone.cli  # noqa: E402

_T_STARCLONE = time.perf_counter()
_T_READY_EPOCH = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

THREAD_ENV = ("STARCLONE_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")


def environment(nproc: int) -> dict:
    """Machine, library versions and thread settings of this process."""
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    ram_gb = round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "ram_gb": ram_gb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "starclone": starclone.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "starclone_workers": starclone.optimizer.worker_count(),
    }


def run_command(argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, error text) of one CLI call, all output captured."""
    out, err = io.StringIO(), io.StringIO()
    rc: object
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = starclone.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:  # a crash counts as a failed operation, not a dead pass
        rc = "exception"
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    result = {
        "setup_s": _T_READY_EPOCH - args.t0,
        "setup_layers": {
            "setup.numpy_s": _T_NUMPY - _T_START,
            "setup.scipy_optimize_s": _T_SCIPY - _T_NUMPY,
            "setup.starclone_s": _T_STARCLONE - _T_SCIPY,
        },
    }
    workers = starclone.optimizer.worker_count()
    over = {name: os.environ[name] for name in THREAD_ENV
            if os.environ.get(name, "").strip().isdigit() and int(os.environ[name]) > args.nproc}
    if workers > args.nproc or over:
        print(f"refusing to run: thread settings {over or workers} exceed nproc {args.nproc}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(result))
        return 0

    cmds = ([workloads.probe_command()] if args.probe
            else workloads.commands(args.workload, args.seed))
    ref = json.loads((HERE / "baseline.json").read_text())
    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        import tracing

        tracer = tracing.Tracer(args.pass_id)
        tracer.install()
        span = tracer.span
    outputs, command_s = [], []
    start = time.perf_counter()
    with span("pass"):
        for cmd in cmds:
            t = time.perf_counter()
            with span(f"cli.{cmd['argv'][0]}"):
                outputs.append(run_command(cmd["argv"]))
            command_s.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.uninstall()

    failures = []
    for cmd, (rc, text, err) in zip(cmds, outputs):
        fails = checks.check(cmd, text, rc, args.seed, ref)
        if fails and err:
            fails.append(err.strip().splitlines()[-1])
        failures.append(fails)
    result.update({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": [cmd["argv"][0] for cmd in cmds],
        "command_s": command_s,
        "failures": failures,
        "outputs": [text for _rc, text, _err in outputs] if args.probe else None,
        "env": environment(args.nproc) if args.pass_id == 0 else None,
    })
    if tracer:
        points = sum(workloads.scan_points(c) for c in cmds if c["kind"] == "scan")
        layers = tracing.summarize(tracer.spans, wall, points)
        missing = {}
        for metric in layers:
            reasons = [tracer.missing[d] for d in tracing.depends(metric) if d in tracer.missing]
            if reasons:  # never report an unobserved layer as 0
                layers[metric] = None
                missing[metric] = "; ".join(reasons)
        result["layers"], result["missing"] = layers, missing
        result["span_count"] = len(tracer.spans)
        result["wrapper_cost_s"] = tracing.wrapper_cost()
        layers["trace.overhead_s"] = result["wrapper_cost_s"] * len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
