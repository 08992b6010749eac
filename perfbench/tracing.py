"""In-memory span tracer installed at the module bindings callers look up.

A wrapper replaces ``module.attr`` for the duration of one traced pass and
records a span (id, name, start, end, parent, extra) per call.  The parent
is the innermost open span of the calling thread, or, for a pool thread
with nothing open, the innermost open span of the thread that installed
the tracer (``grid_scan`` evaluates rows on a thread pool).  Self time is a
span's duration minus the union of its children's intervals, so children
running in parallel are not subtracted twice.

``starclone.cloning.evolve_analytic`` is deliberately not wrapped: it is
only reached from inside the closed-form kernel's degenerate-gap fallback
(and the analytic ``make_clone_report`` route), and its time there is
counted as closed-form kernel time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import statistics
import threading
import time
from collections import defaultdict

from starclone import cloning
from workloads import SUITES

_ETA_GUARD = getattr(cloning, "ETA_GUARD", 1e-12)


def _size(*values) -> int:
    """Element count of the broadcast of ``values`` (scalars count 1)."""
    size = 1
    shape: tuple = ()
    for value in values:
        vshape = getattr(value, "shape", ())
        if len(vshape) > len(shape):
            shape = vshape
    for n in shape:
        size *= n
    return size


def _eta_degenerate(m, k, lam) -> bool:
    """True where the closed form takes its per-sample fallback.

    Mirrors the gap test documented in ``starclone.cloning``: a block gap
    below ``ETA_GUARD`` (lambda = 0 with k = 0 or k = M).
    """
    eta1 = math.sqrt(4.0 * (m - k) * (k + 1) + (m - 2 * k - 1) ** 2 * lam * lam)
    eta2 = math.sqrt(4.0 * k * (m - k + 1) + (m - 2 * k + 1) ** 2 * lam * lam)
    return eta1 < _ETA_GUARD or eta2 < _ETA_GUARD


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# extra-data extractors: (args, kwargs, result) -> value stored on the span
def _xx_evals(args, kwargs, result):
    return _size(_arg(args, kwargs, 2, "B"), _arg(args, kwargs, 3, "t"))


def _closed_form_evals(args, kwargs, result):
    m, k, lam = (_arg(args, kwargs, i, n) for i, n in enumerate(("M", "k", "lam")))
    evals = _size(_arg(args, kwargs, 3, "B"), _arg(args, kwargs, 4, "t"))
    return (evals, _eta_degenerate(m, k, lam))


def _grid_evals(args, kwargs, result):
    return result.evaluations


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _refine_improved(args, kwargs, result):
    start = _arg(args, kwargs, 1, "start")
    return (float(result[0]), float(result[1])) != (float(start[0]), float(start[1]))


def _dense_dim(args, kwargs, result):
    return int(result.matrix.shape[0])


def _suite(args, kwargs, result):
    name = _arg(args, kwargs, 0, "name")
    margins = [c.residual / c.tolerance for c in result.checks]
    return (name, len(result.checks), max(margins, default=0.0))


# (module, attribute, span name, extractor)
BINDINGS = (
    ("starclone.cli", "reproduce_table1", "optimizer.reproduce_table1", None),
    ("starclone.cli", "scan_and_refine", "optimizer.scan_and_refine", None),
    ("starclone.cli", "grid_scan", "optimizer.grid_scan", _grid_evals),
    ("starclone.cli", "fidelity_closed_form", "cloning.fidelity_closed_form", _closed_form_evals),
    ("starclone.cli", "pcc_fidelity", "cloning.pcc_fidelity", None),
    ("starclone.cli", "make_clone_report", "cloning.make_clone_report", None),
    ("starclone.cli", "evolve_analytic", "dynamics.evolve_analytic", None),
    ("starclone.cli", "amplitudes_from_brute_force", "dynamics.amplitudes_from_brute_force", None),
    ("starclone.cli", "run_suite", "verify.run_suite", _suite),
    ("starclone.optimizer", "scan_and_refine", "optimizer.scan_and_refine", None),
    ("starclone.optimizer", "grid_scan", "optimizer.grid_scan", _grid_evals),
    ("starclone.optimizer", "refine_local", "optimizer.refine_local", _refine_improved),
    ("starclone.optimizer", "minimize", "optimizer.minimize", _nfev),
    ("starclone.optimizer", "xx_fidelity", "cloning.xx_fidelity", _xx_evals),
    ("starclone.cloning", "evolve_brute_force", "dynamics.evolve_brute_force", None),
    ("starclone.cloning", "amplitudes_from_brute_force", "dynamics.amplitudes_from_brute_force", None),
    ("starclone.cloning", "prepare_initial", "hilbert.prepare_initial", None),
    ("starclone.cloning", "reduce_qubit", "hilbert.reduce_qubit", None),
    ("starclone.dynamics", "evolve_brute_force", "dynamics.evolve_brute_force", None),
    ("starclone.dynamics", "build_full_hamiltonian", "star_model.build_full_hamiltonian", _dense_dim),
    ("starclone.dynamics", "prepare_initial", "hilbert.prepare_initial", None),
    ("starclone.verify", "evolve_analytic", "dynamics.evolve_analytic", None),
    ("starclone.verify", "evolve_brute_force", "dynamics.evolve_brute_force", None),
    ("starclone.verify", "amplitudes_from_brute_force", "dynamics.amplitudes_from_brute_force", None),
    ("starclone.verify", "fidelity_closed_form", "cloning.fidelity_closed_form", _closed_form_evals),
    ("starclone.verify", "pcc_fidelity", "cloning.pcc_fidelity", None),
    ("starclone.verify", "prepare_initial", "hilbert.prepare_initial", None),
    ("starclone.verify", "reduce_qubit", "hilbert.reduce_qubit", None),
)


class Tracer:
    """Spans of one pass, recorded in memory."""

    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: list[tuple] = []  # (id, name, start, end, parent, extra)
        self.missing: dict[str, str] = {}  # span name -> reason
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = self._stack()
        self._installed: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list, int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else 0)
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, None))

    def wrap(self, fn, name: str, extract):
        def wrapper(*args, **kwargs):
            stack, sid, parent = self._open()
            start = time.perf_counter()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if extract is not None and result is not None:
                    extra = extract(args, kwargs, result)
                self.spans.append((sid, name, start, end, parent, extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, extract in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.setdefault(
                    name, f"binding {module_name}.{attr} not found")
                continue
            setattr(module, attr, self.wrap(original, name, extract))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        """One line per span: id, name, start, end, parent, pass id, extra."""
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\tpass\textra\n")
            for sid, name, start, end, parent, extra in self.spans:
                out.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                          f"{self.pass_id}\t{'' if extra is None else extra}\n")


def wrapper_cost(calls: int = 10000, rounds: int = 5) -> float:
    """Seconds one wrapped call adds to a bare call, median over ``rounds``.

    Times a wrapped no-op (with a trivial extractor) against the bare
    no-op, so the figure is the tracer's own cost per span, free of the
    machine drift that a traced-minus-untraced pass difference carries.
    """
    def noop():
        return 0

    wrapped = Tracer(0).wrap(noop, "noop", lambda args, kwargs, result: result)
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for _sid, _name, start, end, parent, _extra in spans:
        children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, _name, start, end, _parent, _extra in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[sid] = (end - start) - covered
    return result


CLI_COMMANDS = ("table1", "optimize", "scan", "verify", "fidelity")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num / den * scale, 0 when nothing was measured (den == 0)."""
    return num / den * scale if den else 0.0


def summarize(spans, pass_wall: float, scan_points: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    selfs = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    extras: dict[str, list] = defaultdict(list)
    child_names: dict[int, set] = defaultdict(set)
    for sid, name, start, end, parent, extra in spans:
        count[name] += 1
        total[name] += end - start
        own[name] += selfs[sid]
        extras[name].append(extra)
        child_names[parent].add(name)
    out: dict[str, float] = {}
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
        out[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"]
    out["cli.scan.points"] = scan_points
    out["cli.scan.us_per_point"] = _ratio(total["cli.scan"], scan_points, 1e6)

    evals = sum(e for e in extras["optimizer.grid_scan"] if e is not None)
    out["optimizer.grid_scan.s"] = total["optimizer.grid_scan"]
    out["optimizer.grid_scan.evals"] = evals
    out["optimizer.grid_scan.ns_per_eval"] = _ratio(total["optimizer.grid_scan"], evals, 1e9)
    calls = count["optimizer.refine_local"]
    out["optimizer.refine_local.s"] = total["optimizer.refine_local"]
    out["optimizer.refine_local.calls"] = calls
    out["optimizer.refine_local.nfev"] = sum(e for e in extras["optimizer.minimize"] if e)
    out["optimizer.refine_local.improved_ratio"] = _ratio(
        sum(1 for e in extras["optimizer.refine_local"] if e), calls)
    out["optimizer.spans"] = sum(n for name, n in count.items() if name.startswith("optimizer."))

    evals = sum(e for e in extras["cloning.xx_fidelity"] if e is not None)
    out["cloning.xx_fidelity.evals"] = evals
    out["cloning.xx_fidelity.ns_per_eval"] = _ratio(total["cloning.xx_fidelity"], evals, 1e9)
    evals = degenerate = 0
    degenerate_s = 0.0
    for sid, name, start, end, parent, extra in spans:
        if name == "cloning.fidelity_closed_form" and extra is not None:
            evals += extra[0]
            if extra[1]:
                degenerate += extra[0]
                degenerate_s += end - start
    out["cloning.fidelity_closed_form.evals"] = evals
    out["cloning.fidelity_closed_form.ns_per_eval"] = _ratio(
        total["cloning.fidelity_closed_form"], evals, 1e9)
    out["cloning.fidelity_closed_form.degenerate_share"] = _ratio(degenerate, evals)
    out["cloning.fidelity_closed_form.degenerate_us_per_eval"] = _ratio(degenerate_s, degenerate, 1e6)
    out["cloning.pcc_fidelity.calls"] = count["cloning.pcc_fidelity"]
    out["cloning.make_clone_report.s"] = total["cloning.make_clone_report"]

    calls = count["dynamics.evolve_analytic"]
    out["dynamics.evolve_analytic.calls"] = calls
    out["dynamics.evolve_analytic.us_per_call"] = _ratio(total["dynamics.evolve_analytic"], calls, 1e6)
    brute_calls = count["dynamics.evolve_brute_force"]
    out["dynamics.evolve_brute_force.calls"] = brute_calls
    out["dynamics.evolve_brute_force.s"] = total["dynamics.evolve_brute_force"]
    out["dynamics.amplitudes_from_brute_force.calls"] = count["dynamics.amplitudes_from_brute_force"]
    eig_count = count["star_model.build_full_hamiltonian"]
    out["dynamics.dense.eig_count"] = eig_count
    out["dynamics.dense.reuse_ratio"] = 1.0 - eig_count / brute_calls if brute_calls else 0.0
    # a miss runs build + eigh inside evolve_brute_force; its self time is the eigh
    eig_s = sum(selfs[sid] for sid, name, *_ in spans
                if name == "dynamics.evolve_brute_force"
                and "star_model.build_full_hamiltonian" in child_names.get(sid, ()))
    out["dynamics.dense.eig_s"] = eig_s
    out["star_model.build_full_hamiltonian.s"] = total["star_model.build_full_hamiltonian"]
    dim = max((e for e in extras["star_model.build_full_hamiltonian"] if e), default=0)
    out["star_model.dense_dim_max"] = dim
    out["star_model.dense_bytes_computed"] = 16 * dim * dim  # one complex128 H
    for name in ("prepare_initial", "reduce_qubit"):
        out[f"hilbert.{name}.calls"] = count[f"hilbert.{name}"]
        out[f"hilbert.{name}.s"] = total[f"hilbert.{name}"]

    worst = 0.0
    for suite in SUITES:
        out[f"verify.{suite}.s"] = 0.0
        out[f"verify.{suite}.checks"] = 0
    for sid, name, start, end, parent, extra in spans:
        if name == "verify.run_suite" and extra is not None:
            suite, checks, margin = extra
            out[f"verify.{suite}.s"] += end - start
            out[f"verify.{suite}.checks"] += checks
            worst = max(worst, margin) if math.isfinite(margin) else math.inf
    out["verify.worst_margin"] = worst

    other_self = sum(selfs[sid] for sid, name, *_ in spans
                     if not name.startswith(("cloning.", "optimizer.")))
    out["share.cloning_optimizer"] = _ratio(pass_wall - other_self, pass_wall)
    out["share.dense_eig"] = _ratio(eig_s, pass_wall)
    return out


# metric -> span names it needs; a missing binding makes the metric missing
def depends(metric: str) -> tuple[str, ...]:
    if metric.startswith("verify."):
        return ("verify.run_suite",)
    if metric.startswith("optimizer.refine_local.nfev"):
        return ("optimizer.refine_local", "optimizer.minimize")
    if metric.startswith("dynamics.dense."):
        return ("dynamics.evolve_brute_force", "star_model.build_full_hamiltonian")
    if metric.startswith("star_model."):
        return ("star_model.build_full_hamiltonian",)
    if metric == "share.dense_eig":
        return depends("dynamics.dense.eig_s")
    parts = metric.split(".")
    return (".".join(parts[:2]),) if len(parts) > 2 else ()
