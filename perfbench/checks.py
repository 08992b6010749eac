"""Output checkers: one per operation type, each returning its failures.

A checker gets the command dict from ``workloads.py`` and the text the
command printed, and returns a list of failure messages (empty when the
output is correct).  Bounds that have a one-line closed form are computed
here rather than taken from the program; fidelities are re-evaluated
through a route other than the one that produced them.
"""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np

from starclone import (
    ModelParams,
    evolve_analytic,
    fidelity_closed_form,
    make_clone_report,
    pcc_fidelity,
    xx_fidelity,
)
from workloads import scan_points

REEVAL_TOL = 1e-9
BOUND_SLACK = 1e-10
REFERENCE_SLACK = 1e-4
SEED_SLACK = 1e-6
TARGET_SLACK = 1e-6
SCAN_SAMPLE = 200

_VERIFY_LINE = re.compile(
    r"^\[(PASS|FAIL)\] (.*): residual = (\S+) \(tolerance (\S+)\)$"
)


def optimal_bound(m: int) -> float:
    """Best equatorial 1-to-M fidelity over symmetric initial states."""
    if m % 2 == 0:
        return 0.5 + math.sqrt(m * (m + 2)) / (4.0 * m)
    return 0.5 + (m + 1) / (4.0 * m)


def interference_bound(m: int, k: int) -> float:
    return 0.5 + max(math.sqrt(k * (m - k + 1)), math.sqrt((m - k) * (k + 1))) / (2.0 * m)


def _near(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol, false for any NaN."""
    return abs(a - b) <= tol


def check_table1(cmd: dict, text: str, ref: dict) -> list[str]:
    """Rows lie between the paper reference and the bound, match the seed, re-evaluate.

    A grid-only run (no refinement) is held to the bound and the
    re-evaluation only.
    """
    rows = json.loads(text)["rows"]
    ms = cmd["spec"]["ms"]
    refined = not cmd["spec"].get("grid_only", False)
    fails = []
    if [row["m"] for row in rows] != ms:
        fails.append(f"table1 rows cover M = {[row['m'] for row in rows]}, expected {ms}")
    for row in rows:
        m, k, f = row["m"], row["k"], row["f_max"]
        key = str(m)
        if not 0 <= k <= m or not 0.01 <= row["b"] <= 1.0 or not 0.0 <= row["t"] <= 300.0:
            fails.append(f"table1 M={m}: point (k={k}, B={row['b']}, t={row['t']}) outside the box")
            continue
        if not f <= optimal_bound(m) + BOUND_SLACK:
            fails.append(f"table1 M={m}: f_max {f!r} above the optimal bound")
        if refined and not f >= ref["paper_f_max"][key] - REFERENCE_SLACK:
            fails.append(f"table1 M={m}: f_max {f!r} below the paper reference by more than 1e-4")
        if refined and not f >= ref["seed_table1"][key]["f_max"] - SEED_SLACK:
            fails.append(f"table1 M={m}: f_max {f!r} below the seed's by more than 1e-6")
        again = float(fidelity_closed_form(m, k, 0.0, row["b"], row["t"]))
        if not _near(again, f, REEVAL_TOL):
            fails.append(f"table1 M={m}: f_max {f!r} but the closed form gives {again!r}")
    return fails


def check_optimize(cmd: dict, text: str) -> list[str]:
    """The best point re-evaluates by block propagation and respects its bound."""
    spec = cmd["spec"]
    best = json.loads(text)["best"]
    m, k, lam, b, t, f = (best[key] for key in ("m", "k", "lambda", "b", "t", "fidelity"))
    label = f"optimize M={m} lambda={lam!r}"
    if m != spec["m"] or lam != spec["lam"] or not 0 <= k <= m:
        return [f"{label}: best point has M={m}, k={k}, lambda={lam!r}"]
    (b_lo, b_hi), (t_lo, t_hi) = spec["b_range"], spec["t_range"]
    if not (b_lo <= b <= b_hi and t_lo <= t <= t_hi):
        return [f"{label}: best point (B={b!r}, t={t!r}) outside the box"]
    fails = []
    again = float(pcc_fidelity(evolve_analytic(ModelParams(m, lam, b), k, t)))
    if not _near(again, f, REEVAL_TOL):
        fails.append(f"{label}: F {f!r} but block propagation gives {again!r}")
    if not f <= interference_bound(m, k) + BOUND_SLACK:
        fails.append(f"{label}: F {f!r} above the interference bound")
    if spec["target"] is not None and not f >= spec["target"] - TARGET_SLACK:
        fails.append(f"{label}: F {f!r} misses the optimum {spec['target']!r}")
    return fails


def _grid(axis: list) -> np.ndarray:
    _name, lo, hi, n = axis
    return np.linspace(float(lo), float(hi), int(n))


def _route(spec: dict, lam: float, b: float, t: np.ndarray) -> np.ndarray:
    """Fidelities along a t array through the checker's route for this scan."""
    m, k = spec["m"], spec["k"]
    if spec["route"] == "xx":
        return np.asarray(xx_fidelity(m, k, b, t), dtype=float)
    if spec["route"] == "analytic":
        params = ModelParams(m, lam, b)
        return np.array([pcc_fidelity(evolve_analytic(params, k, float(ti))) for ti in t])
    return np.broadcast_to(
        np.asarray(fidelity_closed_form(m, k, lam, b, t), dtype=float), t.shape)


def check_scan(cmd: dict, text: str, seed: int) -> list[str]:
    """Row count, exact grid echo, and every fidelity against another route.

    Closed-form scans are re-evaluated in full through the vectorised
    closed form and on a seeded sample through block propagation; other
    scans go through the closed form (or the XX formula) in full.
    """
    spec = cmd["spec"]
    lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    expected = scan_points(cmd)
    label = f"scan {spec['method']} M={spec['m']} k={spec['k']}"
    if not lines or lines[0] != "M,k,lambda,B,t,fidelity,method":
        return [f"{label}: missing CSV header"]
    if len(rows) != expected:
        return [f"{label}: {len(rows)} rows, expected {expected}"]
    columns = ("lambda", "b", "t")
    points = np.empty((expected, 3))  # lambda, B, t of each row, outer axis first
    points[:] = [spec["lam"], spec["b"], spec["t"]]
    mesh = np.meshgrid(*[_grid(axis) for axis in spec["axes"]], indexing="ij")
    for axis, values in zip(spec["axes"], mesh):
        points[:, columns.index(axis[0])] = values.ravel()
    fails = []
    got = np.empty(expected)
    for i, row in enumerate(rows):
        want = [str(spec["m"]), str(spec["k"])] + [f"{v:.12g}" for v in points[i]]
        if len(row) != 7 or row[:5] != want or row[6] != spec["method"]:
            return [f"{label}: row {i} is {','.join(row)!r}, expected point {want}"]
        got[i] = float(row[5])
    # rows sharing (lambda, B) go through the route as one t array
    full = dict(spec, route="closed-form" if spec["route"] == "analytic" else spec["route"])
    order = np.lexsort((points[:, 2], points[:, 1], points[:, 0]))
    pts = points[order]
    split = np.flatnonzero(np.any(np.diff(pts[:, :2], axis=0) != 0.0, axis=1)) + 1
    want_all = np.empty(expected)
    for group in np.split(np.arange(expected), split):
        lam, b = pts[group[0], 0], pts[group[0], 1]
        want_all[order[group]] = _route(full, lam, b, pts[group, 2])
    bad = np.flatnonzero(~(np.abs(got - want_all) <= REEVAL_TOL))
    for i in bad[:3]:
        fails.append(f"{label}: row {i} fidelity {float(got[i])!r}, "
                     f"{full['route']} gives {float(want_all[i])!r}")
    if spec["route"] == "analytic":
        sample = random.Random(seed).sample(range(expected), min(SCAN_SAMPLE, expected))
        for i in sample:
            lam, b, t = points[i]
            again = float(_route(spec, lam, b, np.array([t]))[0])
            if not _near(again, got[i], REEVAL_TOL):
                fails.append(f"{label}: row {i} fidelity {float(got[i])!r}, "
                             f"analytic gives {again!r}")
                break
    return fails


def parse_verify(text: str) -> list[tuple[str, float, float, bool]]:
    """(label, residual, tolerance, marked PASS) for each check line."""
    checks = []
    for line in text.splitlines():
        match = _VERIFY_LINE.match(line.strip())
        if match:
            marker, label, residual, tolerance = match.groups()
            checks.append((label, float(residual), float(tolerance), marker == "PASS"))
    return checks


def check_verify(cmd: dict, text: str) -> list[str]:
    """Every check passes with a finite residual within its tolerance."""
    suite = cmd["spec"]["suite"]
    checks = parse_verify(text)
    if not checks:
        return [f"verify {suite}: no check lines"]
    return [
        f"verify {suite}: {label}: residual {residual!r} (tolerance {tolerance!r})"
        for label, residual, tolerance, marked in checks
        if not (marked and math.isfinite(residual) and residual <= tolerance)
    ]


def check_brute(cmd: dict, text: str) -> list[str]:
    """Dense per-qubit fidelities match the analytic report qubit by qubit."""
    p = cmd["spec"]
    data = json.loads(text)
    label = f"fidelity brute M={p['m']} k={p['k']}"
    params = ModelParams(p["m"], p["lam"], p["b"])
    analytic = make_clone_report(params, p["k"], p["t"], theta=p["theta"], phi=p["phi"],
                                 method="analytic")
    dense = data["per_qubit_fidelities"]
    if len(dense) != p["m"] + 1:
        return [f"{label}: {len(dense)} per-qubit fidelities, expected {p['m'] + 1}"]
    fails = [
        f"{label}: qubit {q} fidelity {got!r}, analytic {want!r}"
        for q, (got, want) in enumerate(zip(dense, analytic.per_qubit_fidelities))
        if not _near(got, want, REEVAL_TOL)
    ]
    closed = float(fidelity_closed_form(p["m"], p["k"], p["lam"], p["b"], p["t"]))
    if not _near(data["equatorial_fidelity"], closed, REEVAL_TOL):
        fails.append(f"{label}: equatorial {data['equatorial_fidelity']!r}, closed form {closed!r}")
    if data["fidelity"] != dense[1]:
        fails.append(f"{label}: input fidelity {data['fidelity']!r} differs from qubit 1")
    return fails


def check(cmd: dict, text: str, rc, seed: int, ref: dict) -> list[str]:
    """Failures of one command: a non-zero exit, unparsable or wrong output."""
    if rc != 0:
        return [f"{' '.join(cmd['argv'][:2])}: exit code {rc!r}"]
    try:
        if cmd["kind"] == "table1":
            return check_table1(cmd, text, ref)
        if cmd["kind"] == "optimize":
            return check_optimize(cmd, text)
        if cmd["kind"] == "scan":
            return check_scan(cmd, text, seed)
        if cmd["kind"] == "verify":
            return check_verify(cmd, text)
        if cmd["kind"] == "brute":
            return check_brute(cmd, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{' '.join(cmd['argv'][:2])}: unreadable output ({type(exc).__name__}: {exc})"]
    raise ValueError(f"no checker for kind {cmd['kind']!r}")
