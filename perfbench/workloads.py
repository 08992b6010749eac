"""Seeded command lists for the three benchmark workloads.

Each command is a dict holding the ``argv`` handed to ``starclone.cli.main``
plus what its checker needs to know about the request (``kind`` and
``spec``).  Only ``argv`` reaches the program; the seed stays here.  Draws
use ``random.Random`` so the same seed gives the same commands on any
interpreter, without importing numpy in the parent process.

Parameter draws keep the amount of work per pass independent of the seed:
sweep sizes are fixed, analytic sweeps use interior k (no edge-state
shortcut), and only the degenerate sweep sits on the lambda = 0, k = 0 gap.
"""

from __future__ import annotations

import random

WORKLOADS = ("search", "evaluate", "oracle-large")

SUITES = ("optimal-pcc", "universal", "ancilla-free", "oracle", "bounds")

# The paper's constrained XX box, spelled out so a changed CLI default
# cannot silently shrink the search.
TABLE1_MS = tuple(range(2, 9))
TABLE1_N_B = 201
TABLE1_N_T = 30001

# Optimal 1-to-2 phase-covariant fidelity 1/2 + sqrt(8)/8, which the
# M = 2 XX box must reach.
M2_XX_OPTIMUM = 0.8535533905932737

_OPT_GRID = ("--b-range", "0.01", "1", "--t-range", "0", "20",
             "--n-b", "51", "--n-t", "2001")


def _num(x: float) -> str:
    """Shortest text that parses back to exactly ``x``."""
    return repr(float(x))


def _table1() -> dict:
    argv = ["table1", "--m", *map(str, TABLE1_MS), "--n-b", str(TABLE1_N_B),
            "--n-t", str(TABLE1_N_T), "--refine", "--format", "json"]
    return {"kind": "table1", "argv": argv, "spec": {"ms": list(TABLE1_MS)}}


def optimize_command(m: int, lam: float, model: str, target: float | None) -> dict:
    argv = ["optimize", "--m", str(m), "--k", *map(str, range(m + 1)),
            "--model", model]
    if model == "xxz":
        argv.append(f"--lambda={_num(lam)}")
    argv += [*_OPT_GRID, "--refine", "--format", "json"]
    spec = {"m": m, "lam": lam, "b_range": [0.01, 1.0], "t_range": [0.0, 20.0],
            "target": target}
    return {"kind": "optimize", "argv": argv, "spec": spec}


def _search(rng: random.Random) -> list[dict]:
    lo = round(rng.uniform(0.5, 2.0), 6)
    lams = [round(lo + i * 0.2, 6) for i in range(6)]  # 6 values within [0.5, 3]
    return ([_table1(), optimize_command(2, 0.0, "xx", M2_XX_OPTIMUM)]
            + [optimize_command(4, lam, "xxz", None) for lam in lams])


def scan_command(m: int, k: int, lam: float, model: str, method: str,
          fixed: dict, axes: list, route: str) -> dict:
    """``axes`` is [(axis, lo, hi, n)]; the first axis is the outer one."""
    argv = ["scan", "--m", str(m), "--k", str(k), "--model", model]
    if model == "xxz":
        argv.append(f"--lambda={_num(lam)}")
    argv += [f"--b={_num(fixed.get('b', 0.0))}", f"--t={_num(fixed.get('t', 0.0))}"]
    for axis, lo, hi, n in axes:
        argv += ["--sweep", f"{axis}={_num(lo)}:{_num(hi)}:{n}"]
    argv += ["--method", method]
    spec = {"m": m, "k": k, "lam": lam, "b": fixed.get("b", 0.0),
            "t": fixed.get("t", 0.0), "method": method,
            "axes": [list(a) for a in axes], "route": route}
    return {"kind": "scan", "argv": argv, "spec": spec}


def _evaluate(rng: random.Random, seed: int) -> list[dict]:
    u = lambda lo, hi: round(rng.uniform(lo, hi), 6)  # noqa: E731
    cmds = []
    m = rng.randint(3, 7)
    b_lo = u(0.0, 0.5)
    cmds.append(scan_command(m, rng.randint(1, m - 1), u(-2.0, 3.0), "xxz", "analytic",
                      {}, [("t", 0.0, u(20.0, 60.0), 200),
                           ("b", b_lo, b_lo + 0.5, 100)], "closed-form"))
    cmds.append(scan_command(rng.randint(2, 8), 0, 0.0, "xx", "closed-form",
                      {"b": u(0.05, 1.0)}, [("t", 0.0, u(20.0, 60.0), 10000)],
                      "xx"))
    m = rng.randint(3, 7)
    lam_lo = u(0.5, 2.0)
    cmds.append(scan_command(m, rng.randint(1, m - 1), 0.0, "xxz", "closed-form",
                      {"b": u(0.0, 1.0)}, [("lambda", lam_lo, lam_lo + 1.0, 100),
                                           ("t", 0.0, u(20.0, 60.0), 200)],
                      "analytic"))
    cmds.append(scan_command(8, rng.randint(0, 8), u(0.5, 3.0), "xxz", "brute",
                      {"b": u(0.0, 1.0)}, [("t", 0.0, u(20.0, 40.0), 400)],
                      "closed-form"))
    b_lo = u(0.0, 0.5)
    cmds.append(scan_command(6, rng.randint(0, 6), u(0.5, 3.0), "xxz", "brute", {},
                      [("b", b_lo, b_lo + 0.5, 20), ("t", 0.0, u(20.0, 40.0), 50)],
                      "closed-form"))
    for suite in SUITES:
        cmds.append({"kind": "verify", "argv": ["verify", suite, "--seed", str(seed)],
                     "spec": {"suite": suite}})
    return cmds


def _oracle_large(rng: random.Random) -> list[dict]:
    cmds = []
    for m in (9, 10):
        p = {"m": m, "k": rng.randint(0, m), "lam": round(rng.uniform(0.5, 3.0), 6),
             "b": round(rng.uniform(0.0, 1.0), 6), "t": round(rng.uniform(0.5, 30.0), 6),
             "theta": round(rng.uniform(0.2, 2.9), 6),
             "phi": round(rng.uniform(0.0, 6.2), 6)}
        argv = ["fidelity", "--m", str(m), "--k", str(p["k"]), "--model", "xxz",
                f"--lambda={_num(p['lam'])}", f"--b={_num(p['b'])}",
                f"--t={_num(p['t'])}", "--method", "brute",
                f"--theta={_num(p['theta'])}", f"--phi={_num(p['phi'])}",
                "--format", "json"]
        cmds.append({"kind": "brute", "argv": argv, "spec": p})
    return cmds


def probe_command() -> dict:
    """Grid-only table1 row for M = 8, run once per worker count."""
    argv = ["table1", "--m", "8", "--n-b", str(TABLE1_N_B), "--n-t", str(TABLE1_N_T),
            "--no-refine", "--format", "json"]
    return {"kind": "table1", "argv": argv, "spec": {"ms": [8], "grid_only": True}}


def commands(workload: str, seed: int) -> list[dict]:
    """The commands of one pass, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "search":
        return _search(rng)
    if workload == "evaluate":
        return _evaluate(rng, seed)
    if workload == "oracle-large":
        return _oracle_large(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def scan_points(cmd: dict) -> int:
    """Rows a scan command must emit: the product of its sweep sizes."""
    points = 1
    for _axis, _lo, _hi, n in cmd["spec"]["axes"]:
        points *= n
    return points
