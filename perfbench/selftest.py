"""Checker self-test: genuine outputs pass, each corrupted output fails.

    python3 perfbench/selftest.py

Runs small real commands through ``starclone.cli.main``, confirms that
their checker accepts them, then corrupts one value in each (a perturbed
f_max, a fidelity off by 1e-6, a NaN residual, ...) and confirms that the
checker now reports a failure.  Exits 1 if any case goes the wrong way.
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import starclone.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def cli_output(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = starclone.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited with {rc}")
    return out.getvalue()


def edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def cases(ref: dict):
    """(name, command, genuine output, corrupted output)."""
    table1 = {"kind": "table1", "argv": ["table1"], "spec": {"ms": list(workloads.TABLE1_MS)}}
    rows = [{"m": int(m), "k": r["k"], "b": r["b"], "t": r["t"], "f_max": r["f_max"]}
            for m, r in sorted(ref["seed_table1"].items(), key=lambda kv: int(kv[0]))]
    text = json.dumps({"rows": rows})

    def bump(delta):
        def edit(data):
            data["rows"][3]["f_max"] += delta
        return edit

    yield "table1 f_max raised by 1e-6", table1, text, edit_json(text, bump(1e-6))
    yield "table1 f_max lowered by 2e-6", table1, text, edit_json(text, bump(-2e-6))

    opt = workloads.optimize_command(2, 0.0, "xx", None)
    opt["argv"][opt["argv"].index("--n-t") + 1] = "201"
    text = cli_output(opt["argv"])
    yield ("optimize F raised by 1e-6", opt, text,
           edit_json(text, lambda d: d["best"].__setitem__("fidelity", d["best"]["fidelity"] + 1e-6)))

    scan = workloads.scan_command(3, 1, 0.7, "xxz", "analytic", {},
                                  [("t", 0.0, 10.0, 30), ("b", 0.0, 1.0, 5)], "closed-form")
    text = cli_output(scan["argv"])
    lines = text.strip().splitlines()
    fields = lines[77].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)
    off = "\n".join(lines[:77] + [",".join(fields)] + lines[78:])
    yield "scan row off by 1e-6", scan, text, off
    yield "scan row missing", scan, text, "\n".join(lines[:-1])

    closed = workloads.scan_command(4, 2, 0.0, "xxz", "closed-form", {"b": 0.3},
                                    [("lambda", 0.5, 1.5, 4), ("t", 0.0, 10.0, 10)], "analytic")
    text = cli_output(closed["argv"])
    lines = text.strip().splitlines()
    fields = lines[-1].split(",")
    fields[5] = repr(float(fields[5]) - 1e-6)
    yield "closed-form scan row off by 1e-6", closed, text, "\n".join(lines[:-1] + [",".join(fields)])

    verify = {"kind": "verify", "argv": ["verify", "universal", "--seed", "0"],
              "spec": {"suite": "universal"}}
    text = cli_output(verify["argv"])
    lines = text.splitlines()
    head, _, tail = lines[0].partition("residual = ")
    lines[0] = head + "residual = nan " + tail.split(" ", 1)[1]
    yield "verify residual NaN", verify, text, "\n".join(lines)

    brute = {"kind": "brute", "spec": {"m": 3, "k": 1, "lam": 0.7, "b": 0.3, "t": 2.5,
                                       "theta": 1.0, "phi": 0.4},
             "argv": ["fidelity", "--m", "3", "--k", "1", "--lambda=0.7", "--b=0.3",
                      "--t=2.5", "--method", "brute", "--theta=1.0", "--phi=0.4",
                      "--format", "json"]}
    text = cli_output(brute["argv"])

    def nudge(data):
        data["per_qubit_fidelities"][2] += 1e-6

    yield "brute per-qubit fidelity off by 1e-6", brute, text, edit_json(text, nudge)


def main() -> int:
    ref = json.loads((HERE / "baseline.json").read_text())
    wrong = 0
    for name, cmd, genuine, corrupted in cases(ref):
        ok = checks.check(copy.deepcopy(cmd), genuine, 0, 0, ref)
        bad = checks.check(copy.deepcopy(cmd), corrupted, 0, 0, ref)
        verdict = "ok" if not ok and bad else "WRONG"
        wrong += verdict != "ok"
        print(f"[{verdict}] {name}: genuine -> {ok or 'pass'}; corrupted -> {bad[:1] or 'pass'}")
    print(f"checker self-test: {'all cases ok' if not wrong else f'{wrong} case(s) wrong'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
