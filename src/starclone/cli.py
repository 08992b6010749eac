"""Command-line surface: fidelity evaluation, search, verification, scans.

All times and fields are dimensionless (exchange coupling = 1).  Every
subcommand accepts ``--config FILE`` holding either flat ``key=value``
lines or a JSON object (for example a previously saved ``--format json``
output); explicit flags win over config values.  An option's flag is its
config key with ``-`` for ``_`` (``max_qubits``, ``--max-qubits``).  Each
config value is spelled as its flag and parsed by the same argparse parser,
so it is checked exactly like that flag; a JSON null leaves it unset.  Exit
codes: 0 success, 1 failed verification checks, 2 usage errors (argparse's
``parser.error``), which include an unreadable ``--config`` and an
unwritable ``--output``, and 141 when the reader of stdout closes it early.

A payload is ``"command"``, every resolved option but ``format`` and
``output``, then the results that ``cmd_*`` returns (``optimize``'s sorted
``k`` and ``table1``'s defaulted ``m`` replace their echo), so a saved
``--format json`` output works as ``--config``; ``text_*`` formats it as
human lines.  ``main`` does the rest: it resolves ``--model``/``--lambda``,
makes ``ValueError``, ``CapacityError`` and ``OracleInconsistencyError``
usage errors, prints or writes ``--output``, exits 1 on ``"passed": false``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cloning import (
    _METHODS,
    fidelity_closed_form,
    make_clone_report,
    pcc_fidelity,
    preset_ancilla_free,
    preset_k_equals_m,
    preset_optimal,
    universal_preset,
)
from .dynamics import amplitudes_from_brute_force, evolve_analytic
from .errors import CapacityError, OracleInconsistencyError
from .optimizer import (
    XX_REFERENCE_MAXIMA,
    SearchBox,
    grid_scan,
    reproduce_table1,
    scan_and_refine,
)
from .star_model import DEFAULT_MAX_QUBITS, ModelParams, _require_memory, _require_point
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that left early

_MODELS = {"xx": 0.0, "heisenberg": 1.0, "xxz": None}  # model -> the lambda it fixes
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)
_RECORD_KEYS = {"lam": "lambda", "F": "fidelity"}  # JSON keys of renamed record fields
_SWEEP_AXES = ("lambda", "b", "t")  # also the axis order of scan's fidelity array
_SCAN_COLUMNS = ("lambda_column", "b_column", "t_column", "fidelity_column")  # CSV order
# scan's memory per CSV row: the fidelity array, three mesh copies, four
# column lists and the row text (about 320 bytes measured with tracemalloc)
_SCAN_BYTES_PER_ROW = 400


def _parse_bool(raw) -> bool:
    text = str(raw).strip().lower()  # str(True) is "True"
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


@dataclass(frozen=True)
class _Opt:
    """One option: config key, converter and default; the flag is ``--key`` unless positional."""

    key: str
    convert: object = str
    default: object = None
    required: bool = False
    choices: tuple | None = None
    nargs: object = None
    boolean: bool = False
    append: bool = False
    positional: bool = False
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_COMMON_OUT = (
    _Opt("format", str, "human", choices=("human", "json"),
         help="output format"),
    _Opt("output", str, None, help="write output to this file"),
)

_M = _Opt("m", int, None, required=True, help="number of outer spins")

_MODEL_OPTS = (
    _Opt("model", str, "xxz", choices=tuple(_MODELS),
         help="model shorthand; xx fixes lambda=0, heisenberg fixes lambda=1"),
    _Opt("lambda", float, None,
         help="anisotropy (z-coupling relative to the exchange coupling)"),
)

_POINT_OPTS = (  # fidelity and scan
    _M,
    _Opt("k", int, None, required=True,
         help="initial |0> count of the outer register"),
    *_MODEL_OPTS,
)

_ROUTE_OPTS = (  # fidelity and scan
    _Opt("method", str, "analytic", choices=_METHODS,
         help="evaluation route"),
    _Opt("max_qubits", int, DEFAULT_MAX_QUBITS,
         help="dense-evolution size cap (total spins)"),
)

_OPTIONS: dict[str, tuple[_Opt, ...]] = {
    "fidelity": (
        *_POINT_OPTS,
        _Opt("b", float, 0.0, help="magnetic field"),
        _Opt("t", float, None, required=True, help="evolution time"),
        _Opt("theta", float, math.pi / 2.0,
             help="input-state polar angle (default: equatorial)"),
        _Opt("phi", float, 0.0, help="input-state azimuthal angle"),
        *_ROUTE_OPTS,
        *_COMMON_OUT,
    ),
    "optimize": (
        _M,
        _Opt("k", int, None, nargs="*",
             help="k values to scan (default: all of 0..M)"),
        *_MODEL_OPTS,
        _Opt("b_range", float, SearchBox.b_range, nargs=2,
             help="field box: LO HI"),
        _Opt("t_range", float, SearchBox.t_range, nargs=2,
             help="time box: LO HI"),
        _Opt("n_b", int, SearchBox.n_b, help="field grid points"),
        _Opt("n_t", int, SearchBox.n_t, help="time grid points"),
        _Opt("refine", default=True, boolean=True,
             help="refine leading basins with a local simplex"),
        _Opt("refine_iters", int, SearchBox.refine_iters,
             help="refinement iteration cap"),
        _Opt("refine_tol", float, SearchBox.refine_tol,
             help="refinement parameter tolerance"),
        _Opt("candidates", int, 8,
             help="basins to refine in total, at most one per t-basin of a (k, lambda)"),
        *_COMMON_OUT,
    ),
    "table1": (
        _Opt("m", int, None, nargs="*",
             help="network sizes (default: 2..8)"),
        _Opt("n_b", int, SearchBox.n_b,
             help="accepted and ignored: the exact search needs no field grid"),
        _Opt("n_t", int, SearchBox.n_t,
             help="seed grid points on [0, T0], T0 = 2 pi/(B_hi - B_lo), before the "
                  "certified bisection"),
        _Opt("refine", default=True, boolean=True,
             help="accepted and ignored: the exact search needs no refinement"),
        *_COMMON_OUT,
    ),
    "verify": (
        _Opt("suite", choices=SUITE_NAMES, positional=True, help="verification suite to run"),
        _Opt("seed", int, 0, help="seed for randomized sweeps"),
        _Opt("trials", int, None,
             help="sample count of the oracle, universal and bounds suites; optimal-pcc "
                  "and ancilla-free run fixed parameter lists and ignore it"),
        *_COMMON_OUT,
    ),
    "scan": (
        *_POINT_OPTS,
        _Opt("b", float, 0.0, help="fixed field (unless swept)"),
        _Opt("t", float, 0.0, help="fixed time (unless swept)"),
        _Opt("sweep", str, None, append=True,
             help="sweep axis AXIS=LO:HI:N with AXIS in {t, b, lambda}; repeat for a "
                  "second axis (the first is outer); all t go in one call per (lambda, B)"),
        *_ROUTE_OPTS,
        _Opt("output", str, None, help="write CSV to this file"),
    ),
    "presets": (
        _M,
        *_COMMON_OUT,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starclone",
        description="Spin-star cloning by free evolution: simulate, verify, optimize.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _build, _text) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary)
        sub._negative_number_matcher = _NEGATIVE_NUMBER  # argparse's misses -1e-05 and -inf
        sub.add_argument("--config", dest="config", default=None,
                         help="key=value or JSON config file; flags win")
        for opt in _OPTIONS[command]:
            kwargs: dict = {"dest": opt.key, "default": argparse.SUPPRESS,
                            "help": opt.help}
            if opt.positional:
                sub.add_argument(opt.key, choices=opt.choices, help=opt.help)
            elif opt.boolean:
                sub.add_argument(opt.flag, action=argparse.BooleanOptionalAction,
                                 **kwargs)
            elif opt.append:
                sub.add_argument(opt.flag, action="append", type=opt.convert,
                                 **kwargs)
            else:
                if opt.choices:
                    kwargs["choices"] = opt.choices
                if opt.nargs is not None:
                    kwargs["nargs"] = opt.nargs
                sub.add_argument(opt.flag, type=opt.convert, **kwargs)
    return parser


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config {path!r}: {exc}")
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            parser.error(f"config {path!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            parser.error(f"config {path!r} must hold a JSON object")
        return data
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"config {path!r} line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    return values


def _config_argv(opt: _Opt, raw) -> list[str]:
    """A config value spelled as its flag; flat lists split at commas (or spaces)."""
    if opt.boolean:
        return [opt.flag if _parse_bool(raw) else "--no-" + opt.flag[2:]]
    if opt.append:
        return [f"{opt.flag}={item}" for item in
                (raw if isinstance(raw, list) else str(raw).split(","))]
    if opt.nargs is None:
        return [f"{opt.flag}={raw}"]
    items = raw if isinstance(raw, list) else str(raw).replace(",", " ").split()
    return [opt.flag, *map(str, items)]


def _resolve_values(command: str, args: argparse.Namespace,
                    parser: argparse.ArgumentParser) -> dict:
    """defaults <- config file <- explicit flags, then required checks."""
    opts = _OPTIONS[command]
    merged = {opt.key: opt.default for opt in opts}
    if args.config:
        config = _load_config(args.config, parser)
        argv = [command, *(getattr(args, opt.key) for opt in opts if opt.positional)]
        try:
            for opt in opts:
                if not opt.positional and config.get(opt.key) is not None:
                    argv += _config_argv(opt, config[opt.key])
        except ValueError as exc:  # an unreadable boolean
            parser.error(f"config key {opt.key!r}: {exc}")
        merged.update(vars(parser.parse_args(argv)))
    merged.update(vars(args))
    del merged["command"], merged["config"]
    for opt in opts:
        if opt.required and merged.get(opt.key) is None:
            parser.error(f"missing required option {opt.flag} (or config key {opt.key!r})")
    return merged


def _resolve_lambda(values: dict) -> float:
    model, lam = values["model"], values["lambda"]
    fixed = _MODELS[model]
    if fixed is None:
        return 0.0 if lam is None else float(lam)
    if lam is not None and lam != fixed:
        raise ValueError(f"model {model!r} fixes lambda = {fixed:g}; conflicting --lambda given")
    return fixed


def _record(record) -> dict:
    """A result record's fields in order: lam as lambda, F as fidelity, other names lowercased."""
    return {_RECORD_KEYS.get(name, name.lower()): value for name, value in asdict(record).items()}


def _complex_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def cmd_fidelity(values: dict) -> dict:
    params = ModelParams(values["m"], values["lambda"], values["b"])
    report = make_clone_report(
        params, values["k"], values["t"], theta=values["theta"],
        phi=values["phi"], method=values["method"],
        max_qubits=values["max_qubits"],
    )
    amp = report.amplitudes
    return {
        "fidelity": report.per_qubit_fidelities[1],
        "equatorial_fidelity": report.equatorial_fidelity,
        "per_qubit_fidelities": list(report.per_qubit_fidelities),
        "amplitudes": {name: _complex_json(getattr(amp, name))
                       for name in ("f1", "f2", "g1", "g2")},
    }


def text_fidelity(p: dict) -> list[str]:
    lines = [
        f"M = {p['m']}  k = {p['k']}  lambda = {_fmt(p['lambda'])}  "
        f"B = {_fmt(p['b'])}  t = {_fmt(p['t'])}",
        f"method = {p['method']}  theta = {_fmt(p['theta'])}  phi = {_fmt(p['phi'])}",
        f"fidelity (input state)  = {_fmt(p['fidelity'])}",
        f"fidelity (equatorial)   = {_fmt(p['equatorial_fidelity'])}",
        "per-qubit fidelities:",
    ]
    for q, f in enumerate(p["per_qubit_fidelities"]):
        role = "central" if q == 0 else f"outer {q}"
        lines.append(f"  qubit {q} ({role}): {_fmt(f)}")
    lines.append("amplitudes: " + ", ".join(  # complex(re, im) is exact
        f"{name} = {complex(z['re'], z['im']):.12g}" for name, z in p["amplitudes"].items()))
    return lines


def cmd_optimize(values: dict) -> dict:
    m, lam = values["m"], values["lambda"]
    ks = tuple(values["k"] or range(m + 1))

    def objective(k, lam_, b, t):
        return fidelity_closed_form(m, k, lam_, b, t)

    for k in ks:
        _require_point(m, k)
    box = SearchBox(
        b_range=tuple(values["b_range"]),
        t_range=tuple(values["t_range"]),
        lam=lam,
        k_candidates=ks,
        n_b=values["n_b"],
        n_t=values["n_t"],
        refine_iters=values["refine_iters"],
        refine_tol=values["refine_tol"],
    )
    if values["refine"]:
        result = scan_and_refine(objective, box, n_candidates=values["candidates"])
    else:
        result = grid_scan(objective, box)
    return {
        "k": list(box.k_candidates),
        "best": {"m": m, **_record(result.best)},
        "evaluations": result.evaluations,
        "refined": result.refined,
        "runner_up_gap": result.runner_up_gap,
    }


def text_optimize(p: dict) -> list[str]:
    best = p["best"]
    return [
        f"searched {p['evaluations']} grid points "
        f"(refined basins: {'yes' if p['refined'] else 'no'})",
        f"best: M = {best['m']}  k = {best['k']}  lambda = {_fmt(best['lambda'])}  "
        f"B = {_fmt(best['b'])}  t = {_fmt(best['t'])}",
        f"fidelity = {_fmt(best['fidelity'])}",
        f"runner-up gap = {_fmt(p['runner_up_gap'])}",
    ]


def cmd_table1(values: dict) -> dict:
    ms = values["m"] or tuple(XX_REFERENCE_MAXIMA)
    rows = reproduce_table1(ms=ms, n_t=values["n_t"])
    return {"m": list(ms), "rows": [_record(row) for row in rows]}


def text_table1(p: dict) -> list[str]:
    header = (
        f"{'M':>2} {'F_optimal':>11} {'F_max':>11} {'t':>12} {'B':>11} "
        f"{'k':>2} {'F_reference':>12} {'status':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in p["rows"]:
        status = "flagged" if row["flagged"] else "ok"
        lines.append(
            f"{row['m']:>2} {row['f_optimal']:>11.6f} {row['f_max']:>11.6f} "
            f"{row['t']:>12.5f} {row['b']:>11.7f} {row['k']:>2} "
            f"{row['f_reference']:>12.6f} {status:>8}"
        )
    lines.append("flagged = found maximum differs from the stored reference by more than 1e-4")
    return lines


def cmd_verify(values: dict) -> dict:
    result = run_suite(values["suite"], seed=values["seed"], trials=values["trials"])
    return {
        "passed": result.passed,
        "checks": [{**asdict(check), "passed": check.passed} for check in result.checks],
    }


def text_verify(p: dict) -> list[str]:
    lines = [
        f"[{'PASS' if check['passed'] else 'FAIL'}] {check['label']}: "
        f"residual = {check['residual']:.3e} (tolerance {check['tolerance']:.1e})"
        for check in p["checks"]
    ]
    failed = sum(not check["passed"] for check in p["checks"])
    verdict = "all checks passed" if p["passed"] else (
        f"{failed} of {len(p['checks'])} checks FAILED"
    )
    lines.append(f"suite '{p['suite']}' (seed {p['seed']}): {verdict}")
    return lines


def _parse_sweep(text: str):
    """(axis, (lo, hi, count)) of one AXIS=LO:HI:N sweep, nothing allocated."""
    try:
        axis, _, rest = text.partition("=")
        lo, hi, count = rest.split(":")
        axis, lo, hi, count = axis.strip().lower(), float(lo), float(hi), int(count)
    except ValueError:
        raise ValueError(f"bad sweep axis {text!r}; expected AXIS=LO:HI:N") from None
    if axis not in _SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    if not math.isfinite(hi - lo):  # also a non-finite LO or HI
        raise ValueError(f"sweep {text!r} needs a finite LO, HI and HI - LO")
    if axis == "t" and min(lo, hi) < 0.0:
        raise ValueError(f"sweep {text!r} needs t LO and HI >= 0")
    if count < 1:
        raise ValueError("sweep point count must be >= 1")
    return axis, (lo, hi, count)


def cmd_scan(values: dict) -> dict:
    """The CSV columns of a scan, one entry per row."""
    sweeps_raw = values["sweep"] or []
    if not 1 <= len(sweeps_raw) <= 2:
        raise ValueError("scan needs one or two --sweep axes")
    sweeps = [_parse_sweep(entry) for entry in sweeps_raw]
    if len(sweeps) == 2 and sweeps[0][0] == sweeps[1][0]:
        raise ValueError("the two sweep axes must differ")
    if any(axis == "lambda" for axis, _ in sweeps) and _MODELS[values["model"]] is not None:
        raise ValueError("cannot sweep lambda while the model shorthand fixes it")
    m, k, method = values["m"], values["k"], values["method"]
    n_rows = math.prod(count for _, (_, _, count) in sweeps)
    _require_memory(_SCAN_BYTES_PER_ROW * n_rows, f"a scan of {n_rows} rows")
    # one route call per (lambda, B) pair, t innermost
    grids = {"lambda": [values["lambda"]], "b": [values["b"]], "t": [values["t"]],
             **{axis: np.linspace(*spec) for axis, spec in sweeps}}
    lams, bs, ts = (np.asarray(grids[axis], dtype=np.float64) for axis in _SWEEP_AXES)
    route = evolve_analytic if method == "analytic" else (
        lambda params, k, t: amplitudes_from_brute_force(params, k, t, values["max_qubits"]))
    fidelity = np.empty((lams.size, bs.size, ts.size))
    for i, lam_ in enumerate(lams.tolist()):
        for j, b in enumerate(bs.tolist()):
            if method == "closed-form":
                fidelity[i, j] = fidelity_closed_form(m, k, lam_, b, ts)
            else:
                fidelity[i, j] = pcc_fidelity(route(ModelParams(m, lam_, b), k, ts))
    # rows run over the sweep axes, the first one outermost
    swept = [_SWEEP_AXES.index(axis) for axis, _ in sweeps]
    mesh = (*np.meshgrid(lams, bs, ts, indexing="ij"), fidelity)
    columns = [np.moveaxis(a, swept, range(len(swept))).ravel().tolist() for a in mesh]
    return dict(zip(_SCAN_COLUMNS, columns))


def text_scan(p: dict) -> list[str]:
    m, k, method = p["m"], p["k"], p["method"]
    return ["M,k,lambda,B,t,fidelity,method"] + [
        f"{m},{k},{lam:.12g},{b:.12g},{t:.12g},{f:.12g},{method}"
        for lam, b, t, f in zip(*(p[name] for name in _SCAN_COLUMNS))]


def cmd_presets(values: dict) -> dict:
    m = values["m"]
    presets = [preset_optimal(m)]
    if m % 2 == 0:
        presets.append(preset_ancilla_free(m))
    presets.append(preset_k_equals_m(m))
    presets.append(universal_preset())
    return {"presets": [_record(preset) for preset in presets]}


def text_presets(p: dict) -> list[str]:
    return [
        f"{preset['name']}: M = {preset['m']}, k = {preset['k']}, "
        f"lambda = {_fmt(preset['lambda'])}, B = {_fmt(preset['b'])}, "
        f"t = {_fmt(preset['t'])}, fidelity = {_fmt(preset['fidelity'])}, "
        f"copies = {preset['copies']}"
        for preset in p["presets"]
    ]


# command -> (help, build its results from resolved values, format the payload as text)
_COMMANDS = {
    "fidelity": ("evaluate cloning fidelities at one parameter point",
                 cmd_fidelity, text_fidelity),
    "optimize": ("maximize the equatorial fidelity over a (B, t) box",
                 cmd_optimize, text_optimize),
    "table1": ("find the certified XX-model box maximum for M = 2..8", cmd_table1, text_table1),
    "verify": ("run a named verification suite", cmd_verify, text_verify),
    "scan": ("emit a CSV fidelity scan over one or two axes", cmd_scan, text_scan),
    "presets": ("print the optimal parameter sets for a given M", cmd_presets, text_presets),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    values = _resolve_values(args.command, args, parser)
    _summary, build, text = _COMMANDS[args.command]
    try:
        if "model" in values:
            values["lambda"] = _resolve_lambda(values)
        payload = {"command": args.command, **{
            key: value for key, value in values.items() if key not in ("format", "output")}}
        payload.update(build(values))
    except (ValueError, CapacityError, OracleInconsistencyError) as exc:
        parser.error(str(exc))
    rendered = (json.dumps(payload, indent=2) if values.get("format") == "json"
                else "\n".join(text(payload)))
    output = values["output"]
    if not output:
        try:
            print(rendered, flush=True)
        except BrokenPipeError:  # the reader closed stdout, as `| head -1` does
            # the exit-time flush must not meet the closed pipe again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
    else:
        try:
            Path(output).write_text(rendered + "\n")
        except OSError as exc:
            parser.error(f"cannot write output {output!r}: {exc}")
    return EXIT_CHECK_FAILED if payload.get("passed") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
