"""Seeded CLI fuzz: hostile numbers never escape ``main`` as a traceback.

Every numeric option of ``fidelity``, ``scan`` and ``optimize`` is drawn from
a pool of edge values (NaN, infinities, zero, a negative, a subnormal, huge
magnitudes) with M <= 4, at most 5 grid points per axis and all three
methods.  One ``fidelity`` or ``scan`` draw in four is a brute point at
|lambda| = 1e12 or 1e300, where the dense route loses resolution.  Whatever
the point, ``main`` returns 0 or exits 2 with a one-line message: no other
exception, no NaN printed on success, no numpy array repr in a message and no
warning.  Points that once broke that contract are listed explicitly, each
with the part of its message that names the cause.
"""

from __future__ import annotations

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starclone import cli

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e-320", "1e12", "1e300", "1e308", "-1e308",
          "0.5", "2")
METHODS = ("analytic", "closed-form", "brute")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``main`` call.

    Warnings are turned into errors, so one surfaces as an escaped exception.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean(argv: list[str]) -> tuple[int, str]:
    code, out, err = run_cli(argv)
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        assert not re.search(r"\bnan\b", out, re.I), (argv, out)
    assert "array(" not in err and "Warning" not in err, (argv, err)
    return code, err


@st.composite
def argvs(draw, command):
    value = st.sampled_from(VALUES)

    def options(*flags):  # each flag left at its default or given a pool value
        argv = []
        for flag in flags:
            raw = draw(st.none() | value)
            if raw is not None:
                argv += [flag, raw]
        return argv

    m = draw(st.integers(1, 4))
    if command == "optimize":
        return ["optimize", "--m", str(m), *options("--lambda"),
                "--b-range", draw(value), draw(value), "--t-range", draw(value), draw(value),
                "--n-b", str(draw(st.integers(1, 5))), "--n-t", str(draw(st.integers(1, 5))),
                "--refine" if draw(st.booleans()) else "--no-refine"]
    if draw(st.integers(0, 3)) == 0:  # the brute stratum: an interior k and a finite t
        m = draw(st.sampled_from((3, 4)))
        k, t, method = draw(st.integers(1, m - 1)), draw(st.sampled_from(("0.5", "2"))), "brute"
        lam = ["--lambda", draw(st.sampled_from(("1e12", "-1e12", "1e300")))]
    else:
        k, t, method = draw(st.integers(0, m)), draw(value), draw(st.sampled_from(METHODS))
        lam = options("--lambda")
    argv = [command, "--m", str(m), "--k", str(k), *lam, *options("--b"), "--t", t,
            "--method", method]
    if command == "fidelity":
        return argv + options("--theta", "--phi")
    axis = draw(st.sampled_from(("t", "b", "lambda")))
    return argv + ["--sweep", f"{axis}={draw(value)}:{draw(value)}:{draw(st.integers(1, 5))}"]


@pytest.mark.parametrize("command", ["fidelity", "scan", "optimize"])
@settings(max_examples=70)
@given(data=st.data())
def test_edge_values_exit_cleanly(command, data):
    assert_clean(data.draw(argvs(command), label="argv"))


@pytest.mark.parametrize("argv, named", [
    ("optimize --m 2 --t-range -1 1 --n-b 3 --n-t 30001", "t_range"),
    ("scan --m 2 --k 1 --sweep t=-1:1:3", "'t=-1:1:3'"),
    ("scan --m 2 --k 1 --sweep b=0:1:3 --t inf", "t must be finite"),
    # beyond the dense route's resolution: its unitarity check fires
    ("fidelity --m 4 --k 2 --lambda 1e12 --b 0.5 --t 2 --method brute", "outside the block"),
    ("scan --m 4 --k 2 --lambda 1e12 --b 0.5 --sweep t=0:2:3 --method brute",
     "outside the block"),
])
def test_rejected_point_names_its_cause(argv, named):
    code, err = assert_clean(argv.split())
    assert code == 2
    message = err.strip().splitlines()[-1]  # after argparse's usage lines
    assert message.startswith("starclone: error: ") and named in message
