"""The CLI's exit-code contract on generated inputs to all six subcommands.

Every run through ``cli.main``, with RuntimeWarnings as errors, ends in

* exit 0, its output (stdout or the ``--output`` file) strict JSON, or CSV
  with no NaN or infinite field; or
* exit 2 (bad input) or 3 (a numerical limit), its stderr ending in one
  ``error:`` or ``solver error:`` line (or argparse's usage error);

never in an escaped exception or a traceback.  The inputs are mostly
valid, with one field at a time made extreme or malformed.  A run that once
broke the contract stays below as an ``@example``; a fix to the contract
adds its run there.
"""

import contextlib
import copy
import csv
import io
import json
import math
import pathlib
import re
import sys
import tempfile
import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ile import cli

EXTREMES = [0.0, 5e-324, 1e-300, 1e154, 1e160, 1e300, 1.7e308]
# A malformed JSON field: a string, a boolean, null, a wrong list shape, an
# object, an integer literal past the float range, NaN and an infinity
# (json.load reads both tokens).
MALFORMED = ["0.3", True, None, [], [0.3], [0.3, 0.2, 0.1], {"re": 0.3}, 10**400,
             math.nan, math.inf]
# A malformed command-line number.
MALFORMED_ARGS = ["abc", "", "nan", "inf", "1e400", "0.3,0.2,0.1", "2.5"]

SIGNED_EXTREMES = EXTREMES + [-x for x in EXTREMES]
# The numbers of a run come from one numpy generator, and its choices are
# indices drawn by ``pick``: a hypothesis draw per number, or a strategy
# built per run, would cost more than the run itself.
rngs = st.integers(0, 2**32 - 1).map(np.random.default_rng)


def pick(draw, options):
    """One of ``options``, by a drawn index."""
    return options[draw(st.integers(0, len(options) - 1))]


def _pairs(rng, count: int, scale: float) -> list:
    """``count`` [re, im] pairs, each part N(0, scale), to three digits."""
    return np.round(rng.normal(0.0, scale, (count, 2)), 3).tolist()


def _paths(doc, path=()):
    """The path of every node of the nested lists and dicts of ``doc``."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def spoiled(draw, doc):
    """``doc``, or half the time a copy with one node made extreme or malformed."""
    if draw(st.booleans()):
        return doc
    path = pick(draw, list(_paths(doc)))
    value = pick(draw, SIGNED_EXTREMES + MALFORMED)
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def number_arg(draw, valid: list) -> str:
    """A command-line number: one of ``valid`` half the time, else extreme
    or malformed."""
    if draw(st.booleans()):
        return repr(pick(draw, valid))
    return pick(draw, [repr(x) for x in SIGNED_EXTREMES] + MALFORMED_ARGS)


def complex_arg(draw, rng, scale: float) -> str:
    """A CLI complex, 'RE' or 'RE,IM', each part N(0, scale) as
    :func:`number_arg` spoils it."""
    parts = _pairs(rng, 1, scale)[0]
    parts = [number_arg(draw, [x]) for x in parts]
    return ",".join(parts) if draw(st.booleans()) else parts[0]


def plan_doc(draw, rng) -> dict:
    """A plan: 1-3 ions, 1-3 cycles (up to 20 at one ion), p ~ N(0, 0.7)."""
    ions = draw(st.integers(1, 3))
    cycles = draw(st.integers(1, 20 if ions == 1 else 3))
    t = pick(draw, [20.0, 80.0, 200.0, round(rng.uniform(0.5, 300.0), 2)])
    return spoiled(draw, {
        "eta": pick(draw, [0.05, 0.1, 0.25]),
        "omega": pick(draw, [0.01, 0.05, 0.09]),
        "delta": pick(draw, [0.6, 0.97, 0.99, 1.0, 1.5]),
        "n_ions": ions,
        "alpha": _pairs(rng, 1, 0.5)[0],
        "cycles": [{"t": t, "p": _pairs(rng, ions, 0.7)} for _ in range(cycles)],
    })


def outputs(draw) -> list:
    """No ``--output``, a fresh file, one in a missing directory, or a directory."""
    return pick(draw, [[], ["--output", "{tmp}/out"], ["--output", "{tmp}/missing/out"],
                       ["--output", "{tmp}"]])


def plan_run(draw, rng):
    """plan on 2-10 coefficient pairs."""
    doc = {"coeffs": _pairs(rng, draw(st.integers(2, 10)), 1.0)}
    argv = ["plan", "--input", "{tmp}/target.json"] + pick(draw, [[], ["--all"]])
    return argv + outputs(draw), {"target.json": spoiled(draw, doc)}


def simulate_run(draw, rng):
    """simulate, half the time with a --fock cutoff from -1 to 100."""
    argv = ["simulate", "--input", "{tmp}/plan.json"]
    if draw(st.booleans()):
        argv += ["--fock", str(draw(st.integers(-1, 100)))]
    return argv + outputs(draw), {"plan.json": plan_doc(draw, rng)}


def leakage_run(draw, rng):
    """leakage as JSON or CSV, half the time swept over 2-5 points."""
    argv = ["leakage", "--input", "{tmp}/plan.json"]
    argv += pick(draw, [[], ["--paper-beta"]]) + pick(draw, [[], ["--format=json"],
                                                             ["--format=csv"]])
    if draw(st.booleans()):
        name, lo, hi = pick(draw, [("delta", 0.6, 1.5), ("t", 1.0, 300.0)])
        bounds = [round(x, 3) for x in rng.uniform(lo, hi, 2)]
        bounds[draw(st.integers(0, 1))] = pick(draw, bounds + SIGNED_EXTREMES)
        argv.append(f"--sweep={name}={bounds[0]!r}:{bounds[1]!r}:{draw(st.integers(2, 5))}")
    return argv + outputs(draw), {"plan.json": plan_doc(draw, rng)}


def modes_run(draw, rng):
    """modes at -1..66 ions, or at a count that is no integer."""
    n = pick(draw, [str(draw(st.integers(-1, 66))), pick(draw, MALFORMED_ARGS)])
    argv = ["modes"] + pick(draw, [[], ["--format=json"], ["--format=csv"]])
    return argv + outputs(draw) + ["--", n], {}


def fit_run(draw, rng):
    """fit of 2-12 amplitudes onto an n + 1 component grid."""
    argv = ["fit", "--input", "{tmp}/target.json", "--n", pick(draw, ["0", "1", "4", "10", "30"]),
            "--alpha=" + complex_arg(draw, rng, 0.5), "--beta=" + complex_arg(draw, rng, 0.3)]
    amplitudes = _pairs(rng, draw(st.integers(2, 12)), 0.5)
    return argv + outputs(draw), {"target.json": spoiled(draw, amplitudes)}


def validate_run(draw, rng):
    """validate at 1-2 ions, cutoff 0-6 and 9-12 steps (0 and 9 are refused)."""
    argv = ["validate",
            "--eta=" + number_arg(draw, [0.05, 0.1, 0.25]),
            "--omega=" + number_arg(draw, [0.005, 0.01, 0.05]),
            "--delta=" + number_arg(draw, [0.6, 0.7, 0.97, 0.99, 1.0, 1.5]),
            "--t=" + number_arg(draw, [2.35, 20.0, round(rng.uniform(0.5, 40.0), 2)]),
            "--cutoff", str(draw(st.integers(0, 6))),
            "--steps", str(draw(st.integers(9, 12))),
            "--n-ions", str(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        weights = [complex_arg(draw, rng, 0.7) for _ in range(draw(st.integers(1, 2)))]
        argv.append("--weights=" + ";".join(weights))
    argv += pick(draw, [[], ["--full-terms"]])
    return argv + outputs(draw), {}


@st.composite
def runs(draw):
    """(argv, files) of one run of one of the six subcommands."""
    command = pick(draw, [plan_run, simulate_run, leakage_run, modes_run, fit_run, validate_run])
    return command(draw, draw(rngs))


_ERROR_LINE = re.compile(r"^(error|solver error): |^ile( \w+)?: error: ")


def _show(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def _reject(token):
    raise AssertionError(f"non-standard JSON token {token}")


def _check_output(argv, text):
    """Strict JSON, or CSV without a NaN or infinite field."""
    csv_out = "--format=csv" in argv or (argv[0] == "leakage" and "--format=json" not in argv)
    if not csv_out:
        json.loads(text, parse_constant=_reject)
        return
    for row in csv.reader(io.StringIO(text, newline="")):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), f"CSV field {field!r}"


def run_contract(argv, files):
    """Run ``ile argv`` in process, ``files`` written first ({tmp} in argv
    names their directory), and check the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            (pathlib.Path(tmp) / name).write_text(json.dumps(doc))
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            warnings.showwarning = _show
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        err = err.getvalue()
        assert code in (0, 2, 3), f"exit {code}\n{err}"
        assert "Traceback" not in err
        if code == 0:
            target = argv[argv.index("--output") + 1] if "--output" in argv else None
            if target is None:
                _check_output(argv, out.getvalue())
            else:
                with open(target, encoding="utf-8", newline="") as fh:
                    _check_output(argv, fh.read())
        else:
            lines = err.splitlines()
            assert lines and _ERROR_LINE.match(lines[-1]), err
            assert not any(_ERROR_LINE.match(line) for line in lines[:-1]), err


def _plan(alpha=(0.3, 0.0), eta=0.05, omega=0.01, delta=0.99, cycles=((80.0, [[0.3, 0.0]]),)):
    """A plan document, one ion per weight of its first cycle."""
    return {"eta": eta, "omega": omega, "delta": delta, "n_ions": len(cycles[0][1]),
            "alpha": list(alpha), "cycles": [{"t": t, "p": p} for t, p in cycles]}


def _validate(*args):
    return ["validate", "--eta", "0.05", "--omega", "0.005", "--steps", "12"] + list(args), {}


def _simulate(plan, *args):
    return ["simulate", "--input", "{tmp}/plan.json"] + list(args), {"plan.json": plan}


@settings(max_examples=1200, derandomize=True, database=None, deadline=None)
@given(runs())
# A weight whose parts are finite and whose modulus is not (exit 3).
@example(_simulate(_plan(cycles=((80.0, [[0.5, 0.5]]), (80.0, [[1.7e308, 1.7e308]])))))
@example(_validate("--delta", "0.99", "--t", "2.35", "--cutoff", "2", "--n-ions", "2",
                   "--weights", "1.85,-0.68;-1.7e308,-1.7e308"))
# A conditional state of squared norm 1e-34, whose fidelity divided 0 by 0 (exit 0).
@example(_validate("--eta", "5e-324", "--delta", "0.6", "--t", "2.35", "--cutoff", "1",
                   "--n-ions", "2", "--weights", "0.251;0.022,1e+160", "--full-terms"))
# Integrator phases, or their partial products, past the float range (exit 2).
@example(_validate("--delta", "0.7", "--t", "1.7e308", "--cutoff", "2", "--n-ions", "2"))
@example(_validate("--delta", "1.7e308", "--t", "0.865", "--cutoff", "4"))
@example(_validate("--delta", "1.7e308", "--t", "0.865", "--cutoff", "4", "--full-terms"))
@example(_validate("--delta", "1.7e308", "--t", "1e-300", "--cutoff", "5", "--full-terms"))
# |alpha| |beta| past the float range: the dump's phases are (exit 3).
@example(_simulate(_plan(alpha=(1e154, 0.0), eta=0.1, cycles=((1e160, [[0.3, 0.0]]),)),
                   "--fock", "5"))
# Number amplitudes past the float range (exit 3), and one flagged in range (exit 0).
@example(_simulate(_plan(alpha=(0.0, 0.0), cycles=((2000.0, [[1.7e308, 0.0]]),)), "--fock", "2"))
@example(_simulate(_plan(alpha=(-0.066, 0.32), omega=0.05, delta=0.6,
                         cycles=((200.0, [[1.7e308, -0.375]]),)), "--fock", "2"))
# More than two ions in the referee (exit 2); |alpha| = 30 far above cutoff 40 (exit 0).
@example(_validate("--delta", "0.99", "--t", "20", "--n-ions", "3"))
@example(_simulate(_plan(alpha=(30.0, 0.0)), "--fock", "40"))
def test_exit_code_contract(run):
    run_contract(*run)
