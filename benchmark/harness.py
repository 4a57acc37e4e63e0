"""Set-up timing and in-process op execution; standard library only.

Set-up is timed, in CPU time of the process, from before ``import ile`` (which pulls in numpy and scipy)
to the end of a warm-up that runs one tiny op of every command the workload
uses, so lazy imports and first-call costs stay out of the timed phase.  The
benchmark's own input generation and checks are not part of it.

Run as a script, ``python3 benchmark/harness.py WORKLOAD WORKDIR`` performs
one set-up in a fresh interpreter and prints its CPU time in seconds; the
benchmark uses it to sample set-up more than once per run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_op(argv: list) -> tuple:
    """Run one CLI invocation in-process.

    Returns (code, stdout, stderr); code is the exit status, or the name of
    the exception that escaped ``ile.cli.main``.  ``main`` is looked up on
    every call so that a traced run sees the wrapped function.
    """
    from ile import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed op, recorded by type
        code = type(exc).__name__
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def warmup_argvs(workload: str, workdir: Path) -> list:
    """Tiny ops covering every command the workload runs."""
    plan = {"eta": 0.05, "omega": 0.05, "delta": 0.99, "n_ions": 2, "alpha": [0.1, 0.0],
            "cycles": [{"t": 50.0, "p": [[0.3, 0.1], [-0.2, 0.4]]}]}
    plan_path = workdir / "warm_plan.json"
    plan_path.write_text(json.dumps(plan))
    if workload == "leakage-mix":
        return [["leakage", "--input", str(plan_path), "--format", "json"],
                ["leakage", "--input", str(plan_path), "--sweep", "t=40:50:2", "--paper-beta"]]
    if workload == "line-state":
        fock_path = workdir / "warm_fock.json"
        fock_path.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0], [0.5, 0.0]]))
        return [["simulate", "--input", str(plan_path), "--fock", "10"],
                ["fit", "--input", str(fock_path), "--n", "4", "--beta", "0.3"]]
    if workload == "planner":
        target_path = workdir / "warm_target.json"
        target_path.write_text(json.dumps({"coeffs": [[1, 0], [0.5, 0.5], [1, 0], [0.2, 0]]}))
        return [["plan", "--input", str(target_path), "--all"], ["modes", "3"]]
    return [["validate", "--eta", "0.05", "--omega", "0.05", "--delta", "0.99",
             "--t", "20", "--cutoff", "4", "--steps", "10", "--full-terms"]]


def set_up(argvs: list) -> float:
    """Import the package and run the warm-up ops; returns the CPU seconds
    this process spent on it."""
    start = time.process_time()
    import ile.cli  # noqa: F401

    for argv in argvs:
        code, _, err = run_op(argv)
        if code != 0:
            raise RuntimeError(f"warm-up op {argv[0]} failed ({code}): {err.strip()}")
    return time.process_time() - start


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    workload, workdir = sys.argv[1], Path(sys.argv[2])
    print(repr(set_up(warmup_argvs(workload, workdir))))
