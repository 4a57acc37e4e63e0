"""What importing the package loads and exports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ile

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["ile"] + [f"ile.{info.name}" for info in pkgutil.iter_modules(ile.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A stale name in ``__all__`` breaks ``from ile.x import *`` and every
    tool that walks ``__all__`` with getattr."""
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"


# Runs in a fresh interpreter: the five commands that never solve a pencil
# leave scipy unloaded (validate with and without the fast terms), and plan,
# which does, loads scipy's compiled LAPACK wrapper alone, never the
# scipy.linalg package; a later import of the package reuses that wrapper.
_PROBE = """
import contextlib, io, sys
from ile import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))

referee = ["--eta", "0.05", "--omega", "0.05", "--delta", "0.99", "--t", "20",
           "--cutoff", "6", "--steps", "10"]
codes = [
    run("modes", "3"),
    run("simulate", "--input", "plan.json", "--fock", "12"),
    run("leakage", "--input", "plan.json", "--sweep", "t=60:80:3"),
    run("fit", "--input", "fock.json", "--n", "6", "--beta", "0.3,0.1"),
    run("validate", *referee),
    run("validate", *referee, "--full-terms"),
]
assert codes == [0] * 6, codes
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]
assert run("plan", "--input", "target.json") == 0
assert "scipy.linalg" not in sys.modules
assert "scipy.linalg._flapack" in sys.modules
import numpy as np
import scipy.linalg
assert scipy.linalg.lapack.zggev is sys.modules["scipy.linalg._flapack"].zggev
num, den = scipy.linalg.eigvals(np.diag([2.0, 3.0]), np.eye(2), homogeneous_eigvals=True)
assert sorted((num / den).real) == [2.0, 3.0], (num, den)
"""


def test_scipy_loads_only_where_called(tmp_path):
    plan = {"eta": 0.1, "omega": 0.05, "delta": 0.97, "n_ions": 2, "alpha": [0.3, 0.0],
            "cycles": [{"t": 80.0, "p": [[0.3, 0.2], [0.0, -0.4]]}]}
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    (tmp_path / "fock.json").write_text(json.dumps([[0.6, 0], [0, 0.3], [0.5, 0]]))
    (tmp_path / "target.json").write_text(json.dumps({"coeffs": [[1, 0], [0.4, 0.3], [0.9, -0.2]]}))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
