"""The CI workflow is well formed: it loads as YAML, and every ``run:`` block
is valid bash (``bash -n`` parses without executing)."""

import shutil
import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def _run_blocks():
    doc = yaml.safe_load(WORKFLOW.read_text())
    return [
        (f"{job}: {step.get('name', step['run'].splitlines()[0])}", step["run"])
        for job, spec in doc["jobs"].items()
        for step in spec["steps"]
        if "run" in step
    ]


BLOCKS = _run_blocks()


def test_workflow_has_run_blocks():
    assert len(BLOCKS) >= 1


@pytest.mark.skipif(shutil.which("bash") is None, reason="bash is not installed")
@pytest.mark.parametrize("name, script", BLOCKS, ids=[name for name, _ in BLOCKS])
def test_run_block_parses_as_bash(name, script):
    done = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, f"{name}:\n{done.stderr}"
