"""Smoke test: every script under scripts/ imports what it needs from src,
prints its usage, and reports bad input as a config error, not a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covform.scenario import PRESETS

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


@pytest.mark.parametrize("script", ["design_formations.py", "run_coverage_study.py",
                                    "trial_digest.py", "design_digest.py"])
def test_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_design_reports_an_unsatisfiable_start_box(tmp_path):
    # four robots kept 0.5 m apart do not fit in a 0.2 m box
    cfg = tmp_path / "tiny_box.json"
    cfg.write_text(json.dumps({**PRESETS["sim5"], "optimizer": {"init_box": 0.1}}))
    proc = run_script("design_formations.py", "--config", str(cfg),
                      "--out", str(tmp_path / "formations"))
    assert proc.returncode == 1, proc.stderr
    assert "config error: " in proc.stderr and "optimizer.init_box" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_coverage_study_reports_a_missing_formations_directory(tmp_path):
    proc = run_script("run_coverage_study.py", "--formations", str(tmp_path / "none"),
                      "--trials", "1", "--out", str(tmp_path / "study"))
    assert proc.returncode == 1, proc.stderr
    assert "config error: " in proc.stderr and "cannot read formation file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_quick_trial_digest_equals_its_pin():
    # every trial of the quick digest, bit for bit: the lines recorded in
    # tests/data/trial_digest_quick.txt, a byte pin under numpy 2.4.6 like
    # the formation and trial-record files
    proc = run_script("trial_digest.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / "trial_digest_quick.txt").read_text()
    assert proc.stdout.splitlines() == want.splitlines()


def test_quick_design_digest_equals_its_pin():
    # the design numerics of every quick case, bit for bit: gradients, cost
    # terms, Jacobians and short descents hash to the lines recorded in
    # tests/data/design_digest_quick.txt, a byte pin under numpy 2.4.6
    proc = run_script("design_digest.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / "design_digest_quick.txt").read_text()
    assert proc.stdout.splitlines() == want.splitlines()
