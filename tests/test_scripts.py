"""Smoke test: every script under scripts/ imports what it needs from src,
prints its usage, and reports bad input as a config error, not a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covform.scenario import PRESETS
from helpers import load_script

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


def test_quick_trial_digest_equals_its_pin(tmp_path):
    # every trial of the quick digest, bit for bit: the lines recorded in
    # tests/data/trial_digest_quick.txt, a byte pin under numpy 2.4.6 like
    # the formation and trial-record files; --records writes one record per
    # trial of those runs, which compare to themselves with no drift
    records = tmp_path / "records.jsonl"
    proc = run_script("trial_digest.py", "--quick", "--records", str(records))
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / "trial_digest_quick.txt").read_text()
    assert proc.stdout.splitlines() == want.splitlines()
    digest = load_script("trial_digest")
    rows = [json.loads(line) for line in records.read_text().splitlines()]
    assert [r["run"] for r in rows] == ["exp3plus2_line_x20"] * 20 + [
        line.split()[1] for line in want.splitlines()[1:]]
    assert digest.compare(rows, digest.read_records(records), records) == 0


def test_trial_digest_compare_reports_drift_divergence_and_missing_trials(capsys):
    # the report of --compare; TestGoldenTrialRecords tests its verdicts
    digest = load_script("trial_digest")
    base = {"interrobot_pos_rmse": 0.25, "diverged": False}
    want = {("run", 0): base, ("run", 1): {**base, "diverged": True}}

    def check(got, trial=0):
        return digest.compare([{"run": "run", "trial": trial, "record": got}], want, Path("parent"))

    assert check({**base, "interrobot_pos_rmse": 0.25 * (1 + 4e-10)}) == 0
    out = capsys.readouterr().err
    assert "largest relative drift: 4e-10 (run[0].interrobot_pos_rmse)" in out
    assert "diverged: 0 here, 1 in parent" in out and "breaks the rule" not in out
    assert check(dict(base), trial=2) == 1  # a trial the file does not hold


def test_quick_design_digest_equals_its_pin():
    # the design numerics of every quick case, bit for bit: gradients, cost
    # terms, Jacobians and short descents hash to the lines recorded in
    # tests/data/design_digest_quick.txt, a byte pin under numpy 2.4.6
    proc = run_script("design_digest.py", "--quick")
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / "design_digest_quick.txt").read_text()
    assert proc.stdout.splitlines() == want.splitlines()
