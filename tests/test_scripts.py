"""Smoke runs of the study scripts: they exit 0 and write their outputs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qetlab import CurlGaussian, PairInvariants, teleport

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_canonical(tmp_path):
    proc = run_script("run_canonical.py", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "crossover lambda_c" in proc.stdout
    # the printed saturation value is |E_o'| at lambda = 100 to within 1%
    limit = float(re.search(r"large-lambda \|E_o'\| = (\S+)", proc.stdout).group(1))
    a = CurlGaussian(1.0, 1.0)
    inv = PairInvariants.of(a, a)
    at_100 = abs(teleport(inv, inv.kernel(8.0), 100.0).E_o_prime)
    assert abs(at_100 - limit) <= 0.01 * limit
    assert len((tmp_path / "out" / "results.jsonl").read_text().splitlines()) == 2


def test_scaling_study(tmp_path):
    proc = run_script("scaling_study.py", "--points", "5", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sep = np.loadtxt(tmp_path / "out" / "separation.csv", delimiter=",", skiprows=1)
    cross = np.loadtxt(tmp_path / "out" / "crossover.csv", delimiter=",", skiprows=1)
    assert sep.shape == (5, 4) and cross.shape == (25, 5)
    slope = np.polyfit(np.log(sep[:, 0]), np.log(sep[:, 1]), 1)[0]
    assert slope == pytest.approx(-6.0, abs=0.15)
