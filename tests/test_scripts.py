"""Smoke runs of the study scripts: they exit 0 and write their outputs."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qetlab import CurlGaussian, PairInvariants, spectral, teleport

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
    at_100 = abs(teleport(inv, inv.kernel(8.0).value, 100.0).E_o_prime)
    assert abs(at_100 - limit) <= 0.01 * limit
    assert len((tmp_path / "out" / "results.jsonl").read_text().splitlines()) == 2


def test_run_canonical_takes_one_contour(tmp_path, monkeypatch, capsys):
    # K, its estimate and the commutator it prints, and the records it writes,
    # all come from the scenario pair's one record at T = 8
    real, calls = spectral._contour_pairing, []

    def counted(f1, f2, ts):
        calls.append((f1, f2, tuple(ts)))
        return real(f1, f2, ts)

    monkeypatch.setattr(spectral, "_contour_pairing", counted)
    monkeypatch.setattr(sys, "argv", ["run_canonical.py", "--out", str(tmp_path / "out")])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "run_canonical.py"), run_name="__main__")
    assert exit_info.value.code == 0
    assert "commutator residual = -0.000601" in capsys.readouterr().out
    points = [(f1, f2, t) for f1, f2, ts in calls for t in ts]
    assert len(calls) == len(points) == len(set(points)) == 1


def test_scaling_study(tmp_path):
    proc = run_script("scaling_study.py", "--points", "5", "--out", "out", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    sep = np.loadtxt(tmp_path / "out" / "separation.csv", delimiter=",", skiprows=1)
    cross = np.loadtxt(tmp_path / "out" / "crossover.csv", delimiter=",", skiprows=1)
    assert sep.shape == (5, 4) and cross.shape == (25, 5)
    slope = np.polyfit(np.log(sep[:, 0]), np.log(sep[:, 1]), 1)[0]
    assert slope == pytest.approx(-6.0, abs=0.15)
