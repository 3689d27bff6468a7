import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qetlab.cli as cli
from qetlab import CurlGaussian, spectral, verify
from qetlab.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main
from qetlab.spectral import overlap_kernel

from oracles import kernel_series_reference

MINIMAL = """
T: 8.0
probe: spin
fields:
  a_m: {sigma: 1.0}
"""

CANONICAL_YAML = Path(__file__).resolve().parents[1] / "scenarios" / "canonical.yaml"

# widths whose density scale leaves the float range; K(T) runs in units of the
# wider width, so the first pair is computed and the second names T
WIDE = "T: 1.0e+162\nfields: {a_m: {sigma: 1.0e+160}}\n"
NARROW = "T: 1.0\nfields: {a_m: {sigma: 1.0e-90}}\ngrid: {n: 32, half_extent: 6.0e-90}\ntimes: [0.0]\n"


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(MINIMAL)
    return str(path)


class TestExitCodes:
    def test_energy_success(self, scenario_path, capsys):
        assert main(["energy", "--scenario", scenario_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "E_m" in out and "D_q" in out

    def test_validation_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(MINIMAL.replace("sigma: 1.0", "sigma: -1.0"))
        assert main(["energy", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "sigma" in capsys.readouterr().err

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        path = tmp_path / "seeded.yaml"
        path.write_text(MINIMAL + "seed: -3\n")
        assert main(["energy", "--scenario", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "scenario.seed" in captured.err
        assert "scenario_hash" not in captured.out

    def test_seed_flag_is_gone(self, scenario_path, capsys):
        # a scenario file fixes every byte; there is no command-line override
        with pytest.raises(SystemExit) as exc:
            main(["energy", "--scenario", scenario_path, "--seed", "5"])
        assert exc.value.code == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err

    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.yaml")
        code = main(["energy", "--scenario", missing])
        assert code in (EXIT_VALIDATION, EXIT_IO)

    def test_io_error_exits_4(self, scenario_path, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        code = main(
            ["teleport", "--scenario", scenario_path, "--out", str(target / "sub")]
        )
        assert code == EXIT_IO

    def test_underresolved_density_exits_2(self, tmp_path, capsys):
        path = tmp_path / "coarse.yaml"
        path.write_text(MINIMAL + "times: [0.0]\ngrid: {n: 16, half_extent: 12.0}\n")
        code = main(["density", "--scenario", str(path), "--out", str(tmp_path / "frames")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "under-resolves" in err
        assert "Traceback" not in err

    def test_unallocatable_frame_exits_2(self, tmp_path, capsys):
        # n = 100000 asks for 8e15 bytes, beyond any 48-bit address space, so
        # the allocation fails at once without touching memory
        path = tmp_path / "huge.yaml"
        path.write_text(MINIMAL + "times: [0.0]\ngrid: {n: 100000}\n")
        code = main(["density", "--scenario", str(path), "--out", str(tmp_path / "frames")])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "n = 100000" in err and "8e+15 bytes" in err
        assert "Traceback" not in err

    def test_density_failing_at_a_later_time_writes_nothing(self, tmp_path, capsys):
        # the fixed box holds the light shell at t = 0 but not at t = 100, and
        # the frames are built one at a time: every time is checked first
        path = tmp_path / "late.yaml"
        path.write_text(MINIMAL + "times: [0.0, 100.0]\ngrid: {n: 32, half_extent: 5.8}\n")
        out_dir = tmp_path / "frames"
        code = main(["density", "--scenario", str(path), "--out", str(out_dir)])
        assert code == EXIT_VALIDATION
        assert "light shell" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["energy", "teleport", "sweep", "density"])
    def test_zero_operation_profile_exits_2(self, verb, tmp_path, capsys):
        # xi = int f_o^2 = 0 leaves the displacement undefined; the parser rejects the pair
        path = tmp_path / "zero.yaml"
        path.write_text(MINIMAL + "  f_o: {amplitude: 0.0, sigma: 1.0}\n")
        argv = [verb, "--scenario", str(path)] + ([] if verb == "energy" else ["--out", str(tmp_path / "out")])
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "error: scenario.fields.f_o.xi: must be a positive finite number, got 0.0\n"
        assert captured.out == "" and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitude", ["1.0e+155", "1.0e+160"])
    @pytest.mark.parametrize("verb", ["energy", "teleport"])
    def test_overflowing_amplitude_exits_2(self, verb, amplitude, tmp_path, capsys):
        path = tmp_path / "huge.yaml"
        path.write_text(MINIMAL.replace("{sigma: 1.0}", f"{{amplitude: {amplitude}, sigma: 1.0}}"))
        argv = [verb, "--scenario", str(path)] + ([] if verb == "energy" else ["--out", str(tmp_path / "out")])
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        for name in ("a_m.E_m", "a_m.I1", "f_o.xi"):
            assert f"error: scenario.fields.{name}: must be a " in err and "got inf" in err
        assert "estimated_error" not in err

    @pytest.mark.parametrize(
        "verb, scenario, sigma",
        [("density", WIDE, "1e+160"), ("density", NARROW, "1e-90")],
        ids=["wide-density", "narrow-density"],
    )
    def test_extreme_width_exits_2_naming_it(self, verb, scenario, sigma, tmp_path, capsys):
        # the parser accepts both, since their norms stay finite
        path = tmp_path / "extreme.yaml"
        path.write_text(scenario)
        out_dir = tmp_path / "out"
        assert main([verb, "--scenario", str(path), "--out", str(out_dir)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and f"sigma = {sigma}" in captured.err
        assert not out_dir.exists()

    def test_wide_width_teleports_at_the_reference_K(self, tmp_path):
        path = tmp_path / "wide.yaml"
        path.write_text(WIDE)
        out_dir = tmp_path / "out"
        assert main(["teleport", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_OK
        lines = (out_dir / "results.jsonl").read_text().splitlines()
        (rec,) = [r for r in map(json.loads, lines) if r["probe"] == "oscillator"]
        wide = CurlGaussian(1.0, 1e160)
        assert 2.0 * rec["eta_prime"] == pytest.approx(kernel_series_reference(wide, wide, 1e162), rel=1e-12, abs=0.0)

    def test_narrow_width_whose_K_underflows_exits_2_naming_T(self, tmp_path, capsys):
        # K ~ (sigma/T)^6 is far below the float range; the contour's nodes in
        # units of sigma reach T/sigma ~ 1e90, whose fifth power overflows
        path = tmp_path / "narrow.yaml"
        path.write_text(NARROW)
        out_dir = tmp_path / "out"
        assert main(["teleport", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: sweep point (T=1.0): K(T=1.0): the contour reaches |k| = 5e+179, where its terms leave"
            " the float range\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["energy", "teleport", "sweep", "density"])
    def test_lambda_whose_scaled_norms_overflow_exits_2(self, verb, tmp_path, capsys):
        # lambda^2 I1 of the canonical pair is inf past lambda = 4.6e153
        path = tmp_path / "big.yaml"
        path.write_text("T: 8.0\nlambda: [1.0, 1.0e+200]\nfields: {a_m: {sigma: 1.0}}\n")
        argv = [verb, "--scenario", str(path)] + ([] if verb == "energy" else ["--out", str(tmp_path / "out")])
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (
            "error: scenario.lambda: lambda^2 E_m and 2 lambda^2 I1 must be finite, got 1e+200"
            " (E_m = 6.96041, I1 = 8.37758 at lambda = 1)\n"
        )
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_float_without_a_dot_is_named_as_text(self, tmp_path, capsys):
        path = tmp_path / "text.yaml"
        path.write_text(MINIMAL.replace("{sigma: 1.0}", "{amplitude: 1e100, sigma: 1.0}"))
        assert main(["energy", "--scenario", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: scenario.fields.a_m.amplitude: must be a finite number, got '1e100'"
            " (YAML read the value as text; write it as 1.0e+100)\n"
        )

    @pytest.mark.parametrize("verb", ["teleport", "sweep"])
    def test_displaced_narrow_pair_is_computed(self, verb, tmp_path):
        # |d|/sigma = 1e30: each part of the K(T) integrand runs to its own saddle
        path = tmp_path / "narrow.yaml"
        path.write_text(
            "T: 2.0\nfields:\n  a_m: {sigma: 1.0e-30}\n"
            "  f_o: {sigma: 1.0e-30, center: [1.0, 0.0, 0.0]}\n"
        )
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([verb, "--scenario", str(path), "--out", str(out_dir)]) == EXIT_OK
        records = [json.loads(line) for line in (out_dir / "results.jsonl").read_text().splitlines()]
        assert len(records) == 2
        for rec in records:
            assert all(math.isfinite(v) for v in rec.values() if isinstance(v, float))

    def test_vector_item_read_as_text_is_named(self, tmp_path, capsys):
        path = tmp_path / "text.yaml"
        path.write_text(MINIMAL.replace("{sigma: 1.0}", "{sigma: 1.0, center: [1e-3, 0, 0]}"))
        assert main(["energy", "--scenario", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: scenario.fields.a_m.center: must be a list of three finite numbers,"
            " got ['1e-3', 0, 0] (YAML read '1e-3' as text; write it as 0.001)\n"
        )

    @pytest.mark.parametrize(
        "scenario",
        [
            "T: 8.0\nfields: {a_m: {sigma: 1.0, amplitude: 1.0e+100}}\n",
            "T: 8.0\nlambda: 1.0e+153\nfields: {a_m: {sigma: 1.0}, f_o: {sigma: 1.0, amplitude: 1.0e+10}}\n",
        ],
        ids=["amplitude-1e100", "lambda-1e153"],
    )
    def test_protocol_energy_past_overflowing_squares_is_written(self, scenario, tmp_path):
        # eta'^2 and xi (<G^2> + 1/4) overflow, but E_o' is finite and is written
        path = tmp_path / "huge.yaml"
        path.write_text(scenario)
        out_dir = tmp_path / "out"
        assert main(["teleport", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_OK
        lines = (out_dir / "results.jsonl").read_text().splitlines()
        (rec,) = [r for r in map(json.loads, lines) if r["probe"] == "oscillator"]
        K = 2.0 * rec["eta_prime"]
        assembled = -rec["D_ho"] * K * K / (2.0 * rec["xi"])
        assert math.isfinite(rec["E_o_prime"]) and rec["E_o_prime"] < 0.0
        assert rec["E_o_prime"] == pytest.approx(assembled, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("verb", ["teleport", "sweep"])
    def test_T_whose_contour_overflows_k5_exits_2(self, verb, tmp_path, capsys):
        # past T ~ 9e61 at sigma = 1 the contour's k^5 terms leave the float range
        path = tmp_path / "late.yaml"
        path.write_text(MINIMAL.replace("T: 8.0", "T: 1.0e+100"))
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([verb, "--scenario", str(path), "--out", str(out_dir)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (
            "error: sweep point (T=1e+100): K(T=1e+100): the contour reaches |k| = 5e+99, where its terms leave"
            " the float range\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["teleport", "sweep"])
    def test_first_failing_T_of_the_list_decides_the_exit(self, verb, tmp_path, capsys):
        # K(T) of this pair crosses zero at T = 6.0205..., where no relative
        # gate can hold (exit 3); 7.0 after it is computed and 1e100 would exit
        # 2, but the first failing T in list order names the sweep point
        path = tmp_path / "middle.yaml"
        path.write_text(
            "T: [6.02, 6.020508287080727, 7.0, 1.0e+100]\nfields:\n  a_m: {sigma: 1.0}\n"
            "  f_o: {amplitude: 1.3, sigma: 0.8, center: [0.5, -0.3, 0.2], axis: [1.0, 1.0, 0.0]}\n"
        )
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([verb, "--scenario", str(path), "--out", str(out_dir)]) == EXIT_TOLERANCE
        assert capsys.readouterr().err == (
            "error: sweep point (T=6.020508287080727): estimated error 1.097e-17 exceeds 1e-06 |K|"
            " for K(T=6.020508287080727)\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "center, T, cause",
        [
            ("[1.0, 0.0, 0.0]", "1.0e+155", "K(T=1e+155): the contour reaches |k| = 5e+154, where its terms"
             " leave the float range"),
            ("[1.0e+103, 0.0, 0.0]", "2.0e+103", "separation |d| = 1e+103: 2|d|^3 in units of 1.0 leaves the float range"),
        ],
        ids=["displaced-T-1e155", "d-1e103"],
    )
    def test_displaced_pair_whose_closed_form_overflows_exits_2(self, center, T, cause, tmp_path, capsys):
        path = tmp_path / "late.yaml"
        path.write_text(f"T: {T}\nfields:\n  a_m: {{sigma: 1.0}}\n  f_o: {{sigma: 1.0, center: {center}}}\n")
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["teleport", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: sweep point (T={float(T):g}): {cause}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "fields, T, cause",
        [
            ("{a_m: {sigma: 1.0}, f_o: {sigma: 1.0, center: [1.0e+200, 0.0, 0.0]}}", "3.0e+200",
             "sweep point (T=3e+200): separation |d| = 1e+200: 2|d|^3 in units of 1.0 leaves the float range"),
            ("{a_m: {sigma: 1.0, center: [-1.5e+308, 0.0, 0.0]}, f_o: {sigma: 1.0, center: [1.5e+308, 0.0, 0.0]}}",
             "1.0e+300", "scenario.fields.separation: |d| between the centres (-1.5e+308, 0.0, 0.0) and"
             " (1.5e+308, 0.0, 0.0) is beyond the float range"),
        ],
        ids=["d-1e200", "d-3e308"],
    )
    def test_separation_whose_square_overflows_exits_2_naming_it(self, fields, T, cause, tmp_path, capsys):
        # |d|^2 leaves the float range in both; the second |d| does too.  No
        # numpy warning may fire on the way, and stderr holds the one line
        path = tmp_path / "far.yaml"
        path.write_text(f"T: {T}\nfields: {fields}\n")
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["teleport", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cause}\n"
        assert not out_dir.exists()

    def test_T_whose_K_underflows_returns_zero(self, tmp_path):
        # K ~ 1005 T^-6 ~ 1e-357 at T = 1e60 is below the float range, so 0 is its rounding
        path = tmp_path / "late.yaml"
        path.write_text(MINIMAL.replace("T: 8.0", "T: 1.0e+60"))
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["teleport", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_OK
        (rec,) = [json.loads(line) for line in (out_dir / "results.jsonl").read_text().splitlines()]
        assert rec["eta"] == 0.0 and rec["E_o"] == 0.0

    def test_verify_tolerance_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            verify, "input_energy_position_oracle", lambda *a, **k: 123.456
        )
        assert main(["verify", "--mc-samples", "20000"]) == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().out


    def test_one_exception_type_per_exit_code(self):
        # exit 2 is ValidationError and exit 3 ToleranceFailure; exit 4 is any OSError
        import qetlab.errors

        defined = sorted(
            name
            for name, value in vars(qetlab.errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)
        )
        assert defined == ["ToleranceFailure", "ValidationError"]

    @pytest.mark.parametrize(
        "argv, handler",
        [
            (["energy", "--scenario", "s.yaml"], "_cmd_energy"),
            (["teleport", "--scenario", "s.yaml"], "_cmd_teleport"),
            (["sweep", "--scenario", "s.yaml"], "_cmd_teleport"),
            (["density", "--scenario", "s.yaml"], "_cmd_density"),
            (["demo", "negative-energy"], "_cmd_demo_negative_energy"),
            (["verify"], "_cmd_verify"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_every_verb_dispatches_to_its_handler(self, argv, handler):
        assert cli.build_parser().parse_args(argv).run is getattr(cli, handler)


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--scenario", "{scenario}"],
        ["teleport", "--scenario", "{scenario}", "--out", "{out}"],
        ["sweep", "--scenario", "{scenario}", "--out", "{out}"],
        ["density", "--scenario", "{scenario}", "--out", "{out}", "--format", "csv"],
        ["density", "--scenario", "{scenario}", "--out", "{out}", "--format", "binary"],
        ["verify", "--mc-samples", "2000"],
        ["demo", "negative-energy", "--out", "{out}"],
    ],
    ids=["energy", "teleport", "sweep", "density-csv", "density-binary", "verify", "demo-negative-energy"],
)
def test_no_verb_loads_scipy(argv, tmp_path):
    # the package runs on numpy and PyYAML alone; the modules are listed after the verb ran
    scenario = tmp_path / "scenario.yaml"
    scenario.write_text(MINIMAL + "times: [0.0]\ngrid: {n: 32, half_extent: 5.8}\n")
    argv = [a.format(scenario=scenario, out=tmp_path / "out") for a in argv]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, qetlab.cli; code = qetlab.cli.main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_import_builds_no_table():
    # the CSV writer's tables are built on its first call, so no verb pays for them
    # at import; the check covers every cached builder in the package
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, qetlab.cli\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'qetlab':\n"
        "        for attr, f in vars(module).items():\n"
        "            if hasattr(f, 'cache_info'): print(f'{name}.{attr}', f.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    sizes = dict(line.split() for line in proc.stdout.splitlines())
    assert {"qetlab.results._pow10_table", "qetlab.results._text_tables"} <= set(sizes)
    assert set(sizes.values()) == {"0"}, sizes


def test_module_entry_point_runs_main():
    # `python -m qetlab` goes through __main__.py, the one module entry point
    root = Path(__file__).resolve().parents[1]
    scenario = str(root / "scenarios" / "canonical.yaml")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qetlab", "energy", "--scenario", scenario], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["energy", "--scenario", scenario]) == EXIT_OK
    assert proc.stdout == stdout.getvalue()


class TestTeleport:
    def test_writes_records(self, scenario_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["teleport", "--scenario", scenario_path, "--out", str(out_dir)]) == EXIT_OK
        lines = (out_dir / "results.jsonl").read_text().splitlines()
        assert len(lines) == 1
        rec = json.loads(lines[0])
        assert rec["probe"] == "spin"
        assert rec["E_o"] < 0.0

    def test_seed_override_changes_hash(self, scenario_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        seeded = tmp_path / "seeded.yaml"
        seeded.write_text(MINIMAL + "seed: 5\n")
        main(["teleport", "--scenario", scenario_path, "--out", str(out1)])
        main(["teleport", "--scenario", str(seeded), "--out", str(out2)])
        h1 = json.loads((out1 / "results.jsonl").read_text())["scenario_hash"]
        h2 = json.loads((out2 / "results.jsonl").read_text())["scenario_hash"]
        assert h1 != h2

    def test_sweep_alias(self, scenario_path, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["sweep", "--scenario", scenario_path, "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "results.jsonl").exists()


    def test_canonical_records_are_pinned(self, tmp_path):
        # the bytes of the canonical run, pinned on numpy 2.4.6 and Python 3.11.7
        assert main(["teleport", "--scenario", str(CANONICAL_YAML), "--out", str(tmp_path)]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "results.jsonl").read_bytes()).hexdigest()
        assert digest == "ec020e12fe7d81a66bea4b33e0088db17f2d9539fd25106232976bcb2003fa44"

    def test_opposite_sign_amplitudes_negate_the_couplings(self, tmp_path):
        # K is bilinear in the amplitudes: flipping f_o's sign negates eta, eta'
        # and the optimal operations, and leaves every energy's bits alone
        records = {}
        for sign in ("1.0", "-1.0"):
            path = tmp_path / f"sign{sign}.yaml"
            path.write_text(f"T: 8.0\nfields:\n  a_m: {{amplitude: 1.0, sigma: 1.0}}\n"
                            f"  f_o: {{amplitude: {sign}, sigma: 1.0}}\n")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["teleport", "--scenario", str(path), "--out", str(tmp_path / sign)]) == EXIT_OK
            lines = (tmp_path / sign / "results.jsonl").read_text().splitlines()
            records[sign] = [json.loads(line) for line in lines]
        negated = {"eta", "theta_star", "eta_prime", "theta_prime_star"}
        for same, opposite in zip(records["1.0"], records["-1.0"], strict=True):
            for key, value in same.items():
                if key == "scenario_hash" or value is None:
                    continue
                assert opposite[key] == (-value if key in negated else value), key
            assert same["E_o" if same["probe"] == "spin" else "E_o_prime"] < 0.0


@pytest.mark.parametrize(
    "argv",
    [["teleport", "--scenario", str(CANONICAL_YAML)], ["sweep", "--scenario", str(CANONICAL_YAML)],
     ["verify", "--mc-samples", "20000"]],
    ids=["teleport", "sweep", "verify"],
)
def test_one_contour_per_pair_and_T(argv, monkeypatch, tmp_path, capsys):
    # canonical's one T, and verify's K(14): one contour pass for the pair
    # gives K, its commutator, estimate and node count
    real, calls = spectral._contour_pairing, []

    def counted(f1, f2, ts):
        calls.append((f1, f2, tuple(ts)))
        return real(f1, f2, ts)

    monkeypatch.setattr(spectral, "_contour_pairing", counted)
    out = ["--out", str(tmp_path)] if argv[0] != "verify" else []
    assert main(argv + out) == EXIT_OK
    points = [(f1, f2, t) for f1, f2, ts in calls for t in ts]
    assert len(calls) == len(points) == len(set(points)) == 1


class TestDensity:
    def test_csv_frames(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL + "times: [0.0]\ngrid: {n: 32, half_extent: 5.8}\n")
        out_dir = tmp_path / "frames"
        assert main(["density", "--scenario", str(path), "--out", str(out_dir)]) == EXIT_OK
        csv = out_dir / "frame_t0.csv"
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "t,x,y,z,eps"

    def test_binary_frames(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(MINIMAL + "times: [0.0]\ngrid: {n: 32, half_extent: 5.8}\n")
        out_dir = tmp_path / "frames"
        assert (
            main(["density", "--scenario", str(path), "--out", str(out_dir), "--format", "binary"])
            == EXIT_OK
        )
        from qetlab.results import load_frame_binary

        loaded = load_frame_binary(out_dir / "frame_t0.bin")
        assert loaded["n"] == 32


class TestDemo:
    def test_negative_energy_demo(self, tmp_path, capsys):
        assert main(["demo", "negative-energy", "--out", str(tmp_path)]) == EXIT_OK
        rows = np.loadtxt(tmp_path / "negative_energy_demo.csv", delimiter=",", skiprows=1)
        assert rows.shape[1] == 7
        assert np.any(rows[:, 6] < 0.0)
        out = capsys.readouterr().out
        assert "negative" in out

    def test_negative_energy_demo_is_pinned(self, tmp_path, capsys):
        # the bytes of the demo's CSV, pinned on numpy 2.4.6 and Python 3.11.7
        assert main(["demo", "negative-energy", "--out", str(tmp_path)]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "negative_energy_demo.csv").read_bytes()).hexdigest()
        assert digest == "29843ede4d401d544be5e916170543e6dc633027a395bce55a74e63c95d1e1dd"
        assert capsys.readouterr().out.endswith(
            "41/41 sampled points admit a superposition with negative mean energy density (min -0.0414639)\n"
        )


def _away(value: float, tolerance: float, how: str) -> float:
    """A value twice the tolerance from `value`, or NaN."""
    return value + 2.0 * tolerance if how == "far" else math.nan


def _break_value(real, how):
    # for the oracles whose rows have a 1e-6 relative tolerance
    def oracle(*args):
        value = real(*args)
        return _away(value, 1e-6 * abs(value), how)

    return oracle


def _break_monte_carlo(real, how):
    def oracle(f_o, a_m, T, **kwargs):
        res = real(f_o, a_m, T, **kwargs)
        K = overlap_kernel(f_o, a_m, T).value
        return dataclasses.replace(res, value=_away(K, 3.0 * res.estimated_error, how))

    return oracle


def _break_identities(real, how):
    # a residual that is not the first: max() over a list would drop a NaN there
    def oracle(g_values):
        return {**real(g_values), "second_moment": _away(0.0, 1e-10, how)}

    return oracle


def _break_protocols(real, how):
    def oracle(inv, K1, lam):
        out = real(inv, K1, lam)
        ratio = out.E_o_prime / out.E_o
        moved = _away(ratio, 1e-12 * abs(ratio), how) * out.E_o
        return dataclasses.replace(out, E_o_prime=moved)

    return oracle


# the name qetlab.verify reads, how to move its output, and the check that must fail
VERIFY_BREAKS = [
    ("input_energy_position_oracle", _break_value, "input energy vs position oracle"),
    ("d2_delta_fourier", _break_value, "d_t^2 Delta vs Fourier integral"),
    ("brute_force_overlap_oracle", _break_monte_carlo, "overlap kernel vs Monte Carlo"),
    ("povm_identity_check", _break_identities, "measurement identities"),
    ("teleport", _break_protocols, "damping-ratio identity"),
]

VERIFY_LINE = re.compile(
    r"\[verify\] (?P<name>.+): (?P<verdict>PASS|FAIL) \(value \S+, reference \S+, "
    r"\|diff\| \S+, tolerance (?P<tolerance>\S+)\)$"
)

# verify's nine rows in order, each with its tolerance as printed at --mc-samples 20000:
# 1e-6 relative for the input energy and the kernel, 3 standard errors of the
# Monte Carlo at seed 11, 1e-10 absolute for the identities, 1e-12 relative for the ratio
VERIFY_TABLE = [
    ("input energy vs position oracle", "6.96e-06"),
    ("input energy vs 5 pi^(3/2)/4", "6.96e-06"),
    ("d_t^2 Delta vs Fourier integral at (t, r) = (2, 1)", "4.88e-08"),
    ("d_t^2 Delta vs Fourier integral at (t, r) = (1, 2)", "2.63e-08"),
    ("d_t^2 Delta vs Fourier integral at (t, r) = (10, 0)", "3.04e-11"),
    ("d_t^2 Delta vs Fourier integral at (t, r) = (14, 3)", "9.25e-12"),
    ("overlap kernel vs Monte Carlo", "1.66e-05"),
    ("measurement identities, max residual", "1.00e-10"),
    ("damping-ratio identity", "6.24e-02"),
]


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--mc-samples", "60000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 5
        assert "FAIL" not in out

    def test_one_line_per_check(self, capsys):
        assert main(["verify", "--mc-samples", "20000"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "[verify] all checks passed"
        rows = [VERIFY_LINE.match(line) for line in lines[:-1]]
        assert all(rows)
        assert {m["verdict"] for m in rows} == {"PASS"}
        assert [(m["name"], m["tolerance"]) for m in rows] == VERIFY_TABLE

    @pytest.mark.parametrize("how", ["far", "nan"])
    @pytest.mark.parametrize(
        "oracle, breaker, check", VERIFY_BREAKS, ids=[b[0] for b in VERIFY_BREAKS]
    )
    def test_every_check_can_fail(self, monkeypatch, capsys, oracle, breaker, check, how):
        monkeypatch.setattr(verify, oracle, breaker(getattr(verify, oracle), how))
        assert main(["verify", "--mc-samples", "20000"]) == EXIT_TOLERANCE
        captured = capsys.readouterr()
        failed = [line for line in captured.out.splitlines() if ": FAIL (" in line]
        assert failed and all(line.startswith(f"[verify] {check}") for line in failed)
        assert check in captured.err
