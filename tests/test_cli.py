import json

import numpy as np
import pytest

from qetlab.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main

MINIMAL = """
T: 8.0
probe: spin
fields:
  a_m: {sigma: 1.0}
"""


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

    def test_verify_tolerance_failure_exits_3(self, monkeypatch, capsys):
        import qetlab.cli as cli

        monkeypatch.setattr(
            cli, "input_energy_position_oracle", lambda *a, **k: 123.456
        )
        assert main(["verify", "--mc-samples", "20000"]) == EXIT_TOLERANCE
        assert "FAIL" in capsys.readouterr().out


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


class TestVerify:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--mc-samples", "60000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") >= 5
        assert "FAIL" not in out
