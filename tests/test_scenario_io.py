import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from qetlab import DegenerateFieldError, ValidationError, parse_scenario
from qetlab.cli import EXIT_VALIDATION, main
from qetlab.dynamics import energy_density_frame
from qetlab.fields import make_curl_gaussian
from qetlab.results import (
    emit_frame_binary,
    emit_frame_csv,
    emit_records,
    load_frame_binary,
    load_frame_csv,
    load_records,
    run_scenario,
)
from qetlab.scenario import scenario_from_dict

from oracles import grid_positions

MINIMAL = """
T: 8.0
probe: spin
fields:
  a_m: {sigma: 1.0}
"""

FULL = """
seed: 7
probe: both
T: [8.0, 10.0]
lambda: [0.5, 1.0]
fields:
  a_m: {amplitude: 1.0, sigma: 1.0}
  f_o: {amplitude: 0.8, sigma: 1.1, axis: [0, 1, 1]}
  window: {radius: 2.5}
grid: {n: 64}
times: [0.0, 4.0]
"""


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_minimal_scenario_fills_defaults(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL))
        assert s.probe == "spin"
        assert s.T_list == (8.0,)
        assert s.lambdas == (1.0,)
        assert s.f_o == s.a_m  # defaults to the measurement profile
        assert s.window.radius == pytest.approx(3.0)
        assert s.seed == 0
        assert len(s.scenario_hash) == 16

    def test_full_scenario(self, tmp_path):
        s = parse_scenario(write(tmp_path, FULL))
        assert s.probes == ("spin", "oscillator")
        assert s.T_list == (8.0, 10.0)
        assert s.lambdas == (0.5, 1.0)
        assert s.f_o.amplitude == 0.8

    def test_negative_sigma_names_field_path(self, tmp_path):
        bad = MINIMAL.replace("sigma: 1.0", "sigma: -1")
        with pytest.raises(ValidationError) as err:
            parse_scenario(write(tmp_path, bad))
        assert any("fields.a_m.sigma" in e for e in err.value.errors)

    def test_unknown_key_suggests_nearest(self, tmp_path):
        bad = MINIMAL.replace("sigma: 1.0", "sigma_m: 1.0")
        with pytest.raises(ValidationError) as err:
            parse_scenario(write(tmp_path, bad))
        joined = " ".join(err.value.errors)
        assert "sigma_m" in joined and "'sigma'" in joined

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict({"T": 8.0, "fields": {"a_m": {"sigma": 1.0}}, "probes": "spin"})
        assert any("probes" in e and "probe" in e for e in err.value.errors)

    def test_causal_violation_is_validation_error(self):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict({"T": 2.0, "fields": {"a_m": {"sigma": 1.0}}})
        assert any("causal" in e for e in err.value.errors)

    def test_unsorted_T_list_rejected(self):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict({"T": [10.0, 8.0], "fields": {"a_m": {"sigma": 1.0}}})
        assert any("ascending" in e for e in err.value.errors)

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(
                {
                    "T": [10.0, 8.0],
                    "probe": "qubit",
                    "lambda": -1.0,
                    "fields": {"a_m": {"sigma": -2.0}},
                }
            )
        assert len(err.value.errors) >= 4

    @pytest.mark.parametrize(
        "keys, value",
        [
            (("T",), math.nan),
            (("T",), [12.0, math.inf]),
            (("lambda",), math.nan),
            (("times",), [0.0, math.inf]),
            (("fields", "a_m", "amplitude"), math.nan),
            (("fields", "a_m", "sigma"), math.inf),
            (("grid", "half_extent"), math.nan),
            (("grid", "half_extent"), True),
            (("fields", "window", "radius"), math.inf),
            (("fields", "window", "radius"), True),
            (("fields", "a_m", "center"), [1.0, 2.0]),
            (("fields", "a_m", "axis"), "z"),
            (("fields", "window", "center"), [1.0, 2.0]),
            (("fields", "a_m", "center"), [True, 0, 0]),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
    )
    def test_non_finite_and_boolean_numbers_rejected(self, keys, value):
        # YAML's .nan/.inf and true parse as floats and a bool; each must be
        # reported at its own field path, never run
        raw = {
            "T": 12.0,
            "lambda": 1.0,
            "times": [0.0],
            "fields": {"a_m": {"amplitude": 1.0, "sigma": 1.0}, "window": {"radius": 2.5}},
            "grid": {"n": 32, "half_extent": 10.0},
        }
        scenario_from_dict(raw)  # the unmodified mapping is valid
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(raw)
        path = "scenario." + ".".join(keys)
        assert any(e.startswith(path + ":") for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize("key", ["results", "frames_prefix"])
    @pytest.mark.parametrize("value", [{"a": 1}, 7, "../x"], ids=["mapping", "number", "parent"])
    def test_output_names_must_be_plain_files(self, key, value, tmp_path, capsys):
        # str() of a mapping or number once became a file name, and '../x'
        # would write beside --out instead of inside it
        raw = {"T": 8.0, "fields": {"a_m": {"sigma": 1.0}}, "output": {key: value}}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(raw)
        assert any(e.startswith(f"scenario.output.{key}:") for e in err.value.errors), err.value.errors
        out = tmp_path / "out"
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert f"scenario.output.{key}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.yaml"]

    def test_malformed_yaml(self, tmp_path):
        with pytest.raises(ValidationError, match="malformed"):
            parse_scenario(write(tmp_path, "T: [8.0\nfields"))

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
        with pytest.raises(ValidationError) as err:
            parse_scenario(path)
        assert err.value.errors[0].startswith(f"{path}: not UTF-8")
        assert main(["energy", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "Traceback" not in err

    def test_canonical_scenario_hash_is_pinned(self):
        # the hash covers every value that fixes the numbers; this pins its canonical form
        path = Path(__file__).resolve().parents[1] / "scenarios" / "canonical.yaml"
        assert parse_scenario(path).scenario_hash == "1c269aa53db7c168"


class TestRunScenario:
    def test_both_probes_share_input_energy(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL.replace("probe: spin", "probe: both")))
        records = run_scenario(s)
        assert len(records) == 2
        spin = next(r for r in records if r.probe == "spin")
        osc = next(r for r in records if r.probe == "oscillator")
        assert spin.E_m == osc.E_m
        assert spin.E_o is not None and osc.E_o_prime is not None
        assert osc.E_o is None and spin.E_o_prime is None

    def test_lambda_sweep_monotone_damping(self, tmp_path):
        text = MINIMAL + "lambda: [0.2, 0.5, 0.8, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]\n"
        s = parse_scenario(write(tmp_path, text))
        records = run_scenario(s)
        assert len(records) == 10
        dqs = [r.D_q for r in records]
        assert all(a > b for a, b in zip(dqs, dqs[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        s = parse_scenario(write(tmp_path, FULL))
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        emit_records(run_scenario(s), p1)
        emit_records(run_scenario(s), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_error_carries_coordinate(self, tmp_path):
        s = parse_scenario(write(tmp_path, FULL))
        broken = type(s).__new__(type(s))
        object.__setattr__(broken, "__dict__", dict(s.__dict__))
        object.__setattr__(broken, "f_o", make_curl_gaussian(0.0, 1.1))
        with pytest.raises(DegenerateFieldError, match="sweep point"):
            run_scenario(broken)

    def test_foreign_sweep_error_propagates_unchanged(self, tmp_path, monkeypatch):
        import qetlab.protocols

        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        def failing_kernel(*args, **kwargs):
            raise TwoArgError(7, "kernel unavailable")

        monkeypatch.setattr(qetlab.protocols, "overlap_kernel", failing_kernel)
        s = parse_scenario(write(tmp_path, FULL))
        with pytest.raises(TwoArgError) as info:
            run_scenario(s)
        assert info.value.args == (7, "kernel unavailable")

    def test_norms_once_per_scenario_and_kernel_once_per_T(self, monkeypatch):
        # 2 probes x 2 lambdas x 3 T: E_m, I1, xi once, K(T) once per T
        import qetlab.protocols
        import qetlab.results
        import qetlab.spectral

        calls = {"overlap_kernel": 0, "weighted_spectral_integral": 0}
        for name in calls:
            real = getattr(qetlab.spectral, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for mod in (qetlab.spectral, qetlab.protocols, qetlab.results):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted)
        s = scenario_from_dict(
            {
                "probe": "both",
                "T": [8.0, 10.0, 12.0],
                "lambda": [0.5, 1.0],
                "fields": {"a_m": {"sigma": 1.0}, "f_o": {"amplitude": 0.8, "sigma": 1.1}},
            }
        )
        assert len(run_scenario(s)) == 12
        assert calls == {"overlap_kernel": 3, "weighted_spectral_integral": 3}


class TestRecordEmission:
    def test_fixed_key_order(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL))
        path = tmp_path / "records.jsonl"
        emit_records(run_scenario(s), path)
        line = path.read_text().splitlines()[0]
        keys = [seg.split('":')[0].strip('{" ') for seg in line.split(",") if '":' in seg]
        assert keys[:4] == ["scenario_hash", "probe", "lambda", "T"]
        assert keys[-1] == "ratio"

    def test_empty_record_list_is_valid_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        emit_records([], path)
        assert path.read_text() == ""
        assert load_records(path) == []

    def test_round_trip(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL))
        records = run_scenario(s)
        path = tmp_path / "records.jsonl"
        emit_records(records, path)
        loaded = load_records(path)
        assert loaded[0]["E_m"] == records[0].E_m
        assert loaded[0]["lambda"] == records[0].lam


@pytest.fixture(scope="module")
def frame():
    from qetlab.dynamics import FrameGrid

    a = make_curl_gaussian(1.0, 1.0)
    return energy_density_frame(a, 0.0, FrameGrid(n=32, half_extent=5.8))


class TestFrameEmission:
    def test_csv_round_trip_exact(self, frame, tmp_path):
        path = tmp_path / "frame.csv"
        emit_frame_csv(frame, path)
        t, eps = load_frame_csv(path)
        assert t == frame.t
        np.testing.assert_array_equal(eps, frame.eps.reshape(-1))

    @pytest.mark.parametrize("n", [9, 33])
    def test_csv_bytes_match_savetxt(self, n, tmp_path):
        from qetlab.dynamics import DensityFrame, FrameGrid

        grid = FrameGrid(n=n, half_extent=3.7, center=(0.3, -1.25, 2.0))
        rng = np.random.default_rng(n)
        # magnitudes from 1e-300 to 1e3, exact zeros and ties in the mantissa
        eps = rng.random((n, n, n)) * 10.0 ** rng.integers(-300, 4, (n, n, n))
        eps.reshape(-1)[::7] = 0.0
        eps.reshape(-1)[3::11] = 0.125
        frame = DensityFrame(t=2.5, grid=grid, eps=eps)
        path = tmp_path / "frame.csv"
        emit_frame_csv(frame, path)

        cols = np.column_stack(
            [np.full(n**3, frame.t), grid_positions(grid).reshape(-1, 3), eps.reshape(-1)]
        )
        expected = tmp_path / "savetxt.csv"
        with open(expected, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,x,y,z,eps\n")
            np.savetxt(fh, cols, delimiter=",", fmt="%.17g")
        assert path.read_bytes() == expected.read_bytes()

    def test_binary_round_trip(self, frame, tmp_path):
        path = tmp_path / "frame.bin"
        emit_frame_binary(frame, path)
        loaded = load_frame_binary(path)
        assert loaded["n"] == frame.grid.n
        assert loaded["t"] == frame.t
        assert loaded["dx"] == frame.grid.dx
        np.testing.assert_array_equal(loaded["eps"], frame.eps)

    def test_binary_magic_validated(self, frame, tmp_path):
        path = tmp_path / "frame.bin"
        emit_frame_binary(frame, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            load_frame_binary(path)

    def test_binary_truncation_detected(self, frame, tmp_path):
        path = tmp_path / "frame.bin"
        emit_frame_binary(frame, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="expected"):
            load_frame_binary(path)
