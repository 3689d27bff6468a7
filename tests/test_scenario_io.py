import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from qetlab import ValidationError, parse_scenario, results, scenario
from qetlab.cli import EXIT_VALIDATION, main
from qetlab.dynamics import energy_density_frame
from qetlab.fields import CurlGaussian
from qetlab.protocols import PROBE_FIELDS, Outcome
from qetlab.results import (
    emit_frame_binary,
    emit_frame_csv,
    emit_records,
    load_frame_binary,
    load_frame_csv,
    run_scenario,
)
from qetlab.scenario import _SHAPE, Scenario, scenario_from_dict

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
    def test_defaults_live_in_the_parser_only(self):
        # Scenario declares no field defaults, so scenario_from_dict is the one place they are set
        missing = [
            f.name
            for f in dataclasses.fields(Scenario)
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        ]
        assert missing == [f.name for f in dataclasses.fields(Scenario)]

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

    def test_scenario_carries_the_checked_pair(self, tmp_path):
        s = parse_scenario(write(tmp_path, FULL))
        assert (s.a_m, s.f_o) == (s.pair.a_m, s.pair.f_o)
        assert s.pair.xi > 0.0 and s.pair.E_m > 0.0

    def test_pair_errors_are_filed_with_the_others(self, tmp_path):
        bad = MINIMAL.replace("probe: spin", "probe: spn") + "  f_o: {amplitude: 0.0, sigma: 1.0}\n"
        with pytest.raises(ValidationError) as err:
            parse_scenario(write(tmp_path, bad))
        assert [e.split(":")[0] for e in err.value.errors] == ["scenario.probe", "scenario.fields.f_o.xi"]

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

    def test_every_bad_key_of_a_mapping_reported_in_one_run(self):
        raw = {
            "T": 12.0,
            "fields": {
                "a_m": {"amplitude": math.nan, "sigma": -1.0, "center": [1.0, 2.0], "axis": [0, 0, 0]},
                "window": {"radius": True, "center": "origin"},
            },
            "grid": {"n": 4, "half_extent": math.inf},
            "seed": -1,
        }
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(raw)
        paths = [e.split(": ")[0] for e in err.value.errors]
        assert paths == [
            "scenario.seed",
            "scenario.fields.a_m.amplitude",
            "scenario.fields.a_m.sigma",
            "scenario.fields.a_m.center",
            "scenario.fields.a_m.axis",
            "scenario.fields.window.radius",
            "scenario.fields.window.center",
            "scenario.grid.n",
            "scenario.grid.half_extent",
        ], err.value.errors

    @pytest.mark.parametrize(
        "edit, path, hint",
        [
            (lambda raw: raw.update(T=[]), "scenario.T", None),
            (lambda raw: raw.update({"lambda": []}), "scenario.lambda", None),
            (lambda raw: raw.update(times=[]), "scenario.times", None),
            (lambda raw: raw.pop("fields"), "scenario.fields", None),
            (lambda raw: raw["fields"].update(a_m=1.0), "scenario.fields.a_m", None),
            (lambda raw: raw["fields"].update(f_o=None), "scenario.fields.f_o", None),
            (lambda raw: raw["fields"].update(window=[2.5]), "scenario.fields.window", None),
            (lambda raw: raw.update(grid=64), "scenario.grid", None),
            (lambda raw: raw.update(output="results.jsonl"), "scenario.output", None),
            (lambda raw: raw.update(probes="spin"), "scenario", "probe"),
            (lambda raw: raw["fields"].update(window_=None), "scenario.fields", "window"),
            (lambda raw: raw.update(grid={"nn": 64}), "scenario.grid", "n"),
            (lambda raw: raw.update(output={"result": "r.jsonl"}), "scenario.output", "results"),
            (lambda raw: raw["fields"]["a_m"].update(sigmaa=1.0), "scenario.fields.a_m", "sigma"),
            (
                lambda raw: raw["fields"].update(f_o={"sigma": 1.0, "axes": [0, 0, 1]}),
                "scenario.fields.f_o",
                "axis",
            ),
            # a repeat would write the same records twice, or one frame file over another
            (lambda raw: raw.update(T=[8.0, 8.0]), "scenario.T", None),
            (lambda raw: raw.update({"lambda": [1.0, 0.5, 1.0]}), "scenario.lambda", None),
            (lambda raw: raw.update(times=[1.0, 1.0000001]), "scenario.times", None),
            # an empty `grid:` is YAML null, which is not a mapping
            (lambda raw: raw["fields"].update(window=None), "scenario.fields.window", None),
            (lambda raw: raw.update(grid=None), "scenario.grid", None),
            (lambda raw: raw.update(output=None), "scenario.output", None),
            # lambda^2 I1 and lambda^2 E_m leave the float range
            (lambda raw: raw.update({"lambda": [1.0, 1.0e200]}), "scenario.lambda", None),
        ],
        ids=[
            "empty-T", "empty-lambda", "empty-times", "missing-fields", "a_m-number", "f_o-null",
            "window-list", "grid-number", "output-string", "top-hint", "fields-hint", "grid-hint",
            "output-hint", "a_m-hint", "f_o-hint", "repeated-T", "repeated-lambda", "times-one-name",
            "window-null", "grid-null", "output-null", "lambda-overflows-norms",
        ],
    )
    def test_each_bad_shape_is_one_error_at_its_own_path(self, edit, path, hint):
        raw = {"T": 8.0, "times": [0.0], "fields": {"a_m": {"sigma": 1.0}}}
        scenario_from_dict(raw)  # the unmodified mapping is valid
        edit(raw)
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(raw)
        assert [e.split(": ")[0] for e in err.value.errors] == [path], err.value.errors
        if hint is not None:
            assert f"(did you mean {hint!r}?)" in err.value.errors[0]

    def test_density_with_times_sharing_a_frame_name_exits_2(self, tmp_path, capsys):
        # 1.0 and 1.0000001 both name frame_t1, so the second frame would replace the first
        text = MINIMAL + "times: [1.0, 1.0000001, 2.0, 2.0]\ngrid: {n: 48, half_extent: 8.0}\n"
        out = tmp_path / "out"
        assert main(["density", "--scenario", str(write(tmp_path, text)), "--out", str(out)]) == EXIT_VALIDATION
        assert "scenario.times" in capsys.readouterr().err
        assert not out.exists()

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

    def test_readme_block_lists_exactly_the_shape_table(self):
        # the README's scenario block documents every key, at every depth, and nothing else
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("Scenarios are strict YAML", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        raw = yaml.safe_load(block)

        def shape(mapping):
            return {k: shape(v) if isinstance(v, dict) else None for k, v in mapping.items()}

        assert shape(raw) == _SHAPE
        scenario_from_dict(raw)  # and the block is a valid scenario

    def test_canonical_scenario_hash_is_pinned(self):
        # the hash covers every value that fixes the numbers; this pins its canonical form
        path = Path(__file__).resolve().parents[1] / "scenarios" / "canonical.yaml"
        assert parse_scenario(path).scenario_hash == "1c269aa53db7c168"

    def test_integer_half_extent_hashes_as_its_float(self):
        def scenario(half_extent):
            grid = {"half_extent": half_extent}
            return scenario_from_dict({"T": 8.0, "fields": {"a_m": {"sigma": 1.0}}, "grid": grid})

        as_int, as_float = scenario(16), scenario(16.0)
        assert as_int.grid_half_extent == 16.0 and isinstance(as_int.grid_half_extent, float)
        assert as_int.scenario_hash == as_float.scenario_hash


CANONICAL = Path(__file__).resolve().parents[1] / "scenarios" / "canonical.yaml"

MIXED = """
# flow and block lists, quoted numbers, special floats, null and an alias
T: [8.0, 1e100, .inf, -.INF]
lambda:
  - 0.5   # a comment after an item
  - '1.0'
  - "2"
times: ~
grid: &grid {n: 64, half_extent: 1.5e+1}
copy: *grid
names: [a, 'b: c', "d\\n"]
flags: [true, false, yes, null, 0x10, 010, 1_000]
"""


class TestLoaders:
    """libyaml's safe loader, where PyYAML has it, reads what the pure-Python one reads."""

    def test_libyaml_loader_is_used_where_pyyaml_has_it(self):
        assert scenario._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    @pytest.mark.parametrize(
        "text",
        [CANONICAL.read_text(encoding="utf-8"), MINIMAL, FULL, MIXED],
        ids=["canonical", "minimal", "full", "mixed"],
    )
    def test_both_loaders_read_the_same_values(self, text):
        assert yaml.load(text, Loader=scenario._LOADER) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_mixed_text_reads_as_yaml_1_1(self):
        raw = yaml.load(MIXED, Loader=scenario._LOADER)
        assert raw["T"] == [8.0, "1e100", math.inf, -math.inf]
        assert raw["lambda"] == [0.5, "1.0", "2"] and raw["times"] is None
        assert raw["copy"] == raw["grid"] == {"n": 64, "half_extent": 15.0}
        assert raw["flags"] == [True, False, True, None, 16, 8, 1000]

    @pytest.mark.parametrize("text", [CANONICAL.read_text(encoding="utf-8"), FULL], ids=["canonical", "full"])
    def test_pure_python_loader_gives_the_same_scenario(self, text, tmp_path, monkeypatch):
        path = write(tmp_path, text)
        fast = parse_scenario(path)
        monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
        pure = parse_scenario(path)
        assert pure == fast and pure.scenario_hash == fast.scenario_hash

    def test_pure_python_loader_keeps_the_canonical_hash(self, monkeypatch):
        monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
        assert parse_scenario(CANONICAL).scenario_hash == "1c269aa53db7c168"

    @pytest.mark.parametrize("pure", [False, True], ids=["qetlab-loader", "SafeLoader"])
    @pytest.mark.parametrize(
        "text, line", [("T: [8.0\nfields", "line 1"), ("T: 8.0\n  x: : [\n", "line 2")], ids=["flow", "block"]
    )
    def test_malformed_yaml_names_file_and_line(self, pure, text, line, tmp_path, monkeypatch):
        if pure:
            monkeypatch.setattr(scenario, "_LOADER", yaml.SafeLoader)
        path = write(tmp_path, text)
        with pytest.raises(ValidationError) as err:
            parse_scenario(path)
        [message] = err.value.errors
        assert message.startswith(f"{path}: malformed YAML: ") and line in message


class TestRunScenario:
    def test_both_probes_share_input_energy(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL.replace("probe: spin", "probe: both")))
        records = run_scenario(s)
        assert len(records) == 2
        spin = next(r for r in records if r["probe"] == "spin")
        osc = next(r for r in records if r["probe"] == "oscillator")
        assert spin["E_m"] == osc["E_m"]
        assert spin["E_o"] is not None and osc["E_o_prime"] is not None
        assert osc["E_o"] is None and spin["E_o_prime"] is None

    def test_lambda_sweep_monotone_damping(self, tmp_path):
        text = MINIMAL + "lambda: [0.2, 0.5, 0.8, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]\n"
        s = parse_scenario(write(tmp_path, text))
        records = run_scenario(s)
        assert len(records) == 10
        dqs = [r["D_q"] for r in records]
        assert all(a > b for a, b in zip(dqs, dqs[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        s = parse_scenario(write(tmp_path, FULL))
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        emit_records(run_scenario(s), p1)
        emit_records(run_scenario(s), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_error_carries_coordinate(self, tmp_path, monkeypatch):
        import qetlab.protocols
        from qetlab.errors import ToleranceFailure

        real = qetlab.protocols.overlap_kernels

        def kernel_missing_at_10(f_o, a_m, Ts):
            if 10.0 in Ts:
                raise ToleranceFailure("estimated error too large for K(T=10.0)")
            return real(f_o, a_m, Ts)

        monkeypatch.setattr(qetlab.protocols, "overlap_kernels", kernel_missing_at_10)
        s = parse_scenario(write(tmp_path, FULL))
        at_10 = r"^sweep point \(T=10.0\): estimated error too large for K\(T=10.0\)$"
        with pytest.raises(ToleranceFailure, match=at_10):
            run_scenario(s)

    def test_foreign_sweep_error_propagates_unchanged(self, tmp_path, monkeypatch):
        import qetlab.protocols

        class TwoArgError(Exception):
            def __init__(self, code, detail):
                super().__init__(code, detail)

        def failing_kernel(*args, **kwargs):
            raise TwoArgError(7, "kernel unavailable")

        monkeypatch.setattr(qetlab.protocols, "overlap_kernels", failing_kernel)
        s = parse_scenario(write(tmp_path, FULL))
        with pytest.raises(TwoArgError) as info:
            run_scenario(s)
        assert info.value.args == (7, "kernel unavailable")

    def test_norms_once_per_scenario_and_kernel_once_per_T(self, monkeypatch):
        # 2 probes x 2 lambdas x 3 T: E_m, I1, xi once, K(T) once per T, in one contour pass
        import qetlab.protocols
        import qetlab.results
        import qetlab.spectral

        calls, Ts = {"overlap_kernels": 0, "weighted_spectral_integral": 0}, []
        for name in calls:
            real = getattr(qetlab.spectral, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                if _name == "overlap_kernels":
                    Ts.extend(args[2])
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
        assert calls == {"overlap_kernels": 1, "weighted_spectral_integral": 3}
        assert Ts == [8.0, 10.0, 12.0]


class TestRecordEmission:
    def test_fixed_key_order(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL))
        path = tmp_path / "records.jsonl"
        emit_records(run_scenario(s), path)
        keys = list(json.loads(path.read_text().splitlines()[0]))
        # the README's key order
        assert keys == [
            "scenario_hash", "probe", "lambda", "T", "E_m", "eta", "xi", "theta_star", "E_o", "D_q",
            "eta_prime", "theta_prime_star", "E_o_prime", "D_ho", "ratio",
        ]

    def test_keys_after_T_are_the_outcome_fields(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL.replace("probe: spin", "probe: both")))
        outcome_keys = [f.name for f in dataclasses.fields(Outcome)]
        for rec in run_scenario(s):
            assert list(rec) == ["scenario_hash", "probe", "lambda", "T", *outcome_keys]

    def test_each_probe_fields_are_null_in_the_other_record(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL.replace("probe: spin", "probe: both")))
        records = {rec["probe"]: rec for rec in run_scenario(s)}
        assert set(records) == set(PROBE_FIELDS)
        for probe, names in PROBE_FIELDS.items():
            for other, rec in records.items():
                assert [rec[n] is None for n in names] == [other != probe] * len(names)

    def test_non_finite_floats_are_written_null(self, tmp_path):
        # a zero D_q makes the ratio infinite; JSON has no inf, so the line carries null
        path = tmp_path / "records.jsonl"
        emit_records([{"D_q": 0.0, "ratio": math.inf, "eta": math.nan, "E_o": None}], path)
        assert path.read_text() == '{"D_q": 0.0, "ratio": null, "eta": null, "E_o": null}\n'

    def test_empty_record_list_is_valid_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        emit_records([], path)
        assert path.read_text() == ""

    def test_round_trip(self, tmp_path):
        s = parse_scenario(write(tmp_path, MINIMAL))
        records = run_scenario(s)
        path = tmp_path / "records.jsonl"
        emit_records(records, path)
        loaded = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert loaded == records


@pytest.fixture(scope="module")
def frame():
    from qetlab.dynamics import FrameGrid

    a = CurlGaussian(1.0, 1.0)
    return energy_density_frame(a, 0.0, FrameGrid(n=32, half_extent=5.8))


class TestFrameEmission:
    def test_csv_round_trip_exact(self, frame, tmp_path):
        path = tmp_path / "frame.csv"
        emit_frame_csv(frame, path)
        t, eps = load_frame_csv(path)
        assert t == frame.t
        np.testing.assert_array_equal(eps, frame.eps.reshape(-1))

    @pytest.mark.parametrize("n, kind", [(9, "random"), (33, "random"), (33, "frame"), (8, "fallback")],
                             ids=["9", "33", "frame-33", "fallback-planes"])
    def test_csv_bytes_match_savetxt(self, n, kind, tmp_path):
        from qetlab.dynamics import DensityFrame, FrameGrid

        if kind == "frame":
            # tilted and off the origin at odd n, so the nodes sit half a step off the
            # source; sigma = 4 lets n = 33 resolve the envelope and hold the shell at t = 4
            source = CurlGaussian(1.3, 4.0, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))
            frame = energy_density_frame(source, 4.0, FrameGrid(n=n, half_extent=25.5))
            grid, center, eps = frame.grid, frame.center, frame.eps
        else:
            grid = FrameGrid(n=n, half_extent=3.7)
            center = (0.3, -1.25, 2.0)
            rng = np.random.default_rng(n)
            # magnitudes from 1e-300 to 1e3 of either sign, exact zeros of either sign
            # and ties in the mantissa
            eps = rng.random((n, n, n)) * 10.0 ** rng.integers(-300, 4, (n, n, n))
            eps *= rng.choice([-1.0, 1.0], eps.shape)
            eps.reshape(-1)[::7] = 0.0
            eps.reshape(-1)[5::14] = -0.0
            eps.reshape(-1)[3::11] = 0.125
            if kind == "fallback":
                # values that "%.17g" itself writes (not finite, or on a tie) beside
                # ones the fast path writes, in consecutive planes: along one row the
                # kinds move one z further each plane, and one (y, z) alternates them
                special = [math.nan, -math.inf, 0.0, -0.0, 5e-324, 1234567890123456.25, math.inf, -2.5e-310]
                for i in range(n):
                    eps[i, 4] = np.roll(special, i)
                eps[:, 2, 3] = [math.nan, 0.000123, math.inf, -0.0, 1234567890123456.25, -1.5e-10,
                                -1234567890123456.75, 12.5]
            frame = DensityFrame(t=2.5, grid=grid, center=center, eps=eps)
        path = tmp_path / "frame.csv"
        emit_frame_csv(frame, path)

        cols = np.column_stack(
            [np.full(n**3, frame.t), grid_positions(grid, center).reshape(-1, 3), eps.reshape(-1)]
        )
        expected = tmp_path / "savetxt.csv"
        with open(expected, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,x,y,z,eps\n")
            np.savetxt(fh, cols, delimiter=",", fmt="%.17g")
        assert path.read_bytes() == expected.read_bytes()

    def test_csv_write_stays_plane_wise(self, tmp_path):
        from qetlab.dynamics import DensityFrame, FrameGrid

        n = 64
        rng = np.random.default_rng(3)
        eps = rng.random((n, n, n)) * 10.0 ** rng.integers(-30, 2, (n, n, n))
        frame = DensityFrame(t=1.5, grid=FrameGrid(n=n, half_extent=6.1), center=(0.2, -0.3, 0.7), eps=eps)
        path = tmp_path / "frame.csv"
        tracemalloc.start()
        try:
            emit_frame_csv(frame, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 20e6
        assert peak < 4e6

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


def exact_texts(values) -> list[str]:
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def plane_texts(values) -> list[str]:
    """The text `results._format_plane` gives each value, one row per value."""
    values = np.asarray(values, dtype=float)
    text = np.tile(np.frombuffer(results._TEMPLATE, np.uint8), (len(values), 1))
    keep = np.zeros(text.shape, bool)
    results._format_plane(values, text, keep)
    return text[keep].tobytes().decode("ascii").split("\n")[:-1]


class TestExactDigits:
    """`results._format_plane` against "%.17g" itself, value by value."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=float)
        both = np.concatenate([values, -values])
        assert plane_texts(both) == exact_texts(both)

    def test_random_bit_patterns(self):
        # uniform bit patterns cover every binary exponent, subnormals, both
        # signs, and NaNs with many payloads
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True)
        self.check(np.concatenate([bits.view(np.float64), [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308]]))

    def test_exact_ties(self):
        # exact decimal ties at the 17th digit round half to even
        self.check([1234567890123456.25, 1234567890123456.75, 0.125, 2.5, 1e16 + 2.0]
                   + [2.0**-k for k in range(1, 1075)] + [2.0**k for k in range(0, 1024)])

    def test_one_ulp_around_powers_of_ten(self):
        powers = [10.0**k for k in range(-323, 309)]
        self.check(powers + [np.nextafter(p, 0.0) for p in powers] + [np.nextafter(p, math.inf) for p in powers])

    def test_edges_of_the_fast_range(self):
        edges = [1e-280, results._FAST_MAX]  # below 1e-280 the values are scaled by 2^_SCALE
        self.check(edges + [np.nextafter(x, 0.0) for x in edges] + [np.nextafter(x, math.inf) for x in edges])

    def test_every_form_and_digit_count(self):
        # the doubles nearest short decimals reach every form (fixed below and
        # above 1, scientific with 2- and 3-digit exponents) with 1 to 17 digits
        rng = np.random.default_rng(5)
        self.check([float(f"{m}e{e}") for d in range(1, 18) for e in range(-124, 124)
                    for m in rng.integers(10 ** (d - 1), 10**d, 4)])

    def test_fast_path_covers_a_tilted_frame(self, monkeypatch):
        # the second frame reaches 29 sigma from the source, where 1% of the values lie
        # below 1e-280 and 0.2% are subnormal; the fast path scales them by a power of two
        from qetlab.dynamics import FrameGrid

        source = CurlGaussian(1.3, 1.0, center=(0.4, -0.2, 0.1), axis=(1.0, 2.0, -1.0))
        exact = results._exact
        calls = []
        monkeypatch.setattr(results, "_exact", lambda v: calls.append(v) or exact(v))
        for t, grid in [(0.5, FrameGrid(n=32, half_extent=5.8)), (0.0, FrameGrid(n=88, half_extent=17.0))]:
            values = energy_density_frame(source, t, grid).eps.reshape(-1)
            calls.clear()
            assert plane_texts(values) == exact_texts(values)
            assert len(calls) <= 1e-3 * values.size
