"""Declarative run configuration: strict-schema parsing and validation.

Scenarios are YAML mappings.  Unknown keys are errors (with a nearest-match
suggestion), not warnings; physics-invalid values carry the offending field
path.  Natural units c = hbar = 1 throughout: lengths in units of the declared
base length, energies in its inverse.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
from dataclasses import asdict, dataclass

import yaml

from .errors import ValidationError
from .fields import CurlGaussian, RadialWindow
from .protocols import min_causal_wait

PROBES = ("spin", "oscillator", "both")

_TOP_KEYS = {
    "seed", "probe", "T", "lambda", "fields", "grid", "times", "output",
}
_FIELD_KEYS = {"amplitude", "sigma", "center", "axis"}
_WINDOW_KEYS = {"radius", "center"}
_FIELDS_KEYS = {"a_m", "f_o", "window"}
_GRID_KEYS = {"n", "half_extent"}
_OUTPUT_KEYS = {"results", "frames_prefix"}


@dataclass(frozen=True)
class Scenario:
    a_m: CurlGaussian
    f_o: CurlGaussian
    window: RadialWindow
    probe: str = "both"
    T_list: tuple = (12.0,)
    lambdas: tuple = (1.0,)
    seed: int = 0
    grid_n: int = 128
    grid_half_extent: float | None = None
    times: tuple = ()
    results_name: str = "results.jsonl"
    frames_prefix: str = "frame"

    @property
    def scenario_hash(self) -> str:
        """Hash of every value that fixes the computed numbers; output names are left out."""
        canonical = {
            "a_m": asdict(self.a_m),
            "f_o": asdict(self.f_o),
            "window": asdict(self.window),
            "probe": self.probe,
            "T": self.T_list,
            "lambda": self.lambdas,
            "seed": self.seed,
            "grid": {"n": self.grid_n, "half_extent": self.grid_half_extent},
            "times": self.times,
        }
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def probes(self) -> tuple:
        return ("spin", "oscillator") if self.probe == "both" else (self.probe,)


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def check_keys(self, mapping: dict, allowed: set, path: str) -> None:
        for key in mapping:
            if key not in allowed:
                hint = difflib.get_close_matches(str(key), sorted(allowed), n=1)
                suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
                self.add(path, f"unknown key {key!r}{suffix}")


def _is_number(value) -> bool:
    """A finite int or float; YAML's true/false, .nan and .inf are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _positive_number(value, path: str, errs: _Collector) -> bool:
    if _is_number(value) and value > 0:
        return True
    errs.add(path, f"must be a positive finite number, got {value!r}")
    return False


def _vector(value, path: str, errs: _Collector) -> tuple | None:
    if isinstance(value, (list, tuple)) and len(value) == 3 and all(_is_number(v) for v in value):
        return tuple(float(v) for v in value)
    errs.add(path, f"must be a list of three finite numbers, got {value!r}")
    return None


def _file_name(value, path: str, errs: _Collector) -> str:
    """A non-empty string naming a plain file inside the output directory."""
    unsafe = ("/", "\\", "..", "\0")
    if isinstance(value, str) and value not in ("", ".") and not any(u in value for u in unsafe):
        return value
    errs.add(path, f"must be a file name inside --out (no path separator or '..'), got {value!r}")
    return ""


def _as_scalar_or_list(value, path: str, errs: _Collector) -> list[float]:
    if _is_number(value):
        return [float(value)]
    if isinstance(value, list) and value and all(_is_number(v) for v in value):
        return [float(v) for v in value]
    errs.add(path, f"expected a finite number or a nonempty list of finite numbers, got {value!r}")
    return []


def _parse_field(spec, path: str, errs: _Collector) -> CurlGaussian | None:
    if not isinstance(spec, dict):
        errs.add(path, "expected a mapping with amplitude/sigma/center/axis")
        return None
    errs.check_keys(spec, _FIELD_KEYS, path)
    sigma = spec.get("sigma")
    if not _positive_number(sigma, f"{path}.sigma", errs):
        return None
    amplitude = spec.get("amplitude", 1.0)
    if not _is_number(amplitude):
        errs.add(f"{path}.amplitude", f"must be a finite number, got {amplitude!r}")
        return None
    center = _vector(spec.get("center", (0.0, 0.0, 0.0)), f"{path}.center", errs)
    axis = _vector(spec.get("axis", (0.0, 0.0, 1.0)), f"{path}.axis", errs)
    if center is None or axis is None:
        return None
    try:
        return CurlGaussian(amplitude=float(amplitude), sigma=float(sigma), center=center, axis=axis)
    except ValidationError as exc:
        errs.add(path, str(exc))
        return None


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a parsed mapping into a Scenario; raises with every error found."""
    errs = _Collector()
    if not isinstance(raw, dict):
        raise ValidationError(["scenario: top level must be a mapping"])
    errs.check_keys(raw, _TOP_KEYS, "scenario")

    probe = raw.get("probe", "both")
    if probe not in PROBES:
        errs.add("scenario.probe", f"must be one of {PROBES}, got {probe!r}")
        probe = "both"

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        errs.add("scenario.seed", f"must be a nonnegative integer, got {seed!r}")
        seed = 0

    if "T" not in raw:
        errs.add("scenario.T", "required (a time or ascending list of times)")
        T_list: list[float] = []
    else:
        T_list = _as_scalar_or_list(raw["T"], "scenario.T", errs)
        if T_list and sorted(T_list) != T_list:
            errs.add("scenario.T", "list must be sorted ascending")

    lambdas = _as_scalar_or_list(raw.get("lambda", 1.0), "scenario.lambda", errs)
    for lam in lambdas:
        if lam < 0.0:
            errs.add("scenario.lambda", f"must be nonnegative, got {lam}")

    fields_spec = raw.get("fields")
    a_m = f_o = None
    window = None
    if not isinstance(fields_spec, dict):
        errs.add("scenario.fields", "required mapping with at least a_m")
    else:
        errs.check_keys(fields_spec, _FIELDS_KEYS, "scenario.fields")
        if "a_m" not in fields_spec:
            errs.add("scenario.fields.a_m", "required")
        else:
            a_m = _parse_field(fields_spec["a_m"], "scenario.fields.a_m", errs)
        if "f_o" in fields_spec:
            f_o = _parse_field(fields_spec["f_o"], "scenario.fields.f_o", errs)
        elif a_m is not None:
            f_o = a_m  # default: operate with the measurement profile
        wspec = fields_spec.get("window")
        if wspec is not None:
            if not isinstance(wspec, dict):
                errs.add("scenario.fields.window", "expected a mapping")
            else:
                errs.check_keys(wspec, _WINDOW_KEYS, "scenario.fields.window")
                radius = wspec.get("radius")
                center = _vector(
                    wspec.get("center", a_m.center if a_m else (0.0, 0.0, 0.0)),
                    "scenario.fields.window.center",
                    errs,
                )
                if _positive_number(radius, "scenario.fields.window.radius", errs) and center is not None:
                    window = RadialWindow(radius=float(radius), center=center)
        if window is None and a_m is not None:
            window = RadialWindow(radius=3.0 * a_m.sigma, center=a_m.center)

    grid_n = 128
    grid_half = None
    gspec = raw.get("grid")
    if gspec is not None:
        if not isinstance(gspec, dict):
            errs.add("scenario.grid", "expected a mapping")
        else:
            errs.check_keys(gspec, _GRID_KEYS, "scenario.grid")
            grid_n = gspec.get("n", 128)
            if not isinstance(grid_n, int) or isinstance(grid_n, bool) or grid_n < 8:
                errs.add("scenario.grid.n", f"must be an integer >= 8, got {grid_n!r}")
                grid_n = 128
            grid_half = gspec.get("half_extent")
            if grid_half is not None and not _positive_number(grid_half, "scenario.grid.half_extent", errs):
                grid_half = None

    times = ()
    if "times" in raw:
        tlist = _as_scalar_or_list(raw["times"], "scenario.times", errs)
        for t in tlist:
            if t < 0.0:
                errs.add("scenario.times", f"times must be nonnegative, got {t}")
        times = tuple(tlist)

    results_name = "results.jsonl"
    frames_prefix = "frame"
    ospec = raw.get("output")
    if ospec is not None:
        if not isinstance(ospec, dict):
            errs.add("scenario.output", "expected a mapping")
        else:
            errs.check_keys(ospec, _OUTPUT_KEYS, "scenario.output")
            results_name = _file_name(ospec.get("results", results_name), "scenario.output.results", errs)
            frames_prefix = _file_name(
                ospec.get("frames_prefix", frames_prefix), "scenario.output.frames_prefix", errs
            )

    # the causal gate needs both fields
    if a_m is not None and f_o is not None and T_list:
        floor = min_causal_wait(a_m, f_o)
        for T in T_list:
            if T <= floor:
                errs.add(
                    "scenario.T",
                    f"T = {T} is in the causal-violation regime; need T > {floor:.6g}",
                )

    if errs.errors:
        raise ValidationError(errs.errors)

    return Scenario(
        a_m=a_m,
        f_o=f_o,
        window=window,
        probe=probe,
        T_list=tuple(T_list),
        lambdas=tuple(lambdas),
        seed=seed,
        grid_n=grid_n,
        grid_half_extent=grid_half,
        times=times,
        results_name=results_name,
        frames_prefix=frames_prefix,
    )


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file; all validation errors are reported at once."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValidationError([f"{path}: malformed YAML: {exc}"]) from exc
        except UnicodeDecodeError as exc:
            raise ValidationError([f"{path}: not UTF-8 text: {exc}"]) from exc
    if raw is None:
        raise ValidationError([f"{path}: empty scenario"])
    return scenario_from_dict(raw)
