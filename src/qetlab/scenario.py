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
from dataclasses import asdict, dataclass

import yaml

from .errors import ValidationError
from .fields import CurlGaussian, RadialWindow, _integer, _nonnegative, _positive
from .protocols import PROBE_FIELDS, PairInvariants, after_causal_wait, scaled_norms_finite

PROBES = (*PROBE_FIELDS, "both")
# libyaml's safe loader where PyYAML has it: the same constructor and resolver
# as SafeLoader, so the same values, parsed about ten times as fast
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# The shape of a scenario: each key maps to None (it holds a value) or to the
# table of the mapping it holds.
_FIELD = {"amplitude": None, "sigma": None, "center": None, "axis": None}
_SHAPE = {
    "seed": None,
    "probe": None,
    "T": None,
    "lambda": None,
    "fields": {"a_m": _FIELD, "f_o": _FIELD, "window": {"radius": None, "center": None}},
    "grid": {"n": None, "half_extent": None},
    "times": None,
    "output": {"results": None, "frames_prefix": None},
}


@dataclass(frozen=True)
class Scenario:
    pair: PairInvariants
    window: RadialWindow
    probe: str
    T_list: tuple
    lambdas: tuple
    seed: int
    grid_n: int
    grid_half_extent: float | None
    times: tuple
    results_name: str
    frames_prefix: str

    @property
    def a_m(self) -> CurlGaussian:
        return self.pair.a_m

    @property
    def f_o(self) -> CurlGaussian:
        return self.pair.f_o

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
        return tuple(PROBE_FIELDS) if self.probe == "both" else (self.probe,)


class _Collector:
    def __init__(self):
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def call(self, path: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None with each of its "<name>: ..." errors filed under path."""
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            self.errors.extend(f"{path}.{e}" for e in exc.errors)
            return None


def _walk(mapping: dict, shape: dict, path: str, errs: _Collector) -> dict:
    """The keys of mapping that shape knows, each nested mapping walked by its own table.

    Files every unknown key, with the nearest known one as a hint, and every
    value that should be a mapping and is not; such a value is kept as None.
    """
    known = {}
    for key, value in mapping.items():
        if key not in shape:
            hint = difflib.get_close_matches(str(key), sorted(shape), n=1)
            errs.add(path, f"unknown key {key!r}" + (f" (did you mean {hint[0]!r}?)" if hint else ""))
        elif shape[key] is None:
            known[key] = value
        elif isinstance(value, dict):
            known[key] = _walk(value, shape[key], f"{path}.{key}", errs)
        else:
            known[key] = None
            errs.add(f"{path}.{key}", "expected a mapping with " + "/".join(shape[key]))
    return known


def frame_stem(prefix: str, t: float) -> str:
    """File name, less its extension, of the density frame at time t."""
    return f"{prefix}_t{t:g}"


def _file_name(value, path: str, errs: _Collector) -> str:
    """A non-empty string naming a plain file inside the output directory."""
    unsafe = ("/", "\\", "..", "\0")
    if isinstance(value, str) and value not in ("", ".") and not any(u in value for u in unsafe):
        return value
    errs.add(path, f"must be a file name inside --out (no path separator or '..'), got {value!r}")
    return ""


def _number_list(value, rule, name: str, errs: _Collector) -> list[float]:
    """A number or a nonempty list of numbers, each checked by rule and filed under scenario.<name>."""
    items = value if isinstance(value, list) and value else [value]
    checked = [errs.call("scenario", rule, v, name) for v in items]
    return [] if None in checked else checked


def _build(cls, fields: dict, key: str, errs: _Collector, **defaults):
    """cls(**defaults updated by fields[key]), errors under scenario.fields.<key>; None if no mapping."""
    given = fields.get(key)
    return None if given is None else errs.call(f"scenario.fields.{key}", cls, **{**defaults, **given})


def scenario_from_dict(raw: dict) -> Scenario:
    """Validate a parsed mapping into a Scenario; raises with every error found."""
    if not isinstance(raw, dict):
        raise ValidationError(["scenario: top level must be a mapping"])
    errs = _Collector()
    spec = _walk(raw, _SHAPE, "scenario", errs)

    probe = spec.get("probe", "both")
    if probe not in PROBES:
        errs.add("scenario.probe", f"must be one of {PROBES}, got {probe!r}")
        probe = "both"
    seed = errs.call("scenario", _integer(0), spec.get("seed", 0), "seed")

    if "T" not in spec:
        errs.add("scenario.T", "required (a time or strictly ascending list of times)")
    T_list = _number_list(spec["T"], _positive, "T", errs) if "T" in spec else []
    if any(a >= b for a, b in zip(T_list, T_list[1:])):
        errs.add("scenario.T", f"list must be strictly ascending, got {T_list}")
    lambdas = _number_list(spec.get("lambda", 1.0), _nonnegative, "lambda", errs)
    if len(set(lambdas)) < len(lambdas):
        errs.add("scenario.lambda", f"list must not repeat a value, got {lambdas}")

    if "fields" not in spec:
        errs.add("scenario.fields", "required mapping with at least a_m")
    elif spec["fields"] is not None and "a_m" not in spec["fields"]:
        errs.add("scenario.fields.a_m", "required")
    fields = spec.get("fields") or {}
    a_m = _build(CurlGaussian, fields, "a_m", errs, amplitude=1.0, sigma=None)
    # f_o defaults to the measurement profile, the window to 3 sigma about it
    f_o = _build(CurlGaussian, fields, "f_o", errs, amplitude=1.0, sigma=None) if "f_o" in fields else a_m
    if "window" in fields:
        center = a_m.center if a_m else (0.0, 0.0, 0.0)
        window = _build(RadialWindow, fields, "window", errs, radius=None, center=center)
    else:
        window = RadialWindow(radius=3.0 * a_m.sigma, center=a_m.center) if a_m else None
    # E_m, I1 and xi once per scenario; a zero or overflowing norm is filed under its field
    pair = errs.call("scenario.fields", PairInvariants.of, a_m, f_o) if a_m and f_o else None

    grid = spec.get("grid") or {}
    grid_n = errs.call("scenario.grid", _integer(8), grid.get("n", 128), "n")
    grid_half = grid.get("half_extent")
    if grid_half is not None:
        grid_half = errs.call("scenario.grid", _positive, grid_half, "half_extent")

    times = tuple(_number_list(spec["times"], _nonnegative, "times", errs)) if "times" in spec else ()
    if len({frame_stem("", t) for t in times}) < len(times):
        errs.add("scenario.times", f"two times share a frame file name (named by %g), got {list(times)}")

    output = spec.get("output") or {}
    results_name = _file_name(output.get("results", "results.jsonl"), "scenario.output.results", errs)
    frames_prefix = _file_name(output.get("frames_prefix", "frame"), "scenario.output.frames_prefix", errs)

    causal = errs.call("scenario.fields", after_causal_wait, a_m, f_o) if a_m and f_o else None
    for T in T_list if causal else ():
        errs.call("scenario", causal, T, "T")
    if pair is not None:
        scaled = scaled_norms_finite(pair)
        for lam in lambdas:
            errs.call("scenario", scaled, lam, "lambda")

    if errs.errors:
        raise ValidationError(errs.errors)
    return Scenario(
        pair=pair, window=window, probe=probe, T_list=tuple(T_list), lambdas=tuple(lambdas),
        seed=seed, grid_n=grid_n, grid_half_extent=grid_half, times=times,
        results_name=results_name, frames_prefix=frames_prefix,
    )


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file; all validation errors are reported at once."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ValidationError([f"{path}: malformed YAML: {exc}"]) from exc
        except UnicodeDecodeError as exc:
            raise ValidationError([f"{path}: not UTF-8 text: {exc}"]) from exc
    if raw is None:
        raise ValidationError([f"{path}: empty scenario"])
    return scenario_from_dict(raw)
