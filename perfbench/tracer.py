"""Spans at qetlab's module boundaries, recorded from outside the program.

`Tracer.install()` wraps every public module-level function of every loaded
qetlab module and rebinds the wrapper in *every* qetlab module that binds the
same function object: protocols, results and cli import overlap_kernel and
weighted_spectral_integral by name, so patching spectral alone would miss
their calls.  Methods listed in METHODS are wrapped on their class.  A span
is named "<module>.<function>", which is also its layer prefix, so a
function that a later change deletes simply has no spans.

Spans (name, start, end, parent, iteration) stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

# (module, class, method, span name): methods that are layer boundaries
METHODS = (("qetlab.fields", "CurlGaussianSpectrum", "__call__", "fields.spectrum_eval"),)

LAYERS = ("spectral", "protocols", "results", "dynamics", "fields", "negative_energy", "scenario", "cli")


def _shape(sf):
    """A spectrum up to its amplitude: K and the norms follow exact amplitude scaling laws."""
    return (float(sf.sigma), tuple(sf.center), tuple(sf.axis))


def _kernel_info(args, result):
    f_o, a_m, T = args[:3]
    return {"evals": int(result.samples_or_nodes),
            "key": ("K", _shape(f_o), _shape(a_m), float(T)),
            "displaced": tuple(f_o.center) != tuple(a_m.center)}


def _norm_info(args, result):
    sf, power = args[:2]
    return {"evals": int(result.samples_or_nodes), "key": ("norm", _shape(sf), int(power))}


def _mc_info(args, result):
    return {"samples": int(args.get("samples")), "workers": int(args.get("workers"))}


def _written(args, result):
    return {"bytes": sum(os.path.getsize(a) for a in args.values()
                         if isinstance(a, (str, os.PathLike)) and os.path.isfile(a))}


def _frame_info(args, result):
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return {"voxels": int(result.eps.size), "n": int(result.eps.shape[0]),
            "array_bytes": sum(a.nbytes for a in arrays)}


# span name -> (wants named arguments?, annotator(arguments, result) -> info)
ANNOTATE = {
    "spectral.overlap_kernel": (False, _kernel_info),
    "spectral.weighted_spectral_integral": (False, _norm_info),
    "spectral.brute_force_overlap_oracle": (True, _mc_info),
    "dynamics.energy_density_frame": (False, _frame_info),
    "negative_energy.packet_amplitudes": (True, lambda a, r: {"points": int(np.asarray(a["x"]).reshape(-1, 3).shape[0])}),
    "results.emit_records": (True, _written),
    "results.emit_frame_binary": (True, _written),
    "results.emit_frame_csv": (True, _written),
}

# functions the named metrics read; any of them absent leaves its metrics at zero
NAMED = set(ANNOTATE) | {
    "protocols.run_spin_protocol", "protocols.run_oscillator_protocol", "protocols.separation_scaling_fit",
    "protocols.crossover_amplitude", "results.run_scenario", "negative_energy.fock_matrix_elements",
    "scenario.parse_scenario", "cli.main",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id or -1, iteration, info)
        self.iteration = -1
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        tracer = self
        named, annotate = ANNOTATE.get(name, (False, None))
        sig = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = annotate(bound.arguments if named else tuple(bound.arguments.values()), result)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError, OSError):
                    info = None  # a changed signature or result type: the metric goes missing
            tracer.spans.append((sid, name, start, end, parent, tracer.iteration, info))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qetlab" or n.startswith("qetlab.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("qetlab."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}")
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        self.missing = []
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, name))
        installed = {f"{w.__module__.split('.', 1)[1]}.{w.__name__}" for w in wrappers.values()}
        self.missing += sorted(NAMED - installed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        t0 = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, it, info in sorted(self.spans):
                row = {"id": sid, "name": name, "start": start - t0, "end": end - t0,
                       "parent": parent, "iteration": it}
                if info:
                    row["info"] = {k: v for k, v in info.items() if k != "key"}
                fh.write(json.dumps(row) + "\n")


def iteration_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced iteration's spans.

    A span's self time is its duration minus that of its nearest descendants
    in other layers, so same-layer helpers count toward their caller (the
    quadrature behind overlap_kernel is overlap_kernel's self time).  A
    layer's self time sums the spans that enter the layer from outside it.
    """
    layer_of = {s[0]: s[1].split(".", 1)[0] for s in spans}
    dur = {s[0]: s[3] - s[2] for s in spans}
    children: dict[int, list] = {}
    for sid, _, _, _, parent, _, _ in spans:
        children.setdefault(parent, []).append(sid)

    def elsewhere(sid):  # time of the nearest other-layer descendants
        return sum(dur[c] if layer_of[c] != layer_of[sid] else elsewhere(c) for c in children.get(sid, ()))

    calls, self_s, incl = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    infos: dict[str, list] = {}
    for sid, name, _, _, parent, _, info in spans:
        own = dur[sid] - elsewhere(sid)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl[name] = incl.get(name, 0.0) + dur[sid]
        if layer_of.get(parent) != layer_of[sid]:
            layer_self[layer_of[sid]] = layer_self.get(layer_of[sid], 0.0) + own
        if info is not None:
            infos.setdefault(name, []).append((info, dur[sid]))

    def info_sum(name, key, where=lambda i: True):
        return sum(i[key] for i, _ in infos.get(name, ()) if key in i and where(i))

    def dur_sum(name, where=lambda i: True):
        return sum(d for i, d in infos.get(name, ()) if where(i))

    def count(name, where=lambda i: True):
        return sum(1 for i, _ in infos.get(name, ()) if where(i))

    K, N = "spectral.overlap_kernel", "spectral.weighted_spectral_integral"
    m = {}
    for fn in (K, N):
        m[f"{fn}.calls"] = calls.get(fn, 0)
        m[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        m[f"{fn}.evals"] = info_sum(fn, "evals")
    quad_calls = calls.get(K, 0) + calls.get(N, 0)
    keys = {i["key"] for fn in (K, N) for i, _ in infos.get(fn, ()) if "key" in i}
    m["spectral.distinct_ratio"] = len(keys) / quad_calls if quad_calls else 0.0
    for label, want in (("displaced", True), ("cocentred", False)):
        n = count(K, lambda i: i.get("displaced") is want)
        m[f"{K}.ms_per_call.{label}"] = 1e3 * dur_sum(K, lambda i: i.get("displaced") is want) / n if n else 0.0
    m[f"{N}.ms_per_call"] = 1e3 * incl.get(N, 0.0) / calls[N] if calls.get(N) else 0.0
    MC = "spectral.brute_force_overlap_oracle"
    for w in (1, 2):
        t = dur_sum(MC, lambda i: i.get("workers") == w)
        m[f"spectral.mc.msamples_per_s.w{w}"] = info_sum(MC, "samples", lambda i: i.get("workers") == w) / t / 1e6 if t else 0.0

    m["protocols.run_spin_protocol.calls"] = calls.get("protocols.run_spin_protocol", 0)
    m["protocols.run_oscillator_protocol.calls"] = calls.get("protocols.run_oscillator_protocol", 0)
    m["protocols.separation_scaling_fit.s"] = incl.get("protocols.separation_scaling_fit", 0.0)
    m["protocols.crossover_amplitude.s"] = incl.get("protocols.crossover_amplitude", 0.0)

    m["results.run_scenario.self_s"] = self_s.get("results.run_scenario", 0.0)
    for fn in ("emit_records", "emit_frame_binary", "emit_frame_csv"):
        m[f"results.{fn}.s"] = incl.get(f"results.{fn}", 0.0)
    m["results.bytes_written"] = sum(info_sum(f"results.{fn}", "bytes")
                                     for fn in ("emit_records", "emit_frame_binary", "emit_frame_csv"))
    csv_mb = info_sum("results.emit_frame_csv", "bytes") / 1e6
    csv_s = dur_sum("results.emit_frame_csv")
    m["results.csv_mb_per_s"] = csv_mb / csv_s if csv_s else 0.0
    m["results.emit_frame_csv.s_per_mb"] = csv_s / csv_mb if csv_mb else 0.0

    F = "dynamics.energy_density_frame"
    m[f"{F}.calls"] = calls.get(F, 0)
    m[f"{F}.self_s"] = self_s.get(F, 0.0)
    n128 = count(F, lambda i: i.get("n") == 128)
    m[f"{F}.s_per_frame_n128"] = dur_sum(F, lambda i: i.get("n") == 128) / n128 if n128 else 0.0
    m["dynamics.voxels"] = info_sum(F, "voxels")
    m["dynamics.array_mb_computed"] = info_sum(F, "array_bytes") / 1e6

    m["fields.spectrum_eval.s"] = incl.get("fields.spectrum_eval", 0.0)
    P, FK = "negative_energy.packet_amplitudes", "negative_energy.fock_matrix_elements"
    m[f"{P}.calls"] = calls.get(P, 0)
    m[f"{P}.points"] = info_sum(P, "points")
    m[f"{P}.self_s"] = self_s.get(P, 0.0)
    m[f"{FK}.calls"] = calls.get(FK, 0)
    m[f"{FK}.self_s"] = self_s.get(FK, 0.0)
    m["scenario.parse_scenario.s"] = incl.get("scenario.parse_scenario", 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


COUNTS = ("calls", "evals", "points", "distinct_ratio", "voxels", "bytes_written", "array_mb_computed")


def is_count(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in COUNTS


def summarize(per_iteration: list) -> tuple:
    """Counts from the first traced iteration, times as medians; also the counts that varied."""
    first = per_iteration[0]
    out, varied = {}, []
    for name, value in first.items():
        values = [m[name] for m in per_iteration]
        if is_count(name):
            out[name] = value
            if any(v != value for v in values):
                varied.append(name)
        else:
            out[name] = statistics.median(values)
    return out, varied
