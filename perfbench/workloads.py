"""Seeded inputs, one timed iteration, and the output checks of each workload.

Every input comes from `make_inputs(seed)`: the same seed gives the same
scenario YAMLs and mode sets, and the program sees only those files.  An
iteration calls the public CLI (`qetlab.cli.main`) and public functions
through their module attributes, so a tracer that rebinds those attributes
sees every call.  Checks compare the outputs with `reference` (which never
calls qetlab) and run outside the timed region.  A check that misses or
raises counts as one failed operation and never aborts the run.  A known
miss (see `KnownMiss`) is counted and printed apart from the failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import reference as ref


@dataclass(frozen=True)
class Sizes:
    lambdas: tuple = (0.15, 0.3, 0.6, 1.2)  # straddles lambda_c ~ 0.31 for unit amplitude
    n_T: int = 6
    T_max: float = 400.0
    fit_lam: float = 0.6
    frame_n: int = 128
    frame_times: tuple = (0.0, 4.0, 8.0)
    csv_n: int = 96
    verify_samples: int = 1_000_000
    mc_samples: int = 2_000_000
    mc_workers: tuple = (1, 2)


FULL = Sizes()

# Tolerances fixed from what each routine states, not from observed errors.
NORM_RTOL = 1.5e-8  # QUADPACK's default requested relative accuracy
KERNEL_RTOL = 1e-6  # the relative gate overlap_kernel states
KERNEL_ATOL = 1e-8  # overlap_kernel's default err_tol: it accepts an error up to max(KERNEL_ATOL, KERNEL_RTOL |K|)
IDENTITY_RTOL = 1e-12  # exact algebraic identities evaluated in float64
ENERGY_RTOL = 1e-3  # frame energy conservation (acceptance criterion 08)
DENSITY_RTOL = 1e-9  # t=0 density vs closed form, relative to its maximum
WICK_RTOL = 1e-10  # Wick vs Fock (acceptance criterion 10)
MC_SIGMAS = 3.0
# Pair shapes, name -> (sigma, centre offset, axis) in the pair's own frame.
# The shape (separation, widths, axis angles) sets the work, from quadrature
# node counts to which K(T) points miss, so it is fixed: a seed moves each
# pair rigidly, with a random rotation and centre, and never changes the work.
PAIR_A_SHAPE = {  # displaced and tilted
    "a_m": (1.1, np.zeros(3), np.array([math.sin(0.9), 0.0, math.cos(0.9)])),
    "f_o": (0.9, np.array([0.0, 0.0, 1.5]), np.array([0.0, math.sin(2.1), math.cos(2.1)])),
}
PAIR_B_SHAPE = {  # co-centred, unequal widths
    "a_m": (1.3, np.zeros(3), np.array([0.0, 0.0, 1.0])),
    "f_o": (1.0, np.zeros(3), np.array([math.sin(0.6), 0.0, math.cos(0.6)])),
}
FRAME_SIGMA = 1.0
DEMO_POINTS = np.column_stack([np.linspace(-4.0, 4.0, 41), np.zeros(41), np.zeros(41)])


# ---------------------------------------------------------------- inputs


def _r(x) -> float:
    return round(float(x), 6)


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _field(rng, sigma: float) -> dict:
    return {"amplitude": 1.0, "sigma": sigma, "center": [_r(c) for c in rng.uniform(-1.0, 1.0, 3)],
            "axis": [_r(c) for c in _unit(rng)]}


def _unit4(rng) -> np.ndarray:
    v = rng.normal(size=4)
    return v / np.linalg.norm(v)


def _rotation(q) -> np.ndarray:
    """Rotation matrix of the unit quaternion q (uniform over rotations for a uniform q)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _rigid(rng, shape: dict) -> dict:
    """The pair `shape` turned by a random rotation and moved to a random centre in [-1, 1]^3."""
    rot = _rotation(_unit4(rng))
    origin = rng.uniform(-1.0, 1.0, 3)
    return {name: {"amplitude": 1.0, "sigma": sigma, "center": [_r(c) for c in origin + rot @ offset],
                   "axis": [_r(c) for c in rot @ axis]}
            for name, (sigma, offset, axis) in shape.items()}


def _cos_axes(f: dict, a: dict) -> float:
    nf = np.asarray(f["axis"]) / np.linalg.norm(f["axis"])
    na = np.asarray(a["axis"]) / np.linalg.norm(a["axis"])
    return float(nf @ na)


def _dist(f: dict, a: dict) -> float:
    return float(np.linalg.norm(np.asarray(f["center"]) - np.asarray(a["center"])))


def _T_grid(f: dict, a: dict, sizes: Sizes) -> list:
    floor = _dist(f, a) + 3.0 * (f["sigma"] + a["sigma"])  # the scenario's causal floor
    return [_r(T) for T in np.geomspace(1.2 * floor, sizes.T_max, sizes.n_T)]


def _half_extent(field: dict, t_max: float) -> float:
    """Box half extent holding the light shell at t_max with a tail margin."""
    s = field["sigma"]
    return _r(1.15 * (t_max + ref.R_EFF_PER_SIGMA * s + 2.0 * s))


def make_inputs(seed: int) -> dict:
    """All seeded parameters; each workload writes only the files it needs."""
    rng = np.random.default_rng(seed)
    pair_a = _rigid(rng, PAIR_A_SHAPE)
    pair_b = _rigid(rng, PAIR_B_SHAPE)
    frame_field = _field(rng, sigma=FRAME_SIGMA)
    mode_sets = []
    for n_modes in (1, 2, 3):
        modes = []
        for _ in range(n_modes):
            k = rng.normal(size=3)
            while np.linalg.norm(k) < 0.3:
                k = rng.normal(size=3)
            pol = np.cross(k, rng.normal(size=3))
            modes.append({"k": k.tolist(), "polarization": (pol / np.linalg.norm(pol)).tolist(),
                          "volume": float(rng.uniform(0.5, 3.0))})
        c = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        c /= np.linalg.norm(c)
        mode_sets.append({"modes": modes, "coeffs": [[z.real, z.imag] for z in c]})
    return {"seed": seed, "pair_a": pair_a, "pair_b": pair_b,
            "frame_field": frame_field, "mode_sets": mode_sets}


def _write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    return path


# ---------------------------------------------------------------- calls


def cli(argv: list) -> tuple:
    """`qetlab.cli.main(argv)` with its output captured; returns (exit code, text)."""
    from qetlab import cli as qcli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = qcli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc(file=buf)
            rc = -1
    return rc, buf.getvalue()


class Raised:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def call(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return Raised(exc)


class KnownMiss(str):
    """Why an output misses a stricter gate than the program states while meeting the one it states.

    The co-centred K(T) points at large T miss the 1e-6 relative gate but stay
    within overlap_kernel's own max(1e-8, 1e-6 |K|) (ROADMAP aim 3: error gates
    relative to the value).  Such a point is counted and printed on every run,
    apart from the failed operations; a point outside the stated gate fails.
    """


class Tally:
    """Counts checked outputs; a miss or a raise is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []
        self.known = 0
        self.known_misses: list[str] = []

    def op(self, name: str, check, *args) -> None:
        """`check(*args)` returns None when the output is right, else why not."""
        self.attempted += 1
        try:
            why = check(*args)
        except Exception as exc:
            why = f"check raised {type(exc).__name__}: {exc}"
        if isinstance(why, KnownMiss):
            self.known += 1
            self.known_misses.append(f"{name}: {why}")
        elif why is not None:
            self.failed += 1
            self.misses.append(f"{name}: {why}")


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


class Workload:
    """What the clock needs to know of a workload's steps."""

    max_threads = 1  # the most threads any step runs on

    def threads(self, key: str) -> int:
        """Threads the step `key` runs on."""
        return 1


# ---------------------------------------------------------------- sweep


class Sweep(Workload):
    """`teleport` on a displaced/tilted pair (a) and a co-centred pair (b), plus pair (a)'s scaling study."""

    name = "sweep"

    def __init__(self, work: Path, inputs: dict, sizes: Sizes = FULL):
        self.sizes = sizes
        self.pairs = {"a": inputs["pair_a"], "b": inputs["pair_b"]}
        self.T = {k: _T_grid(p["f_o"], p["a_m"], sizes) for k, p in self.pairs.items()}
        self.paths = {}
        for key, pair in self.pairs.items():
            self.paths[key] = _write_yaml(work / f"sweep_{key}.yaml", {
                "seed": inputs["seed"], "probe": "both", "T": self.T[key],
                "lambda": list(sizes.lambdas), "fields": dict(pair),
                "output": {"results": f"{key}.jsonl"},
            })

    def load(self) -> None:
        from qetlab import scenario

        self.scenario_a = scenario.parse_scenario(self.paths["a"])
        scenario.parse_scenario(self.paths["b"])

    def records_per_iteration(self) -> int:
        return 2 * 2 * len(self.sizes.lambdas) * self.sizes.n_T

    def steps(self, out: Path) -> list:
        from qetlab import protocols

        sa = self.scenario_a
        cfg = call(protocols.ProtocolConfig, a_m=sa.a_m, f_o=sa.f_o, T=sa.T_list[0], lam=self.sizes.fit_lam)
        steps = [(key, lambda p=p: cli(["teleport", "--scenario", str(p), "--out", str(out)]))
                 for key, p in self.paths.items()]
        steps += [(f"fit_{q}", lambda q=q: call(protocols.separation_scaling_fit, cfg, sa.T_list, q))
                  for q in ("kernel", "spin", "oscillator")]
        return steps + [("crossover", lambda: call(protocols.crossover_amplitude, cfg))]

    def check(self, res: dict, out: Path, tally: Tally) -> None:
        recs = {}
        for key in self.pairs:
            rc, text = res[key]
            by_point = {}
            if rc == 0:
                try:
                    for line in (out / f"{key}.jsonl").read_text(encoding="utf-8").splitlines():
                        r = json.loads(line)
                        by_point[(r["probe"], r["lambda"], r["T"])] = r
                except (OSError, ValueError, KeyError) as exc:
                    rc, text = "ok but unreadable", f"{type(exc).__name__}: {exc}"
            recs[key] = by_point
            for probe in ("spin", "oscillator"):
                for lam in self.sizes.lambdas:
                    for T in self.T[key]:
                        tally.op(f"{key}/{probe}/lambda={lam}/T={T}", self._check_record,
                                 key, by_point, probe, lam, T, rc, text)
        for q in ("kernel", "spin", "oscillator"):
            tally.op(f"fit/{q}", self._check_fit, res[f"fit_{q}"], recs["a"], q)
        tally.op("crossover", self._check_crossover, res["crossover"])

    def _check_record(self, key, by_point, probe, lam, T, rc, text):
        if rc != 0:
            return f"teleport exit {rc}: {text.strip().splitlines()[-1:]}"
        r = by_point.get((probe, lam, T))
        if r is None:
            return "record missing"
        a, f = self.pairs[key]["a_m"], self.pairs[key]["f_o"]
        E_m = lam * lam * ref.input_energy(a["amplitude"], a["sigma"])
        I1 = lam * lam * ref.weighted_norm(a["amplitude"], a["sigma"], 1)
        xi = ref.weighted_norm(f["amplitude"], f["sigma"], 0)
        D_ho = 1.0 / (1.0 + math.pi**2 / 4.0 + 2.0 * I1)
        if _rel(r["E_m"], E_m) > NORM_RTOL:
            return f"E_m {r['E_m']!r} vs {E_m!r}"
        if _rel(r["xi"], xi) > NORM_RTOL:
            return f"xi {r['xi']!r} vs {xi!r}"
        if abs(math.log(r["D_q"]) + 2.0 * I1) > NORM_RTOL * 2.0 * I1:
            return f"D_q {r['D_q']!r} vs exp(-2 I1) {math.exp(-2.0 * I1)!r}"
        if _rel(r["D_ho"], D_ho) > NORM_RTOL:
            return f"D_ho {r['D_ho']!r} vs {D_ho!r}"
        if r["ratio"] is None or _rel(r["ratio"], r["D_ho"] / r["D_q"]) > IDENTITY_RTOL:
            return f"ratio {r['ratio']!r} vs D_ho/D_q"
        E = r["E_o"] if probe == "spin" else r["E_o_prime"]
        if not (E < 0.0 and abs(E) < r["E_m"]):
            return f"teleported energy {E!r} not in (-E_m, 0)"
        other = by_point.get(("oscillator" if probe == "spin" else "spin", lam, T))
        if other is None:
            return "partner record missing"
        spin, osc = (r, other) if probe == "spin" else (other, r)
        if _rel(osc["E_o_prime"] / spin["E_o"], r["ratio"]) > IDENTITY_RTOL:
            return f"E_o'/E_o {osc['E_o_prime'] / spin['E_o']!r} vs ratio {r['ratio']!r}"
        if key == "b" and probe == "oscillator":
            K = ref.cocentred_kernel(T, f["amplitude"], f["sigma"], lam * a["amplitude"], a["sigma"],
                                     _cos_axes(f, a))
            err = abs(2.0 * r["eta_prime"] - K)
            why = f"K = 2 eta' {2.0 * r['eta_prime']!r} vs Dawson {K!r} (abs {err:.2e}, rel {_rel(2.0 * r['eta_prime'], K):.2e})"
            if err > max(KERNEL_ATOL, KERNEL_RTOL * abs(K)):
                return why
            if err > KERNEL_RTOL * abs(K):
                return KnownMiss(why)
        return None

    def _check_fit(self, fit, recs, q):
        if isinstance(fit, Raised):
            return fit.text
        lam = self.sizes.fit_lam
        if q == "kernel":
            vals = [abs(2.0 * recs[("oscillator", lam, T)]["eta_prime"]) for T in self.T["a"]]
        elif q == "spin":
            vals = [abs(recs[("spin", lam, T)]["E_o"]) for T in self.T["a"]]
        else:
            vals = [abs(recs[("oscillator", lam, T)]["E_o_prime"]) for T in self.T["a"]]
        slope, intercept = np.polyfit(np.log(self.T["a"]), np.log(vals), 1)
        if fit.n_used != len(vals) or fit.n_dropped != 0:
            return f"used {fit.n_used}, dropped {fit.n_dropped} of {len(vals)}"
        if abs(fit.slope - slope) > 1e-9 * max(1.0, abs(slope)) or abs(fit.intercept - intercept) > 1e-9 * max(
            1.0, abs(intercept)
        ):
            return f"fit ({fit.slope!r}, {fit.intercept!r}) vs records ({slope!r}, {intercept!r})"
        return None

    def _check_crossover(self, lam_c):
        if isinstance(lam_c, Raised):
            return lam_c.text
        a = self.pairs["a"]["a_m"]
        expected = ref.crossover_amplitude(ref.weighted_norm(a["amplitude"], a["sigma"], 1))
        if _rel(lam_c, expected) > NORM_RTOL:
            return f"lambda_c {lam_c!r} vs {expected!r}"
        return None


# ---------------------------------------------------------------- frames


class Frames(Workload):
    """`density` as binary frames at n=128, t in {0,4,8}, then as CSV at n=96, t=0."""

    name = "frames"

    def __init__(self, work: Path, inputs: dict, sizes: Sizes = FULL):
        self.sizes = sizes
        self.field = fld = inputs["frame_field"]
        self.grids = {"bin": (sizes.frame_n, _half_extent(fld, max(sizes.frame_times)), sizes.frame_times),
                      "csv": (sizes.csv_n, _half_extent(fld, 0.0), (0.0,))}
        self.paths = {}
        for fmt, (n, half, times) in self.grids.items():
            self.paths[fmt] = _write_yaml(work / f"frames_{fmt}.yaml", {
                "seed": inputs["seed"], "probe": "both", "T": 12.0, "lambda": 1.0,
                "fields": {"a_m": fld}, "grid": {"n": n, "half_extent": half},
                "times": list(times), "output": {"frames_prefix": fmt},
            })
        self._verdicts = {}  # (file digest, fmt, t) -> verdict; the program's outputs are deterministic

    def load(self) -> None:
        from qetlab import scenario

        for p in self.paths.values():
            scenario.parse_scenario(p)

    def voxels_per_iteration(self) -> int:
        return sum(n**3 * len(times) for n, _, times in self.grids.values())

    def steps(self, out: Path) -> list:
        return [(fmt, lambda p=p, fmt=fmt: cli(["density", "--scenario", str(p), "--out", str(out), "--format",
                                                {"bin": "binary", "csv": "csv"}[fmt]]))
                for fmt, p in self.paths.items()]

    def check(self, res: dict, out: Path, tally: Tally) -> None:
        for fmt, (n, half, times) in self.grids.items():
            for t in times:
                tally.op(f"{fmt}/t={t:g}", self._check_frame, fmt, n, half, t, res[fmt], out)

    def _check_frame(self, fmt, n, half, t, result, out):
        """Full check of a file not seen before; a byte-identical repeat gets the same verdict."""
        rc, text = result
        if rc != 0:
            return f"density exit {rc}: {text.strip().splitlines()[-1:]}"
        path = out / f"{fmt}_t{t:g}.{fmt}"
        key = (hashlib.sha256(path.read_bytes()).hexdigest(), fmt, t)
        if key not in self._verdicts:
            self._verdicts[key] = self._check_file(path, fmt, n, half, t)
        return self._verdicts[key]

    def _check_file(self, path, fmt, n, half, t):
        from qetlab import results

        dx = 2.0 * half / n
        if fmt == "bin":
            frame = results.load_frame_binary(path)
            origin = np.asarray(self.field["center"]) - half
            if frame["n"] != n or frame["t"] != t or abs(frame["dx"] - dx) > 1e-12 * dx:
                return f"header (n={frame['n']}, t={frame['t']}, dx={frame['dx']}) vs ({n}, {t}, {dx})"
            if np.max(np.abs(np.asarray(frame["origin"]) - origin)) > 1e-12 * half:
                return f"origin {frame['origin']} vs {origin.tolist()}"
            eps = frame["eps"]
        else:
            t_read, flat = results.load_frame_csv(path)
            if t_read != t or flat.size != n**3:
                return f"csv holds t={t_read}, {flat.size} values; expected t={t}, {n**3}"
            eps = flat.reshape(n, n, n)
        E_m = ref.input_energy(self.field["amplitude"], self.field["sigma"])
        total = float(np.sum(eps)) * dx**3
        if abs(total - E_m) > ENERGY_RTOL * E_m:
            return f"total energy {total!r} vs E_m {E_m!r}"
        if t == 0.0:
            c = self.field["center"]
            axes = [c[i] - half + dx * np.arange(n) for i in range(3)]
            expected = ref.energy_density_t0(self.field["amplitude"], self.field["sigma"], c,
                                             self.field["axis"], *axes)
            worst = float(np.max(np.abs(eps - expected)))
            if worst > DENSITY_RTOL * float(np.max(expected)):
                return f"t=0 density off the closed form by {worst:.3e} (max {np.max(expected):.3e})"
        return None


# ---------------------------------------------------------------- oracles


class Oracles(Workload):
    """`verify`, `demo negative-energy`, the Monte Carlo K(T) oracle at 1 and 2 workers, Wick vs Fock."""

    name = "oracles"

    def __init__(self, work: Path, inputs: dict, sizes: Sizes = FULL):
        self.sizes = sizes
        self.seed = inputs["seed"]
        pair = inputs["pair_a"]
        f, a = pair["f_o"], pair["a_m"]
        # MC needs every sampled pair strictly inside the light cone
        wait = ref.R_EFF_PER_SIGMA * (f["sigma"] + a["sigma"]) + _dist(f, a) + max(f["sigma"], a["sigma"])
        self.T = _r(1.2 * wait)
        nproc = len(os.sched_getaffinity(0))
        self.workers = tuple(min(w, nproc) for w in sizes.mc_workers)  # never more threads than cores
        self.max_threads = max(self.workers)
        self.path = _write_yaml(work / "oracles.yaml", {
            "seed": self.seed, "probe": "both", "T": [self.T], "fields": dict(pair)})
        self.modes_path = work / "mode_sets.json"
        self.modes_path.write_text(json.dumps(inputs["mode_sets"]), encoding="utf-8")

    def load(self) -> None:
        from qetlab import negative_energy, scenario

        self.scenario = scenario.parse_scenario(self.path)
        self.mode_sets = []
        for spec in json.loads(self.modes_path.read_text(encoding="utf-8")):
            modes = tuple(negative_energy.PlaneWaveMode(k=tuple(m["k"]), polarization=tuple(m["polarization"]),
                                                        volume=m["volume"]) for m in spec["modes"])
            self.mode_sets.append(negative_energy.DiscreteModeSet(
                modes=modes, coeffs=tuple(complex(re, im) for re, im in spec["coeffs"])))
        self._K = None

    def threads(self, key: str) -> int:
        return int(key.removeprefix("mc_w")) if key.startswith("mc_w") else 1

    def steps(self, out: Path) -> list:
        from qetlab import negative_energy, spectral

        sc = self.scenario

        def mc(workers):
            return call(spectral.brute_force_overlap_oracle, sc.f_o, sc.a_m, self.T,
                        samples=self.sizes.mc_samples, seed=self.seed, workers=workers)

        def wick_fock():
            return [(call(ms.wick_matrix_elements, x), call(negative_energy.fock_matrix_elements, ms, x))
                    for ms in self.mode_sets for x in DEMO_POINTS]

        return [
            ("verify", lambda: cli(["verify", "--mc-samples", str(self.sizes.verify_samples)])),
            ("demo", lambda: cli(["demo", "negative-energy", "--out", str(out)])),
        ] + [(f"mc_w{w}", lambda w=w: mc(w)) for w in self.workers] + [("wick_fock", wick_fock)]

    def check(self, res: dict, out: Path, tally: Tally) -> None:
        tally.op("verify", self._check_exit, res["verify"])
        rows = None
        if res["demo"][0] == 0:
            try:
                rows = np.loadtxt(out / "negative_energy_demo.csv", delimiter=",", skiprows=1, ndmin=2)
            except (OSError, ValueError) as exc:
                res["demo"] = ("ok but unreadable", f"{type(exc).__name__}: {exc}")
        tally.op("demo/minimum", self._check_demo_min, rows, res["demo"])
        for i in range(len(DEMO_POINTS)):
            tally.op(f"demo/row{i}", self._check_demo_row, rows, i)
        mcs = [res[f"mc_w{w}"] for w in self.workers]
        tally.op("mc/worker-invariance", self._check_mc_identical, mcs)
        tally.op("mc/vs-quadrature", self._check_mc_vs_K, mcs[0])
        for j, (w, fk) in enumerate(res["wick_fock"]):
            tally.op(f"wick-fock/{j}", self._check_wick, w, fk)

    @staticmethod
    def _check_exit(result):
        rc, text = result
        return None if rc == 0 else f"exit {rc}: {text.strip().splitlines()[-3:]}"

    def _check_demo_min(self, rows, result):
        if rows is None:
            return self._check_exit(result)
        if rows.shape != (len(DEMO_POINTS), 7):
            return f"demo rows shape {rows.shape}"
        return None if rows[:, 6].min() < 0.0 else f"minimum {rows[:, 6].min()!r} is not negative"

    @staticmethod
    def _check_demo_row(rows, i):
        if rows is None or i >= len(rows):
            return "row missing"
        A, B_abs, eps = rows[i, 3], math.hypot(rows[i, 4], rows[i, 5]), rows[i, 6]
        if not (A >= 0.0 and np.allclose(rows[i, :3], DEMO_POINTS[i], rtol=0.0, atol=1e-12)):
            return f"row {rows[i, :4].tolist()}"
        expected = ref.optimal_energy(A, B_abs)
        return None if abs(eps - expected) <= IDENTITY_RTOL * max(A, B_abs, 1.0) else f"eps_min {eps!r} vs {expected!r}"

    @staticmethod
    def _check_mc_identical(mcs):
        bad = [m.text for m in mcs if isinstance(m, Raised)]
        if bad:
            return "; ".join(bad)
        first = mcs[0]
        for m in mcs[1:]:
            if (m.value, m.estimated_error) != (first.value, first.estimated_error):
                return f"{m.value!r} +- {m.estimated_error!r} vs {first.value!r} +- {first.estimated_error!r}"
        return None

    def _check_mc_vs_K(self, mc):
        if isinstance(mc, Raised):
            return mc.text
        if self._K is None:
            from qetlab import spectral

            sc = self.scenario
            self._K = spectral.overlap_kernel(sc.f_o.spectrum(), sc.a_m.spectrum(), self.T).value
        if abs(self._K - mc.value) > MC_SIGMAS * mc.estimated_error:
            return f"K {self._K!r} vs MC {mc.value!r} +- {mc.estimated_error!r}"
        return None

    @staticmethod
    def _check_wick(w, fk):
        for r in (w, fk):
            if isinstance(r, Raised):
                return r.text
        (Aw, Bw), (Af, Bf) = w, fk
        scale = max(abs(Aw), abs(Bw), 1.0)
        if abs(Aw - Af) > WICK_RTOL * scale or abs(Bw - Bf) > WICK_RTOL * scale:
            return f"Wick ({Aw!r}, {Bw!r}) vs Fock ({Af!r}, {Bf!r})"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Frames, Oracles)}
