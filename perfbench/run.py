"""qetlab benchmark: one workload, one seed, one workload process (beside calibrate.py's speed samplers).

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): sweep, frames, oracles.  Each is a closed
loop with one client: an iteration starts when the previous one and its
output checks are done, and no new iteration starts unless it is expected to
finish within --seconds.  With --trace 0 the run reports the end-to-end
metrics, measured with tracing off: setup_s, the median over SETUP_RUNS
fresh processes that import qetlab, write the inputs and parse them;
wall_s, the median iteration time; peak_rss_mb after the first iteration.
Both times are seconds at the host's nominal speed (see calibrate.py).
With --trace 1 it alternates untraced and traced iterations and reports
the per-layer metrics, including the tracing overhead.  Spans of the traced iterations are written to
.perfbench_out/.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits 2 without a result when the qetlab sources are not beside perfbench/.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at the core count; must run before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def machine_block(nproc: int) -> list:
    import numpy
    import scipy

    model = l3 = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    return [f"nproc = {nproc}", f"cpu = {model}", f"l3 = {l3}",
            f"python = {platform.python_version()}", f"numpy = {numpy.__version__}",
            f"scipy = {scipy.__version__}"] + [f"{v} = {os.environ[v]}" for v in THREAD_VARS]


def setup_only(workload: str, seed: int, work: Path) -> None:
    """What every fresh process pays before its first result: import, inputs, parse."""
    import qetlab.cli  # noqa: F401
    import workloads

    work.mkdir(parents=True)
    workloads.WORKLOADS[workload](work, workloads.make_inputs(seed)).load()


def measure_setup(args, work: Path, clock) -> list:
    """(raw, nominal) seconds of SETUP_RUNS fresh processes that only set up."""
    times = []
    for i in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(work / f"setup{i}"),
               "--workload", args.workload, "--seed", str(args.seed)]
        proc, raw, nominal = clock.time(
            lambda cmd=cmd: subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed ({proc.returncode}):\n{proc.stderr}")
        times.append((raw, nominal))
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("sweep", "frames", "oracles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    pin_threads(nproc)
    if not (SRC / "qetlab" / "__init__.py").is_file():
        print(f"error: no qetlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only is not None:
        setup_only(args.workload, args.seed, args.setup_only)
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, nproc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it


def run(args, nproc: int, work: Path) -> int:
    start = time.perf_counter()
    import qetlab.cli  # noqa: F401  (the entry module; the tracer wraps what is loaded)

    import_s = time.perf_counter() - start
    import calibrate
    import tracer as tr
    import workloads

    for line in machine_block(nproc):
        print(f"machine {line}")
    wl = workloads.WORKLOADS[args.workload](work, workloads.make_inputs(args.seed))
    wl.load()

    tally = workloads.Tally()
    tracer = tr.Tracer() if args.trace else None
    with calibrate.Clock(work, wl.max_threads) as clock:
        setup = measure_setup(args, work, clock) if args.trace == 0 else []
        walls, per_iteration, peak_rss_mb = measure(wl, clock, tracer, tally, work / "out", args.seconds)

    untraced = statistics.median(n for _, n in walls[False])
    print(f"iterations untraced = {len(walls[False])}, traced = {len(walls[True])}")
    print(f"wall_s per iteration = {_fmt(n for _, n in walls[False])} (raw {_fmt(r for r, _ in walls[False])})")
    print(f"checked outputs attempted = {tally.attempted}, failed = {tally.failed}")
    for miss, times in collections.Counter(tally.misses).most_common(20):
        print(f"  miss x{times} {miss}")
    iterations = len(walls[False]) + len(walls[True])
    print(f"known misses = {tally.known} ({tally.known // iterations} per iteration): "
          "outside the 1e-6 relative gate, inside the max(1e-8, 1e-6 |K|) that overlap_kernel states")
    for miss, times in collections.Counter(tally.known_misses).most_common(20):
        print(f"  known miss x{times} {miss}")
    lines = {"ops_failed_frac": (tally.failed / tally.attempted, "fraction")}
    if args.workload == "sweep":
        lines["sweep.points_per_s"] = (wl.records_per_iteration() / untraced, "records/s")
    if args.workload == "frames":
        lines["frames.mvox_per_s"] = (wl.voxels_per_iteration() / 1e6 / untraced, "Mvoxel/s")

    if tracer is None:
        metrics = {"setup_s": (statistics.median(n for _, n in setup), "s"), "wall_s": (untraced, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        print(f"setup_s per process = {_fmt(n for _, n in setup)} (raw {_fmt(r for r, _ in setup)})")
    else:
        layer, varied = tr.summarize(per_iteration)
        if varied:
            print(f"warning: counts differ between traced iterations: {', '.join(varied)}")
        if tracer.missing:
            print(f"warning: functions not found, their metrics read 0: {', '.join(tracer.missing)}")
        traced_wall = statistics.median(n for _, n in walls[True])
        layer["spectral.overlap_kernel.rel_gate_misses"] = tally.known / iterations
        layer["import_s"] = import_s
        layer["trace.iteration_s"] = traced_wall
        layer["trace.overhead_frac"] = traced_wall / untraced - 1.0
        metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        print_baseline(metrics)
    for name, (value, unit) in {**lines, **metrics}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def measure(wl, clock, tracer, tally, out: Path, seconds: float):
    """Closed loop over iterations until the next one would end after `seconds`.

    With a tracer, iterations alternate untraced and traced.  Returns the
    (raw, nominal) seconds of each iteration keyed by traced or not, the
    per-layer metrics of each traced iteration, and the peak RSS in MB after
    the first iteration, before any output check allocates.
    """
    import tracer as tr

    walls = {False: [], True: []}
    per_iteration = []
    loop_start = time.perf_counter()
    worst_step = 0.0
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        step_start = time.perf_counter()
        res, raw, nominal = {}, 0.0, 0.0
        if traced:
            tracer.iteration = i
            tracer.install()
        try:
            for key, step in wl.steps(out):
                res[key], r, n = clock.time(step, wl.threads(key))
                raw, nominal = raw + r, nominal + n
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append((raw, nominal))
        if i == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced:
            per_iteration.append(tr.iteration_metrics([s for s in tracer.spans if s[5] == i]))
        wl.check(res, out, tally)
        now = time.perf_counter()
        worst_step = max(worst_step, now - step_start)
        i += 1
        enough = walls[False] and (walls[True] or tracer is None)
        if enough and now - loop_start + worst_step > seconds:
            break
    shutil.rmtree(out, ignore_errors=True)
    return walls, per_iteration, peak_rss_mb


def _fmt(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.startswith("spectral.mc.msamples_per_s"):
        return "Msamples/s"
    if ".ms_per_call" in name:
        return "ms"
    return {"calls": "count", "evals": "count", "points": "count", "voxels": "count", "rel_gate_misses": "count",
            "bytes_written": "bytes", "distinct_ratio": "ratio", "array_mb_computed": "MB",
            "csv_mb_per_s": "MB/s", "s_per_mb": "s/MB", "overhead_frac": "fraction"}.get(last, "s")


def print_baseline(metrics: dict) -> None:
    """The ROADMAP baseline rows, as measured by this traced run (0 where the workload does not run them)."""
    rows = (
        ("K(T) per call, displaced/tilted", "spectral.overlap_kernel.ms_per_call.displaced"),
        ("K(T) per call, co-centred", "spectral.overlap_kernel.ms_per_call.cocentred"),
        ("weighted norm per call", "spectral.weighted_spectral_integral.ms_per_call"),
        ("energy_density_frame, n=128", "dynamics.energy_density_frame.s_per_frame_n128"),
        ("emit_frame_csv per MB", "results.emit_frame_csv.s_per_mb"),
        ("MC oracle, 1 worker", "spectral.mc.msamples_per_s.w1"),
        ("MC oracle, 2 workers", "spectral.mc.msamples_per_s.w2"),
    )
    for label, name in rows:
        value, unit = metrics[name]
        print(f"baseline {label}: {value:.4g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
