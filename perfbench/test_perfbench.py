"""Self-tests of the benchmark at a small size.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402

SMALL = W.Sizes(lambdas=(0.3, 1.2), n_T=3, fit_lam=1.2, frame_n=64, frame_times=(0.0, 1.0), csv_n=48,
                verify_samples=20_000, mc_samples=100_000)
SEED = 5


def traced_run(workload: str, work: Path):
    import qetlab.cli  # noqa: F401  (loaded before install, as in run.py)

    work.mkdir()
    wl = W.WORKLOADS[workload](work, W.make_inputs(SEED), SMALL)
    wl.load()
    out = work / "out"
    out.mkdir()
    tracer = tr.Tracer()
    tracer.iteration = 0
    tracer.install()
    try:
        res = {key: step() for key, step in wl.steps(out)}
    finally:
        tracer.uninstall()
    tally = W.Tally()
    wl.check(res, out, tally)
    return tr.iteration_metrics(tracer.spans), tally


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_count_metrics_repeat_exactly(workload, tmp_path):
    first, tally = traced_run(workload, tmp_path / "first")
    second, _ = traced_run(workload, tmp_path / "second")
    counts = {name: value for name, value in first.items() if tr.is_count(name)}
    assert counts == {name: second[name] for name in counts}
    assert sum(counts.values()) > 0
    assert tally.attempted > 0


def test_corrupted_missing_and_raising_outputs_count_as_failed(tmp_path):
    wl = W.Sweep(tmp_path, W.make_inputs(SEED), SMALL)
    wl.load()
    out = tmp_path / "out"
    out.mkdir()
    res = {key: step() for key, step in wl.steps(out)}
    clean = W.Tally()
    wl.check(res, out, clean)

    path = out / "a.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record["E_m"] *= 1.0 + 1e-6
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    res["crossover"] = W.Raised(RuntimeError("injected"))
    corrupted = W.Tally()
    wl.check(res, out, corrupted)

    assert corrupted.attempted == clean.attempted
    assert corrupted.failed == clean.failed + 2
    assert any(m.startswith("a/spin/") and "E_m" in m for m in corrupted.misses)
    assert any(m.startswith("crossover") and "injected" in m for m in corrupted.misses)

    (out / "b.jsonl").unlink()
    missing = W.Tally()
    wl.check(res, out, missing)
    b_records = sum(1 for m in missing.misses if m.startswith("b/"))
    assert b_records == 2 * len(SMALL.lambdas) * SMALL.n_T
    assert missing.failed == corrupted.failed + b_records - sum(1 for m in corrupted.misses if m.startswith("b/"))


def test_known_kernel_misses_are_apart_from_failures_and_a_wrong_kernel_fails(tmp_path):
    wl = W.Sweep(tmp_path, W.make_inputs(SEED), SMALL)
    wl.load()
    out = tmp_path / "out"
    out.mkdir()
    res = {key: step() for key, step in wl.steps(out)}
    clean = W.Tally()
    wl.check(res, out, clean)
    assert clean.failed == 0
    assert clean.known > 0
    assert all(m.startswith("b/oscillator/") and "Dawson" in m for m in clean.known_misses)

    path = out / "b.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    target = max((r for r in records if r["probe"] == "oscillator"), key=lambda r: (r["T"], r["lambda"]))
    target["eta_prime"] += 1e-7  # beyond overlap_kernel's stated max(1e-8, 1e-6 |K|)
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    corrupted = W.Tally()
    wl.check(res, out, corrupted)
    assert corrupted.failed == 1
    assert corrupted.known == clean.known - 1
    assert corrupted.misses[0].startswith(f"b/oscillator/lambda={target['lambda']}/T={target['T']}")
