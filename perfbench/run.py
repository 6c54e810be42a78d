"""spinsim benchmark: the real ``spinsim run`` path on four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run is a closed loop with one client: one fresh ``spinsim run`` process at
a time, for ``--seconds`` seconds.  Every run's artifacts are checked against
an independent reference (see workloads.py).  ``--trace 0`` reports the
end-to-end metrics, with times rescaled to a reference host speed by the
probe of hostspeed.py; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics of the traced ones.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--smoke`` runs every workload once at reduced size, traced
and untraced, and checks that every metric of BENCHMARK.json prints with
its unit.  README.md says how to compare two commits with it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import machine
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
MIN_SETUP_SAMPLES = 9
RUN_TIMEOUT_S = 120
MAX_FAILURES = 3
GATE_KINDS = ("rz", "rx", "h", "cnot")

LAYER_BUSY = (
    "backend.run",
    "trotter",
    "ir.lower",
    "optimizer",
    "qite",
    "backend.expect",
    "backend.sample",
    "ir.export",
    "oracle",
    "config",
    "observables",
)
LAYER_COUNTS = (
    "backend.run.calls",
    "backend.run.gates",
    "trotter.gates_out",
    "ir.lower.gates_out",
    "optimizer.gates_in",
    "qite.gates_out",
    "ir.export.bytes",
    "oracle.calls",
    "observables.bytes",
)


@dataclass
class Run:
    """One ``spinsim run`` process and what it reported."""

    traced: bool
    setup_s: float | None = None
    setup_wall_s: float | None = None
    record: dict = field(default_factory=dict)
    trace: dict | None = None
    error: str | None = None


def launch(workload: workloads.Workload, run_dir: Path, run_id: str, traced: bool, probe: bool = False) -> Run:
    run_dir.mkdir(parents=True)
    record_path = run_dir / "record.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(record_path)]
    if probe:
        cmd.append("--probe")
    if workload.state_probe:
        cmd += ["--state-probe", str(workload.num_spins)]
    if traced:
        cmd += ["--trace", str(run_dir / "trace.json"), run_id]
    cmd += ["--", "run", str(run_dir.parent / "input.txt"), "--out", str(run_dir / "out")]
    cmd += list(workload.flags)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("SPINSIM_OUTPUT_DIR", None)
    run = Run(traced)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        run.error = f"timed out after {RUN_TIMEOUT_S} s"
        return run
    if proc.returncode != 0 or not record_path.exists():
        run.error = f"exit {proc.returncode}: {stderr.decode(errors='replace').strip()[-2000:]}"
        return run
    run.record = json.loads(record_path.read_text(encoding="utf-8"))
    setup_probe = run.record["setup_probe"]
    run.setup_wall_s = run.record["entered"] - spawned - setup_probe["inside_s"]
    run.setup_s = hostspeed.normalize(run.record["entered"] - spawned, setup_probe)
    if not Path(run.record["spinsim"]).resolve().is_relative_to(ROOT / "src"):
        run.error = f"imported spinsim from {run.record['spinsim']}, not from this checkout"
    elif not probe and run.record["exit_code"] != 0:
        run.error = f"spinsim exited {run.record['exit_code']}: {stderr.decode(errors='replace').strip()}"
    if traced and run.error is None:
        run.trace = json.loads((run_dir / "trace.json").read_text(encoding="utf-8"))
    return run


def measure(workload: workloads.Workload, seconds: float, trace: bool, min_runs: int, min_setup: int):
    """Closed loop of fresh processes for ``seconds``; every run is checked."""
    work = WORK_DIR / f"{workload.name}-seed{workload.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "input.txt").write_text(workload.input_text(), encoding="utf-8")
    reference = workloads.reference(workload)
    # warm-up: fills bytecode and file caches, which users do not pay per run
    launch(workload, work / "warmup", "warmup", traced=False, probe=True)

    runs: list[Run] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        run_dir = work / f"run{len(runs):03d}"
        began = time.monotonic()
        run = launch(workload, run_dir, f"{workload.name}-{workload.seed}-{len(runs)}", traced)
        if run.error is None:
            try:
                run.error = workloads.check(workload, reference, run_dir / "out")
            except (OSError, ValueError, IndexError) as exc:
                run.error = f"unreadable artifacts: {exc!r}"
        shutil.rmtree(run_dir / "out", ignore_errors=True)
        if run.error is not None:
            print(f"run {len(runs)} failed: {run.error}", file=sys.stderr)
        runs.append(run)
        durations.append(time.monotonic() - began)
        done = [r for r in runs if r.error is None]
        counts_met = sum(not r.traced for r in done) >= min_runs and (
            not trace or sum(r.traced for r in done) >= min_runs
        )
        # stop before a run that would end past the window
        window_full = time.monotonic() - start + statistics.median(durations) > seconds
        if (counts_met and window_full) or len(runs) - len(done) >= MAX_FAILURES:
            break
    setup = [r for r in runs if r.setup_s is not None]
    while runs and len(setup) < min_setup:
        probe = launch(workload, work / f"probe{len(setup):03d}", "probe", traced=False, probe=True)
        if probe.setup_s is None:
            break
        setup.append(probe)
    return runs, setup


def end_to_end(runs: list[Run], setup: list[Run]) -> dict:
    plain = [r.record for r in runs if r.error is None and not r.traced]
    return {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(r.setup_s for r in setup),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer figures of one traced run, self times derived from its spans."""
    spans = trace["spans"]
    counts = trace["counts"]
    busy = dict.fromkeys(LAYER_BUSY, 0.0)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
        if name in busy and (parent is None or spans[parent][0] != name):
            busy[name] += end - start
    cli_self = sum(end - start - child_time[i] for i, (name, start, end, _) in enumerate(spans) if name == "cli")

    metrics = {f"{name}.busy_s": value for name, value in busy.items()}
    metrics.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    metrics["cli.self_s"] = cli_self
    gates_in = counts.get("optimizer.gates_in", 0)
    metrics["optimizer.kept_ratio"] = counts.get("optimizer.gates_out", 0) / gates_in if gates_in else 0.0
    steps = counts.get("qite.steps", 0)
    metrics["qite.s_per_step"] = busy["qite"] / steps if steps else 0.0
    coefficients = counts.get("qite.coefficients", 0)
    metrics["qite.zero_coeff_ratio"] = counts.get("qite.zero_coefficients", 0) / coefficients if coefficients else 0.0
    gates = trace["gates"]
    for kind in GATE_KINDS:
        count, seconds, _ = gates.get(kind, (0, 0.0, 0))
        metrics[f"backend.gate.{kind}.count"] = count
        metrics[f"backend.gate.{kind}.us"] = seconds / count * 1e6 if count else 0.0
    kernel_s = sum(g[1] for g in gates.values())
    metrics["backend.gate.gbps"] = sum(g[2] for g in gates.values()) / kernel_s / 1e9 if kernel_s else 0.0
    metrics["backend.copy_gbps"] = counts["backend.copy_gbps"]
    return metrics


def per_layer(runs: list[Run]) -> dict:
    ok = [r for r in runs if r.error is None]
    traced = [layer_metrics(r.trace) for r in ok if r.traced]
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics["trace.overhead_s"] = statistics.median(
        r.record["run_wall_s"] for r in ok if r.traced
    ) - statistics.median(r.record["run_wall_s"] for r in ok if not r.traced)
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.build(name, seed)
    min_setup = 0 if trace else MIN_SETUP_SAMPLES
    runs, setup = measure(workload, seconds, trace, min_runs=2 if trace else 3, min_setup=min_setup)
    failed = sum(r.error is not None for r in runs)
    ok_plain = [r for r in runs if r.error is None and not r.traced]
    if not ok_plain or (trace and not any(r.error is None and r.traced for r in runs)):
        print(f"error: no successful run of {name} to measure", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer" if trace else "end_to_end"]}
    values = per_layer(runs) if trace else end_to_end(runs, setup)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    sizes = {w.name: w.num_spins for w in workloads.WORKLOADS.values()}
    record = machine.record(ROOT, workload.num_spins, sizes)
    record.update(
        workload=name,
        seed=seed,
        loop="closed, one client, one spinsim process at a time",
        runs=len(runs),
        traced_runs=sum(r.traced for r in runs),
        run_s_samples=[r.record["run_s"] for r in ok_plain],
        run_wall_s_samples=[r.record["run_wall_s"] for r in ok_plain],
        setup_s_samples=[r.setup_s for r in setup],
        setup_wall_s_samples=[r.setup_wall_s for r in setup],
    )
    record["failed_frac"] = failed / len(runs)
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=2), encoding="utf-8"
    )
    for key, metric in metrics.items():
        print(f"{name} {key} {metric['value']:.6g} {metric['unit']}")
    print(f"{name} failed_frac {record['failed_frac']:.6g} ratio")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Every workload once at reduced size, traced and untraced; every metric named."""
    spec = load_spec()
    problems = []
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed=1, smoke=True)
        runs, setup = measure(workload, 0.0, trace=True, min_runs=1, min_setup=1)
        failed = [r.error for r in runs if r.error is not None]
        problems += [f"{name}: {error}" for error in failed]
        if failed:
            continue
        values = {**end_to_end(runs, setup), **per_layer(runs)}
        print(f"{name}:")
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                if metric["name"] not in values:
                    problems.append(f"{name}: metric {metric['name']} missing")
                    continue
                print(f"  {metric['name']:<28} {values[metric['name']]:>14.6g} {metric['unit']}")
        print(f"  {'failed_frac':<28} {len(failed) / len(runs):>14.6g} ratio")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, help="measuring window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinsim" / "cli.py").is_file():
        print(f"error: no spinsim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    return benchmark(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
