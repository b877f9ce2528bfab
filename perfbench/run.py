"""The repository benchmark: one workload per call, timed end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-season --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 11 --seconds 30 --trace 1

Each run is single-process, single-thread, closed-loop batch work: units
of the workload run one after another until the next one would end past
``--seconds`` (at least one).  Untraced runs (``--trace 0``) report the
end-to-end metrics of BENCHMARK.json, as medians over units.  Traced runs
(``--trace 1``) alternate untraced and traced units, print the layer
table, and report the per-layer metrics.

Correctness: every unit's outputs are checked against the workload's pins
(``pins.json``), and every deterministic work counter must repeat exactly
across the units of this run and across earlier runs of the same source
tree, seed and horizon, whose records accumulate in
``perfbench/results/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed n`` picks the workload seed: a pinned seed (``pins.json``) runs
as itself, any other seed maps onto the pinned seeds by ``n mod k``, so
every seed has pinned outputs to check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKDIR = HERE / ".work"
WORKLOAD_NAMES = ("paper-season", "fleet-100k", "chaos-resume")

#: Setup-only builds before the first unit, so ``setup_s`` is a median of
#: several set-ups even when one unit fills the run.
EXTRA_SETUPS = 7

#: Per-layer metrics read from the program's own counters (not traced calls).
PROGRAM_COUNTERS = (
    "sim.events_fired",
    "sim.events_cancelled",
    "sim.heap_compactions",
    "workload.cycles",
    "plant.faults_injected",
    "plant.trips",
    "plant.hosts_shed",
    "control.actions",
    "state.checkpoint_bytes",
    "fleetscale.frames",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over the simulator sources and the benchmark itself."""
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    files += [HERE / "pins.json", ROOT / "BENCHMARK.json"]
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def workload_seed(seed: int, pinned: List[int]) -> int:
    return seed if seed in pinned else pinned[seed % len(pinned)]


def run_unit(workload, seed: int, traced: bool) -> Dict[str, Any]:
    """Set up, run (timed) and check one unit of the workload."""
    from layers import LayerTracer
    from workloads import NullTracer

    gc.collect()
    tracer = LayerTracer() if traced else NullTracer()
    tracer.install()
    try:
        started = perf_counter()
        state = workload.setup(seed, tracer)
        setup_s = perf_counter() - started
        cpu_started = process_time()
        started = perf_counter()
        out = workload.run(state, tracer)
        wall_s = perf_counter() - started
        cpu_s = process_time() - cpu_started
    finally:
        tracer.uninstall()
    info = workload.check(seed, state, out)
    unit = {
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "sim_days": info["sim_days"],
        "host_days": workload.hosts * info["sim_days"],
        "counters": info["counters"],
        "failures": info["failures"],
    }
    if traced:
        unit["layers"] = tracer.layer_metrics(wall_s)
        if unit["layers"]["sim.residual_s"] < 0.0:
            unit["failures"].append("layer self times exceed the traced wall")
        unit["calls"] = dict(sorted(tracer.calls.items()))
        unit["layer_calls"] = dict(sorted(tracer.layer_calls.items()))
    return unit


def prior_records(directory: Path, key: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Earlier correct runs with the same source tree, seed and horizon."""
    found = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if record.get("key") == key and record.get("correct"):
            found.append(record)
    return found


def check_repeats(units, prior) -> None:
    """Every counter must repeat exactly across units and earlier runs."""
    def reference(field, candidates):
        for record in prior:
            for unit in record["units"]:
                if field in unit:
                    return unit[field], "an earlier run"
        for unit in candidates:
            if field in unit:
                return unit[field], "the first unit"
        return None, ""

    for field in ("counters", "calls"):
        expected, source = reference(field, units)
        for unit in units:
            if field in unit and unit[field] != expected:
                diff = sorted(
                    k for k in set(unit[field]) | set(expected)
                    if unit[field].get(k) != expected.get(k)
                )
                unit["failures"].append(f"{field} differ from {source}: {', '.join(diff)}")


def measure(workload, seed: int, seconds: float, trace: bool, traced_first: bool):
    """Set up a few times, then run units (untraced/traced pairs when
    tracing, in alternating order) until the next round would end past
    ``seconds``."""
    from workloads import NullTracer

    started = perf_counter()
    setups = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        t0 = perf_counter()
        workload.setup(seed, NullTracer())
        setups.append(perf_counter() - t0)
    units: List[Dict[str, Any]] = []
    rounds = 0
    while True:
        if trace:
            order = (True, False) if traced_first ^ (rounds % 2 == 1) else (False, True)
        else:
            order = (False,)
        for traced in order:
            units.append(run_unit(workload, seed, traced))
        rounds += 1
        elapsed = perf_counter() - started
        if elapsed + elapsed / rounds > seconds:
            break
    return setups, units


def end_to_end(setups, units) -> Dict[str, float]:
    plain = [u for u in units if not u["traced"]]
    return {
        "setup_s": statistics.median(setups + [u["setup_s"] for u in plain]),
        "wall_s": statistics.median(u["wall_s"] for u in plain),
        "cpu_s": statistics.median(u["cpu_s"] for u in plain),
        "host_days_per_s": statistics.median(u["host_days"] / u["wall_s"] for u in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(units) -> Dict[str, float]:
    """Layer metrics averaged over the traced units (means keep the sum exact)."""
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    metrics: Dict[str, float] = {}
    for name, first in traced[0]["layers"].items():
        # Counts repeat exactly (check_repeats); times are averaged.
        metrics[name] = (
            first if isinstance(first, int)
            else statistics.fmean(u["layers"][name] for u in traced)
        )
    for name in PROGRAM_COUNTERS:
        metrics[name] = traced[0]["counters"].get(name, 0)
    metrics["trace.wall_s"] = statistics.fmean(u["wall_s"] for u in traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(u["wall_s"] for u in traced)
        / statistics.median(u["wall_s"] for u in plain)
        - 1.0
    )
    return metrics


def layer_table(metrics: Dict[str, float], units) -> str:
    """Self seconds, share of the traced wall and calls, per layer."""
    from layers import LAYER_METRICS

    traced = [u for u in units if u["traced"]]
    wall = metrics["trace.wall_s"]
    lines = [f"{'layer':<22}{'self_s':>12}{'% wall':>9}{'calls':>12}"]
    for layer, metric in LAYER_METRICS:
        value = metrics[metric]
        calls = statistics.fmean(u["layer_calls"].get(layer, 0) for u in traced)
        if value or calls:
            lines.append(f"{layer:<22}{value:>12.4f}{100 * value / wall:>8.1f}%{calls:>12.0f}")
    residual = metrics["sim.residual_s"]
    lines.append(f"{'sim (residual)':<22}{residual:>12.4f}{100 * residual / wall:>8.1f}%")
    lines.append(f"{'traced wall':<22}{wall:>12.4f}{100.0:>8.1f}%")
    lines.append(
        f"trace.overhead_frac {metrics['trace.overhead_frac']:.4f} "
        "(traced over untraced wall, minus 1)"
    )
    return "\n".join(lines)


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pins = json.loads((HERE / "pins.json").read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](pins, str(WORKDIR / f"{args.workload}-{os.getpid()}"))
    seed = workload_seed(args.seed, pins["seeds"])
    env = environment()
    key = {
        "workload": args.workload,
        "workload_seed": seed,
        "horizon": workload.horizon(seed),
        "source_sha256": env["source_sha256"],
    }
    out_dir = RESULTS / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    prior = prior_records(out_dir, key)

    setups, units = measure(
        workload, seed, args.seconds, bool(args.trace), traced_first=args.seed % 2 == 1
    )
    check_repeats(units, prior)
    if args.trace:
        values = per_layer(units)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(setups, units)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for u in units if u["failures"])
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": metrics,
    }

    record = {
        "schema": 1,
        "key": key,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "env": env,
        "setup_samples": setups,
        "units": units,
        **result,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / f"{stamp}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)

    print(f"perfbench {args.workload}: seed {args.seed} (workload seed {seed}), "
          f"horizon {key['horizon']}")
    print(f"  git {env['git_sha'] or '-'}  source {env['source_sha256'][:12]}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}")
    print(f"  units {len(units)}, failed {failed}, failed_frac {failed / len(units):.3f}"
          f"  record {path.relative_to(ROOT)}")
    for unit in units:
        for failure in unit["failures"]:
            print(f"  FAILED: {failure}")
    print("  counters: " + ", ".join(f"{k}={v}" for k, v in sorted(units[0]["counters"].items())))
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:>16.6f} {metric['unit']}")
    if args.trace:
        print(layer_table(values, units))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
