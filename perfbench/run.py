"""sporesim benchmark: experiment workloads run end to end through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the program is imported from src/).
Every experiment run is a fresh `python3 perfbench/child.py run ...`
process calling sporesim.cli.main(["run", ...]) with --threads 1 on the
workload's config and --seed N.

--trace 0 times whole runs, at least two and until S seconds have passed,
after measuring set-up (a fresh interpreter importing sporesim and parsing
the config) several times.  The first successful run's artifacts are
checked against the oracles in oracles.py; every other run must reproduce
them byte for byte.  Prints the end-to-end metrics as medians.

--trace 1 runs the workload three times: plain, at --threads 2, and traced
(trace.py).  The plain run is checked against the oracles and the other two
must reproduce its artifacts byte for byte.  Prints the per-layer metrics
derived from the traced run's spans.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A run fails on a nonzero exit or a failed check; `correct` is
false when a run that exited 0 failed a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUNS = ROOT / ".bench_runs"
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "simulator.run_batch_s": "s",
    "simulator.ns_per_event": "ns",
    "simulator.us_per_replicate": "us",
    "simulator.replicates_per_s": "1/s",
    "simulator.events": "count",
    "simulator.peak_hosts_max": "count",
    "simulator.budget_used_max": "ratio",
    "simulator.thread_speedup_2": "ratio",
    "model.sample_offspring_ns": "ns",
    "analytic.time_s": "s",
    "analytic.grid_points": "count",
    "analytic.max_abs_err": "prob",
    "analytic.c_hat_abs_err": "abs",
    "stats.self_s": "s",
    "cli.import_s": "s",
    "cli.parse_config_ms": "ms",
    "cli.emit_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )


def run_cli(config: Path, seed: int, out: Path, threads: int) -> dict:
    """One experiment run through the CLI; {"rc", "wall_s", "maxrss_kb"},
    or {"rc", "error"} when the process failed."""
    proc = run_child(
        [BENCH / "child.py", "run", "--config", config, "--seed", seed,
         "--out-dir", out, "--threads", threads]
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        rec = json.loads(lines[-1])
        if rec["rc"] == 0:
            return rec
        return {"rc": rec["rc"], "error": proc.stderr.strip()[-500:]}
    return {"rc": proc.returncode, "error": proc.stderr.strip()[-500:]}


def measure_setup(config: Path) -> float:
    """Median time from starting an interpreter to a parsed config."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = run_child([BENCH / "child.py", "parse", config])
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"config does not parse: {proc.stderr.strip()[-500:]}")
        if i:  # the first start fills the bytecode caches
            samples.append(elapsed)
    return statistics.median(samples)


def digest(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
    }


class Verifier:
    """Checks runs of one workload: the first run that exits 0 against the
    oracles, every later one by byte identity with it."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[str, str] | None = None
        self.verdict = None
        self.failed = 0
        self.correct = True

    def __call__(self, label: str, out: Path, rec: dict) -> None:
        if rec["rc"] != 0:
            problems = [f"exit {rec['rc']}: {rec.get('error', '')}"]
        elif self.reference is None:
            try:
                self.verdict = self.workload.check(out, self.workload.config)
                problems = [f"{k}: {v}" for k, v in self.verdict.failures.items()]
            except (OSError, ValueError, KeyError, IndexError, RuntimeError) as e:
                problems = [f"unreadable artifacts: {e!r}"]
            self.reference = digest(out)
        elif digest(out) != self.reference:
            problems = ["artifacts differ from the checked run"]
        else:
            problems = []
        if problems:
            self.failed += 1
            self.correct &= rec["rc"] != 0
            for p in problems:
                log(f"FAIL {label}: {p}")


def timed(workload, config_path: Path, seed: int, seconds: float, run_dir: Path) -> dict:
    setup_s = measure_setup(config_path)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        out = run_dir / f"round{len(rounds)}"
        rounds.append((out, run_cli(config_path, seed, out, threads=1)))

    verify = Verifier(workload)
    for i, (out, rec) in enumerate(rounds):
        verify(f"round {i}", out, rec)
    ok = [rec for _, rec in rounds if rec["rc"] == 0]
    if not ok:
        raise RuntimeError("no experiment run succeeded")
    walls = [rec["wall_s"] for rec in ok]
    log(f"{workload.name}: wall_s {['%.3f' % w for w in walls]}, setup_s {setup_s:.4f}")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rec["maxrss_kb"] / 1024.0 for rec in ok),
    }
    return result(verify, len(rounds), values, END_TO_END_UNITS)


def traced(workload, config_path: Path, seed: int, run_dir: Path) -> dict:
    verify = Verifier(workload)
    plain = run_cli(config_path, seed, run_dir / "plain", threads=1)
    verify("plain", run_dir / "plain", plain)
    verify("threads 2", run_dir / "threads2", run_cli(config_path, seed, run_dir / "threads2", threads=2))

    trace_file = RUNS / "traces" / f"{workload.name}-seed{seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    out = run_dir / "traced"
    proc = run_child(
        [BENCH / "trace.py", "--config", config_path, "--seed", seed, "--out-dir", out,
         "--trace-file", trace_file, "--slice", json.dumps(workload.batch_slice)]
    )
    verify("traced", out, {"rc": proc.returncode, "error": proc.stderr.strip()[-500:]})
    if plain["rc"] != 0 or proc.returncode != 0 or verify.verdict is None:
        raise RuntimeError("the traced workload did not run")
    spans = json.loads(trace_file.read_text())["spans"]
    values = layer_metrics(spans, verify.verdict.errors, plain["wall_s"], out)
    log(f"{workload.name}: spans written to {trace_file.relative_to(ROOT)}")
    return result(verify, 3, values, PER_LAYER_UNITS)


def layer_metrics(spans: list[dict], errors: dict, plain_wall: float, out: Path) -> dict:
    """Per-layer numbers from the traced run's spans.  A function the
    workload never calls reads 0, as do ratios over its zero counts."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def total(*names: str) -> float:
        return sum((s["dur"] for n in names for s in by_name[n]), 0.0)

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"][key] for s in by_name[name])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    batch_s = total("simulator.run_batch")
    events = attr_sum("simulator.run_batch", "events")
    replicates = attr_sum("simulator.run_batch", "replicates")
    probe = {s["attrs"]["threads"]: s["dur"] for s in by_name["probe.run_batch"]}
    stats_self = sum(
        (
            s["dur"] - sum(c["dur"] for c in children[s["id"]] if c["name"].startswith("simulator."))
            for s in by_name["stats.gumbel_experiment"] + by_name["stats.survival_curve_mc"]
        ),
        0.0,
    )
    draws = by_name["probe.sample_offspring"][0]

    grid_points = attr_sum("analytic.solve_survival", "grid_points")
    if by_name["analytic.estimate_constant"]:
        # estimate_constant solves at K and 2K on its documented default
        # grid: spacing min(0.5, (10/a)/100) over [0, t_max]
        report = json.loads((out / "constant.json").read_text())
        dt = min(0.5, 10.0 / report["a"] / 100.0)
        t_max = report["metadata"]["config"]["experiment"]["t_max"]
        grid_points += 2 * (math.ceil(t_max / dt) + 1)

    return {
        "simulator.run_batch_s": batch_s,
        "simulator.ns_per_event": ratio(batch_s * 1e9, events),
        "simulator.us_per_replicate": ratio(batch_s * 1e6, replicates),
        "simulator.replicates_per_s": ratio(replicates, batch_s),
        "simulator.events": events,
        "simulator.peak_hosts_max": max(
            (s["attrs"]["peak_hosts_max"] for s in by_name["simulator.run_batch"]), default=0
        ),
        "simulator.budget_used_max": max(
            (s["attrs"]["budget_used_max"] for s in by_name["simulator.run_batch"]), default=0.0
        ),
        "simulator.thread_speedup_2": ratio(probe.get(1, 0.0), probe.get(2, 0.0)),
        "model.sample_offspring_ns": draws["dur"] * 1e9 / draws["attrs"]["draws"],
        "analytic.time_s": sum((s["dur"] for s in spans if s["name"].startswith("analytic.")), 0.0),
        "analytic.grid_points": grid_points,
        "analytic.max_abs_err": errors.get("max_abs_err", 0.0),
        "analytic.c_hat_abs_err": errors.get("c_hat_abs_err", 0.0),
        "stats.self_s": stats_self,
        "cli.import_s": total("cli.import"),
        "cli.parse_config_ms": total("cli.parse_config") * 1e3,
        "cli.emit_s": total("cli.emit_csv", "cli.emit_json"),
        "cli.artifact_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "trace.overhead_s": total("cli.parse_config", "cli.run_experiment") - plain_wall,
    }


def result(verify: Verifier, attempted: int, values: dict, units: dict) -> dict:
    return {
        "correct": verify.correct,
        "attempted": attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sporesim" / "cli.py").is_file():
        log(f"error: no sporesim source under {ROOT / 'src'}; run from a source tree")
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % (1 << 63)
    run_dir = RUNS / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(workload.config, indent=2) + "\n")
        if args.trace:
            res = traced(workload, config_path, seed, run_dir)
        else:
            res = timed(workload, config_path, seed, args.seconds, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
