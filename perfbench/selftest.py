"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size through the benchmark's own timed and
   traced paths and requires both to pass, with every metric that
   BENCHMARK.json names, under its unit.
2. Proves that each oracle check rejects a wrong answer: extinction times
   shifted by ln 2 / lambda, the constant times 1.01, the ODE curves moved
   by 1e-6 and the Monte Carlo curves moved by 0.05.
3. Runs the benchmark in a directory without the program and requires a
   nonzero exit with no result line.

Exits 0 when all of it holds.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import oracles
import run
from workloads import WORKLOADS, read_csv

SEED = 7

# experiment keys overridden for the tiny runs, and the tiny run_batch slice
TINY = {
    "gumbel_lf_mixed": ({"z": {"1": 40, "3": 20}, "replicates": 200}, ({1: 40, 3: 20}, 20, None)),
    "survival_poisson": ({"replicates": 2000, "K": 30}, ({3: 1}, 500, 10.0)),
    "constant_lf": ({"K": 2, "solver_tol": 1e-8}, None),
}


def tiny(name: str):
    overrides, batch_slice = TINY[name]
    w = WORKLOADS[name]
    config = {**w.config, "experiment": {**w.config["experiment"], **overrides}}
    return dataclasses.replace(w, config=config, batch_slice=batch_slice)


def rewrite_csv(path, column: str, fn) -> None:
    """Apply fn to one numeric column of an artifact CSV, comments kept."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    header, rows = read_csv(path)
    i = header.index(column)
    for r in rows:
        r[i] = f"{fn(float(r[i])):.17g}"
    body = [",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(comments + body) + "\n", encoding="utf-8")


def mutate_gumbel(out, config) -> None:
    model = config["model"]
    lam = oracles.decay_rate(model["beta"], model["rho"], model["offspring"]["probs"])
    rewrite_csv(out / "extinction_times.csv", "T", lambda t: t + math.log(2.0) / lam)


def mutate_constant(out, config) -> None:
    path = out / "constant.json"
    report = json.loads(path.read_text())
    report["c_hat"] *= 1.01
    path.write_text(json.dumps(report))


# (workload, artifact mutation, sub-check that must fail)
MUTATIONS = [
    ("gumbel_lf_mixed", mutate_gumbel, "ks_exact_law"),
    ("constant_lf", mutate_constant, "c_hat_oracle"),
    ("survival_poisson", lambda out, _: rewrite_csv(out / "survival_ode.csv", "q", lambda q: q + 1e-6), "ode_vs_radau"),
    ("survival_poisson", lambda out, _: rewrite_csv(out / "survival_mc.csv", "q", lambda q: q + 0.05), "mc_band"),
]


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        raise SystemExit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
        and {w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
        "BENCHMARK.json names the metrics and workloads that run.py reports",
    )
    base = run.RUNS / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name in WORKLOADS:
            w = tiny(name)
            run_dir = base / name
            run_dir.mkdir(parents=True)
            config_path = run_dir / "config.json"
            config_path.write_text(json.dumps(w.config))
            for mode, res in (
                ("timed", run.timed(w, config_path, SEED, 0.0, run_dir)),
                ("traced", run.traced(w, config_path, SEED, run_dir)),
            ):
                units = run.PER_LAYER_UNITS if mode == "traced" else run.END_TO_END_UNITS
                expect(
                    res["correct"]
                    and res["failed"] == 0
                    and {k: v["unit"] for k, v in res["metrics"].items()} == units,
                    f"{name} {mode} at tiny size: {json.dumps(res)[:160]}...",
                )

        for name, mutate, sub_check in MUTATIONS:
            w = tiny(name)
            clean = base / name / "round0"
            expect(not w.check(clean, w.config).failures, f"{name}: clean artifacts pass")
            wrong = base / name / f"wrong-{sub_check}"
            shutil.copytree(clean, wrong)
            mutate(wrong, w.config)
            failures = w.check(wrong, w.config).failures
            expect(sub_check in failures, f"{name}: {sub_check} rejects ({failures.get(sub_check)})")

        bare = base / "bare"
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "gumbel_lf_mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(
            proc.returncode != 0 and not proc.stdout.strip(),
            f"without the program: exit {proc.returncode}, no result",
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
