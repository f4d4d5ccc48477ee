"""The benchmark's workloads: the config each one hands to the program, and
the checks its artifacts must pass against the independent oracles.

A check returns a `Verdict`: the names of the sub-checks that failed (with a
reason each) and the achieved errors, which the traced run reports as the
analytic layer's accuracy.  Sub-checks have stable names so that the self
test can prove that each one rejects a wrong answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

LF_MODEL = {"beta": 1.0, "rho": 0.0, "offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]}}
POISSON_MODEL = {"beta": 0.5, "rho": 1.0, "offspring": {"kind": "poisson", "param": 2.0}}

# one-sample KS level: the exact-law test rejects a correct engine with
# probability 1e-4 per seed
KS_ALPHA = 1e-4
# 95% Wilson half-widths widened 3x: at 5e4 replicates, the exact binomial
# probability that a correct engine leaves the band, summed over the 3 x 401
# grid points of survival_poisson at their reference q, is 5e-5 per seed
MC_BAND_FACTOR = 3.0
C_TOL = 1e-6
KS_RECOMPUTE_TOL = 1e-9


@dataclass
class Verdict:
    failures: dict[str, str] = field(default_factory=dict)
    errors: dict[str, float] = field(default_factory=dict)

    def expect(self, name: str, ok: bool, reason: str) -> None:
        if not ok and name not in self.failures:
            self.failures[name] = reason


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of an artifact CSV, provenance comments skipped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_gumbel(out: Path, config: dict) -> Verdict:
    v = Verdict()
    model, exp = config["model"], config["experiment"]
    probs = np.array(model["offspring"]["probs"])
    p0, p2 = float(probs[0]), float(probs[2])
    beta = model["beta"]
    lam = oracles.decay_rate(beta, model["rho"], probs)
    C = oracles.lf_constant(p0, p2)
    spores = sum(int(k) * n for k, n in exp["z"].items())

    report = read_json(out / "gumbel.json")
    header, rows = read_csv(out / "extinction_times.csv")
    v.expect("times_header", header == ["replicate", "T"], f"header {header}")
    times = np.array([float(r[1]) for r in rows])
    v.expect(
        "times_count",
        [int(r[0]) for r in rows] == list(range(exp["replicates"])),
        f"{len(rows)} rows for {exp['replicates']} replicates",
    )
    v.expect("times_positive", bool(np.all(np.isfinite(times) & (times > 0.0))), "bad time")

    v.errors["c_hat_abs_err"] = abs(report["C"] - C)
    v.expect("c_closed_form", v.errors["c_hat_abs_err"] <= 1e-12, f"C {report['C']!r} vs {C!r}")

    w = lam * times - math.log(C * spores)
    ks = oracles.ks_statistic(w, oracles.gumbel_cdf)
    v.expect(
        "ks_recomputed",
        abs(ks - report["ks_distance"]) <= KS_RECOMPUTE_TOL,
        f"gumbel.json ks_distance {report['ks_distance']!r}, recomputed {ks!r}",
    )

    d = oracles.ks_statistic(times, lambda t: oracles.extinction_cdf_lf(t, spores, beta, p0, p2))
    p = oracles.ks_pvalue(d, len(times))
    v.errors["ks_exact_pvalue"] = p
    v.expect("ks_exact_law", p >= KS_ALPHA, f"KS {d:.4f} against the exact law, p = {p:.2e}")
    return v


def _curves(path: Path) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    header, rows = read_csv(path)
    if header != ["k", "t", "q", "err", "source"]:
        raise ValueError(f"{path.name}: header {header}")
    by_k: dict[int, list] = {}
    for r in rows:
        by_k.setdefault(int(r[0]), []).append((float(r[1]), float(r[2]), float(r[3])))
    ts = np.array([t for t, _, _ in next(iter(by_k.values()))])
    curves = {}
    for k, pts in by_k.items():
        arr = np.array(pts)
        if not np.array_equal(arr[:, 0], ts):
            raise ValueError(f"{path.name}: curve k={k} has another time grid")
        curves[k] = (arr[:, 1], arr[:, 2])
    return ts, curves


def check_survival(out: Path, config: dict) -> Verdict:
    v = Verdict()
    model, exp = config["model"], config["experiment"]
    ks = sorted(exp["k"])
    ts, ode = _curves(out / "survival_ode.csv")
    ts_mc, mc = _curves(out / "survival_mc.csv")
    v.expect("curve_set", sorted(ode) == ks and sorted(mc) == ks, f"k {sorted(ode)} / {sorted(mc)}")
    v.expect("grid", np.array_equal(ts, ts_mc) and ts[0] == 0.0 and ts[-1] == exp["t_max"], "grid")
    if v.failures:
        return v

    pmf = oracles.poisson_table(model["offspring"]["param"], exp["K"])
    ref = oracles.backward_reference(model["beta"], model["rho"], pmf, ts)
    tol = exp["tol"]
    v.errors["max_abs_err"] = max(float(np.abs(ode[k][0] - ref[:, k - 1]).max()) for k in ks)
    v.expect("ode_vs_radau", v.errors["max_abs_err"] <= tol, f"{v.errors['max_abs_err']:.3g} > {tol:g}")

    for k in ks:
        q, err = mc[k]
        dev = np.abs(q - ref[:, k - 1]) / (MC_BAND_FACTOR * err)
        v.expect("mc_band", bool(dev.max() <= 1.0), f"k={k} leaves the band by {dev.max():.2f}x")
    for source, curves in (("ode", ode), ("mc", mc)):
        for k in ks:
            q = curves[k][0]
            v.expect(f"{source}_start", q[0] == 1.0, f"k={k}: q(0) = {q[0]!r}")
            v.expect(f"{source}_nonincreasing", bool(np.all(np.diff(q) <= 0.0)), f"k={k}")
    for lo, hi in zip(ks, ks[1:]):
        ode_gap = ode[lo][0] - ode[hi][0]
        v.expect("ode_increasing_in_k", bool(ode_gap.max() <= tol), f"q_{lo} > q_{hi}")
        mc_gap = mc[lo][0] - mc[hi][0] - MC_BAND_FACTOR * (mc[lo][1] + mc[hi][1])
        v.expect("mc_increasing_in_k", bool(mc_gap.max() <= 0.0), f"q_{lo} > q_{hi}")
    return v


def check_constant(out: Path, config: dict) -> Verdict:
    v = Verdict()
    probs = config["model"]["offspring"]["probs"]
    c_hat = read_json(out / "constant.json")["c_hat"]
    v.errors["c_hat_abs_err"] = abs(c_hat - oracles.lf_constant(probs[0], probs[2]))
    v.expect("c_hat_oracle", v.errors["c_hat_abs_err"] <= C_TOL, f"c_hat {c_hat!r}")
    return v


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    check: Callable[[Path, dict], Verdict]
    # run_batch slice timed at threads 1 and 2 in the traced run:
    # (initial counts, replicates, horizon); None without simulation
    batch_slice: tuple[dict[int, int], int, float | None] | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gumbel_lf_mixed",
            {"model": LF_MODEL, "experiment": {"type": "gumbel", "z": {"1": 4000, "3": 2000}, "replicates": 50}},
            check_gumbel,
            ({1: 4000, 3: 2000}, 8, None),
        ),
        Workload(
            "survival_poisson",
            {
                "model": POISSON_MODEL,
                "experiment": {
                    "type": "survival",
                    "k": [1, 3, 10],
                    "t_max": 10.0,
                    "method": "both",
                    "K": 200,
                    "tol": 1e-9,
                    "replicates": 50_000,
                },
            },
            check_survival,
            ({3: 1}, 20_000, 10.0),
        ),
        Workload(
            "constant_lf",
            {"model": LF_MODEL, "experiment": {"type": "constant", "K": 20}},
            check_constant,
            None,
        ),
    )
}
