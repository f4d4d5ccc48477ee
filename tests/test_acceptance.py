"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s tests/test_acceptance.py``).

Monte Carlo thresholds that are not derivable in closed form were fixed by a
pre-build calibration run documented at the relevant test.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from naive_engine import run_to_extinction_reference
from sporesim import (
    ModelParams,
    OffspringDistribution,
    PopulationState,
    TruncatedSystem,
    estimate_constant,
    gumbel_experiment,
    run_batch,
    solve_survival,
)
from sporesim.analytic import linear_fractional_constant
from sporesim.cli import main, parse_config
from sporesim.model import tail_exponent
from sporesim.stats import GUMBEL_MEDIAN, wilson_interval
from survival_checks import (
    closed_form_linear_fractional,
    closed_form_mu0,
    fit_decay_rate,
    tail_ratio_check,
)

REPO = Path(__file__).parent.parent

NO_OFFSPRING = OffspringDistribution.table([1.0])
TWO_POINT = OffspringDistribution.table([0.6, 0.0, 0.4])
LF_MODEL = ModelParams(1.0, 0.0, TWO_POINT)


def report(number: int, description: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {description}: {detail} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} ({description}): {detail}"


def test_criterion_1_pure_death_oracle():
    """Zero-offspring closed form against both estimators."""
    start = time.perf_counter()
    params = [(1.0, 1.0), (0.5, 2.0)]
    ks = (1, 2, 5)
    ts = (0.5, 1.0, 2.0)

    covered = 0
    cells = 0
    for ip, (rho, beta) in enumerate(params):
        m = ModelParams(beta, rho, NO_OFFSPRING)
        for ik, k in enumerate(ks):
            for it, t in enumerate(ts):
                seed = 10_000 + 100 * (ip * 9 + ik * 3 + it)
                init = PopulationState.from_counts({k: 1})
                survived = int(run_batch(init, m, seed, replicates=10**5, horizon=t).censored.sum())
                low, high = wilson_interval(survived, 10**5)
                covered += low <= closed_form_mu0(k, t, beta, rho) <= high
                cells += 1

    ode_worst = 0.0
    for rho, beta in params:
        m = ModelParams(beta, rho, NO_OFFSPRING)
        curves = solve_survival(TruncatedSystem(m, K=5), t_max=2.0, tol=1e-9)
        for c in curves:
            if c.k in ks:
                exact = np.array([closed_form_mu0(c.k, t, beta, rho) for t in c.ts])
                ode_worst = max(ode_worst, float(np.abs(c.qs - exact).max()))

    elapsed = time.perf_counter() - start
    ok = covered >= 16 and ode_worst <= 1e-8 and elapsed < 60.0
    report(
        1,
        "pure-death oracle",
        ok,
        f"Wilson coverage {covered}/{cells} (need >=16), ODE max err {ode_worst:.2e} (need <=1e-8)",
        elapsed,
    )


def test_criterion_2_linear_fractional_oracle():
    """Birth-death closed form: curve, leading constant, fitted slope."""
    start = time.perf_counter()
    sys2 = TruncatedSystem(LF_MODEL, K=2)

    curves = solve_survival(sys2, t_max=40.0, tol=1e-9, dt=0.1)
    c1 = curves[0]
    exact = np.array([closed_form_linear_fractional(t, 1.0, 0.6, 0.4) for t in c1.ts])
    curve_err = float(np.abs(c1.qs - exact).max())

    est = estimate_constant(sys2)
    const_err = abs(est.c_hat - linear_fractional_constant(LF_MODEL))

    tail = solve_survival(sys2, t_max=200.0, tol=1e-9, dt=0.5)
    lam_fit, _ = fit_decay_rate(tail[0], (100.0, 200.0))
    slope_rel = abs(lam_fit - 0.2) / 0.2

    elapsed = time.perf_counter() - start
    ok = curve_err <= 1e-7 and const_err <= 1e-4 and slope_rel <= 0.005 and elapsed < 30.0
    report(
        2,
        "linear-fractional oracle",
        ok,
        f"curve err {curve_err:.2e} (<=1e-7), constant err {const_err:.2e} (<=1e-4), "
        f"slope rel err {slope_rel:.2e} (<=0.5%)",
        elapsed,
    )


def test_criterion_3_tail_shape():
    """The per-spore ratio q_k/(k q_1): bounded by 1, contracting, and
    decaying at least at the default tail exponent."""
    start = time.perf_counter()
    laws = [TWO_POINT, OffspringDistribution.table([0.5, 0.3, 0.2])]
    worst_excess = 0.0
    all_contract = True
    worst_slope_gap = math.inf
    for law in laws:
        m = ModelParams(1.0, 0.0, law)
        a = tail_exponent(m)
        curves = solve_survival(
            TruncatedSystem(m, K=12), t_max=6.0 / a + 6.0, tol=1e-9, dt=0.25
        )
        rep = tail_ratio_check(curves, a=a, delta=5.0, k_max=10)
        worst_excess = max(worst_excess, rep.max_ratio_excess)
        all_contract = all_contract and rep.contraction_ok
        assert set(rep.slopes) == set(range(2, 11))
        worst_slope_gap = min(worst_slope_gap, min(-s - a for s in rep.slopes.values()))
    elapsed = time.perf_counter() - start
    ok = worst_excess <= 1e-6 and all_contract and worst_slope_gap >= 0.0 and elapsed < 60.0
    report(
        3,
        "tail-shape of q_k/(k q_1)",
        ok,
        f"max excess {worst_excess:.2e} (<=1e-6), contraction {all_contract}, "
        f"slope margin {worst_slope_gap:.3f} (>=0)",
        elapsed,
    )


def test_criterion_4_scaled_curve_monotone():
    """e^(lambda t) q_1(t) nonincreasing on every shipped example config."""
    start = time.perf_counter()
    tol = 1e-9
    configs = sorted((REPO / "configs").glob("*.json"))
    assert configs, "no shipped example configs found"
    worst = -math.inf
    for path in configs:
        cfg = parse_config(path.read_text(encoding="utf-8"))
        m = cfg.params
        lam = m.decay_rate
        assert lam > 0.0, f"{path.name}: shipped config must be subcritical"
        t_max = min(10.0 / lam, 60.0)
        curves = solve_survival(TruncatedSystem(m, K=12), t_max=t_max, tol=tol)
        c1 = curves[0]
        h = np.exp(lam * c1.ts) * c1.qs
        worst = max(worst, float(np.diff(h).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 10.0 * tol
    report(
        4,
        "monotone scaled survival",
        ok,
        f"max increase {worst:.2e} over {len(configs)} configs (<= {10 * tol:.0e})",
        elapsed,
    )


def test_criterion_5_gumbel_limit():
    """Extinction-time limit law at a large initial population.

    Threshold calibration (pre-build run, documented): same model and
    z = {1: 10^4} at 10^4 replicates, seed 777, gave KS = 0.0065 to the
    standard Gumbel, bounding the finite-population systematic error.  The
    2000-replicate gate adds a 99% sampling band 1.63/sqrt(2000) = 0.036,
    giving 0.0065 + 0.036 rounded up to 0.045.
    """
    start = time.perf_counter()
    rep = gumbel_experiment(
        {1: 10_000}, LF_MODEL, C=1.0 / 3.0, seed=424242, replicates=2000
    )
    median_err = abs(rep.median_w - GUMBEL_MEDIAN)
    elapsed = time.perf_counter() - start
    ok = rep.ks < 0.045 and median_err <= 0.1 and elapsed < 300.0
    report(
        5,
        "Gumbel extinction-time limit",
        ok,
        f"KS {rep.ks:.4f} (<0.045), median |w - {GUMBEL_MEDIAN:.4f}| = {median_err:.4f} (<=0.1)",
        elapsed,
    )


def test_criterion_6_engine_equivalence():
    """Aggregated engine against the naive per-clock oracle engine."""
    start = time.perf_counter()
    m = ModelParams(1.0, 0.5, TWO_POINT)
    n = 10_000
    worst_p = 1.0
    for counts, seed in (({1: 3}, 9100), ({2: 1, 3: 1}, 9200)):
        init = PopulationState.from_counts(counts)
        agg = run_batch(init, m, seed, replicates=n).extinction_times
        ref = [
            run_to_extinction_reference(init, m, seed + 1, i).extinction_time for i in range(n)
        ]
        _, p = ks_2samp(agg, ref)
        worst_p = min(worst_p, p)
    elapsed = time.perf_counter() - start
    ok = worst_p > 0.001 and elapsed < 60.0
    report(
        6,
        "engine equivalence",
        ok,
        f"two-sample KS p-value {worst_p:.3f} (> 0.001), {n} replicates per state",
        elapsed,
    )


def test_criterion_7_artifact_determinism(tmp_path):
    """Identical config + seed gives byte-identical artifacts at any
    thread count."""
    start = time.perf_counter()
    gumbel_cfg = tmp_path / "gumbel.json"
    gumbel_cfg.write_text(
        json.dumps(
            {
                "model": {
                    "beta": 1.0,
                    "rho": 0.0,
                    "offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]},
                },
                "experiment": {
                    "type": "gumbel",
                    "z": {"1": 300, "2": 20},
                    "replicates": 200,
                    "seed": 31337,
                },
            }
        )
    )
    survival_cfg = tmp_path / "survival.json"
    survival_cfg.write_text(
        json.dumps(
            {
                "model": {
                    "beta": 1.0,
                    "rho": 0.5,
                    "offspring": {"kind": "table", "probs": [0.6, 0.0, 0.4]},
                },
                "experiment": {
                    "type": "survival",
                    "k": [1, 3],
                    "t_max": 4.0,
                    "dt": 0.5,
                    "method": "both",
                    "seed": 31338,
                    "replicates": 2000,
                },
            }
        )
    )
    identical = True
    for cfg in (gumbel_cfg, survival_cfg):
        out1 = tmp_path / (cfg.stem + "_t1")
        out2 = tmp_path / (cfg.stem + "_t4")
        assert main(["run", "--config", str(cfg), "--out-dir", str(out1)]) == 0
        assert (
            main(["run", "--config", str(cfg), "--out-dir", str(out2), "--threads", "4"]) == 0
        )
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        identical = identical and files1 == files2
        for name in files1:
            identical = identical and (out1 / name).read_bytes() == (out2 / name).read_bytes()
    elapsed = time.perf_counter() - start
    report(7, "artifact determinism", identical, "thread counts 1 and 4, two experiments",
           elapsed)


def test_criterion_8_truncation_monotonicity():
    """Unbounded offspring law: survival increases with the truncation level
    and has settled by K = 20."""
    start = time.perf_counter()
    m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
    assert m.decay_rate == pytest.approx(0.5)
    tol = 1e-9
    q = {
        K: solve_survival(TruncatedSystem(m, K=K), t_max=20.0, tol=tol, dt=0.1)[0].qs
        for K in (10, 20, 40)
    }
    min_gap_10_20 = float((q[20] - q[10]).min())
    max_gain_10_20 = float((q[20] - q[10]).max())
    change_20_40 = float(np.abs(q[40] - q[20]).max())
    elapsed = time.perf_counter() - start
    ok = min_gap_10_20 >= -2.0 * tol and max_gain_10_20 > 0.0 and change_20_40 < 1e-6
    report(
        8,
        "truncation monotonicity",
        ok,
        f"K10->K20 gain in [{min_gap_10_20:.1e}, {max_gain_10_20:.1e}] (nonnegative, some gain), "
        f"K20->K40 change {change_20_40:.1e} (<1e-6)",
        elapsed,
    )
