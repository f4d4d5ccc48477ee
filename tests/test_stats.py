import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from sporesim import ModelParams, OffspringDistribution, gumbel_experiment, stats, survival_curve_mc
from sporesim.analytic import SurvivalCurve, _grid
from sporesim.stats import (
    GUMBEL_MEDIAN,
    WILSON_Z,
    check_growth_condition,
    gumbel_cdf,
    gumbel_quantile,
    ks_distance,
    sorted_median,
    sorted_quantile,
    wilson_interval,
)
from survival_checks import WindowError, closed_form_mu0, fit_decay_rate, validate_curve

NO_OFFSPRING = OffspringDistribution.table([1.0])
TWO_POINT = OffspringDistribution.table([0.6, 0.0, 0.4])
LF_MODEL = ModelParams(1.0, 0.0, TWO_POINT)


def wilson_oracle(successes, n, z=1.96):
    """Textbook Wilson score formula, written out independently."""
    phat = successes / n
    denom = 1 + z**2 / n
    center = (phat + z**2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2))
    return center - half, center + half


def wilson_scalar(successes: int, n: int) -> tuple[float, float]:
    """The package's Wilson interval at one point, in Python floats: the
    reference its array form must equal bit for bit."""
    phat = successes / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = WILSON_Z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


class TestWilson:
    def test_matches_oracle(self):
        for s, n in ((0, 10), (3, 10), (10, 10), (17, 1000), (999, 1000)):
            lo, hi = wilson_interval(s, n)
            olo, ohi = wilson_oracle(s, n)
            assert lo == pytest.approx(max(0.0, olo), abs=1e-12)
            assert hi == pytest.approx(min(1.0, ohi), abs=1e-12)

    def test_zero_successes_upper_bound(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0
        assert hi == pytest.approx(0.2775, abs=5e-4)

    def test_degenerate_cases_valid(self):
        for s, n in ((0, 1), (1, 1), (0, 5), (5, 5)):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        for s in ([0, 5], [-1, 0]):
            with pytest.raises(ValueError):
                wilson_interval(np.array(s), 4)

    def test_fractional_n_rejected(self):
        with pytest.raises(TypeError):
            wilson_interval(3, 10.5)

    @pytest.mark.parametrize("successes", [2.5, 3.0, True, np.float64(3.0), "3"])
    def test_non_integer_successes_rejected(self, successes):
        with pytest.raises(TypeError, match="successes must be an integer"):
            wilson_interval(successes, 10)

    @pytest.mark.parametrize(
        "successes",
        [np.array([0.5, 1.5]), np.array([0.0, 1.0]), np.array([True, False])],
        ids=["fractional", "whole-float", "bool"],
    )
    def test_non_integer_successes_array_rejected(self, successes):
        with pytest.raises(TypeError, match="successes must be integers, got dtype"):
            wilson_interval(successes, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 20, 200, 2000, 100_003])
    def test_array_form_equals_scalar_bit_for_bit(self, n):
        # every s at n, up to a large prime
        low, high = wilson_interval(np.arange(n + 1), n)
        expected = np.array([wilson_scalar(s, n) for s in range(n + 1)])
        assert low.tobytes() == expected[:, 0].tobytes()
        assert high.tobytes() == expected[:, 1].tobytes()

    @pytest.mark.parametrize("n", [11, 22, 27, 6, 21, 31, 10_000])
    def test_bounds_exact_at_all_or_none(self, n):
        # unclamped, rounding put the lower bound at s = 0 near 1e-17 for
        # n = 11, 22, 27 and the upper bound at s = n at 1 - 2^-53 for
        # n = 6, 21, 31 and 10^4
        assert wilson_interval(0, n)[0] == 0.0
        assert wilson_interval(n, n)[1] == 1.0

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 10**9), data=st.data())
    def test_interval_brackets_estimate(self, n, data):
        s = data.draw(st.one_of(st.sampled_from([0, n]), st.integers(0, n)), label="s")
        lo, hi = wilson_interval(s, n)
        assert 0.0 <= lo <= s / n <= hi <= 1.0


def survival_at(k, t, m, seed, n):
    """survival_curve_mc at the one time t > 0, the last point of the grid
    [0, t] and the horizon of its batch: (estimate, Wilson interval)."""
    q = survival_curve_mc(k, t, m, seed=seed, n=n, dt=t).qs[-1]
    return q, wilson_interval(round(q * n), n)


class TestEstimateQk:
    """survival_curve_mc as an estimate of q_k at a single time."""

    def test_horizon_zero_is_certain(self):
        q = survival_curve_mc(1, 1.0, LF_MODEL, seed=1, n=50).qs[0]
        low, high = wilson_interval(round(q * 50), 50)
        assert q == 1.0
        assert high == 1.0

    @pytest.mark.parametrize("n", [6, 10_000])
    def test_all_survived_interval_brackets_estimate(self, n):
        # these sample sizes used to round the upper bound below 1
        curve = survival_curve_mc(1, 1.0, LF_MODEL, seed=1, n=n)
        low, high = wilson_interval(n, n)
        assert curve.qs[0] == 1.0
        assert low < 1.0 and high == 1.0
        assert curve.err[0] == (high - low) / 2.0

    def test_curve_band_in_one_call(self, monkeypatch):
        # one Wilson call per curve, equal point by point to the scalar formula
        calls = []

        def counted(successes, n):
            calls.append(np.shape(successes))
            return wilson_interval(successes, n)

        monkeypatch.setattr(stats, "wilson_interval", counted)
        curve = survival_curve_mc(1, 5.0, LF_MODEL, seed=4, n=300, dt=0.1)
        assert calls == [(51,)]
        for q, err in zip(curve.qs.tolist(), curve.err.tolist()):
            s = round(q * 300)
            low, high = wilson_scalar(s, 300)
            assert (q, err) == (s / 300, (high - low) / 2.0)
        assert 0 < curve.qs[-1] < curve.qs[1] < 1.0

    def test_covers_pure_death_closed_form(self):
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        q, (low, high) = survival_at(1, 1.0, m, seed=2, n=10**5)
        assert low <= math.exp(-2.0) <= high

    def test_interval_coverage_rate(self):
        # 200 repetitions against a known truth: at least 90% of the 95%
        # intervals must cover
        m = ModelParams(1.0, 0.5, NO_OFFSPRING)
        truth = closed_form_mu0(1, 1.0, 1.0, 0.5)
        covered = 0
        for rep in range(200):
            q, (low, high) = survival_at(1, 1.0, m, seed=3000 + rep, n=500)
            covered += low <= truth <= high
        assert covered >= 180

    def test_seed_deterministic(self):
        a = survival_curve_mc(2, 1.0, LF_MODEL, seed=17, n=200, dt=1.0)
        b = survival_curve_mc(2, 1.0, LF_MODEL, seed=17, n=200, dt=1.0)
        assert np.array_equal(a.qs, b.qs) and np.array_equal(a.err, b.err)


class TestSurvivalCurveMC:
    def test_basic_shape(self):
        curve = survival_curve_mc(2, 4.0, LF_MODEL, seed=5, n=2000, dt=0.5)
        validate_curve(curve)
        assert curve.source == "monte_carlo"
        assert curve.qs[0] == 1.0
        assert np.all(curve.err > 0.0)

    def test_grid_is_the_solvers(self):
        # the grid rule of solve_survival and the survival config: [0, t_max]
        # at spacing dt (None: the default), censored at t_max
        for t_max, dt in ((4.0, 0.5), (2.5, 1.0), (3.0, None)):
            curve = survival_curve_mc(1, t_max, LF_MODEL, seed=7, n=20, dt=dt)
            assert np.array_equal(curve.ts, _grid(t_max, dt))
            assert curve.ts[-1] == t_max
        with pytest.raises(ValueError, match="t_max"):
            survival_curve_mc(1, 0.0, LF_MODEL, seed=7, n=20)
        with pytest.raises(ValueError, match="dt"):
            survival_curve_mc(1, 1.0, LF_MODEL, seed=7, n=20, dt=math.nan)

    def test_tracks_closed_form(self):
        m = ModelParams(1.0, 0.5, NO_OFFSPRING)
        curve = survival_curve_mc(3, 3.0, m, seed=6, n=20000, dt=0.5)
        for t, q, e in zip(curve.ts, curve.qs, curve.err):
            assert abs(q - closed_form_mu0(3, t, 1.0, 0.5)) < max(3.0 * e, 1e-3)


class TestKsDistance:
    def test_matches_brute_force(self):
        # O(n^2) oracle: check the empirical CDF level just below and at
        # every sample point, counting by double loop
        def brute(sample, cdf):
            n = len(sample)
            worst = 0.0
            for x in sample:
                below = sum(1 for y in sample if y <= x) / n
                strictly = sum(1 for y in sample if y < x) / n
                f = cdf(x)
                worst = max(worst, abs(below - f), abs(strictly - f))
            return worst

        rng = np.random.default_rng(13)
        for n in (1, 5, 37, 100):
            sample = rng.normal(size=n)
            assert ks_distance(sample, norm.cdf) == pytest.approx(
                brute(sample, norm.cdf), abs=1e-12
            )

    def test_inverse_grid_construction(self):
        n = 500
        grid = [(i + 1) / (n + 1) for i in range(n)]
        sample = [gumbel_quantile(p) for p in grid]
        assert ks_distance(sample, gumbel_cdf) < 2.0 / n

    def test_constant_sample(self):
        assert ks_distance([0.0] * 10, norm.cdf) >= 0.5

    def test_gumbel_inverse_sampling(self):
        rng = np.random.default_rng(21)
        sample = [gumbel_quantile(u) for u in rng.uniform(1e-12, 1 - 1e-12, 10**4)]
        assert ks_distance(sample, gumbel_cdf) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], norm.cdf)

    def test_nan_rejected(self):
        # a NaN sorts last and compares false, so it would drop out of the sup
        with pytest.raises(ValueError, match="NaN"):
            ks_distance([math.nan, 1.0], gumbel_cdf)


class TestGrowthCondition:
    def test_all_type_one(self):
        n = 10**4
        rep = check_growth_condition({1: n}, a=0.1, lam=0.2)
        assert rep.ratio == pytest.approx(n ** (-0.5), rel=1e-12)

    def test_single_heavy_host_flags(self):
        k = 10**6
        rep = check_growth_condition({k: 1}, a=0.1, lam=0.2)
        assert rep.ratio == pytest.approx(k**2 / k**1.5, rel=1e-12)
        assert rep.ratio > 100.0

    def test_mixed_exact_arithmetic(self):
        rep = check_growth_condition({1: 10**4, 2: 10**3}, a=0.1, lam=0.2)
        spores = 10**4 + 2 * 10**3
        second = 10**4 + 4 * 10**3
        assert rep.spores == spores
        assert rep.second_moment == second
        assert rep.ratio == pytest.approx(second / spores**1.5, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_growth_condition({}, a=0.1, lam=0.2)

    @pytest.mark.parametrize("a, lam", [(math.nan, 0.2), (0.1, math.nan)], ids=["a", "lam"])
    def test_nan_rate_rejected(self, a, lam):
        with pytest.raises(ValueError, match="must be positive"):
            check_growth_condition({1: 10}, a=a, lam=lam)

    @pytest.mark.parametrize(
        "z, error",
        [({1: 2.5}, TypeError), ({0: 3, 1: 1}, ValueError), ({1: -1, 2: 1}, ValueError)],
        ids=["fractional-count", "type-0", "negative-count"],
    )
    def test_start_rule_applied(self, z, error):
        # the start rule of PopulationState: integer types >= 1, counts >= 0
        with pytest.raises(error):
            check_growth_condition(z, a=0.1, lam=0.2)


class TestFitDecayRate:
    @staticmethod
    def exponential_curve(c, rate, t_max=50.0, n=201):
        ts = np.linspace(0.0, t_max, n)
        qs = c * np.exp(-rate * ts)
        return SurvivalCurve(k=1, ts=ts, qs=np.minimum(qs, 1.0), err=np.zeros(n), source="closed_form")

    def test_exact_exponential(self):
        curve = self.exponential_curve(0.5, 0.7)
        rate, stderr = fit_decay_rate(curve, (5.0, 45.0))
        assert rate == pytest.approx(0.7, abs=1e-12)
        assert stderr < 1e-12

    def test_scale_invariance(self):
        a = self.exponential_curve(0.9, 0.3)
        b = self.exponential_curve(0.09, 0.3)
        ra, _ = fit_decay_rate(a, (5.0, 45.0))
        rb, _ = fit_decay_rate(b, (5.0, 45.0))
        assert ra == pytest.approx(rb, abs=1e-12)

    def test_window_errors(self):
        curve = self.exponential_curve(1.0, 0.2)
        with pytest.raises(WindowError):
            fit_decay_rate(curve, (49.9, 50.0))  # too few points
        dead = SurvivalCurve(
            k=1,
            ts=np.linspace(0, 5, 6),
            qs=np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]),
            err=np.zeros(6),
            source="monte_carlo",
        )
        with pytest.raises(WindowError):
            fit_decay_rate(dead, (0.0, 5.0))


class TestSortedQuantiles:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 500), ties=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_equal_numpy_bit_for_bit(self, n, ties, seed):
        # magnitudes 1e-3..1e3 of either sign; with ties > 0, n draws from
        # that many values
        rng = np.random.default_rng(seed)
        w = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        if ties:
            w = rng.choice(w[:ties], size=n)
        xs = sorted(w.tolist())
        ps = [i / 10.0 for i in range(1, 10)]
        ours = [sorted_quantile(xs, p) for p in ps] + [sorted_median(xs)]
        theirs = np.quantile(w, ps).tolist() + [float(np.median(w))]
        assert [x.hex() for x in ours] == [x.hex() for x in theirs]


class TestGumbelExperiment:
    def test_single_replicate_degenerate(self):
        rep = gumbel_experiment({1: 5}, LF_MODEL, C=1.0 / 3.0, seed=31, replicates=1)
        assert rep.n == 1
        assert rep.ks >= 0.5
        assert len(rep.extinction_times) == 1

    def test_report_fields(self):
        z = {1: 200}
        rep = gumbel_experiment(z, LF_MODEL, C=1.0 / 3.0, seed=32, replicates=100)
        lam = LF_MODEL.decay_rate
        assert rep.location == pytest.approx(math.log(200.0 / 3.0) / lam)
        assert rep.scale == pytest.approx(1.0 / lam)
        assert len(rep.quantiles) == 9
        for p, emp, pred in rep.quantiles:
            assert pred == pytest.approx(gumbel_quantile(p))
        assert 0.0 <= rep.ks <= 1.0

    def test_rejects_bad_inputs(self):
        super_m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            gumbel_experiment({1: 10}, super_m, C=0.5, seed=1, replicates=2)
        with pytest.raises(ValueError):
            gumbel_experiment({1: 10}, LF_MODEL, C=1.5, seed=1, replicates=2)
        with pytest.raises(ValueError):
            gumbel_experiment({}, LF_MODEL, C=0.5, seed=1, replicates=2)
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            gumbel_experiment({1: 10}, LF_MODEL, C=0.5, seed=1, replicates=0)

    def test_rejects_fractional_start(self):
        # {1: 2.5} once ran two hosts and centred at N = 2
        with pytest.raises(TypeError):
            gumbel_experiment({1: 2.5}, LF_MODEL, C=0.5, seed=1, replicates=2)

    def test_medium_population_close_to_limit(self):
        # moderate size keeps this fast; the acceptance suite runs the
        # full-size configuration
        rep = gumbel_experiment({1: 1000}, LF_MODEL, C=1.0 / 3.0, seed=34, replicates=400)
        assert rep.ks < 0.1
        assert abs(rep.median_w - GUMBEL_MEDIAN) < 0.25
