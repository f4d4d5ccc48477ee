import logging
import math
import re
import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sporesim import (
    DecayWindow,
    ModelParams,
    OffspringDistribution,
    TruncatedSystem,
    estimate_constant,
    solve_survival,
)
from sporesim.analytic import (
    NonConvergenceError,
    SolverError,
    backward_rhs,
    closed_form_linear_fractional,
    closed_form_mu0,
    linear_fractional_constant,
    survival_ratios,
    tail_ratio_check,
    truncation_lower_bound_check,
)

NO_OFFSPRING = OffspringDistribution.table([1.0])
TWO_POINT = OffspringDistribution.table([0.6, 0.0, 0.4])
LF_MODEL = ModelParams(1.0, 0.0, TWO_POINT)


def backward_jacobian(q: np.ndarray, sys: TruncatedSystem) -> np.ndarray:
    """d backward_rhs / dq: diagonal -(rho + beta k), subdiagonal
    beta k (1 - w) and the offspring coupling beta k (1 - q_{k-1}) p~_j."""
    p = sys.offspring_table[1:]
    k = np.arange(1, sys.K + 1, dtype=float)
    shift = np.concatenate(([0.0], q[:-1]))
    J = np.outer(sys.params.beta * k * (1.0 - shift), p)
    J[np.diag_indices(sys.K)] -= sys.params.rho + sys.params.beta * k
    J[np.arange(1, sys.K), np.arange(sys.K - 1)] += sys.params.beta * k[1:] * (1.0 - p @ q)
    return J


class TestBackwardRhs:
    def test_single_component_pure_death(self):
        sys = TruncatedSystem(ModelParams(1.0, 0.0, NO_OFFSPRING), K=1)
        assert backward_rhs(np.array([1.0]), sys) == pytest.approx([-1.0])

    def test_zero_is_absorbing(self):
        sys = TruncatedSystem(ModelParams(1.3, 0.4, TWO_POINT), K=6)
        assert np.all(backward_rhs(np.zeros(6), sys) == 0.0)

    def test_two_point_component_one(self):
        # expanding the first-event decomposition for {p0, p2}, rho=0, beta=1:
        # q_1' = -q_1 + p2*q_2
        sys = TruncatedSystem(LF_MODEL, K=2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            q = rng.random(2)
            d = backward_rhs(q, sys)
            assert d[0] == pytest.approx(-q[0] + 0.4 * q[1], abs=1e-15)

    def test_component_one_general_reduction(self):
        # component 1 must reduce to -(rho+beta) q_1 + beta sum_j p~_j q_j
        sys = TruncatedSystem(ModelParams(0.8, 0.6, OffspringDistribution.poisson(1.1)), K=12)
        ptail = sys.offspring_table[1:]
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = rng.random(12)
            expected = -(0.6 + 0.8) * q[0] + 0.8 * float(ptail @ q)
            assert backward_rhs(q, sys)[0] == pytest.approx(expected, abs=1e-14)

    def test_shape_checked(self):
        sys = TruncatedSystem(LF_MODEL, K=2)
        with pytest.raises(ValueError):
            backward_rhs(np.ones(3), sys)


class TestTruncatedSystem:
    def test_table_law_unchanged_when_support_fits(self):
        sys = TruncatedSystem(LF_MODEL, K=4)
        assert sys.offspring_table[:3] == pytest.approx([0.6, 0.0, 0.4], abs=1e-15)
        assert sys.offspring_table[3:] == pytest.approx([0.0, 0.0])
        assert sys.truncated_mean == pytest.approx(TWO_POINT.mean, abs=1e-15)

    def test_poisson_tail_mass_moves_to_zero(self):
        d = OffspringDistribution.poisson(2.0)
        sys = TruncatedSystem(ModelParams(0.5, 1.0, d), K=6)
        tail = 1.0 - sum(d.pmf(j) for j in range(7))
        assert sys.offspring_table[0] == pytest.approx(d.pmf(0) + tail, abs=1e-12)
        assert sys.offspring_table.sum() == pytest.approx(1.0, abs=1e-12)
        assert sys.truncated_mean < d.mean

    def test_bad_K(self):
        with pytest.raises(ValueError):
            TruncatedSystem(LF_MODEL, K=0)


class TestSolveSurvival:
    def test_matches_pure_death_closed_form(self):
        for beta, rho in ((1.0, 1.0), (2.0, 0.5)):
            m = ModelParams(beta, rho, NO_OFFSPRING)
            curves = solve_survival(TruncatedSystem(m, K=5), t_max=2.0, tol=1e-9)
            for c in curves:
                exact = np.array([closed_form_mu0(c.k, t, beta, rho) for t in c.ts])
                assert np.abs(c.qs - exact).max() < 1e-9

    def test_matches_linear_fractional_closed_form(self):
        curves = solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=5.0, tol=1e-9)
        c1 = curves[0]
        exact = np.array([closed_form_linear_fractional(t, 1.0, 0.6, 0.4) for t in c1.ts])
        assert np.abs(c1.qs - exact).max() < 1e-9

    def test_initial_value_exact(self):
        curves = solve_survival(TruncatedSystem(LF_MODEL, K=3), t_max=1.0)
        for c in curves:
            assert c.ts[0] == 0.0 and c.qs[0] == 1.0

    def test_curves_valid(self):
        sys = TruncatedSystem(ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), K=15)
        for c in solve_survival(sys, t_max=8.0, tol=1e-9):
            c.validate(tol=1e-9)

    def test_matches_independent_integrator(self):
        # cross-check the scaled adaptive solver against scipy run directly on
        # the unscaled right-hand side: RK45 at K=12, and at K=400, where
        # rho + beta*K = 201 makes the system stiff and stability limits the
        # solver's steps, Radau with the analytic Jacobian
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        for K, method in ((12, "RK45"), (400, "Radau")):
            sys = TruncatedSystem(m, K=K)
            jac = {"jac": lambda t, q: backward_jacobian(q, sys)} if method == "Radau" else {}
            curves = solve_survival(sys, t_max=5.0, tol=1e-10, dt=0.25)
            ref = solve_ivp(
                lambda t, q: backward_rhs(q, sys),
                (0.0, 5.0),
                np.ones(K),
                t_eval=curves[0].ts,
                rtol=1e-11,
                atol=1e-13,
                method=method,
                **jac,
            )
            assert ref.success
            ours = np.stack([c.qs for c in curves], axis=1)
            assert np.abs(ours - ref.y.T).max() < 5e-9, K

    def test_scaled_rhs_is_derivative_of_rescaled_q(self):
        # u = e^{sigma t} q has u' = sigma u + e^{sigma t} q'
        sys = TruncatedSystem(ModelParams(0.8, 0.6, OffspringDistribution.poisson(1.1)), K=12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            q, sigma, t = rng.random(12), rng.random(), 5.0 * rng.random()
            u = math.exp(sigma * t) * q
            expected = sigma * u + math.exp(sigma * t) * backward_rhs(q, sys)
            assert backward_rhs(u, sys, sigma, t) == pytest.approx(expected, rel=1e-12, abs=1e-14)

    def test_bound_preservation(self):
        # 0 <= q_k <= min(1, k q_1) + tol at every grid point
        tol = 1e-9
        sys = TruncatedSystem(ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), K=10)
        curves = solve_survival(sys, t_max=10.0, tol=tol)
        q1 = curves[0].qs
        for c in curves:
            assert np.all(c.qs >= 0.0)
            assert np.all(c.qs <= np.minimum(1.0, c.k * q1) + tol)

    def test_truncation_monotone_in_K(self):
        # sending more offspring mass to zero can only hurt survival
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        q5 = solve_survival(TruncatedSystem(m, K=5), t_max=8.0, tol=1e-10)[0].qs
        q10 = solve_survival(TruncatedSystem(m, K=10), t_max=8.0, tol=1e-10)[0].qs
        assert np.all(q10 >= q5 - 2e-10)
        assert q10.max() <= 1.0
        assert np.max(q10 - q5) > 1e-7

    def test_invalid_inputs(self):
        sys = TruncatedSystem(LF_MODEL, K=2)
        with pytest.raises(ValueError):
            solve_survival(sys, t_max=0.0)
        with pytest.raises(ValueError):
            solve_survival(sys, t_max=1.0, tol=0.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=1.0, dt=dt)

    def test_err_is_measured_pass_difference(self):
        # err carries the difference of the accepted pair of passes per grid
        # point, scaled back to q: within tol, zero at t = 0, not a constant
        tol = 1e-9
        curves = solve_survival(
            TruncatedSystem(ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), K=20),
            t_max=10.0,
            tol=tol,
        )
        err = curves[0].err
        assert np.all((err >= 0.0) & (err <= tol))
        assert err[0] == 0.0 and err.max() > 0.0
        assert len(np.unique(err)) > 1
        assert all(np.array_equal(c.err, err) for c in curves)

    @pytest.mark.parametrize("tol", [1e-20, 1e-16])
    def test_unattainable_tol_fails_fast(self, tol):
        # a tolerance below the rounding of u = O(1) raises at once instead of
        # refining the steps forever
        def expire(signum, frame):
            raise TimeoutError(f"tol={tol:g} still refining after 20 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(20)
        try:
            with pytest.raises(SolverError, match="double precision"):
                solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=1.0, tol=tol)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_work_counters_logged(self, caplog):
        sys = TruncatedSystem(ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), K=12)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            curves = solve_survival(sys, t_max=5.0, tol=1e-10, dt=0.25)
        (record,) = [r for r in caplog.records if r.name == "sporesim.analytic"]
        found = re.search(
            r"K=12 on 21 grid points: (\d+) passes, (\d+) accepted and (\d+) rejected steps, "
            r"(\d+) RHS evaluations, err (\S+)",
            record.getMessage(),
        )
        assert found, record.getMessage()
        passes, accepted, rejected, rhs = map(int, found.groups()[:4])
        assert passes >= 2 and accepted >= 20 * passes  # every grid point ends a step
        assert rhs == passes + 6 * (accepted + rejected)
        err = float(found.group(5))
        assert 0.0 < err <= 1e-10
        assert 0.0 < curves[0].err.max() <= 1.01 * err  # err scaled to q by e^{-sigma t}


class TestClosedForms:
    def test_mu0_half_life(self):
        assert closed_form_mu0(1, math.log(2.0), 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_mu0_at_zero(self):
        for k in (1, 2, 7):
            assert closed_form_mu0(k, 0.0, 1.3, 0.4) == 1.0

    def test_mu0_formula_value(self):
        e1 = math.exp(-1.0)
        assert closed_form_mu0(2, 1.0, 1.0, 1.0) == pytest.approx(
            e1 * (1.0 - (1.0 - e1) ** 2), abs=1e-15
        )

    def test_lf_at_zero(self):
        assert closed_form_linear_fractional(0.0, 1.0, 0.6, 0.4) == pytest.approx(1.0)

    def test_lf_constant(self):
        assert linear_fractional_constant(0.6, 0.4) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_lf_scaled_limit_monotone_from_above(self):
        lam = 0.2
        ts = np.linspace(0.0, 120.0, 60)
        h = np.array(
            [math.exp(lam * t) * closed_form_linear_fractional(t, 1.0, 0.6, 0.4) for t in ts]
        )
        assert np.all(np.diff(h) <= 0.0)
        assert h[-1] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert np.all(h >= 1.0 / 3.0 - 1e-12)

    def test_lf_rejects_critical_and_unnormalized(self):
        with pytest.raises(ValueError):
            closed_form_linear_fractional(1.0, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            closed_form_linear_fractional(1.0, 1.0, 0.6, 0.3)
        with pytest.raises(ValueError):
            linear_fractional_constant(0.4, 0.6)


class TestEstimateConstant:
    def test_linear_fractional_value(self):
        window = DecayWindow.for_model(LF_MODEL)
        est = estimate_constant(TruncatedSystem(LF_MODEL, K=2), window)
        assert abs(est.c_hat - 1.0 / 3.0) < 1e-4
        assert est.t_star >= 10.0 / window.a
        assert est.k_doubling_change < 1e-6

    def test_range_for_zero_two_free_law(self):
        # {p0 = p1 = 1/2}: q_1(t) = e^{-t/2} exactly, so the constant is 1
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.5, 0.5]))
        est = estimate_constant(TruncatedSystem(m, K=2), DecayWindow.for_model(m))
        assert 0.0 < est.c_hat <= 1.0
        assert est.c_hat == pytest.approx(1.0, abs=1e-7)

    def test_scaled_curve_nonincreasing(self):
        tol = 1e-9
        curves = solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=40.0, tol=tol)
        c1 = curves[0]
        lam = LF_MODEL.decay_rate
        h = np.exp(lam * c1.ts) * c1.qs
        assert np.all(np.diff(h) <= 10.0 * tol)

    def test_requires_subcritical(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            estimate_constant(TruncatedSystem(m, K=2), DecayWindow(a=0.1, epsilon=0.05))

    def test_nonconvergence_reported(self):
        window = DecayWindow.for_model(LF_MODEL)
        with pytest.raises(NonConvergenceError) as exc:
            estimate_constant(
                TruncatedSystem(LF_MODEL, K=2), window, tol=1e-16, t_max=120.0
            )
        assert len(exc.value.tail) > 0


class TestTruncationLowerBound:
    def test_linear_fractional_consistent_with_constant(self):
        # exact curve satisfies q_1 >= C e^{-lambda t}, so the implied
        # constant must be at least C
        report = truncation_lower_bound_check(TruncatedSystem(LF_MODEL, K=2), epsilon=0.05)
        assert report.stabilized
        assert report.c1_implied >= 1.0 / 3.0 - 1e-9
        assert math.isfinite(report.min_value)

    def test_pure_death_exact(self):
        # q_1(t) = e^{-(rho+beta) t} exactly: the margin is epsilon * t,
        # minimized at t = 0 with value 0
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        report = truncation_lower_bound_check(TruncatedSystem(m, K=1), epsilon=0.1)
        assert report.decay_rate == pytest.approx(2.0)
        assert report.min_value == pytest.approx(0.0, abs=1e-12)
        assert report.c1_implied == pytest.approx(1.0, abs=1e-10)
        assert report.t_at_min == 0.0

    def test_insufficient_truncation_rejected(self):
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        with pytest.raises(ValueError, match="K"):
            truncation_lower_bound_check(TruncatedSystem(m, K=1), epsilon=0.05)


@pytest.fixture(scope="module")
def lf_curves():
    window = DecayWindow.for_model(LF_MODEL)  # a = 0.1
    curves = solve_survival(
        TruncatedSystem(LF_MODEL, K=12), t_max=6.0 / window.a + 5.0, tol=1e-9, dt=0.25
    )
    return window, curves


class TestTailShape:
    def test_ratios_bounded_and_contracting(self, lf_curves):
        window, curves = lf_curves
        report = tail_ratio_check(curves, a=window.a)
        assert report.max_ratio_excess <= 1e-6
        assert report.contraction_ok
        for k, slope in report.slopes.items():
            assert slope <= -window.a, (k, slope)

    def test_deviation_dominated_by_fitted_envelope(self, lf_curves):
        # fit the envelope constant on the first half of the tail window and
        # require c * k * e^{-a t} to dominate on the second half
        window, curves = lf_curves
        a = window.a
        ts, ratios = survival_ratios(curves)
        lo, hi = 3.0 / a, 6.0 / a
        mid = (lo + hi) / 2.0
        first = (ts >= lo) & (ts <= mid)
        second = (ts > mid) & (ts <= hi)
        for k in range(2, 11):
            dev = np.abs(ratios[k] - 1.0)
            c_fit = float((dev[first] / (k * np.exp(-a * ts[first]))).max())
            assert np.all(dev[second] <= 1.05 * c_fit * k * np.exp(-a * ts[second]))

    def test_slope_convergence_of_log_curve(self):
        # finite-difference slope of -ln q_1 at t = 20/lambda within 0.5%
        lam = LF_MODEL.decay_rate
        curves = solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=105.0, tol=1e-9, dt=0.5)
        c1 = curves[0]
        t0 = 20.0 / lam
        i = int(np.searchsorted(c1.ts, t0))
        slope = -(math.log(c1.qs[i + 1]) - math.log(c1.qs[i])) / (c1.ts[i + 1] - c1.ts[i])
        assert abs(slope - lam) / lam < 0.005

    def test_ratio_requires_shared_grid(self):
        c1 = solve_survival(TruncatedSystem(LF_MODEL, K=1), t_max=2.0, dt=0.5)
        c2 = solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=2.0, dt=0.25)
        with pytest.raises(ValueError):
            survival_ratios([c1[0], c2[1]])
