import gc
import itertools
import logging
import math
import re
import signal
import tracemalloc

import numpy as np
import pytest
from reference_dopri5 import backward_rhs, dopri5
from scipy.integrate import solve_ivp
from scipy.stats import poisson

from sporesim import (
    ModelParams,
    OffspringDistribution,
    TruncatedSystem,
    estimate_constant,
    solve_survival,
)
from sporesim import analytic
from sporesim.cli import ConfigError, parse_config
from sporesim.model import tail_exponent
from sporesim.analytic import (
    MAX_SIZE,
    NonConvergenceError,
    SolverError,
    _grid,
    _pass,
    _solve_scaled,
    grid_intervals,
    linear_fractional_constant,
)
from survival_checks import (
    closed_form_linear_fractional,
    closed_form_mu0,
    rho_zero_constant,
    survival_ratios,
    tail_ratio_check,
    truncated_mean,
    truncation_lower_bound_check,
    validate_curve,
    volterra_survival,
)

NO_OFFSPRING = OffspringDistribution.table([1.0])
TWO_POINT = OffspringDistribution.table([0.6, 0.0, 0.4])
LF_MODEL = ModelParams(1.0, 0.0, TWO_POINT)
POISSON_MODEL = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
HALF_MODEL = ModelParams(1.0, 0.0, OffspringDistribution.table([0.5, 0.5]))


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

    def test_kernel_bit_identical_to_per_component_floats(self):
        # the in-place kernel against the formula evaluated per component in
        # Python floats, in u (sigma > 0) at t > 0, at rates whose products
        # round; one kernel evaluated at several times, as a pass does
        m = ModelParams(0.3, 0.7, OffspringDistribution.poisson(1.5))
        sys = TruncatedSystem(m, K=30)
        sigma, ptail = m.decay_rate, sys.offspring_table[1:]
        assert sigma > 0.0
        q, tmp, out = np.empty(30), np.empty(30), np.empty(30)
        f = analytic._rhs_kernel(sys, sigma, q, tmp)
        rng = np.random.default_rng(7)
        for t in (0.37, 2.5, 11.0, 40.0):
            q[:] = 2.0 * rng.random(30)
            w = float(ptail.dot(q))
            c = 1.0 - math.exp(-sigma * t) * w
            expected, below = [], 0.0
            for k, qk in enumerate(q.tolist(), start=1):
                rate = m.beta * k
                expected.append((sigma - m.rho - rate) * qk + rate * (below * c + w))
                below = qk
            assert f(out, t) is out
            assert out.tolist() == expected


class TestTruncatedSystem:
    def test_table_law_unchanged_when_support_fits(self):
        sys = TruncatedSystem(LF_MODEL, K=4)
        assert sys.offspring_table[:3] == pytest.approx([0.6, 0.0, 0.4], abs=1e-15)
        assert sys.offspring_table[3:] == pytest.approx([0.0, 0.0])
        assert truncated_mean(sys) == pytest.approx(TWO_POINT.mean, abs=1e-15)

    def test_poisson_tail_mass_moves_to_zero(self):
        d = OffspringDistribution.poisson(2.0)
        sys = TruncatedSystem(ModelParams(0.5, 1.0, d), K=6)
        # p_0 plus the mass above K = 6
        expected = poisson.pmf(0, 2.0) + poisson.sf(6, 2.0)
        assert sys.offspring_table[0] == pytest.approx(expected, abs=1e-12)
        assert sys.offspring_table.sum() == pytest.approx(1.0, abs=1e-12)
        assert truncated_mean(sys) < d.mean

    def test_bad_K(self):
        with pytest.raises(ValueError):
            TruncatedSystem(LF_MODEL, K=0)

    @pytest.mark.parametrize("K", [True, 2.0, "2"], ids=["bool", "float", "str"])
    def test_non_integer_K_rejected(self, K):
        # K=True once built a K = 1 system
        with pytest.raises(TypeError, match="truncation level K must be an integer"):
            TruncatedSystem(LF_MODEL, K=K)

    def test_numpy_integer_K_passes(self):
        assert TruncatedSystem(LF_MODEL, K=np.int64(3)).offspring_table.shape == (4,)


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
            validate_curve(c, tol=1e-9)
            # the curves share one matrix and one error vector: none writes
            assert not c.qs.flags.writeable and not c.err.flags.writeable

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

    def test_nan_tol_rejected_before_any_step(self, monkeypatch):
        # tol=nan once stepped and raised SolverError (step-size underflow)
        def no_pass(*args):
            raise AssertionError("a pass started before tol was checked")

        monkeypatch.setattr(analytic, "_pass", no_pass)
        with pytest.raises(ValueError, match="tol must be positive, got nan"):
            solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=1.0, tol=math.nan)

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.0, -1.0])
    def test_t_max_must_be_positive_and_finite(self, t_max):
        # nan once reported a grid of over 2**22 points
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            grid_intervals(t_max, None)

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=1.0, dt=dt)

    def test_grid_size_rule(self):
        # MAX_SIZE points at most, counted without building the grid
        assert grid_intervals(MAX_SIZE - 1.0, 1.0) == MAX_SIZE - 1
        for t_max, dt in ((float(MAX_SIZE), 1.0), (1.0, 1e-300), (1e300, None)):
            with pytest.raises(ValueError, match="grid points"):
                grid_intervals(t_max, dt)
        with pytest.raises(ValueError, match="grid points"):
            solve_survival(TruncatedSystem(LF_MODEL, K=2), t_max=1e300)

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
        sys = TruncatedSystem(POISSON_MODEL, K=12)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            curves = solve_survival(sys, t_max=5.0, tol=1e-10, dt=0.25)
        (record,) = [r for r in caplog.records if r.name == "sporesim.analytic"]
        passes, accepted, rejected, rhs, err, rows = parse_solve_record(record, K=12, grid=21)
        assert passes >= 2 and accepted >= 20 * passes  # every grid point ends a step
        # RHS evaluations are counted in the stage loop; for full passes they
        # are one first stage per pass plus six per attempted step
        assert rows == [21] * passes
        assert rhs == passes + 6 * (accepted + rejected)
        assert 0.0 < err <= 1e-10
        assert 0.0 < curves[0].err.max() <= 1.01 * err  # err scaled to q by e^{-sigma t}

    @pytest.mark.parametrize(
        "low, warned", [(-1e-12, ["clamped 2 negative survival values to 0"]), (0.0, [])]
    )
    def test_values_clamped_and_negatives_counted(self, monkeypatch, caplog, low, warned):
        # rows are clamped to [0, 1], and a warning counts the negatives, if any
        def rows(sys, ts, tol, row):
            for m in range(len(ts)):
                row(m, np.array([low, 0.5, 1.0 + 1e-12] if m % 2 else [0.25, 0.5, 0.75]))
            return 0.0, np.zeros(len(ts))

        monkeypatch.setattr(analytic, "_solve_scaled", rows)
        with caplog.at_level(logging.WARNING, logger="sporesim.analytic"):
            curves = solve_survival(TruncatedSystem(POISSON_MODEL, K=3), t_max=2.0, dt=0.5)
        assert [r.getMessage() for r in caplog.records] == warned
        assert [c.qs.tolist() for c in curves] == [
            [0.25, 0.0, 0.25, 0.0, 0.25], [0.5] * 5, [0.75, 1.0, 0.75, 1.0, 0.75]
        ]


    @pytest.mark.parametrize(
        "law, K",
        [
            (TWO_POINT, 10),
            (OffspringDistribution.poisson(0.5), 30),
            (OffspringDistribution.geometric(0.6), 40),
        ],
        ids=["lf", "poisson", "geometric"],
    )
    def test_rho_zero_spores_found_independent_families(self, law, K):
        # at rho = 0 a type-k host is k independent type-1 families, in the
        # truncated system too: q_k = 1 - (1 - q_1)^k
        tol = 1e-9
        sys = TruncatedSystem(ModelParams(1.0, 0.0, law), K=K)
        curves = solve_survival(sys, t_max=20.0, tol=tol)
        q1 = curves[0].qs
        for k in (2, 5, 10):
            assert np.abs(curves[k - 1].qs - (1.0 - (1.0 - q1) ** k)).max() <= tol


class TestVolterraReference:
    """``solve_survival`` at rho > 0 against the scalar Volterra equation for
    w = sum_j p_j q_j, a reference that needs no truncation of the law."""

    KS = (1, 3, 10)

    def test_reference_on_closed_forms(self):
        # the reference itself on exact curves: LF at rho = 0 (a table pgf)
        # and pure death at rho > 0.  Measured: gaps at most 7.6e-11 and
        # 4.0e-10, each 15x under its estimate (1.1e-9 and 6.0e-9), as an
        # h^4 error term predicts
        for m, exact in (
            (LF_MODEL, lambda k, t: closed_form_linear_fractional(t, 1.0, 0.6, 0.4)),
            (ModelParams(1.0, 1.0, NO_OFFSPRING), lambda k, t: closed_form_mu0(k, t, 1.0, 1.0)),
        ):
            ks = [1] if m is LF_MODEL else [1, 3]
            ts, ref = volterra_survival(m, 5.0, 125, ks)
            for k in ks:
                q, err = ref[k]
                assert np.all(np.abs(q - [exact(k, t) for t in ts]) <= err)
                assert err.max() <= 1e-8

    @pytest.mark.parametrize(
        "law",
        [OffspringDistribution.poisson(2.0), OffspringDistribution.geometric(0.4)],
        ids=["poisson-2", "geometric-0.4"],
    )
    def test_truncation_gap_falls_to_the_reference_error(self, law):
        # on t <= 5 at steps 0.02, 0.01 and 0.005 the reference's estimated
        # error reaches 3.5e-10 to 5.3e-10 (k = 1) and 2.3e-9 to 3.0e-9
        # (k = 10).  Measured gaps max_t |q_k - reference| over k = 1, 3, 10:
        # Poisson(2), whose mass above 20 is 6e-15, 2.0e-10 at every K;
        # geometric(0.4), whose mass above 20 is 2.2e-5, 3.8e-5 at
        # K = 20, 1.9e-9 at K = 40 and 1.5e-10 at K = 80.  So the gap may not
        # grow with K once at the reference's error, must lie inside that
        # error at every point at K = 80, and at K = 20 must stand 1000x
        # above it for geometric(0.4), whose truncated tail the solver loses
        m = ModelParams(0.5, 1.0, law)
        ts, ref = volterra_survival(m, 5.0, 250, self.KS)
        err = max(e.max() for _, e in ref.values())
        gaps = {}
        for K in (20, 40, 80):
            curves = solve_survival(TruncatedSystem(m, K=K), t_max=5.0, dt=0.02)
            assert np.array_equal(curves[0].ts, ts)
            gap = {k: np.abs(curves[k - 1].qs - ref[k][0]) for k in self.KS}
            gaps[K] = max(g.max() for g in gap.values())
        assert all(np.all(gap[k] <= ref[k][1]) for k in self.KS)  # K = 80
        assert gaps[40] <= max(gaps[20], err) and gaps[80] <= max(gaps[40], err)
        if law.kind == "geometric":
            assert gaps[20] > 1000.0 * err

    def test_finite_support_loses_nothing_to_truncation(self):
        # probs (0.5, 0.2, 0.0, 0.3), beta 0.5, rho 1 (lambda = 0.95): the
        # support ends at 3, so every K >= 3 keeps the whole law.  On t <= 5
        # at step 0.02 the reference's estimated error reaches 3.0e-10 (k = 1)
        # to 1.4e-9 (k = 10).  Measured gaps |q_k - reference|: 2.0e-11
        # (k = 1), 3.9e-11 (k = 3) and 9.6e-11 (k = 10) at every K, at most
        # 0.07 of the reference's error at each point.  So each gap must stay
        # under 2e-10 and under a quarter of that error at every point
        m = ModelParams(0.5, 1.0, OffspringDistribution.table([0.5, 0.2, 0.0, 0.3]))
        ts, ref = volterra_survival(m, 5.0, 250, self.KS)
        for K in (3, 10, 20, 40):
            curves = solve_survival(TruncatedSystem(m, K=K), t_max=5.0, dt=0.02)
            assert np.array_equal(curves[0].ts, ts)
            for k in (k for k in self.KS if k <= K):
                gap = np.abs(curves[k - 1].qs - ref[k][0])
                assert gap.max() <= 2e-10 and np.all(gap <= 0.25 * ref[k][1]), (K, k)


def parse_solve_record(record, K, grid):
    """(passes, accepted, rejected, RHS evaluations, err, rows per pass) of a
    backward-solve debug record."""
    found = re.search(
        rf"K={K} on {grid} grid points: (\d+) passes, (\d+) accepted and (\d+) rejected "
        r"steps, (\d+) RHS evaluations, err (\S+); grid rows reached per pass \[([\d, ]+)\]",
        record.getMessage(),
    )
    assert found, record.getMessage()
    passes, accepted, rejected, rhs = map(int, found.groups()[:4])
    rows = [int(r) for r in found.group(6).split(",")]
    assert len(rows) == passes
    return passes, accepted, rejected, rhs, float(found.group(5)), rows


def full_pass(sys: TruncatedSystem, ts: np.ndarray, tau: float) -> tuple[list[int], np.ndarray]:
    """A pass run to the end of the grid: its work counts, and each row it
    yielded, copied as it came."""
    work: list[int] = []
    rows = []
    for u in _pass(sys, ts, tau, max(sys.params.decay_rate, 0.0), work):
        assert work[0] == len(rows) + 1
        rows.append(u.copy())
    return work, np.array(rows)


def perturb_first_pass(monkeypatch, start: int) -> None:
    """Make the first pass advanced from here on add 1e-6 to its live row at
    every grid row from ``start`` on, so that the first pair disagrees there."""
    passes, real = itertools.count(), analytic._pass

    def perturbed(*args):
        first = next(passes) == 0
        for m, u in enumerate(real(*args)):
            if first and m >= start:
                u += 1e-6
            yield u

    monkeypatch.setattr(analytic, "_pass", perturbed)


def solve_rows(sys: TruncatedSystem, ts: np.ndarray, tol: float, stop=lambda m: False):
    """_solve_scaled's agreed rows, each copied as it came, and its err; stop(m)
    ends the solve at row m."""
    U = np.empty((len(ts), sys.K))

    def row(m, u):
        U[m] = u
        return stop(m)

    _, err = _solve_scaled(sys, ts, tol, row)
    return U[: len(err)], err


class TestInPlacePass:
    """The in-place stage loop against the allocating reference pass: the rows
    a pass yields, one at a time through its one row buffer."""

    @pytest.mark.parametrize(
        "m, K, t_max, dt, tau",
        [
            # survival_poisson's solve: both passes of the accepted pair
            pytest.param(POISSON_MODEL, 200, 10.0, None, 1e-9 / 4, id="poisson-K200-tol/4"),
            pytest.param(POISSON_MODEL, 200, 10.0, None, 1e-9 / 128, id="poisson-K200-tol/128"),
            # estimate_constant's grid for LF (a = 0.1): t_max = 300, dt = 0.5;
            # K=40 rejects ~600 steps per pass where stability limits them
            pytest.param(LF_MODEL, 2, 300.0, 0.5, 1e-9 / 4, id="lf-K2-tol/4"),
            pytest.param(LF_MODEL, 2, 300.0, 0.5, 1e-9 / 128, id="lf-K2-tol/128"),
            pytest.param(LF_MODEL, 40, 300.0, 0.5, 1e-9 / 4, id="lf-K40-tol/4"),
            pytest.param(LF_MODEL, 40, 300.0, 0.5, 1e-9 / 128, id="lf-K40-tol/128"),
            pytest.param(
                ModelParams(1.0, 1.0, NO_OFFSPRING), 6, 2.0, None, 1e-9 / 128, id="death-K6"
            ),
        ],
    )
    def test_bit_identical_to_allocating_reference(self, m, K, t_max, dt, tau):
        sys, ts = TruncatedSystem(m, K=K), _grid(t_max, dt)
        U, accepted, rejected = dopri5(sys, ts, tau, max(m.decay_rate, 0.0))
        work, rows = full_pass(sys, ts, tau)
        assert np.array_equal(rows, U)
        assert work == [len(ts), accepted, rejected, 1 + 6 * (accepted + rejected)]
        if (K, tau) == (40, 1e-9 / 4):
            assert rejected > 500

    def test_step_underflow_matches_reference(self):
        # rates of 1e200 overflow the stages to inf - inf: every step is
        # rejected until the step size underflows, in both implementations
        sys, ts = TruncatedSystem(ModelParams(1e200, 1.0, NO_OFFSPRING), K=6), _grid(1.0, 0.25)
        sigma = sys.params.decay_rate
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="step-size underflow") as ref:
                dopri5(sys, ts, 1e-10, sigma)
            with pytest.raises(SolverError, match="step-size underflow") as ours:
                full_pass(sys, ts, 1e-10)
        assert str(ours.value) == str(ref.value)

    def test_rows_yielded_in_order(self):
        sys, ts = TruncatedSystem(LF_MODEL, K=3), _grid(2.0, 0.5)
        work: list[int] = []
        p = _pass(sys, ts, 1e-10, LF_MODEL.decay_rate, work)
        u = next(p)
        assert work == [1, 0, 0, 0] and np.array_equal(u, np.ones(3))
        for m in range(1, 5):
            assert next(p) is u and work[0] == m + 1  # one row buffer, overwritten row by row
        assert next(p, None) is None and work[0] == 5


class TestPassComparison:
    """Passes compared as they advance: a pair that disagrees restarts from
    t = 0 at a finer tolerance, and the row callback ends both passes at a
    grid row."""

    def test_losing_pass_dropped_at_first_disagreement(self, monkeypatch, caplog):
        # a fault injected into the first pass's live row at row 7 makes the
        # pair lose there; a new pair at the finer pass's tolerance and 1/32
        # of it starts from t = 0, its first pass the dropped finer one again
        tol, sys, ts = 1e-10, TruncatedSystem(POISSON_MODEL, K=12), _grid(5.0, 0.25)
        first_tau = tol / 4.0
        perturb_first_pass(monkeypatch, 7)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            U, err = solve_rows(sys, ts, tol)
        (record,) = [r for r in caplog.records if r.name == "sporesim.analytic"]
        passes, _, _, _, _, rows = parse_solve_record(record, K=12, grid=21)
        assert passes == 4 and rows == [8, 8, 21, 21]
        sigma = POISSON_MODEL.decay_rate
        middle, _, _ = dopri5(sys, ts, first_tau / 32.0, sigma)
        finest, _, _ = dopri5(sys, ts, first_tau / 1024.0, sigma)
        assert np.array_equal(U, finest)
        assert np.array_equal(err, np.abs(finest - middle).max(axis=1))

    def test_precision_check_reads_each_coarse_row(self, monkeypatch):
        # tau = tol/4 = ulp(2): rows of max|u| 1 and 3 keep within it (ulp(3)
        # = ulp(2)), and the third row's |-4| does not; both passes yield the
        # same rows, so they agree, and the finer one stops a row short
        rows, reached = [np.ones(2), np.array([3.0, 1.0]), np.array([0.5, -4.0])], {}

        def fake(sys, ts, tau, sigma, work):
            for n, u in enumerate(rows, 1):
                reached[tau] = n
                yield u

        monkeypatch.setattr(analytic, "_pass", fake)
        sys, ts = TruncatedSystem(LF_MODEL, K=2), _grid(2.0, 1.0)
        with pytest.raises(SolverError, match=r"for \|u\| up to 4$"):
            _solve_scaled(sys, ts, 4.0 * math.ulp(2.0), lambda m, u: None)
        assert reached == {math.ulp(2.0): 3, math.ulp(2.0) / 32.0: 2}

    def test_stop_ends_both_passes_at_the_row(self, caplog):
        sys, ts = TruncatedSystem(POISSON_MODEL, K=12), _grid(5.0, 0.25)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            full, full_err = solve_rows(sys, ts, 1e-10)
            U, err = solve_rows(sys, ts, 1e-10, stop=lambda m: m == 6)
        records = [r for r in caplog.records if r.name == "sporesim.analytic"]
        assert parse_solve_record(records[1], K=12, grid=21)[5] == [7, 7]
        assert np.array_equal(U, full[:7]) and np.array_equal(err, full_err[:7])


def traced_peak(f) -> int:
    """Peak bytes traced while f() runs (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolveMemory:
    """A pass keeps one row: a solve holds only what its caller reads."""

    def test_survival_peaks_near_one_matrix(self):
        # survival_poisson's solve keeps its 401 x 200 curves, and neither
        # the two passes nor the clamp adds a grid-sized array (counting the
        # negatives of a clamp that has none peaked at 1.33 matrices)
        sys = TruncatedSystem(POISSON_MODEL, K=200)
        matrix = 401 * 200 * 8
        peak = traced_peak(lambda: solve_survival(sys, t_max=10.0))
        assert matrix <= peak < 1.25 * matrix

    def test_restart_frees_the_dropped_pair(self, monkeypatch, caplog):
        # a fault in the first pass's row 1 makes the pair lose there: the
        # dropped pair's buffers (12 K-vectors a pass) are freed before the
        # new pair runs, so the solve peaks as one with no restart does (30
        # K-vectors, 3 of them the rows kept); kept to its end, they made 57
        tol, sys, ts = 1e-10, TruncatedSystem(POISSON_MODEL, K=20_000), _grid(0.002, 0.001)
        vector = 8 * sys.K
        sys.offspring_table, sys.release_rates  # cached before tracing
        peak = traced_peak(lambda: solve_rows(sys, ts, tol))
        perturb_first_pass(monkeypatch, 1)
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            restarted = traced_peak(lambda: solve_rows(sys, ts, tol))
        (record,) = [r for r in caplog.records if r.name == "sporesim.analytic"]
        assert parse_solve_record(record, K=sys.K, grid=3)[0] == 4
        assert restarted < peak + vector

    def test_failed_solve_holds_no_pass(self):
        # a row callback that raises at row 1 ends the solve with both passes
        # mid-grid; with the cyclic collector off, their buffers (12 K-vectors
        # a pass) must go when the exception does
        tol, sys, ts = 1e-10, TruncatedSystem(POISSON_MODEL, K=20_000), _grid(0.002, 0.001)
        sys.offspring_table, sys.release_rates  # cached before tracing

        def fail(m, u):
            if m == 1:
                raise RuntimeError("row 1")

        gc.disable()
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="row 1"):
                _solve_scaled(sys, ts, tol, fail)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 8 * sys.K

    def test_constant_peaks_far_below_one_matrix(self):
        # geometric(0.4) at K = 640 over 6,553 points (spacing 0.4): the
        # solve keeps h alone, not a 6,553 x 640 matrix
        m = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4))
        matrix = 6553 * 640 * 8
        est = []
        peak = traced_peak(
            lambda: est.append(estimate_constant(TruncatedSystem(m, K=640), t_max=6552 * 0.4))
        )
        assert est[0].t_star == 40.0
        assert peak < matrix / 20


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
        assert linear_fractional_constant(LF_MODEL) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("probs", [[0.6, 0.0, 0.4], [0.6, 0.0, 0.4, 0.0, 0.0]])
    def test_lf_constant_is_the_closed_form_bit_for_bit(self, probs):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table(probs))
        assert linear_fractional_constant(m) == 1.0 - 0.4 / 0.6

    @pytest.mark.parametrize(
        "m",
        [
            ModelParams(1.0, 0.1, TWO_POINT),
            ModelParams(1.0, 0.0, OffspringDistribution.table([0.6, 0.1, 0.3])),
            ModelParams(1.0, 0.0, OffspringDistribution.table([0.6, 0.0, 0.3, 0.1])),
            ModelParams(1.0, 0.0, OffspringDistribution.table([0.5, 0.0, 0.5])),
            ModelParams(1.0, 0.0, OffspringDistribution.table([0.4, 0.0, 0.6])),
            HALF_MODEL,
            ModelParams(1.0, 0.0, OffspringDistribution.poisson(0.5)),
            ModelParams(1.0, 0.0, OffspringDistribution.geometric(0.6)),
        ],
        ids=["rho", "p1", "p3", "critical", "supercritical", "short", "poisson", "geometric"],
    )
    def test_lf_constant_only_for_linear_fractional_models(self, m):
        assert linear_fractional_constant(m) is None

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


class TestEstimateConstant:
    def test_linear_fractional_value(self):
        est = estimate_constant(TruncatedSystem(LF_MODEL, K=2))
        assert abs(est.c_hat - 1.0 / 3.0) < 1e-4
        assert est.t_star >= 10.0 / tail_exponent(LF_MODEL)
        assert abs(estimate_constant(TruncatedSystem(LF_MODEL, K=4)).c_hat - est.c_hat) < 1e-6

    def test_range_for_zero_two_free_law(self):
        # {p0 = p1 = 1/2}: q_1(t) = e^{-t/2} exactly, so the constant is 1
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.5, 0.5]))
        est = estimate_constant(TruncatedSystem(m, K=2))
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
            estimate_constant(TruncatedSystem(m, K=2), a=0.1)

    def test_nonconvergence_reported(self):
        with pytest.raises(NonConvergenceError) as exc:
            estimate_constant(TruncatedSystem(LF_MODEL, K=2), tol=1e-16, t_max=120.0)
        assert len(exc.value.tail) > 0

    def test_nonconvergence_tail_is_finest_full_pass(self):
        # without a settled row both passes run to the end of the grid, and
        # the tail is the last 10 h(t) of the accepted pair's finer pass
        sys = TruncatedSystem(LF_MODEL, K=2)
        with pytest.raises(NonConvergenceError) as exc:
            estimate_constant(sys, tol=1e-16, t_max=120.0)
        U, _ = solve_rows(sys, _grid(120.0, 0.5), 1e-9)
        assert len(U) == 241
        assert np.array_equal(exc.value.tail, U[-10:, 0])

    @pytest.mark.parametrize(
        "m, K, c_hat, t_star",
        [
            # values of the solver that ran both passes over the whole grid
            # to 30/a; stopping at t* keeps them, since no pass comparison
            # past t* forced a third pass
            (LF_MODEL, 2, 0.3333333337618736, 100.33277870216308),
            (LF_MODEL, 20, 0.3333333337618751, 100.33277870216308),
            (HALF_MODEL, 2, 1.0, 40.0),
        ],
    )
    def test_stops_at_t_star(self, caplog, m, K, c_hat, t_star):
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            est = estimate_constant(TruncatedSystem(m, K=K))
        assert est.c_hat == c_hat and est.t_star == t_star
        solve, record = [r for r in caplog.records if r.name == "sporesim.analytic"]
        found = re.fullmatch(
            rf"constant estimate, K={K}: t\*=\S+ at grid row (\d+) of (\d+)", record.getMessage()
        )
        assert found, record.getMessage()
        row, grid = map(int, found.groups())
        a = tail_exponent(m)  # default grid: dt = min(0.5, (10/a)/100) to 30/a
        assert _grid(30.0 / a, min(0.5, 0.1 / a))[row] == t_star
        assert row + 1 < grid
        # every pass of the one solve stopped there
        assert max(parse_solve_record(solve, K=K, grid=grid)[5]) <= row + 1


    @pytest.mark.parametrize(
        "law, K",
        [
            (TWO_POINT, 2),
            (OffspringDistribution.poisson(0.5), 40),
            (OffspringDistribution.geometric(0.6), 40),
            # the default level, from the tail at tol/1000: K = 2, 11 and 31
            (TWO_POINT, None),
            (OffspringDistribution.poisson(0.5), None),
            (OffspringDistribution.geometric(0.6), None),
        ],
        ids=["lf", "poisson", "geometric", "lf-level", "poisson-level", "geometric-level"],
    )
    def test_matches_rho_zero_quadrature(self, law, K):
        # at rho = 0, C has a quadrature with no truncation
        m = ModelParams(1.0, 0.0, law)
        if K is None:
            K = analytic.default_level(m)
        est = estimate_constant(TruncatedSystem(m, K=K))
        assert abs(est.c_hat - rho_zero_constant(m)) <= 2e-9

    def test_rho_zero_quadrature_on_closed_form(self):
        assert rho_zero_constant(LF_MODEL) == pytest.approx(1.0 / 3.0, abs=1e-11)

    def test_t_max_before_settling_time_rejected_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(analytic, "_solve_scaled", no_solve)
        # LF: a = 0.1, so h(t) cannot settle before 10/a = 100
        with pytest.raises(ValueError, match="settling time"):
            estimate_constant(TruncatedSystem(LF_MODEL, K=2), t_max=99.9)

    @pytest.mark.parametrize(
        "tols", [{"tol": -1.0}, {"tol": 0.0}, {"solver_tol": 0.0}, {"solver_tol": -1e-9}]
    )
    def test_non_positive_tolerance_rejected_before_any_solve(self, monkeypatch, tols):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(analytic, "_solve_scaled", no_solve)
        with pytest.raises(ValueError, match="tol and solver_tol must be positive"):
            estimate_constant(TruncatedSystem(LF_MODEL, K=2), **tols)

    @pytest.mark.parametrize("a, top", [(0.25, 41527), (2.0**-10, 204)])
    def test_settling_floor_rejects_before_any_solve(self, monkeypatch, a, top):
        # K values over the grid to 10/a: 101 points at a = 0.25 (spacing
        # 0.4), 20,481 at 2**-10 (spacing 0.5); 41527 x 101 <= 2**22
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        points = analytic.grid_intervals(10.0 / a, analytic.constant_dt(a)) + 1
        assert top * points <= MAX_SIZE < (top + 1) * points
        analytic.check_settles(HALF_MODEL, top, 1e-8, a)
        message = f"settling time 10/a, K = {top + 1} at {points} grid points"
        with pytest.raises(ValueError, match=message):
            analytic.check_settles(HALF_MODEL, top + 1, 1e-8, a)
        monkeypatch.setattr(analytic, "_solve_scaled", no_solve)
        with pytest.raises(ValueError, match=message):
            estimate_constant(TruncatedSystem(HALF_MODEL, K=top + 1), a=a)
        # the constant experiment solves 2K too, so its K stops at half that:
        # 20,763 at a = 0.25, and 20,764 exits at experiment.K
        text = (
            '{"model": {"beta": 1.0, "rho": 0.0, "offspring": {"kind": "table", "probs": '
            '[0.5, 0.5]}}, "experiment": {"type": "constant", "a": %r, "K": %d}}'
        )
        assert parse_config(text % (a, top // 2)).settings["K"] == top // 2
        with pytest.raises(ConfigError, match=f"level K = {top // 2 + 1}, at 2K: ") as exc:
            parse_config(text % (a, top // 2 + 1))
        assert exc.value.path == "experiment.K"

    def test_default_level_solves_one_pair(self, caplog):
        # geometric(0.4), beta 0.5, rho 1: the estimate at the level of the
        # law's tail at tol/1000 is one solve, one pair of passes; the level
        # settles with its double, which is a second call
        m = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4))
        K = analytic.default_level(m)
        assert K == 56
        with caplog.at_level(logging.DEBUG, logger="sporesim.analytic"):
            est = estimate_constant(TruncatedSystem(m, K=K))
        solve, record = [r for r in caplog.records if r.name == "sporesim.analytic"]
        a = tail_exponent(m)
        grid = len(_grid(30.0 / a, analytic.constant_dt(a)))
        parse_solve_record(solve, K=K, grid=grid)
        assert record.getMessage().startswith(f"constant estimate, K={K}: ")
        assert est.K == K
        assert abs(estimate_constant(TruncatedSystem(m, K=2 * K)).c_hat - est.c_hat) <= 1e-9

    @pytest.mark.parametrize(
        "m, K, delta",
        [
            # LF: K = 1 drops the type-2 offspring, delta_1 = 2 p_2 = 0.8
            (LF_MODEL, 1, 0.8),
            # geometric(0.4), beta 0.5: delta_20 = 0.5 * 0.6^21 (21 + 1.5)
            (ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4)), 20, 0.5 * 0.6**21 * 22.5),
        ],
        ids=["lf-K-1", "geometric-K-20"],
    )
    def test_level_below_the_tail_rejected_before_any_solve(self, monkeypatch, m, K, delta):
        # h(t) at level K falls by at least delta_K >= tol per unit time, so
        # it can never settle: rejected before any solve, as a short t_max is
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(analytic, "_solve_scaled", no_solve)
        assert delta >= 1e-8
        with pytest.raises(ValueError, match=f"K = {K} cannot settle to tol = 1e-08"):
            estimate_constant(TruncatedSystem(m, K=K))

    def test_matches_volterra_tail_at_rho_positive(self):
        # geometric(0.4), beta 0.5, rho 1 (lambda = 0.75) against h(t) =
        # e^{lambda t} q_1(t) from the Volterra reference, which needs no K,
        # with e(t) its error estimate scaled the same way.  h falls to C, so
        # C <= h(t) + e(t) at every t.  Where the reference resolves them, h's
        # drops over 2 time units shrink at least by half from one to the
        # next (measured: by 0.20 to 0.24 on t in [4, 11]), and the tail of
        # such a series is at most its last term: C >= h(t) - e(t) - d(t), with
        # d(t) the last drop plus the reference's error at both ends.  The
        # band is 1.3e-3 wide; the estimate at the default level, with its own
        # settling gap and K-doubling change under 1e-8, is inside it
        m = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4))
        ts, ref = volterra_survival(m, 16.0, 200, [1])
        q, err = ref[1]
        scale = np.exp(m.decay_rate * ts)
        h, e = scale * q, scale * err
        lag = 25  # 2 time units at the reference's step 0.08
        drop = h[lag:-lag] - h[2 * lag :] + e[lag:-lag] + e[2 * lag :]
        prior = h[: -2 * lag] - h[lag:-lag] - e[: -2 * lag] - e[lag:-lag]
        resolved = drop <= prior / 2
        assert resolved.sum() >= 50
        lower = (h[2 * lag :] - e[2 * lag :] - drop)[resolved].max()
        upper = (h + e).min()
        K = analytic.default_level(m)
        est = estimate_constant(TruncatedSystem(m, K=K))
        assert abs(estimate_constant(TruncatedSystem(m, K=2 * K)).c_hat - est.c_hat) < 1e-8
        assert lower <= est.c_hat <= upper


def geometric_tail(p: float, K: int) -> float:
    """sum_{j>K} j p (1 - p)^j in closed form."""
    return (1.0 - p) ** (K + 1) * (K + 1 + (1.0 - p) / p)


def poisson_tail(mu: float, K: int) -> float:
    """sum_{j>K} j P(N = j) = mu P(N >= K) for N ~ Poisson(mu), from scipy."""
    return mu * poisson.sf(K - 1, mu)


class TestTruncationLevelFromTail:
    @pytest.mark.parametrize(
        "law, tail",
        [
            (OffspringDistribution.geometric(0.4), lambda K: geometric_tail(0.4, K)),
            (OffspringDistribution.geometric(0.05), lambda K: geometric_tail(0.05, K)),
            (OffspringDistribution.poisson(2.0), lambda K: poisson_tail(2.0, K)),
            (OffspringDistribution.poisson(300.0), lambda K: poisson_tail(300.0, K)),
        ],
        ids=["geometric-0.4", "geometric-0.05", "poisson-2", "poisson-300"],
    )
    # down to 1e-16 / 1000, where the mean minus a partial sum never gets
    @pytest.mark.parametrize("bound", [1e-3, 1e-11, 1e-19])
    def test_smallest_level_within_the_bound(self, law, tail, bound):
        beta = 0.5
        K = analytic.truncation_level(ModelParams(beta, 1.0, law), bound)
        assert K >= 1
        assert beta * tail(K) <= bound * (1.0 + 1e-9)
        assert K == 1 or beta * tail(K - 1) > bound * (1.0 - 1e-9)

    def test_table_law_exact_at_its_support(self):
        # delta_K is 0 from the largest count with mass on, and positive below
        for probs, K in (
            ([1.0], 1),
            ([0.5, 0.5], 1),
            ([0.6, 0.0, 0.4], 2),
            ([0.6, 0.0, 0.4, 0.0], 2),
            ([0.5, 0.2, 0.2, 0.1], 3),
        ):
            m = ModelParams(1.0, 1.0, OffspringDistribution.table(probs))
            assert analytic.truncation_level(m, 1e-30) == K

    @pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
    def test_non_positive_bound_rejected(self, bound):
        # no level has a tail rate below 0, and every level is below NaN's
        with pytest.raises(ValueError, match="bound must be positive"):
            analytic.truncation_level(LF_MODEL, bound)
        with pytest.raises(ValueError, match="bound must be positive"):
            analytic.check_settles(LF_MODEL, 2, bound, 0.05)

    def test_level_above_max_size_rejected(self, monkeypatch):
        monkeypatch.setattr(analytic, "MAX_SIZE", 64)
        narrow = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4))
        assert analytic.truncation_level(narrow, 1e-11) == 56
        wide = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.05))
        with pytest.raises(ValueError, match="past K = 64"):
            analytic.truncation_level(wide, 1e-11)

    def test_settling_check_on_the_tail_rate(self):
        # a level can settle where delta_K < tol: K = 1 for a law with no
        # mass above 1, and K < 1 never
        half = ModelParams(1.0, 0.0, OffspringDistribution.table([0.5, 0.5]))
        analytic.check_settles(half, 1, 1e-8, 0.25)
        geometric = ModelParams(0.5, 1.0, OffspringDistribution.geometric(0.4))
        level = analytic.truncation_level(geometric, 1e-8)
        assert 0.5 * geometric_tail(0.4, level - 1) > 1e-8 >= 0.5 * geometric_tail(0.4, level)
        analytic.check_settles(geometric, level, 1e-8, 0.25)
        for m, K in ((geometric, level - 1), (half, 0)):
            with pytest.raises(ValueError, match=f"K = {K} cannot settle to tol = 1e-08"):
                analytic.check_settles(m, K, 1e-8, 0.25)


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
    a = tail_exponent(LF_MODEL)  # 0.1
    curves = solve_survival(
        TruncatedSystem(LF_MODEL, K=12), t_max=6.0 / a + 5.0, tol=1e-9, dt=0.25
    )
    return a, curves


class TestTailShape:
    def test_ratios_bounded_and_contracting(self, lf_curves):
        a, curves = lf_curves
        report = tail_ratio_check(curves, a=a)
        assert report.max_ratio_excess <= 1e-6
        assert report.contraction_ok
        for k, slope in report.slopes.items():
            assert slope <= -a, (k, slope)

    def test_deviation_dominated_by_fitted_envelope(self, lf_curves):
        # fit the envelope constant on the first half of the tail window and
        # require c * k * e^{-a t} to dominate on the second half
        a, curves = lf_curves
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
