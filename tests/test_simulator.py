import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp, kstest

from sporesim import (
    BudgetError,
    ModelParams,
    OffspringDistribution,
    PopulationState,
    RandomStream,
    TruncatedSystem,
    closed_form_linear_fractional,
    run_batch,
    run_to_extinction,
    run_to_extinction_reference,
    solve_survival,
    step,
    survival_indicator,
)
from sporesim import simulator
from sporesim.simulator import philox4x64
from sporesim.stats import wilson_interval

NO_OFFSPRING = OffspringDistribution.table([1.0])
TWO_POINT = OffspringDistribution.table([0.6, 0.0, 0.4])
WORD = st.integers(0, 2**64 - 1)


class FamilyWords:
    """Stub stream for step(): serves the waiting-time, type-choice and
    offspring words of one family's Philox blocks, event after event (each
    block's spare word skipped), as uniforms."""

    def __init__(self, seed: int, replicate: int, family: int):
        self.key = (replicate, seed)
        self.family = family
        self.event = 0
        self.words: list[float] = []

    def uniform01(self) -> float:
        if not self.words:
            self.event += 1
            block = philox4x64((self.event, self.family, 0, 0), self.key)
            self.words = [(int(w[0]) >> 11) * 2.0**-53 for w in block[:3]]
        return self.words.pop(0)


class TestPhilox:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=WORD,
        replicate=WORD,
        counter=st.tuples(st.integers(1, 2**64 - 1), WORD, WORD, WORD),
    )
    def test_matches_numpy_philox(self, seed, replicate, counter):
        bitgen = np.random.Philox(key=(seed << 64) | replicate)
        state = bitgen.state
        # numpy increments the counter before each block
        state["state"]["counter"] = np.array([counter[0] - 1, *counter[1:]], dtype=np.uint64)
        state["buffer_pos"] = 4
        bitgen.state = state
        words = philox4x64(counter, (replicate, seed))
        assert [int(w[0]) for w in words] == bitgen.random_raw(4).tolist()

    def test_family_zero_reads_numpy_stream(self):
        events = np.arange(1, 6, dtype=np.uint64)
        words = np.stack(philox4x64((events, 0, 0, 0), (np.full(5, 9, np.uint64), 77)))
        uniforms = ((words.T.ravel() >> np.uint64(11)) * 2.0**-53).tolist()
        stream = RandomStream(77, 9)
        assert uniforms == [stream.uniform01() for _ in range(20)]


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, 7)
        b = RandomStream(42, 7)
        assert [a.uniform01() for _ in range(10)] == [b.uniform01() for _ in range(10)]

    def test_streams_differ(self):
        a = RandomStream(42, 0)
        b = RandomStream(42, 1)
        assert [a.uniform01() for _ in range(5)] != [b.uniform01() for _ in range(5)]

    def test_version_tag(self):
        assert RandomStream(0).version.startswith("philox")

    def test_ranges(self):
        rng = RandomStream(3, 0)
        us = [rng.uniform01() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert all(rng.exponential(2.0) >= 0.0 for _ in range(100))
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(0, 1 << 64)

    def test_buffering_matches_raw_generator(self):
        # the block refill schedule must not alter the draw sequence
        rng = RandomStream(5, 7)
        raw = np.random.Generator(np.random.Philox(key=(5 << 64) | 7)).random(3000)
        assert [rng.uniform01() for _ in range(3000)] == raw.tolist()


class TestPopulationState:
    def test_from_counts(self):
        st = PopulationState.from_counts({1: 2, 3: 1, 5: 0})
        assert st.counts == {1: 2, 3: 1}
        assert st.n_hosts == 3
        assert st.n_spores == 5
        st.check_consistency()

    def test_rejects_bad_types(self):
        with pytest.raises(ValueError):
            PopulationState.from_counts({0: 1})
        with pytest.raises(ValueError):
            PopulationState.from_counts({2: -1})

    def test_copy_is_independent(self):
        st = PopulationState.from_counts({2: 1})
        cp = st.copy()
        cp.counts[2] = 5
        assert st.counts == {2: 1}

    def test_total_rate(self):
        m = ModelParams(2.0, 0.5, NO_OFFSPRING)
        st = PopulationState.from_counts({1: 2, 3: 1})
        assert st.total_rate(m) == 0.5 * 3 + 2.0 * 5


class TestStep:
    def test_single_spore_release_empties(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        st = PopulationState.from_counts({1: 1})
        ev = step(st, m, RandomStream(1, 0))
        assert ev.kind == "release"
        assert ev.host_type == 1
        assert ev.offspring == 0
        assert st.extinct
        assert st.clock > 0.0

    def test_forced_transition_two_to_one(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        st = PopulationState.from_counts({2: 1})
        before = st.n_spores
        step(st, m, RandomStream(2, 0))
        assert st.counts == {1: 1}
        assert (before, st.n_spores) == (2, 1)

    def test_extinct_state_rejected(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        with pytest.raises(ValueError):
            step(PopulationState(), m, RandomStream(0, 0))

    def test_removal_probability(self):
        # {1:2}, rho=1, beta=1: P(first event is removal) = 2/(2+2) = 1/2
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        n = 10**5
        removals = 0
        for i in range(n):
            st = PopulationState.from_counts({1: 2})
            removals += step(st, m, RandomStream(5, i)).kind == "removal"
        assert abs(removals / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_bookkeeping_and_spore_conservation(self):
        # random mixed runs: cached totals stay exact, spore deltas match events
        models = [
            ModelParams(1.0, 0.7, TWO_POINT),
            ModelParams(0.5, 1.0, OffspringDistribution.poisson(1.5)),
            ModelParams(2.0, 0.2, OffspringDistribution.geometric(0.6)),
        ]
        for j, m in enumerate(models):
            st = PopulationState.from_counts({1: 3, 4: 2})
            rng = RandomStream(100 + j, 0)
            while not st.extinct and st.clock < 50.0:
                spores_before = st.n_spores
                ev = step(st, m, rng)
                st.check_consistency()
                if ev.kind == "removal":
                    assert st.n_spores == spores_before - ev.host_type
                else:
                    assert st.n_spores == spores_before - 1 + ev.offspring


class TestRunToExtinction:
    def test_exponential_mean_single_clock(self):
        # {1:1}, rho=0, beta=1, no offspring: extinction ~ Exp(1); replicate
        # i is run_to_extinction on RandomStream(10, i)
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        init = PopulationState.from_counts({1: 1})
        n = 10**5
        total = sum(o.extinction_time for o in run_batch(init, m, 10, replicates=n))
        assert abs(total / n - 1.0) < 3.0 / math.sqrt(n)

    def test_exponential_mean_competing_clocks(self):
        # {1:1}, rho=1, beta=1: first of two Exp(1) clocks ends it ~ Exp(2)
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        init = PopulationState.from_counts({1: 1})
        n = 10**5
        total = sum(o.extinction_time for o in run_batch(init, m, 11, replicates=n))
        assert abs(total / n - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_deterministic(self):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        init = PopulationState.from_counts({2: 3})
        a = run_to_extinction(init, m, RandomStream(77, 4))
        b = run_to_extinction(init, m, RandomStream(77, 4))
        assert a == b

    def test_matches_iterated_step_bitwise(self):
        # step() is the engine's kernel: fed each family's Philox words, it
        # reproduces run_to_extinction bit for bit (time = latest family)
        cases = [
            ModelParams(1.0, 0.5, TWO_POINT),
            ModelParams(0.7, 0.0, OffspringDistribution.poisson(0.8)),
            ModelParams(1.2, 0.3, OffspringDistribution.geometric(0.7)),
        ]
        founders = [1, 1, 1, 1, 3]
        for j, m in enumerate(cases):
            init = PopulationState.from_counts({1: 4, 3: 1})
            fast = run_to_extinction(init, m, RandomStream(50, j))
            clocks = []
            events = 0
            for family, k in enumerate(founders):
                st = PopulationState.from_counts({k: 1})
                rng = FamilyWords(50, j, family)
                while not st.extinct:
                    step(st, m, rng)
                    events += 1
                clocks.append(st.clock)
            assert max(clocks) == fast.extinction_time
            assert events == fast.event_count

    def test_input_not_mutated(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 2})
        run_to_extinction(init, m, RandomStream(8, 0))
        assert init.counts == {1: 2} and init.clock == 0.0

    def test_budget_error(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 100})
        with pytest.raises(BudgetError):
            run_to_extinction(init, m, RandomStream(9, 0), max_events=10)

    def test_horizon_censoring(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 5})
        out = run_to_extinction(init, m, RandomStream(13, 0), horizon=0.0)
        assert out.censored
        assert out.event_count == 0
        full = run_to_extinction(init, m, RandomStream(13, 0))
        cens = run_to_extinction(init, m, RandomStream(13, 0), horizon=full.extinction_time / 2)
        assert cens.censored

    def test_empty_initial_state(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        out = run_to_extinction(PopulationState(), m, RandomStream(1, 0))
        assert out.extinction_time == 0.0
        assert out.event_count == 0


class TestSurvivalIndicator:
    def test_horizon_zero_always_true(self):
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        assert all(survival_indicator(1, 0.0, m, RandomStream(1, i)) for i in range(20))

    def test_matches_closed_form_k1(self):
        # rho=1, beta=1, no offspring, k=1, t=1 -> P(survive) = e^{-2}; replicate
        # i is survival_indicator(1, 1.0, m, RandomStream(21, i))
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        n = 10**5
        init = PopulationState.from_counts({1: 1})
        hits = sum(o.censored for o in run_batch(init, m, 21, replicates=n, horizon=1.0))
        p = math.exp(-2.0)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_matches_closed_form_k3(self):
        # k=3, rho=0.5, beta=1, t=1 -> e^{-0.5} (1 - (1 - e^{-1})^3)
        m = ModelParams(1.0, 0.5, NO_OFFSPRING)
        n = 10**5
        init = PopulationState.from_counts({3: 1})
        hits = sum(o.censored for o in run_batch(init, m, 22, replicates=n, horizon=1.0))
        p = math.exp(-0.5) * (1.0 - (1.0 - math.exp(-1.0)) ** 3)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class TestRunBatch:
    def test_single_replicate_matches_stream_zero(self):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        init = PopulationState.from_counts({1: 3})
        batch = run_batch(init, m, master_seed=33, replicates=1)
        direct = run_to_extinction(init, m, RandomStream(33, 0))
        assert batch == [direct]

    def test_thread_count_invariant(self):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        init = PopulationState.from_counts({1: 10})
        serial = run_batch(init, m, master_seed=44, replicates=64, threads=1)
        parallel = run_batch(init, m, master_seed=44, replicates=64, threads=4)
        assert serial == parallel

    def test_budget_error_carries_replicate(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 50})
        with pytest.raises(BudgetError) as exc:
            run_batch(init, m, master_seed=1, replicates=3, max_events=5)
        assert exc.value.replicate == 0
        assert "replicate 0" in str(exc.value)

    def test_subcritical_all_extinct(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 100})
        outs = run_batch(init, m, master_seed=55, replicates=200)
        assert all(not o.censored for o in outs)


class TestDistributionalProperties:
    def test_monotone_in_initial_type_and_linear_bound(self):
        # survival frequency at fixed t is nondecreasing in k, and bounded
        # by k times the k=1 frequency (within joint 3-sigma bands)
        m = ModelParams(1.0, 0.0, TWO_POINT)
        t = 2.0
        n = 10**5
        freq = {}
        se = {}
        for k in (1, 2, 4, 8):
            init = PopulationState.from_counts({k: 1})
            outs = run_batch(init, m, master_seed=600 + k, replicates=n, horizon=t)
            p = sum(o.censored for o in outs) / n
            freq[k] = p
            se[k] = math.sqrt(p * (1 - p) / n)
        ks = sorted(freq)
        for lo, hi in zip(ks, ks[1:]):
            assert freq[hi] >= freq[lo] - 3 * (se[lo] + se[hi])
        for k in (2, 4, 8):
            assert freq[k] <= k * freq[1] + 3 * (se[k] + k * se[1])

    def test_aggregated_engine_matches_naive_engine(self):
        # two-sample KS between the aggregated engine and the per-clock
        # reference engine, on two small initial states
        m = ModelParams(1.0, 0.5, TWO_POINT)
        n = 4000
        for counts, seed in (({1: 3}, 700), ({2: 1, 3: 1}, 701)):
            init = PopulationState.from_counts(counts)
            agg = [o.extinction_time for o in run_batch(init, m, seed, replicates=n)]
            ref = [
                run_to_extinction_reference(init, m, RandomStream(seed + 50, i)).extinction_time
                for i in range(n)
            ]
            _, p = ks_2samp(agg, ref)
            assert p > 0.001


def test_wilson_sanity_for_batch_use():
    # survival fractions feed Wilson intervals downstream; degenerate cases
    low, high = wilson_interval(0, 10)
    assert low == 0.0 and 0.27 < high < 0.28
    low, high = wilson_interval(10, 10)
    assert high == 1.0


def test_outcome_event_counts_match_total_releases():
    # with no removal and no offspring, a type-k host takes exactly k events
    m = ModelParams(1.0, 0.0, NO_OFFSPRING)
    for k in (1, 2, 5):
        out = run_to_extinction(
            PopulationState.from_counts({k: 1}), m, RandomStream(800, k)
        )
        assert out.event_count == k
        assert out.peak_hosts == 1


class TestBatchEngine:
    @pytest.mark.parametrize("cells", [7, simulator.POOL_CELLS])
    def test_replicate_equals_single_run(self, monkeypatch, cells):
        # the pool size changes which families run together, never a result
        monkeypatch.setattr(simulator, "POOL_CELLS", cells)
        init = PopulationState.from_counts({1: 4, 3: 2})
        for m, horizon in (
            (ModelParams(1.0, 0.5, TWO_POINT), None),
            (ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), 1.5),
        ):
            batch = run_batch(init, m, 123, replicates=64, horizon=horizon)
            for i in (0, 1, 17, 63):
                assert batch[i] == run_to_extinction(
                    init, m, RandomStream(123, i), horizon=horizon
                )

    def test_budget_error_replicate_independent_of_pool(self, monkeypatch):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 20})
        counts = [o.event_count for o in run_batch(init, m, 3, replicates=40)]
        budget = max(counts[:5])
        first = next(i for i, c in enumerate(counts) if c > budget)
        for cells in (5, simulator.POOL_CELLS):
            monkeypatch.setattr(simulator, "POOL_CELLS", cells)
            with pytest.raises(BudgetError) as exc:
                run_batch(init, m, 3, replicates=40, max_events=budget)
            assert exc.value.replicate == first
        run_batch(init, m, 3, replicates=first, max_events=budget)

    def test_peak_hosts_sums_family_peaks(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        out = run_to_extinction(PopulationState.from_counts({2: 3}), m, RandomStream(1, 0))
        assert out.peak_hosts == 3
        assert out.event_count == 6


class TestExactExtinctionLaw:
    """Extinction times from a mixed start against the exact finite-population
    law P(T <= t) = prod_k (1 - q_k(t))^{z_k} (families are independent)."""

    Z = {1: 10_000, 3: 250}

    def test_linear_fractional(self):
        # rho = 0: the spores of a host act independently, so
        # q_k = 1 - (1 - q_1)^k and the law is (1 - q_1)^{sum k z_k}
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts(self.Z)
        times = [o.extinction_time for o in run_batch(init, m, 901, replicates=200)]
        spores = init.n_spores

        def cdf(ts):
            q = np.array([closed_form_linear_fractional(t, 1.0, 0.6, 0.4) for t in ts])
            return np.exp(spores * np.log1p(-q))

        assert kstest(times, cdf).pvalue > 1e-3

    def test_poisson_with_removal(self):
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        init = PopulationState.from_counts(self.Z)
        times = [o.extinction_time for o in run_batch(init, m, 902, replicates=200)]
        t_max = 45.0
        assert max(times) < t_max
        curves = solve_survival(TruncatedSystem(m, K=20), t_max=t_max, tol=1e-10, dt=0.1)
        with np.errstate(divide="ignore"):  # q_k(0) = 1
            log_cdf = sum(z * np.log1p(-curves[k - 1].qs) for k, z in self.Z.items())

        def cdf(ts):
            return np.exp(np.interp(ts, curves[0].ts, log_cdf))

        assert kstest(times, cdf).pvalue > 1e-3


@pytest.mark.parametrize(
    "law",
    [
        OffspringDistribution.poisson(2.0),
        OffspringDistribution.poisson(30.0),
        OffspringDistribution.geometric(0.1),
        OffspringDistribution.geometric(0.9),
        OffspringDistribution.table([0.3, 0.0, 0.25, 0.05, 0.4]),
    ],
    ids=["poisson-2", "poisson-30", "geometric-0.1", "geometric-0.9", "table"],
)
def test_inverse_cdf_offspring_chi_square(law):
    n = 10**6
    u = np.random.Generator(np.random.Philox(key=4242)).random(n)
    draws = law.quantiles(u)
    pmf = np.array([law.pmf(j) for j in range(int(draws.max()) + 1)])
    top = int(np.flatnonzero(n * pmf >= 5.0).max())  # lump the sparse tail
    observed = np.bincount(np.minimum(draws, top + 1), minlength=top + 2)
    expected = n * np.append(pmf[: top + 1], max(0.0, 1.0 - pmf[: top + 1].sum()))
    keep = expected > 0.0
    assert observed[~keep].sum() == 0
    observed, expected = observed[keep], expected[keep]
    _, p = chisquare(observed, expected * observed.sum() / expected.sum())
    assert p > 1e-3
