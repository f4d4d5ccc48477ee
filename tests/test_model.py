import math
import re
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, geom, poisson

from family_draws import family_uniforms
from sporesim import (
    ModelParams,
    OffspringDistribution,
    RandomStream,
    sample_offspring,
)
from sporesim.analytic import truncation_level
from sporesim.model import _GUIDE_CELLS, _LINEAR_SEARCH, _TABLE_MAX, _TABLE_TAIL, tail_exponent


def brute_force_mean(pmf, tail_tol=1e-12):
    """Independent oracle: direct summation of k p_k over probabilities
    p_0, p_1, ... whose remaining mass is provably below tail_tol."""
    assert 1.0 - pmf.sum() < tail_tol, "tail not negligible at the table's end"
    return sum(k * p for k, p in enumerate(pmf.tolist()))


def bisection_quantiles(d: OffspringDistribution, us: list[float]) -> list[int]:
    """Independent oracle for the inverse CDF: bisection in the sampling
    table, and above its top in a longer pmf_table sum, where a u at or
    past that sum's total draws the first j reaching the total."""
    cum = d.cumulative.tolist()
    longer = np.cumsum(d.pmf_table(4 * len(cum) + 64)).tolist()
    end = bisect_left(longer, longer[-1])
    js = [bisect_right(cum, u) for u in us]
    return [j if j < len(cum) else min(bisect_right(longer, u), end) for j, u in zip(js, us)]


class TestMoments:
    def test_table_two_point(self):
        assert OffspringDistribution.table([0.6, 0.0, 0.4]).mean == 0.8

    def test_table_point_mass_one(self):
        assert OffspringDistribution.table([0.0, 1.0]).mean == 1.0

    def test_poisson_vs_brute_force(self):
        d = OffspringDistribution.poisson(2.0)
        pmf = poisson.pmf(np.arange(201), 2.0)
        assert d.mean == pytest.approx(brute_force_mean(pmf), abs=1e-12)
        assert d.mean == pytest.approx(2.0, abs=1e-12)

    def test_geometric_vs_brute_force(self):
        d = OffspringDistribution.geometric(0.5)
        pmf = geom.pmf(np.arange(201), 0.5, loc=-1)  # failures before the first success
        assert d.mean == pytest.approx(brute_force_mean(pmf), abs=1e-12)
        assert d.mean == pytest.approx(1.0, abs=1e-12)

    def test_table_moments_match_direct_loop(self):
        rng = np.random.default_rng(314)
        for _ in range(50):
            raw = rng.random(rng.integers(1, 12))
            probs = raw / raw.sum()
            d = OffspringDistribution.table(probs)
            assert d.mean == sum(k * p for k, p in enumerate(d.probs))


class TestPmfTable:
    @pytest.mark.parametrize(
        "d, law",
        [
            (OffspringDistribution.poisson(2.0), poisson(2.0)),
            (OffspringDistribution.poisson(700.0), poisson(700.0)),
            (OffspringDistribution.geometric(0.4), geom(0.4, loc=-1)),
            (OffspringDistribution.geometric(5e-4), geom(5e-4, loc=-1)),
        ],
        ids=["poisson-2", "poisson-700", "geometric-0.4", "geometric-5e-4"],
    )
    def test_matches_scipy_over_sampling_table(self, d, law):
        # measured largest relative gaps: 4.7e-15, 1.6e-12, 2.2e-16, 1.3e-14
        j = np.arange(len(d.cumulative))
        expected = law.pmf(j)
        assert np.all(expected > 0.0)
        assert np.abs(d.pmf_table(j[-1]) / expected - 1.0).max() <= 1e-11


class TestNormalization:
    def test_tiny_deviation_renormalized(self):
        d = OffspringDistribution.table([0.6, 0.4 - 5e-10])
        assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-15)

    def test_large_deviation_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            OffspringDistribution.table([0.6, 0.3])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OffspringDistribution.table([1.2, -0.2])

    def test_parametric_validation(self):
        with pytest.raises(ValueError):
            OffspringDistribution.poisson(0.0)
        with pytest.raises(ValueError):
            OffspringDistribution.geometric(1.0)
        with pytest.raises(ValueError):
            OffspringDistribution(kind="weibull")

    def test_poisson_mean_whose_pmf_underflows_rejected(self):
        # exp(-800) underflows: pmf_table would be all zeros, which the
        # backward system reads as "no offspring" and sampling cannot invert
        assert OffspringDistribution.poisson(700.0).pmf_table(0)[0] > 0.0
        with pytest.raises(ValueError, match="poisson mean"):
            OffspringDistribution.poisson(800.0)

    def test_geometric_success_whose_table_is_cut_rejected(self):
        # below the bound the table would stop at _TABLE_MAX entries with its
        # tail mass above 2^-32, leaving quantile a tail search with no end
        with pytest.raises(ValueError, match="geometric success probability"):
            OffspringDistribution.geometric(1e-12)
        cum = OffspringDistribution.geometric(5e-4).cumulative
        assert len(cum) <= _TABLE_MAX and 1.0 - cum[-1] <= _TABLE_TAIL


class TestDecayRate:
    def test_two_point_table(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.6, 0.0, 0.4]))
        assert m.decay_rate == pytest.approx(0.2, abs=1e-15)

    def test_mean_one_cancels_beta(self):
        m = ModelParams(1.0, 0.5, OffspringDistribution.table([0.0, 1.0]))
        assert m.decay_rate == pytest.approx(0.5, abs=1e-15)

    def test_zero_mean(self):
        m = ModelParams(2.0, 0.0, OffspringDistribution.table([1.0]))
        assert m.decay_rate == pytest.approx(2.0, abs=1e-15)

    def test_affine_in_mean(self):
        # decay rate must equal rho + beta - beta*mean exactly, for any law
        rng = np.random.default_rng(99)
        for _ in range(50):
            raw = rng.random(rng.integers(1, 10))
            d = OffspringDistribution.table(raw / raw.sum())
            beta = float(rng.uniform(0.1, 3.0))
            rho = float(rng.uniform(0.0, 2.0))
            m = ModelParams(beta, rho, d)
            assert m.decay_rate == pytest.approx(rho + beta - beta * d.mean, abs=1e-13)

    def test_params_rejected_at_construction(self):
        d = OffspringDistribution.table([1.0])
        with pytest.raises(ValueError):
            ModelParams(0.0, 0.0, d)
        with pytest.raises(ValueError):
            ModelParams(1.0, -0.1, d)


class TestSampling:
    def test_point_mass(self):
        d = OffspringDistribution.table([0.0, 0.0, 0.0, 1.0])
        rng = RandomStream(1, 0)
        assert all(sample_offspring(d, rng) == 3 for _ in range(100))

    def test_table_frequency(self):
        d = OffspringDistribution.table([0.6, 0.0, 0.4])
        n = 10**6
        hits = int((d.quantiles(family_uniforms(12345, 0, n)) == 2).sum())
        se = math.sqrt(0.4 * 0.6 / n)
        assert abs(hits / n - 0.4) < 3 * se

    def test_poisson_mean(self):
        d = OffspringDistribution.poisson(2.0)
        n = 10**6
        total = int(d.quantiles(family_uniforms(54321, 0, n)).sum())
        assert abs(total / n - 2.0) < 3 * math.sqrt(2.0 / n)

    def test_table_chi_square(self):
        d = OffspringDistribution.table([0.5, 0.2, 0.2, 0.1])
        n = 10**6
        counts = np.bincount(d.quantiles(family_uniforms(777, 3, n)), minlength=4)
        _, p = chisquare(counts, np.array(d.probs) * n)
        assert p > 0.001

    def test_geometric_chi_square_binned(self):
        d = OffspringDistribution.geometric(0.4)
        n = 200_000
        top = 12  # bin everything >= top together
        draws = d.quantiles(family_uniforms(778, 0, n))
        counts = np.bincount(np.minimum(draws, top), minlength=top + 1)
        expected = np.append(geom.pmf(np.arange(top), 0.4, loc=-1), (1 - 0.4) ** top) * n
        _, p = chisquare(counts, expected)
        assert p > 0.001


    @pytest.mark.parametrize(
        "d",
        [
            OffspringDistribution.table([0.6, 0.0, 0.4]),
            OffspringDistribution.table([1.0]),
            OffspringDistribution.table([0.25, 0.25, 0.0, 0.5]),
            OffspringDistribution.table([0.1, 0.2, 0.3, 0.0, 0.4]),
            OffspringDistribution.poisson(2.0),
            OffspringDistribution.geometric(0.3),
        ],
        ids=["table", "table-1", "table-4", "table-5", "poisson", "geometric"],
    )
    def test_scalar_and_vector_quantiles_agree(self, d):
        # tables of up to four entries are searched by comparisons, longer
        # ones through a guide table: both are the oracle's bisection
        top = float(d.cumulative[-1])
        u = np.concatenate(
            [
                np.random.Generator(np.random.Philox(key=9)).random(2000),
                [0.0, 0.6, top, np.nextafter(top, 0.0), np.nextafter(1.0, 0.0)],
            ]
        )
        expected = bisection_quantiles(d, u.tolist())
        assert [d.quantile(x) for x in u.tolist()] == expected
        assert d.quantiles(u).tolist() == expected

    @pytest.mark.parametrize(
        "d", [OffspringDistribution.poisson(2.0), OffspringDistribution.geometric(0.3)]
    )
    def test_tail_continues_pmf_recursion(self, d):
        # draws above the sampling table's top continue the pmf_table
        # recursion: they equal a search in a longer table
        top = len(d.cumulative) - 1
        c = float(d.cumulative[-1])
        u = np.array([c, c + 0.25 * (1.0 - c), c + 0.5 * (1.0 - c), c + 0.9 * (1.0 - c)])
        longer = np.cumsum(d.pmf_table(top + 60))
        expected = np.searchsorted(longer, u, side="right")
        assert np.all(expected > top)
        assert d.quantiles(u).tolist() == expected.tolist()


def tables(min_size, max_size):
    """Table laws with runs of zero probabilities and trailing zeros: some
    reach a cumulative 1 (or round just past or below it) before the top."""
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=max_size
    ).filter(any)
    return st.builds(
        lambda w, zeros: OffspringDistribution.table(
            (np.array(w + [0.0] * zeros) / sum(w)).tolist()
        ),
        weights,
        st.integers(0, 12),
    ).filter(lambda d: min_size <= len(d.probs) <= max_size)


LAWS = st.one_of(
    tables(_LINEAR_SEARCH + 1, 300),
    tables(1, _LINEAR_SEARCH),
    st.floats(0.1, 50.0).map(OffspringDistribution.poisson),
    st.floats(0.01, 0.9).map(OffspringDistribution.geometric),
)
CELL_EDGES = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS


class TestVectorQuantiles:
    @settings(max_examples=150, deadline=None)
    @given(
        d=LAWS,
        prefixes=st.lists(st.integers(0, 2**32 - 1), max_size=50),
        words=st.lists(st.integers(0, 2**53 - 1), max_size=50),
    )
    # its cumulative sum reaches 1 at j = 1 and passes it at j = 2: every
    # u < 1 draws at most 1, u = 1 continues the recursion to 2
    @example(d=OffspringDistribution.table([0.5, 0.5, 1e-13, 0.0, 0.0]), prefixes=[], words=[])
    # cumulative values on cell edges: only cells holding one inside are split
    @example(d=OffspringDistribution.table([0.25, 0.25, 0.0, 0.5, 0.0]), prefixes=[], words=[])
    # short, with a repeated value and an entry at 1 before the top
    @example(d=OffspringDistribution.table([0.6, 0.0, 0.4, 0.0]), prefixes=[], words=[])
    def test_equal_scalar_quantile_bit_for_bit(self, d, prefixes, words):
        cum = d.cumulative
        top = float(cum[-1])
        u = np.concatenate(
            [
                CELL_EDGES,
                np.nextafter(CELL_EDGES, 0.0),
                np.nextafter(CELL_EDGES, 2.0),
                np.array(prefixes, dtype=float) * 2.0**-32,
                np.array(words, dtype=float) * 2.0**-53,
                [top, np.nextafter(top, 0.0), np.nextafter(1.0, 0.0), 1.0],
            ]
        )
        expected = bisection_quantiles(d, u.tolist())
        assert [d.quantile(x) for x in u.tolist()] == expected
        assert d.quantiles(u).tolist() == expected
        if len(u) % 2:
            u, expected = u[1:], expected[1:]
        assert d.quantiles(u.reshape(2, -1)).tolist() == np.reshape(expected, (2, -1)).tolist()
        if len(cum) > _LINEAR_SEARCH:
            # searchsorted runs only for the cells where the count changes
            # inside (a cumulative value lies strictly between the edges)
            # and for u >= 1
            inside = cum[(cum < 1.0) & (cum * _GUIDE_CELLS % 1.0 > 0.0)]
            split = np.flatnonzero(d._guide < 0)
            assert split.tolist() == sorted({*(inside * _GUIDE_CELLS).astype(int), _GUIDE_CELLS})


class TestTailExponent:
    def test_defaults_midpoints(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.6, 0.0, 0.4]))
        cap = min(m.decay_rate, m.beta)
        assert tail_exponent(m) == cap / 2.0
        assert tail_exponent(m, 0.15) == 0.15
        # an integer a from a config resolves to a float
        wide = ModelParams(4.0, 1.0, OffspringDistribution.table([1.0]))  # cap = 4
        assert type(tail_exponent(wide, 1)) is float

    def test_invalid_rejected(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.6, 0.0, 0.4]))
        cap = min(m.decay_rate, m.beta)  # 0.2 less a rounding error
        for a in (0.3, cap, 0.0, -0.1, math.nan):
            message = f"a = {float(a)!r} must lie in (0, {cap!r})"
            with pytest.raises(ValueError, match=re.escape(message)):
                tail_exponent(m, a)

    def test_supercritical_rejected(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="requires a subcritical model"):
            tail_exponent(m)


class TestTruncationLevel:
    def test_table_full_support(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.6, 0.0, 0.4]))
        # huge slack: k0 = 1 suffices even though p_1 = 0
        assert truncation_level(m, 1.0) == 1
        # tight slack: need the full support
        assert truncation_level(m, 1e-6) == 2

    def test_poisson_matches_direct_search(self):
        d = OffspringDistribution.poisson(2.0)
        eps, beta = 0.05, 0.5
        target = d.mean - eps / beta
        partial, k0 = 0.0, 0
        while True:
            k0 += 1
            partial += k0 * poisson.pmf(k0, 2.0)
            if partial > target:
                break
        assert truncation_level(ModelParams(beta, 0.0, d), eps) == k0
        assert k0 >= 2

    def test_invalid_args(self):
        m = ModelParams(1.0, 0.0, OffspringDistribution.poisson(2.0))
        with pytest.raises(ValueError):
            truncation_level(m, 0.0)
