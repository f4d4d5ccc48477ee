import dataclasses
import hashlib
import inspect
import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp, kstest, norm

from family_draws import family_uniforms
from naive_engine import run_to_extinction_reference
from sporesim import model, simulator
from sporesim.analytic import TruncatedSystem, solve_survival
from sporesim.model import ModelParams, OffspringDistribution
from sporesim.simulator import (
    BudgetError,
    PopulationState,
    RandomStream,
    event_uniforms,
    philox4x32,
    run_batch,
)
from sporesim.stats import wilson_interval
from survival_checks import closed_form_linear_fractional

NO_OFFSPRING = OffspringDistribution.table([1.0])
TWO_POINT = OffspringDistribution.table([0.6, 0.0, 0.4])
WORD32 = st.integers(0, 2**32 - 1)
MASK32 = 2**32 - 1


def philox4x32_scalar(counter, key):
    """One Philox4x32-10 block on Python integers, from the specification
    (Salmon et al., SC'11; Random123's philox4x32round and key bump)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & MASK32
        k0, k1 = (k0 + 0x9E3779B9) & MASK32, (k1 + 0xBB67AE85) & MASK32
    return c0, c1, c2, c3


ARRAYS = ("extinction_times", "censored", "event_counts", "peak_hosts")


def run_one(init, m, seed, index, horizon=None, max_events=simulator.DEFAULT_MAX_EVENTS):
    """Replicate ``index`` under master seed ``seed`` on its own: the engine
    on a batch of that one replicate, whose arrays hold one entry each."""
    return simulator._simulate(init, m, seed, index, 1, horizon, max_events)


def spied_alone(monkeypatch) -> list[tuple]:
    """Record each call of the engine's ``_run_alone`` as (replicate,
    clock, events done, peak hosts)."""
    calls = []
    run_alone = simulator._run_alone

    def spy(pool, i, *args):
        calls.append((int(pool.replicate[i]), *run_alone(pool, i, *args)))
        return calls[-1][1:]

    monkeypatch.setattr(simulator, "_run_alone", spy)
    return calls


def outcome(batch, i=0):
    """Replicate ``i``'s entries in the arrays of ``batch``, by array name."""
    return {name: getattr(batch, name)[i].item() for name in ARRAYS}


def kernel_events(m, counts, uniforms):
    """The engine's transition kernel applied to one population (a one-column
    ``_Rows``) until it dies out, three of ``uniforms`` per event: yields the
    population and the event's (removal, host type, offspring)."""
    draw = iter(uniforms)
    row = kernel_pool(m, [counts])
    while row.hosts[0]:
        removal, host_type, offspring = row.event(*(np.array([next(draw)]) for _ in range(3)))
        yield row, bool(removal[0]), int(host_type[0]), int(offspring[0])


def by_type(rows, i=0):
    """Population i's host counts, {type: count} over the types it holds."""
    return {int(k): float(n) for k, n in zip(rows.types, rows.counts[:, i]) if n}


def family_words(seed: int, replicate: int, family: int, event: int = 0):
    """One family's uniforms, event after event from ``event``, computed
    with the scalar Philox from the v4 layout: event e reads blocks x and y
    with counters (2e + b, family, replicate low and high 32 bits) for
    b = 0, 1 under the seed's two 32-bit halves as key.  The waiting-time
    word is ((x1 << 32) | x0) >> 11, the type-choice word
    (x2 << 21) | (y0 >> 11) and the offspring word (x3 << 21) | (y1 >> 11);
    a 53-bit word w is the uniform w * 2^-53."""
    key = (seed & MASK32, seed >> 32)
    counter = (family, replicate & MASK32, replicate >> 32)
    for e in itertools.count(event):
        x, y = (philox4x32_scalar((2 * e + b, *counter), key) for b in (0, 1))
        for w in (
            ((x[1] << 32) | x[0]) >> 11,
            (x[2] << 21) | (y[0] >> 11),
            (x[3] << 21) | (y[1] >> 11),
        ):
            yield w * 2.0**-53


class TestPhilox:
    @pytest.mark.parametrize(
        "counter, key, expected",
        [
            ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            ((MASK32,) * 4, (MASK32,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
            ),
        ],
        ids=["zero", "ones", "pi"],
    )
    def test_known_answers(self, counter, key, expected):
        # Random123's known-answer vectors for Philox4x32-10
        assert tuple(int(w) for w in philox4x32(counter, key)) == expected
        assert philox4x32_scalar(counter, key) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.tuples(WORD32, WORD32),
        counters=st.lists(st.tuples(WORD32, WORD32, WORD32, WORD32), min_size=1, max_size=8),
    )
    def test_matches_scalar_specification(self, key, counters):
        words = philox4x32(tuple(np.array(c, dtype=np.uint64) for c in zip(*counters)), key)
        assert [tuple(w) for w in zip(*(w.tolist() for w in words))] == [
            philox4x32_scalar(c, key) for c in counters
        ]

    def test_random_stream_serves_family_zero(self):
        # the second case sets the high words of the key and the counter
        for seed, replicate in ((77, 9), (2**40 + 77, 2**33 + 9)):
            stream = RandomStream(seed, replicate)
            family = family_words(seed, replicate, 0)
            assert [stream.uniform01() for _ in range(30)] == list(itertools.islice(family, 30))


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
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(0, 1 << 64)

    @pytest.mark.parametrize("ids", [(1.5, 0), (2, 0.5), (True, 0), (2, False), ("2", 0)])
    def test_non_integer_ids_rejected(self, ids):
        # RandomStream(1.5) once ran as seed 1, and "2" as seed 2
        with pytest.raises(TypeError, match="must be an integer"):
            RandomStream(*ids)

    def test_numpy_integer_ids_pass(self):
        a, b = RandomStream(np.uint64(42), np.int32(7)), RandomStream(42, 7)
        assert (a.seed, a.index) == (42, 7)
        assert [a.uniform01() for _ in range(5)] == [b.uniform01() for _ in range(5)]

    def test_buffering_matches_raw_generator(self):
        # the stream's blocks of 1,024 events must not alter the draw sequence
        rng = RandomStream(5, 7)
        raw = np.stack(event_uniforms(5, np.arange(2500), 0, 7), axis=1).ravel()
        assert [rng.uniform01() for _ in range(3 * 2500)] == raw.tolist()


class TestPopulationState:
    def test_from_counts(self):
        st = PopulationState.from_counts({1: 2, 3: 1, 5: 0})
        assert st == PopulationState({1: 2, 3: 1})
        assert [f.name for f in dataclasses.fields(st)] == ["counts"]

    def test_rejects_bad_types(self):
        with pytest.raises(ValueError):
            PopulationState.from_counts({0: 1})
        with pytest.raises(ValueError):
            PopulationState.from_counts({2: -1})

    @pytest.mark.parametrize("make", [PopulationState.from_counts, PopulationState])
    @pytest.mark.parametrize(
        "counts",
        [{1: 2.7}, {1.5: 3}, {"2": 1}, {1: 2.0}, {True: 1}, {1: True}],
        ids=["float-count", "float-type", "str-type", "whole-float-count", "bool-type", "bool-count"],
    )
    def test_rejects_non_integers(self, counts, make):
        # each once ran as an integer start: {1: 2.7} as two hosts, {1.5: 3}
        # as type 1, {"2": 1} as type 2
        with pytest.raises(TypeError):
            make(counts)

    def test_constructor_applies_the_rule(self):
        # the constructor once kept any dict: {0: 1} failed only inside
        # run_batch, with an IndexError
        assert PopulationState({1: 0, 2: 1}) == PopulationState.from_counts({2: 1})
        assert PopulationState().counts == {}
        with pytest.raises(ValueError):
            PopulationState({0: 1})

    def test_numpy_integers_pass(self):
        st = PopulationState.from_counts({np.int64(2): np.int32(3), np.uint8(1): np.int64(1)})
        assert st == PopulationState({2: 3, 1: 1})
        assert all(type(v) is int for kv in st.counts.items() for v in kv)


class TestStep:
    """The transition kernel, one event at a time on one population."""

    def test_single_spore_release_empties(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        [(row, removal, host_type, offspring)] = kernel_events(m, {1: 1}, family_uniforms(1, 0))
        assert (removal, host_type, offspring) == (0, 1, 0)
        assert row.hosts[0] == 0.0
        assert row.clock[0] > 0.0

    def test_forced_transition_two_to_one(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        row, *_ = next(kernel_events(m, {2: 1}, family_uniforms(2, 0)))
        assert by_type(row) == {1: 1.0}
        assert row.spores[0] == 1.0

    def test_removal_probability(self):
        # {1:2}, rho=1, beta=1: P(first event is removal) = 2/(2+2) = 1/2.
        # Population i draws event 0 of family 0 of replicate i under seed 5,
        # all in one call and one kernel step.
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        n = 10**5
        rows = simulator._Rows(m, [1])
        rows.grow(n)
        rows.counts[0] = rows.hosts[:] = rows.spores[:] = 2.0
        removal = rows.event(*event_uniforms(5, 0, 0, np.arange(n)))[0]
        for i in (0, 1, n - 1):
            _, first, *_ = next(kernel_events(m, {1: 2}, family_uniforms(5, i)))
            assert first == removal[i]
        removals = int(removal.sum())
        assert abs(removals / n - 0.5) < 3 * math.sqrt(0.25 / n)

    def test_bookkeeping_and_spore_conservation(self):
        # random mixed runs: totals stay exact, spore deltas match events
        models = [
            ModelParams(1.0, 0.7, TWO_POINT),
            ModelParams(0.5, 1.0, OffspringDistribution.poisson(1.5)),
            ModelParams(2.0, 0.2, OffspringDistribution.geometric(0.6)),
        ]
        for j, m in enumerate(models):
            spores_before = 1 * 3 + 4 * 2
            for row, removal, host_type, offspring in kernel_events(
                m, {1: 3, 4: 2}, family_uniforms(100 + j, 0)
            ):
                counts = row.counts[:, 0]
                assert row.hosts[0] == counts.sum()
                assert row.spores[0] == (row.types * counts).sum()
                assert counts.min() >= 0.0
                if removal:
                    assert offspring == 0
                    assert row.spores[0] == spores_before - host_type
                else:
                    assert row.spores[0] == spores_before - 1 + offspring
                spores_before = row.spores[0]
                if row.clock[0] >= 50.0:
                    break


class TestRunToExtinction:
    def test_exponential_mean_single_clock(self):
        # {1:1}, rho=0, beta=1, no offspring: extinction ~ Exp(1); replicate
        # i is run_one(init, m, 10, i)
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        init = PopulationState.from_counts({1: 1})
        n = 10**5
        total = run_batch(init, m, 10, replicates=n).extinction_times.sum()
        assert abs(total / n - 1.0) < 3.0 / math.sqrt(n)

    def test_exponential_mean_competing_clocks(self):
        # {1:1}, rho=1, beta=1: first of two Exp(1) clocks ends it ~ Exp(2)
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        init = PopulationState.from_counts({1: 1})
        n = 10**5
        total = run_batch(init, m, 11, replicates=n).extinction_times.sum()
        assert abs(total / n - 0.5) < 3 * 0.5 / math.sqrt(n)

    def test_deterministic(self):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        init = PopulationState.from_counts({2: 3})
        a = run_one(init, m, 77, 4)
        b = run_one(init, m, 77, 4)
        assert a == b

    def test_matches_iterated_step_bitwise(self):
        # the engine's kernel, fed each family's Philox words one event at a
        # time, reproduces run_one bit for bit (time = latest family)
        cases = [
            ModelParams(1.0, 0.5, TWO_POINT),
            ModelParams(0.7, 0.0, OffspringDistribution.poisson(0.8)),
            ModelParams(1.2, 0.3, OffspringDistribution.geometric(0.7)),
        ]
        founders = [1, 1, 1, 1, 3]
        for j, m in enumerate(cases):
            init = PopulationState.from_counts({1: 4, 3: 1})
            fast = run_one(init, m, 50, j)
            clocks = []
            events = 0
            for family, k in enumerate(founders):
                for row, *_ in kernel_events(m, {k: 1}, family_words(50, j, family)):
                    events += 1
                clocks.append(row.clock[0])
            assert max(clocks) == fast.extinction_times[0]
            assert events == fast.event_counts[0]

    def test_family_zero_steps_reproduce_one_host_run(self):
        # family 0's uniforms of replicate r, fed to the kernel from a one-host
        # start, give replicate r
        m = ModelParams(1.2, 0.3, OffspringDistribution.geometric(0.7))
        init = PopulationState.from_counts({3: 1})
        for r in range(5):
            events = 0
            for row, *_ in kernel_events(m, {3: 1}, family_uniforms(51, r)):
                events += 1
            fast = run_one(init, m, 51, r)
            assert (row.clock[0], events) == (fast.extinction_times[0], fast.event_counts[0])

    def test_input_not_mutated(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 2})
        run_one(init, m, 8, 0)
        assert init == PopulationState({1: 2})

    def test_budget_error(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 100})
        with pytest.raises(BudgetError):
            run_one(init, m, 9, 0, max_events=10)

    def test_horizon_censoring(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 5})
        out = run_one(init, m, 13, 0, horizon=0.0)
        assert out.censored[0]
        assert out.event_counts[0] == 0
        full = run_one(init, m, 13, 0)
        cens = run_one(init, m, 13, 0, horizon=full.extinction_times[0] / 2)
        assert cens.censored[0]

    def test_empty_initial_state(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        out = run_one(PopulationState(), m, 1, 0)
        assert out.extinction_times[0] == 0.0
        assert out.event_counts[0] == 0


class TestSurvivalIndicator:
    def test_horizon_zero_always_true(self):
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        init = PopulationState.from_counts({1: 1})
        assert run_batch(init, m, 1, replicates=20, horizon=0.0).censored.all()

    def test_infinite_horizon_runs_to_extinction(self):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        init = PopulationState.from_counts({1: 2, 3: 1})
        never = run_batch(init, m, 3, replicates=50, horizon=math.inf)
        free = run_batch(init, m, 3, replicates=50)
        assert not never.censored.any()
        for name in ARRAYS:
            assert np.array_equal(getattr(never, name), getattr(free, name))

    def test_nan_horizon_rejected(self):
        # it once ran every replicate uncensored while the batch reported nan
        m = ModelParams(1.0, 0.5, TWO_POINT)
        with pytest.raises(ValueError, match="horizon"):
            run_batch(PopulationState.from_counts({1: 1}), m, 3, replicates=5, horizon=math.nan)

    def test_negative_horizon_rejected(self):
        # it once censored every replicate at once
        m = ModelParams(1.0, 0.5, TWO_POINT)
        with pytest.raises(ValueError, match="horizon"):
            run_batch(PopulationState.from_counts({1: 1}), m, 3, replicates=5, horizon=-1.0)

    def test_matches_closed_form_k1(self):
        # rho=1, beta=1, no offspring, k=1, t=1 -> P(survive) = e^{-2}
        m = ModelParams(1.0, 1.0, NO_OFFSPRING)
        n = 10**5
        init = PopulationState.from_counts({1: 1})
        hits = run_batch(init, m, 21, replicates=n, horizon=1.0).censored.sum()
        p = math.exp(-2.0)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_matches_closed_form_k3(self):
        # k=3, rho=0.5, beta=1, t=1 -> e^{-0.5} (1 - (1 - e^{-1})^3)
        m = ModelParams(1.0, 0.5, NO_OFFSPRING)
        n = 10**5
        init = PopulationState.from_counts({3: 1})
        hits = run_batch(init, m, 22, replicates=n, horizon=1.0).censored.sum()
        p = math.exp(-0.5) * (1.0 - (1.0 - math.exp(-1.0)) ** 3)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)


class TestRunBatch:
    def test_single_replicate_matches_stream_zero(self):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        init = PopulationState.from_counts({1: 3})
        batch = run_batch(init, m, master_seed=33, replicates=1)
        assert batch == run_one(init, m, 33, 0)

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

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"max_events": 1000.0}, "max_events must be an integer"),
            ({"max_events": 50.5}, "max_events must be an integer"),
            ({"max_events": True}, "max_events must be an integer"),
            ({"replicates": 2.0}, "replicates must be an integer"),
            ({"replicates": True}, "replicates must be an integer"),
            ({"master_seed": 3.0}, "seed must be an integer"),
            ({"master_seed": True}, "seed must be an integer"),
        ],
        ids=["max_events-whole-float", "max_events-float", "max_events-bool",
             "replicates-float", "replicates-bool", "seed-float", "seed-bool"],
    )
    def test_non_integer_budget_or_count_rejected(self, monkeypatch, bad, message):
        # max_events=1000.0 once ran, 50.5 failed in numpy's uint64 minimum in
        # the drain, replicates=2.0 inside np.zeros, a float seed at its first
        # draw, and True ran as 1
        def no_draw(*args):
            raise AssertionError("drew before the arguments were checked")

        monkeypatch.setattr(simulator, "event_prefixes", no_draw)
        monkeypatch.setattr(simulator, "event_uniforms", no_draw)
        m = ModelParams(1.0, 0.0, TWO_POINT)
        args = {"master_seed": 3, "replicates": 200, "max_events": 1000, **bad}
        with pytest.raises(TypeError, match=message):
            run_batch(PopulationState({1: 5}), m, **args)

    def test_numpy_integer_budget_and_count_pass(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState({1: 5})
        ints = run_batch(init, m, 3, 20, max_events=1000)
        assert run_batch(init, m, np.uint64(3), np.int64(20), max_events=np.uint32(1000)) == ints

    def test_counter_layout_bounds(self):
        # event e reads counters 2e and 2e + 1 < 2^32; a family index is one
        # 32-bit counter word
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 1})
        run_batch(init, m, 1, replicates=2, max_events=simulator.MAX_EVENTS)
        with pytest.raises(ValueError, match="max_events"):
            run_batch(init, m, 1, replicates=2, max_events=simulator.MAX_EVENTS + 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            run_batch(PopulationState.from_counts({1: 2**32}), m, 1, replicates=1)

    def test_refinement_read_at_the_last_events(self):
        # the engine reads event e's block 0 ahead and, where its prefixes
        # leave the event undecided, both blocks in full; at the last events
        # a budget allows, counter 2e + 1 is still a 32-bit word
        seed, family, replicate = 2**40 + 5, 7, 2**33 + 3
        for e in (simulator.MAX_EVENTS - 1, simulator.MAX_EVENTS):
            wait, pick, offspring = itertools.islice(family_words(seed, replicate, family, e), 3)
            assert [float(u) for u in event_uniforms(seed, e, family, replicate)] == [
                wait, pick, offspring
            ]
            ahead = [float(u) for u in simulator.event_prefixes(seed, e, family, replicate)]
            assert ahead[0] == wait
            for prefix, u in zip(ahead[1:], (pick, offspring)):
                assert prefix <= u <= prefix + simulator._PREFIX_SLACK
                assert prefix == int(u * 2**32) * 2.0**-32
            # one host of type 1, rho chosen so the removal/release split
            # falls inside the pick prefix's cell: the kernel must refine
            split = ahead[1] + simulator._PREFIX_SLACK / 2
            m = ModelParams(1.0, split / (1.0 - split), TWO_POINT)
            eager, lazy = kernel_pool(m, [{1: 1}]), kernel_pool(m, [{1: 1}])
            drawn = eager.event(*(np.array([u]) for u in (wait, pick, offspring)))
            refined = lazy.event(
                *(np.array([u]) for u in ahead),
                lambda lanes: event_uniforms(seed, [e], family, replicate)[1:],
            )
            assert lazy.undecided == 1
            assert all(np.array_equal(a, b) for a, b in zip(drawn, refined))
            assert lazy.clock[0] == eager.clock[0] and lazy.hosts[0] == eager.hosts[0]

    def test_subcritical_all_extinct(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts({1: 100})
        outs = run_batch(init, m, master_seed=55, replicates=200)
        assert not outs.censored.any()


def expected_events(m: ModelParams, z: dict[int, int], top: int = 200) -> float:
    """Mean event count of a replicate from counts z, from the sampling
    table alone.  A type-k host's family takes h_k = a_k + b_k c events on
    average: its first event is a release with probability
    pi_k = beta k / (rho + beta k), after which the host is a type-(k-1)
    host and the released spore founds a family worth c = sum_j p_j h_j, so
    a_k = 1 + pi_k a_{k-1} and b_k = pi_k (b_{k-1} + 1) from a_0 = b_0 = 0,
    and c = sum p_j a_j / (1 - sum p_j b_j).  The law is cut at ``top``."""
    p = m.offspring.pmf_table(top)
    assert p.sum() > 1.0 - 1e-15, "the law's mass above top is not negligible"
    a, b = [0.0], [0.0]
    for k in range(1, top + 1):
        pi = m.beta * k / (m.rho + m.beta * k)
        a.append(1.0 + pi * a[-1])
        b.append(pi * (b[-1] + 1.0))
    c = float(p @ a) / (1.0 - float(p @ b))
    return sum(n * (a[k] + b[k] * c) for k, n in z.items())


class TestExpectedEvents:
    """Mean event counts of a batch against :func:`expected_events`."""

    # the sample mean of n iid counts with finite variance is within
    # GATE standard errors of its expectation but with probability about
    # 1e-6 (central limit theorem); the seeds are fixed, so a pass is stable
    GATE = float(norm.isf(0.5e-6))

    def check(self, m, z, seed, n):
        counts = run_batch(PopulationState.from_counts(z), m, seed, n).event_counts
        se = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - expected_events(m, z)) < self.GATE * se

    def test_linear_fractional_without_removal(self):
        # rho = 0: every event is a release, and a spore's family takes
        # 1 / (1 - mu) events on average
        m, z = ModelParams(1.0, 0.0, TWO_POINT), {1: 4, 3: 2}
        assert expected_events(m, z) == pytest.approx(10 / (1 - 0.8), rel=1e-12)
        self.check(m, z, 1201, 20_000)

    def test_poisson_with_removal(self):
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        self.check(m, {3: 1}, 1202, 20_000)


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
            p = outs.censored.sum() / n
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
            agg = run_batch(init, m, seed, replicates=n).extinction_times
            ref = [
                run_to_extinction_reference(init, m, seed + 50, i).extinction_time
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
        out = run_one(PopulationState.from_counts({k: 1}), m, 800, k)
        assert out.event_counts[0] == k
        assert out.peak_hosts[0] == 1


LOW21 = 2**21 - 1


def word_uniform(hi: int, lo: int) -> float:
    """The uniform of the 53-bit word with high 32 bits ``hi`` (block 0)
    and low 21 bits ``lo`` (block 1)."""
    return ((hi << 21) | lo) * 2.0**-53


def kernel_pool(m, columns, types=None):
    """A ``_Rows`` holding one population per dict type -> host count, with
    rows for ``types`` (default: the types the populations hold)."""
    if types is None:
        types = sorted(set().union(*columns))
    rows = simulator._Rows(m, types)
    rows.grow(len(columns))
    for i, column in enumerate(columns):
        for k, n in column.items():
            rows.counts[rows.row_of[k], i] = n
    rows.hosts[:] = rows.counts.sum(axis=0)
    rows.spores[:] = (rows.types[:, None] * rows.counts).sum(axis=0)
    return rows


def lazy_against_eager(m, columns, picks, offsprings):
    """One event on each population of ``columns``, its type-choice and
    offspring words given as (hi, lo) pairs: the kernel fed the 32-bit
    prefixes, reading words in full only where it asks, must leave the pool
    bit for bit as the kernel fed the full uniforms.  Returns the lanes it
    asked for."""
    wait = np.linspace(0.1, 0.9, len(columns))
    full = [np.array([word_uniform(hi, lo) for hi, lo in w]) for w in (picks, offsprings)]
    prefix = [np.array([hi * 2.0**-32 for hi, _ in w]) for w in (picks, offsprings)]
    asked = []

    def read(lanes):
        asked.extend(lanes.tolist())
        return full[0][lanes], full[1][lanes]

    eager, lazy = kernel_pool(m, columns), kernel_pool(m, columns)
    drawn = eager.event(wait, *full)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, lazy.event(wait, *prefix, read)))
    for name in ("counts", "hosts", "spores", "clock"):
        assert np.array_equal(getattr(eager, name), getattr(lazy, name)), name
    assert lazy.undecided == len(asked)
    return asked


def straddle(decision, u):
    """The cell of 32-bit prefixes around uniform ``u`` and low words in it
    on both sides of where ``decision`` (monotone) changes: (hi, [lo, ...])."""
    hi = int(u * 2**32)
    first = decision(word_uniform(hi, 0))
    assert decision(word_uniform(hi, LOW21)) != first, "the cell does not straddle"
    below, above = 0, LOW21  # decision(below) == first != decision(above)
    while above - below > 1:
        mid = (below + above) // 2
        below, above = (mid, above) if decision(word_uniform(hi, mid)) == first else (below, mid)
    return hi, sorted({0, below, above, LOW21})


def first_event(m, column):
    """(removal, host type) of the event the kernel draws at uniform u
    for the population ``column``."""

    def decision(u):
        removal, host_type, _ = kernel_pool(m, [column]).event(
            np.array([0.5]), np.array([u]), np.array([0.0])
        )
        return bool(removal[0]), int(host_type[0])

    return decision


class TestPrefixRefinement:
    """The engine reads a type-choice or offspring uniform in full only where
    its 32-bit prefix cannot decide the event: crafted prefixes whose cell
    holds a boundary are refined, and the result is the eager kernel's."""

    MIXED = {1: 2, 3: 1}  # rho = 0.5, beta = 1: removal rate 1.5, total 6.5

    @pytest.mark.parametrize(
        "u",
        [1.5 / 6.5, 1.0 / 6.5, 3.5 / 6.5],
        ids=["removal-release-split", "removal-type-boundary", "release-type-boundary"],
    )
    def test_pick_straddling_a_boundary(self, u):
        m = ModelParams(1.0, 0.5, TWO_POINT)
        hi, los = straddle(first_event(m, self.MIXED), u)
        columns = [self.MIXED] * len(los)
        asked = lazy_against_eager(m, columns, [(hi, lo) for lo in los], [(0, 0)] * len(los))
        assert asked == list(range(len(los)))

    def test_kind_boundary_below_the_last_running_sum(self):
        # rho = 0.3 and types 1, 2 held 5 and 1 times: the removal rate is
        # 0.3 * 6 = 1.7999999999999998, but the removal running sums end at
        # 1.5 + 0.3 = 1.8.  In this cell (found by search over beta) the
        # scaled uniform's upper end lies between the two, so only the kind
        # check, not the running sum after the chosen type, sees that the
        # removal may be a release
        m = ModelParams(1.4559579657493849, 0.3, TWO_POINT)
        column = {1: 5, 2: 1}
        hi = 644690695
        removal_rate, total = 0.3 * 6.0, 0.3 * 6.0 + m.beta * 7.0
        x = (hi * 2.0**-32 + simulator._PREFIX_SLACK) * total
        assert removal_rate <= x < 1.5 + 0.3
        assert hi == straddle(first_event(m, column), removal_rate / total)[0]
        asked = lazy_against_eager(m, [column] * 2, [(hi, 0), (hi, LOW21)], [(0, 0)] * 2)
        assert asked == [0, 1]

    def test_pick_on_the_top_edge(self):
        # beta = 0.3, types 1, 2, 3 held 1, 2, 3 times: at u = 1 - 2^-53 the
        # scaled uniform 4.2 passes the last running sum 4.199999999999999
        m = ModelParams(0.3, 0.0, TWO_POINT)
        column = {1: 1, 2: 2, 3: 3}
        x = word_uniform(2**32 - 1, LOW21) * (0.3 * 14.0)
        assert x >= np.cumsum(0.3 * np.array([1.0, 4.0, 9.0]))[-1]
        asked = lazy_against_eager(
            m, [column] * 2, [(2**32 - 1, 0), (2**32 - 1, LOW21)], [(0, 0)] * 2
        )
        assert asked == [0, 1]

    def test_offspring_straddling_a_table_step(self):
        m = ModelParams(1.0, 0.0, TWO_POINT)  # P(J <= 0) = 0.6
        hi, los = straddle(m.offspring.quantile, 0.6)
        columns = [{1: 1}] * len(los)
        asked = lazy_against_eager(m, columns, [(0, 0)] * len(los), [(hi, lo) for lo in los])
        assert asked == list(range(len(los)))

    def test_offspring_straddling_the_poisson_tail(self):
        # the sampling table ends where the tail mass is below 2^-32: a
        # uniform past its top continues the recursion, in full
        m = ModelParams(1.0, 0.0, OffspringDistribution.poisson(2.0))
        top = m.offspring.cumulative[-1]
        hi, los = straddle(m.offspring.quantile, top)
        words = [(hi, lo) for lo in los] + [(hi + 1, 0)]  # the next cell lies past the top
        columns = [{1: 1}] * len(words)
        asked = lazy_against_eager(m, columns, [(0, 0)] * len(words), words)
        assert asked == list(range(len(words)))
        assert m.offspring.quantile(word_uniform(hi + 1, 0)) >= len(m.offspring.cumulative)

    def test_decided_prefixes_read_nothing(self):
        m = ModelParams(1.0, 0.5, OffspringDistribution.poisson(2.0))
        rng = np.random.default_rng(8)
        his = rng.integers(0, 2**32, (2, 64)).tolist()
        los = rng.integers(0, LOW21, (2, 64)).tolist()
        words = [list(zip(hi, lo)) for hi, lo in zip(his, los)]
        assert lazy_against_eager(m, [self.MIXED] * 64, *words) == []

    @settings(max_examples=300, deadline=None)
    @given(
        rates=st.tuples(st.sampled_from([0.0, 0.5, 1.3]), st.floats(0.1, 3.0)),
        column=st.dictionaries(st.integers(1, 6), st.integers(1, 4), min_size=1, max_size=4),
        law=st.sampled_from(
            [TWO_POINT, OffspringDistribution.poisson(2.0), OffspringDistribution.geometric(0.4)]
        ),
        near=st.tuples(st.integers(0, 100), st.integers(0, 100)),
        shift=st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
        lows=st.tuples(st.integers(0, LOW21), st.integers(0, LOW21)),
    )
    def test_lazy_matches_eager_next_to_boundaries(self, rates, column, law, near, shift, lows):
        rho, beta = rates
        m = ModelParams(beta, rho, law)
        types = np.array(sorted(column), dtype=float)
        n = np.array([column[k] for k in sorted(column)], dtype=float)
        removal_rate = rho * n.sum()
        total = removal_rate + beta * (types * n).sum()
        # where the kind, the type and the offspring count change, in u
        picks = [removal_rate, *np.cumsum(rho * n), *(removal_rate + np.cumsum(beta * types * n))]
        bounds = (np.array(picks) / total, law.cumulative)
        words = []
        for b, i, d, lo in zip(bounds, near, shift, lows):
            hi = int(b[i % len(b)] * 2**32) + d
            words.append([(min(max(hi, 0), 2**32 - 1), lo)])
        lazy_against_eager(m, [column], *words)


class TestDecide:
    @pytest.mark.parametrize("rows", [255, 256, 300])
    def test_row_is_the_count_of_running_sums_at_most_x(self, rows):
        # a uint8 count of the running sums <= x runs below 256 rows only:
        # lanes whose x passes the top (u = 2) count all rows, which would
        # wrap a byte at 256
        rng = np.random.default_rng(rows)
        n = 64
        m = ModelParams(0.7, 0.4, OffspringDistribution.poisson(2.0))
        counts = rng.integers(0, 2, size=(rows, n)).astype(float)
        counts[-1] += 1.0  # every population holds the top type
        types = np.arange(1, rows + 1, dtype=float)[:, None]
        hosts = counts.sum(axis=0)
        removal_rate = m.rho * hosts
        total = removal_rate + m.beta * (types * counts).sum(axis=0)
        u = rng.random(n)
        u[:8] = 2.0
        u[8:12] = 0.0
        removal, shift, acc, row, _ = simulator._decide(
            m, counts, m.beta * types, removal_rate, total, u, rng.random(n)
        )
        assert 0 < removal.sum() < n
        expected = np.count_nonzero(acc <= u * total - shift, axis=0)
        top = expected == rows
        assert top.sum() == 8
        expected[top] = rows - 1  # x past the top sum: the last occupied row
        assert row.tolist() == expected.tolist()
        assert row.dtype == (np.uint8 if rows < 256 else np.intp)


class TestBatchEngine:
    @pytest.mark.parametrize("cells", [7, simulator.POOL_CELLS])
    def test_replicate_equals_single_run(self, monkeypatch, cells):
        # the pool size changes which families run together, never a result
        monkeypatch.setattr(simulator, "POOL_CELLS", cells)
        mixed = PopulationState.from_counts({1: 4, 3: 2})
        # long-lived families of a wide law: replicate 197 takes 357
        # events, so the drain computes blocks ahead at several depths, and
        # the type scan reaches type 44
        one = PopulationState.from_counts({1: 1})
        wide = ModelParams(1.0, 9.0, OffspringDistribution.geometric(0.1))
        # a wider law still, from one type-30 host: its families hold up to
        # 25 hosts over 35 of some hundred types, so rows are inserted
        # between the types present and dropped as they empty
        wider = ModelParams(1.0, 100.0, OffspringDistribution.geometric(0.01))
        thirty = PopulationState.from_counts({30: 1})
        # a start with a gap: rows 2 to 8 are inserted under the founders' 9
        gapped = PopulationState.from_counts({1: 2, 9: 1})
        poisson = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        for init, m, horizon, n in (
            (mixed, ModelParams(1.0, 0.5, TWO_POINT), None, 64),
            (mixed, poisson, 1.5, 64),
            (one, wide, None, 256),
            (one, wide, 1.0, 256),
            (thirty, wider, None, 64),
            (gapped, poisson, None, 64),
        ):
            batch = run_batch(init, m, 123, replicates=n, horizon=horizon)
            longest = int(np.argmax(batch.event_counts))
            for i in sorted({0, 1, 17, n - 1, longest}):
                assert outcome(batch, i) == outcome(run_one(init, m, 123, i, horizon=horizon))

    def test_kernel_same_for_any_population_count(self):
        # one event on 300 populations at once (running sums added row by
        # row) equals the event on each population alone (one cumsum) and
        # the event on rows for every type up to 12.  Populations that hold
        # types 1, 4 and 12 only run on rows for those three: the rows the
        # offspring and the k -> k-1 moves need are inserted between them
        rng = np.random.default_rng(3)
        probs = rng.random(12)
        m = ModelParams(0.3, 0.7, OffspringDistribution.table((probs / probs.sum()).tolist()))
        n = 300
        for held in (np.arange(1, 13), np.array([1, 4, 12])):
            counts = rng.integers(0, 3, size=(len(held), n)).astype(float)
            counts[rng.integers(0, len(held), size=n), np.arange(n)] += 1.0
            u = rng.random((3, n))

            def kernel(cols, types):
                columns = [
                    {int(k): c for k, c in zip(held, counts[:, i]) if c} for i in cols.tolist()
                ]
                rows = kernel_pool(m, columns, types)
                return rows, rows.event(*u[:, cols])

            together, drawn = kernel(np.arange(n), held)
            assert 0 < drawn[0].sum() < n  # removals and releases
            dense, dense_drawn = kernel(np.arange(n), range(1, 13))
            assert all(np.array_equal(a, b) for a, b in zip(drawn, dense_drawn))
            for name in ("hosts", "spores", "clock"):
                assert np.array_equal(getattr(together, name), getattr(dense, name)), name
            for i in range(n):
                alone, one = kernel(np.array([i]), held)
                assert all(a[0] == b[i] for a, b in zip(one, drawn))
                assert by_type(alone) == by_type(together, i) == by_type(dense, i)
                assert alone.clock[0] == together.clock[i]
        # rows were inserted between the types held, and none of those dropped
        assert set(held) < set(together.types.tolist())

    def test_batch_outcomes_sequence(self):
        # a batch has a length, iterates as one SimOutcome per replicate
        # (built once) and equals a batch of the same outcomes
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        init = PopulationState.from_counts({2: 1})
        n = 40
        batch = run_batch(init, m, 77, replicates=n, horizon=1.0)
        singles = [run_one(init, m, 77, i, horizon=1.0) for i in range(n)]
        assert len(batch) == n
        for name in ARRAYS:
            together = np.concatenate([getattr(one, name) for one in singles])
            assert np.array_equal(getattr(batch, name), together), name
        assert 0 < batch.censored.sum() < n
        outcomes = list(batch)
        assert [next(iter(one)) for one in singles] == outcomes
        assert all(a is b for a, b in zip(batch, outcomes))
        assert [o.censored for o in outcomes] == batch.censored.tolist()
        assert [o.horizon for o in outcomes] == [1.0] * n
        assert [
            math.inf if o.censored else o.extinction_time for o in outcomes
        ] == batch.extinction_times.tolist()
        assert [o.event_count for o in outcomes] == batch.event_counts.tolist()
        assert [o.peak_hosts for o in outcomes] == batch.peak_hosts.tolist()
        assert batch == run_batch(init, m, 77, replicates=n, horizon=1.0)
        assert batch != run_batch(init, m, 78, replicates=n, horizon=1.0)
        assert batch != run_batch(init, m, 77, replicates=n, horizon=2.0)

    def test_work_counters_logged(self, caplog, monkeypatch):
        # a budget of 128 one-row families at the start: the batch needs a
        # second round of families, and the pool re-sizes as its rows grow.
        # Only the last family runs alone, so the drain steps many families
        monkeypatch.setattr(simulator, "POOL_CELLS", 128 * (1 + simulator.LANE_ROWS))
        monkeypatch.setattr(simulator, "_ALONE", 1)
        m = ModelParams(1.0, 9.0, OffspringDistribution.geometric(0.1))
        init = PopulationState.from_counts({1: 1})
        with caplog.at_level(logging.DEBUG, logger="sporesim.simulator"):
            batch = run_batch(init, m, 123, replicates=256)
        (record,) = [r for r in caplog.records if r.name == "sporesim.simulator"]
        found = re.search(
            r"batch of 256 replicates, 256 families: (\d+) engine steps, (\d+) in the drain; "
            r"(\d+) Philox blocks 0 computed in (\d+) calls, (\d+) consumed; (\d+) events left "
            r"undecided by their prefixes, refined from (\d+) blocks; (\d+) events, at most "
            r"(\d+) per replicate; peak hosts at most (\d+); pool of (\d+) families over "
            r"(\d+) type rows at the start, at most (\d+) rows, (\d+) re-sizes; (\d+) families "
            r"finished alone in (\d+) events",
            record.getMessage(),
        )
        assert found, record.getMessage()
        counts = map(int, found.groups())
        steps, drain, computed, calls, consumed, undecided, refined, events, most, peak = (
            next(counts) for _ in range(10)
        )
        lanes, rows, most_rows, resizes, alone, alone_events = counts
        assert (lanes, rows) == (128, 1)
        assert lanes * (rows + simulator.LANE_ROWS) <= simulator.POOL_CELLS
        assert most_rows > rows and resizes > 0
        assert events == batch.event_counts.sum()
        assert most == batch.event_counts.max() == 357
        assert peak == batch.peak_hosts.max()
        # no horizon: every block read in a step is an event, and the last
        # families run alone on blocks of their own
        assert consumed + alone_events == events
        assert alone == 1 and alone_events > 0
        assert computed > consumed  # blocks computed ahead for families that died first
        # a prefix leaves an event undecided about once in 2^32 per boundary
        assert refined == 2 * undecided and undecided <= consumed // 100
        assert steps + alone_events >= most and 0 < drain < steps
        assert calls < steps  # drain steps read blocks computed by earlier calls
        assert calls >= 3  # the drain computes ahead at several depths

    def test_families_alone_equal_engine_steps(self, monkeypatch):
        # the drain's last families, finished one at a time in Python
        # floats, end bit for bit as engine steps would end them: at no
        # family alone and at every family alone once all have started
        one = PopulationState.from_counts({1: 1})
        cases = [
            (PopulationState.from_counts({1: 4, 3: 2}), ModelParams(1.0, 0.5, TWO_POINT), None),
            (one, ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), 1.5),
            (one, ModelParams(1.0, 9.0, OffspringDistribution.geometric(0.1)), None),
            (
                PopulationState.from_counts({30: 1}),
                ModelParams(1.0, 100.0, OffspringDistribution.geometric(0.01)),
                0.2,
            ),
            (PopulationState.from_counts({2: 3}), ModelParams(1.0, 0.0, NO_OFFSPRING), None),
        ]
        for init, m, horizon in cases:
            batches = []
            for alone in (0, 10**9):
                monkeypatch.setattr(simulator, "_ALONE", alone)
                batches.append(run_batch(init, m, 31, replicates=64, horizon=horizon))
            steps, alone = batches
            for name in ARRAYS:
                assert np.array_equal(getattr(steps, name), getattr(alone, name)), name
            if horizon is not None:
                assert 0 < steps.censored.sum() < 64
        # over budget: the same first replicate either way
        m, init = ModelParams(1.0, 0.0, TWO_POINT), PopulationState.from_counts({1: 20})
        counts = run_batch(init, m, 3, replicates=40).event_counts
        budget = int(counts[:5].max())
        for alone in (0, 10**9):
            monkeypatch.setattr(simulator, "_ALONE", alone)
            with pytest.raises(BudgetError) as exc:
                run_batch(init, m, 3, replicates=40, max_events=budget)
            assert exc.value.replicate == int(np.flatnonzero(counts > budget)[0])

    def test_unreached_horizon_changes_nothing(self):
        # at a horizon no replicate reaches, the step that censors ends every
        # family as the step without a horizon does
        for counts, m in (
            ({1: 3, 3: 1}, ModelParams(1.0, 0.0, TWO_POINT)),
            ({2: 1}, ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))),
        ):
            init = PopulationState.from_counts(counts)
            free, far = (run_batch(init, m, 123, 2000, horizon=h) for h in (None, 1e300))
            for name in ARRAYS:
                assert np.array_equal(getattr(free, name), getattr(far, name)), name

    def test_alone_breaks_ties_as_the_kernel(self, monkeypatch):
        # a scaled uniform exactly on a running sum picks the next type, in
        # a step and alone: types 1 and 2 held once have sums 1.0 and 3.0,
        # and (1/3) * 3.0 rounds to 1.0; the release of the type-2 host
        # leaves 3 hosts, that of the type-1 host would leave 2
        m = ModelParams(1.0, 0.0, TWO_POINT)
        u = (np.array([0.5]), np.array([1.0 / 3.0]), np.array([0.9]))
        assert u[1][0] * 3.0 == 1.0
        removal, host_type, offspring = kernel_pool(m, [{1: 1, 2: 1}]).event(*u)
        assert (removal[0], host_type[0], offspring[0]) == (False, 2, 2)
        monkeypatch.setattr(simulator, "event_uniforms", lambda seed, e, f, r: u)
        pool = kernel_pool(m, [{1: 1, 2: 1}])
        pool.peak[0] = 2.0
        clock, done, peak = simulator._run_alone(pool, 0, 0, math.inf, 0)
        assert (done, peak) == (1, 3.0)

    def test_family_cut_alone_censored_by_the_common_path(self, monkeypatch):
        # every family runs alone from its first event: one the horizon cuts
        # returns its clock past the horizon, and the step's bookkeeping
        # censors it and counts its events and peak as the engine's step would
        calls = spied_alone(monkeypatch)
        monkeypatch.setattr(simulator, "_ALONE", 10**9)
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        init = PopulationState.from_counts({2: 1})
        batch = run_batch(init, m, 5, replicates=32, horizon=1.5)
        assert sorted(r for r, *_ in calls) == list(range(32))
        for r, clock, done, peak in calls:
            cut = clock > 1.5
            assert batch.censored[r] == cut
            assert batch.extinction_times[r] == (math.inf if cut else clock)
            assert (batch.event_counts[r], batch.peak_hosts[r]) == (done, peak)
        assert 0 < batch.censored.sum() < 32
        monkeypatch.setattr(simulator, "_ALONE", 0)
        assert batch == run_batch(init, m, 5, replicates=32, horizon=1.5)

    def test_family_past_the_budget_alone_stops_later_replicates(self, monkeypatch):
        # every family runs alone, in replicate order: the first one past the
        # budget fails the batch, and no later replicate runs alone after it
        m, init = ModelParams(1.0, 0.0, TWO_POINT), PopulationState.from_counts({1: 1})
        counts = run_batch(init, m, 3, replicates=40).event_counts
        budget = int(counts[:5].max())
        first = int(np.flatnonzero(counts > budget)[0])
        assert first < 39
        calls = spied_alone(monkeypatch)
        monkeypatch.setattr(simulator, "_ALONE", 10**9)
        with pytest.raises(BudgetError) as exc:
            run_batch(init, m, 3, replicates=40, max_events=budget)
        assert exc.value.replicate == first
        assert [r for r, *_ in calls] == list(range(first + 1))
        assert calls[-1][2] == budget + 1  # the event past the budget, counted

    @pytest.mark.parametrize(
        "m, counts, horizon",
        [
            (ModelParams(0.1, 2.5, OffspringDistribution.geometric(0.05)), {1: 1}, None),
            (ModelParams(1.0, 0.0, TWO_POINT), {1: 4, 3: 2}, 3.0),
        ],
        ids=["geometric", "lf"],
    )
    def test_same_arrays_at_any_alone_count(self, monkeypatch, m, counts, horizon):
        init = PopulationState.from_counts(counts)
        calls = spied_alone(monkeypatch)
        batches = []
        for alone in (0, 8, 64):
            monkeypatch.setattr(simulator, "_ALONE", alone)
            calls.clear()
            batches.append(run_batch(init, m, 41, replicates=1000, horizon=horizon))
            assert (0 < len(calls) <= alone) == (alone > 0)
        for batch in batches[1:]:
            for name in ARRAYS:
                assert np.array_equal(getattr(batches[0], name), getattr(batch, name)), name
        if horizon is not None:
            assert batches[0].censored.any()

    def test_same_batch_on_every_scan_and_search_path(self, monkeypatch, caplog):
        # the type scan's row loop and cumsum (_ROW_SUMS), its uint8 count and
        # count_nonzero (_BYTE_ROWS), and the offspring table's linear search
        # and guide table (model._LINEAR_SEARCH) give the same batch
        cases = [
            ({1: 40, 3: 20}, ModelParams(1.0, 0.0, TWO_POINT), 20, None),
            ({3: 1}, ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), 3000, 10.0),
            # a wide law: many sparse type rows, and families finished alone
            ({30: 1}, ModelParams(1.0, 20.0, OffspringDistribution.geometric(0.05)), 300, None),
        ]
        paths = [
            (simulator, "_ROW_SUMS", 0),
            (simulator, "_ROW_SUMS", 2**30),
            (simulator, "_BYTE_ROWS", 1),
            (model, "_LINEAR_SEARCH", 0),
        ]
        for counts, m, replicates, horizon in cases:
            init = PopulationState.from_counts(counts)
            with caplog.at_level(logging.DEBUG, logger="sporesim.simulator"):
                default = run_batch(init, m, 7, replicates=replicates, horizon=horizon)
            for module, name, value in paths:
                with monkeypatch.context() as patch:
                    patch.setattr(module, name, value)
                    batch = run_batch(init, m, 7, replicates=replicates, horizon=horizon)
                for array in ARRAYS:
                    assert np.array_equal(getattr(default, array), getattr(batch, array)), (
                        name,
                        value,
                        array,
                    )
        wide = caplog.records[-1].getMessage()
        assert "; 8625 events," in wide and "at most 75 rows" in wide
        assert wide.endswith("8 families finished alone in 2795 events")

    @pytest.mark.parametrize("alone", [0, 10**9], ids=["pool", "alone"])
    @pytest.mark.parametrize("horizon", [None, 0.0, 1.5, math.inf], ids=str)
    def test_censored_read_from_the_extinction_time(self, monkeypatch, alone, horizon):
        # a replicate is censored exactly when its full extinction time, the
        # latest of its families', passes the horizon: in engine steps and
        # with every family finished alone from its first event
        monkeypatch.setattr(simulator, "_ALONE", alone)
        calls = spied_alone(monkeypatch)
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        init = PopulationState({1: 2, 2: 1})
        full = run_batch(init, m, 5, replicates=64)
        calls.clear()
        batch = run_batch(init, m, 5, replicates=64, horizon=horizon)
        assert (len(calls) == 3 * 64) == (alone > 0)
        assert not batch.censored.flags.writeable
        assert np.array_equal(batch.censored, batch.extinction_times == math.inf)
        end = math.inf if horizon is None else horizon
        cut = full.extinction_times > end
        assert np.array_equal(batch.censored, cut)
        assert np.array_equal(batch.extinction_times[~cut], full.extinction_times[~cut])
        assert [o.censored for o in batch] == cut.tolist()
        if horizon == 1.5:
            assert 0 < cut.sum() < 64
        elif horizon == 0.0:
            assert cut.all()

    def test_batch_outcomes_derive_censored(self):
        # the constructor takes no censoring flags: they are the infinite times
        params = list(inspect.signature(simulator.BatchOutcomes).parameters)
        assert params == ["extinction_times", "event_counts", "peak_hosts", "horizon"]
        batch = simulator.BatchOutcomes(
            np.array([0.5, math.inf]), np.array([3, 9]), np.array([1, 4]), 2.0
        )
        assert batch.censored.tolist() == [False, True]
        with pytest.raises(ValueError):
            batch.censored[0] = True
        assert [o.extinction_time for o in batch] == [0.5, None]

    def test_budget_error_replicate_independent_of_pool(self, monkeypatch):
        for counts, m, horizon in (
            ({1: 20}, ModelParams(1.0, 0.0, TWO_POINT), None),
            # one family per replicate: the family itself passes the budget
            # while it runs, at rho = 0 and at rho > 0 to a horizon
            ({1: 1}, ModelParams(1.0, 0.0, TWO_POINT), None),
            ({2: 1}, ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), 3.0),
        ):
            init = PopulationState.from_counts(counts)
            events = run_batch(init, m, 3, replicates=40, horizon=horizon).event_counts
            budget = int(events[:5].max())
            first = int(np.flatnonzero(events > budget)[0])
            for cells in (5, simulator.POOL_CELLS):
                monkeypatch.setattr(simulator, "POOL_CELLS", cells)
                with pytest.raises(BudgetError) as exc:
                    run_batch(init, m, 3, replicates=40, horizon=horizon, max_events=budget)
                assert exc.value.replicate == first
            run_batch(init, m, 3, replicates=first, horizon=horizon, max_events=budget)

    def test_runaway_family_stops_at_the_budget(self, caplog, monkeypatch):
        # a supercritical family never ends by itself: the engine step that
        # takes it past the budget ends the batch
        monkeypatch.setattr(simulator, "_ALONE", 0)
        m = ModelParams(1.0, 0.0, OffspringDistribution.table([0.2, 0.0, 0.8]))
        with caplog.at_level(logging.DEBUG, logger="sporesim.simulator"):
            with pytest.raises(BudgetError) as exc:
                run_batch(PopulationState.from_counts({1: 1}), m, 0, 1, max_events=500)
        assert exc.value.replicate == 0
        (record,) = [r for r in caplog.records if r.name == "sporesim.simulator"]
        assert ": 501 engine steps," in record.getMessage()

    def test_scatter_indices_non_negative(self, monkeypatch):
        # ufunc.at takes a slower path when any index is negative: every
        # count update scatters at a non-negative flat index, type 0 into
        # the sink row, on dense rows (LF), with removals to a horizon
        # (Poisson) and on sparse rows (geometric)
        scattered = []

        def checked(ufunc):
            class Checked:
                def __getattr__(self, name):
                    return getattr(ufunc, name)

                def at(self, a, index, *values):
                    assert np.min(index) >= 0
                    scattered.append(ufunc.__name__)
                    ufunc.at(a, index, *values)

            return Checked()

        class Numpy:
            add, subtract = checked(np.add), checked(np.subtract)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(simulator, "np", Numpy())
        for counts, m, horizon, n, _ in self.GOLDEN:
            scattered.clear()
            run_batch(PopulationState.from_counts(counts), m, 123, n // 10, horizon=horizon)
            assert {"add", "subtract"} <= set(scattered)

    def test_store_invariants_after_every_event(self, monkeypatch):
        # a wide law on sparse rows: an event that brings a new type lays
        # the store out anew inside the kernel, and the count updates after
        # it must land in the new store
        event = simulator._Rows.event
        relaid = 0

        def checked(rows, *args):
            nonlocal relaid
            store = rows.store
            drawn = event(rows, *args)
            relaid += rows.store is not store
            assert not rows.store[0].any()  # the sink holds nothing
            assert rows.counts.base is rows.store and rows.counts.flags.c_contiguous
            assert rows.counts.shape == rows.store[1:].shape
            assert rows.counts.ctypes.data == rows.store[1:].ctypes.data
            assert np.array_equal(rows.hosts, rows.counts.sum(axis=0))
            assert np.array_equal(rows.spores, rows.types @ rows.counts)
            return drawn

        monkeypatch.setattr(simulator._Rows, "event", checked)
        counts, m, horizon, _, _ = self.GOLDEN[2]  # geometric(0.05)
        run_batch(PopulationState.from_counts(counts), m, 123, 100, horizon=horizon)
        assert relaid > 0

    # SHA-256 of a batch's arrays at seed 123, pinned before the engine's
    # step operations were rewritten in cheaper numpy forms: a rewrite of
    # the engine must leave every bit of them.  LF from a mixed start,
    # Poisson(2) with removal to a horizon, a wide geometric law, and two
    # laws with removal at rates whose products round
    GEOMETRIC = OffspringDistribution.geometric(0.05)
    GOLDEN = [
        (
            {1: 4, 3: 2}, ModelParams(1.0, 0.0, TWO_POINT), None, 4000,
            "fda99281582bc98df356341bd66a4068d58ca746ef425691fe150b02e480f147",
        ),
        (
            {1: 4, 3: 2}, ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0)), 1.5, 4000,
            "86708dc2a3748b28ec571a0edfff6be08f839b8896b7334c5411346317547d22",
        ),
        (
            {1: 1}, ModelParams(1.0, GEOMETRIC.mean + 1.0, GEOMETRIC), None, 1000,
            "0817517ec68a010bdc60884325b956498087350fc3519dc571871e12ff632045",
        ),
        (
            {1: 4, 3: 2}, ModelParams(0.3, 0.7, OffspringDistribution.poisson(1.5)), 2.0, 4000,
            "425c3a2acfd46d9407ee009433830b8105fe2aed477d235e7c73e915c871234b",
        ),
        (
            {2: 3, 5: 1}, ModelParams(0.35, 0.45, OffspringDistribution.geometric(0.4)), None, 2000,
            "1000a828d40b3fc4d4294f9f67cc5d8981969c086bc9c267e27083b5859edd05",
        ),
    ]

    @pytest.mark.parametrize(
        "counts, m, horizon, n, digest",
        GOLDEN,
        ids=["lf", "poisson-horizon", "geometric", "poisson-inexact", "geometric-inexact"],
    )
    def test_golden_outcomes(self, counts, m, horizon, n, digest):
        batch = run_batch(PopulationState.from_counts(counts), m, 123, n, horizon=horizon)
        h = hashlib.sha256()
        for a in (batch.extinction_times, batch.censored, batch.event_counts, batch.peak_hosts):
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    def test_refilled_columns_start_empty(self, monkeypatch):
        # a small pool refills slots of censored families, whose columns
        # still hold hosts, and of extinct ones: every refilled population
        # starts from its one host and nothing else, with no events done,
        # a peak of 1, and the next family in (replicate, family) order
        monkeypatch.setattr(simulator, "POOL_CELLS", 64)
        found = simulator._Rows.found
        founders = np.array([1, 1, 1, 1, 3, 3])  # the families of {1: 4, 3: 2}
        cleared = []
        started = 0  # families started so far

        def checked(rows, slots, types, replicate, family, key):
            old = slots[slots < len(rows.hosts)]  # the others are new slots
            empty = rows.hosts[old] == 0.0
            assert not rows.counts[:, old[empty]].any()  # died out: left nothing
            cleared.append(int((~empty).sum()))
            found(rows, slots, types, replicate, family, key)
            cells = rows.counts[:, slots]
            assert np.array_equal(cells.sum(axis=0), np.ones(len(slots)))
            assert np.array_equal(rows.types[cells.argmax(axis=0)], types)
            assert not rows.done[slots].any()
            assert np.array_equal(rows.peak[slots], np.ones(len(slots)))
            nonlocal started
            r, f = np.divmod(np.arange(started, started + len(slots)), len(founders))
            started += len(slots)
            assert np.array_equal(rows.replicate[slots], r)
            assert np.array_equal(rows.family[slots], f)
            assert np.array_equal(rows.key[slots], r)  # run_batch starts at replicate 0
            assert np.array_equal(types, founders[f])

        monkeypatch.setattr(simulator._Rows, "found", checked)
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        batch = run_batch(PopulationState.from_counts({1: 4, 3: 2}), m, 123, 200, horizon=1.5)
        assert 0 < batch.censored.sum() < 200
        assert sum(cleared) > 0  # columns of censored families were refilled
        assert started == 200 * len(founders)  # every family started once

    def test_peak_hosts_sums_family_peaks(self):
        m = ModelParams(1.0, 0.0, NO_OFFSPRING)
        out = run_one(PopulationState.from_counts({2: 3}), m, 1, 0)
        assert out.peak_hosts[0] == 3
        assert out.event_counts[0] == 6


class TestExactExtinctionLaw:
    """Extinction times from a mixed start against the exact finite-population
    law P(T <= t) = prod_k (1 - q_k(t))^{z_k} (families are independent)."""

    Z = {1: 10_000, 3: 250}

    def test_linear_fractional(self):
        # rho = 0: the spores of a host act independently, so
        # q_k = 1 - (1 - q_1)^k and the law is (1 - q_1)^{sum k z_k}
        m = ModelParams(1.0, 0.0, TWO_POINT)
        init = PopulationState.from_counts(self.Z)
        times = run_batch(init, m, 901, replicates=200).extinction_times
        spores = sum(k * n for k, n in self.Z.items())

        def cdf(ts):
            q = np.array([closed_form_linear_fractional(t, 1.0, 0.6, 0.4) for t in ts])
            return np.exp(spores * np.log1p(-q))

        assert kstest(times, cdf).pvalue > 1e-3

    def test_poisson_with_removal(self):
        m = ModelParams(0.5, 1.0, OffspringDistribution.poisson(2.0))
        init = PopulationState.from_counts(self.Z)
        times = run_batch(init, m, 902, replicates=200).extinction_times
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
    pmf = law.pmf_table(int(draws.max()))
    top = int(np.flatnonzero(n * pmf >= 5.0).max())  # lump the sparse tail
    observed = np.bincount(np.minimum(draws, top + 1), minlength=top + 2)
    expected = n * np.append(pmf[: top + 1], max(0.0, 1.0 - pmf[: top + 1].sum()))
    keep = expected > 0.0
    assert observed[~keep].sum() == 0
    observed, expected = observed[keep], expected[keep]
    _, p = chisquare(observed, expected * observed.sum() / expected.sum())
    assert p > 1e-3
