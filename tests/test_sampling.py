from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rpyspect.errors import DomainError, OffsetTooLargeError
from rpyspect.model import YEAR_BITS
from rpyspect.sampling import (
    ClusterSampler,
    NoneSampler,
    RandomSampler,
    SystematicSampler,
    removal_threshold,
)

from conftest import folded, select


def occ(i: int, py: int = 2000) -> tuple[str, int]:
    return (f"AUTHOR {i}, 1990, JOURNAL", py)


def population(n: int) -> list[tuple[str, int]]:
    return [occ(i) for i in range(n)]


class TestHeldEntries:
    def test_folding_samplers_hold_one_entry_per_distinct_line(self):
        # Three lines, each cited in 2000 and in 2001.
        occs = [occ(i % 3, py=2000 + i % 2) for i in range(12)]
        for sampler, expected in (
            (NoneSampler(), occs),
            (SystematicSampler(n=6, total=12, offset=1), occs[1::2]),
            (ClusterSampler(2001, 2001), occs[1::2]),
        ):
            kept = select(sampler, occs)
            assert kept == folded(expected)
            assert sampler.held() == len(kept) == 3
            assert sampler.retained() == len(expected)

    def test_none_limit_counts_occurrences(self):
        sampler = NoneSampler(limit=5)
        assert select(sampler, [occ(0)] * 9) == folded([occ(0)] * 5)
        assert (sampler.retained(), sampler.held(), sampler.wants_more()) == (5, 1, False)

    def test_reservoir_holds_its_slots(self):
        sampler = RandomSampler(4, seed=3)
        kept = select(sampler, [occ(0)] * 10)
        assert kept == folded([occ(0)] * 4)
        assert sampler.held() == sampler.retained() == 4


class TestRandomSample:
    def test_exhaustive_when_n_covers_population(self):
        pop = population(30)
        picked = select(RandomSampler(50, seed=1), pop)
        assert picked == folded(pop)

    def test_deterministic_given_seed(self):
        pop = population(100)
        a = select(RandomSampler(25, seed=99), pop)
        b = select(RandomSampler(25, seed=99), pop)
        assert a == b

    def test_different_seeds_differ(self):
        pop = population(100)
        assert select(RandomSampler(25, seed=1), pop) != select(RandomSampler(25, seed=2), pop)

    def test_inclusion_frequency_is_roughly_uniform(self):
        # Small-scale version of the unbiasedness criterion: 2,000 seeds.
        pop = population(100)
        hits = Counter()
        runs = 2000
        for seed in range(runs):
            for line, n, _ in select(RandomSampler(25, seed=seed), pop):
                hits[line] += n
        freqs = [hits[line] / runs for line, _ in pop]
        assert all(0.25 - 0.031 <= f <= 0.25 + 0.031 for f in freqs)

    def test_sample_size_bounded(self):
        assert len(select(RandomSampler(25, seed=0), population(100))) == 25

    # Streams of up to 300 occurrences, so that i + 1 crosses 32 ... 256.
    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**64), n=st.integers(1, 20), size=st.integers(0, 300))
    @example(seed=0, n=1, size=300)
    def test_is_textbook_algorithm_r_over_randrange(self, seed, n, size):
        pop = population(size)
        rng = random.Random(seed)
        reservoir: list[tuple[str, int]] = []
        for i, o in enumerate(pop):
            if i < n:
                reservoir.append(o)
            else:
                j = rng.randrange(i + 1)
                if j < n:
                    reservoir[j] = o
        assert select(RandomSampler(n, seed=seed), pop) == folded(reservoir)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            RandomSampler(0)


class TestSystematicSample:
    def test_first_fifth_ninth(self):
        pop = population(400)
        picked = select(SystematicSampler(n=100, total=400, offset=0), pop)
        assert picked == folded(pop[0:400:4])

    def test_offset_shifts_selection(self):
        pop = population(400)
        picked = select(SystematicSampler(n=100, total=400, offset=1), pop)
        assert picked == folded(pop[1:400:4])

    def test_step_one_takes_everything(self):
        pop = population(40)
        picked = select(SystematicSampler(n=100, total=40, offset=0), pop)
        assert picked == folded(pop)

    def test_offset_must_be_below_step(self):
        with pytest.raises(OffsetTooLargeError):
            SystematicSampler(n=100, total=400, offset=4)

    def test_truncates_at_n_picks(self):
        # total 10, n 3 -> step 3, positions 0, 3, 6 (not 9).
        pop = population(10)
        picked = select(SystematicSampler(n=3, total=10, offset=0), pop)
        assert picked == folded([pop[0], pop[3], pop[6]])

    def test_partition_property(self):
        # step = 4 divides the population: offsets 0..3 are disjoint and
        # their union is the whole population.
        pop = population(400)
        seen = Counter()
        for offset in range(4):
            for line, n, _ in select(SystematicSampler(n=100, total=400, offset=offset), pop):
                seen[line] += n
        assert seen == Counter(line for line, _ in pop)


class TestClusterSample:
    def occurrences(self, years=((2011, 4), (2012, 1), (2013, 2), (2014, 3))):
        return [(f"WORK {py} {i}, 1990, J", py) for py, n in years for i in range(n)]

    def test_fixed_year_selects_that_year(self):
        occs = self.occurrences()
        picked = select(ClusterSampler(2011, 2011, seed=5), occs)
        assert picked == folded([o for o in occs if o[1] == 2011])
        assert len(picked) == 4

    def test_seeded_choice_is_one_per_year_set(self):
        sizes = {2011: 4, 2012: 1, 2013: 2, 2014: 3}
        picked = select(ClusterSampler(2011, 2014, seed=8), self.occurrences())
        (mask,) = {mask for _, _, mask in picked}
        (year,) = [y for y in sizes if YEAR_BITS[y] == mask]
        assert picked == folded([o for o in self.occurrences() if o[1] == year])
        assert len(picked) == sizes[year]

    def test_deterministic_given_seed(self):
        a = select(ClusterSampler(2011, 2014, seed=8), self.occurrences())
        b = select(ClusterSampler(2011, 2014, seed=8), self.occurrences())
        assert a == b

    def test_empty_year_reports_the_choice(self):
        # 2012 has no records; [2012, 2012] forces its choice. import_file
        # turns the empty selection into an EmptySampleError (test_wos).
        gappy = self.occurrences(years=((2011, 4), (2013, 2)))
        sampler = ClusterSampler(2012, 2012, seed=1)
        assert sampler.chosen_year == 2012
        assert select(sampler, gappy) == []


class TestRemovalThreshold:
    def test_paper_worked_example(self):
        assert removal_threshold(100, 6_594_657, 50_000) == 1

    def test_zero_threshold(self):
        assert removal_threshold(0, 123456, 789) == 0

    def test_exact_halving(self):
        assert removal_threshold(100, 1000, 500) == 50

    def test_rounds_half_away_from_zero(self):
        # 3 / (1000/500) = 1.5 -> 2.
        assert removal_threshold(3, 1000, 500) == 2
        # 9 / (18/7) = 3.5 -> 4, though the float quotient is 3.4999999999999996.
        assert removal_threshold(9, 18, 7) == 4

    @given(
        t=st.integers(0, 10**6),
        sizes=st.tuples(st.integers(1, 10**7), st.integers(1, 10**7)).map(sorted),
    )
    def test_rounds_the_exact_quotient(self, t, sizes):
        sample, full = sizes
        exact = Fraction(t) / Fraction(full, sample)
        assert removal_threshold(t, full, sample) == math.floor(exact + Fraction(1, 2))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            removal_threshold(100, 0, 1)
        with pytest.raises(DomainError):
            removal_threshold(100, 10, 0)
        with pytest.raises(DomainError):
            removal_threshold(100, 5, 10)
        with pytest.raises(DomainError):
            removal_threshold(-1, 10, 5)
