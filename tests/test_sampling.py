from __future__ import annotations

from collections import Counter

import pytest

from rpyspect.errors import DomainError, EmptySampleError, OffsetTooLargeError
from rpyspect.model import CitingRecord, Occurrence
from rpyspect.sampling import (
    cluster_sample,
    random_sample,
    removal_threshold,
    systematic_sample,
)


def occ(i: int, py: int = 2000) -> Occurrence:
    return Occurrence(f"AUTHOR {i}, 1990, JOURNAL", py)


def population(n: int) -> list[Occurrence]:
    return [occ(i) for i in range(n)]


class TestRandomSample:
    def test_exhaustive_when_n_covers_population(self):
        pop = population(30)
        picked = random_sample(pop, 50, rng_seed=1)
        assert Counter(o.line for o in picked) == Counter(o.line for o in pop)

    def test_deterministic_given_seed(self):
        pop = population(100)
        a = random_sample(pop, 25, rng_seed=99)
        b = random_sample(pop, 25, rng_seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        pop = population(100)
        assert random_sample(pop, 25, rng_seed=1) != random_sample(pop, 25, rng_seed=2)

    def test_inclusion_frequency_is_roughly_uniform(self):
        # Small-scale version of the unbiasedness criterion: 2,000 seeds.
        pop = population(100)
        hits = Counter()
        runs = 2000
        for seed in range(runs):
            for o in random_sample(pop, 25, rng_seed=seed):
                hits[o.line] += 1
        freqs = [hits[o.line] / runs for o in pop]
        assert all(0.25 - 0.031 <= f <= 0.25 + 0.031 for f in freqs)

    def test_sample_size_bounded(self):
        assert len(random_sample(population(100), 25, rng_seed=0)) == 25

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            random_sample(population(10), 0)


class TestSystematicSample:
    def test_first_fifth_ninth(self):
        pop = population(400)
        picked = systematic_sample(pop, n=100, total=400, offset=0)
        positions = [int(o.line.split(",")[0].split()[1]) for o in picked]
        assert positions == list(range(0, 400, 4))

    def test_offset_shifts_selection(self):
        pop = population(400)
        picked = systematic_sample(pop, n=100, total=400, offset=1)
        positions = [int(o.line.split(",")[0].split()[1]) for o in picked]
        assert positions == list(range(1, 400, 4))

    def test_step_one_takes_everything(self):
        pop = population(40)
        picked = systematic_sample(pop, n=100, total=40, offset=0)
        assert len(picked) == 40

    def test_offset_must_be_below_step(self):
        with pytest.raises(OffsetTooLargeError):
            systematic_sample(population(400), n=100, total=400, offset=4)

    def test_truncates_at_n_picks(self):
        # total 10, n 3 -> step 3, positions 0, 3, 6 (not 9).
        picked = systematic_sample(population(10), n=3, total=10, offset=0)
        positions = [int(o.line.split(",")[0].split()[1]) for o in picked]
        assert positions == [0, 3, 6]

    def test_partition_property(self):
        # step = 4 divides the population: offsets 0..3 are disjoint and
        # their union is the whole population.
        pop = population(400)
        seen = Counter()
        for offset in range(4):
            for o in systematic_sample(pop, n=100, total=400, offset=offset):
                seen[o.line] += 1
        assert seen == Counter(o.line for o in pop)


class TestClusterSample:
    def records(self, years=((2011, 4), (2012, 1), (2013, 2), (2014, 3))):
        recs = []
        for py, n in years:
            crs = tuple((f"WORK {py} {i}, 1990, J", 1990) for i in range(n))
            recs.append(CitingRecord(py=py, crs=crs))
        return recs

    def test_fixed_year_selects_that_year(self):
        picked = cluster_sample(self.records(), (2011, 2011), rng_seed=5)
        assert len(picked) == 4
        assert all(o.py == 2011 for o in picked)

    def test_seeded_choice_is_one_per_year_set(self):
        sizes = {2011: 4, 2012: 1, 2013: 2, 2014: 3}
        picked = cluster_sample(self.records(), (2011, 2014), rng_seed=8)
        years = {o.py for o in picked}
        assert len(years) == 1
        year = years.pop()
        assert len(picked) == sizes[year]

    def test_deterministic_given_seed(self):
        a = cluster_sample(self.records(), (2011, 2014), rng_seed=8)
        b = cluster_sample(self.records(), (2011, 2014), rng_seed=8)
        assert a == b

    def test_empty_year_reports_the_choice(self):
        # 2012 has no records; [2012, 2012] forces its choice.
        gappy = self.records(years=((2011, 4), (2013, 2)))
        with pytest.raises(EmptySampleError, match="2012"):
            cluster_sample(gappy, (2012, 2012), rng_seed=1)


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

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            removal_threshold(100, 0, 1)
        with pytest.raises(DomainError):
            removal_threshold(100, 10, 0)
        with pytest.raises(DomainError):
            removal_threshold(100, 5, 10)
        with pytest.raises(DomainError):
            removal_threshold(-1, 10, 5)
