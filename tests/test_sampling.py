from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rpyspect.errors import DomainError, EmptySampleError, OffsetTooLargeError
from rpyspect.model import YEAR_BITS, aggregate
from rpyspect.sampling import NoneSampler, RandomSampler, SystematicSampler, removal_threshold
from rpyspect.spectroscopy import compute_spectrogram, fidelity
from rpyspect.wos import ImportFilter, MemoryProbe, ParseStats, import_file

from conftest import folded, rows, select
from corpus import Corpus, make_corpus


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
        ):
            kept = select(sampler, occs)
            assert kept == folded(expected)
            assert sampler.held() == len(kept) == 3
            assert sampler.retained() == len(expected)

    def test_none_limit_counts_occurrences(self, tmp_path):
        # NONE with maxCR 5 keeps the first 5 CRs that pass the RPY filter
        # (the 1850 ones fail it): the 5th is the second A of record 2, so
        # the rest of that record is ignored and record 3 is never read.
        a, b, c = "A X, 1990, J", "B Y, 1850, K", "C Z, 1990, L"
        records = [(2000, [a, b, a]), (2001, [c, a, a, b, c]), (2002, [a, c])]
        path = tmp_path / "limit.txt"
        Corpus(records=[(py, "Article", crs) for py, crs in records], works=[]).write(path)
        probe, stats = MemoryProbe(), ParseStats()
        filt = ImportFilter(rpy_range=(1900, 2000, False), max_cr=5)
        ds = import_file(path, filt, probe=probe, stats=stats)
        assert {k: v.ncr for k, v in ds.variants.items()} == {a: 4, c: 1}
        assert (ds.n_citing, ds.n_cr_total, stats.n_cr) == (2, 5, 6)
        # Two distinct lines held plus record 2's five pairs.
        assert (probe.records_seen, probe.peak) == (2, 2 + 5)

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


    @settings(max_examples=300, deadline=None)
    @given(total=st.integers(1, 300), n=st.integers(1, 80), offset=st.integers(0, 299))
    @example(total=50, n=80, offset=0)  # step 1: n above total
    @example(total=40, n=40, offset=0)  # step 1: every position
    @example(total=300, n=7, offset=41)  # offset == step - 1
    @example(total=300, n=80, offset=2)  # offset == step - 1, truncated
    def test_picks_offset_plus_multiples_of_step(self, total, n, offset):
        step = max(1, total // n)
        offset %= step
        picks = [p for p in (offset + k * step for k in range(n)) if p < total]
        pop = population(total)
        sampler = SystematicSampler(n=n, total=total, offset=offset)
        wants = []
        for line, py in pop:  # offered past the last pick: a full sampler ignores them
            sampler.offer(line, py)
            wants.append(sampler.wants_more())
        assert rows(sampler.result()) == folded([pop[p] for p in picks])
        # wants_more() turns false exactly at the n-th pick, if there is one.
        last = picks[-1] if len(picks) == n else total
        assert wants == [pos < last for pos in range(total)]


class TestSystematicPeriodicity:
    """README "Sampling notes": when every record holds 25 CRs sorted by
    RPY, a SYSTEMATIC step of 25 picks the same position in every record,
    so its sample leans to a few years that a RANDOM sample of the same
    size does not. (At steps 23 and 26 the two methods' errors are within
    each other's noise, so no test orders them.)"""

    @pytest.mark.parametrize("seed", range(3))
    def test_resonant_step_errs_more_than_random(self, tmp_path, seed):
        corpus = make_corpus(seed=seed, n_records=2000)
        # make_corpus lines are "AUTHOR, RPY, SOURCE, ...".
        by_rpy = [
            (py, doc_type, sorted(crs, key=lambda line: int(line.split(", ")[1])))
            for py, doc_type, crs in corpus.records
        ]
        corpus = Corpus(records=by_rpy, works=corpus.works, forms=corpus.forms)
        corpus.write(tmp_path / "sorted.txt")
        population = compute_spectrogram(aggregate(corpus.occurrences()), median_range=0)
        n = corpus.n_cr // 25

        def error(mode):
            filt = ImportFilter(max_cr=n, sampling_mode=mode, seed=seed)
            sample = import_file(tmp_path / "sorted.txt", filt)
            return fidelity(compute_spectrogram(sample, median_range=0), population).mean_error

        assert error("SYSTEMATIC") > 3 * error("RANDOM")


class TestRandomYardstick:
    """A RANDOM sample of n of the N CRs holds a hypergeometric count of
    each RPY's N_y CRs: mean n p and variance n p (1 - p) (N - n) / (N - 1),
    where p = N_y / N. Twenty seeded reservoirs must agree with it in each
    year's spread and in each year's mean (ROADMAP items 7 and 19)."""

    @pytest.mark.parametrize("seed", range(3))
    def test_per_year_counts_are_hypergeometric(self, seed):
        occs = make_corpus(seed=seed, n_records=2000).occurrences()

        def rpy(line):  # make_corpus lines are "AUTHOR, RPY, SOURCE, ..."
            return int(line.split(", ")[1])

        population = Counter(rpy(line) for line, _ in occs)
        total, n, draws = len(occs), 5000, 20
        samples = []
        for draw in range(draws):
            per_year = Counter()
            for line, count, _ in select(RandomSampler(n, seed=draw), occs):
                per_year[rpy(line)] += count
            samples.append(per_year)
        ratios, chi2 = [], 0.0
        for year, n_year in population.items():
            p = n_year / total
            mean, var = n * p, n * p * (1 - p) * (total - n) / (total - 1)
            counts = [sample[year] for sample in samples]
            ratios.append(statistics.variance(counts) / var)
            chi2 += (statistics.fmean(counts) - mean) ** 2 / (var / draws)
        assert (total, len(population)) == (50_000, 41)
        assert 0.7 <= statistics.fmean(ratios) <= 1.3
        assert chi2 < 65  # the 99 % point of chi-squared with 41 degrees of freedom


class TestClusterSample:
    """A CLUSTER sample is the NONE import of one citing year, drawn
    uniformly from the PY range by the reservoir's rule."""

    SIZES = {2011: 4, 2012: 1, 2013: 2, 2014: 3}  # records per citing year

    def write(self, path, sizes=SIZES):
        # Two distinct CRs per record, so n_citing and the CR count differ.
        records = [
            (py, "Article", [f"WORK {py} {i} {j}, 1990, J" for j in (0, 1)])
            for py, n in sizes.items()
            for i in range(n)
        ]
        Corpus(records=records, works=[]).write(path)
        return path

    @staticmethod
    def cluster(path, lo, hi, seed):
        filt = ImportFilter(py_range=(lo, hi, False), sampling_mode="CLUSTER", seed=seed)
        return import_file(path, filt)

    def test_fixed_year_selects_that_year(self, tmp_path):
        ds = self.cluster(self.write(tmp_path / "c.txt"), 2011, 2011, seed=5)
        keys = [f"WORK 2011 {i} {j}, 1990, J" for i in range(4) for j in (0, 1)]
        assert sorted(ds.variants) == keys
        assert (ds.n_citing, ds.n_cr_total) == (4, 8)
        assert "py=[2011,2011,false] sampling=CLUSTER" in ds.provenance

    def test_seeded_choice_is_one_per_year_set(self, tmp_path):
        year = random.Random(8).randint(2011, 2014)
        ds = self.cluster(self.write(tmp_path / "c.txt"), 2011, 2014, seed=8)
        assert {v.py_years for v in ds.variants.values()} == {YEAR_BITS[year]}
        # The sample's records are the drawn year's only.
        assert (ds.n_citing, ds.n_cr_total) == (self.SIZES[year], 2 * self.SIZES[year])
        assert f"py=[{year},{year},false]" in ds.provenance

    def test_drawn_years_are_pinned(self, tmp_path):
        # The draw reads only getrandbits, whose output for a seed CPython
        # keeps, so these years hold on every version. (They equal
        # random.Random(seed).randint(2011, 2014), whose mapping CPython
        # does not promise to keep.)
        path = self.write(tmp_path / "c.txt")
        drawn = []
        for seed in range(9):
            provenance = self.cluster(path, 2011, 2014, seed).provenance
            drawn.append(int(provenance.split(" py=[")[1][:4]))
        assert drawn == [2014, 2012, 2011, 2012, 2012, 2013, 2011, 2013, 2012]

    def test_deterministic_given_seed(self, tmp_path):
        path = self.write(tmp_path / "c.txt")
        record_counts = set()  # one per year drawn: the years' sizes differ
        for seed in range(8):
            a, b = self.cluster(path, 2011, 2014, seed), self.cluster(path, 2011, 2014, seed)
            assert a == b
            record_counts.add(a.n_citing)
        assert len(record_counts) > 1

    def test_empty_year_reports_the_choice(self, tmp_path):
        # 2012 has no records; [2012, 2012] forces that choice, and the
        # import does not fall back to another year.
        path = self.write(tmp_path / "gappy.txt", sizes={2011: 4, 2013: 2})
        with pytest.raises(EmptySampleError, match="^CLUSTER sampling selected no CRs"):
            self.cluster(path, 2012, 2012, seed=1)


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
