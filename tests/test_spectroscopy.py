from __future__ import annotations

import random

import pytest

from rpyspect.errors import DomainError, EmptyDatasetError
from rpyspect.model import CitedReference, CRVariant, Dataset, Spectrogram, aggregate
from rpyspect.sampling import SystematicSampler
from rpyspect.spectroscopy import (
    compute_spectrogram,
    n_pct,
    scale_factor,
    spectrogram_diff,
    top_crs,
    window_totals,
)

from conftest import select


def dataset_from_counts(counts: dict[int, int]) -> Dataset:
    """One variant per year with the given NCR."""
    variants = {}
    for year, ncr in counts.items():
        key = f"WORK {year}, {year}, J"
        ref = CitedReference(raw=key, author=f"WORK {year}", rpy=year, source="J")
        variants[key] = CRVariant(key=key, reference=ref, ncr=ncr, n_py_years=1)
    return Dataset(variants=variants, n_citing=1, n_cr_total=sum(counts.values()))


def window_median_oracle(series: list[int], i: int, r: int) -> float:
    """Sort-and-pick median of the truncated window around index i."""
    window = sorted(series[max(0, i - r) : i + r + 1])
    k = len(window)
    if k % 2 == 1:
        return float(window[k // 2])
    return (window[k // 2 - 1] + window[k // 2]) / 2


class TestComputeSpectrogram:
    def test_constant_series_has_zero_deviation(self):
        ds = dataset_from_counts({y: 7 for y in range(1990, 2001)})
        spect = compute_spectrogram(ds, median_range=2)
        assert all(row.median_dev == 0 for row in spect.rows)

    def test_symmetric_ramp_centre(self):
        ds = dataset_from_counts({2000 + i: v for i, v in enumerate([1, 2, 3, 4, 5])})
        spect = compute_spectrogram(ds, median_range=2)
        middle = spect.rows[2]
        assert middle.rpy == 2002
        assert middle.median_dev == 0

    def test_gap_years_appear_with_zero_ncr(self):
        ds = dataset_from_counts({1990: 3, 1994: 5})
        spect = compute_spectrogram(ds, median_range=1)
        assert [r.rpy for r in spect.rows] == [1990, 1991, 1992, 1993, 1994]
        assert [r.ncr for r in spect.rows] == [3, 0, 0, 0, 5]

    def test_matches_window_oracle_with_planted_spike(self):
        rng = random.Random(13)
        counts = {1970 + i: rng.randint(0, 50) for i in range(40)}
        counts[1993] = 400  # planted spike
        ds = dataset_from_counts({y: c for y, c in counts.items() if c > 0})
        spect = compute_spectrogram(ds, median_range=2)
        series = [counts.get(y, 0) for y in range(spect.rows[0].rpy, spect.rows[-1].rpy + 1)]
        for i, row in enumerate(spect.rows):
            assert row.ncr == series[i]
            expected = series[i] - window_median_oracle(series, i, 2)
            assert row.median_dev == pytest.approx(expected, abs=1e-12)

    def test_total_ncr_conserved(self):
        counts = {1980 + i: i + 1 for i in range(20)}
        ds = dataset_from_counts(counts)
        spect = compute_spectrogram(ds)
        assert sum(r.ncr for r in spect.rows) == sum(counts.values())

    def test_translation_covariance(self):
        rng = random.Random(21)
        counts = {1980 + i: rng.randint(1, 30) for i in range(25)}
        shifted = {y: c + 11 for y, c in counts.items()}
        devs = [r.median_dev for r in compute_spectrogram(dataset_from_counts(counts)).rows]
        devs_shifted = [
            r.median_dev for r in compute_spectrogram(dataset_from_counts(shifted)).rows
        ]
        assert devs == devs_shifted

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDatasetError):
            compute_spectrogram(Dataset())
        undated = aggregate([("NO YEAR", 2000)])
        with pytest.raises(EmptyDatasetError):
            compute_spectrogram(undated)


class TestScaleFactor:
    def test_forced_arithmetic(self):
        sample = compute_spectrogram(dataset_from_counts({2000: 50, 2001: 10}))
        reference = compute_spectrogram(dataset_from_counts({2000: 100, 2001: 30}))
        assert scale_factor(sample, reference) == 0.5

    def test_identity(self):
        spect = compute_spectrogram(dataset_from_counts({2000: 5, 2001: 9}))
        assert scale_factor(spect, spect) == 1.0

    def test_zero_reference_peak_raises(self):
        # Reference covers 1998..2002 but its NCR is zero on the shared
        # window (the sample's single year, 2000).
        sample = compute_spectrogram(dataset_from_counts({2000: 5}))
        reference = compute_spectrogram(dataset_from_counts({1998: 7, 2002: 7}))
        with pytest.raises(ZeroDivisionError):
            scale_factor(sample, reference)

    def test_empty_spectrogram_raises(self):
        ref = compute_spectrogram(dataset_from_counts({2000: 5}))
        with pytest.raises(EmptyDatasetError, match="^spectrogram has no rows$"):
            scale_factor(Spectrogram(rows=()), ref)

    def test_disjoint_year_ranges_raise(self):
        a = compute_spectrogram(dataset_from_counts({1990: 5}))
        b = compute_spectrogram(dataset_from_counts({2000: 5}))
        with pytest.raises(DomainError):
            scale_factor(a, b)

    def test_quarter_systematic_sample_scales_back_exactly(self):
        # Occurrences arrive in runs of 4 per year, so a 1-in-4 systematic
        # sample picks exactly a quarter of each year; recomputing both
        # spectrograms and scaling must land within +-2 everywhere.
        occs = []
        counts = {}
        for year in range(2000, 2010):
            m = 8 * (year - 1999)
            counts[year] = m
            occs.extend([(f"W {year}, {year}, J", 2011)] * m)
        total = sum(counts.values())
        sampler = SystematicSampler(n=total // 4, total=total, offset=0)
        select(sampler, occs)
        spect_pop = compute_spectrogram(aggregate(occs))
        spect_sample = compute_spectrogram(aggregate(sampler.result()))
        f = scale_factor(spect_sample, spect_pop)
        pop_by_year = spect_pop.ncr_by_year()
        for row in spect_sample.rows:
            assert abs(row.ncr / f - pop_by_year[row.rpy]) <= 2


class TestSpectrogramDiff:
    def test_self_difference_is_zero(self):
        spect = compute_spectrogram(dataset_from_counts({2000: 5, 2001: 9, 2002: 2}))
        ref = compute_spectrogram(dataset_from_counts({2000: 50, 2001: 90, 2002: 20}))
        assert all(d == 0 for _, d in spectrogram_diff(spect, spect, ref))

    def test_uniform_factor_cancels(self):
        a = compute_spectrogram(dataset_from_counts({2000: 10, 2001: 4, 2002: 6}))
        b = compute_spectrogram(dataset_from_counts({2000: 20, 2001: 8, 2002: 12}))
        ref = compute_spectrogram(dataset_from_counts({2000: 100, 2001: 40, 2002: 60}))
        assert all(d == pytest.approx(0) for _, d in spectrogram_diff(a, b, ref))

    def test_matches_composed_oracle(self):
        rng = random.Random(31)
        mk = lambda: compute_spectrogram(
            dataset_from_counts({1990 + i: rng.randint(1, 40) for i in range(15)})
        )
        a, b, ref = mk(), mk(), mk()
        diff = spectrogram_diff(a, b, ref)
        f_a, f_b = scale_factor(a, ref), scale_factor(b, ref)
        ncr_a, ncr_b = a.ncr_by_year(), b.ncr_by_year()
        for year, value in diff:
            assert value == pytest.approx(ncr_a[year] / f_a - ncr_b[year] / f_b)

    def test_years_outside_shared_window_omitted(self):
        a = compute_spectrogram(dataset_from_counts({2000: 4, 2005: 4}))
        b = compute_spectrogram(dataset_from_counts({2002: 4, 2008: 4}))
        ref = compute_spectrogram(
            dataset_from_counts({y: 10 + y - 1990 for y in range(1990, 2011)})
        )
        years = [y for y, _ in spectrogram_diff(a, b, ref)]
        assert years == list(range(2002, 2006))

    def test_zero_sample_peak_raises(self):
        # The sample covers 1998..2002 but its NCR is zero on the shared
        # window (the reference's single year, 2000), so its factor is 0.
        a = compute_spectrogram(dataset_from_counts({1998: 7, 2002: 7}))
        ref = compute_spectrogram(dataset_from_counts({2000: 5}))
        message = "^sample spectrogram peak NCR is 0 in the shared window$"
        with pytest.raises(ZeroDivisionError, match=message):
            spectrogram_diff(a, ref, ref)


def two_variant_dataset():
    occs = []
    occs.extend([("ALPHA A, 2000, J", 2010)] * 5)
    occs.extend([("BETA B, 2000, J", 2011)] * 3)
    return aggregate(occs)


class TestTopCrs:
    def test_max_selection(self):
        ds = two_variant_dataset()
        top = top_crs(ds, 2000, 1)
        assert [v.key for v in top] == ["ALPHA A, 2000, J"]

    def test_k_larger_than_count_returns_all_sorted(self):
        ds = two_variant_dataset()
        top = top_crs(ds, 2000, 10)
        assert [v.ncr for v in top] == [5, 3]

    def test_empty_year(self):
        assert top_crs(two_variant_dataset(), 1999, 3) == []

    def test_matches_sort_oracle(self):
        rng = random.Random(17)
        occs = []
        for i in range(30):
            occs.extend([(f"W {i:02d}, 1995, J", 2000)] * rng.randint(1, 9))
        ds = aggregate(occs)
        expected = sorted(ds.variants.values(), key=lambda v: (-v.ncr, v.key))
        assert top_crs(ds, 1995, 30) == expected

    def test_k_must_be_positive(self):
        with pytest.raises(DomainError):
            top_crs(two_variant_dataset(), 2000, 0)


class TestNPct:
    def test_sole_variant_full_share(self):
        occs = [("ONLY A, 1990, J", 2000)]
        ds = aggregate(occs)
        v = next(iter(ds.variants.values()))
        assert n_pct(ds, v, 0) == 1.0

    def test_equal_split(self):
        occs = []
        for name in ("AAA", "BBB"):
            occs.extend([(f"{name}, 1990, J", 2000)] * 4)
        ds = aggregate(occs)
        for v in ds.variants.values():
            assert n_pct(ds, v, 0) == 0.5

    def test_shares_sum_to_one_per_rpy(self):
        rng = random.Random(23)
        occs = []
        for i in range(12):
            occs.extend([(f"W {i}, 1990, J", 2000)] * rng.randint(1, 6))
        ds = aggregate(occs)
        assert sum(n_pct(ds, v, 0) for v in ds.variants.values()) == pytest.approx(1.0)

    def test_matches_windowed_sum_oracle(self):
        rng = random.Random(29)
        occs = []
        for i in range(40):
            year = rng.randint(1990, 1999)
            occs.extend([(f"W {i:02d}, {year}, J", 2005)] * rng.randint(1, 5))
        ds = aggregate(occs)
        for v in ds.variants.values():
            denom = sum(
                w.ncr
                for w in ds.variants.values()
                if w.rpy is not None and abs(w.rpy - v.rpy) <= 2
            )
            assert n_pct(ds, v, 2) == pytest.approx(v.ncr / denom)

    def test_variant_of_another_dataset_raises(self):
        other = next(iter(dataset_from_counts({2000: 3}).variants.values()))
        with pytest.raises(DomainError, match="^variant .* not in dataset$"):
            n_pct(two_variant_dataset(), other)

    @pytest.mark.parametrize("n_pct_range", (0, 1, 50, 5000))
    def test_window_totals_are_the_direct_sums(self, n_pct_range):
        # Years at both ends of [YEAR_MIN, YEAR_MAX], gap years between
        # clusters of years, and undated variants.
        rng = random.Random(31)
        years = [1000, 1001, 1040, 1990, 1991, 1993, 2060, 2999, 3000, None, None]
        occs = []
        for i, year in enumerate(years * 3):
            key = f"W {i}, {year}, J" if year is not None else f"W {i}, J"
            occs.extend([(key, 2000)] * rng.randint(1, 4))
        ds = aggregate(occs)
        windows = window_totals(ds, n_pct_range)
        assert set(windows) == set(years)
        for year in set(years):
            if year is None:
                window = [v for v in ds.variants.values() if v.rpy is None]
            else:
                window = [
                    v for v in ds.variants.values()
                    if v.rpy is not None and abs(v.rpy - year) <= n_pct_range
                ]
            assert windows[year] == sum(v.ncr for v in window)
        for v in ds.variants.values():
            assert n_pct(ds, v, n_pct_range) == v.ncr / windows[v.rpy]

    def test_window_totals_reject_a_negative_range(self):
        with pytest.raises(DomainError, match="n_pct_range"):
            window_totals(dataset_from_counts({2000: 1}), -1)
