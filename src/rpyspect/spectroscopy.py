"""Spectrogram computation and sample-vs-reference comparison.

All functions are pure over immutable datasets. Median windows are
truncated at the series edges rather than zero-padded (padding would
manufacture spurious positive deviations there); an even-length window's
median is the mean of its two central values.

``fidelity`` is the one measure of how closely a sample's spectrogram
tracks a reference's, such as the population's. It scores every year
that either spectrogram spans, so a sample also answers for the years
it misses.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple, Optional

from .errors import DomainError, EmptyDatasetError
from .model import CRVariant, Dataset, Spectrogram, SpectroRow


def ncr_per_rpy(dataset: Dataset) -> dict[Optional[int], int]:
    """NCR summed per reference publication year, undated variants under None."""
    totals: dict[Optional[int], int] = {}
    for v in dataset.variants.values():
        totals[v.rpy] = totals.get(v.rpy, 0) + v.ncr
    return totals


def compute_spectrogram(dataset: Dataset, median_range: int = 2) -> Spectrogram:
    """Per-year NCR totals plus the deviation from the centered median.

    Covers every year from the smallest to the largest RPY in the dataset
    (gap years appear with ncr 0). median_range is the number of
    neighboring years on each side of the window, so 2 gives the five-year
    median deviation. Variants without an RPY are excluded.
    """
    if median_range < 0:
        raise DomainError("median_range must be >= 0")
    counts = ncr_per_rpy(dataset)
    counts.pop(None, None)
    if not counts:
        raise EmptyDatasetError("no variant carries a reference publication year")
    lo, hi = min(counts), max(counts)
    years = list(range(lo, hi + 1))
    series = [counts.get(y, 0) for y in years]
    rows = []
    for i, y in enumerate(years):
        window = sorted(series[max(0, i - median_range) : i + median_range + 1])
        mid = len(window) // 2
        median = window[mid] if len(window) % 2 else (window[mid - 1] + window[mid]) / 2
        dev = series[i] - median
        rows.append(SpectroRow(rpy=y, ncr=series[i], median_dev=float(dev)))
    return tuple(rows)


def scale_factor(sample: Spectrogram, reference: Spectrogram) -> float:
    """f = (sample peak NCR) / (reference peak NCR) over the shared year
    window; dividing sample rows by f lifts them to reference scale."""
    if not (sample and reference):
        raise EmptyDatasetError("spectrogram has no rows")
    lo, hi = max(sample[0].rpy, reference[0].rpy), min(sample[-1].rpy, reference[-1].rpy)
    if lo > hi:
        raise DomainError("spectrograms share no RPY window")
    # A hand-built spectrogram may have gaps, so a window may hold no row.
    sample_max, ref_max = (
        max((r.ncr for r in s if lo <= r.rpy <= hi), default=0) for s in (sample, reference)
    )
    if ref_max == 0:
        raise ZeroDivisionError("reference spectrogram peak NCR is 0")
    return sample_max / ref_max


class Fidelity(NamedTuple):
    """How closely a sample's spectrogram tracks a reference's."""

    scale: float  # scale_factor(sample, reference)
    deviations: tuple[tuple[int, float], ...]  # (year, sample NCR / scale - reference NCR)
    mean_error: float  # mean |deviation| / reference peak NCR
    max_error: float  # largest |deviation| / reference peak NCR


def fidelity(sample: Spectrogram, reference: Spectrogram) -> Fidelity:
    """The sample scaled to the reference, year by year, from the earlier
    first year to the later last year of the two: a year a spectrogram
    lacks counts as NCR 0, so a year the sample misses costs the
    reference's NCR there."""
    scale = scale_factor(sample, reference)
    if scale == 0:
        raise ZeroDivisionError("sample spectrogram peak NCR is 0 in the shared window")
    ncr_sample, ncr_ref = ({r.rpy: r.ncr for r in s} for s in (sample, reference))
    lo, hi = min(sample[0].rpy, reference[0].rpy), max(sample[-1].rpy, reference[-1].rpy)
    deviations = tuple(
        (y, ncr_sample.get(y, 0) / scale - ncr_ref.get(y, 0)) for y in range(lo, hi + 1)
    )
    errors = [abs(d) for _, d in deviations]
    peak = max(ncr_ref.values())
    return Fidelity(scale, deviations, sum(errors) / len(errors) / peak, max(errors) / peak)


def top_crs(dataset: Dataset, rpy: int, k: int) -> list[CRVariant]:
    """The year's variants ranked by NCR descending (ties: smallest key),
    at most k of them."""
    if k < 1:
        raise DomainError("k must be >= 1")
    ranked = sorted(
        (v for v in dataset.variants.values() if v.rpy == rpy),
        key=lambda v: (-v.ncr, v.key),
    )
    return ranked[:k]


def n_pct(dataset: Dataset, variant: CRVariant, n_pct_range: int = 0) -> float:
    """The variant's share of the NCR mass within ±n_pct_range years of
    its own RPY (range 0: its share of its year). Variants without an RPY
    are compared against the other undated variants."""
    if variant.key not in dataset.variants:
        raise DomainError(f"variant {variant.key!r} not in dataset")
    return variant.ncr / window_totals(dataset, n_pct_range)[variant.rpy]


def window_totals(dataset: Dataset, n_pct_range: int) -> dict[Optional[int], int]:
    """The ``n_pct`` denominator of each RPY the dataset holds: the NCR
    within ±n_pct_range years of it, and the undated NCR under None.

    One pass over cumulative per-year sums, so the cost does not grow
    with the range. The sums are exact integers, so each share is the
    same float as dividing by the direct sum over the window.
    """
    if n_pct_range < 0:
        raise DomainError("n_pct_range must be >= 0")
    totals = ncr_per_rpy(dataset)
    windows: dict[Optional[int], int] = {}
    if None in totals:
        windows[None] = totals.pop(None)
    if not totals:
        return windows
    lo, hi = min(totals), max(totals)
    # cumulative[i] is the NCR of the years lo .. lo + i - 1.
    cumulative = [0, *accumulate(totals.get(year, 0) for year in range(lo, hi + 1))]
    for year in totals:
        first, last = max(year - n_pct_range, lo), min(year + n_pct_range, hi)
        windows[year] = cumulative[last - lo + 1] - cumulative[first - lo]
    return windows
