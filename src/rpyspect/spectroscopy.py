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
from typing import Iterator, NamedTuple, Optional

from .errors import DomainError, EmptyDatasetError
from .model import CRVariant, Dataset, Spectrogram, SpectroRow


def year_series(dataset: Dataset) -> tuple[int, list[int], int]:
    """(first, series, undated): series[i] is the dataset's NCR of RPY
    first + i, from the first dated RPY to the last (0 in a gap year;
    empty, and first 0, when no variant is dated), and undated is the NCR
    of the variants without an RPY."""
    totals: dict[Optional[int], int] = {}
    for v in dataset.variants.values():
        totals[v.rpy] = totals.get(v.rpy, 0) + v.ncr
    undated = totals.pop(None, 0)
    if not totals:
        return 0, [], undated
    first = min(totals)
    return first, [totals.get(y, 0) for y in range(first, max(totals) + 1)], undated


def compute_spectrogram(dataset: Dataset, median_range: int = 2) -> Spectrogram:
    """Per-year NCR totals plus the deviation from the centered median.

    Covers every year from the smallest to the largest RPY in the dataset
    (gap years appear with ncr 0). median_range is the number of
    neighboring years on each side of the window, so 2 gives the five-year
    median deviation. Variants without an RPY are excluded.
    """
    if median_range < 0:
        raise DomainError("median_range must be >= 0")
    first, series, _ = year_series(dataset)
    if not series:
        raise EmptyDatasetError("no variant carries a reference publication year")
    years = range(first, first + len(series))
    return tuple(map(SpectroRow, years, series, _median_deviations(series, median_range)))


def _median_deviations(series: list[int], median_range: int) -> Iterator[float]:
    """Each value minus the median of the values within median_range
    places of it, the window truncated at the ends of the series."""
    for i, value in enumerate(series):
        window = sorted(series[max(0, i - median_range) : i + median_range + 1])
        mid = len(window) // 2
        median = window[mid] if len(window) % 2 else (window[mid - 1] + window[mid]) / 2
        yield float(value - median)


class Fidelity(NamedTuple):
    """How closely a sample's spectrogram tracks a reference's."""

    scale: float  # sample peak NCR / reference peak NCR in the shared years
    deviations: tuple[tuple[int, float], ...]  # (year, sample NCR / scale - reference NCR)
    mean_error: float  # mean |deviation| / reference peak NCR
    max_error: float  # largest |deviation| / reference peak NCR


def fidelity(sample: Spectrogram, reference: Spectrogram) -> Fidelity:
    """The sample scaled to the reference, year by year, from the earlier
    first year to the later last year of the two: a year a spectrogram
    lacks counts as NCR 0, so a year the sample misses costs the
    reference's NCR there."""
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
    if sample_max == 0:
        raise ZeroDivisionError("sample spectrogram peak NCR is 0 in the shared window")
    scale = sample_max / ref_max
    ncr_sample, ncr_ref = ({r.rpy: r.ncr for r in s} for s in (sample, reference))
    first, last = min(sample[0].rpy, reference[0].rpy), max(sample[-1].rpy, reference[-1].rpy)
    deviations = tuple(
        (y, ncr_sample.get(y, 0) / scale - ncr_ref.get(y, 0)) for y in range(first, last + 1)
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

    One pass over the cumulative sums of ``year_series``, so the cost does
    not grow with the range. The sums are exact integers, so each share
    is the same float as dividing by the direct sum over the window.
    """
    if n_pct_range < 0:
        raise DomainError("n_pct_range must be >= 0")
    first, series, undated = year_series(dataset)
    # cumulative[i] is the NCR of the first i years of the series.
    cumulative = [0, *accumulate(series)]
    windows: dict[Optional[int], int] = {None: undated}
    for i, ncr in enumerate(series):
        if ncr:  # every variant has ncr >= 1, so the year holds one
            end = min(i + n_pct_range + 1, len(series))
            windows[first + i] = cumulative[end] - cumulative[max(i - n_pct_range, 0)]
    return windows
