"""Core domain types: cited references, citing records, the variant table,
and spectrogram rows.

A "variant" is one distinct string form of a cited reference; identity is
the full normalized raw string, not the parsed field tuple. Fuzzy identity
(several variants denoting the same work) is handled later by clustering,
never here.

All types are frozen: a Dataset is immutable after construction and safe to
share across parallel workers. Pipeline steps return new Dataset instances.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple, Optional

_WS_RUN = re.compile(r"\s+")

YEAR_MIN = 1000
YEAR_MAX = 3000


def normalize_key(raw: str) -> str:
    """Return the canonical identity string for a cited-reference line.

    Upper-cases, collapses whitespace runs to single spaces, trims, and
    strips trailing sentence punctuation. Idempotent: applying it twice
    equals applying it once.
    """
    s = _WS_RUN.sub(" ", raw).strip().upper()
    return s.rstrip(".,;: ")


@dataclass(frozen=True)
class CitedReference:
    """One parsed cited-reference variant.

    ``raw`` keeps the verbatim input line; the parsed fields are derived
    from its normalized form, so two inputs with the same normalized key
    always carry identical parsed fields.
    """

    raw: str
    author: str = ""
    rpy: Optional[int] = None
    source: str = ""
    volume: Optional[str] = None
    page: Optional[str] = None
    doi: Optional[str] = None

    def __post_init__(self):
        if not self.raw:
            raise ValueError("cited reference raw string must be non-empty")
        if self.rpy is not None and not (YEAR_MIN <= self.rpy <= YEAR_MAX):
            raise ValueError(f"rpy {self.rpy} outside [{YEAR_MIN}, {YEAR_MAX}]")

    @property
    def key(self) -> str:
        return normalize_key(self.raw)


@dataclass(frozen=True)
class CitingRecord:
    """One citing publication: its year, document type, and its cited
    references in file order (systematic sampling depends on that order)."""

    py: Optional[int]
    doc_type: str
    crs: tuple[CitedReference, ...]


# One sampled CR occurrence: the reference plus the citing publication year.
class Occurrence(NamedTuple):
    cr: CitedReference
    py: Optional[int]


@dataclass(frozen=True)
class CRVariant:
    """One distinct normalized CR string with its occurrence count (NCR).

    ``py_years`` carries the set of distinct citing years while the variant
    lives in memory; it is dropped by the CRE file format, in which case
    only the ``n_py_years`` count survives.
    """

    key: str
    reference: CitedReference
    ncr: int
    cluster_id: Optional[int] = None
    n_py_years: int = 0
    py_years: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.ncr < 1:
            raise ValueError("variant ncr must be >= 1")
        if self.n_py_years < 0:
            raise ValueError("variant n_py_years must be >= 0")

    @property
    def rpy(self) -> Optional[int]:
        return self.reference.rpy


YearFilter = tuple[int, int, bool]  # (lo, hi, include_unknown)


def _sort_key(v: CRVariant):
    # Canonical variant order: dated variants by (rpy, key), undated last.
    return (v.rpy is None, v.rpy if v.rpy is not None else 0, v.key)


@dataclass(frozen=True)
class Dataset:
    """The working set: variant table, import-level counts and provenance.

    ``n_cr_total`` records the occurrence count at import time and never
    changes afterwards; removal only shrinks the variant table, so
    ``sum(v.ncr) <= n_cr_total`` always holds. The import's year filters
    are recorded only in ``provenance``, the operation log.
    """

    variants: dict[str, CRVariant] = field(default_factory=dict)
    n_citing: int = 0
    n_cr_total: int = 0
    provenance: str = ""

    def sorted_variants(self) -> list[CRVariant]:
        """Variants in canonical order: (rpy, key), undated ones last."""
        return sorted(self.variants.values(), key=_sort_key)

    def sum_ncr(self) -> int:
        return sum(v.ncr for v in self.variants.values())

    def with_variants(self, variants: Iterable[CRVariant], note: str) -> Dataset:
        table = {v.key: v for v in variants}
        return replace(self, variants=table, provenance=self.log(note))

    def log(self, note: str) -> str:
        return f"{self.provenance}; {note}" if self.provenance else note


class SpectroRow(NamedTuple):
    rpy: int
    ncr: int
    median_dev: float


@dataclass(frozen=True)
class Spectrogram:
    """Per-RPY series of (NCR, median deviation).

    Rows are strictly increasing in year with no gaps: years without CRs
    appear with ncr = 0.
    """

    rows: tuple[SpectroRow, ...]

    def years(self) -> range:
        if not self.rows:
            return range(0)
        return range(self.rows[0].rpy, self.rows[-1].rpy + 1)

    def ncr_by_year(self) -> dict[int, int]:
        return {r.rpy: r.ncr for r in self.rows}

    def max_ncr(self, lo: int, hi: int) -> int:
        """Largest NCR over years in [lo, hi] (0 if the window is empty)."""
        vals = [r.ncr for r in self.rows if lo <= r.rpy <= hi]
        return max(vals) if vals else 0


def aggregate(
    occurrences: Iterable[Occurrence],
    n_citing: int = 0,
    provenance: str = "",
) -> Dataset:
    """Fold an occurrence stream into the distinct-variant table.

    One CRVariant per distinct normalized key; ncr counts occurrences and
    n_py_years counts distinct citing years. An empty stream yields an
    empty Dataset. Single pass; the first occurrence of a key provides the
    representative CitedReference. Callers filter the stream beforehand
    and note the filters in ``provenance``.
    """
    refs: dict[str, CitedReference] = {}
    counts: dict[str, int] = {}
    years: dict[str, set[int]] = {}
    total = 0
    for cr, py in occurrences:
        key = cr.key
        total += 1
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
            refs[key] = cr
            years[key] = set()
        if py is not None:
            years[key].add(py)
    variants = {
        key: CRVariant(
            key=key,
            reference=refs[key],
            ncr=n,
            n_py_years=len(years[key]),
            py_years=frozenset(years[key]),
        )
        for key, n in counts.items()
    }
    return Dataset(
        variants=variants,
        n_citing=n_citing,
        n_cr_total=total,
        provenance=provenance,
    )


def iter_occurrences(records: Iterable[CitingRecord]) -> Iterator[Occurrence]:
    """Flatten citing records into (reference, citing year) occurrences."""
    for rec in records:
        for cr in rec.crs:
            yield Occurrence(cr, rec.py)
