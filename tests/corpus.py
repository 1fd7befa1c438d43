"""Deterministic synthetic WoS corpora for the test suite.

The generator owns the ground truth (records, CR lines, counts), so tests
can compare parser/import output against what was actually written. Peak
years get boosted citation weights with one dominant work each, giving
spectrograms with known peaks; misspelled variant forms are planted for
the clustering tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

_SURNAMES = (
    "MERTON", "KUHN", "LOTKA", "PRICE", "GARFIELD", "BRADFORD", "ZIPF",
    "SHANNON", "TURING", "NOETHER", "HOPPER", "CURIE", "DARWIN", "GAUSS",
    "EULER", "LAPLACE", "FOURIER", "BAYES", "MARKOV", "POISSON", "FISHER",
    "PEARSON", "SPEARMAN", "KENDALL", "WIENER", "NASH", "ERDOS", "RENYI",
)

_SOURCES = (
    "J CLIMATE DYNAM", "NATURE", "SCIENCE", "RADIOCARBON", "TELLUS",
    "QUATERNARY RES", "MON WEATHER REV", "J ATMOS SCI", "GLOBAL CHANGE BIOL",
    "CLIM DYNAM", "GEOPHYS RES LETT", "J GEOPHYS RES", "ECOL LETT",
    "TREE RING BULL", "PALEOCEANOGRAPHY", "INT J CLIMATOL", "EARTH PLANET SCI",
)

_DOC_TYPES = ("Article", "Review")


@dataclass(frozen=True)
class Work:
    """One citable work; ``cr_line`` is its canonical CR string."""

    author: str
    rpy: int
    source: str
    volume: Optional[str] = None
    page: Optional[str] = None

    def cr_line(self) -> str:
        parts = [self.author, str(self.rpy), self.source]
        if self.volume:
            parts.append(f"V{self.volume}")
        if self.page:
            parts.append(f"P{self.page}")
        return ", ".join(parts)


def misspell(work: Work, rng: random.Random) -> str:
    """A variant form of the work: same year/volume/page, slightly
    mangled author or source (stays well above a 0.75 similarity)."""
    author, source = work.author, work.source
    roll = rng.randrange(3)
    if roll == 0 and len(author) > 4:
        author = author[:-1]  # truncated initial
    elif roll == 1 and len(source) > 6:
        cut = rng.randrange(1, len(source) - 1)
        source = source[:cut] + source[cut + 1 :]
    else:
        source = source.replace(" ", "  ", 1) + " J"
    parts = [author, str(work.rpy), source]
    if work.volume:
        parts.append(f"V{work.volume}")
    if work.page:
        parts.append(f"P{work.page}")
    return ", ".join(parts)


@dataclass
class Corpus:
    """Generated records plus the truth needed by oracles: ``forms[i]``
    lists the lines that cite ``works[i]``, its canonical line first and
    then its planted misspellings."""

    records: list[tuple[Optional[int], str, list[str]]]
    works: list[Work]
    forms: list[list[str]] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_cr(self) -> int:
        return sum(len(crs) for _, _, crs in self.records)

    def occurrences(self) -> list[tuple[str, Optional[int]]]:
        """(raw CR line, citing year) pairs in exact file order."""
        return [(raw, py) for py, _, crs in self.records for raw in crs]

    def wos_bytes(self) -> bytes:
        out = ["FN Synthetic bibliographic export", "VR 1.0"]
        for py, doc_type, crs in self.records:
            out.append("PT J")
            if py is not None:
                out.append(f"PY {py}")
            out.append(f"DT {doc_type}")
            for i, raw in enumerate(crs):
                out.append(f"CR {raw}" if i == 0 else f"   {raw}")
            out.append("ER")
            out.append("")
        out.append("EF")
        return ("\n".join(out) + "\n").encode("utf-8")

    def write(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.wos_bytes())


def make_works(
    rng: random.Random,
    n_works: int,
    rpy_lo: int,
    rpy_hi: int,
) -> list[Work]:
    works = []
    seen = set()
    while len(works) < n_works:
        author = f"{rng.choice(_SURNAMES)} {chr(rng.randrange(65, 91))}"
        rpy = rng.randint(rpy_lo, rpy_hi)
        source = rng.choice(_SOURCES)
        volume = str(rng.randint(1, 400)) if rng.random() < 0.8 else None
        page = str(rng.randint(1, 2000)) if volume and rng.random() < 0.9 else None
        work = Work(author, rpy, source, volume, page)
        if work.cr_line() not in seen:
            seen.add(work.cr_line())
            works.append(work)
    return works


def make_corpus(
    seed: int = 0,
    n_records: int = 200,
    crs_per_record: int = 25,
    n_works: int = 600,
    rpy_range: tuple[int, int] = (1970, 2010),
    py_range: tuple[int, int] = (1980, 2014),
    peak_years: Sequence[int] = (1974, 1987, 1993, 2001, 2007),
    peak_boost: float = 4.0,
    misspell_rate: float = 0.0,
    variant_forms: int = 3,
) -> Corpus:
    """Build a corpus of ``n_records`` citing records with exactly
    ``crs_per_record`` CRs each (so analyze totals are known up front).

    Works in peak years are cited ``peak_boost`` times more often, and the
    first work of each peak year twice that again, so each peak has a
    clear top-1. With ``misspell_rate`` > 0, that fraction of occurrences
    uses one of the work's planted misspelled forms instead of its
    canonical line.
    """
    rng = random.Random(seed)
    works = make_works(rng, n_works, rpy_range[0], rpy_range[1])

    weights = []
    dominant_seen = set()
    for work in works:
        w = 1.0
        if work.rpy in peak_years:
            w *= peak_boost
            if work.rpy not in dominant_seen:
                dominant_seen.add(work.rpy)
                w *= 2.0
        weights.append(w)

    forms: list[list[str]] = []
    for work in works:
        own = [work.cr_line()]
        if misspell_rate > 0:
            own.extend(misspell(work, rng) for _ in range(variant_forms - 1))
        forms.append(own)

    records = []
    for _ in range(n_records):
        py = rng.randint(py_range[0], py_range[1])
        doc_type = rng.choice(_DOC_TYPES)
        picks = rng.choices(range(len(works)), weights=weights, k=crs_per_record)
        crs = []
        for idx in picks:
            own = forms[idx]
            if len(own) > 1 and rng.random() < misspell_rate:
                crs.append(own[rng.randrange(1, len(own))])
            else:
                crs.append(own[0])
        records.append((py, doc_type, crs))
    return Corpus(records=records, works=works, forms=forms)
