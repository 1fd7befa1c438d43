"""Core domain types: cited references, the variant table, and
spectrogram rows.

A "variant" is one distinct string form of a cited reference; identity is
its key, the normalized line, not the parsed field tuple. A sample is
held folded by line as read (``LineTables``); the key is computed once
per distinct line of it (``aggregate``) and the fields, which depend
only on the key, once per distinct key (``parse_key``), never once per
occurrence. Fuzzy identity (several variants denoting the same work) is
handled later by clustering, never here.

The record types here are ``structs.Frozen`` classes: slotted, validated at
construction (``replace`` included), and frozen afterwards, so a Dataset
never changes once built. Pipeline steps return new Dataset instances.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional

from .structs import Frozen

_set = object.__setattr__  # sets a field past Frozen's guard, in the hot types' __init__s

YEAR_MIN = 1000
YEAR_MAX = 3000


def normalize_key(raw: str) -> str:
    """Return the canonical identity string for a cited-reference line.

    Upper-cases, collapses whitespace runs to single spaces, trims, and
    strips trailing sentence punctuation. Idempotent: applying it twice
    equals applying it once. ``str.split()`` splits on exactly the
    characters that the ``\\s`` class of ``re`` matches.
    """
    return " ".join(raw.split()).upper().rstrip(".,;: ")


# The candidate year token of a raw cited-reference line, read without
# normalizing it: the token after the line's first "," plus whitespace run
# (RAW_YEAR_HEAD), followed by "," plus whitespace or by nothing but
# [.,;:\s]* (RAW_YEAR_TAIL). Those are normalize_key's rules read on the
# raw text (a whitespace run becomes one space, trailing ".,;:" and spaces
# are stripped, and upper-casing moves no digit, comma or space), so a
# token between them is the key's second ", " token. The unrolled head
# cannot match past the line's first "," plus whitespace run, so a match
# never skips to a later token. The WoS reader's year gates
# (wos._year_gate) put the ASCII spellings of an RPY filter's years
# between the two.
RAW_YEAR_HEAD = r"[^,]*(?:,(?!\s)[^,]*)*,\s+"
RAW_YEAR_TAIL = r"(?:,\s|[.,;:\s]*\Z)"

NO_KEY = re.compile(r"[\s.,;:]*")
"""Fullmatches exactly the lines whose ``normalize_key`` is empty."""


# The year of bit 0 of a citing-year mask. Bits count from a recent year,
# so that a mask of today's citing years is a small int (1970-2029 fit in
# 60 bits, two 30-bit digits), and the earlier years wrap to the top.
YEAR_BIT0 = 1970
_YEAR_SPAN = YEAR_MAX - YEAR_MIN + 1


class _YearBits(dict):
    """The mask bit of each citing year looked up, filled on first sight."""

    def __missing__(self, py: Optional[int]) -> int:
        bit = 0 if py is None else 1 << ((py - YEAR_BIT0) % _YEAR_SPAN)
        self[py] = bit
        return bit


YEAR_BITS = _YearBits()
"""A citing year's bit in a citing-year mask:
``1 << ((py - YEAR_BIT0) % (YEAR_MAX - YEAR_MIN + 1))``, so each year in
[YEAR_MIN, YEAR_MAX] has its own bit, and 0 for an unknown year (None). A
mask is the OR of its years' bits, so ``mask.bit_count()`` is its number
of distinct known years."""


class LineTables(NamedTuple):
    """A sample folded by CR line as read (not yet normalized).

    ``counts[line]`` is the line's number of occurrences and
    ``masks[line]`` the OR of their citing years' ``YEAR_BITS``. Both
    dicts hold the lines in the order of their first occurrence.
    """

    counts: dict[str, int]
    masks: dict[str, int]


def fold(occurrences: Iterable[tuple[str, Optional[int]]]) -> LineTables:
    """The ``LineTables`` of (line, py) occurrences, folded in order."""
    counts: dict[str, int] = {}
    masks: dict[str, int] = {}
    bits = YEAR_BITS
    for line, py in occurrences:
        if line in counts:
            counts[line] += 1
            masks[line] |= bits[py]
        else:
            counts[line] = 1
            masks[line] = bits[py]
    return LineTables(counts, masks)


def parse_year(token: str) -> Optional[int]:
    """The reference publication year ``token`` spells, or None.

    A year is 4 ASCII digits in [YEAR_MIN, YEAR_MAX], the digits of the
    CRE integer rule, so ``١٩٩٠`` and ``¹⁹⁹⁰`` are not years. This is the
    one year rule: the WoS reader applies it to the ``PY`` value and, by
    its year gates, to a raw line's token between ``RAW_YEAR_HEAD`` and
    ``RAW_YEAR_TAIL``; ``parse_key`` applies it to the second ``", "``
    token of a key.
    """
    if len(token) == 4 and token.isascii() and token.isdigit():
        year = int(token)
        if YEAR_MIN <= year <= YEAR_MAX:
            return year
    return None


class CitedReference(Frozen):
    """The parsed fields of one cited-reference variant.

    ``raw`` holds the variant's key (the normalized line, see
    ``normalize_key``), and ``parse_key`` derives every field from it,
    so two references with the same key carry identical fields.
    """

    __slots__ = ("raw", "author", "rpy", "source", "volume", "page", "doi")

    def __init__(
        self,
        raw: str,
        author: str = "",
        rpy: Optional[int] = None,
        source: str = "",
        volume: Optional[str] = None,
        page: Optional[str] = None,
        doi: Optional[str] = None,
    ):
        if not raw:
            raise ValueError("cited reference raw string must be non-empty")
        if rpy is not None and not (YEAR_MIN <= rpy <= YEAR_MAX):
            raise ValueError(f"rpy {rpy} outside [{YEAR_MIN}, {YEAR_MAX}]")
        _set(self, "raw", raw)
        _set(self, "author", author)
        _set(self, "rpy", rpy)
        _set(self, "source", source)
        _set(self, "volume", volume)
        _set(self, "page", page)
        _set(self, "doi", doi)


# "P", then alphanumerics and hyphens starting with an alphanumeric.
# [^\W_] is exactly str.isalnum(); each repeat takes one hyphen, so a
# failed match backtracks in linear time.
_PAGE = re.compile(r"P[^\W_]+(?:-[^\W_]*)*").fullmatch


def parse_key(key: str) -> CitedReference:
    """Parse a non-empty key (a ``normalize_key`` result) into its fields.

    Splitting on ", ": the first token is the author; a year
    (``parse_year``) right after it is the reference publication year;
    the next token seeds the source; remaining tokens are claimed as
    volume ("V" + digits), page ("P" + alphanumerics, hyphens allowed),
    or DOI ("DOI " prefix), and anything unclaimed is appended back onto
    the source. A key with no parseable year yields rpy = None; parsing
    never fails.
    """
    tokens = key.split(", ")
    rpy = parse_year(tokens[1]) if len(tokens) > 1 else None
    start = 1 if rpy is None else 2
    source_parts = tokens[start : start + 1]
    volume: Optional[str] = None
    page: Optional[str] = None
    doi: Optional[str] = None
    # Only a token's first character can make it a volume, page or DOI.
    for tok in tokens[start + 1 :]:
        head = tok[:1]
        if head == "V":
            if volume is None and tok[1:].isdigit():
                volume = tok[1:]
                continue
        elif head == "P":
            if page is None and _PAGE(tok):
                page = tok[1:]
                continue
        elif head == "D":
            if doi is None and len(tok) > 4 and tok.startswith("DOI "):
                doi = tok[4:]
                continue
        elif not tok:
            continue
        source_parts.append(tok)
    return CitedReference(key, tokens[0], rpy, ", ".join(source_parts), volume, page, doi)


class CRVariant(Frozen):
    """One distinct normalized CR string with its occurrence count (NCR).

    ``py_years`` carries the distinct citing years as a mask (see
    ``YEAR_BITS``) while the variant lives in memory, and then
    ``n_py_years`` is ``py_years.bit_count()``. The CRE file format drops
    the mask, in which case only the ``n_py_years`` count survives.

    Construction raises ValueError unless ``ncr >= 1`` and
    ``0 <= n_py_years <= ncr``: no more citing years than occurrences.
    """

    __slots__ = ("key", "reference", "ncr", "cluster_id", "n_py_years", "py_years")

    def __init__(
        self,
        key: str,
        reference: CitedReference,
        ncr: int,
        cluster_id: Optional[int] = None,
        n_py_years: int = 0,
        py_years: Optional[int] = None,
    ):
        if ncr < 1:
            raise ValueError("variant ncr must be >= 1")
        if n_py_years < 0:
            raise ValueError("variant n_py_years must be >= 0")
        if n_py_years > ncr:
            raise ValueError("variant n_py_years must be <= its ncr")
        _set(self, "key", key)
        _set(self, "reference", reference)
        _set(self, "ncr", ncr)
        _set(self, "cluster_id", cluster_id)
        _set(self, "n_py_years", n_py_years)
        _set(self, "py_years", py_years)

    @property
    def rpy(self) -> Optional[int]:
        return self.reference.rpy


YearFilter = tuple[int, int, bool]  # (lo, hi, include_unknown)


def canonical_order(v: CRVariant):
    """Sort key of the canonical variant order: dated variants by
    (rpy, key), undated ones last."""
    rpy = v.reference.rpy
    return (rpy is None, rpy if rpy is not None else 0, v.key)


class Dataset(Frozen):
    """The working set: variant table, import-level counts and provenance.

    ``n_cr_total`` records the occurrence count at import time and never
    changes afterwards; removal only shrinks the variant table, so
    ``sum(v.ncr) <= n_cr_total`` always holds. The import's year filters
    are recorded only in ``provenance``, the operation log.
    """

    __slots__ = ("variants", "n_citing", "n_cr_total", "provenance")
    _defaults = {"n_citing": 0, "n_cr_total": 0, "provenance": ""}
    _factories = {"variants": dict}

    variants: dict[str, CRVariant]
    n_citing: int
    n_cr_total: int
    provenance: str

    def sorted_variants(self) -> list[CRVariant]:
        """Variants in canonical order: (rpy, key), undated ones last."""
        return sorted(self.variants.values(), key=canonical_order)

    def sum_ncr(self) -> int:
        return sum(v.ncr for v in self.variants.values())

    def with_variants(self, variants: Iterable[CRVariant], note: str) -> Dataset:
        table = {v.key: v for v in variants}
        return self.replace(variants=table, provenance=self.log(note))

    def log(self, note: str) -> str:
        return f"{self.provenance}; {note}" if self.provenance else note


class SpectroRow(NamedTuple):
    rpy: int
    ncr: int
    median_dev: float


# A spectrogram is its rows. compute_spectrogram's are strictly increasing
# in year with no gaps: years without CRs appear with ncr = 0.
Spectrogram = tuple[SpectroRow, ...]


def aggregate(
    occurrences: LineTables | Iterable[tuple[str, Optional[int]]],
    n_citing: int = 0,
    provenance: str = "",
) -> Dataset:
    """Fold a sample into the distinct-variant table.

    ``occurrences`` is a sampler's ``LineTables``, or (line, py) pairs,
    each a CR line as read (not yet normalized) and its citing year,
    which are folded into those tables first (``fold``). One CRVariant
    per distinct key; ncr counts occurrences and n_py_years counts
    distinct citing years. ``normalize_key`` runs once per distinct line
    and the lines are folded into their keys, in the order in which each
    key first occurs; one ``parse_key`` per distinct key builds its
    CitedReference. Every line must have a key (a non-empty
    ``normalize_key``). An empty sample yields an empty Dataset. Callers
    filter the sample beforehand and note the filters in ``provenance``.
    """
    if not isinstance(occurrences, LineTables):
        occurrences = fold(occurrences)
    line_counts, line_masks = occurrences
    counts: dict[str, int] = {}
    masks: dict[str, int] = {}
    for line, n in line_counts.items():
        key = normalize_key(line)
        if key in counts:
            counts[key] += n
            masks[key] |= line_masks[line]
        else:
            counts[key] = n
            masks[key] = line_masks[line]
    variants = {
        key: CRVariant(key, parse_key(key), n, None, masks[key].bit_count(), masks[key])
        for key, n in counts.items()
    }
    return Dataset(
        variants=variants,
        n_citing=n_citing,
        n_cr_total=sum(line_counts.values()),
        provenance=provenance,
    )
