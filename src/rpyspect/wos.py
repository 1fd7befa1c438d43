"""Streaming parser for Web-of-Science tagged export files.

The reader is a generator that holds one record at a time, so peak memory
is O(sample size + one record) regardless of file size. Field-tag layout
(2-char tag, value from column 4, 3-space continuation indent) is
documented byte-exactly in docs/wos-format.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple, Optional

from .errors import DomainError, EmptySampleError
from .model import (
    CitedReference,
    CitingRecord,
    Dataset,
    Occurrence,
    YearFilter,
    aggregate,
    normalize_key,
)
from .sampling import (
    MODES,
    ClusterSampler,
    NoneSampler,
    RandomSampler,
    Sampler,
    SystematicSampler,
)

SUPPORTED_FORMATS = ("WOS",)
RESERVED_FORMATS = ("SCOPUS", "CROSSREF")


@dataclass
class ImportFilter:
    """Year filters plus sampling parameters for one import.

    Ranges are (lo, hi, include_unknown) triples; include_unknown decides
    whether records/CRs without a parseable year pass. max_cr 0 means no
    limit. offset is only meaningful for SYSTEMATIC sampling; it is
    accepted but ignored otherwise.
    """

    rpy_range: Optional[YearFilter] = None
    py_range: Optional[YearFilter] = None
    max_cr: int = 0
    sampling_mode: str = "NONE"
    offset: int = 0
    seed: Optional[int] = None

    def __post_init__(self):
        for rng in (self.rpy_range, self.py_range):
            if rng is not None and rng[0] > rng[1]:
                raise DomainError(f"year range lo > hi: {rng}")
        if self.max_cr < 0:
            raise DomainError("max_cr must be >= 0")
        if self.offset < 0:
            raise DomainError("offset must be >= 0")
        if self.sampling_mode not in MODES:
            raise DomainError(f"unknown sampling mode {self.sampling_mode!r}")


class FileStats(NamedTuple):
    n_citing: int
    n_cr: int


@dataclass
class ParseStats:
    """Non-fatal parse diagnostics (reported, never raised).

    ``malformed_records`` counts records left open at EF/EOF and CR lines
    that normalize to the empty string.
    """

    malformed_records: int = 0

    def warning(self) -> Optional[str]:
        """The line ``-v`` reports when anything was skipped, else None."""
        if not self.malformed_records:
            return None
        return f"warning: {self.malformed_records} malformed records or CR lines skipped"


class MemoryProbe:
    """Instrumentation hook for the streaming contract.

    The import pipeline reports the number of simultaneously live
    CitedReferences (sampler-retained occurrences plus the current
    record's CRs) after each record; the probe keeps the peak.
    """

    def __init__(self):
        self.peak = 0
        self.records_seen = 0

    def observe(self, live: int) -> None:
        self.records_seen += 1
        if live > self.peak:
            self.peak = live


def _year_passes(year: Optional[int], rng: Optional[YearFilter]) -> bool:
    if rng is None:
        return True
    if year is None:
        return rng[2]
    return rng[0] <= year <= rng[1]


def parse_cr_line(line: str) -> Optional[CitedReference]:
    """Parse one cited-reference line into its fields.

    Works on the normalized form of the line (upper case, collapsed
    whitespace), splitting on ", ": first token is the author; a 4-digit
    token right after it is the reference publication year; the next token
    seeds the source; remaining tokens are claimed as volume ("V" +
    digits), page ("P" + alphanumerics, hyphens allowed), or DOI ("DOI "
    prefix), and anything unclaimed is appended back onto the source.
    A line with no parseable year yields rpy = None; a line that
    normalizes to the empty string (e.g. only punctuation) yields None.
    """
    norm = normalize_key(line)
    if not norm:
        return None
    tokens = norm.split(", ")
    author = tokens[0]
    rpy: Optional[int] = None
    source_parts: list[str] = []
    volume: Optional[str] = None
    page: Optional[str] = None
    doi: Optional[str] = None

    rest = tokens[1:]
    i = 0
    if rest and len(rest[0]) == 4 and rest[0].isdigit():
        year = int(rest[0])
        if 1000 <= year <= 3000:
            rpy = year
            i = 1
    if i < len(rest):
        source_parts.append(rest[i])
        i += 1
    for tok in rest[i:]:
        if not tok:
            continue
        if volume is None and len(tok) > 1 and tok[0] == "V" and tok[1:].isdigit():
            volume = tok[1:]
        elif page is None and _is_page_token(tok):
            page = tok[1:]
        elif doi is None and tok.startswith("DOI ") and len(tok) > 4:
            doi = tok[4:]
        else:
            source_parts.append(tok)
    return CitedReference(
        raw=line,
        author=author,
        rpy=rpy,
        source=", ".join(source_parts),
        volume=volume,
        page=page,
        doi=doi,
    )


def _is_page_token(tok: str) -> bool:
    if len(tok) < 2 or tok[0] != "P":
        return False
    body = tok[1:]
    return body[0].isalnum() and all(c.isalnum() or c == "-" for c in body)


def _decoded_lines(stream: BinaryIO) -> Iterator[str]:
    # Real exports mix encodings; decode line-wise with Latin-1 fallback.
    for bline in stream:
        try:
            yield bline.decode("utf-8")
        except UnicodeDecodeError:
            yield bline.decode("latin-1")


def parse_wos(stream: BinaryIO, stats: Optional[ParseStats] = None) -> Iterator[CitingRecord]:
    """Yield CitingRecords from a WoS tagged export, in file order.

    Record boundaries sit at the ER tag; a record still open at EF/EOF is
    malformed and skipped (counted in ``stats``), and so is a CR line that
    normalizes to the empty string, which has no key. Unknown tags and
    their continuation lines are ignored.
    """
    stats = stats if stats is not None else ParseStats()
    py: Optional[int] = None
    doc_type = ""
    crs: list[CitedReference] = []
    open_record = False
    last_tag = ""

    def add_cr(text: str) -> None:
        cr = parse_cr_line(text)
        if cr is None:
            stats.malformed_records += 1
        else:
            crs.append(cr)

    for raw_line in _decoded_lines(stream):
        line = raw_line.rstrip("\r\n")
        if not line:
            continue
        if line.startswith("   "):
            if open_record and last_tag == "CR":
                text = line[3:]
                if text.strip():
                    add_cr(text)
            continue
        tag = line[:2]
        if not (tag.isalpha() and tag.isupper() and (len(line) == 2 or line[2] == " ")):
            continue
        value = line[3:] if len(line) > 3 else ""
        if tag in ("FN", "VR"):
            last_tag = tag
            continue
        if tag == "EF":
            if open_record:
                stats.malformed_records += 1
                open_record = False
            break
        if tag == "ER":
            if open_record:
                yield CitingRecord(py=py, doc_type=doc_type, crs=tuple(crs))
                open_record = False
            last_tag = ""
            continue
        if not open_record:
            open_record = True
            py = None
            doc_type = ""
            crs = []
        if tag == "PY":
            try:
                py = int(value.strip())
            except ValueError:
                py = None
        elif tag == "DT":
            doc_type = value.strip()
        elif tag == "CR":
            if value.strip():
                add_cr(value)
        last_tag = tag

    if open_record:
        stats.malformed_records += 1


def parse_wos_path(path, stats: Optional[ParseStats] = None) -> Iterator[CitingRecord]:
    with open(path, "rb") as fh:
        yield from parse_wos(fh, stats)


def check_format(fmt: str) -> None:
    fmt = fmt.upper()
    if fmt in SUPPORTED_FORMATS:
        return
    if fmt in RESERVED_FORMATS:
        raise NotImplementedError(f"import format {fmt} is reserved but not implemented")
    raise DomainError(f"unknown import format {fmt!r}")


def analyze_file(path, filt: ImportFilter, stats: Optional[ParseStats] = None) -> FileStats:
    """Count citing records and CRs passing the year filters, without
    retaining records. Sampling fields of ``filt`` are ignored: the CR
    count is the population total the systematic sampler divides by.
    """
    n_citing = 0
    n_cr = 0
    for rec in parse_wos_path(path, stats):
        if not _year_passes(rec.py, filt.py_range):
            continue
        n_citing += 1
        for cr in rec.crs:
            if _year_passes(cr.rpy, filt.rpy_range):
                n_cr += 1
    return FileStats(n_citing=n_citing, n_cr=n_cr)


def _format_range(rng: Optional[YearFilter]) -> str:
    if rng is None:
        return "-"
    return f"[{rng[0]},{rng[1]},{'true' if rng[2] else 'false'}]"


def build_sampler(filt: ImportFilter, total: Optional[int] = None) -> Sampler:
    """Construct the sampler an ImportFilter asks for.

    SYSTEMATIC needs ``total`` (the filtered population CR count); CLUSTER
    needs a py_range to draw the citing year from.
    """
    seed = filt.seed if filt.seed is not None else 0
    mode = filt.sampling_mode
    if mode == "NONE":
        return NoneSampler(limit=filt.max_cr)
    if mode == "RANDOM":
        return RandomSampler(n=filt.max_cr, seed=seed)
    if mode == "SYSTEMATIC":
        if total is None:
            raise DomainError("systematic sampling needs the population CR count")
        return SystematicSampler(n=filt.max_cr, total=total, offset=filt.offset)
    if mode == "CLUSTER":
        if filt.py_range is None:
            raise DomainError("cluster sampling requires a citing-year range")
        return ClusterSampler(filt.py_range[0], filt.py_range[1], seed=seed)
    raise DomainError(f"unknown sampling mode {mode!r}")


def import_file(
    path,
    filt: ImportFilter,
    sampler: Optional[Sampler] = None,
    probe: Optional[MemoryProbe] = None,
    stats: Optional[ParseStats] = None,
) -> Dataset:
    """Stream a WoS file through the filters and a sampler into a Dataset.

    For SYSTEMATIC sampling the population CR count is established with an
    automatic counting pass (the file is read twice rather than buffered).
    Raises EmptySampleError when the sampler selects nothing.
    """
    if sampler is None:
        total = None
        if filt.sampling_mode == "SYSTEMATIC":
            total = analyze_file(path, filt).n_cr
            if total == 0:
                raise EmptySampleError("SYSTEMATIC sample is empty: no CRs pass the filters")
        sampler = build_sampler(filt, total=total)

    n_citing = 0
    scanning = True
    for rec in parse_wos_path(path, stats):
        if _year_passes(rec.py, filt.py_range):
            n_citing += 1
            for cr in rec.crs:
                if not _year_passes(cr.rpy, filt.rpy_range):
                    continue
                sampler.offer(Occurrence(cr, rec.py))
                if not sampler.wants_more():
                    scanning = False
                    break
        if probe is not None:
            probe.observe(sampler.retained() + len(rec.crs))
        if not scanning:
            break

    selected = sampler.result()
    if not selected:
        raise EmptySampleError(f"{sampler.mode} sampling selected no CRs from {path}")
    seed = filt.seed if filt.seed is not None else 0
    note = (
        f"import file={path} rpy={_format_range(filt.rpy_range)}"
        f" py={_format_range(filt.py_range)} sampling={sampler.mode}"
        f" maxCR={filt.max_cr} offset={filt.offset} seed={seed}"
    )
    return aggregate(selected, n_citing=n_citing, provenance=note)
