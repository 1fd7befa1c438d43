"""Streaming parser for Web-of-Science tagged export files.

The reader is a generator that holds one record and one 64 KiB block of
input at a time, so an import's peak memory is O(distinct lines of the
sample + one record) regardless of file size (a RANDOM import holds its
reservoir). It keeps CR lines as read; years are read only for an RPY
filter, which decides the lines of each record with one compiled pattern
built from its years (``_year_gate``). The field-tag layout (2-char tag,
value from column 4, 3-space continuation indent) is documented
byte-exactly in docs/wos-format.md.
"""

from __future__ import annotations

import functools
import random
import re
from itertools import filterfalse
from typing import BinaryIO, Callable, Iterator, Optional, Sequence

from .errors import DomainError, EmptySampleError
from .model import (
    NO_KEY,
    RAW_YEAR_HEAD,
    RAW_YEAR_TAIL,
    YEAR_MAX,
    YEAR_MIN,
    Dataset,
    YearFilter,
    aggregate,
    parse_year,
)
from .sampling import MODES, NoneSampler, RandomSampler, Sampler, SystematicSampler
from .structs import Frozen, Struct

Lines = Sequence[str]  # the CR lines of one record as read, in file order
Record = tuple[Optional[int], Lines]  # (py, crs) of one citing record

SUPPORTED_FORMATS = ("WOS",)
RESERVED_FORMATS = ("SCOPUS", "CROSSREF")


class ImportFilter(Frozen):
    """Year filters plus sampling parameters for one import.

    Ranges are (lo, hi, include_unknown) triples; include_unknown decides
    whether records/CRs without a parseable year pass. max_cr is the
    sample size for NONE (0 means no limit), RANDOM and SYSTEMATIC;
    CLUSTER ignores it and keeps every CR of one citing year drawn from
    its py_range, which it must have. offset is only used by SYSTEMATIC;
    seed by RANDOM and CLUSTER, and must be >= 0 (``random.Random`` seeds
    with an int's absolute value, so -1 would draw what 1 draws).
    ``_validate`` runs whenever a filter is built, ``replace`` included,
    and the record is frozen, so a filter stays valid: ``build_sampler``,
    ``import_file`` and the samplers rely on its checks.
    """

    __slots__ = ("rpy_range", "py_range", "max_cr", "sampling_mode", "offset", "seed")
    _defaults = {
        "rpy_range": None,
        "py_range": None,
        "max_cr": 0,
        "sampling_mode": "NONE",
        "offset": 0,
        "seed": 0,
    }

    rpy_range: Optional[YearFilter]
    py_range: Optional[YearFilter]
    max_cr: int
    sampling_mode: str
    offset: int
    seed: int

    def _validate(self):
        for rng in (self.rpy_range, self.py_range):
            if rng is not None and rng[0] > rng[1]:
                raise DomainError(f"year range lo > hi: {rng}")
        for name in ("max_cr", "offset", "seed"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.sampling_mode not in MODES:
            raise DomainError(f"unknown sampling mode {self.sampling_mode!r}")
        if self.sampling_mode == "CLUSTER" and self.py_range is None:
            raise DomainError("cluster sampling requires a citing-year range")


class ParseStats(Struct):
    """What one pass over a WoS file saw; problems are reported, never raised.

    ``malformed_records`` counts records left open at EF/EOF and CR lines
    that have no key (``parse_cr_line``); every pass given this object adds
    to it. ``n_citing`` and ``n_cr`` are the passing records and CRs of the
    records the last pass read: ``analyze_file`` reads the whole file, an
    ``import_file`` that stops early only up to the record it stopped in.
    """

    __slots__ = ("malformed_records", "n_citing", "n_cr")
    _defaults = {"malformed_records": 0, "n_citing": 0, "n_cr": 0}

    malformed_records: int
    n_citing: int
    n_cr: int

    def report(self, verbose: int, sink: Callable[[str], None]) -> None:
        """Under ``-v`` (``verbose`` > 0), tell ``sink`` what was skipped."""
        if verbose and self.malformed_records:
            sink(f"warning: {self.malformed_records} malformed records or CR lines skipped")


class MemoryProbe:
    """Instrumentation hook for the streaming contract.

    The import pipeline reports the number of simultaneously live
    entries after each record: the entries the sampler holds
    (``Sampler.held``: one per distinct kept line, or one per reservoir
    slot for RANDOM) plus all of the current record's CR lines, filtered
    out or not. The probe keeps the peak.
    """

    def __init__(self):
        self.peak = 0
        self.records_seen = 0

    def observe(self, live: int) -> None:
        self.records_seen += 1
        if live > self.peak:
            self.peak = live


_no_key = NO_KEY.fullmatch


def parse_cr_line(line: str) -> Optional[str]:
    """The line as read, or None if its key would be empty (only
    whitespace and ``.,;:``, so never when it starts with a letter or
    digit). This is the reader's only per-line work: ``aggregate``
    computes the key once per distinct line a sampler retains.
    """
    if line[:1].isalnum() or not _no_key(line):
        return line
    return None


# Large enough that decoding costs one call per block, small enough to
# keep the reader's buffer small (1 MiB blocks were no faster).
_BLOCK = 1 << 16


def _block_lines(chunk: bytes) -> list[str]:
    r"""The lines of ``chunk``, which ends with b"\n", without it."""
    try:
        lines = chunk.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        # Real exports mix encodings; decode line-wise with Latin-1 fallback.
        lines = []
        for bline in chunk.split(b"\n"):
            try:
                lines.append(bline.decode("utf-8"))
            except UnicodeDecodeError:
                lines.append(bline.decode("latin-1"))
    lines.pop()
    return lines


def _decoded_lines(stream: BinaryIO) -> Iterator[str]:
    r"""The lines of ``stream``, split at b"\n" only and without it.

    Reads 64 KiB blocks and decodes each up to its last b"\n" in one
    call; b"\n" never occurs inside a UTF-8 multi-byte sequence, so a
    block decodes exactly when each of its lines does. A block that does
    not is decoded line by line, each line as UTF-8 or else Latin-1.
    """
    tail = bytearray()
    while block := stream.read(_BLOCK):
        cut = block.rfind(b"\n") + 1
        if cut:
            tail += block[:cut]
            yield from _block_lines(tail)
            tail = bytearray(block[cut:])
        else:
            tail += block
    if tail:
        tail += b"\n"
        yield from _block_lines(tail)


def parse_wos(stream: BinaryIO, stats: Optional[ParseStats] = None) -> Iterator[Record]:
    """Yield each record of a WoS tagged export as (py, crs), in file order:
    its citing year and its own list of CR lines as read, in file order
    (systematic sampling depends on that order).

    Record boundaries sit at the ER tag; a record still open at EF/EOF is
    malformed and skipped (counted in ``stats``), and so is a CR line that
    has no key (``parse_cr_line``). ``PY`` follows the reference-year rule
    (``parse_year``), anything else is an unknown citing year. Unknown
    tags and their continuation lines are ignored. A tag line ends before
    its trailing carriage returns; a continuation keeps them, and
    ``normalize_key`` drops them with the other trailing whitespace.
    """
    stats = stats if stats is not None else ParseStats()
    py: Optional[int] = None
    crs: list[str] = []
    add = crs.append
    open_record = False
    in_cr = False  # the last tag line was a CR line

    for line in _decoded_lines(stream):
        if line.startswith("   "):
            if not in_cr:
                continue
        else:
            line = line.rstrip("\r")
            tag = line[:2]
            if not (tag.isascii() and tag.isalpha() and tag.isupper()):
                continue
            if not (len(line) == 2 or line[2:3] == " "):
                continue
            in_cr = tag == "CR"
            if tag in ("FN", "VR"):
                continue
            if tag == "EF":
                if open_record:
                    stats.malformed_records += 1
                    open_record = False
                break
            if tag == "ER":
                if open_record:
                    yield py, crs
                    open_record = False
                continue
            if not open_record:
                open_record = True
                py = None
                crs = []
                add = crs.append
            if tag == "PY":
                py = parse_year(line[3:].strip())
            if not in_cr:
                continue
        # One reference per CR line or continuation; blank ones are not CRs.
        text = line[3:]
        if text and not text.isspace():
            cr = parse_cr_line(text)
            if cr is None:
                stats.malformed_records += 1
            else:
                add(cr)

    if open_record:
        stats.malformed_records += 1


def parse_wos_path(path, stats: Optional[ParseStats] = None) -> Iterator[Record]:
    """``parse_wos`` of the file at ``path``."""
    with open(path, "rb") as fh:
        yield from parse_wos(fh, stats)


def check_format(fmt: str) -> None:
    fmt = fmt.upper()
    if fmt in SUPPORTED_FORMATS:
        return
    if fmt in RESERVED_FORMATS:
        raise DomainError(f"import format {fmt} is reserved but not implemented")
    raise DomainError(f"unknown import format {fmt!r}")


def _digit_trie(spellings: Sequence[str]) -> str:
    """A regex that matches exactly ``spellings``, distinct digit strings
    of one length (at least one of them), as a trie: sibling digits whose
    subtries are equal share one character class."""
    if not spellings[0]:
        return ""
    rests: dict[str, list[str]] = {}
    for spelling in spellings:
        rests.setdefault(spelling[0], []).append(spelling[1:])
    digits: dict[str, str] = {}  # subtrie -> the digits that lead to it
    for digit, rest in rests.items():
        sub = _digit_trie(rest)
        digits[sub] = digits.get(sub, "") + digit
    branches = [(d if len(d) == 1 else f"[{d}]") + sub for sub, d in digits.items()]
    return branches[0] if len(branches) == 1 else "(?:" + "|".join(branches) + ")"


@functools.lru_cache(maxsize=32)
def _year_gate(lo: int, hi: int, unknown: bool) -> Callable[[str], object]:
    r"""The ``match`` of the year gate of the RPY filter (lo, hi, unknown).

    The gate is ``RAW_YEAR_HEAD``, the ASCII spellings of some years and
    ``RAW_YEAR_TAIL``: with ``unknown`` false, the years the filter keeps,
    [max(lo, YEAR_MIN), min(hi, YEAR_MAX)], so a line passes if the gate
    matches it; with ``unknown`` true, the other years of [YEAR_MIN,
    YEAR_MAX], so a line passes if it does not. The head stops only at the
    line's first "," plus whitespace run, and ``\s+`` gives back no digit,
    so the gate reads the key's second ", " token, and ``parse_year``
    reads a year only from 4 ASCII digits: the gate keeps exactly the
    lines whose key's year passes the filter, whatever their characters.

    The head sits in a lookahead whose match is then read back (``\1``):
    the head can match only one way, and a lookahead is not backtracked
    into, so a line the gate refuses costs one pass of the head rather
    than one retry per character the head could give back (Python 3.10
    has no atomic groups). Cached, so the imports and the count pass of a
    loop compile the gate once.
    """
    kept = range(max(lo, YEAR_MIN), min(hi, YEAR_MAX) + 1)
    years = [str(y) for y in range(YEAR_MIN, YEAR_MAX + 1) if (y in kept) != unknown]
    spelled = _digit_trie(years) if years else "(?!)"
    return re.compile(f"(?=({RAW_YEAR_HEAD}))\\1(?:{spelled}){RAW_YEAR_TAIL}").match


def _passing(
    path, filt: ImportFilter, stats: ParseStats
) -> Iterator[tuple[Optional[int], Lines, Lines]]:
    """Each (py, crs) record of ``path`` with the CR lines of ``crs``
    that pass both year filters, as (py, crs, passing).

    A record whose citing year fails the PY filter has an empty
    ``passing``. Without an RPY filter a passing record is yielded as
    read: ``passing`` is ``crs`` itself, and no CR year is read. With
    one, each passing record is decided in one C-level pass of the
    filter's year gate (``_year_gate``), which keeps the lines whose key's
    year (``parse_year`` of its second ", " token) passes the filter. This
    is the one place that applies the filters and counts what passes, so
    the count pass totals exactly the CRs an import offers, in file order.
    ``stats.n_citing`` and ``stats.n_cr`` start at 0 and cover the records
    yielded so far.
    """
    # parse_year returns only years in [YEAR_MIN, YEAR_MAX]: no filter, all pass.
    py_lo, py_hi, py_unknown = filt.py_range or (YEAR_MIN, YEAR_MAX, True)
    unfiltered = filt.rpy_range is None
    lo, hi, unknown = filt.rpy_range or (YEAR_MIN, YEAR_MAX, True)
    gate = None if unfiltered else _year_gate(lo, hi, unknown)
    select = filterfalse if unknown else filter
    stats.n_citing = stats.n_cr = 0
    for py, crs in parse_wos_path(path, stats):
        if not (py_unknown if py is None else py_lo <= py <= py_hi):
            yield py, crs, ()
            continue
        passing = crs if unfiltered else list(select(gate, crs))
        stats.n_citing += 1
        stats.n_cr += len(passing)
        yield py, crs, passing


def analyze_file(path, filt: ImportFilter, stats: Optional[ParseStats] = None) -> ParseStats:
    """Count citing records and CRs passing the year filters, without
    retaining records. Sampling fields of ``filt`` are ignored: the CR
    count is the population total the systematic sampler divides by, and
    it comes from the same filtered stream (``_passing``) that
    ``import_file`` offers from.

    The counts are stored in ``stats`` (or a new ParseStats), replacing
    any earlier ones, and that object is returned.
    """
    stats = stats if stats is not None else ParseStats()
    for _ in _passing(path, filt, stats):
        pass
    return stats


def _format_range(rng: Optional[YearFilter]) -> str:
    if rng is None:
        return "-"
    return f"[{rng[0]},{rng[1]},{'true' if rng[2] else 'false'}]"


def build_sampler(filt: ImportFilter, total: Optional[int] = None) -> Sampler:
    """Construct the sampler an ImportFilter asks for.

    SYSTEMATIC needs ``total``, the count of CRs that pass the year
    filters (``analyze_file(...).n_cr``); a total of 0 raises
    EmptySampleError, for ``import_file``'s own count and for the script
    engine's cached one alike. NONE with a ``max_cr`` of n keeps the first
    n passing CRs: a systematic sample of n out of n, step 1 and offset 0.
    A CLUSTER filter gets the NONE sampler of no limit; ``import_file``
    narrows its py_range to the drawn year first.
    """
    mode = filt.sampling_mode
    if mode == "NONE" and filt.max_cr:
        return SystematicSampler(n=filt.max_cr, total=filt.max_cr)
    if mode == "RANDOM":
        return RandomSampler(n=filt.max_cr, seed=filt.seed)
    if mode == "SYSTEMATIC":
        if total is None:
            raise DomainError("systematic sampling needs the population CR count")
        if total == 0:
            raise EmptySampleError("SYSTEMATIC sample is empty: no CRs pass the filters")
        return SystematicSampler(n=filt.max_cr, total=total, offset=filt.offset)
    return NoneSampler()


def import_file(
    path,
    filt: ImportFilter,
    sampler: Optional[Sampler] = None,
    probe: Optional[MemoryProbe] = None,
    stats: Optional[ParseStats] = None,
) -> Dataset:
    """Stream a WoS file through the filters and a sampler into a Dataset.

    Without a ``sampler`` one is built from ``filt``; for SYSTEMATIC
    sampling that first runs a counting pass (``analyze_file``) for the
    population CR count, so the file is read twice rather than buffered.
    A caller that already knows the count passes a sampler built with
    ``build_sampler(filt, total=...)`` and saves that pass, as the script
    engine does. The sampler is offered the passing CR lines of the
    stream the count pass reads (``_passing``), with their citing year, a
    record at a time; the import stops at the first record after which it
    wants no more (a full sampler ignores the rest of that record).
    ``stats`` (or a new ParseStats) counts what was read up to there.
    Raises EmptySampleError for an empty population or selection.

    A CLUSTER import is a NONE import of one citing year: it draws the
    year uniformly from ``py_range`` by the reservoir's rule (see
    ``sampling``) and narrows ``py_range`` to that year, unknown years
    excluded. So ``n_citing`` counts the drawn year's records and the
    provenance names the year.
    """
    if filt.sampling_mode == "CLUSTER":
        lo, hi, _ = filt.py_range
        # CPython keeps getrandbits' output for a seed, not randint's mapping.
        width = hi - lo + 1
        getrandbits = random.Random(filt.seed).getrandbits
        r = getrandbits(width.bit_length())
        while r >= width:
            r = getrandbits(width.bit_length())
        filt = filt.replace(py_range=(lo + r, lo + r, False))
    if sampler is None:
        total = analyze_file(path, filt).n_cr if filt.sampling_mode == "SYSTEMATIC" else None
        sampler = build_sampler(filt, total=total)

    stats = stats if stats is not None else ParseStats()
    offer = sampler.offer
    for py, crs, passing in _passing(path, filt, stats):
        for line in passing:
            offer(line, py)
        if probe is not None:
            probe.observe(sampler.held() + len(crs))
        if not sampler.wants_more():
            break

    selected = sampler.result()
    if not selected.counts:
        raise EmptySampleError(f"{filt.sampling_mode} sampling selected no CRs from {path}")
    note = (
        f"import file={path} rpy={_format_range(filt.rpy_range)}"
        f" py={_format_range(filt.py_range)} sampling={filt.sampling_mode}"
        f" maxCR={filt.max_cr} offset={filt.offset} seed={filt.seed}"
    )
    return aggregate(selected, n_citing=stats.n_citing, provenance=note)
