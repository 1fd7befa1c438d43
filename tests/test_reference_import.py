"""A naive reference importer written from docs/wos-format.md, and a
property that ``wos.import_file`` agrees with it.

The reference reads the whole file line by line into records, keeps an
explicit last tag, and selects by explicit formulas: the first maxCR
occurrences, positions ``offset + k·step``, textbook algorithm R over
``random.Random(seed).randrange(i + 1)``, or every occurrence of one
citing year drawn with ``random.Random(seed).randint(lo, hi)``, whose
``n_citing`` counts the records of that year. It has no streaming and no
early stop. The import reports only what it read before it stopped
(``n_citing``, ``malformed_records``), so the reference finds the record
that holds the selection's last position when the sample is full.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from rpyspect.errors import DomainError, EmptySampleError, OffsetTooLargeError, RpysError
from rpyspect.sampling import MODES
from rpyspect.wos import ImportFilter, ParseStats, import_file

from test_formats import wos_files
from test_wos import reference_normalize_key


def reference_year(token: str) -> Optional[int]:
    """Rule 2: 4 decimal digits that int() reads, in 1000–3000."""
    if len(token) == 4 and token.isdecimal() and 1000 <= int(token) <= 3000:
        return int(token)
    return None


@dataclass
class Record:
    py: Optional[int] = None
    crs: list[tuple[str, Optional[int]]] = field(default_factory=list)  # (key, rpy)
    malformed: int = 0  # CR lines without a key


def add_cr(record: Record, text: str) -> None:
    if not text.strip():
        return  # a blank CR line is not a CR
    key = reference_normalize_key(text)
    if not key:
        record.malformed += 1
        return
    tokens = key.split(", ")
    record.crs.append((key, reference_year(tokens[1]) if len(tokens) > 1 else None))


def reference_parse_wos(data: bytes) -> tuple[list[Record], int]:
    """The records that ``ER`` closes, in file order, and the malformed
    count of the record still open at ``EF`` or end of input (1 plus its
    CR lines without a key; 0 when none is open)."""
    records: list[Record] = []
    current: Optional[Record] = None
    last_tag = ""
    for piece in data.split(b"\n"):
        try:
            line = piece.decode("utf-8")
        except UnicodeDecodeError:
            line = piece.decode("latin-1")
        line = line.rstrip("\r")
        if line.startswith("   "):
            if current is not None and last_tag == "CR":
                add_cr(current, line[3:])
            continue
        tag = line[:2]
        if not (
            len(tag) == 2
            and all(c in string.ascii_uppercase for c in tag)
            and line[2:3] in ("", " ")
        ):
            continue
        last_tag = tag
        if tag in ("FN", "VR"):
            continue
        if tag == "EF":
            break
        if tag == "ER":
            if current is not None:
                records.append(current)
                current = None
            continue
        if current is None:
            current = Record()
        if tag == "PY":
            current.py = reference_year(line[3:].strip())
        elif tag == "CR":
            add_cr(current, line[3:])
    return records, 0 if current is None else current.malformed + 1


def passes(year: Optional[int], rng) -> bool:
    if rng is None:
        return True
    lo, hi, unknown = rng
    return unknown if year is None else lo <= year <= hi


def drawn_year(filt: ImportFilter) -> int:
    return random.Random(filt.seed).randint(filt.py_range[0], filt.py_range[1])


def reference_select(filt: ImportFilter, pys: list[Optional[int]]) -> tuple[list[int], Optional[int]]:
    """The stream positions a sample holds, in its own order, and the
    position at which it is full (None if it never is), for a stream of
    occurrences with citing years ``pys``."""
    n, total = filt.max_cr, len(pys)
    mode = filt.sampling_mode
    if mode == "NONE":
        if n == 0 or total < n:
            return list(range(total)), None
        return list(range(n)), n - 1
    if mode == "RANDOM":
        if n < 1:
            raise DomainError("random sample size must be >= 1")
        rng = random.Random(filt.seed)
        picks: list[int] = []
        for i in range(total):
            if i < n:
                picks.append(i)
            else:
                j = rng.randrange(i + 1)
                if j < n:
                    picks[j] = i
        return picks, None
    if mode == "SYSTEMATIC":
        if total == 0:
            raise EmptySampleError("no CRs pass the filters")
        if n < 1:
            raise DomainError("systematic sample size must be >= 1")
        step = max(1, total // n)
        if filt.offset >= step:
            raise OffsetTooLargeError(f"offset {filt.offset} >= step {step}")
        picks = [p for p in (filt.offset + k * step for k in range(n)) if p < total]
        return picks, picks[-1] if len(picks) == n else None
    assert mode == "CLUSTER"
    year = drawn_year(filt)
    return [i for i, py in enumerate(pys) if py == year], None


def reference_import(data: bytes, filt: ImportFilter) -> dict:
    """What ``import_file(path, filt)`` of a file holding ``data`` reports."""
    records, tail_malformed = reference_parse_wos(data)
    stream = []  # (record index, key, rpy, py)
    for r, rec in enumerate(records):
        if passes(rec.py, filt.py_range):
            stream += [(r, key, rpy, rec.py) for key, rpy in rec.crs if passes(rpy, filt.rpy_range)]
    picks, full_at = reference_select(filt, [occ[3] for occ in stream])
    if not picks:
        raise EmptySampleError(f"{filt.sampling_mode} sampling selected no CRs")
    read = records if full_at is None else records[: stream[full_at][0] + 1]
    ncr: dict[str, int] = {}
    years: dict[str, set[int]] = {}
    rpys: dict[str, Optional[int]] = {}
    for p in picks:
        _, key, rpy, py = stream[p]
        ncr[key] = ncr.get(key, 0) + 1
        rpys[key] = rpy
        years.setdefault(key, set())
        if py is not None:
            years[key].add(py)
    if filt.sampling_mode == "CLUSTER":
        n_citing = sum(rec.py == drawn_year(filt) for rec in read)
    else:
        n_citing = sum(passes(rec.py, filt.py_range) for rec in read)
    return {
        "variants": [(key, rpys[key], ncr[key], len(years[key])) for key in ncr],
        "n_citing": n_citing,
        "n_cr_total": len(picks),
        "malformed_records": sum(rec.malformed for rec in read)
        + (tail_malformed if full_at is None else 0),
    }


def year_ranges(years):
    return st.builds(
        lambda a, b, unknown: (min(a, b), max(a, b), unknown), years, years, st.booleans()
    )


def year_filters(years):
    return st.none() | year_ranges(years)


# wos_files writes the citing years 1990, 2011 and 2013 and the reference
# year 1990 (in ASCII or Arabic-Indic digits).
PY_YEARS = st.sampled_from([1990, 2011, 2012, 2013])

# Only valid filters: a CLUSTER filter always has a PY range to draw from.
IMPORT_FILTERS = st.sampled_from(MODES).flatmap(
    lambda mode: st.builds(
        ImportFilter,
        rpy_range=year_filters(st.sampled_from([1000, 1989, 1990, 1991, 3000])),
        py_range=year_ranges(PY_YEARS) if mode == "CLUSTER" else year_filters(PY_YEARS),
        max_cr=st.integers(0, 6),
        sampling_mode=st.just(mode),
        offset=st.integers(0, 3),
        seed=st.integers(0, 2**64),
    )
)


@settings(max_examples=500, deadline=None)
@given(data=wos_files, filt=IMPORT_FILTERS)
# Repeated "\r": a tag line still ends at its last "\r".
@example(
    data=b"PT J\r\r\nPY 2011\r\r\nCR A B, 1990, J\r\r\n   C D, 1991.\r\r\n   ;\r\r\nER\r\r\nEF",
    filt=ImportFilter(),
)
# A SYSTEMATIC sample of no CRs from a non-empty stream.
@example(
    data=b"PT J\nPY 2011\nCR A B, 1990, J\nER\nEF",
    filt=ImportFilter(max_cr=0, sampling_mode="SYSTEMATIC"),
)
def test_import_file_matches_the_reference(tmp_path_factory, data, filt):
    path = tmp_path_factory.getbasetemp() / "reference.txt"
    path.write_bytes(data)
    try:
        want = reference_import(data, filt)
    except RpysError as err:
        with pytest.raises(RpysError) as raised:
            import_file(path, filt)
        assert type(raised.value) is type(err)
        return
    stats = ParseStats()
    ds = import_file(path, filt, stats=stats)
    assert {
        "variants": [(v.key, v.rpy, v.ncr, v.n_py_years) for v in ds.variants.values()],
        "n_citing": ds.n_citing,
        "n_cr_total": ds.n_cr_total,
        "malformed_records": stats.malformed_records,
    } == want
