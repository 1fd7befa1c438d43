"""File formats: the CRE dataset container, the CSV_CR variant list, the
CSV_GRAPH spectrogram table, and the CRE union used for sample merging.

``load_cre`` is the one CRE reader; ``union_cre`` and a ``forEachUnion``
loop fold datasets through the one union rule, ``UnionFold``. The writer
has one renderer for the header lines, ``_header_lines``, and one for the
table rows, ``_row``; ``load_cre`` accepts a header line or a row only if
it is what that renderer gives for the values read from it.

CRE v1 is a line-oriented, tab-separated UTF-8 format with a trailing
body checksum; see docs/cre-format.md for byte-level examples. Output is
canonical: the same dataset always serializes to the same bytes, which is
what makes golden-file testing possible. All writes are atomic (temp file
plus rename).
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import re
from typing import Mapping, Optional, Sequence

from . import model, spectroscopy
from .errors import ChecksumError, CreFormatError, DomainError, EmptyDatasetError, FormatVersionError
from .model import (
    CRVariant,
    Dataset,
    Spectrogram,
    canonical_order,
    parse_key,
)

CRE_MAGIC = "#CRE"
CRE_VERSION = 1

_TABLE_COLUMNS = (
    "key",
    "author",
    "rpy",
    "source",
    "volume",
    "page",
    "doi",
    "ncr",
    "cluster_id",
    "n_py_years",
)

# The only integer spelling cre_bytes writes: ASCII digits, no sign, no
# leading zero. int() would also read "+3", " 1", "1_0" and "١٩٩٠".
_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*").fullmatch


def _int(text: str, name: str, where: str) -> int:
    if not _CANONICAL_INT(text):
        raise CreFormatError(f"{where}: {name} {text!r} is not a canonical integer")
    try:
        return int(text)
    except ValueError:  # longer than sys.get_int_max_str_digits()
        raise CreFormatError(f"{where}: {name} has {len(text)} digits, too many to read") from None


def _clean(text: str) -> str:
    # Header text is one line per field; tabs/newlines never survive.
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _fmt_settings(settings: Optional[Mapping[str, int]]) -> str:
    """The #SETTINGS text: ``name=value`` pairs sorted by name. A name is
    an ASCII identifier and a value a plain int (a script's arithmetic
    can make it negative), so the text splits back into its pairs."""
    settings = dict(settings or {})
    for name, value in settings.items():
        identifier = isinstance(name, str) and name.isascii() and name.isidentifier()
        if not identifier or type(value) is not int:
            raise DomainError(f"settings must map names to integers, got {settings!r}")
    try:
        return " ".join(f"{name}={settings[name]}" for name in sorted(settings))
    except ValueError:  # an int longer than sys.get_int_max_str_digits()
        raise DomainError("settings must map names to integers short enough to write") from None


def _header_lines(
    provenance: str, settings_text: str, n_citing: int, n_cr_total: int, n_variants: int
) -> tuple[str, str, str, str]:
    """Lines 2 to 5 of a CRE file, as ``cre_bytes`` writes them."""
    return (
        f"#PROVENANCE\t{_clean(provenance)}",
        f"#SETTINGS\t{settings_text}",
        f"#SUMMARY\t{n_citing}\t{n_cr_total}\t{n_variants}",
        "#TABLE\t" + "\t".join(_TABLE_COLUMNS),
    )


def _opt(value) -> str:
    return "" if value is None else str(value)


def _row(v: CRVariant) -> str:
    """The table row ``cre_bytes`` writes for ``v``: its key, its
    reference's fields and its counts. The only place in this module that
    reads a variant's parsed fields."""
    r = v.reference
    cols = (v.key, r.author, _opt(r.rpy), r.source, _opt(r.volume), _opt(r.page), _opt(r.doi))
    return "\t".join((*cols, str(v.ncr), _opt(v.cluster_id), str(v.n_py_years)))


# O_EXCL: never open a file some other writer made under the same name.
_NEW_FILE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _atomic_write(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file in its directory.

    The file gets the mode ``open(path, "w")`` gives a new file, 0o666
    less the umask (``tempfile.mkstemp`` would make it 0o600). An OSError
    names ``path``, never the temporary file, which is removed.
    """
    path = os.fspath(path)
    tmp = None
    try:
        name = os.path.join(os.path.dirname(path) or ".", f"tmp{os.urandom(6).hex()}.tmp")
        fd = os.open(name, _NEW_FILE_FLAGS, 0o666)
        tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def cre_bytes(dataset: Dataset, settings: Optional[Mapping[str, int]] = None) -> bytes:
    """Serialize a dataset to CRE v1 bytes (canonical variant order:
    rpy then key, undated variants last)."""
    variants = dataset.sorted_variants()
    header = _header_lines(
        dataset.provenance,
        _fmt_settings(settings),
        dataset.n_citing,
        dataset.n_cr_total,
        len(variants),
    )
    body = "\n".join([f"{CRE_MAGIC}\t{CRE_VERSION}", *header, *map(_row, variants)]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f"#CHECKSUM\t{digest}\n#END\n").encode("utf-8")


def save_cre(dataset: Dataset, path, settings: Optional[Mapping[str, int]] = None) -> None:
    _atomic_write(path, cre_bytes(dataset, settings))


def load_cre(path) -> Dataset:
    """Load a CRE v1 file, verifying version, checksum, header lines, row
    count, rows and row order.

    Each row's variant is built from its key and counts, with the key's
    parse (``parse_key``) as its reference, and the row must be ``_row``
    of that variant; citing-year sets come back as bare counts. Lines 2
    to 5 must be ``_header_lines`` of the provenance, settings and counts
    read from them and the row count. A header line that differs, or
    whose settings or counts cannot be read, a bad row (not 10 columns,
    or a key an earlier row holds), a bad field (an empty or unnormalized
    key, an integer not spelled as ``cre_bytes`` writes it, counts that
    ``CRVariant`` refuses, then the first field column that differs from
    its key's), a row out of canonical order or an n_cr_total below the
    table's sum of ncr raises CreFormatError naming the file and the
    1-based line.
    """
    provenance, n_citing, n_cr_total, rows = _read_header(path)
    variants: dict[str, CRVariant] = {}
    previous = None
    table_ncr = 0
    for lineno, row in enumerate(rows, start=6):
        where = f"{path}: line {lineno}"
        cols = row.split("\t")
        if len(cols) != len(_TABLE_COLUMNS):
            raise CreFormatError(f"{where}: malformed variant row {row!r}")
        key = cols[0]
        if key in variants:
            raise CreFormatError(f"{where}: duplicate variant key {key!r}")
        if not key:
            raise CreFormatError(f"{where}: empty key")
        # Looked up on the module so that rebinding model.normalize_key
        # (bench/tracer.py counts its calls) reaches this call too.
        if model.normalize_key(key) != key:
            raise CreFormatError(f"{where}: key {key!r} is not normalized")
        ncr = _int(cols[7], "ncr", where)
        cluster_id = _int(cols[8], "cluster_id", where) if cols[8] else None
        n_py = _int(cols[9], "n_py_years", where)
        try:
            variant = CRVariant(key, parse_key(key), ncr, cluster_id, n_py)
        except ValueError as exc:
            raise CreFormatError(f"{where}: {exc}") from None
        # The key and the counts are as written, so a row that differs
        # differs in a field column; the fields are the key's, so rpy is
        # canonical and in range too.
        written = _row(variant)
        if row != written:
            for name, got, derived in zip(_TABLE_COLUMNS, cols, written.split("\t")):
                if got != derived:
                    raise CreFormatError(
                        f"{where}: {name} {got!r} differs from {derived!r}, its key's"
                    )
        order = canonical_order(variant)
        if previous is not None and order < previous:
            raise CreFormatError(f"{where}: row is out of (rpy, key) order")
        previous = order
        table_ncr += ncr
        variants[key] = variant
    if n_cr_total < table_ncr:
        raise CreFormatError(
            f"{path}: line 4: n_cr_total {n_cr_total} is below the table's ncr sum {table_ncr}"
        )
    return Dataset(
        variants=variants,
        n_citing=n_citing,
        n_cr_total=n_cr_total,
        provenance=provenance,
    )


def _read_header(path) -> tuple[str, int, int, list[str]]:
    """Check a CRE file's encoding, checksum and first line, read the
    provenance, settings, n_citing and n_cr_total of lines 2 to 4, and
    require lines 2 to 5 to be ``_header_lines`` of those values and the
    row count. Return the values the dataset needs and the (unchecked)
    rows."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CreFormatError(f"{path}: not valid UTF-8: {exc}") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 7 or lines[-1] != "#END":
        raise CreFormatError(f"{path}: missing #END terminator")
    checksum_line = lines[-2]
    if not checksum_line.startswith("#CHECKSUM\t"):
        raise CreFormatError(f"{path}: missing #CHECKSUM line")
    body = "\n".join(lines[:-2]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if checksum_line.split("\t", 1)[1] != digest:
        raise ChecksumError(f"{path}: body does not match its checksum")

    head = lines[0].split("\t")
    if head[0] != CRE_MAGIC or len(head) != 2:
        raise CreFormatError(f"{path}: not a CRE file")
    version = _int(head[1], "version", f"{path}: line 1")
    if version != CRE_VERSION:
        raise FormatVersionError(f"{path}: unsupported CRE version {version}")

    rows = lines[5:-2]
    provenance = lines[1].partition("\t")[2]
    pairs = (pair.partition("=") for pair in lines[2].partition("\t")[2].split())
    try:
        settings_text = _fmt_settings({name: int(value) for name, _, value in pairs})
    except (ValueError, DomainError):
        raise CreFormatError(f"{path}: line 3: #SETTINGS is not name=integer pairs") from None
    summary = lines[3].split("\t") + ["", ""]  # a missing column reads as "", which _int refuses
    n_citing = _int(summary[1], "n_citing", f"{path}: line 4")
    n_cr_total = _int(summary[2], "n_cr_total", f"{path}: line 4")
    written = _header_lines(provenance, settings_text, n_citing, n_cr_total, len(rows))
    for lineno, got, want in zip(range(2, 6), lines[1:5], written):
        if got != want:
            raise CreFormatError(
                f"{path}: line {lineno}: {got!r} differs from {want!r},"
                " the line written for the values read from it"
            )
    return provenance, n_citing, n_cr_total, rows


def _fmt_num(x: float) -> str:
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return str(x)


def csv_cr_bytes(dataset: Dataset, n_pct_range: int = 0) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ID", "CR", "RPY", "N_CR", "PCT_RPY", "CID", "CID_SIZE"])
    cluster_sizes: dict[int, int] = {}
    for v in dataset.variants.values():
        if v.cluster_id is not None:
            cluster_sizes[v.cluster_id] = cluster_sizes.get(v.cluster_id, 0) + 1
    ordered = sorted(
        dataset.variants.values(),
        key=lambda v: (v.rpy is None, v.rpy if v.rpy is not None else 0, -v.ncr, v.key),
    )
    windows = spectroscopy.window_totals(dataset, n_pct_range)
    for i, v in enumerate(ordered, start=1):
        pct = v.ncr / windows[v.rpy]
        writer.writerow(
            [
                i,
                v.key,
                _opt(v.rpy),
                v.ncr,
                _fmt_num(pct),
                _opt(v.cluster_id),
                cluster_sizes[v.cluster_id] if v.cluster_id is not None else 1,
            ]
        )
    return buf.getvalue().encode("utf-8")


def export_csv_cr(dataset: Dataset, path, n_pct_range: int = 0) -> None:
    """Variant list as CSV (RFC 4180 quoting), sorted by (rpy, -ncr, key)."""
    _atomic_write(path, csv_cr_bytes(dataset, n_pct_range))


def csv_graph_bytes(spectrogram: Spectrogram) -> bytes:
    if not spectrogram:
        raise EmptyDatasetError("spectrogram has no rows")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["RPY", "N_CR", "MEDIAN_DEV"])
    for row in spectrogram:
        writer.writerow([row.rpy, row.ncr, _fmt_num(row.median_dev)])
    return buf.getvalue().encode("utf-8")


def export_csv_graph(spectrogram: Spectrogram, path) -> None:
    """Spectrogram as CSV, one row per year including zero-NCR gap years.

    Raises EmptyDatasetError before touching the file when there is
    nothing to write.
    """
    _atomic_write(path, csv_graph_bytes(spectrogram))


class UnionFold:
    """The running union of CRE datasets, one at a time: NCR summed per
    key, citing-year counts max-combined, summaries summed, cluster ids
    and citing-year masks dropped. It holds two counts per key, no reference.

    ``add`` folds in a dataset's variants in any order; ``dataset`` parses
    each key once and lists the keys in canonical order, as ``save_cre``
    writes its rows. ``union_cre`` adds each file as ``load_cre`` loads
    it; a ``forEachUnion`` loop adds each iteration's dataset under the
    name of the file it writes, or would write, for it, and so gets the
    dataset ``union_cre`` would read back from those files.
    """

    __slots__ = ("_ncr", "_n_py_years", "_n_citing", "_n_cr_total", "_names")

    def __init__(self):
        self._ncr: dict[str, int] = {}
        self._n_py_years: dict[str, int] = {}
        self._n_citing = 0
        self._n_cr_total = 0
        self._names: list[str] = []

    def add(self, dataset: Dataset, path) -> None:
        """Fold in ``dataset`` under the name of ``path``; no file is read."""
        self._names.append(os.path.basename(os.fspath(path)))
        self._n_citing += dataset.n_citing
        self._n_cr_total += dataset.n_cr_total
        ncr_of, years_of = self._ncr, self._n_py_years
        for key, v in dataset.variants.items():
            if key in ncr_of:
                ncr_of[key] += v.ncr
                if v.n_py_years > years_of[key]:
                    years_of[key] = v.n_py_years
            else:
                ncr_of[key] = v.ncr
                years_of[key] = v.n_py_years

    def dataset(self) -> Dataset:
        """The union of the datasets folded in so far."""
        years_of = self._n_py_years
        merged = [
            CRVariant(key, parse_key(key), ncr, n_py_years=years_of[key])
            for key, ncr in self._ncr.items()
        ]
        merged.sort(key=canonical_order)
        return Dataset(
            variants={v.key: v for v in merged},
            n_citing=self._n_citing,
            n_cr_total=self._n_cr_total,
            provenance=f"union of {len(self._names)} files: {', '.join(sorted(self._names))}",
        )


def union_cre(paths: Sequence) -> Dataset:
    """Merge CRE files by the rule of ``UnionFold``. Order-independent:
    any permutation of paths yields the identical Dataset and key order.

    Each file is loaded by ``load_cre``, with its checks and errors, and
    folded in before the next is read, so the call holds the union's
    counts and one loaded file.
    """
    if not paths:
        raise DomainError("union_cre needs at least one file")
    union = UnionFold()
    for path in paths:
        union.add(load_cre(path), path)
    return union.dataset()
