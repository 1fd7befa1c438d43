"""File formats: the CRE dataset container, the CSV_CR variant list, the
CSV_GRAPH spectrogram table, and the CRE union used for sample merging.

``load_cre`` is the one CRE reader; ``union_cre`` and a ``forEachUnion``
loop fold datasets through the one union rule, ``UnionFold``.

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
    CitedReference,
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
_TABLE_LINE = "\t".join(_TABLE_COLUMNS)

# The only integer spelling cre_bytes writes: ASCII digits, no sign, no
# leading zero. int() would also read "+3", " 1", "1_0" and "١٩٩٠".
_CANONICAL_INT = re.compile(r"0|[1-9][0-9]*").fullmatch

# One #SETTINGS pair. Script settings are integers, and arithmetic such as
# ``0-1`` can make them negative.
_SETTING = re.compile(r"[A-Za-z_][A-Za-z0-9_]*=(?:0|-?[1-9][0-9]*)").fullmatch


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
    text = " ".join(f"{key}={settings[key]}" for key in sorted(settings or ()))
    # The reader's rule, so that every file written loads back.
    if not _canonical_settings(text):
        raise DomainError(f"settings must map names to integers, got {dict(settings)!r}")
    return text


def _opt(value) -> str:
    return "" if value is None else str(value)


# The table columns that render a reference's fields, and that rendering.
_FIELD_COLUMNS = _TABLE_COLUMNS[1:7]


def _fields(ref: CitedReference) -> list[str]:
    return [
        ref.author,
        _opt(ref.rpy),
        ref.source,
        _opt(ref.volume),
        _opt(ref.page),
        _opt(ref.doi),
    ]


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
    lines = [f"{CRE_MAGIC}\t{CRE_VERSION}"]
    lines.append(f"#PROVENANCE\t{_clean(dataset.provenance)}")
    lines.append(f"#SETTINGS\t{_fmt_settings(settings)}")
    variants = dataset.sorted_variants()
    lines.append(f"#SUMMARY\t{dataset.n_citing}\t{dataset.n_cr_total}\t{len(variants)}")
    lines.append("#TABLE\t" + "\t".join(_TABLE_COLUMNS))
    for v in variants:
        lines.append(
            "\t".join(
                (
                    v.key,
                    *_fields(v.reference),
                    str(v.ncr),
                    _opt(v.cluster_id),
                    str(v.n_py_years),
                )
            )
        )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f"#CHECKSUM\t{digest}\n#END\n").encode("utf-8")


def save_cre(dataset: Dataset, path, settings: Optional[Mapping[str, int]] = None) -> None:
    _atomic_write(path, cre_bytes(dataset, settings))


def load_cre(path) -> Dataset:
    """Load a CRE v1 file, verifying version, checksum, header lines, row
    count, fields and row order.

    Each reference is derived from its row's key (``parse_key``), and the
    stored fields must be that reference's rendering; the per-variant
    citing-year sets come back as bare counts. A header line that
    ``cre_bytes`` would not write (no tab after its tag, a tab or CR in
    the provenance, settings that are not sorted name=integer pairs,
    other table columns), a bad row (not 10 columns, or a key an earlier
    row holds), a bad field (an integer not spelled as ``cre_bytes``
    writes it, counts that ``CRVariant`` refuses, an empty or
    unnormalized key, a reference field that differs from its key's, an
    n_cr_total below the table's sum of ncr) or a row out of canonical
    order raises CreFormatError naming the file and the 1-based line.
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
        # The fields are the key's, so rpy is canonical and in range too.
        ref = parse_key(key)
        fields = _fields(ref)
        stored = cols[1:7]
        if stored != fields:
            for name, got, derived in zip(_FIELD_COLUMNS, stored, fields):
                if got != derived:
                    raise CreFormatError(
                        f"{where}: {name} {got!r} differs from {derived!r}, its key's"
                    )
        ncr = _int(cols[7], "ncr", where)
        cluster_id = _int(cols[8], "cluster_id", where) if cols[8] else None
        n_py = _int(cols[9], "n_py_years", where)
        try:
            variant = CRVariant(key, ref, ncr, cluster_id, n_py)
        except ValueError as exc:
            raise CreFormatError(f"{where}: {exc}") from None
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
    """Check a CRE file's encoding, checksum, header lines and row count;
    return its provenance, n_citing, n_cr_total and (unchecked) rows."""
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

    provenance = _header(lines, 1, "#PROVENANCE", path)
    if "\t" in provenance or "\r" in provenance:
        raise CreFormatError(f"{path}: line 2: #PROVENANCE holds a tab or CR")
    if not _canonical_settings(_header(lines, 2, "#SETTINGS", path)):
        raise CreFormatError(f"{path}: line 3: #SETTINGS is not sorted name=integer pairs")
    summary = _header(lines, 3, "#SUMMARY", path).split("\t")
    if len(summary) != 3:
        raise CreFormatError(f"{path}: line 4: malformed #SUMMARY line")
    n_citing, n_cr_total, n_variants = (
        _int(field, name, f"{path}: line 4")
        for field, name in zip(summary, ("n_citing", "n_cr_total", "n_variants"))
    )
    if _header(lines, 4, "#TABLE", path) != _TABLE_LINE:
        raise CreFormatError(f"{path}: line 5: #TABLE columns are not {_TABLE_LINE!r}")

    rows = lines[5:-2]
    if len(rows) != n_variants:
        raise CreFormatError(
            f"{path}: summary declares {n_variants} variants, table has {len(rows)}"
        )
    return provenance, n_citing, n_cr_total, rows


def _header(lines: list[str], index: int, tag: str, path) -> str:
    """The text after ``tag`` and its tab on header line ``index``."""
    line = lines[index]
    if not line.startswith(tag + "\t"):
        raise CreFormatError(f"{path}: line {index + 1}: expected {tag} and a tab, got {line!r}")
    return line[len(tag) + 1 :]


def _canonical_settings(text: str) -> bool:
    """Whether ``text`` is a canonical #SETTINGS text: empty, or
    name=integer pairs joined by single spaces, names strictly rising."""
    if not text:
        return True
    pairs = text.split(" ")
    names = [pair.split("=", 1)[0] for pair in pairs]
    return all(map(_SETTING, pairs)) and all(a < b for a, b in zip(names, names[1:]))


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
                cluster_sizes.get(v.cluster_id, 1) if v.cluster_id is not None else 1,
            ]
        )
    return buf.getvalue().encode("utf-8")


def export_csv_cr(dataset: Dataset, path, n_pct_range: int = 0) -> None:
    """Variant list as CSV (RFC 4180 quoting), sorted by (rpy, -ncr, key)."""
    _atomic_write(path, csv_cr_bytes(dataset, n_pct_range))


def csv_graph_bytes(spectrogram: Spectrogram) -> bytes:
    if not spectrogram.rows:
        raise EmptyDatasetError("spectrogram has no rows")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["RPY", "N_CR", "MEDIAN_DEV"])
    for row in spectrogram.rows:
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
    and citing-year masks dropped, keys in first-seen order.

    ``add`` folds in one dataset's variants in canonical order, the
    order of the rows ``save_cre`` writes, and keeps the first reference
    seen for each key. ``union_cre`` adds each file as ``load_cre``
    loads it; a ``forEachUnion`` loop adds each iteration's dataset
    under the name of the file it writes, or would write, for it, and so
    gets the dataset ``union_cre`` would read back from those files.
    """

    __slots__ = ("_refs", "_ncr", "_n_py_years", "_n_citing", "_n_cr_total", "_names")

    def __init__(self):
        self._refs: dict[str, CitedReference] = {}
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
        refs, ncr_of, years_of = self._refs, self._ncr, self._n_py_years
        for v in dataset.sorted_variants():
            key = v.key
            if key in ncr_of:
                ncr_of[key] += v.ncr
                if v.n_py_years > years_of[key]:
                    years_of[key] = v.n_py_years
            else:
                refs[key] = v.reference
                ncr_of[key] = v.ncr
                years_of[key] = v.n_py_years

    def dataset(self) -> Dataset:
        """The union of the datasets folded in so far."""
        years_of = self._n_py_years
        merged = {
            key: CRVariant(key=key, reference=ref, ncr=self._ncr[key], n_py_years=years_of[key])
            for key, ref in self._refs.items()
        }
        return Dataset(
            variants=merged,
            n_citing=self._n_citing,
            n_cr_total=self._n_cr_total,
            provenance=f"union of {len(self._names)} files: {', '.join(sorted(self._names))}",
        )


def union_cre(paths: Sequence) -> Dataset:
    """Merge CRE files by the rule of ``UnionFold``. Order-independent:
    any permutation of paths yields the identical Dataset.

    Each file is loaded by ``load_cre``, with its checks and errors, and
    folded in before the next is read, so the call holds the union and
    one loaded file.
    """
    if not paths:
        raise DomainError("union_cre needs at least one file")
    union = UnionFold()
    for path in paths:
        union.add(load_cre(path), path)
    return union.dataset()
