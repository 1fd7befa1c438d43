"""File formats: the CRE dataset container, the CSV_CR variant list, the
CSV_GRAPH spectrogram table, and the CRE union used for sample merging.

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
import tempfile
from typing import Mapping, Optional, Sequence

from . import model, spectroscopy
from .errors import ChecksumError, CreFormatError, DomainError, EmptyDatasetError, FormatVersionError
from .model import CitedReference, CRVariant, Dataset, Spectrogram

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


def _clean(text: str) -> str:
    # Header text is one line per field; tabs/newlines never survive.
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _fmt_settings(settings: Optional[Mapping[str, object]]) -> str:
    if not settings:
        return ""
    parts = []
    for key in sorted(settings):
        val = settings[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        parts.append(f"{key}={val}")
    return " ".join(parts)


def _opt(value) -> str:
    return "" if value is None else str(value)


def _atomic_write(path, data: bytes) -> None:
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cre_bytes(dataset: Dataset, settings: Optional[Mapping[str, object]] = None) -> bytes:
    """Serialize a dataset to CRE v1 bytes (canonical variant order:
    rpy then key, undated variants last)."""
    lines = [f"{CRE_MAGIC}\t{CRE_VERSION}"]
    lines.append(f"#PROVENANCE\t{_clean(dataset.provenance)}")
    lines.append(f"#SETTINGS\t{_fmt_settings(settings)}")
    variants = dataset.sorted_variants()
    lines.append(f"#SUMMARY\t{dataset.n_citing}\t{dataset.n_cr_total}\t{len(variants)}")
    lines.append("#TABLE\t" + "\t".join(_TABLE_COLUMNS))
    for v in variants:
        ref = v.reference
        lines.append(
            "\t".join(
                (
                    v.key,
                    ref.author,
                    _opt(ref.rpy),
                    ref.source,
                    _opt(ref.volume),
                    _opt(ref.page),
                    _opt(ref.doi),
                    str(v.ncr),
                    _opt(v.cluster_id),
                    str(v.n_py_years),
                )
            )
        )
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    return (body + f"#CHECKSUM\t{digest}\n#END\n").encode("utf-8")


def save_cre(dataset: Dataset, path, settings: Optional[Mapping[str, object]] = None) -> None:
    _atomic_write(path, cre_bytes(dataset, settings))


def load_cre(path) -> Dataset:
    """Load a CRE v1 file, verifying version, checksum, row count and
    fields.

    References are rebuilt from the stored fields; the verbatim raw string
    is not part of the format, so it comes back as the normalized key, and
    the per-variant citing-year sets come back as bare counts. A bad field
    (a non-integer count, an ncr below 1, a negative n_py_years or
    n_citing, a year outside the valid range, an empty or unnormalized
    key, an n_cr_total below the table's sum of ncr) raises CreFormatError
    naming the file and the 1-based line.
    """
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
    try:
        version = int(head[1])
    except ValueError:
        raise CreFormatError(f"{path}: bad version {head[1]!r}") from None
    if version != CRE_VERSION:
        raise FormatVersionError(f"{path}: unsupported CRE version {version}")

    provenance = _expect(lines[1], "#PROVENANCE", path)
    _expect(lines[2], "#SETTINGS", path)
    summary = _expect(lines[3], "#SUMMARY", path).split("\t")
    if len(summary) != 3:
        raise CreFormatError(f"{path}: malformed #SUMMARY line")
    try:
        n_citing, n_cr_total, n_variants = (int(x) for x in summary)
    except ValueError as exc:
        raise CreFormatError(f"{path}: line 4: bad #SUMMARY field: {exc}") from None
    if n_citing < 0:
        raise CreFormatError(f"{path}: line 4: negative n_citing {n_citing}")
    _expect(lines[4], "#TABLE", path)

    rows = lines[5:-2]
    if len(rows) != n_variants:
        raise CreFormatError(
            f"{path}: summary declares {n_variants} variants, table has {len(rows)}"
        )
    variants: dict[str, CRVariant] = {}
    for lineno, row in enumerate(rows, start=6):
        cols = row.split("\t")
        if len(cols) != len(_TABLE_COLUMNS):
            raise CreFormatError(f"{path}: line {lineno}: malformed variant row {row!r}")
        key, author, rpy, source, volume, page, doi, ncr, cluster_id, n_py = cols
        if key in variants:
            raise CreFormatError(f"{path}: line {lineno}: duplicate variant key {key!r}")
        # Looked up on the module so that rebinding model.normalize_key
        # (bench/tracer.py counts its calls) reaches this call too.
        if model.normalize_key(key) != key:
            raise CreFormatError(f"{path}: line {lineno}: key {key!r} is not normalized")
        try:
            ref = CitedReference(
                raw=key,
                author=author,
                rpy=int(rpy) if rpy else None,
                source=source,
                volume=volume or None,
                page=page or None,
                doi=doi or None,
            )
            variants[key] = CRVariant(
                key=key,
                reference=ref,
                ncr=int(ncr),
                cluster_id=int(cluster_id) if cluster_id else None,
                n_py_years=int(n_py),
            )
        except ValueError as exc:
            raise CreFormatError(f"{path}: line {lineno}: {exc}") from None
    table_ncr = sum(v.ncr for v in variants.values())
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


def _expect(line: str, tag: str, path) -> str:
    if not line.startswith(tag + "\t") and line != tag:
        raise CreFormatError(f"{path}: expected {tag} line, got {line!r}")
    return line[len(tag) + 1 :] if len(line) > len(tag) else ""


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
    totals = spectroscopy.ncr_per_rpy(dataset)
    for i, v in enumerate(ordered, start=1):
        pct = spectroscopy.window_share(totals, v, n_pct_range)
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


def union_cre(paths: Sequence) -> Dataset:
    """Merge CRE files: NCR summed per normalized key, citing-year counts
    max-combined, summaries summed, cluster ids cleared (re-cluster
    explicitly afterwards). Order-independent: any permutation of paths
    yields the identical Dataset.
    """
    if not paths:
        raise DomainError("union_cre needs at least one file")
    merged: dict[str, CRVariant] = {}
    n_citing = 0
    n_cr_total = 0
    for path in paths:
        ds = load_cre(path)
        n_citing += ds.n_citing
        n_cr_total += ds.n_cr_total
        for key, v in ds.variants.items():
            prev = merged.get(key)
            if prev is None:
                merged[key] = CRVariant(
                    key=key,
                    reference=v.reference,
                    ncr=v.ncr,
                    cluster_id=None,
                    n_py_years=v.n_py_years,
                )
            else:
                merged[key] = CRVariant(
                    key=key,
                    reference=_min_ref(prev.reference, v.reference),
                    ncr=prev.ncr + v.ncr,
                    cluster_id=None,
                    n_py_years=max(prev.n_py_years, v.n_py_years),
                )
    names = ", ".join(sorted(os.path.basename(os.fspath(p)) for p in paths))
    return Dataset(
        variants=merged,
        n_citing=n_citing,
        n_cr_total=n_cr_total,
        provenance=f"union of {len(paths)} files: {names}",
    )


def _min_ref(a: CitedReference, b: CitedReference) -> CitedReference:
    # Same key implies same parsed fields in practice; pick deterministically
    # anyway so union stays permutation-invariant on hand-edited inputs.
    def tup(r: CitedReference):
        return (r.author, r.rpy or 0, r.source, r.volume or "", r.page or "", r.doi or "")

    return min(a, b, key=tup)
