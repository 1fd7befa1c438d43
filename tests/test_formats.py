from __future__ import annotations

import csv
import gc
import hashlib
import io
import os
import random
import stat
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rpyspect.errors import (
    CreFormatError,
    DomainError,
    EmptyDatasetError,
    EmptySampleError,
    FormatVersionError,
    RpysError,
)
from rpyspect.formats import (
    cre_bytes,
    csv_cr_bytes,
    csv_graph_bytes,
    export_csv_cr,
    export_csv_graph,
    load_cre,
    save_cre,
    UnionFold,
    union_cre,
)
from rpyspect.model import (
    CitedReference,
    CRVariant,
    Dataset,
    Spectrogram,
    SpectroRow,
    aggregate,
    canonical_order,
    parse_key,
)
from rpyspect.spectroscopy import compute_spectrogram, n_pct
from rpyspect.wos import ImportFilter, analyze_file, import_file

from conftest import dataset_fields


def random_dataset(seed: int) -> Dataset:
    """A dataset with absent fields, undated variants, and cluster ids."""
    rng = random.Random(seed)
    occs = []
    for i in range(rng.randint(1, 40)):
        year = rng.choice([None, rng.randint(1970, 2010)])
        bits = [f"AUTHOR {chr(65 + i % 26)}{i}"]
        if year is not None:
            bits.append(str(year))
        bits.append(rng.choice(["NATURE", "SCIENCE", "J THING", "WEIRD, SRC"]))
        if rng.random() < 0.5:
            bits.append(f"V{rng.randint(1, 99)}")
        if rng.random() < 0.5:
            bits.append(f"P{rng.randint(1, 999)}")
        if rng.random() < 0.2:
            bits.append(f"DOI 10.1000/{i}")
        raw = ", ".join(bits)
        for _ in range(rng.randint(1, 4)):
            occs.append((raw, rng.randint(1980, 2014)))
    ds = aggregate(occs, n_citing=rng.randint(0, 60), provenance=f"synthetic {seed}")
    if rng.random() < 0.5:
        clustered = [
            v.replace(cluster_id=rng.randrange(5) if rng.random() < 0.7 else None)
            for v in ds.variants.values()
        ]
        ds = ds.with_variants(clustered, "assigned ids")
    return ds


class TestCreRoundTrip:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.cre"
        save_cre(Dataset(provenance="nothing"), path)
        loaded = load_cre(path)
        assert loaded.variants == {}
        assert loaded.provenance == "nothing"

    def test_two_saves_are_byte_identical(self, tmp_path):
        ds = random_dataset(1)
        a, b = tmp_path / "a.cre", tmp_path / "b.cre"
        save_cre(ds, a, settings={"median_range": 2})
        save_cre(ds, b, settings={"median_range": 2})
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_identity(self, tmp_path, seed):
        ds = random_dataset(seed)
        path = tmp_path / "rt.cre"
        save_cre(ds, path, settings={"n_pct_range": 0, "median_range": 2})
        loaded = load_cre(path)
        assert dataset_fields(loaded) == dataset_fields(ds)

    def test_negative_setting_round_trips(self, tmp_path):
        # save_cre takes any integer setting, and load_cre reads a negative
        # one back; a script's set() stops one before a saveFile can write it.
        path = tmp_path / "neg.cre"
        settings_ = {"median_range": 2, "n_pct_range": -1}
        save_cre(random_dataset(3), path, settings=settings_)
        assert cre_bytes(load_cre(path), settings=settings_) == path.read_bytes()

    @pytest.mark.parametrize("settings_", [{"flag": True}, {"a b": 1}, {"n": 1.5}])
    def test_setting_the_reader_would_reject_is_not_written(self, tmp_path, settings_):
        with pytest.raises(DomainError, match="settings must map names to integers"):
            save_cre(random_dataset(3), tmp_path / "s.cre", settings=settings_)
        assert not (tmp_path / "s.cre").exists()

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "c.cre"
        save_cre(random_dataset(2), path)
        data = bytearray(path.read_bytes())
        for pos in (7, len(data) // 2, len(data) - 3):
            corrupted = bytearray(data)
            corrupted[pos] ^= 0x01
            path.write_bytes(bytes(corrupted))
            with pytest.raises(RpysError):
                load_cre(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v.cre"
        save_cre(Dataset(), path)
        text = path.read_text().replace("#CRE\t1", "#CRE\t2", 1)
        # Re-stamp the checksum so only the version differs.
        import hashlib

        lines = text.split("\n")
        body = "\n".join(lines[:-3]) + "\n"
        digest = hashlib.sha256(body.encode()).hexdigest()
        lines[-3] = f"#CHECKSUM\t{digest}"
        path.write_text("\n".join(lines))
        with pytest.raises(FormatVersionError):
            load_cre(path)

    def test_row_count_must_match_summary(self, tmp_path):
        path = tmp_path / "rows.cre"
        save_cre(random_dataset(3), path)
        text = path.read_text()
        lines = text.split("\n")
        del lines[5]  # drop one variant row
        import hashlib

        body = "\n".join(lines[:-3]) + "\n"
        lines[-3] = f"#CHECKSUM\t{hashlib.sha256(body.encode()).hexdigest()}"
        path.write_text("\n".join(lines))
        with pytest.raises(CreFormatError):
            load_cre(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_cre(tmp_path / "absent.cre")


GOLDEN_CRE = sorted((Path(__file__).parent / "golden" / "expected").glob("*/*.cre"))

CONTRACT_SETTINGS = {"median_range": 2, "n_pct_range": 0}
# A small valid file: rows with a volume, a page, a DOI and a cluster id,
# and an undated row last.
CONTRACT_VARIANTS = [
    CRVariant(key, parse_key(key), ncr, cluster_id, n_py_years)
    for key, ncr, cluster_id, n_py_years in [
        ("STUIVER M, 1993, RADIOCARBON, V35, P215", 7, 0, 3),
        ("SMITH J, 1993, NATURE, V1, DOI 10.1000/X", 2, 0, 2),
        ("A B, 2000, J", 1, None, 1),
        ("UNDATED WORK, J THING, P12-14", 3, None, 0),
    ]
]
CONTRACT_BODY = cre_bytes(
    Dataset(
        variants={v.key: v for v in CONTRACT_VARIANTS},
        n_citing=5,
        n_cr_total=20,
        provenance="contract",
    ),
    CONTRACT_SETTINGS,
).decode("utf-8").split("\n")[:-3]
SUMMARY_LINE = 3
ROW_LINES = range(5, len(CONTRACT_BODY))
ROW_VALUES = sorted({col for i in ROW_LINES for col in CONTRACT_BODY[i].split("\t")})


def signed(body: list[str]) -> bytes:
    """A CRE file of ``body``'s lines with a #CHECKSUM that matches them."""
    text = "\n".join(body) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return (text + f"#CHECKSUM\t{digest}\n#END\n").encode("utf-8")


@st.composite
def one_column_edits(draw):
    """(0-based line, column, value): one column of one table row, or of
    #SUMMARY (not its tag), set to an edge-case integer spelling, another
    row's value, or short text without tab or newline."""
    line = draw(st.sampled_from([SUMMARY_LINE, *ROW_LINES]))
    n_cols = len(CONTRACT_BODY[line].split("\t"))
    column = draw(st.integers(1 if line == SUMMARY_LINE else 0, n_cols - 1))
    value = draw(
        st.sampled_from(["", "0", "-1", "+1", " 1", "01", "١"])
        | st.sampled_from(ROW_VALUES)
        | st.text(st.characters(blacklist_characters="\t\n"), max_size=4)
    )
    return line, column, value


class TestCreContract:
    """docs/cre-format.md: loading accepts only canonical files, so a file
    that loads writes back byte for byte, and every other file fails at
    the line that breaks a rule."""

    def test_contract_file_writes_back(self, tmp_path):
        path = tmp_path / "contract.cre"
        path.write_bytes(signed(CONTRACT_BODY))
        assert cre_bytes(load_cre(path), CONTRACT_SETTINGS) == path.read_bytes()

    @settings(max_examples=1000, deadline=None)
    @given(edit=one_column_edits())
    @example(edit=(5, 1, ""))  # a blank author: only the row compare refuses it
    @example(edit=(SUMMARY_LINE, 3, "3"))  # one variant fewer than the table holds
    @example(edit=(5, 7, "99"))  # an ncr above the n_cr_total
    def test_a_file_either_fails_at_its_line_or_writes_back(self, tmp_path_factory, edit):
        line, column, value = edit
        body = list(CONTRACT_BODY)
        cols = body[line].split("\t")
        cols[column] = value
        body[line] = "\t".join(cols)
        path = tmp_path_factory.getbasetemp() / "edit.cre"
        path.write_bytes(signed(body))
        try:
            loaded = load_cre(path)
        except CreFormatError as exc:
            # A row's ncr counts towards the n_cr_total check of line 4.
            assert f"edit.cre: line {line + 1}: " in str(exc) or (
                "edit.cre: line 4: n_cr_total 20 is below" in str(exc)
            )
        else:
            assert cre_bytes(loaded, CONTRACT_SETTINGS) == path.read_bytes()

    @pytest.mark.parametrize("path", GOLDEN_CRE, ids=lambda p: p.name)
    def test_golden_writes_back_with_its_settings(self, path):
        data = path.read_bytes()
        tag, text = data.decode("utf-8").split("\n")[2].split("\t")
        assert tag == "#SETTINGS"
        settings_ = {name: int(n) for name, n in (pair.split("=") for pair in text.split())}
        assert cre_bytes(load_cre(path), settings_) == data


# CR-line pieces: years in ASCII, Arabic-Indic and superscript digits,
# volume/page/DOI look-alikes, punctuation-only and whitespace tokens, and
# bytes that are not UTF-8 (the reader decodes such a line as Latin-1).
CR_TOKENS = [
    t.encode("utf-8")
    for t in ("SMITH J", "A B", "1990", "١٩٩٠", "¹⁹⁹⁰", "0999", "NATURE", "V35", "V²")
    + ("P215", "P19-32", "P_1", "DOI 10.1/X", "DOI ", "", "...", ";", "é", "\t", "  ")
] + [b"M\xdcLLER", b"\xc3", b"\x85"]
cr_text = st.lists(st.sampled_from(CR_TOKENS), max_size=6).map(b", ".join)
tag_line = st.one_of(
    st.sampled_from([b"FN X", b"VR 1.0", b"PT J", b"ER", b"EF", b"DT Article", b"ZZ z"]),
    st.sampled_from([b"", b"PY", b"PY x", b"PY 1990", b"PY 2011", b"PY 2013"]),
    cr_text.map(lambda t: b"CR " + t),
    cr_text.map(lambda t: b"   " + t),
    st.binary(max_size=8),
)
# Whole records, each followed by up to two loose lines, so that most
# imports keep some CRs.
record = st.builds(
    lambda py, crs, loose: [b"PT J", py, *crs, b"ER", *loose],
    st.sampled_from([b"PY 1990", b"PY 2011", b"PY 2013", b"PY x"]),
    st.lists(cr_text.map(lambda t: b"CR " + t), min_size=1, max_size=4),
    st.lists(tag_line, max_size=2),
)
wos_files = st.builds(
    lambda records, eol: b"".join(line + eol for rec in records for line in rec),
    st.lists(record, max_size=6),
    st.sampled_from([b"\n", b"\r\n"]),
)
IMPORT_FILTERS = [
    ImportFilter(),
    ImportFilter(rpy_range=(1980, 2000, True), py_range=(1995, 2012, False)),
    ImportFilter(max_cr=3),
    ImportFilter(max_cr=2, sampling_mode="RANDOM", seed=1),
    ImportFilter(max_cr=2, sampling_mode="SYSTEMATIC", offset=1),
    # The only CR year the strategy writes is 1990, so only this filter's
    # unknown-year rule makes the RPY filter reject CRs.
    ImportFilter(
        rpy_range=(1000, 1995, False),
        py_range=(2011, 2013, True),
        max_cr=2,
        sampling_mode="SYSTEMATIC",
    ),
    ImportFilter(py_range=(2011, 2013, True), sampling_mode="CLUSTER", seed=2),
]


class TestWosToCre:
    @settings(max_examples=300, deadline=None)
    @given(data=wos_files, filt=st.sampled_from(IMPORT_FILTERS))
    @example(data=b"A\nPT J\nCR A B, 2000, J\nER\n", filt=ImportFilter())  # one-letter line
    def test_import_save_load_round_trips(self, tmp_path_factory, data, filt):
        """Whatever the WoS reader imports, the CRE writer saves and the
        reader loads back unchanged, in the same canonical bytes."""
        base = tmp_path_factory.getbasetemp()
        (base / "fuzz.txt").write_bytes(data)
        try:
            ds = import_file(base / "fuzz.txt", filt)
        except RpysError:
            return
        settings_ = {"median_range": 2, "n_pct_range": 0}
        save_cre(ds, base / "fuzz.cre", settings=settings_)
        loaded = load_cre(base / "fuzz.cre")
        assert dataset_fields(loaded) == dataset_fields(ds)
        assert cre_bytes(loaded, settings=settings_) == (base / "fuzz.cre").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(data=wos_files, filt=st.sampled_from(IMPORT_FILTERS))
    def test_count_pass_totals_what_an_import_offers(self, tmp_path_factory, data, filt):
        """SYSTEMATIC's step is only right if analyze_file counts exactly
        the citing records and CRs an unlimited import under the same year
        filters offers."""
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_bytes(data)
        counted = analyze_file(path, filt)
        everything = filt.replace(sampling_mode="NONE", max_cr=0, offset=0)
        try:
            ds = import_file(path, everything)
        except EmptySampleError:
            assert counted.n_cr == 0
            return
        assert (counted.n_citing, counted.n_cr) == (ds.n_citing, ds.n_cr_total)


def tiny_dataset():
    occs = [("ALPHA A, 2000, NATURE, V5, P10", 2010)] * 3
    occs += [("BETA B, 2000, SCIENCE", 2011)]
    return aggregate(occs, n_citing=4)


class TestCsvCr:
    def test_hand_computed_rows(self):
        content = csv_cr_bytes(tiny_dataset(), n_pct_range=0).decode()
        lines = content.splitlines()
        assert lines[0] == "ID,CR,RPY,N_CR,PCT_RPY,CID,CID_SIZE"
        assert lines[1] == '1,"ALPHA A, 2000, NATURE, V5, P10",2000,3,0.75,,1'
        assert lines[2] == '2,"BETA B, 2000, SCIENCE",2000,1,0.25,,1'
        assert len(lines) == 3

    @pytest.mark.parametrize("n_pct_range", (0, 1, 3))
    @pytest.mark.parametrize("seed", range(10))
    def test_pct_rpy_is_n_pct(self, seed, n_pct_range):
        ds = random_dataset(seed)
        rows = list(csv.reader(io.StringIO(csv_cr_bytes(ds, n_pct_range).decode())))[1:]
        assert len(rows) == len(ds.variants)
        for row in rows:
            assert float(row[4]) == n_pct(ds, ds.variants[row[1]], n_pct_range)

    def test_empty_dataset_header_only(self):
        assert csv_cr_bytes(Dataset()).decode() == "ID,CR,RPY,N_CR,PCT_RPY,CID,CID_SIZE\n"

    def test_comma_key_is_quoted(self, tmp_path):
        ds = aggregate([("X Y, 1990, J", 2000)])
        path = tmp_path / "q.csv"
        export_csv_cr(ds, path)
        assert '"X Y, 1990, J"' in path.read_text()

    def test_sorted_by_rpy_then_ncr_desc(self):
        occs = []
        for raw, n in (("B, 1990, J", 2), ("A, 1990, J", 2), ("C, 1980, J", 1)):
            occs.extend([(raw, 2000)] * n)
        content = csv_cr_bytes(aggregate(occs)).decode()
        names = [line.split(",")[1] for line in content.splitlines()[1:]]
        assert names == ['"C', '"A', '"B']


class TestCsvGraph:
    def test_single_year_row(self):
        ds_occs = [("W, 2000, J", 2005)] * 7
        spect = compute_spectrogram(aggregate(ds_occs), median_range=2)
        assert csv_graph_bytes(spect).decode() == "RPY,N_CR,MEDIAN_DEV\n2000,7,0\n"

    def test_rows_match_spectrogram(self, tmp_path):
        rng = random.Random(4)
        occs = []
        for i in range(30):
            raw = f"W {i}, {rng.randint(1990, 1999)}, J"
            occs.extend([(raw, 2005)] * rng.randint(1, 4))
        spect = compute_spectrogram(aggregate(occs), median_range=2)
        path = tmp_path / "g.csv"
        export_csv_graph(spect, path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == len(spect.rows)
        for line, row in zip(lines, spect.rows):
            y, n, dev = line.split(",")
            assert (int(y), int(n)) == (row.rpy, row.ncr)
            assert float(dev) == row.median_dev

    def test_empty_spectrogram_writes_nothing(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(EmptyDatasetError):
            export_csv_graph(Spectrogram(rows=()), path)
        assert not path.exists()

    def test_half_devs_are_written_as_decimals(self):
        spect = Spectrogram(
            rows=(SpectroRow(2000, 3, 0.5), SpectroRow(2001, 4, -1.5))
        )
        body = csv_graph_bytes(spect).decode()
        assert "2000,3,0.5" in body and "2001,4,-1.5" in body


# Lines shared by the datasets of one union: several normalize to one key,
# and the keys have and lack each optional field.
POOL_LINES = (
    "W A, 1990, J",
    "w a, 1990, j.",
    "W B, 1991, J, V3, P12",
    "W B,  1991, J, V3, P12",
    "W C, J",
    "W D, 1990, K, DOI 10.1/A",
    "X, 2001, WEIRD, SRC, P1-9",
)


@st.composite
def pooled_datasets(draw) -> Dataset:
    """A dataset of occurrences of POOL_LINES, at times with cluster ids
    and with variants removed after the import."""
    occurrence = st.tuples(
        st.sampled_from(POOL_LINES), st.sampled_from([None, 2000, 2001, 2002])
    )
    occurrences = draw(st.lists(occurrence, max_size=12))
    ds = aggregate(occurrences, n_citing=draw(st.integers(0, 5)), provenance="pooled")
    kept = [
        v.replace(cluster_id=draw(st.sampled_from([None, 0, 1])))
        for v in ds.variants.values()
        if draw(st.integers(0, 3))  # drop about one variant in four
    ]
    return ds.with_variants(kept, "removed some")


POOLED_EXAMPLE = aggregate(
    [(line, 2000 + i % 2) for i, line in enumerate(POOL_LINES)], n_citing=3
)


def reference_union(paths) -> Dataset:
    """The union as a fold of load_cre over the files: ncr summed,
    n_py_years max-combined, cluster ids cleared, each reference derived
    from its key, the keys in canonical order."""
    merged: dict[str, CRVariant] = {}
    n_citing = n_cr_total = 0
    for path in paths:
        ds = load_cre(path)
        n_citing += ds.n_citing
        n_cr_total += ds.n_cr_total
        for key, v in ds.variants.items():
            prev = merged.get(key)
            merged[key] = CRVariant(
                key=key,
                reference=parse_key(key),
                ncr=v.ncr if prev is None else prev.ncr + v.ncr,
                n_py_years=v.n_py_years if prev is None else max(prev.n_py_years, v.n_py_years),
            )
    names = ", ".join(sorted(os.path.basename(os.fspath(p)) for p in paths))
    return Dataset(
        variants={v.key: v for v in sorted(merged.values(), key=canonical_order)},
        n_citing=n_citing,
        n_cr_total=n_cr_total,
        provenance=f"union of {len(paths)} files: {names}",
    )


class TestFileMode:
    """Every writer makes the file ``open(path, "w")`` would make: mode
    0o666 less the umask, not the 0o600 of a ``mkstemp`` file."""

    WRITERS = {
        "cre": save_cre,
        "csv_cr": export_csv_cr,
        "csv_graph": lambda ds, path: export_csv_graph(compute_spectrogram(ds), path),
    }

    @pytest.fixture(params=[(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
    def expected_mode(self, request):
        umask, mode = request.param
        old = os.umask(umask)
        try:
            yield mode
        finally:
            os.umask(old)

    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_new_file_mode_follows_the_umask(self, tmp_path, expected_mode, writer):
        ds = aggregate([("W, 2000, J", 2005)] * 3 + [("V, 2001, J", 2006)])
        path = tmp_path / "out"
        self.WRITERS[writer](ds, path)
        assert stat.S_IMODE(path.stat().st_mode) == expected_mode
        assert os.listdir(tmp_path) == ["out"]  # the temporary file is gone


def test_a_failed_rename_propagates_and_removes_the_temporary_file(tmp_path, monkeypatch):
    # An error that is not an OSError is raised as it is, not renamed to the path.
    def interrupted(src, dst):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(RuntimeError, match="^interrupted$"):
        save_cre(aggregate([("W, 2000, J", 2005)]), tmp_path / "out.cre")
    assert os.listdir(tmp_path) == []


class TestUnionCre:
    def save_datasets(self, tmp_path, datasets):
        paths = []
        for i, ds in enumerate(datasets):
            p = tmp_path / f"u{i}.cre"
            save_cre(ds, p)
            paths.append(p)
        return paths

    def test_unary_union_clears_cluster_ids(self, tmp_path):
        ds = random_dataset(5)
        (path,) = self.save_datasets(tmp_path, [ds])
        out = union_cre([path])
        loaded = load_cre(path)
        assert set(out.variants) == set(loaded.variants)
        assert all(v.cluster_id is None for v in out.variants.values())
        assert {k: v.ncr for k, v in out.variants.items()} == {
            k: v.ncr for k, v in loaded.variants.items()
        }

    def test_union_sums_ncr_per_key(self, tmp_path):
        base = aggregate([("W A, 1990, J", 2000)] * 3, n_citing=1)
        other = aggregate(
            [("W A, 1990, J", 2001)] * 2
            + [("W B, 1991, J", 2001)],
            n_citing=2,
        )
        paths = self.save_datasets(tmp_path, [base, other])
        out = union_cre(paths)
        assert out.variants["W A, 1990, J"].ncr == 5
        assert out.variants["W B, 1991, J"].ncr == 1
        assert out.n_citing == 3
        assert out.n_cr_total == 6

    def test_order_independent(self, tmp_path):
        datasets = [random_dataset(s) for s in (6, 7, 8)]
        paths = self.save_datasets(tmp_path, datasets)
        a = union_cre(paths)
        b = union_cre(list(reversed(paths)))
        assert a == b
        assert list(a.variants) == list(b.variants)

    def test_fold_keeps_no_reference(self):
        """The fold holds counts per key: once the datasets it folded are
        gone, no CitedReference stays alive until it builds the union."""

        def live_refs():
            gc.collect()
            return sum(type(o) is CitedReference for o in gc.get_objects())

        baseline = live_refs()
        datasets = [random_dataset(s) for s in (6, 7, 8)]
        keys = set().union(*(ds.variants for ds in datasets))
        union = UnionFold()
        for i, ds in enumerate(datasets):
            union.add(ds, f"u{i}.cre")
        del datasets, ds
        assert live_refs() - baseline == 0
        assert set(union.dataset().variants) == keys

    def test_additivity(self, tmp_path):
        datasets = [random_dataset(s) for s in (9, 10, 11)]
        paths = self.save_datasets(tmp_path, datasets)
        out = union_cre(paths)
        assert out.sum_ncr() == sum(ds.sum_ncr() for ds in datasets)

    def test_empty_path_list_rejected(self):
        with pytest.raises(DomainError):
            union_cre([])

    @settings(max_examples=150, deadline=None)
    @given(datasets=st.lists(pooled_datasets(), min_size=1, max_size=4), twice=st.booleans())
    @example(datasets=[POOLED_EXAMPLE, POOLED_EXAMPLE], twice=True)
    def test_matches_a_fold_of_loaded_files(self, tmp_path_factory, datasets, twice):
        """union_cre equals folding load_cre over the files, with the keys
        in canonical order; ``twice`` lists the first path again."""
        paths = self.save_datasets(tmp_path_factory.mktemp("union"), datasets)
        if twice:
            paths.append(paths[0])
        out = union_cre(paths)
        expected = reference_union(paths)
        assert out == expected
        assert list(out.variants) == list(expected.variants)
        assert cre_bytes(out) == cre_bytes(expected)
