from __future__ import annotations

import io
import random
import re
from typing import BinaryIO, Iterator, Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rpyspect import model, wos
from rpyspect.errors import DomainError, EmptySampleError, OffsetTooLargeError, RpysError
from rpyspect.model import YEAR_MAX, YEAR_MIN, CitedReference, aggregate, normalize_key, parse_key
from rpyspect.wos import (
    ImportFilter,
    MemoryProbe,
    ParseStats,
    analyze_file,
    build_sampler,
    check_format,
    import_file,
    parse_cr_line,
    parse_wos,
    parse_wos_path,
    _decoded_lines,
    _passing,
)

from conftest import select
from corpus import Corpus, make_corpus
from test_formats import wos_files


def reference_normalize_key(raw: str) -> str:
    """The regex normalizer, kept as the reference for ``normalize_key``."""
    s = re.sub(r"\s+", " ", raw).strip().upper()
    return s.rstrip(".,;: ")


def reference_parse_cr_line(line: str) -> Optional[CitedReference]:
    """The token-loop CR parser, kept as the reference for ``parse_key``
    of a line's key."""
    norm = reference_normalize_key(line)
    if not norm:
        return None
    tokens = norm.split(", ")
    rpy = None
    source_parts = []
    volume = page = doi = None
    rest = tokens[1:]
    i = 0
    if rest and len(rest[0]) == 4 and all(c in "0123456789" for c in rest[0]):
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
        elif (
            page is None
            and len(tok) > 1
            and tok[0] == "P"
            and tok[1].isalnum()
            and all(c.isalnum() or c == "-" for c in tok[1:])
        ):
            page = tok[1:]
        elif doi is None and tok.startswith("DOI ") and len(tok) > 4:
            doi = tok[4:]
        else:
            source_parts.append(tok)
    return CitedReference(
        raw=norm,
        author=tokens[0],
        rpy=rpy,
        source=", ".join(source_parts),
        volume=volume,
        page=page,
        doi=doi,
    )


# Letters that start volume, page and DOI tokens, ASCII digits, digits no
# year is spelled in ("١", a decimal, and "²", not one), "ß" (upper-cases
# to two letters), "_" (not alphanumeric), punctuation that normalize_key
# strips, and Unicode whitespace.
CR_CHARS = list("ABDIOPVv19ß²١_-.,;:") + ["\t", "\x1c", "\xa0", " ", "\u3000"]
# Lines drawn character by character (with the separators that make field
# tokens), or as ", "-joined tokens that start like a field and go on with
# digits only or with any of CR_CHARS.
CR_TEXT = st.one_of(
    st.lists(
        st.sampled_from(CR_CHARS + [", V", ", P", ", DOI ", ", 1990"]), max_size=30
    ).map("".join),
    st.lists(
        st.tuples(
            st.sampled_from(["", "V", "P", "D", "DOI ", "1990"]),
            st.one_of(
                st.text(alphabet="19²١", max_size=4),
                st.lists(st.sampled_from(CR_CHARS), max_size=5).map("".join),
            ),
        ).map("".join),
        max_size=8,
    ).map(", ".join),
)


# Raw CR text as the year-first reader sees it: Unicode whitespace, the
# separators and punctuation normalize_key acts on, ASCII letters, ASCII
# and Arabic-Indic digits (decimal) and superscript ones (not), and
# pieces that put a year-like token after the first "," plus whitespace.
RAW_CR_TEXT = st.lists(
    st.sampled_from(
        list("aZß19,.;: \t\x1c\xa0\u2028\u3000١٩²¹")
        + [", 1990, ", ", 1990", ",\t1990,", ", ١٩٩٠.", ", 0999, ", ", 19900, "]
        + [", 1990 ;", ", 1990:"]
    ),
    max_size=20,
).map("".join)


def parse_text(text: str, stats=None):
    return list(parse_wos(io.BytesIO(text.encode("utf-8")), stats))


TWO_RECORDS = """FN Synthetic export
VR 1.0
PT J
PY 2011
DT Article
CR STUIVER M, 1993, RADIOCARBON, V35, P215
   FRITTS HC, 1976, TREE RINGS CLIMATE
   HAYS JD, 1976, SCIENCE, V194, P1121
ER

PT J
PY 2012
DT Review
ER
EF
"""


class TestParseWos:
    def test_two_record_structure(self):
        records = parse_text(TWO_RECORDS)
        assert [len(crs) for _, crs in records] == [3, 0]
        assert [py for py, _ in records] == [2011, 2012]

    def test_header_only_file_is_empty(self):
        assert parse_text("FN Synthetic export\nVR 1.0\nEF\n") == []

    def test_missing_er_is_skipped_and_counted(self):
        text = "FN X\nVR 1.0\nPT J\nPY 2011\nCR A B, 2000, J\nER\nPT J\nPY 2012\nEF\n"
        stats = ParseStats()
        records = parse_text(text, stats)
        assert len(records) == 1
        assert stats.malformed_records == 1

    def test_empty_key_cr_lines_are_skipped_and_counted(self):
        text = "PT J\nPY 2011\nCR ...\n   A B, 2000, J\n   , ;\nER\nEF\n"
        stats = ParseStats()
        records = parse_text(text, stats)
        assert records[0][1] == ["A B, 2000, J"]
        assert stats.malformed_records == 2

    def test_unknown_tags_ignored(self):
        text = "PT J\nPY 2011\nZZ mystery\n   mystery continuation\nER\nEF\n"
        records = parse_text(text)
        assert len(records) == 1
        assert records[0][1] == []

    def test_non_ascii_letters_are_not_a_tag(self):
        records = parse_text("PT J\nPY 2011\nCR A B, 1990, J\nER\nÄB x\nER\nEF\n")
        assert records == [(2011, ["A B, 1990, J"])]

    def test_line_shorter_than_a_tag_is_ignored(self):
        records = parse_text("PT J\nPY 2011\nA\nCR A B, 2000, J\nER\nEF\n")
        assert records[0][1] == ["A B, 2000, J"]

    def test_latin1_fallback(self):
        body = b"PT J\nPY 2011\nCR M\xdcLLER K, 1990, J PHYS\nER\nEF\n"
        records = list(parse_wos(io.BytesIO(body)))
        assert records[0][1] == ["MÜLLER K, 1990, J PHYS"]

    @pytest.mark.parametrize("value", ["2_011", "-7", "+2011"])
    def test_py_follows_the_year_rule(self, value):
        records = parse_text(f"PT J\nPY {value}\nCR A B, 2000, J\nER\nEF\n")
        assert records[0][0] is None

    def test_crlf_line_endings(self):
        records = parse_text(TWO_RECORDS.replace("\n", "\r\n"))
        assert [len(crs) for _, crs in records] == [3, 0]
        assert records[0][1][0] == "STUIVER M, 1993, RADIOCARBON, V35, P215"

    def test_roundtrip_against_generator(self, corpus: Corpus, corpus_file):
        records = list(parse_wos_path(corpus_file))
        assert len(records) == corpus.n_records
        for (parsed_py, parsed_crs), (py, _, crs) in zip(records, corpus.records):
            assert parsed_py == py
            assert parsed_crs == crs


def fields(line: str) -> CitedReference:
    """The reference the pipeline builds for a line: its key's fields."""
    return parse_key(normalize_key(line))


CR_LINE_EXAMPLES = [
    "Stuiver M, 1993,  Radiocarbon, V35, P215.",
    " ., ;",  # no key
    "A, 1990",
    "A, 19900, J",
    "A,1990, B, 1991",  # the first "," is not followed by whitespace
    "A, 1990 , J",  # the year token is "1990 "
    "A, 1990\u3000.;",  # trailing whitespace and punctuation
    "A, 1990:",
]


CR_LINE_TEXT = st.one_of(RAW_CR_TEXT, CR_TEXT, st.text())


def cr_line_property(test):
    """Run ``test`` on 2,000 drawn CR texts and on every CR_LINE_EXAMPLES text."""
    for text in CR_LINE_EXAMPLES:
        test = example(text)(test)
    return settings(max_examples=2000)(given(CR_LINE_TEXT)(test))


# The CR lines of one record, at least one of them ASCII and one not, in
# any order.
MIXED_RECORD = st.tuples(
    st.lists(CR_LINE_TEXT.filter(str.isascii), min_size=1, max_size=5),
    st.lists(CR_LINE_TEXT.filter(lambda text: not text.isascii()), min_size=1, max_size=5),
).flatmap(lambda lines: st.permutations(lines[0] + lines[1]))
RPY_RANGE = st.tuples(
    st.integers(YEAR_MIN - 10, YEAR_MAX + 10), st.integers(YEAR_MIN - 10, YEAR_MAX + 10), st.booleans()
).map(lambda r: (min(r[:2]), max(r[:2]), r[2]))


def kept_by_rpy_filter(crs: list[str], rpy_range) -> list[str]:
    """The lines ``_passing`` keeps of one record of citing year 2000 that
    holds ``crs``, under the RPY filter ``rpy_range``: the record is fed
    to it directly, so any text can be a CR line."""
    record = [(2000, crs)]
    with mock.patch.object(wos, "parse_wos_path", lambda path, stats: iter(record)):
        [(_, _, passing)] = _passing(None, ImportFilter(rpy_range=rpy_range), ParseStats())
    return passing


class TestParseCrLine:
    @cr_line_property
    def test_line_is_kept_as_read_unless_it_has_no_key(self, text):
        if normalize_key(text):
            assert parse_cr_line(text) is text
        else:
            assert parse_cr_line(text) is None

    @cr_line_property
    def test_year_read_for_an_rpy_filter_is_the_keys_year(self, text):
        key = normalize_key(text)
        if not key:
            return  # the reader drops the line, so no filter sees it
        rpy = parse_key(key).rpy
        if rpy is None:
            # Every known year passes the first filter: a line it drops has none.
            assert kept_by_rpy_filter([text], (YEAR_MIN, YEAR_MAX, False)) == []
            assert kept_by_rpy_filter([text], (YEAR_MIN, YEAR_MAX, True)) == [text]
        else:
            assert kept_by_rpy_filter([text], (rpy, rpy, False)) == [text]

    @settings(max_examples=500)
    @given(MIXED_RECORD, RPY_RANGE)
    @example(["MÜLLER K,\u30001990, J", "A B, 1850, K"], (1970, 2010, False))
    @example(["A B,\xa01990.", "C D, 1990, J", "E F, ١٩٩٠, J"], (1990, 1990, False))
    @example(["A B,\xa01990.", "C D, 1850, J", "E F, ١٩٩٠, J"], (1970, 2010, True))
    def test_year_gate_keeps_the_keys_year_in_a_mixed_record(self, crs, rpy_range):
        crs = [text for text in crs if normalize_key(text)]  # the reader drops keyless lines
        lo, hi, unknown = rpy_range
        expected = []
        for text in crs:
            rpy = parse_key(normalize_key(text)).rpy
            if unknown if rpy is None else lo <= rpy <= hi:
                expected.append(text)
        assert kept_by_rpy_filter(crs, rpy_range) == expected

    @pytest.mark.parametrize(
        "token",
        ["1990", "1000", "3000", "0999", "3001", "١٩٩٠", "٠٩٩٩", "٣٠٠١", "1٩9٠"],
    )
    def test_year_memo_gives_the_year_rule(self, token):
        line = f"A B, {token}, J"
        year = model.parse_year(token)
        # A one-year filter keeps the line only if that year is read; a
        # filter of every known year drops it only if no year is read.
        rpy_range = (YEAR_MIN, YEAR_MAX, False) if year is None else (year, year, False)
        kept = [] if year is None else [line]
        assert kept_by_rpy_filter([line], rpy_range) == kept  # first sight
        assert kept_by_rpy_filter([line], rpy_range) == kept  # a repeat

    @pytest.mark.parametrize(
        "rpy_range",
        [
            (1970, 2010, False),
            (1970, 2010, True),
            (YEAR_MIN, YEAR_MAX, False),
            (YEAR_MIN, YEAR_MAX, True),
            (2000, 2000, False),
            (-5, 10**20, False),
            (3001, 4000, False),  # no known year passes
            (3001, 4000, True),
        ],
    )
    def test_year_gate_keeps_what_the_year_rule_keeps(self, rpy_range):
        # Every ASCII token of 4 digits, in one record: the gated path.
        lo, hi, unknown = rpy_range
        crs, expected = [], []
        for n in range(10_000):
            line = f"A B, {n:04d}, J"
            year = model.parse_year(f"{n:04d}")
            crs.append(line)
            if unknown if year is None else lo <= year <= hi:
                expected.append(line)
        assert kept_by_rpy_filter(crs, rpy_range) == expected

    @pytest.mark.parametrize("unknown", [False, True])
    def test_record_with_a_non_ascii_line_keeps_the_year_rule(self, unknown):
        # Only ASCII digits spell a year: the Arabic-Indic tokens are
        # unknown years, kept exactly when unknown years pass.
        crs = ["MÜLLER K, 1990, J", "A B, ١٩٩٠, J", "A B, 1٩9٠, J", "A B, ٣٠٠١, J", "C D, 1850, K"]
        kept = ["MÜLLER K, 1990, J"]
        if unknown:
            kept += ["A B, ١٩٩٠, J", "A B, 1٩9٠, J", "A B, ٣٠٠١, J"]
        assert kept_by_rpy_filter(crs, (1970, 2010, unknown)) == kept

    # The other fields of a line come from its key, once per distinct key.
    def test_full_reference(self):
        cr = fields("STUIVER M, 1993, RADIOCARBON, V35, P215")
        assert cr.author == "STUIVER M"
        assert cr.rpy == 1993
        assert cr.source == "RADIOCARBON"
        assert cr.volume == "35"
        assert cr.page == "215"
        assert cr.doi is None

    def test_book_reference_without_volume(self):
        cr = fields("FRITTS HC, 1976, TREE RINGS CLIMATE")
        assert cr.author == "FRITTS HC"
        assert cr.rpy == 1976
        assert cr.source == "TREE RINGS CLIMATE"
        assert cr.volume is None and cr.page is None and cr.doi is None

    def test_no_year_fallback(self):
        cr = fields("ANONYMOUS REPORT")
        assert cr.author == "ANONYMOUS REPORT"
        assert cr.rpy is None

    def test_doi_token_folds_into_doi_field(self):
        cr = fields(
            "MARX W, 2017, SCIENTOMETRICS, V110, P335, DOI 10.1007/S11192-016-2177-X"
        )
        assert cr.doi == "10.1007/S11192-016-2177-X"
        assert "DOI" not in cr.source

    def test_unmatched_tokens_append_to_source(self):
        cr = fields("IMBRIE J, 1984, MILANKOVITCH CLIMA 1, P269")
        assert cr.source == "MILANKOVITCH CLIMA 1"
        assert cr.page == "269"
        cr = fields("HOUGHTON JT, 2001, CLIMATE CHANGE 2001, SCI BASIS")
        assert cr.source == "CLIMATE CHANGE 2001, SCI BASIS"

    def test_hyphenated_page(self):
        cr = fields("SMITH J, 1999, J THING, V2, P19-32")
        assert cr.page == "19-32"

    def test_year_int_cannot_read_stays_in_source(self):
        # Only ASCII digits spell a year, so these tokens seed the source.
        for token in ["¹⁹⁹⁰", "١٩٩٠", "1٩9٠"]:
            cr = fields(f"SMITH J, {token}, NATURE")
            assert (cr.rpy, cr.source) == (None, f"{token}, NATURE")


class TestReferenceEquivalence:
    @settings(max_examples=1000)
    @given(CR_TEXT)
    @example("A, B, P_1, P2")  # "_" is not alphanumeric
    @example("A, B, V², V2")  # "²" is a digit, not a decimal
    @example("A, 1990, B, , C, DOI , DOI X")
    def test_matches_reference(self, text):
        assert normalize_key(text) == reference_normalize_key(text)
        expected = reference_parse_cr_line(text)
        if expected is None:
            assert not normalize_key(text)
        else:
            assert fields(text) == expected

    def test_matches_reference_on_a_corpus(self):
        corpus = make_corpus(seed=5, misspell_rate=0.2)
        for raw, _ in corpus.occurrences():
            assert fields(raw) == reference_parse_cr_line(raw)


def reference_decoded_lines(stream: BinaryIO) -> Iterator[str]:
    """The per-line decoder, kept as the reference for ``_decoded_lines``,
    which yields the same lines without their "\\n"."""
    for bline in stream:
        try:
            yield bline.decode("utf-8")
        except UnicodeDecodeError:
            yield bline.decode("latin-1")


def assert_decodes_like_reference(data: bytes) -> None:
    expected = [line.removesuffix("\n") for line in reference_decoded_lines(io.BytesIO(data))]
    assert list(_decoded_lines(io.BytesIO(data))) == expected


BLOCK = 1 << 16
LATIN1_LINE = b"CR M\xdcLLER K, 1990, J PHYS\n"


class TestDecodedLines:
    # A Latin-1 line that ends right before, straddles, or starts right
    # after the first 64 KiB boundary, among UTF-8 lines.
    @pytest.mark.parametrize("shift", [-len(LATIN1_LINE) - 1, -len(LATIN1_LINE), -5, 0, 1])
    def test_non_utf8_line_at_the_block_boundary(self, shift):
        filler = "   A\u00e9, 1990, J\n".encode("utf-8")
        head = filler * ((BLOCK + shift - 1) // len(filler))
        head += b"x" * (BLOCK + shift - len(head) - 1) + b"\n"
        assert len(head) == BLOCK + shift
        assert_decodes_like_reference(head + LATIN1_LINE + filler * 3)

    def test_crlf_endings(self):
        assert_decodes_like_reference(TWO_RECORDS.replace("\n", "\r\n").encode("utf-8") * 3000)

    def test_line_longer_than_a_block(self):
        # The multi-byte characters put block boundaries inside them.
        long_line = ("CR " + "\u00e9" * (BLOCK * 2) + ", 1990\n").encode("utf-8")
        assert_decodes_like_reference(b"PT J\n" + long_line + LATIN1_LINE + long_line)

    def test_missing_final_newline(self):
        assert_decodes_like_reference(b"PT J\nCR A, 1990\nEF")
        assert_decodes_like_reference(b"PT J\nCR M\xdcLLER")

    def test_empty_file(self):
        assert list(_decoded_lines(io.BytesIO(b""))) == []

    # Tiny blocks put a boundary at every position of short inputs; the
    # pieces mix UTF-8, invalid UTF-8, and "\r", "\x1c" and U+2028,
    # which end lines for str.splitlines() but not here.
    @settings(max_examples=300)
    @given(
        st.lists(
            st.sampled_from(
                [b"\n", b"\r\n", b"\r", b"ab", b"\xc3\xa9", b"\xc3", b"\xdc",
                 b"\x1c", "\u2028".encode("utf-8"), b" , 1990"]
            ),
            max_size=30,
        ).map(b"".join),
        st.integers(1, 9),
    )
    def test_matches_reference_at_any_block_size(self, data, block):
        with mock.patch.object(wos, "_BLOCK", block):
            assert_decodes_like_reference(data)


class TestAnalyzeFile:
    def test_unfiltered_counts(self, corpus: Corpus, corpus_file):
        stats = analyze_file(corpus_file, ImportFilter())
        assert (stats.n_citing, stats.n_cr) == (corpus.n_records, corpus.n_cr)

    def test_counts_replace_those_in_the_given_stats(self, corpus: Corpus, corpus_file):
        stats = ParseStats(malformed_records=2, n_citing=9, n_cr=9)
        assert analyze_file(corpus_file, ImportFilter(), stats) is stats
        assert (stats.malformed_records, stats.n_citing, stats.n_cr) == (
            2,
            corpus.n_records,
            corpus.n_cr,
        )

    def test_impossible_py_filter(self, corpus_file):
        stats = analyze_file(corpus_file, ImportFilter(py_range=(1900, 1901, False)))
        assert (stats.n_citing, stats.n_cr) == (0, 0)

    def test_filters_are_independent(self, tmp_path):
        crs = [[f"AUTH {i}, 1960, JRNL" for i in range(3)] for _ in range(200)]
        corpus = Corpus(records=[(2000, "Article", c) for c in crs], works=[])
        path = tmp_path / "old.txt"
        corpus.write(path)
        stats = analyze_file(path, ImportFilter(rpy_range=(1970, 2014, False)))
        assert (stats.n_citing, stats.n_cr) == (200, 0)

    @pytest.mark.parametrize("py_range", [None, (1990, 2005, False)])
    def test_unfiltered_records_pass_as_read(self, corpus: Corpus, corpus_file, py_range):
        # Without an RPY filter every line passes: a record whose citing
        # year passes is yielded with its own list, not a copy.
        stats = ParseStats()
        n_cr = 0
        for py, crs, passing in _passing(corpus_file, ImportFilter(py_range=py_range), stats):
            if py_range is None or py_range[0] <= py <= py_range[1]:
                assert passing is crs
                n_cr += len(crs)
            else:
                assert passing == ()
        assert stats.n_cr == n_cr
        if py_range is None:
            assert (stats.n_citing, n_cr) == (corpus.n_records, corpus.n_cr)

    def test_filter_monotonicity(self, corpus_file):
        base = analyze_file(corpus_file, ImportFilter())
        narrowed = analyze_file(
            corpus_file,
            ImportFilter(rpy_range=(1980, 1995, False), py_range=(1985, 2005, False)),
        )
        assert narrowed.n_citing <= base.n_citing
        assert narrowed.n_cr <= base.n_cr


class TestImportFile:
    def test_none_sampling_equals_manual_composition(self, corpus: Corpus, corpus_file):
        ds = import_file(corpus_file, ImportFilter())
        manual = aggregate(
            (key, py) for py, crs in parse_wos_path(corpus_file) for key in crs
        )
        assert {k: v.ncr for k, v in ds.variants.items()} == {
            k: v.ncr for k, v in manual.variants.items()
        }
        assert ds.n_cr_total == corpus.n_cr
        assert ds.n_citing == corpus.n_records

    def test_stats_count_what_the_import_read(self, corpus_file):
        years = {"rpy_range": (1980, 1995, False), "py_range": (1985, 2005, False)}
        full, capped = ParseStats(), ParseStats()
        ds = import_file(corpus_file, ImportFilter(**years), stats=full)
        assert (full.n_citing, full.n_cr) == (ds.n_citing, ds.n_cr_total)
        sample = import_file(corpus_file, ImportFilter(**years, max_cr=5), stats=capped)
        assert capped.n_citing == sample.n_citing < full.n_citing
        assert 5 <= capped.n_cr < full.n_cr

    def test_max_cr_zero_means_unlimited(self, corpus: Corpus, corpus_file):
        ds = import_file(corpus_file, ImportFilter(max_cr=0))
        assert ds.n_cr_total == corpus.n_cr

    def test_none_with_cap_takes_first_n(self, corpus: Corpus, corpus_file):
        ds = import_file(corpus_file, ImportFilter(max_cr=100))
        assert ds.n_cr_total == 100

    def test_systematic_picks_every_step(self, tmp_path):
        # 400 CRs, one per record, every line distinct: the retained keys
        # reveal the selected positions.
        records = [(2000, "Article", [f"AUTHOR X, 2000, JOURNAL {i:03d}"]) for i in range(400)]
        path = tmp_path / "seq.txt"
        Corpus(records=records, works=[]).write(path)
        ds = import_file(
            path, ImportFilter(max_cr=100, sampling_mode="SYSTEMATIC", offset=0)
        )
        picked = sorted(int(v.key.split()[-1]) for v in ds.variants.values())
        assert picked == list(range(0, 400, 4))

    def test_empty_sample_names_the_mode(self, tmp_path):
        path = tmp_path / "empty.txt"
        Corpus(records=[(2000, "Article", [])], works=[]).write(path)
        with pytest.raises(EmptySampleError, match="NONE"):
            import_file(path, ImportFilter())

    def test_empty_cluster_selection_names_the_mode(self, tmp_path):
        # Seed 0 draws 2012 from [2011, 2013], and 2012 has no records.
        records = [(py, "Article", [f"AUTHOR X, 2000, JOURNAL {py}"]) for py in (2011, 2013)]
        path = tmp_path / "gappy.txt"
        Corpus(records=records, works=[]).write(path)
        with pytest.raises(EmptySampleError, match="CLUSTER"):
            import_file(
                path,
                ImportFilter(py_range=(2011, 2013, False), sampling_mode="CLUSTER", seed=0),
            )

    def test_systematic_sampler_needs_the_population_count(self):
        filt = ImportFilter(sampling_mode="SYSTEMATIC", max_cr=5)
        message = "^systematic sampling needs the population CR count$"
        with pytest.raises(DomainError, match=message):
            build_sampler(filt)

    def test_systematic_offset_too_large(self, corpus_file):
        with pytest.raises(OffsetTooLargeError):
            import_file(
                corpus_file,
                ImportFilter(max_cr=2500, sampling_mode="SYSTEMATIC", offset=2),
            )

    def test_provenance_records_the_import(self, corpus_file):
        ds = import_file(
            corpus_file,
            ImportFilter(rpy_range=(1970, 2010, False), max_cr=50, sampling_mode="RANDOM", seed=9),
        )
        assert "sampling=RANDOM" in ds.provenance
        assert "maxCR=50" in ds.provenance
        assert "seed=9" in ds.provenance
        assert "rpy=[1970,2010,false]" in ds.provenance

    def test_rpy_filter_applies_to_variants(self, corpus_file):
        ds = import_file(corpus_file, ImportFilter(rpy_range=(1980, 1990, False)))
        assert all(1980 <= v.rpy <= 1990 for v in ds.variants.values())

    def test_caller_supplied_sampler_is_used(self, corpus: Corpus, corpus_file):
        from rpyspect.sampling import SystematicSampler

        sampler = SystematicSampler(n=100, total=corpus.n_cr, offset=3)
        ds = import_file(corpus_file, ImportFilter(max_cr=100), sampler=sampler)
        assert ds.sum_ncr() == 100
        expected = [raw for i, (raw, _) in enumerate(corpus.occurrences()) if i % 50 == 3][:100]
        assert sorted(ds.variants) == sorted({normalize_key(r) for r in expected})

    def test_fields_are_parsed_once_per_distinct_key(self, corpus: Corpus, corpus_file, monkeypatch):
        calls = []

        def counted(key):
            calls.append(key)
            return parse_key(key)

        monkeypatch.setattr(model, "parse_key", counted)
        ds = import_file(corpus_file, ImportFilter())
        assert sorted(calls) == sorted(ds.variants)
        assert len(calls) == len({normalize_key(raw) for raw, _ in corpus.occurrences()})
        assert len(calls) < corpus.n_cr


class TestSelectMatchesImport:
    """The sampler tests drive each Sampler through ``conftest.select``;
    this pins that ``select`` keeps what ``import_file`` keeps."""

    FILTERS = [
        ImportFilter(max_cr=3),
        ImportFilter(max_cr=2, sampling_mode="RANDOM", seed=1),
        ImportFilter(py_range=(1990, 2011, False), max_cr=2, sampling_mode="SYSTEMATIC", offset=1),
    ]

    @staticmethod
    def occurrences(path, py_range):
        lo, hi, unknown = py_range or (0, 9999, True)
        for py, crs in parse_wos_path(path):
            if unknown if py is None else lo <= py <= hi:
                for line in crs:
                    yield line, py

    @settings(max_examples=300, deadline=None)
    @given(data=wos_files, filt=st.sampled_from(FILTERS))
    def test_select_keeps_what_import_file_keeps(self, tmp_path_factory, data, filt):
        path = tmp_path_factory.getbasetemp() / "select.txt"
        path.write_bytes(data)
        total = analyze_file(path, filt).n_cr
        try:
            sampler = build_sampler(filt, total)
        except RpysError as err:
            with pytest.raises(type(err)):
                import_file(path, filt)
            return
        if not select(sampler, self.occurrences(path, filt.py_range)):
            with pytest.raises(EmptySampleError):
                import_file(path, filt)
            return
        def fields(ds):
            return {k: (v.ncr, v.n_py_years, v.py_years) for k, v in ds.variants.items()}

        assert fields(aggregate(sampler.result())) == fields(import_file(path, filt))


class TestClusterImport:
    @settings(max_examples=300, deadline=None)
    @given(
        data=wos_files,
        years=st.lists(st.sampled_from([1990, 2011, 2012, 2013]), min_size=2, max_size=2),
        unknown=st.booleans(),
        seed=st.integers(0, 2**64),
    )
    def test_cluster_import_is_the_drawn_years_none_import(
        self, tmp_path_factory, data, years, unknown, seed
    ):
        path = tmp_path_factory.getbasetemp() / "cluster.txt"
        path.write_bytes(data)
        lo, hi = sorted(years)
        year = random.Random(seed).randint(lo, hi)

        def imported(filt):
            try:
                ds = import_file(path, filt)
            except EmptySampleError:
                return None
            variants = [(v.key, v.rpy, v.ncr, v.n_py_years) for v in ds.variants.values()]
            return variants, ds.n_cr_total, ds.n_citing

        cluster = ImportFilter(py_range=(lo, hi, unknown), sampling_mode="CLUSTER", seed=seed)
        assert imported(cluster) == imported(ImportFilter(py_range=(year, year, False)))


class TestStreamingContract:
    def test_probe_bounds_live_references(self, tmp_path):
        corpus = make_corpus(seed=2, n_records=80, crs_per_record=20, n_works=150)
        path = tmp_path / "stream.txt"
        corpus.write(path)
        probe = MemoryProbe()
        import_file(path, ImportFilter(max_cr=50, sampling_mode="RANDOM"), probe=probe)
        assert probe.records_seen == 80
        assert probe.peak <= 50 + 20

    def test_probe_counts_every_pair_of_a_filtered_record(self, tmp_path):
        # The probe counts the sampler's lines plus all of the current
        # record's CR lines, filtered out or not: the filters shrink what
        # is offered, not what the reader holds. The PY-1970 record fails
        # the citing-year filter with 3 lines on top of the 1 kept, so the
        # peak is 4; counting only the passing lines would give 3.
        path = tmp_path / "filtered.txt"
        path.write_text(
            "FN X\nVR 1.0\n"
            "PT J\nPY 2000\nCR A B, 1990, J\n   C D, 1850, K\nER\n"
            "PT J\nPY 1970\nCR E F, 1991, L\n   G H, 1992, M\n   I J, 1993, N\nER\n"
            "PT J\nPY 2001\nCR K L, 1995, O\nER\nEF\n"
        )
        filt = ImportFilter(rpy_range=(1900, 2010, False), py_range=(1980, 2014, False))
        probe = MemoryProbe()
        ds = import_file(path, filt, probe=probe)
        assert (probe.peak, probe.records_seen) == (4, 3)
        assert (ds.n_cr_total, ds.n_citing) == (2, 2)

    def test_none_import_holds_distinct_lines_not_occurrences(self, tmp_path):
        # 3,000 CR occurrences of at most 40 works: the NONE sampler folds
        # them by line as it reads, so the probe peaks at the distinct
        # lines plus one record (10 lines), far below the occurrences.
        corpus = make_corpus(seed=6, n_records=300, crs_per_record=10, n_works=40)
        path = tmp_path / "repeats.txt"
        corpus.write(path)
        probe = MemoryProbe()
        ds = import_file(path, ImportFilter(), probe=probe)
        lines = {line for _, crs in parse_wos_path(path) for line in crs}
        assert ds.n_cr_total == corpus.n_cr == 3000
        assert probe.peak == len(lines) + 10
        assert probe.peak < ds.n_cr_total

    def test_probe_accounting_is_honest(self, tmp_path, monkeypatch):
        # Cross-check the accounting hook against a census of the CR lines
        # still alive, each counted from creation to collection: the
        # reader's CR lines and the (line, py) pairs the sampler keeps
        # both hold the line object that parse_cr_line returns.
        corpus = make_corpus(seed=3, n_records=60, crs_per_record=10, n_works=100)
        path = tmp_path / "census.txt"
        corpus.write(path)
        live = [0]

        class Line(str):
            def __new__(cls, line):
                live[0] += 1
                return super().__new__(cls, line)

            def __del__(self):
                live[0] -= 1

        parse = wos.parse_cr_line

        def counted_parse(line):
            line = parse(line)
            return None if line is None else Line(line)

        monkeypatch.setattr(wos, "parse_cr_line", counted_parse)

        class CensusProbe(MemoryProbe):
            def __init__(self):
                super().__init__()
                self.census_peak = 0

            def observe(self, live_refs):
                super().observe(live_refs)
                self.census_peak = max(self.census_peak, live[0])

        probe = CensusProbe()
        import_file(path, ImportFilter(max_cr=40, sampling_mode="RANDOM"), probe=probe)
        # The census may lag by one record awaiting rebinding.
        assert 40 <= probe.census_peak <= 40 + 2 * 10


class TestYearOnDemand:
    """A CR's year is read only for an RPY filter, and only for the CR
    lines of records whose citing year passes: once per line, by the
    filter's year gate, whatever the line's characters."""

    TEXT = (
        "FN X\nVR 1.0\n"
        "PT J\nPY 2000\nCR A B, 1990, J\n   C D, 1850, K\nER\n"
        "PT J\nPY 1970\nCR E F, 1991, L\n   G H, 1992, M\n   I J, 1993, N\nER\n"
        "PT J\nPY 2001\nCR K L, 1995, O\nER\nEF\n"
    )
    PY = (1980, 2014, False)

    @pytest.fixture()
    def reads(self, tmp_path, monkeypatch):
        (tmp_path / "years.txt").write_text(self.TEXT, encoding="utf-8")
        (tmp_path / "mixed.txt").write_text(self.TEXT.replace("A B", "MÜLLER K"), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        read = []  # the lines the year gate reads
        year_gate = wos._year_gate

        def counted_gate(lo, hi, unknown):
            gate = year_gate(lo, hi, unknown)
            return lambda line: read.append(line) or gate(line)

        monkeypatch.setattr(wos, "_year_gate", counted_gate)
        return read

    @pytest.mark.parametrize(
        "filt",
        [ImportFilter(), ImportFilter(py_range=PY, max_cr=2, sampling_mode="SYSTEMATIC")],
        ids=["NONE", "SYSTEMATIC"],
    )
    def test_no_year_is_read_without_an_rpy_filter(self, reads, filt):
        assert import_file("years.txt", filt).n_cr_total > 0
        assert analyze_file("years.txt", filt).n_cr > 0
        assert reads == []

    def test_one_read_per_cr_line_of_each_passing_record(self, reads):
        expected = ["A B, 1990, J", "C D, 1850, K", "K L, 1995, O"]
        self.check_reads("years.txt", reads, expected)

    def test_a_record_with_a_non_ascii_line_gets_one_gate_read_per_line(self, reads):
        expected = ["MÜLLER K, 1990, J", "C D, 1850, K", "K L, 1995, O"]
        self.check_reads("mixed.txt", reads, expected)

    def check_reads(self, path, reads, expected):
        filt = ImportFilter(rpy_range=(1900, 2010, False), py_range=self.PY)
        assert analyze_file(path, filt).n_cr == 2
        # The PY-1970 record fails the citing-year filter: none of its lines.
        assert reads == expected
        reads.clear()
        sample = import_file(path, filt.replace(max_cr=1, sampling_mode="RANDOM"))
        assert sample.n_cr_total == 1
        assert reads == expected


class TestFormats:
    def test_wos_accepted(self):
        check_format("WOS")

    def test_reserved_formats_rejected(self):
        with pytest.raises(DomainError, match="reserved"):
            check_format("SCOPUS")
        with pytest.raises(DomainError, match="reserved"):
            check_format("CROSSREF")
