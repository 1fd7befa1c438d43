from __future__ import annotations

import hashlib
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from rpyspect import wos
from rpyspect.cli import main
from rpyspect.engine import DEFAULT_SETTINGS, Environment, execute
from rpyspect.errors import CreFormatError, EmptySampleError
from rpyspect.formats import cre_bytes, load_cre, save_cre, union_cre
from rpyspect.model import CRVariant, parse_key
from rpyspect.script import parse_script
from rpyspect.spectroscopy import compute_spectrogram
from rpyspect.wos import ImportFilter, import_file

from corpus import make_corpus


LISTING1 = """\
set(n_pct_range: 0, median_range: 2)
importFile(file: "corpus.txt", type: "WOS", RPY: [1970, 2010, false], PY: [1980, 2014, false], maxCR: 0)
info()
cluster(threshold: 0.75, volume: true, page: true, DOI: false)
merge()
removeCR(N_CR: [0, 4])
saveFile(file: "out1.cre")
exportFile(file: "out1_CR.csv", type: "CSV_CR")
exportFile(file: "out1_GRAPH.csv", type: "CSV_GRAPH")
"""


@pytest.fixture()
def workdir(tmp_path, corpus, monkeypatch):
    corpus.write(tmp_path / "corpus.txt")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestRun:
    def test_listing_creates_output_files(self, workdir):
        (workdir / "listing1.crs").write_text(LISTING1)
        assert main(["run", "listing1.crs"]) == 0
        for name in ("out1.cre", "out1_CR.csv", "out1_GRAPH.csv"):
            assert (workdir / name).exists()

    def test_missing_script_exits_nonzero(self, workdir, capsys):
        assert main(["run", "missing.crs"]) == 1
        assert "missing.crs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "script, reason",
        [(".", "Is a directory"), ("missing.crs", "No such file or directory")],
    )
    def test_unreadable_script_prints_the_os_reason(self, workdir, capsys, script, reason):
        assert main(["run", script]) == 1
        assert capsys.readouterr().err == f"error: {script}: {reason}\n"

    def test_script_error_has_location(self, workdir, capsys):
        (workdir / "bad.crs").write_text('importFile(file: "nope.txt", type: "WOS")\n')
        assert main(["run", "bad.crs"]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_syntax_error_exits_nonzero(self, workdir, capsys):
        (workdir / "syntax.crs").write_text("set(median_range: )\n")
        assert main(["run", "syntax.crs"]) == 1
        assert "expected an expression" in capsys.readouterr().err

    @pytest.mark.parametrize("verbose", [False, True])
    def test_skipped_cr_line_warns_only_when_verbose(self, tmp_path, monkeypatch, capsys, verbose):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dots.txt").write_text("PT J\nPY 2011\nCR ...\n   A B, 2000, J\nER\nEF\n")
        for name in ("importFile", "analyzeFile"):
            (tmp_path / "s.crs").write_text(f'{name}(file: "dots.txt", type: "WOS")\n')
            assert main(["-v", "run", "s.crs"] if verbose else ["run", "s.crs"]) == 0
            warned = "warning: 1 malformed records or CR lines skipped" in capsys.readouterr().err
            assert warned == verbose, name

    @pytest.mark.parametrize("verbose", [False, True])
    def test_sample_warns_about_skipped_cr_line_only_when_verbose(
        self, tmp_path, monkeypatch, capsys, verbose
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dots.txt").write_text("PT J\nPY 2011\nCR A B, 2000, J\n   ...\nER\nEF\n")
        args = ["sample", "dots.txt", "--out", "dots.cre"]
        assert main(["-v", *args] if verbose else args) == 0
        warned = "warning: 1 malformed records or CR lines skipped" in capsys.readouterr().err
        assert warned == verbose

    @pytest.mark.parametrize("setting", ["n_pct_range", "median_range"])
    def test_negative_setting_fails_at_the_set_statement(self, workdir, capsys, setting):
        # Before a saveFile could write the sign into the CRE's #SETTINGS.
        (workdir / "s.crs").write_text(
            'importFile(file: "corpus.txt", type: "WOS", maxCR: 10)\n'
            f"set({setting}: 0-1)\n"
            'saveFile(file: "neg.cre")\n'
        )
        assert main(["run", "s.crs"]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: s.crs: line 2, col 1: {setting} must be >= 0, got -1\n"
        )
        assert not (workdir / "neg.cre").exists()

    @pytest.mark.parametrize(
        "statement, path",
        [
            ('saveFile(file: "nodir/x.cre")', "nodir/x.cre"),
            ('exportFile(file: ".", type: "CSV_CR")', "."),
        ],
    )
    def test_write_error_names_the_requested_file(self, workdir, capsys, statement, path):
        (workdir / "w.crs").write_text(
            f'importFile(file: "corpus.txt", type: "WOS", maxCR: 10)\n{statement}\n'
        )
        before = sorted(os.listdir(workdir))
        assert main(["run", "w.crs"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: w.crs: line 2, col 1: ")
        assert f": {path!r}" in err and ".tmp" not in err
        assert sorted(os.listdir(workdir)) == before  # no temporary file left

    def test_script_not_utf8_exits_nonzero(self, workdir, capsys):
        (workdir / "latin1.crs").write_bytes(b"info()\xff\n")
        assert main(["run", "latin1.crs"]) == 1
        assert "error: latin1.crs: not valid UTF-8 at byte 6" in capsys.readouterr().err

    def test_superscript_year_is_not_a_year(self, tmp_path, monkeypatch, capsys):
        # "¹⁹⁹⁰".isdigit() is true, but int() cannot read it.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sup.txt").write_text(
            "PT J\nPY 2011\nCR SMITH J, ¹⁹⁹⁰, NATURE\n   A B, 2000, J\nER\nEF\n",
            encoding="utf-8",
        )
        (tmp_path / "s.crs").write_text(
            'importFile(file: "sup.txt", type: "WOS")\nsaveFile(file: "sup.cre")\n'
        )
        assert main(["run", "s.crs"]) == 0
        smith = load_cre("sup.cre").variants["SMITH J, ¹⁹⁹⁰, NATURE"].reference
        assert (smith.rpy, smith.source) == (None, "¹⁹⁹⁰, NATURE")
        assert main(["analyze", "sup.txt"]) == 0
        assert capsys.readouterr().out == "citing=1 crs=2\n"

    def test_seeded_rerun_is_byte_identical(self, workdir):
        script = (
            "forEachUnion(count: 3, { index ->\n"
            '    importFile(file: "corpus.txt", type: "WOS", sampling: "RANDOM",'
            " maxCR: 60, offset: index+1)\n"
            "})\n"
            'saveFile(file: "sampled.cre")\n'
        )
        (workdir / "loop.crs").write_text(script)
        assert main(["run", "loop.crs", "--seed", "7"]) == 0
        first = (workdir / "sampled.cre").read_bytes()
        assert main(["run", "loop.crs", "--seed", "7"]) == 0
        assert (workdir / "sampled.cre").read_bytes() == first

    def test_different_seed_changes_output(self, workdir):
        script = (
            'importFile(file: "corpus.txt", type: "WOS", sampling: "RANDOM", maxCR: 60)\n'
            'saveFile(file: "s.cre")\n'
        )
        (workdir / "loop.crs").write_text(script)
        main(["run", "loop.crs", "--seed", "1"])
        first = (workdir / "s.cre").read_bytes()
        main(["run", "loop.crs", "--seed", "2"])
        assert (workdir / "s.cre").read_bytes() != first


def test_start_generates_no_code():
    """``import rpyspect.cli`` loads neither ``dataclasses`` nor the
    ``inspect`` it pulls in: importing and decorating with them cost about
    23 ms at every process start, and the record types need neither."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rpyspect, rpyspect.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def systematic(offset: str = "0", extra: str = "") -> str:
    """A SYSTEMATIC importFile of corpus.txt: 1,250 of its 5,000 CRs,
    ``offset`` and ``extra`` (more arguments) in script syntax."""
    return (
        f'importFile(file: "corpus.txt", type: "WOS"{extra}, sampling: "SYSTEMATIC",'
        f" maxCR: 1250, offset: {offset})\n"
    )


@pytest.fixture()
def count_passes(monkeypatch):
    """Records (file name, py_range, rpy_range) for every counting pass."""
    calls = []
    real = wos.analyze_file

    def counting(path, filt, stats=None):
        calls.append((os.path.basename(path), filt.py_range, filt.rpy_range))
        return real(path, filt, stats)

    monkeypatch.setattr(wos, "analyze_file", counting)
    return calls


class TestPopulationCountCache:
    def test_systematic_loop_counts_once_and_matches_separate_samples(
        self, workdir, count_passes
    ):
        (workdir / "loop.crs").write_text(
            "forEachUnion(count: 4, { index ->\n"
            + "    "
            + systematic("index")
            + "})\n"
            + 'saveFile(file: "loop.cre")\n'
        )
        assert main(["run", "loop.crs"]) == 0
        assert len(count_passes) == 1

        # The union names its inputs, so the samples take the loop's file names.
        (workdir / "samples").mkdir()
        files = [workdir / "samples" / f"iter_{i:04d}.cre" for i in range(4)]
        for i, path in enumerate(files):
            args = ["--mode", "systematic", "--n", "1250", "--offset", str(i)]
            assert main(["sample", "corpus.txt", *args, "--out", str(path)]) == 0
        assert len(count_passes) == 5
        save_cre(union_cre(files), "separate.cre", settings=DEFAULT_SETTINGS)
        assert (workdir / "loop.cre").read_bytes() == (workdir / "separate.cre").read_bytes()

    def test_analyze_then_systematic_import_counts_once(self, workdir, count_passes):
        rpy = ", RPY: [1970, 2010, false]"
        (workdir / "s.crs").write_text(
            f'analyzeFile(file: "corpus.txt", type: "WOS"{rpy})\n'
            + systematic(extra=rpy)
            + 'saveFile(file: "s.cre")\n'
        )
        assert main(["run", "s.crs"]) == 0
        assert count_passes == [("corpus.txt", None, (1970, 2010, False))]
        args = ["--mode", "systematic", "--n", "1250", "--rpy", "1970:2010"]
        assert main(["sample", "corpus.txt", *args, "--out", "alone.cre"]) == 0
        assert (workdir / "s.cre").read_bytes() == (workdir / "alone.cre").read_bytes()

    def test_each_pair_of_year_filters_counts_on_its_own(self, workdir, count_passes):
        filters = [
            "",
            ", RPY: [1970, 2010, false]",
            ", RPY: [1970, 2010, true]",
            ", PY: [1980, 2014, false]",
            ", RPY: [1970, 2010, false], PY: [1980, 2014, false]",
        ]
        # Each filter twice: only its first import counts.
        (workdir / "s.crs").write_text("".join(systematic(extra=f) for f in filters * 2))
        assert main(["run", "s.crs"]) == 0
        assert count_passes == [
            ("corpus.txt", None, None),
            ("corpus.txt", None, (1970, 2010, False)),
            ("corpus.txt", None, (1970, 2010, True)),
            ("corpus.txt", (1980, 2014, False), None),
            ("corpus.txt", (1980, 2014, False), (1970, 2010, False)),
        ]

    def test_file_rewritten_by_the_script_is_counted_again(self, workdir, count_passes, capsys):
        # saveFile replaces corpus.txt with a CRE file, which holds no WoS
        # record, so the recount finds no CRs; a stale count of 5,000 would
        # reach the reader and fail there instead.
        (workdir / "s.crs").write_text(
            systematic() + 'saveFile(file: "corpus.txt")\n' + systematic()
        )
        assert main(["run", "s.crs"]) == 1
        assert len(count_passes) == 2
        err = capsys.readouterr().err
        assert "line 3, col 1: SYSTEMATIC sample is empty: no CRs pass the filters" in err

    def test_file_replaced_between_statements_is_counted_again(self, workdir, count_passes):
        # One Environment is one run; the file changes between its statements.
        env = Environment(sink=lambda line: None)
        program = parse_script(systematic())
        execute(program, env)
        make_corpus(seed=12).write(workdir / "other.txt")
        os.replace(workdir / "other.txt", workdir / "corpus.txt")
        execute(program, env)
        assert len(count_passes) == 2
        filt = ImportFilter(max_cr=1250, sampling_mode="SYSTEMATIC")
        assert env.dataset == import_file("corpus.txt", filt)
        assert len(count_passes) == 3


class TestEmptySystematicPopulation:
    """A year filter that no CR passes leaves SYSTEMATIC nothing to divide."""

    MESSAGE = "SYSTEMATIC sample is empty: no CRs pass the filters"

    def test_import_file_raises(self, workdir):
        filt = ImportFilter(rpy_range=(1900, 1901, False), max_cr=10, sampling_mode="SYSTEMATIC")
        with pytest.raises(EmptySampleError) as err:
            import_file("corpus.txt", filt)
        assert str(err.value) == self.MESSAGE

    def test_sample_exits_1(self, workdir, capsys):
        args = ["--mode", "systematic", "--n", "10", "--rpy", "1900:1901", "--out", "e.cre"]
        assert main(["sample", "corpus.txt", *args]) == 1
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"
        assert not (workdir / "e.cre").exists()

    def test_script_exits_1_at_the_statement(self, workdir, capsys):
        (workdir / "s.crs").write_text(
            "info()\n" + systematic(extra=", RPY: [1900, 1901, false]")
        )
        assert main(["run", "s.crs"]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: s.crs: line 2, col 1: {self.MESSAGE}\n"
        )


class TestAnalyze:
    def test_fixture_counts(self, workdir, corpus, capsys):
        assert main(["analyze", "corpus.txt"]) == 0
        out = capsys.readouterr().out
        assert out == f"citing={corpus.n_records} crs={corpus.n_cr}\n"

    def test_impossible_filter(self, workdir, capsys):
        assert main(["analyze", "corpus.txt", "--py", "1900:1901"]) == 0
        assert capsys.readouterr().out == "citing=0 crs=0\n"

    def test_directory_input_fails(self, workdir, capsys):
        assert main(["analyze", "."]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_range_syntax(self, workdir, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "corpus.txt", "--py", "1990"])


class TestSample:
    def test_systematic_matches_in_process_import(self, workdir):
        assert (
            main(
                [
                    "sample",
                    "corpus.txt",
                    "--mode",
                    "systematic",
                    "--n",
                    "100",
                    "--offset",
                    "0",
                    "--out",
                    "sys.cre",
                ]
            )
            == 0
        )
        expected = import_file(
            "corpus.txt",
            ImportFilter(max_cr=100, sampling_mode="SYSTEMATIC", offset=0, seed=0),
        )
        assert (workdir / "sys.cre").read_bytes() == cre_bytes(
            expected, settings=DEFAULT_SETTINGS
        )

    def test_cluster_without_py_is_usage_error(self, workdir, capsys):
        assert (
            main(["sample", "corpus.txt", "--mode", "cluster", "--out", "c.cre"]) == 1
        )
        err = capsys.readouterr().err
        assert "usage" in err and "--py" in err

    def test_cluster_with_py_works(self, workdir):
        assert (
            main(
                [
                    "sample",
                    "corpus.txt",
                    "--mode",
                    "cluster",
                    "--py",
                    "1980:2014",
                    "--seed",
                    "3",
                    "--out",
                    "c.cre",
                ]
            )
            == 0
        )
        ds = load_cre(workdir / "c.cre")
        assert ds.sum_ncr() > 0


# Corruptions of one field of two_row_cre_lines: (0-based line, column,
# new value). Lines 5 and 6 are the table rows.
BAD_CRE_FIELDS = [
    (5, 7, "abc"),  # ncr not an integer
    (5, 7, "0"),  # ncr below 1
    (5, 2, "5"),  # rpy outside [YEAR_MIN, YEAR_MAX]
    (5, 0, ""),  # empty key
    (3, 1, "x"),  # #SUMMARY n_citing not an integer
    (5, 9, "-4"),  # n_py_years negative
    (3, 1, "-1"),  # #SUMMARY n_citing negative
    (3, 2, "0"),  # #SUMMARY n_cr_total below the table's sum(ncr)
    (5, 0, "a  b, 2000, j"),  # key that normalize_key would change
    (3, 1, "+3"),  # #SUMMARY n_citing with a sign
    (5, 7, " 1"),  # ncr with a leading space
    (5, 2, "١٩٩٠"),  # rpy in Arabic-Indic digits
    (5, 8, "-0"),  # cluster_id with a sign
    (6, 2, "1999"),  # second row's rpy sorts before the first row's
    (0, 1, "01"),  # version with a leading zero
    (1, 1, "a\tb"),  # #PROVENANCE holding a tab
    (1, 1, "a\rb"),  # #PROVENANCE holding a CR
    (1, 1, None),  # bare #PROVENANCE, no tab
    (2, 1, "zzz garbage ==="),  # #SETTINGS not name=integer pairs
    (2, 1, None),  # bare #SETTINGS, no tab
    (2, 1, "n_pct_range=0 median_range=2"),  # #SETTINGS names out of order
    (2, 1, "median_range=2 median_range=2"),  # #SETTINGS name repeated
    (2, 1, "median_range=02"),  # #SETTINGS value with a leading zero
    (2, 1, "median_range=2 "),  # #SETTINGS with a trailing space
    (3, 3, None),  # #SUMMARY with two columns
    (4, 1, "KEY"),  # #TABLE column renamed
    (4, 10, "n_py_years\textra"),  # #TABLE with an extra column
    (5, 1, "ZZ"),  # author that is not the key's
    (5, 3, "K"),  # source that is not the key's
    (5, 4, "5"),  # volume the key does not have
    (6, 5, "9"),  # page the key does not have
    (6, 6, "10.1/X"),  # DOI the key does not have
    (5, (1, 2), ("ZZ", "2001")),  # author and rpy that are not the key's
    (5, 9, "2"),  # n_py_years above the row's ncr of 1
    (6, (0, 1, 2, 3, 4, 5, 6), ("A B, 2000, J", "A B", "2000", "J", "", "", "")),  # row 6 again
    (5, 9, None),  # row with a column dropped
    (5, 9, "1\t1"),  # row with a column too many
]


class TestSpectro:
    def test_matches_scripted_export(self, workdir):
        ds = import_file("corpus.txt", ImportFilter(seed=0))
        save_cre(ds, "data.cre", settings=DEFAULT_SETTINGS)
        assert main(["spectro", "data.cre", "--median-range", "2", "--out", "g.csv"]) == 0

        env = Environment(sink=lambda line: None)
        env.dataset = ds
        execute(parse_script('exportFile(file: "g2.csv", type: "CSV_GRAPH")'), env)
        assert (workdir / "g.csv").read_bytes() == (workdir / "g2.csv").read_bytes()

    def test_median_range_changes_devs(self, workdir):
        ds = import_file("corpus.txt", ImportFilter(seed=0))
        save_cre(ds, "data.cre")
        main(["spectro", "data.cre", "--median-range", "0", "--out", "g0.csv"])
        spect = compute_spectrogram(load_cre("data.cre"), median_range=0)
        assert all(row.median_dev == 0 for row in spect.rows)
        body = (workdir / "g0.csv").read_text()
        assert all(line.endswith(",0") for line in body.splitlines()[1:])

    def test_negative_median_range_fails_without_output(self, workdir, capsys):
        save_cre(import_file("corpus.txt", ImportFilter(seed=0)), "data.cre")
        assert main(["spectro", "data.cre", "--median-range", "-1", "--out", "g.csv"]) == 1
        assert "error: median_range must be >= 0" in capsys.readouterr().err
        assert not (workdir / "g.csv").exists()

    def test_missing_cre_fails(self, workdir, capsys):
        assert main(["spectro", "absent.cre", "--out", "g.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_punctuation_only_cr_line_never_reaches_the_cre(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dots.txt").write_text(
            "PT J\nPY 2011\nCR ...\n   A B, 2000, J\n   ;;\nER\n"
            "PT J\nPY 2012\nCR C D, 2001, K\nER\nEF\n"
        )
        assert main(["sample", "dots.txt", "--out", "dots.cre"]) == 0
        assert sorted(load_cre("dots.cre").variants) == ["A B, 2000, J", "C D, 2001, K"]
        assert main(["spectro", "dots.cre", "--out", "g.csv"]) == 0
        assert (tmp_path / "g.csv").read_text() == "RPY,N_CR,MEDIAN_DEV\n2000,1,0\n2001,1,0\n"

    @pytest.mark.parametrize("line, column, value", BAD_CRE_FIELDS)
    def test_bad_cre_field_fails_with_location(self, tmp_path, capsys, line, column, value):
        lines = two_row_cre_lines(tmp_path)
        set_field(lines, line, column, value)
        resign(tmp_path / "bad.cre", lines)
        assert main(["spectro", str(tmp_path / "bad.cre"), "--out", str(tmp_path / "g.csv")]) == 1
        assert f"bad.cre: line {line + 1}:" in capsys.readouterr().err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no digit limit in this interpreter",
    )
    def test_overlong_integer_fails_with_location(self, tmp_path, capsys):
        lines = two_row_cre_lines(tmp_path)
        digits = sys.get_int_max_str_digits() + 1
        set_field(lines, 3, 2, "9" * digits)  # #SUMMARY n_cr_total
        resign(tmp_path / "bad.cre", lines)
        message = f"bad.cre: line 4: n_cr_total has {digits} digits, too many to read"
        with pytest.raises(CreFormatError, match=message):
            load_cre(tmp_path / "bad.cre")
        assert main(["spectro", str(tmp_path / "bad.cre"), "--out", str(tmp_path / "g.csv")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("undate_first", [False, True])
    def test_rows_out_of_canonical_order_fail_with_location(self, tmp_path, capsys, undate_first):
        lines = two_row_cre_lines(tmp_path)
        if undate_first:  # an undated row before a dated one
            lines[5] = lines[5].replace("A B, 2000, J\tA B\t2000\tJ", "A B, J\tA B\t\tJ")
        else:  # the two (2000, key) rows swapped
            lines[5], lines[6] = lines[6], lines[5]
        resign(tmp_path / "bad.cre", lines)
        assert main(["spectro", str(tmp_path / "bad.cre"), "--out", str(tmp_path / "g.csv")]) == 1
        assert "bad.cre: line 7: row is out of (rpy, key) order" in capsys.readouterr().err


def two_row_cre_lines(tmp_path) -> list[str]:
    """The lines of a saved CRE whose rows (lines 6 and 7) are
    "A B, 2000, J" and "C D, 2000, K"."""
    (tmp_path / "in.txt").write_text("PT J\nPY 2011\nCR A B, 2000, J\n   C D, 2000, K\nER\nEF\n")
    path = tmp_path / "good.cre"
    save_cre(import_file(tmp_path / "in.txt", ImportFilter()), path)
    return path.read_text(encoding="utf-8").split("\n")


def set_field(lines: list[str], line: int, column, value) -> None:
    """Set one tab-separated field of ``lines[line]``: ``value`` None drops
    the column, and its tab with it; a tuple of columns takes a tuple of
    values."""
    cols = lines[line].split("\t")
    if value is None:
        del cols[column]
    elif isinstance(column, tuple):
        for c, v in zip(column, value):
            cols[c] = v
    else:
        cols[column] = value
    lines[line] = "\t".join(cols)


class TestUnionBadRows:
    @pytest.mark.parametrize(
        "line, column, value", [case for case in BAD_CRE_FIELDS if case[0] >= 5]
    )
    def test_bad_row_after_a_file_with_its_keys(self, tmp_path, line, column, value):
        """A row whose key an earlier file of the union already holds gets
        every row check, and fails at its line as it does in load_cre."""
        lines = two_row_cre_lines(tmp_path)
        set_field(lines, line, column, value)
        resign(tmp_path / "bad.cre", lines)
        with pytest.raises(CreFormatError) as alone:
            load_cre(tmp_path / "bad.cre")
        with pytest.raises(CreFormatError) as union:
            union_cre([tmp_path / "good.cre", tmp_path / "bad.cre"])
        assert f"bad.cre: line {line + 1}:" in str(union.value)
        assert str(union.value) == str(alone.value)


class TestRowFaultMessages:
    @pytest.mark.parametrize(
        "case, message",
        [
            (BAD_CRE_FIELDS[-3], "bad.cre: line 7: duplicate variant key 'A B, 2000, J'"),
            (BAD_CRE_FIELDS[-2], "bad.cre: line 6: malformed variant row"),
            (BAD_CRE_FIELDS[-1], "bad.cre: line 6: malformed variant row"),
        ],
        ids=["duplicate-key", "column-dropped", "column-added"],
    )
    def test_row_shape_fault_is_named(self, tmp_path, case, message):
        lines = two_row_cre_lines(tmp_path)
        set_field(lines, *case)
        resign(tmp_path / "bad.cre", lines)
        with pytest.raises(CreFormatError, match=re.escape(message)):
            load_cre(tmp_path / "bad.cre")
        with pytest.raises(CreFormatError, match=re.escape(message)):
            union_cre([tmp_path / "good.cre", tmp_path / "bad.cre"])

    @pytest.mark.parametrize(
        "ncr, n_py_years, rule, column, field, message",
        [
            (0, 0, "variant ncr must be >= 1", 7, "0", "variant ncr must be >= 1"),
            # A file cannot spell a negative count, so the reader refuses
            # the field before the variant's own rule can.
            (1, -1, "variant n_py_years must be >= 0", 9, "-1",
             "n_py_years '-1' is not a canonical integer"),
            (1, 2, "variant n_py_years must be <= its ncr", 9, "2",
             "variant n_py_years must be <= its ncr"),
        ],
        ids=["ncr-0", "n_py_years-negative", "n_py_years-above-ncr"],
    )
    def test_variant_count_rule(self, tmp_path, ncr, n_py_years, rule, column, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(rule)}$"):
            CRVariant("A B, 2000, J", parse_key("A B, 2000, J"), ncr, n_py_years=n_py_years)
        lines = two_row_cre_lines(tmp_path)
        set_field(lines, 5, column, field)
        resign(tmp_path / "bad.cre", lines)
        with pytest.raises(CreFormatError, match=f"bad.cre: line 6: {re.escape(message)}$"):
            load_cre(tmp_path / "bad.cre")


def resign(path, lines: list[str]) -> None:
    """Write ``lines`` with a #CHECKSUM that matches their body."""
    body = "\n".join(lines[:-3]) + "\n"
    lines[-3] = f"#CHECKSUM\t{hashlib.sha256(body.encode()).hexdigest()}"
    path.write_text("\n".join(lines), encoding="utf-8")


# The base input of the corruption properties, small so that each line is
# often hit: 3 records of 3 CRs (and, for spectro, their CRE).
BASE_WOS = make_corpus(seed=3, n_records=3, crs_per_record=3, n_works=6, misspell_rate=0.3)
CORRUPTIONS = ("truncate", "duplicate", "drop", "swap", "flip", "field")


@st.composite
def corrupted(draw, data: bytes, signed: bool) -> bytes:
    """``data`` after 1 or 2 corruptions: truncation at any byte, a line
    duplicated, dropped or swapped with another, a tab-separated field of
    a line dropped or duplicated, or one bit flipped; for a CRE
    (``signed``), mostly with its #CHECKSUM line re-signed after."""
    for op in draw(st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=2)):
        lines = data.splitlines(keepends=True)
        if op == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
        elif op == "flip" and data:
            pos = draw(st.integers(0, len(data) - 1))
            data = data[:pos] + bytes([data[pos] ^ 1 << draw(st.integers(0, 7))]) + data[pos + 1 :]
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            if op == "duplicate":
                lines.insert(i, lines[i])
            elif op == "drop":
                del lines[i]
            elif op == "field":
                fields = lines[i].split(b"\t")
                k = draw(st.integers(0, len(fields) - 1))
                fields[k : k + 1] = [fields[k]] * draw(st.sampled_from([0, 2]))
                lines[i] = b"\t".join(fields)
            else:
                j = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            data = b"".join(lines)
    if signed and draw(st.integers(0, 3)):
        data = resign_bytes(data)
    return data


def resign_bytes(data: bytes) -> bytes:
    """Replace the first #CHECKSUM line's digest with that of the lines above it."""
    lines = data.split(b"\n")
    for i, line in enumerate(lines):
        if line.startswith(b"#CHECKSUM\t"):
            body = b"\n".join(lines[:i]) + b"\n"
            lines[i] = b"#CHECKSUM\t" + hashlib.sha256(body).hexdigest().encode()
            break
    return b"\n".join(lines)


def quiet_main(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


class TestCorruptInputs:
    """Whatever a data file holds, the CLI ends with exit 0 or 1, never a
    traceback."""

    @settings(max_examples=150, deadline=None)
    @given(data=corrupted(BASE_WOS.wos_bytes(), signed=False))
    def test_wos_commands_exit_0_or_1(self, tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        wos_path, out = base / "c.txt", str(base / "c.cre")
        wos_path.write_bytes(data)
        (base / "c.crs").write_text(
            f'importFile(file: "{wos_path}", type: "WOS", sampling: "SYSTEMATIC",'
            f' maxCR: 4, offset: 1)\nsaveFile(file: "{out}")\n'
        )
        for argv in (
            ["analyze", str(wos_path)],
            ["sample", str(wos_path), "--mode", "random", "--n", "4", "--out", out],
            ["sample", str(wos_path), "--mode", "systematic", "--n", "4", "--offset", "1"]
            + ["--out", out],
            ["run", str(base / "c.crs")],
        ):
            assert quiet_main(argv) in (0, 1), argv

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_spectro_exits_0_or_1(self, tmp_path_factory, data):
        base = tmp_path_factory.getbasetemp()
        (base / "base.txt").write_bytes(BASE_WOS.wos_bytes())
        base_cre = import_file(base / "base.txt", ImportFilter())
        save_cre(base_cre, base / "base.cre", settings=DEFAULT_SETTINGS)
        cre = data.draw(corrupted((base / "base.cre").read_bytes(), signed=True))
        (base / "c.cre").write_bytes(cre)
        assert quiet_main(["spectro", str(base / "c.cre"), "--out", str(base / "g.csv")]) in (0, 1)
