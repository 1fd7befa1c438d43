from __future__ import annotations

import hashlib

import pytest

from rpyspect.cli import main
from rpyspect.engine import DEFAULT_SETTINGS, Environment, execute
from rpyspect.formats import cre_bytes, load_cre, save_cre
from rpyspect.script import parse_script
from rpyspect.spectroscopy import compute_spectrogram
from rpyspect.wos import ImportFilter, import_file


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
        (tmp_path / "s.crs").write_text('importFile(file: "dots.txt", type: "WOS")\n')
        assert main(["-v", "run", "s.crs"] if verbose else ["run", "s.crs"]) == 0
        warned = "warning: 1 malformed records or CR lines skipped" in capsys.readouterr().err
        assert warned == verbose

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

    @pytest.mark.parametrize(
        "line, column, value",
        [
            (5, 7, "abc"),  # ncr not an integer
            (5, 7, "0"),  # ncr below 1
            (5, 2, "5"),  # rpy outside [YEAR_MIN, YEAR_MAX]
            (5, 0, ""),  # empty key
            (3, 1, "x"),  # #SUMMARY n_citing not an integer
            (5, 9, "-4"),  # n_py_years negative
            (3, 1, "-1"),  # #SUMMARY n_citing negative
            (3, 2, "0"),  # #SUMMARY n_cr_total below the table's sum(ncr)
            (5, 0, "a  b, 2000, j"),  # key that normalize_key would change
        ],
    )
    def test_bad_cre_field_fails_with_location(self, tmp_path, capsys, line, column, value):
        (tmp_path / "in.txt").write_text("PT J\nPY 2011\nCR A B, 2000, J\nER\nEF\n")
        path = tmp_path / "bad.cre"
        save_cre(import_file(tmp_path / "in.txt", ImportFilter()), path)
        lines = path.read_text().split("\n")
        cols = lines[line].split("\t")
        cols[column] = value
        lines[line] = "\t".join(cols)
        body = "\n".join(lines[:-3]) + "\n"
        lines[-3] = f"#CHECKSUM\t{hashlib.sha256(body.encode()).hexdigest()}"
        path.write_text("\n".join(lines))
        assert main(["spectro", str(path), "--out", str(tmp_path / "g.csv")]) == 1
        assert f"bad.cre: line {line + 1}:" in capsys.readouterr().err
