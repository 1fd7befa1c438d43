from __future__ import annotations

import io
import re
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from rpyspect import formats, wos
from rpyspect.cli import main
from rpyspect.clustering import ClusterConfig, cluster_crs, merge_clusters, remove_cr
from rpyspect.engine import Environment, execute
from rpyspect.errors import (
    BadArgumentError,
    ScriptError,
    ScriptSyntaxError,
    UnknownFunctionError,
)
from rpyspect.formats import load_cre, union_cre
from rpyspect.script import (
    LOOP_KINDS,
    MAX_NESTING,
    REGISTRY,
    BinOp,
    Call,
    Loop,
    Var,
    eval_expr,
    parse_script,
    pretty,
)
from rpyspect.wos import ImportFilter, import_file

from conftest import dataset_fields
from corpus import make_corpus


class TestParse:
    def test_set_call(self):
        prog = parse_script("set(n_pct_range: 0, median_range: 2)")
        assert prog == (
            Call("set", (("n_pct_range", 0), ("median_range", 2))),
        )

    def test_remove_cr_list(self):
        prog = parse_script("removeCR(N_CR: [0, 99])")
        assert prog == (
            Call("removeCR", (("N_CR", (0, 99)),)),
        )

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse_script("frobnicate(x: 1)")

    def test_unknown_argument_is_hard_error(self):
        with pytest.raises(BadArgumentError):
            parse_script('importFile(file: "x", type: "WOS", bogus: 1)')

    def test_missing_required_argument(self):
        with pytest.raises(BadArgumentError):
            parse_script('importFile(type: "WOS")')

    def test_type_mismatch(self):
        with pytest.raises(BadArgumentError):
            parse_script("set(n_pct_range: \"zero\")")

    def test_range_triple_shape_enforced(self):
        with pytest.raises(BadArgumentError):
            parse_script('importFile(file: "x", type: "WOS", RPY: [1970, 2014])')
        with pytest.raises(BadArgumentError):
            parse_script('importFile(file: "x", type: "WOS", RPY: [1970, 2014, 3])')

    def test_unbound_variable_rejected(self):
        with pytest.raises(BadArgumentError):
            parse_script("set(median_range: index)")

    def test_unbound_variable_fails_evaluation(self):
        # The parser rejects unbound names, so only a hand-built tree gets here.
        with pytest.raises(BadArgumentError, match="^unbound variable 'i'$"):
            eval_expr(Var("i"), {})

    def test_syntax_error_carries_location(self):
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script("set(median_range: 2\ninfo()")
        assert err.value.line == 2

    def test_comments_and_whitespace(self):
        prog = parse_script(
            "// leading comment\n  set( median_range : 2 )  // trailing\n\ninfo()\n"
        )
        assert [s.name for s in prog] == ["set", "info"]

    def test_loop_with_index_arithmetic(self):
        prog = parse_script(
            'forEach(count: 3, dir: "d", { index ->\n'
            '    importFile(file: "x", type: "WOS", offset: index+1)\n'
            "})"
        )
        loop = prog[0]
        assert isinstance(loop, Loop)
        assert loop.kind == "forEach"
        offset = dict(loop.body[0].args)["offset"]
        assert eval_expr(offset, {"index": 4}) == 5

    def test_use_wrapper_unwraps(self):
        prog = parse_script(
            'use("Loop.crs").with {\n'
            "    forEachUnion(count: 2, { i ->\n        info()\n    })\n"
            '    saveFile(file: "out.cre")\n'
            "}"
        )
        assert isinstance(prog[0], Loop)
        assert prog[1] == Call("saveFile", (("file", "out.cre"),))

    def test_use_block_must_start_with_loop(self):
        with pytest.raises(ScriptSyntaxError):
            parse_script('use("Loop.crs").with { info() }')


SAMPLES = [
    "",
    "info()\n",
    "set(n_pct_range: 0, median_range: 2)\nremoveCR(N_CR: [0, 99])\n",
    'importFile(file: "a b.txt", type: "WOS", RPY: [1970, 2014, false],'
    ' PY: [1980, 2014, true], maxCR: 0)\n',
    'forEachUnion(count: 10, dir: "tmp", { index ->\n'
    '    importFile(file: "x", type: "WOS", sampling: "RANDOM", maxCR: 50, offset: index+1)\n'
    "    merge()\n"
    "})\n"
    'saveFile(file: "out.cre")\n',
    'forEach(count: 2, { i ->\n    forEach(count: 3, { j ->\n        info()\n    })\n})\n',
]


class TestPrettyRoundTrip:
    @pytest.mark.parametrize("src", SAMPLES)
    def test_parse_pretty_parse_fixed_point(self, src):
        prog = parse_script(src)
        printed = pretty(prog)
        assert parse_script(printed) == prog
        assert pretty(parse_script(printed)) == printed


class TestAstRecords:
    def test_equality_needs_the_same_node_type(self):
        assert Var("x") != "x" and "x" != Var("x")
        assert Var("x") == Var("x")
        assert BinOp("+", Var("i"), 1) != BinOp("-", Var("i"), 1)

    def test_location_takes_no_part_in_equality_or_hash(self):
        args = (("count", 2),)
        body = (Call("info", (), line=2, col=5),)
        pairs = [
            (Call("info", args, line=1, col=1), Call("info", args, line=9, col=3)),
            (Loop("forEach", args, "i", body, 1, 1), Loop("forEach", args, "i", body, 7, 2)),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert {a, b} == {a}
        assert Call("info", ()) != Call("set", ())
        assert Loop("forEach", args, "i", body) != Loop("forEach", args, "j", body)

    def test_nodes_are_frozen(self):
        node = Call("info", (), line=1, col=1)
        with pytest.raises(AttributeError):
            node.line = 2

    def test_parsed_programs_compare_by_value(self):
        src = "forEach(count: 2, { i ->\n    set(median_range: i+1)\n})\n"
        moved = "\n\n  " + src
        assert parse_script(src) == parse_script(moved)
        assert hash(parse_script(src)) == hash(parse_script(moved))
        assert parse_script(src)[0].line == 1
        assert parse_script(moved)[0].line == 3


# Script tokens plus Unicode numerals (int() reads "١" but not "²" or "½"),
# a bad and a surrogate \u escape, and a lone quote and backslash.
TOKENS = (
    sorted(REGISTRY)
    + list(LOOP_KINDS)
    + ["use", "with", "index", "count", "dir", "file", "type", "N_CR", "RPY", "threshold"]
    + ["median_range", "true", "false", "0", "7", "12", "0.75", '"x.txt"', '"\\n"', '"é"']
    + list("()[]{},:+-.") + ["->", " ", "\n", "\t", "// c\n"]
    + ["²", "½", "١", '"\\uZZZZ"', '"\\ud800"', '"', "\\"]
)
token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)
# A sample script with token soup spliced in, so that near-valid scripts
# are drawn as well as garbage.
spliced = st.builds(
    lambda src, at, soup: src[: at % (len(src) + 1)] + soup + src[at % (len(src) + 1) :],
    st.sampled_from(SAMPLES),
    st.integers(min_value=0),
    st.lists(st.sampled_from(TOKENS), max_size=3).map("".join),
)
script_texts = st.one_of(token_soup, spliced)


class TestMalformedScripts:
    @settings(max_examples=500, deadline=None)
    @given(script_texts)
    def test_round_trips_or_fails_with_location(self, text):
        try:
            prog = parse_script(text)
        except ScriptError as exc:
            assert exc.line >= 1 and exc.col >= 1
            return
        assert parse_script(pretty(prog)) == prog

    @settings(max_examples=100, deadline=None)
    @given(text=script_texts)
    def test_cli_exits_1_on_rejected_script(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.crs"
        path.write_text(text, encoding="utf-8")
        try:  # what the CLI reads, newlines translated
            parse_script(path.read_text(encoding="utf-8"))
        except ScriptError:
            pass
        else:
            assume(False)  # it would run
        with redirect_stderr(io.StringIO()) as err:
            assert main(["run", str(path)]) == 1
        assert err.getvalue().startswith(f"error: {path}: line ")

    @pytest.mark.parametrize(
        "src",
        [
            'saveFile(file: "\\uZZZZ")',
            "set(median_range: ²)",
            'importFile(file: "\\ud800.txt", type: "WOS")',
        ],
        ids=["non-hex-escape", "superscript-digit", "surrogate-escape"],
    )
    def test_cli_reports_line(self, tmp_path, capsys, src):
        (tmp_path / "bad.crs").write_text(src, encoding="utf-8")
        assert main(["run", str(tmp_path / "bad.crs")]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "src, line, col",
        [
            ("set(median_range: 2,)", 1, 21),
            ("set(median_range: ½)", 1, 19),
            ('saveFile(file: "a\\qb")', 1, 18),
            ('info()\nsaveFile(file: "a\\u12")', 2, 18),
            ('saveFile(file: "ab', 1, 16),
            ("forEach(count: 1)", 1, 17),
            ("forEach(count: 1, { i ->\n    info()\n", 1, 19),
            ("set(median_range: 2 // note", 1, 21),
            pytest.param("cluster(threshold: " + "1" * 400 + ".0)", 1, 20, id="real-overflow"),
        ],
    )
    def test_syntax_error_location(self, src, line, col):
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script(src)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "src, error, message",
        [
            (
                "set(median_range: 1, median_range: 2)",
                BadArgumentError,
                "line 1, col 1: duplicate argument 'median_range'",
            ),
            (
                "set(median_range: 1 + true)",
                BadArgumentError,
                "line 1, col 1: arithmetic needs integer operands",
            ),
            (
                'use("L.crs").wiht {\n    forEach(count: 1, { i ->\n        info()\n    })\n}',
                ScriptSyntaxError,
                "line 1, col 14: expected 'with', got 'wiht'",
            ),
        ],
        ids=["duplicate-argument", "bool-operand", "misspelled-with"],
    )
    def test_parse_error_message(self, src, error, message):
        with pytest.raises(error) as err:
            parse_script(src)
        assert str(err.value) == message

    def test_parenthesized_operand(self):
        prog = parse_script("forEach(count: 3, { i ->\n    set(median_range: i - (1 - 1))\n})")
        expr = prog[0].body[0].args[0][1]
        assert expr == BinOp("-", Var("i"), BinOp("-", 1, 1))
        printed = pretty(prog)
        assert "i - (1 - 1)" in printed
        assert parse_script(printed) == prog
        assert eval_expr(expr, {"i": 2}) == 2  # not (2 - 1) - 1

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() has no digit limit in this interpreter",
    )
    def test_overlong_integer_fails_with_location(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script(f"info()\nset(median_range: {digits})")
        assert (err.value.line, err.value.col) == (2, 19)

    @pytest.mark.parametrize(
        "src",
        [
            "set(median_range: " + "(" * 3000 + "1" + ")" * 3000 + ")",
            "set(median_range: " + "+".join(["1"] * 3000) + ")",
            "removeCR(N_CR: " + "[" * 3000 + "1" + "]" * 3000 + ")",
            "forEach(count: 1, { i ->\n" * 600 + "info()\n" + "})\n" * 600,
        ],
        ids=["parentheses", "chain", "brackets", "loops"],
    )
    def test_deep_nesting_fails_with_location(self, tmp_path, capsys, src):
        with pytest.raises(ScriptSyntaxError) as err:
            parse_script(src)
        assert err.value.line >= 1
        path = tmp_path / "deep.crs"
        path.write_text(src, encoding="utf-8")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: line ")

    def test_nesting_up_to_the_bound_runs(self):
        chain = "+".join(["1"] * (MAX_NESTING + 1))
        with pytest.raises(ScriptSyntaxError, match="nested more than") as err:
            parse_script(f"set(median_range: {chain}+1)")
        assert (err.value.line, err.value.col) == (1, 19 + len(chain))  # the last "+"
        env = execute(parse_script(f"set(median_range: {chain})"), Environment())
        assert env.settings["median_range"] == MAX_NESTING + 1
        loops = "forEach(count: 1, { i ->\n" * MAX_NESTING + "info()\n" + "})\n" * MAX_NESTING
        assert parse_script(pretty(parse_script(loops))) == parse_script(loops)

    @pytest.mark.parametrize(
        "stmt",
        [
            'importFile(file: "a\\u0000b", type: "WOS")',
            'analyzeFile(file: "a\\u0000b", type: "WOS")',
            'saveFile(file: "a\\u0000b")',
            'exportFile(file: "a\\u0000b", type: "CSV_CR")',
            'forEach(count: 1, dir: "\\u0000", { i ->\n    info()\n})',
        ],
        ids=["importFile", "analyzeFile", "saveFile", "exportFile", "forEach-dir"],
    )
    def test_nul_in_file_name_fails_with_location(self, tmp_path, capsys, stmt):
        (tmp_path / "in.txt").write_text("PT J\nPY 2011\nCR A B, 2000, J\nER\nEF\n")
        script = f'importFile(file: "{tmp_path / "in.txt"}", type: "WOS")\n{stmt}\n'
        with pytest.raises(BadArgumentError, match="NUL") as err:
            parse_script(script)
        assert (err.value.line, err.value.col) == (2, 1)
        (tmp_path / "nul.crs").write_text(script, encoding="utf-8")
        assert main(["run", str(tmp_path / "nul.crs")]) == 1
        assert "line 2, col 1: " in capsys.readouterr().err

    def test_reals_print_without_exponent(self):
        prog = parse_script("cluster(threshold: 0.00001)\ncluster(threshold: 12345678901234567.5)")
        assert parse_script(pretty(prog)) == prog


def test_readme_script_blocks_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Script language", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", section, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_script(block)


LISTING1_STYLE = """\
set(n_pct_range: 0, median_range: 2)
importFile(file: "{path}", type: "WOS", RPY: [1970, 2010, false], PY: [1980,
2014, false], maxCR: 0)
info()
cluster(threshold: 0.75, volume: true, page: true, DOI: false)
merge()
removeCR(N_CR: [0, 4])
saveFile(file: "{out}.cre")
exportFile(file: "{out}_CR.csv", type: "CSV_CR")
exportFile(file: "{out}_GRAPH.csv", type: "CSV_GRAPH")
"""


class TestExecute:
    def run(self, src, tmp_path, seed=0):
        env = Environment(base_seed=seed, sink=lambda line: self.lines.append(line))
        return execute(parse_script(src), env)

    def setup_method(self):
        self.lines = []

    def test_empty_program_leaves_env_unchanged(self, tmp_path):
        env = self.run("", tmp_path)
        assert env.dataset is None
        assert env.settings == {"median_range": 2, "n_pct_range": 0}

    def test_listing1_style_equals_manual_pipeline(self, corpus_file, tmp_path):
        src = LISTING1_STYLE.format(path=corpus_file, out=tmp_path / "out")
        env = self.run(src, tmp_path)

        manual = import_file(
            corpus_file,
            ImportFilter(
                rpy_range=(1970, 2010, False), py_range=(1980, 2014, False), seed=0
            ),
        )
        manual = cluster_crs(
            manual, ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        )
        manual = merge_clusters(manual)
        manual = remove_cr(manual, 0, 4)
        assert env.dataset == manual

        saved = load_cre(f"{tmp_path / 'out'}.cre")
        assert dataset_fields(saved) == dataset_fields(manual)
        assert (tmp_path / "out_CR.csv").exists()
        assert (tmp_path / "out_GRAPH.csv").exists()

    def test_info_line_format(self, corpus, corpus_file, tmp_path):
        src = f'importFile(file: "{corpus_file}", type: "WOS")\ninfo()\n'
        self.run(src, tmp_path)
        assert self.lines[-1].startswith(
            f"{corpus.n_records} citing publications, {corpus.n_cr} CRs,"
        )

    def test_info_without_dataset(self, tmp_path):
        self.run("info()", tmp_path)
        assert self.lines == ["no dataset loaded"]

    def test_fixed_year_import_equals_composition(self, corpus_file, tmp_path):
        # Listing-3 shape: one citing year, cluster, merge, remove.
        src = (
            f'importFile(file: "{corpus_file}", type: "WOS", RPY: [1970, 2010, false],'
            " PY: [2011, 2011, false])\n"
            "cluster(threshold: 0.75, volume: true, page: true, DOI: false)\n"
            "merge()\n"
            "removeCR(N_CR: [0, 1])\n"
        )
        env = self.run(src, tmp_path)
        manual = import_file(
            corpus_file,
            ImportFilter(rpy_range=(1970, 2010, False), py_range=(2011, 2011, False), seed=0),
        )
        manual = cluster_crs(manual, ClusterConfig(0.75, use_volume=True, use_page=True))
        manual = merge_clusters(manual)
        manual = remove_cr(manual, 0, 1)
        assert env.dataset == manual

    def test_analyze_file_reports_stats(self, corpus, corpus_file, tmp_path):
        self.run(f'analyzeFile(file: "{corpus_file}", type: "WOS")', tmp_path)
        assert self.lines == [
            f"analyzed {corpus_file}: citing={corpus.n_records} crs={corpus.n_cr}"
        ]

    def test_module_errors_carry_location(self, tmp_path):
        with pytest.raises(ScriptError) as err:
            self.run('info()\nimportFile(file: "missing.txt", type: "WOS")', tmp_path)
        assert err.value.line == 2

    IMPORT = 'importFile(file: "{path}", type: "WOS"'

    @pytest.mark.parametrize(
        "src, message, line, col",
        [
            ("forEach(count: 0, {{ i ->\n    info()\n}})", "count must be >= 1, got 0", 2, 1),
            ("cluster(threshold: 0.75)", "no dataset loaded; run importFile first", 2, 1),
            (IMPORT + ")\nremoveCR(N_CR: [5, 1])", "removeCR range lo > hi: [5, 1]", 3, 1),
            ('importFile(file: "{path}", type: "XML")', "unknown import format 'XML'", 2, 1),
            # ImportFilter rejects these before the count pass reads the file.
            (
                'forEach(count: 2, dir: "{dir}", {{ index ->\n'
                '    ' + IMPORT + ', sampling: "SYSTEMATIC", maxCR: 5, offset: index - 1)\n'
                "}})",
                "offset must be >= 0",
                3,
                5,
            ),
            (IMPORT + ", PY: [2014, 1980, false])", "year range lo > hi: (2014, 1980, False)", 2, 1),
            (IMPORT + ', sampling: "RANDOMM", maxCR: 5)', "unknown sampling mode 'RANDOMM'", 2, 1),
            (IMPORT + ', sampling: "CLUSTER")', "cluster sampling requires a citing-year range", 2, 1),
        ],
        ids=[
            "count-0", "no-dataset", "removeCR-range", "format", "offset", "PY-range", "mode",
            "cluster-without-PY",
        ],
    )
    def test_run_errors_carry_message_and_location(
        self, corpus_file, tmp_path, monkeypatch, src, message, line, col
    ):
        src = "info()\n" + src.format(path=corpus_file, dir=tmp_path / "cycles")
        reads = []
        parse_wos_path = wos.parse_wos_path

        def counted(path, stats=None):
            reads.append(path)
            return parse_wos_path(path, stats)

        monkeypatch.setattr(wos, "parse_wos_path", counted)
        with pytest.raises(ScriptError) as err:
            self.run(src, tmp_path)
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == f"line {line}, col {col}: {message}"
        assert reads == ([str(corpus_file)] if "removeCR" in src else [])

    def test_scopus_reserved(self, tmp_path):
        with pytest.raises(ScriptError, match="SCOPUS"):
            self.run('importFile(file: "x.txt", type: "SCOPUS")', tmp_path)

    def test_unknown_export_type(self, corpus_file, tmp_path):
        src = (
            f'importFile(file: "{corpus_file}", type: "WOS")\n'
            f'exportFile(file: "{tmp_path / "x.bin"}", type: "XLSX")\n'
        )
        with pytest.raises(ScriptError, match="XLSX"):
            self.run(src, tmp_path)

    def test_seed_argument_overrides_environment(self, corpus_file, tmp_path):
        src = (
            f'importFile(file: "{corpus_file}", type: "WOS", sampling: "RANDOM",'
            " maxCR: 40, seed: 5)"
        )
        env = self.run(src, tmp_path, seed=99)
        assert "seed=5" in env.dataset.provenance


class TestLoops:
    def setup_method(self):
        self.lines = []

    def run(self, src, seed=0, tmpdir=None):
        env = Environment(
            base_seed=seed, tmpdir=tmpdir, sink=lambda line: self.lines.append(line)
        )
        return execute(parse_script(src), env)

    def test_single_iteration_union_equals_import(self, corpus_file, tmp_path):
        src = (
            "forEachUnion(count: 1, { index ->\n"
            f'    importFile(file: "{corpus_file}", type: "WOS")\n'
            "})\n"
        )
        env = self.run(src, tmpdir=str(tmp_path))
        single = import_file(corpus_file, ImportFilter(seed=0))
        assert {k: v.ncr for k, v in env.dataset.variants.items()} == {
            k: v.ncr for k, v in single.variants.items()
        }
        assert env.dataset.n_citing == single.n_citing
        assert env.dataset.n_cr_total == single.n_cr_total

    def test_systematic_partition_via_union(self, corpus, corpus_file, tmp_path):
        n = corpus.n_cr // 4
        src = (
            "forEachUnion(count: 4, { index ->\n"
            f'    importFile(file: "{corpus_file}", type: "WOS",'
            f' sampling: "SYSTEMATIC", maxCR: {n}, offset: index)\n'
            "})\n"
        )
        env = self.run(src, tmpdir=str(tmp_path))
        population = import_file(corpus_file, ImportFilter(seed=0))
        assert {k: v.ncr for k, v in env.dataset.variants.items()} == {
            k: v.ncr for k, v in population.variants.items()
        }

    def test_union_rerun_is_byte_identical(self, corpus_file, tmp_path):
        def src(out):
            return (
                "forEachUnion(count: 5, { index ->\n"
                + f'    importFile(file: "{corpus_file}", type: "WOS",'
                + ' sampling: "RANDOM", maxCR: 50, offset: index+1)\n'
                + "    merge()\n"
                + "})\n"
                + f'saveFile(file: "{out}")\n'
            )

        out_a = tmp_path / "a.cre"
        out_b = tmp_path / "b.cre"
        self.run(src(out_a), seed=7, tmpdir=str(tmp_path))
        self.run(src(out_b), seed=7, tmpdir=str(tmp_path))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_per_iteration_seeds_differ(self, corpus_file, tmp_path):
        # Two RANDOM iterations must not select identical samples.
        keep = tmp_path / "keep"
        src = (
            f'forEach(count: 2, dir: "{keep}", '
            + "{ index ->\n"
            + f'    importFile(file: "{corpus_file}", type: "WOS",'
            + ' sampling: "RANDOM", maxCR: 30)\n'
            + "})\n"
        )
        self.run(src)
        a = load_cre(keep / "iter_0000.cre")
        b = load_cre(keep / "iter_0001.cre")
        assert "seed=0" in a.provenance
        assert "seed=1" in b.provenance
        assert set(a.variants) != set(b.variants)

    def test_nested_loops_draw_new_samples_in_each_outer_iteration(self, tmp_path):
        # An inner body cannot name the outer index, so the inner seeds must
        # depend on it through the environment.
        make_corpus(seed=3, n_records=200).write(tmp_path / "corpus.txt")
        out = tmp_path / "out"
        src = (
            f'forEach(count: 2, dir: "{out}", {{ i ->\n'
            "    forEachUnion(count: 2, { j ->\n"
            f'        importFile(file: "{tmp_path / "corpus.txt"}", type: "WOS",'
            ' sampling: "RANDOM", maxCR: 300)\n'
            "    })\n"
            "})\n"
        )
        self.run(src, seed=0)
        first, second = (
            (out / name).read_bytes().partition(b"#SETTINGS")[2]
            for name in ("iter_0000.cre", "iter_0001.cre")
        )
        assert first != second
        # A top-level iteration keeps base_seed + index (the goldens rely on
        # it); a nested one starts from its outer iteration's seed << 32.
        outer = Environment(base_seed=5).child(1)
        assert outer.base_seed == 5
        assert outer.child(2).base_seed == 6 << 32

    def test_for_each_keeps_files_and_no_dataset(self, corpus_file, tmp_path):
        keep = tmp_path / "cycles"
        src = (
            f'forEach(count: 3, dir: "{keep}", {{ index ->\n'
            f'    importFile(file: "{corpus_file}", type: "WOS", maxCR: 20)\n'
            "})\n"
        )
        env = self.run(src)
        assert env.dataset is None
        assert sorted(p.name for p in keep.iterdir()) == [
            "iter_0000.cre",
            "iter_0001.cre",
            "iter_0002.cre",
        ]

    def test_for_each_without_dir_keeps_a_new_temporary_directory(
        self, small_corpus_file, tmp_path, capsys
    ):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        script = tmp_path / "loop.crs"
        script.write_text(
            f'importFile(file: "{small_corpus_file}", type: "WOS")\n'
            f'saveFile(file: "{tmp_path / "before.cre"}")\n'
            "forEach(count: 2, { index ->\n"
            f'    importFile(file: "{small_corpus_file}", type: "WOS", sampling: "RANDOM",'
            " maxCR: 20)\n"
            "})\n"
            f'saveFile(file: "{tmp_path / "after.cre"}")\n',
            encoding="utf-8",
        )
        assert main(["run", str(script), "--tmpdir", str(scratch)]) == 0
        (loop_dir,) = scratch.iterdir()
        assert loop_dir.name.startswith("rpys-loop-") and loop_dir.is_dir()
        assert sorted(p.name for p in loop_dir.iterdir()) == ["iter_0000.cre", "iter_0001.cre"]
        for i in range(2):
            cycle = load_cre(loop_dir / f"iter_{i:04d}.cre")
            assert sum(v.ncr for v in cycle.variants.values()) == 20
            assert f"seed={i}" in cycle.provenance
        assert f"forEach wrote 2 CRE files to {loop_dir}\n" in capsys.readouterr().err
        assert (tmp_path / "after.cre").read_bytes() == (tmp_path / "before.cre").read_bytes()

    def test_settings_do_not_leak_out_of_loop(self, corpus_file, tmp_path):
        src = (
            "forEachUnion(count: 1, { index ->\n"
            "    set(median_range: 7)\n"
            f'    importFile(file: "{corpus_file}", type: "WOS", maxCR: 10)\n'
            "})\n"
        )
        env = self.run(src, tmpdir=str(tmp_path))
        assert env.settings["median_range"] == 2

    def test_iteration_without_dataset_fails(self, tmp_path):
        with pytest.raises(ScriptError, match="no dataset"):
            self.run("forEachUnion(count: 1, { i ->\n    info()\n})", tmpdir=str(tmp_path))

    def test_user_dir_files_survive_errors(self, corpus_file, tmp_path):
        # maxCR 2500 of 5000 CRs gives step 2, so offset 2 on the third
        # iteration fails; the first two iteration files must survive.
        keep = tmp_path / "partial"
        src = (
            f'forEach(count: 3, dir: "{keep}", '
            + "{ index ->\n"
            + f'    importFile(file: "{corpus_file}", type: "WOS",'
            + ' sampling: "SYSTEMATIC", maxCR: 2500, offset: index)\n'
            + "})\n"
        )
        with pytest.raises(ScriptError):
            self.run(src)
        assert (keep / "iter_0000.cre").exists()
        assert (keep / "iter_0001.cre").exists()
        assert not (keep / "iter_0002.cre").exists()


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory) -> Path:
    """150 CRs with misspelled forms, so that cluster() links variants."""
    path = tmp_path_factory.mktemp("small") / "small.txt"
    make_corpus(seed=3, n_records=30, crs_per_record=5, n_works=40, misspell_rate=0.3).write(path)
    return path


@st.composite
def union_loops(draw, corpus_path):
    """A forEachUnion script over a 150-CR corpus, kept in ``{dir}``: its
    body imports (directly or in a nested forEachUnion), then may
    cluster, merge and removeCR."""
    mode = draw(st.sampled_from(["NONE", "RANDOM", "SYSTEMATIC"]))
    nested = draw(st.booleans())
    var = "j" if nested else "index"
    # At most 150 // 4 picks keep the systematic step above every offset.
    max_cr = draw(st.integers(0 if mode == "NONE" else 1, 150 // 4))
    offset = f", offset: {var}" if mode == "SYSTEMATIC" else ""
    body = (
        f'importFile(file: "{corpus_path}", type: "WOS", sampling: "{mode}",'
        f" maxCR: {max_cr}{offset})\n"
    )
    if nested:
        inner = draw(st.integers(1, 4))
        body = f"forEachUnion(count: {inner}, {{ j ->\n{body}}})\n"
    if draw(st.booleans()):
        threshold = draw(st.sampled_from(["0.6", "0.75", "0.9"]))
        body += f"cluster(threshold: {threshold}, volume: true, page: true)\n"
    if draw(st.booleans()):
        body += "merge()\n"
    if draw(st.booleans()):
        lo = draw(st.integers(0, 3))
        body += f"removeCR(N_CR: [{lo}, {lo + draw(st.integers(0, 3))}])\n"
    count = draw(st.integers(1, 4))
    return f'forEachUnion(count: {count}, dir: "{{dir}}", {{ index ->\n{body}}})\n'


class TestLoopUnionFold:
    """A forEachUnion folds its iterations in memory into exactly the
    dataset that union_cre reads back from the files it wrote."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 50))
    def test_loop_dataset_is_the_union_of_its_files(self, small_corpus_file, data, seed):
        src = data.draw(union_loops(small_corpus_file))
        with tempfile.TemporaryDirectory() as tmp:
            keep = Path(tmp) / "cycles"
            env = Environment(base_seed=seed, tmpdir=tmp, sink=lambda line: None)
            execute(parse_script(src.replace("{dir}", str(keep))), env)
            expected = union_cre(sorted(keep.iterdir()))
        assert env.dataset == expected
        assert list(env.dataset.variants) == list(expected.variants)

    def test_loop_reads_no_cre_file(self, corpus_file, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read back {path}")

        monkeypatch.setattr(formats, "_read_header", refuse)
        src = (
            "forEachUnion(count: 3, { index ->\n"
            f'    importFile(file: "{corpus_file}", type: "WOS",'
            ' sampling: "SYSTEMATIC", maxCR: 100, offset: index)\n'
            "})\n"
        )
        env = Environment(tmpdir=str(tmp_path), sink=lambda line: None)
        execute(parse_script(src), env)
        assert env.dataset.provenance == (
            "union of 3 files: iter_0000.cre, iter_0001.cre, iter_0002.cre"
        )
        assert sum(v.ncr for v in env.dataset.variants.values()) == 300

    def test_union_without_dir_writes_no_file(self, corpus_file, tmp_path, monkeypatch):
        saved = []
        save_cre = formats.save_cre

        def counting_save(dataset, path, *args, **kwargs):
            saved.append(Path(path).name)
            return save_cre(dataset, path, *args, **kwargs)

        monkeypatch.setattr(formats, "save_cre", counting_save)

        def run(loop_args, out):
            script = tmp_path / f"{out}.crs"
            script.write_text(
                f"forEachUnion(count: 3, {loop_args}{{ index ->\n"
                f'    importFile(file: "{corpus_file}", type: "WOS",'
                ' sampling: "SYSTEMATIC", maxCR: 100, offset: index)\n'
                "    merge()\n"
                "})\n"
                f'saveFile(file: "{tmp_path / out}")\n',
                encoding="utf-8",
            )
            scratch = tmp_path / f"{out}_tmp"
            scratch.mkdir()
            assert main(["run", str(script), "--tmpdir", str(scratch)]) == 0
            return list(scratch.iterdir())

        assert run("", "plain.cre") == []
        assert saved == ["plain.cre"]
        assert run(f'dir: "{tmp_path / "cycles"}", ', "kept.cre") == []
        assert saved[1:] == ["iter_0000.cre", "iter_0001.cre", "iter_0002.cre", "kept.cre"]
        assert (tmp_path / "plain.cre").read_bytes() == (tmp_path / "kept.cre").read_bytes()
