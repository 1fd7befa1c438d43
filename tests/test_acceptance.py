"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them live).
Every tolerance is pinned here, including the stated runtime budgets.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from rpyspect.cli import main as cli_main
from rpyspect.clustering import ClusterConfig, cluster_crs, compatible, merge_clusters
from rpyspect.engine import Environment, execute
from rpyspect.errors import RpysError
from rpyspect.formats import load_cre, save_cre, union_cre
from rpyspect.model import CitedReference, CRVariant, Dataset, SpectroRow, aggregate, normalize_key
from rpyspect.sampling import RandomSampler, removal_threshold
from rpyspect.script import parse_script
from rpyspect.spectroscopy import compute_spectrogram, fidelity, top_crs
from rpyspect.wos import ImportFilter, MemoryProbe, import_file

from conftest import dataset_fields, select
from corpus import Corpus, make_corpus
from test_clustering import oracle_similarity
from test_formats import random_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL {name}")
        raise
    elapsed = time.time() - start
    print(f"[criterion {number:02d}] PASS {name} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def occurrence_stream(n: int) -> list[tuple[str, int]]:
    return [(f"AUTHOR {i}, 1990, JOURNAL", 2000) for i in range(n)]


def test_criterion_1_removal_threshold_reproduction():
    with criterion(1, "rule-of-thumb threshold worked example", 5):
        assert removal_threshold(100, 6_594_657, 50_000) == 1


def test_criterion_2_systematic_anchor(tmp_path):
    with criterion(2, "systematic sampling picks the 1st, 5th, 9th, ... CR", 5):
        # 400 records of one distinct CR line each: the retained keys
        # reveal the positions the import selected.
        records = [(2000, "Article", [f"AUTHOR {i}, 1990, JOURNAL"]) for i in range(400)]
        path = tmp_path / "anchor.txt"
        Corpus(records=records, works=[]).write(path)
        ds = import_file(path, ImportFilter(max_cr=100, sampling_mode="SYSTEMATIC", offset=0))
        positions = {int(v.key.split(",")[0].split()[1]) for v in ds.variants.values()}
        assert positions == set(range(0, 400, 4))


def test_criterion_3_partition_property(tmp_path):
    with criterion(3, "union of 4 systematic samples reproduces the population", 10):
        corpus = make_corpus(seed=23, n_records=400, crs_per_record=25, n_works=800)
        assert corpus.n_cr == 10_000
        path = tmp_path / "partition.txt"
        corpus.write(path)

        n = corpus.n_cr // 4  # step = 4 divides the total exactly
        src = (
            "forEachUnion(count: 4, { index ->\n"
            f'    importFile(file: "{path}", type: "WOS",'
            f' sampling: "SYSTEMATIC", maxCR: {n}, offset: index)\n'
            "})\n"
        )
        env = Environment(tmpdir=str(tmp_path), sink=lambda line: None)
        execute(parse_script(src), env)

        population = import_file(path, ImportFilter(seed=0))
        assert {k: v.ncr for k, v in env.dataset.variants.items()} == {
            k: v.ncr for k, v in population.variants.items()
        }


def test_criterion_4_random_sampling_unbiasedness():
    with criterion(4, "per-item inclusion frequency within 0.25 +- 3 sigma", 60):
        population = occurrence_stream(100)
        runs = 10_000
        hits: Counter = Counter()
        for seed in range(runs):
            for line, n, _ in select(RandomSampler(25, seed=seed), population):
                hits[line] += n
        freqs = [hits[line] / runs for line, _ in population]
        assert all(0.237 <= f <= 0.263 for f in freqs), (min(freqs), max(freqs))


def test_criterion_5_spectrogram_oracle_equivalence():
    with criterion(5, "spectrogram matches brute-force window medians", 30):
        rng = random.Random(501)
        for _ in range(100):
            n_variants = rng.randint(1, 1000)
            variants = {}
            for i in range(n_variants):
                year = rng.randint(1970, 2010)
                key = f"W {i:04d}, {year}, J"
                ref = CitedReference(raw=key, author=f"W {i:04d}", rpy=year, source="J")
                variants[key] = CRVariant(
                    key=key, reference=ref, ncr=rng.randint(1, 50), n_py_years=1
                )
            ds = Dataset(variants=variants, n_cr_total=10**6)
            median_range = rng.randint(0, 4)
            spect = compute_spectrogram(ds, median_range)

            counts: dict[int, int] = {}
            for v in variants.values():
                counts[v.rpy] = counts.get(v.rpy, 0) + v.ncr
            years = list(range(min(counts), max(counts) + 1))
            series = [counts.get(y, 0) for y in years]
            assert [r.rpy for r in spect] == years
            for i, row in enumerate(spect):
                assert row.ncr == series[i]
                window = sorted(series[max(0, i - median_range) : i + median_range + 1])
                k = len(window)
                med = (
                    float(window[k // 2])
                    if k % 2
                    else (window[k // 2 - 1] + window[k // 2]) / 2
                )
                assert abs(row.median_dev - (series[i] - med)) <= 1e-12


def test_criterion_6_clustering_oracle_equivalence():
    with criterion(6, "clustering matches the quadratic union-find oracle", 30):
        config = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        for seed in (61, 62, 63, 64):
            corpus = make_corpus(
                seed=seed, n_records=40, crs_per_record=5, n_works=50, misspell_rate=0.5
            )
            ds = aggregate(
                (normalize_key(raw), py) for raw, py in corpus.occurrences()
            )
            assert len(ds.variants) <= 200
            clustered = cluster_crs(ds, config)

            # Quadratic oracle: union-find over every pair, no blocking.
            ordered = ds.sorted_variants()
            parent = list(range(len(ordered)))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    a, b = ordered[i].reference, ordered[j].reference
                    if compatible(a, b, config) and oracle_similarity(a, b) >= config.threshold:
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[max(ri, rj)] = min(ri, rj)
            oracle_groups: dict[int, set] = {}
            for i, v in enumerate(ordered):
                oracle_groups.setdefault(find(i), set()).add(v.key)
            got_groups: dict[int, set] = {}
            for v in clustered.variants.values():
                got_groups.setdefault(v.cluster_id, set()).add(v.key)
            assert {frozenset(g) for g in got_groups.values()} == {
                frozenset(g) for g in oracle_groups.values()
            }

            merged = merge_clusters(clustered)
            assert merged.sum_ncr() == ds.sum_ncr()


def test_criterion_7_scaled_sample_fidelity(tmp_path):
    with criterion(7, "1-in-4 systematic sample tracks the population spectrogram", 60):
        peak_years = (1974, 1982, 1987, 1993, 2001, 2007)
        corpus = make_corpus(
            seed=77,
            n_records=4000,
            crs_per_record=25,
            n_works=600,
            peak_years=peak_years,
            peak_boost=5.0,
        )
        assert corpus.n_cr == 100_000
        path = tmp_path / "big.txt"
        corpus.write(path)

        population = import_file(path, ImportFilter(seed=0))
        sample = import_file(
            path, ImportFilter(max_cr=corpus.n_cr // 4, sampling_mode="SYSTEMATIC")
        )
        spect_pop = compute_spectrogram(population)
        spect_sample = compute_spectrogram(sample)
        assert fidelity(spect_sample, spect_pop).max_error <= 0.05
        for year in peak_years:
            assert top_crs(sample, year, 1)[0].key == top_crs(population, year, 1)[0].key


GOLDEN_OUTPUTS = {
    "listing1": ("out1.cre", "out1_CR.csv", "out1_GRAPH.csv"),
    "listing2": ("out2.cre", "out2_CR.csv", "out2_GRAPH.csv"),
    "listing3": ("out3.cre", "out3_CR.csv", "out3_GRAPH.csv"),
}


def run_listing(listing: str, corpus, workdir: Path) -> dict[str, bytes]:
    workdir.mkdir(parents=True, exist_ok=True)
    corpus.write(workdir / "corpus.txt")
    shutil.copy(GOLDEN_DIR / f"{listing}.crs", workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert cli_main(["run", f"{listing}.crs", "--seed", "0"]) == 0
        return {name: (workdir / name).read_bytes() for name in GOLDEN_OUTPUTS[listing]}
    finally:
        os.chdir(cwd)


def test_criterion_8_script_goldens(corpus, tmp_path):
    with criterion(8, "script listings reproduce the committed goldens byte-for-byte", 60):
        for listing, names in GOLDEN_OUTPUTS.items():
            produced = run_listing(listing, corpus, tmp_path / listing)
            for name in names:
                expected = (GOLDEN_DIR / "expected" / listing / name).read_bytes()
                assert produced[name] == expected, f"{listing}/{name} diverged"
        # Same seed, fresh run: byte-identical outputs.
        rerun = run_listing("listing2", corpus, tmp_path / "rerun")
        for name, blob in rerun.items():
            expected = (GOLDEN_DIR / "expected" / "listing2" / name).read_bytes()
            assert blob == expected


def test_cluster_sample_of_listing3_is_its_golden_year(corpus, tmp_path, monkeypatch):
    # Listing 3 imports the pinned citing year 2011. A CLUSTER sample over
    # [2011, 2014] whose seed draws 2011 is that import: the same rows and
    # #SUMMARY, counting only 2011's citing records; its provenance names
    # the drawn year.
    assert random.Random(2).randint(2011, 2014) == 2011
    script = (GOLDEN_DIR / "listing3.crs").read_text(encoding="utf-8")
    pinned = "PY:\n[2011, 2011, false])"
    assert pinned in script
    monkeypatch.chdir(tmp_path)
    corpus.write(tmp_path / "corpus.txt")
    (tmp_path / "cluster3.crs").write_text(
        script.replace(pinned, 'PY: [2011, 2014, false], sampling: "CLUSTER", seed: 2)'),
        encoding="utf-8",
    )
    assert cli_main(["run", "cluster3.crs", "--seed", "0"]) == 0
    expected = GOLDEN_DIR / "expected" / "listing3"
    produced = (tmp_path / "out3.cre").read_bytes().split(b"\n")
    golden = (expected / "out3.cre").read_bytes().split(b"\n")
    assert produced[1] == golden[1].replace(b"sampling=NONE", b"sampling=CLUSTER").replace(
        b"seed=0", b"seed=2"
    )

    def body(lines):  # the checksum covers the provenance
        return [line for line in lines if not line.startswith((b"#PROVENANCE", b"#CHECKSUM"))]

    assert body(produced) == body(golden)
    for name in ("out3_CR.csv", "out3_GRAPH.csv"):
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes()


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch):
    # 4,400 records of 25 CRs: 110,000 CRs, so the block's 50,000-CR
    # SYSTEMATIC sample has step 2 and its offset 1 is valid.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    make_corpus(seed=0, n_records=4400).write(tmp_path / "savedrecs.txt")
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert dataset_fields(load_cre(tmp_path / "savedrecs.cre")) == dataset_fields(names["ds"])
    assert names["sample"].sum_ncr() == 50_000
    population, sample_spect = names["population"], names["sample_spect"]
    assert all(isinstance(row, SpectroRow) for row in population + names["spect"])
    # The sample holds 50,000 of 110,000 CRs, and each year of it, scaled
    # up, lands within 2 % of the population's peak.
    fit = names["fit"]
    assert 0.4 < fit.scale < 0.5
    assert [y for y, _ in fit.deviations] == [row.rpy for row in population]
    assert fit.max_error < 0.02


def test_criterion_9_round_trip_and_union(tmp_path):
    with criterion(9, "CRE round-trip, union order-independence, checksum", 30):
        for seed in range(100):
            ds = random_dataset(seed)
            path = tmp_path / "rt.cre"
            save_cre(ds, path, settings={"median_range": 2, "n_pct_range": 0})
            assert dataset_fields(load_cre(path)) == dataset_fields(ds)

        paths = []
        for i, seed in enumerate((901, 902, 903, 904)):
            p = tmp_path / f"u{i}.cre"
            save_cre(random_dataset(seed), p)
            paths.append(p)
        forward = union_cre(paths)
        backward = union_cre(list(reversed(paths)))
        shuffled = paths[:]
        random.Random(9).shuffle(shuffled)
        assert forward == backward == union_cre(shuffled)

        target = tmp_path / "corrupt.cre"
        save_cre(random_dataset(905), target)
        blob = bytearray(target.read_bytes())
        rng = random.Random(905)
        for _ in range(20):
            pos = rng.randrange(len(blob))
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0x20
            target.write_bytes(bytes(corrupted))
            with pytest.raises(RpysError):
                load_cre(target)


def test_criterion_10_memory_contract(tmp_path):
    with criterion(10, "1M-occurrence import retains <= maxCR + one record", 60):
        corpus = make_corpus(seed=99, n_records=40_000, crs_per_record=25, n_works=2000)
        assert corpus.n_cr == 1_000_000
        path = tmp_path / "huge.txt"
        corpus.write(path)

        probe = MemoryProbe()
        dataset = import_file(
            path,
            ImportFilter(max_cr=50_000, sampling_mode="RANDOM"),
            probe=probe,
        )
        assert probe.records_seen == 40_000
        assert probe.peak <= 50_000 + 25
        assert dataset.n_cr_total == 50_000
