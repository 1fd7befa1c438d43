from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from rpyspect.clustering import (
    ClusterConfig,
    cluster_crs,
    compatible,
    levenshtein,
    merge_clusters,
    remove_cr,
    similarity,
)
from rpyspect.model import CitedReference, Occurrence, aggregate
from rpyspect.wos import parse_cr_line

from corpus import make_corpus


def textbook_levenshtein(a: str, b: str) -> int:
    """Full-matrix reference implementation for the oracle."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def ref(author: str, rpy=1990, source="J", volume=None, page=None, doi=None):
    return CitedReference(
        raw=f"{author}, {rpy}, {source}",
        author=author,
        rpy=rpy,
        source=source,
        volume=volume,
        page=page,
        doi=doi,
    )


class TestSimilarity:
    def test_identical_references(self):
        a = parse_cr_line("STUIVER M, 1993, RADIOCARBON, V35, P215")
        assert similarity(a, a) == 1.0

    def test_disjoint_characters(self):
        a = ref("AAAA", source="")
        b = ref("BBBB", source="")
        assert similarity(a, b) == 0.0

    def test_matches_textbook_oracle(self):
        a = parse_cr_line("ROPELEWSKI CF, 1987, MON WEATHER REV, V115, P1606")
        b = parse_cr_line("ROPELEWSKI C, 1987, MON WEA REV, V115, P1606")
        sa = f"{a.author}, {a.source}".lower()
        sb = f"{b.author}, {b.source}".lower()
        expected = 1.0 - textbook_levenshtein(sa, sb) / max(len(sa), len(sb))
        assert similarity(a, b) == pytest.approx(expected, abs=1e-12)

    @given(st.text(alphabet="abcd ", max_size=12), st.text(alphabet="abcd ", max_size=12))
    def test_symmetric(self, s, t):
        a = ref(author=("X" + s).strip() or "X", source=s)
        b = ref(author=("X" + t).strip() or "X", source=t)
        assert similarity(a, b) == similarity(b, a)


# Lengths drawn uniformly up to 150, so patterns longer than one 64-bit
# machine word (and the empty string) are as likely as short ones.
KERNEL_TEXT = st.integers(0, 150).flatmap(
    lambda n: st.text(alphabet="abé ", min_size=n, max_size=n)
)


class TestLevenshtein:
    @given(KERNEL_TEXT, KERNEL_TEXT)
    def test_matches_textbook_and_is_symmetric(self, a, b):
        assert levenshtein(a, b) == textbook_levenshtein(a, b)
        assert levenshtein(a, b) == levenshtein(b, a)


class TestCompatible:
    CONFIG = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)

    def test_absent_field_never_blocks(self):
        a = ref("A", volume="35", page="215")
        b = ref("A", volume="35", page=None)
        assert compatible(a, b, self.CONFIG)

    def test_rpy_gate(self):
        a = ref("A", rpy=1993)
        b = ref("A", rpy=1994)
        assert not compatible(a, b, self.CONFIG)
        assert not compatible(a, b, ClusterConfig(threshold=0.0))

    def test_absent_rpy_blocks(self):
        a = CitedReference(raw="A, J", author="A", source="J")
        assert not compatible(a, a, self.CONFIG)

    def test_enabled_field_mismatch_blocks(self):
        a = ref("A", volume="35")
        b = ref("A", volume="36")
        assert not compatible(a, b, self.CONFIG)
        assert compatible(a, b, ClusterConfig(threshold=0.75, use_volume=False))


def brute_force_partition(dataset, config):
    """O(N^2) union-find oracle over all variant pairs, no blocking."""
    variants = dataset.sorted_variants()
    parent = list(range(len(variants)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            a, b = variants[i].reference, variants[j].reference
            if compatible(a, b, config) and similarity(a, b) >= config.threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, v in enumerate(variants):
        groups.setdefault(find(i), set()).add(v.key)
    return {frozenset(g) for g in groups.values()}


def clusters_of(dataset):
    groups = {}
    for v in dataset.variants.values():
        groups.setdefault(v.cluster_id, set()).add(v.key)
    return {frozenset(g) for g in groups.values()}


def misspelled_dataset(seed=0, n_records=40, misspell_rate=0.5):
    corpus = make_corpus(
        seed=seed,
        n_records=n_records,
        crs_per_record=5,
        n_works=50,
        misspell_rate=misspell_rate,
    )
    occs = [
        Occurrence(parse_cr_line(raw), py) for raw, py in corpus.occurrences()
    ]
    return aggregate(occs)


class TestClusterCrs:
    def test_threshold_one_with_distinct_keys_gives_singletons(self):
        ds = misspelled_dataset(seed=5, misspell_rate=0.0)
        out = cluster_crs(ds, ClusterConfig(threshold=1.0, use_volume=True, use_page=True))
        assert clusters_of(out) == {frozenset({k}) for k in ds.variants}

    def test_threshold_zero_merges_each_rpy_block(self):
        ds = misspelled_dataset(seed=6, misspell_rate=0.0)
        out = cluster_crs(ds, ClusterConfig(threshold=0.0))
        expected = {}
        for v in ds.variants.values():
            expected.setdefault(v.rpy, set()).add(v.key)
        assert clusters_of(out) == {frozenset(g) for g in expected.values()}

    def test_matches_brute_force_oracle(self):
        config = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        for seed in (1, 2, 3):
            ds = misspelled_dataset(seed=seed)
            assert len(ds.variants) <= 200
            out = cluster_crs(ds, config)
            assert clusters_of(out) == brute_force_partition(ds, config)

    def test_insertion_order_invariant(self):
        config = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        ds = misspelled_dataset(seed=9)
        items = list(ds.variants.items())
        random.Random(0).shuffle(items)
        shuffled = ds.with_variants([v for _, v in items], "shuffled")
        a = cluster_crs(ds, config)
        b = cluster_crs(shuffled, config)
        assert {k: v.cluster_id for k, v in a.variants.items()} == {
            k: v.cluster_id for k, v in b.variants.items()
        }

    def test_different_rpys_never_share_clusters(self):
        ds = misspelled_dataset(seed=4)
        out = cluster_crs(ds, ClusterConfig(threshold=0.0))
        by_cluster = {}
        for v in out.variants.values():
            by_cluster.setdefault(v.cluster_id, set()).add(v.rpy)
        assert all(len(years) == 1 for years in by_cluster.values())

    def test_oversize_blocks_fall_back_to_author_subblocks(self):
        # With the cap forced below the block size, only same-first-letter
        # pairs may cluster; the result stays deterministic.
        config = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        ds = misspelled_dataset(seed=12)
        capped = cluster_crs(ds, config, block_cap=2)
        for group in clusters_of(capped):
            initials = {ds.variants[k].reference.author[:1] for k in group}
            assert len(initials) == 1
        again = cluster_crs(ds, config, block_cap=2)
        assert {k: v.cluster_id for k, v in capped.variants.items()} == {
            k: v.cluster_id for k, v in again.variants.items()
        }


class TestMergeClusters:
    def test_singletons_unchanged(self):
        ds = misspelled_dataset(seed=7, misspell_rate=0.0)
        clustered = cluster_crs(ds, ClusterConfig(threshold=1.0, use_volume=True))
        merged = merge_clusters(clustered)
        assert {k: v.ncr for k, v in merged.variants.items()} == {
            k: v.ncr for k, v in clustered.variants.items()
        }

    def test_ncr_sums_and_representative(self):
        a = CitedReference(raw="SMITH J, 1990, NATURE", author="SMITH J", rpy=1990, source="NATURE")
        b = CitedReference(raw="SMYTH J, 1990, NATURE", author="SMYTH J", rpy=1990, source="NATURE")
        ds = aggregate(
            [Occurrence(a, 2000)] * 5 + [Occurrence(b, 2001)] * 3
        )
        clustered = cluster_crs(ds, ClusterConfig(threshold=0.75))
        merged = merge_clusters(clustered)
        assert len(merged.variants) == 1
        v = next(iter(merged.variants.values()))
        assert v.ncr == 8
        assert v.key == "SMITH J, 1990, NATURE"
        assert v.n_py_years == 2  # pooled citing years across members

    def test_total_ncr_conserved(self):
        ds = misspelled_dataset(seed=8)
        clustered = cluster_crs(ds, ClusterConfig(threshold=0.75, use_volume=True, use_page=True))
        merged = merge_clusters(clustered)
        assert merged.sum_ncr() == clustered.sum_ncr()
        assert merged.n_cr_total == ds.n_cr_total


class TestRemoveCr:
    def dataset(self, counts=(50, 100, 150)):
        occs = []
        for i, n in enumerate(counts):
            r = CitedReference(raw=f"WORK {i}, 1990, J", author=f"WORK {i}", rpy=1990, source="J")
            occs.extend([Occurrence(r, 2000)] * n)
        return aggregate(occs)

    def test_drops_inclusive_range(self):
        out = remove_cr(self.dataset(), 0, 99)
        assert sorted(v.ncr for v in out.variants.values()) == [100, 150]
        assert out.n_cr_total == 300

    def test_zero_zero_is_noop(self):
        ds = self.dataset()
        out = remove_cr(ds, 0, 0)
        assert set(out.variants) == set(ds.variants)

    def test_full_range_empties_table(self):
        ds = self.dataset()
        out = remove_cr(ds, 0, max(v.ncr for v in ds.variants.values()))
        assert out.variants == {}
