from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from rpyspect import clustering
from rpyspect.clustering import (
    ClusterConfig,
    _bags,
    _name_similarity,
    _name_string,
    cluster_crs,
    compatible,
    levenshtein,
    merge_clusters,
    remove_cr,
)
from rpyspect.model import (
    YEAR_BITS,
    CitedReference,
    CRVariant,
    Dataset,
    aggregate,
    normalize_key,
    parse_key,
)

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


def oracle_similarity(a: CitedReference, b: CitedReference) -> float:
    """The oracles' similarity rule: 1.0 for equal keys, otherwise 1 minus
    the textbook edit distance of the names over the longer length."""
    if a.key == b.key:
        return 1.0
    sa, sb = _name_string(a), _name_string(b)
    longest = max(len(sa), len(sb))
    if longest == 0:
        return 1.0
    return 1.0 - textbook_levenshtein(sa, sb) / longest


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
        a = parse_key("STUIVER M, 1993, RADIOCARBON, V35, P215")
        assert _name_similarity(_name_string(a), _name_string(a)) == 1.0

    def test_disjoint_characters(self):
        a = ref("AAAA", source="")
        b = ref("BBBB", source="")
        assert _name_similarity(_name_string(a), _name_string(b)) == 0.0

    def test_matches_textbook_oracle(self):
        a = parse_key("ROPELEWSKI CF, 1987, MON WEATHER REV, V115, P1606")
        b = parse_key("ROPELEWSKI C, 1987, MON WEA REV, V115, P1606")
        sa = f"{a.author}, {a.source}".lower()
        sb = f"{b.author}, {b.source}".lower()
        expected = 1.0 - textbook_levenshtein(sa, sb) / max(len(sa), len(sb))
        assert _name_similarity(_name_string(a), _name_string(b)) == pytest.approx(
            expected, abs=1e-12
        )

    @given(st.text(alphabet="abcd ", max_size=12), st.text(alphabet="abcd ", max_size=12))
    def test_symmetric(self, s, t):
        assert _name_similarity(s, t) == _name_similarity(t, s)


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


def bag_bound(a: str, b: str, *others: str) -> int:
    """The block loop's bound for ``a`` and ``b``, on the bags built for a
    block that also holds ``others``."""
    x, y = _bags([a, b, *others])[:2]
    return max((x & ~y).bit_count(), (y & ~x).bit_count())


class TestBagBound:
    @given(KERNEL_TEXT, KERNEL_TEXT, KERNEL_TEXT)
    def test_is_the_multiset_bag_distance_and_bounds_levenshtein(self, a, b, other):
        ca, cb = Counter(a), Counter(b)
        bag_distance = max(sum((ca - cb).values()), sum((cb - ca).values()))
        # A third name of the block widens the runs; the bound must not move.
        assert bag_bound(a, b) == bag_bound(a, b, other) == bag_distance
        assert bag_distance <= textbook_levenshtein(a, b)

    def test_non_ascii_character(self):
        # "é" and "e" are different characters: one substitution.
        assert bag_bound("café", "cafe") == 1 == textbook_levenshtein("café", "cafe")

    def test_character_repeated_more_in_one_name(self):
        # "a" three times against once: two extra "a"s, one extra "b".
        assert bag_bound("aaab", "abbc", "aaaaa") == 2
        assert textbook_levenshtein("aaab", "abbc") == 3


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
            if compatible(a, b, config) and oracle_similarity(a, b) >= config.threshold:
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
    occs = [(normalize_key(raw), py) for raw, py in corpus.occurrences()]
    return aggregate(occs)


NAME_TEXT = st.text(alphabet="abé ", max_size=8)


@st.composite
def small_blocks(draw):
    """1-25 variants in one or two RPY blocks, with names over a small
    alphabet so that many pairs sit near any threshold."""
    rpys = draw(st.lists(st.integers(1990, 1991), min_size=1, max_size=2, unique=True))
    variants = []
    for idx in range(draw(st.integers(1, 25))):
        author = draw(NAME_TEXT)
        rpy = draw(st.sampled_from(rpys))
        source = draw(NAME_TEXT)
        key = f"{idx} {author}, {rpy}, {source}"
        reference = CitedReference(
            raw=key,
            author=author,
            rpy=rpy,
            source=source,
            volume=draw(st.sampled_from([None, "1", "2"])),
        )
        variants.append(CRVariant(key=reference.key, reference=reference, ncr=1))
    return Dataset(variants={v.key: v for v in variants})


THRESHOLDS = st.sampled_from([0.0, 0.5, 2 / 3, 0.75, 0.8, 1.0]) | st.floats(0.0, 1.0)


class TestClusterCrs:
    @settings(max_examples=200, deadline=None)
    @given(small_blocks(), THRESHOLDS, st.booleans())
    def test_block_loop_matches_all_pairs_oracle(self, ds, threshold, use_volume):
        config = ClusterConfig(threshold=threshold, use_volume=use_volume)
        assert clusters_of(cluster_crs(ds, config)) == brute_force_partition(ds, config)

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

    def test_oversize_blocks_fall_back_to_author_subblocks(self, monkeypatch):
        # With the cap forced below the block size, only same-first-letter
        # pairs may cluster; the result stays deterministic.
        monkeypatch.setattr(clustering, "DEFAULT_BLOCK_CAP", 2)
        config = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        ds = misspelled_dataset(seed=12)
        capped = cluster_crs(ds, config)
        for group in clusters_of(capped):
            initials = {ds.variants[k].reference.author[:1] for k in group}
            assert len(initials) == 1
        again = cluster_crs(ds, config)
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
        ds = aggregate(
            [("SMITH J, 1990, NATURE", 2000)] * 5
            + [("SMYTH J, 1990, NATURE", 2001)] * 3
        )
        clustered = cluster_crs(ds, ClusterConfig(threshold=0.75))
        merged = merge_clusters(clustered)
        assert len(merged.variants) == 1
        v = next(iter(merged.variants.values()))
        assert v.ncr == 8
        assert v.key == "SMITH J, 1990, NATURE"
        assert v.n_py_years == 2  # pooled citing years across members

    def test_citing_year_masks_are_ored(self):
        ds = aggregate(
            [("SMITH J, 1990, NATURE", py) for py in (2000, 2001, 2001, None)]
            + [("SMYTH J, 1990, NATURE", py) for py in (2001, 2003)]
        )
        merged = merge_clusters(cluster_crs(ds, ClusterConfig(threshold=0.75)))
        (v,) = merged.variants.values()
        assert v.py_years == YEAR_BITS[2000] | YEAR_BITS[2001] | YEAR_BITS[2003]
        assert v.n_py_years == v.py_years.bit_count() == 3
        assert (v.key, v.ncr) == ("SMITH J, 1990, NATURE", 6)

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
            occs.extend([(f"WORK {i}, 1990, J", 2000)] * n)
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
