from __future__ import annotations

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rpyspect import clustering
from rpyspect.clustering import (
    ClusterConfig,
    _bags,
    _distance_limits,
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
)
from rpyspect.formats import cre_bytes
from rpyspect.wos import ImportFilter, import_file

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
    if a.raw == b.raw:
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


FIXED_THRESHOLDS = [
    0.0, 0.1, 0.3, 1 / 3, 0.5, 2 / 3, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 1.0
]


def assert_limits_match_gate(threshold, longest):
    # d <= limits[n] exactly when the gate's own expression passes at d;
    # two empty names are at distance 0.
    limits = _distance_limits(threshold, longest)
    assert len(limits) == longest + 1 and limits[0] == 0
    for n in range(1, longest + 1):
        for d in range(n + 1):
            assert (d <= limits[n]) == (1.0 - d / n >= threshold), (threshold, n, d)


class TestDistanceLimits:
    @pytest.mark.parametrize("threshold", FIXED_THRESHOLDS)
    def test_limits_match_gate_exhaustively(self, threshold):
        assert_limits_match_gate(threshold, 300)

    @given(st.floats(0.0, 1.0), st.integers(0, 80))
    def test_limits_match_gate_at_any_threshold(self, threshold, longest):
        assert_limits_match_gate(threshold, longest)

    @pytest.mark.parametrize("threshold", FIXED_THRESHOLDS)
    def test_disjoint_names_pass_only_at_threshold_zero(self, threshold):
        # Names of one length with no character in common are at distance n.
        limits = _distance_limits(threshold, 40)
        full = [n for n in range(1, 41) if limits[n] == n]
        assert full == (list(range(1, 41)) if threshold == 0.0 else [])

    def test_threshold_one_admits_only_equal_names(self):
        assert _distance_limits(1.0, 300) == [0] * 301


# Lengths drawn uniformly up to 150, so patterns longer than one 64-bit
# machine word (and the empty string) are as likely as short ones.
KERNEL_TEXT = st.integers(0, 150).flatmap(
    lambda n: st.text(alphabet="abé ", min_size=n, max_size=n)
)


# A long shared prefix and suffix around short middles: the shape of the
# accepted pairs (a truncated initial, one dropped character, an appended
# " j"), which KERNEL_TEXT rarely draws.
AFFIX = st.text(alphabet="abé ", max_size=70)
MIDDLE = st.text(alphabet="abé ", max_size=4)


class TestLevenshtein:
    @given(KERNEL_TEXT, KERNEL_TEXT)
    def test_matches_textbook_and_is_symmetric(self, a, b):
        assert levenshtein(a, b) == textbook_levenshtein(a, b)
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(AFFIX, MIDDLE, MIDDLE, AFFIX)
    def test_shared_prefix_and_suffix(self, prefix, a, b, suffix):
        x, y = prefix + a + suffix, prefix + b + suffix
        assert levenshtein(x, y) == textbook_levenshtein(x, y) == levenshtein(y, x)

    @pytest.mark.parametrize(
        "a, b, d",
        [("aa", "a", 1), ("aba", "aa", 1), ("abab", "ab", 2), ("smith j", "smith j j", 2)],
    )
    def test_prefix_and_suffix_overlap(self, a, b, d):
        # The common prefix and suffix of these pairs overlap in the
        # shorter string; trimming both in full would over-count.
        assert levenshtein(a, b) == levenshtein(b, a) == textbook_levenshtein(a, b) == d


def bag_bound(a: str, b: str, *others: str) -> int:
    """The block loop's bound for ``a`` and ``b``: the longer length less
    the intersection of the bags built for a block that also holds
    ``others``."""
    x, y = _bags([a, b, *others])[:2]
    return max(len(a), len(b)) - (x & y).bit_count()


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


def brute_force_partition(dataset, config, block_cap=None):
    """O(N^2) union-find oracle over all variant pairs, no blocking. With
    ``block_cap``, a pair in an RPY block of more than that many variants
    must also share the author's first character."""
    variants = dataset.sorted_variants()
    parent = list(range(len(variants)))
    block_sizes = Counter(v.rpy for v in variants)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(variants)):
        for j in range(i + 1, len(variants)):
            a, b = variants[i].reference, variants[j].reference
            if (
                block_cap is not None
                and block_sizes[a.rpy] > block_cap
                and a.author[:1] != b.author[:1]
            ):
                continue
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
# 0-19 characters for an author or a source, so names run from 0 to 40
# characters: one of a few stems drawn per example, cut short and given
# up to three new characters. Lengths spread widely, so many pairs fail
# on the length gap alone, and names cut from one stem still sit near the
# thresholds.
STEMS = st.shared(
    st.lists(st.text(alphabet="abé ", max_size=19), min_size=1, max_size=3), key="stems"
)
STEMMED_TEXT = st.builds(
    lambda stem, cut, tail: (stem[:cut] + tail)[:19],
    STEMS.flatmap(st.sampled_from),
    st.integers(0, 19),
    st.text(alphabet="abé ", max_size=3),
)


@st.composite
def small_blocks(draw, name_text=NAME_TEXT):
    """1-25 variants in one or two RPY blocks, with names over a small
    alphabet so that many pairs sit near any threshold."""
    rpys = draw(st.lists(st.integers(1990, 1991), min_size=1, max_size=2, unique=True))
    variants = []
    for idx in range(draw(st.integers(1, 25))):
        author = draw(name_text)
        rpy = draw(st.sampled_from(rpys))
        source = draw(name_text)
        key = f"{idx} {author}, {rpy}, {source}"
        reference = CitedReference(
            raw=key,
            author=author,
            rpy=rpy,
            source=source,
            volume=draw(st.sampled_from([None, "1", "2"])),
        )
        variants.append(CRVariant(key=reference.raw, reference=reference, ncr=1))
    return Dataset(variants={v.key: v for v in variants})


THRESHOLDS = st.sampled_from([0.0, 0.5, 2 / 3, 0.75, 0.8, 1.0]) | st.floats(0.0, 1.0)
# Thresholds a length gap can meet exactly or miss by one rounding step:
# 1 - 1/4 == 0.75, and 1 - 1/3 rounds just above 2/3.
BOUNDARY_THRESHOLDS = st.sampled_from([0.5, 0.6, 2 / 3, 0.75, 0.8, 0.9])


class TestClusterCrs:
    @settings(max_examples=200, deadline=None)
    @given(small_blocks(), THRESHOLDS, st.booleans())
    def test_block_loop_matches_all_pairs_oracle(self, ds, threshold, use_volume):
        config = ClusterConfig(threshold=threshold, use_volume=use_volume)
        assert clusters_of(cluster_crs(ds, config)) == brute_force_partition(ds, config)

    @settings(max_examples=200, deadline=None)
    @given(small_blocks(STEMMED_TEXT), BOUNDARY_THRESHOLDS, st.booleans())
    def test_rows_ending_early_match_all_pairs_oracle(self, ds, threshold, use_volume):
        config = ClusterConfig(threshold=threshold, use_volume=use_volume)
        assert clusters_of(cluster_crs(ds, config)) == brute_force_partition(ds, config)

    @settings(max_examples=100, deadline=None)
    @given(small_blocks(STEMMED_TEXT), BOUNDARY_THRESHOLDS)
    def test_rows_in_author_subblocks_match_oracle(self, ds, threshold):
        # With the cap forced to 2, every block of three or more variants
        # is swept one author initial at a time.
        config = ClusterConfig(threshold=threshold)
        with mock.patch.object(clustering, "DEFAULT_BLOCK_CAP", 2):
            got = clusters_of(cluster_crs(ds, config))
        assert got == brute_force_partition(ds, config, block_cap=2)

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

    def test_input_order_invariant(self):
        # Beside TestClusterCrs.test_insertion_order_invariant: merge groups
        # the variants as they stand, so any order gives the same result.
        config = ClusterConfig(threshold=0.75, use_volume=True, use_page=True)
        clustered = cluster_crs(misspelled_dataset(seed=9), config)
        items = list(clustered.variants.values())
        random.Random(0).shuffle(items)
        shuffled = clustered.replace(variants={v.key: v for v in items})
        a, b = merge_clusters(clustered), merge_clusters(shuffled)
        assert len(a.variants) < len(clustered.variants)
        assert a == b
        assert cre_bytes(a) == cre_bytes(b)

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


def pair_accuracy(dataset, work_of):
    """Pairwise precision and recall of ``dataset``'s clusters against the
    works: over every pair of variants within one RPY block, a pair is
    joined when the two share a cluster id and true when their keys are
    forms of one work."""
    blocks = {}
    for v in dataset.variants.values():
        blocks.setdefault(v.rpy, []).append(v)
    joined_true = joined_false = split_true = 0
    for block in blocks.values():
        for a, b in itertools.combinations(block, 2):
            joined = a.cluster_id == b.cluster_id
            true = work_of[a.key] == work_of[b.key]
            joined_true += joined and true
            joined_false += joined and not true
            split_true += true and not joined
    return (
        joined_true / (joined_true + joined_false),
        joined_true / (joined_true + split_true),
    )


class TestAccuracyAgainstWorks:
    """Clustering against the corpus's truth on the population_dense
    corpus, imported with Listing 1's filters (1,254 variants). The floors
    are the values measured at seed 0 and hold for that seed only: seeds
    1 and 2 give precision 0.904 and 0.893 at 0.75 with volume and page.
    A clustering change that lowers a value below its floor must say so."""

    @pytest.fixture(scope="class")
    def population(self, tmp_path_factory):
        corpus = make_corpus(
            seed=0, n_records=1000, crs_per_record=25, n_works=460, misspell_rate=0.5
        )
        work_of = {}
        for work, forms in enumerate(corpus.forms):
            for form in forms:
                key = normalize_key(form)
                assert work_of.setdefault(key, work) == work, f"{key!r} is a form of two works"
        path = tmp_path_factory.mktemp("accuracy") / "corpus.txt"
        corpus.write(path)
        listing1 = ImportFilter(rpy_range=(1970, 2010, False), py_range=(1980, 2014, False))
        return import_file(path, listing1), work_of

    @pytest.mark.parametrize(
        "config, min_precision, min_recall",
        [
            # 87 false pairs: a variant without volume and page joins another
            # work of a similar name, because a missing field never blocks.
            (ClusterConfig(threshold=0.75, use_volume=True, use_page=True), 0.92, 1.0),
            (ClusterConfig(threshold=0.75), 0.74, 1.0),
            (ClusterConfig(threshold=0.90, use_volume=True, use_page=True), 1.0, 0.91),
        ],
        ids=["0.75-volume-page", "0.75-names-only", "0.90-volume-page"],
    )
    def test_floors(self, population, config, min_precision, min_recall):
        dataset, work_of = population
        assert len(dataset.variants) == 1254
        precision, recall = pair_accuracy(cluster_crs(dataset, config), work_of)
        assert precision >= min_precision
        assert recall >= min_recall
