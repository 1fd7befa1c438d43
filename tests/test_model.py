from __future__ import annotations

import copy
import pickle
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from rpyspect.clustering import ClusterConfig
from rpyspect.engine import DEFAULT_SETTINGS, Environment
from rpyspect.errors import DomainError
from rpyspect.model import (
    YEAR_BIT0,
    YEAR_BITS,
    YEAR_MAX,
    YEAR_MIN,
    CitedReference,
    CRVariant,
    Dataset,
    LineTables,
    aggregate,
    fold,
    normalize_key,
    parse_key,
    parse_year,
)
from rpyspect.wos import ImportFilter, ParseStats


class TestNormalizeKey:
    def test_collapses_case_and_whitespace(self):
        assert (
            normalize_key("Stuiver M, 1993,  Radiocarbon, V35, P215")
            == "STUIVER M, 1993, RADIOCARBON, V35, P215"
        )

    def test_already_normalized_is_unchanged(self):
        s = "STUIVER M, 1993, RADIOCARBON, V35, P215"
        assert normalize_key(s) == s

    def test_strips_trailing_punctuation(self):
        assert normalize_key("FRITTS HC, 1976, TREE RINGS CLIMATE. ") == (
            "FRITTS HC, 1976, TREE RINGS CLIMATE"
        )

    def test_perturbations_map_to_one_key(self):
        # 500 random-case/random-spacing perturbations of one CR.
        rng = random.Random(42)
        base = "STUIVER M, 1993, RADIOCARBON, V35, P215"
        keys = set()
        for _ in range(500):
            chars = []
            for c in base:
                c = c.lower() if rng.random() < 0.5 else c
                chars.append(c)
                if c == " " and rng.random() < 0.3:
                    chars.append(" " * rng.randint(1, 3))
            perturbed = "".join(chars) + rng.choice(["", " ", ".", ";", ". "])
            keys.add(normalize_key(perturbed))
        assert keys == {base}

    @given(st.text(min_size=1, max_size=60))
    def test_idempotent(self, s):
        once = normalize_key(s)
        assert normalize_key(once) == once


class TestParseKey:
    @pytest.mark.parametrize(
        "token, year",
        [("1000", 1000), ("3000", 3000), ("0999", None), ("3001", None),
         ("199", None), ("19900", None), ("١٩٩٠", None), ("¹⁹⁹⁰", None)],
    )
    def test_year_rule(self, token, year):
        assert parse_year(token) == year
        assert parse_key(f"A, {token}, J").rpy == year

    # A reference copy of the page rule: "P", an alphanumeric, then
    # alphanumerics and hyphens, where alphanumeric means str.isalnum().
    REFERENCE_PAGE = re.compile(r"P[^\W_]+(?:-[^\W_]*)*").fullmatch

    @given(st.text(st.sampled_from("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_-١ß\u0301"), max_size=8))
    @example("")
    @example("1-")
    @example("-1")
    @example("١ß")
    @example("A\u0301")
    @example("A_1")
    def test_page_rule_matches_the_regex(self, rest):
        token = "P" + rest
        ref = parse_key(f"SMITH J, 1990, NATURE, {token}")
        if self.REFERENCE_PAGE(token):
            assert (ref.page, ref.source) == (rest, "NATURE")
        else:
            assert (ref.page, ref.source) == (None, f"NATURE, {token}")


class TestAggregate:
    def test_empty_stream(self):
        ds = aggregate([])
        assert len(ds.variants) == 0
        assert ds.n_cr_total == 0

    def test_counts_and_citing_years(self):
        raw = "STUIVER M, 1993, RADIOCARBON, V35, P215"
        occs = [(raw, py) for py in (2011, 2011, 2012)]
        ds = aggregate(occs)
        assert len(ds.variants) == 1
        v = ds.variants[raw]
        assert v.ncr == 3
        assert v.n_py_years == 2
        assert v.reference == parse_key(raw)

    def test_citing_years_are_a_bitmask(self):
        occs = [("A, 1990, J", 2011), ("a,  1990, J.", 1000), ("A, 1990, J", None),
                ("B, 1991, K", None)]
        ds = aggregate(occs)
        a, b = ds.variants["A, 1990, J"], ds.variants["B, 1991, K"]
        assert YEAR_BITS[2011] == 1 << (2011 - YEAR_BIT0) and YEAR_BITS[None] == 0
        assert a.py_years == YEAR_BITS[2011] | YEAR_BITS[1000]
        assert (a.ncr, a.n_py_years) == (3, 2) == (a.ncr, a.py_years.bit_count())
        # An unknown citing year counts as an occurrence, not as a year.
        assert (b.ncr, b.n_py_years, b.py_years) == (1, 0, 0)

    def test_every_year_has_its_own_bit(self):
        bits = {YEAR_BITS[y] for y in range(YEAR_MIN, YEAR_MAX + 1)}
        assert len(bits) == YEAR_MAX - YEAR_MIN + 1
        assert all(bit.bit_count() == 1 for bit in bits)
        # Years before YEAR_BIT0 wrap to the top of the range.
        assert YEAR_BITS[YEAR_BIT0 - 1] == 1 << (YEAR_MAX - YEAR_MIN)

    def test_recent_citing_years_make_a_small_mask(self):
        mask = 0
        for year in range(1980, 2025):
            mask |= YEAR_BITS[year]
        assert mask.bit_count() == 45
        assert sys.getsizeof(mask) <= 32

    def test_fold_keeps_first_occurrence_order(self):
        occs = [("B", 2001), ("A", 2000), ("B", 2003), ("A", 2000), ("C", None)]
        counts, masks = fold(occs)
        assert list(counts.items()) == [("B", 2), ("A", 2), ("C", 1)]
        assert list(masks.items()) == [
            ("B", YEAR_BITS[2001] | YEAR_BITS[2003]), ("A", YEAR_BITS[2000]), ("C", 0)
        ]

    def test_tables_aggregate_like_their_pairs(self):
        rng = random.Random(9)
        pool = [f"W {i}, {1990 + i % 3}, J" for i in range(12)] + ["w 0,  1990, j."]
        occs = [(rng.choice(pool), rng.choice([None, 1999, 2000, 2005])) for _ in range(300)]
        tables = fold(occs)
        assert isinstance(tables, LineTables)
        from_tables = aggregate(tables, n_citing=7, provenance="p")
        from_pairs = aggregate(occs, n_citing=7, provenance="p")
        assert from_tables == from_pairs
        assert list(from_tables.variants) == list(from_pairs.variants)
        assert from_tables.n_cr_total == 300

    def test_matches_hash_count_oracle(self):
        rng = random.Random(7)
        pool = [f"AUTHOR {chr(65 + i)}, {1970 + i}, SOURCE {i}" for i in range(40)]
        occs = [
            (rng.choice(pool), rng.randint(1980, 2014))
            for _ in range(1000)
        ]
        oracle = Counter(normalize_key(line) for line, _ in occs)
        ds = aggregate(occs)
        assert {k: v.ncr for k, v in ds.variants.items()} == dict(oracle)
        assert ds.n_cr_total == 1000

    # Lines that differ in case, whitespace and trailing punctuation but
    # share keys, so folding by line first has lines to merge.
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["a b, 1990, j", "A  B, 1990, J.", " A B,\t1990, J ", "c, 2000",
                     "C, 2000;", "no year", "NO\u3000YEAR", "d, 1990,x"]
                ),
                st.one_of(st.none(), st.integers(1995, 1998)),
            ),
            max_size=40,
        )
    )
    def test_raw_lines_aggregate_as_their_keys(self, pairs):
        raw = aggregate([(line, py) for line, py in pairs])
        keyed = aggregate([(normalize_key(line), py) for line, py in pairs])
        assert list(raw.variants.items()) == list(keyed.variants.items())
        assert raw.n_cr_total == keyed.n_cr_total == len(pairs)

    def test_order_insensitive_counts(self):
        rng = random.Random(3)
        pool = [f"A {i}, {1990 + i % 5}, J {i % 7}" for i in range(10)]
        occs = [(rng.choice(pool), 2000) for _ in range(200)]
        shuffled = occs[:]
        rng.shuffle(shuffled)
        a = aggregate(occs)
        b = aggregate(shuffled)
        assert {k: v.ncr for k, v in a.variants.items()} == {
            k: v.ncr for k, v in b.variants.items()
        }

    def test_ncr_conservation(self):
        rng = random.Random(5)
        occs = [
            (f"W {rng.randrange(30)}, 2000, J", 2001) for _ in range(777)
        ]
        ds = aggregate(occs)
        assert ds.sum_ncr() == 777


class TestInvariants:
    def test_raw_must_be_non_empty(self):
        with pytest.raises(ValueError):
            CitedReference(raw="")

    def test_rpy_range_enforced(self):
        with pytest.raises(ValueError):
            CitedReference(raw="X", rpy=999)
        with pytest.raises(ValueError):
            CitedReference(raw="X", rpy=3001)

    def test_dataset_defaults_empty(self):
        ds = Dataset()
        assert ds.sum_ncr() == 0
        assert ds.sorted_variants() == []

    def test_sorted_variants_orders_undated_last(self):
        occs = [
            ("B, 1990, X", 2000),
            ("NO YEAR HERE", 2000),
            ("A, 1980, Y", 2000),
        ]
        ds = aggregate(occs)
        keys = [v.key for v in ds.sorted_variants()]
        assert keys == ["A, 1980, Y", "B, 1990, X", "NO YEAR HERE"]


def frozen_records():
    ref = CitedReference("SMITH J, 1990, NATURE", "SMITH J", 1990, "NATURE")
    variant = CRVariant(ref.raw, ref, 3, None, 2, 0b11)
    return [
        ref,
        variant,
        Dataset({variant.key: variant}, 2, 3, "built"),
        ClusterConfig(0.75, use_page=True),
        ImportFilter((1970, 2010, False), (1980, 2014, True), 50, "SYSTEMATIC", 2, 7),
    ]


class TestRecords:
    """The record contract: fields in constructor order, == and hash by
    type and fields, frozen records, and ``replace`` through the
    constructor."""

    def test_positional_fields_keep_their_order(self):
        ref = CitedReference("K, 1990, J", "K", 1990, "J", "1", "2", "3")
        assert (ref.raw, ref.author, ref.rpy, ref.source) == ("K, 1990, J", "K", 1990, "J")
        assert (ref.volume, ref.page, ref.doi) == ("1", "2", "3")
        v = CRVariant("K, 1990, J", ref, 3, 1, 2, 0b11)
        assert (v.key, v.reference, v.ncr, v.cluster_id, v.n_py_years, v.py_years) == (
            "K, 1990, J", ref, 3, 1, 2, 0b11
        )
        filt = ImportFilter((1, 2, True), None, 5, "RANDOM", 1, 9)
        assert (filt.rpy_range, filt.max_cr, filt.sampling_mode, filt.offset, filt.seed) == (
            (1, 2, True), 5, "RANDOM", 1, 9
        )

    def test_defaults(self):
        assert CitedReference("K") == CitedReference("K", "", None, "", None, None, None)
        ref = CitedReference("K")
        assert CRVariant("K", ref, 1) == CRVariant("K", ref, 1, None, 0, None)
        assert ImportFilter() == ImportFilter(None, None, 0, "NONE", 0, 0)
        assert ParseStats() == ParseStats(0, 0, 0)
        assert ClusterConfig(0.5) == ClusterConfig(0.5, False, False, False)
        env = Environment()
        assert env.settings == DEFAULT_SETTINGS and env.settings is not DEFAULT_SETTINGS
        assert (env.dataset, env.tmpdir, env.base_seed, env.iteration, env.verbose) == (
            None, None, 0, None, 0
        )

    def test_mutable_defaults_are_fresh_per_record(self):
        assert Dataset().variants is not Dataset().variants
        assert Environment().population_counts is not Environment().population_counts

    def test_bad_arguments_raise_type_error(self):
        with pytest.raises(TypeError, match="missing"):
            ClusterConfig()
        with pytest.raises(TypeError, match="unexpected"):
            ClusterConfig(0.5, volume=True)
        with pytest.raises(TypeError, match="multiple values"):
            ClusterConfig(0.5, threshold=0.6)
        with pytest.raises(TypeError):
            ParseStats(1, 2, 3, 4)
        with pytest.raises(TypeError):
            Dataset().replace(size=1)

    def test_keyword_construction(self):
        # As bench/test_bench.py's small_dataset builds its records.
        ref = CitedReference(raw="K", author="AUTHOR 0", rpy=1990, source="J")
        v = CRVariant(key="K", reference=ref, ncr=2, n_py_years=1)
        ds = Dataset(variants={"K": v}, n_citing=1, n_cr_total=2)
        assert (ds.variants["K"].rpy, ds.sum_ncr(), ds.provenance) == (1990, 2, "")

    @pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
    def test_frozen_records_reject_assignment(self, record):
        for field in type(record).__slots__:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
            with pytest.raises(AttributeError):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1  # slotted: no attribute outside the fields

    @pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
    def test_equal_copies_hash_equal(self, record):
        for twin in (record.replace(), copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and twin is not record
            if not isinstance(record, Dataset):  # its variants dict is unhashable
                assert hash(twin) == hash(record)

    def test_hot_records_guard_and_copy_every_field(self):
        # Their own __init__s set every field past Frozen's guard: none can
        # be assigned afterwards, and copies are equal field by field.
        ref = CitedReference("K, 1990, J, V1, P2, DOI 3", "K", 1990, "J", "1", "2", "3")
        variant = CRVariant(ref.raw, ref, 3, 7, 2, 0b101)
        for record in (ref, variant):
            for field in type(record).__slots__:
                with pytest.raises(AttributeError):
                    setattr(record, field, getattr(record, field))
            for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert twin == record and twin is not record
                assert [getattr(twin, f) for f in twin.__slots__] == [
                    getattr(record, f) for f in record.__slots__
                ]

    def test_equality_needs_the_same_type(self):
        assert CitedReference("K") != "K"
        assert ParseStats() != ImportFilter()

    @pytest.mark.parametrize("record", [ParseStats(), Environment()])
    def test_mutable_records_are_unhashable(self, record):
        with pytest.raises(TypeError):
            hash(record)

    def test_mutable_records_accept_assignment(self):
        stats = ParseStats()
        stats.n_cr += 2
        assert stats == ParseStats(n_cr=2)

    def test_replace_validates_again(self):
        ref = CitedReference("K")
        v = CRVariant("K", ref, 2, n_py_years=1)
        assert v.replace(cluster_id=4) == CRVariant("K", ref, 2, 4, 1)
        with pytest.raises(ValueError, match="n_py_years must be <= its ncr"):
            v.replace(n_py_years=v.ncr + 1)
        with pytest.raises(ValueError, match="outside"):
            ref.replace(rpy=999)
        with pytest.raises(DomainError, match="threshold 1.5 outside"):
            ClusterConfig(0.5).replace(threshold=1.5)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"rpy_range": (2000, 1999, True)}, "year range lo > hi: (2000, 1999, True)"),
            ({"py_range": (2014, 1980, False)}, "year range lo > hi: (2014, 1980, False)"),
            ({"max_cr": -1}, "max_cr must be >= 0"),
            ({"offset": -1}, "offset must be >= 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"sampling_mode": "RANDOMM"}, "unknown sampling mode 'RANDOMM'"),
            ({"sampling_mode": "CLUSTER"}, "cluster sampling requires a citing-year range"),
        ],
        ids=[
            "rpy_range", "py_range", "max_cr", "offset", "seed", "sampling_mode", "cluster_py_range"
        ],
    )
    def test_import_filter_checks_every_field_when_built(self, changes, message):
        # The samplers do not check these again: the filter is their one gate.
        for build in (lambda: ImportFilter(**changes), lambda: ImportFilter().replace(**changes)):
            with pytest.raises(DomainError) as err:
                build()
            assert str(err.value) == message

    def test_repr_names_every_field(self):
        assert repr(ClusterConfig(0.5, use_doi=True)) == (
            "ClusterConfig(threshold=0.5, use_volume=False, use_page=False, use_doi=True)"
        )
