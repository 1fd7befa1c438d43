from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from rpyspect.model import (
    YEAR_BITS,
    YEAR_MIN,
    CitedReference,
    Dataset,
    LineTables,
    aggregate,
    fold,
    normalize_key,
    parse_key,
    parse_year,
)


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
         ("199", None), ("19900", None), ("١٩٩٠", 1990), ("¹⁹⁹⁰", None)],
    )
    def test_year_rule(self, token, year):
        assert parse_year(token) == year
        assert parse_key(f"A, {token}, J").rpy == year


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
        assert YEAR_BITS[2011] == 1 << (2011 - YEAR_MIN) and YEAR_BITS[None] == 0
        assert a.py_years == YEAR_BITS[2011] | YEAR_BITS[1000]
        assert (a.ncr, a.n_py_years) == (3, 2) == (a.ncr, a.py_years.bit_count())
        # An unknown citing year counts as an occurrence, not as a year.
        assert (b.ncr, b.n_py_years, b.py_years) == (1, 0, 0)

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
