from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from corpus import Corpus, make_corpus  # noqa: E402
from rpyspect.model import fold  # noqa: E402


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    """The standard fixture: 200 records, 25 CRs each (5,000 CRs)."""
    return make_corpus(seed=11)


@pytest.fixture(scope="session")
def corpus_file(corpus, tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    corpus.write(path)
    return path


def dataset_fields(dataset):
    """The CRE-persisted fields of a dataset, for round-trip comparison."""
    rows = []
    for v in dataset.sorted_variants():
        r = v.reference
        rows.append(
            (v.key, r.author, r.rpy, r.source, r.volume, r.page, r.doi,
             v.ncr, v.cluster_id, v.n_py_years)
        )
    return {
        "rows": rows,
        "n_citing": dataset.n_citing,
        "n_cr_total": dataset.n_cr_total,
        "provenance": dataset.provenance,
    }


def rows(tables):
    """A sampler's ``LineTables`` as (line, count, mask) rows, in table
    order, so that a comparison pins the order of first occurrence too."""
    counts, masks = tables
    return [(line, n, masks[line]) for line, n in counts.items()]


def select(sampler, occurrences):
    """What ``sampler`` keeps of ``occurrences``, as ``rows``, offered as
    ``wos.import_file`` offers them: one ``(line, py)`` at a time. It stops
    once the sampler wants no more; a full sampler ignores further offers,
    so this keeps what the import keeps, which stops after the record."""
    for line, py in occurrences:
        sampler.offer(line, py)
        if not sampler.wants_more():
            break
    return rows(sampler.result())


def folded(occurrences):
    """The ``rows`` of a sampler that kept exactly ``occurrences``."""
    return rows(fold(occurrences))
