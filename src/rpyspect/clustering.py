"""Grouping of CR variants that denote the same cited work.

Candidate pairs are blocked by reference publication year (variants from
different years never cluster), compared with a normalized Levenshtein
similarity over "author, source", and gated by volume/page/DOI equality
where enabled. A union-find over accepted pairs yields the clusters;
merging collapses each cluster onto its highest-NCR member.

The edit distance is computed with the bit-parallel algorithm of Myers
(JACM 1999) in Hyyrö's (2001) formulation for edit distance, which
processes one whole DP column per character of the longer string.

Before the edit distance, each pair is tested against its bag distance
(Bartolini, Ciaccia & Patella, "String matching with metric trees using
an approximate distance", SPIRE 2002): the larger of the two multiset
differences of the names' characters. One edit shrinks each difference
by at most one, so the bag distance never exceeds the edit distance, and
it is at least the length gap. The similarity ``1 - d / longest`` cannot
rise as ``d`` grows (float division and subtraction are monotone), so a
pair whose similarity misses the threshold with the bag distance in
place of ``d`` misses it with the edit distance too: the filter skips no
pair that clusters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import DomainError
from .model import CitedReference, CRVariant, Dataset

# RPY blocks larger than this are sub-blocked by the author's first
# character to keep the quadratic pair scan tractable (documented
# fidelity/performance trade).
DEFAULT_BLOCK_CAP = 20000


@dataclass(frozen=True)
class ClusterConfig:
    threshold: float
    use_volume: bool = False
    use_page: bool = False
    use_doi: bool = False

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise DomainError(f"threshold {self.threshold} outside [0, 1]")


def levenshtein(a: str, b: str) -> int:
    """Edit distance by the Myers/Hyyrö bit-parallel algorithm.

    The shorter string is the pattern: bit ``i`` of ``peq[c]`` is set when
    its ``i``-th character is ``c``. Each character of the longer string
    then updates one DP column at once, held as bit-vectors of the
    vertical +1/-1 deltas (``pv``/``mv``); the score tracks the last row.
    Python ints are unbounded, so any pattern length fits one "word".
    (G. Myers, "A fast bit-vector algorithm for approximate string
    matching based on dynamic programming", JACM 1999; H. Hyyrö,
    "Explaining and extending the bit-parallel approximate string
    matching algorithm of Myers", 2001.)
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for c in b:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # The top row of the DP grows by one per text character, so a +1
        # horizontal delta enters at bit 0.
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def _name_string(ref: CitedReference) -> str:
    # No dangling separator when the source is absent: two references with
    # no characters in common must score 0.
    if ref.source:
        return f"{ref.author}, {ref.source}".lower()
    return ref.author.lower()


def _name_similarity(sa: str, sb: str) -> float:
    """1 - edit distance / longer length; 1.0 for two empty names."""
    longest = max(len(sa), len(sb))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(sa, sb) / longest


def compatible(a: CitedReference, b: CitedReference, config: ClusterConfig) -> bool:
    """Field gate for clustering: same (present) RPY, and each enabled
    field equal whenever both sides carry it. An absent field never
    blocks."""
    if a.rpy is None or b.rpy is None or a.rpy != b.rpy:
        return False
    checks = (
        (config.use_volume, a.volume, b.volume),
        (config.use_page, a.page, b.page),
        (config.use_doi, a.doi, b.doi),
    )
    for enabled, fa, fb in checks:
        if enabled and fa is not None and fb is not None and fa != fb:
            return False
    return True


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Smaller index wins so cluster ids are canonical.
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def cluster_crs(dataset: Dataset, config: ClusterConfig) -> Dataset:
    """Assign cluster ids: union-find within each RPY block over pairs
    that pass the field gate and reach the similarity threshold.

    Deterministic and insertion-order independent: variants are indexed in
    canonical (rpy, key) order and a cluster's id is its smallest member
    index. Variants without an RPY are always singletons.
    """
    ordered = dataset.sorted_variants()
    uf = _UnionFind(len(ordered))

    blocks: dict[int, list[int]] = {}
    for idx, v in enumerate(ordered):
        if v.rpy is not None:
            blocks.setdefault(v.rpy, []).append(idx)

    for rpy in sorted(blocks):
        members = blocks[rpy]
        if len(members) > DEFAULT_BLOCK_CAP:
            sub: dict[str, list[int]] = {}
            for idx in members:
                sub.setdefault(ordered[idx].reference.author[:1], []).append(idx)
            groups = [sub[k] for k in sorted(sub)]
        else:
            groups = [members]
        for group in groups:
            _cluster_block(ordered, group, config, uf)

    clustered = [
        CRVariant(v.key, v.reference, v.ncr, uf.find(idx), v.n_py_years, v.py_years)
        for idx, v in enumerate(ordered)
    ]
    note = (
        f"cluster threshold={config.threshold}"
        f" volume={'true' if config.use_volume else 'false'}"
        f" page={'true' if config.use_page else 'false'}"
        f" doi={'true' if config.use_doi else 'false'}"
    )
    return dataset.with_variants(clustered, note)


def _bags(names: list[str]) -> list[int]:
    """Each name's character multiset as an int, for the bag distance.

    Every character gets a run of bits, at its own offset, as long as its
    largest count in any of ``names``; a name holding it ``k`` times sets
    the first ``k`` bits of the run. For two bags ``a`` and ``b``,
    ``(a & ~b).bit_count()`` is then the size of the multiset difference.
    """
    counts = [Counter(s) for s in names]
    width: Counter[str] = Counter()
    for count in counts:
        width |= count  # per character, the largest count
    offset: dict[str, int] = {}
    end = 0
    for c, w in width.items():
        offset[c] = end
        end += w
    return [
        sum(((1 << k) - 1) << offset[c] for c, k in count.items())
        for count in counts
    ]


def _cluster_block(
    ordered: list[CRVariant], group: list[int], config: ClusterConfig, uf: _UnionFind
) -> None:
    # Keys are unique in a dataset, so no two variants here share one and
    # their names alone decide. Per-position lists: no dict lookups.
    refs = [ordered[idx].reference for idx in group]
    names = [_name_string(r) for r in refs]
    lens = [len(s) for s in names]
    bags = _bags(names)
    threshold = config.threshold
    find = uf.find
    n = len(group)
    # Cheapest test first. Each test is pure or skips only a union that
    # would change nothing, so the clusters do not depend on the order.
    for p in range(n):
        i, ref_i, name_i, len_i, bag_i = group[p], refs[p], names[p], lens[p], bags[p]
        for q in range(p + 1, n):
            # The bag distance bounds the edit distance from below, so the
            # gate's own expression with it in place of the distance skips
            # only pairs the edit distance would reject too. A bound of 0
            # never fails the gate (threshold <= 1). Conditional
            # expressions, not max(): this test runs on every pair.
            bag_j = bags[q]
            a = (bag_i & ~bag_j).bit_count()
            b = (bag_j & ~bag_i).bit_count()
            lower = a if a > b else b
            if lower:
                len_j = lens[q]
                if 1.0 - lower / (len_i if len_i > len_j else len_j) < threshold:
                    continue
            j = group[q]
            if find(i) == find(j):
                continue
            if not compatible(ref_i, refs[q], config):
                continue
            if _name_similarity(name_i, names[q]) >= threshold:
                uf.union(i, j)


def merge_clusters(dataset: Dataset) -> Dataset:
    """Collapse each cluster onto one variant: NCR summed, representative
    = highest-NCR member (ties: lexicographically smallest key), citing
    years pooled when tracked (the OR of the members' masks, else the
    members' max count). Variants without a cluster id pass through as
    singletons."""
    groups: dict[object, list[CRVariant]] = {}
    for v in dataset.sorted_variants():
        gid = v.cluster_id if v.cluster_id is not None else ("solo", v.key)
        groups.setdefault(gid, []).append(v)

    merged: list[CRVariant] = []
    for members in groups.values():
        if len(members) == 1:
            merged.append(members[0])
            continue
        rep = min(members, key=lambda v: (-v.ncr, v.key))
        total = sum(v.ncr for v in members)
        if all(v.py_years is not None for v in members):
            years = 0
            for v in members:
                years |= v.py_years
            n_years = years.bit_count()
        else:
            years = None
            n_years = max(v.n_py_years for v in members)
        merged.append(
            CRVariant(rep.key, rep.reference, total, rep.cluster_id, n_years, years)
        )
    return dataset.with_variants(merged, "merge")


def remove_cr(dataset: Dataset, lo: int, hi: int) -> Dataset:
    """Drop every variant with lo <= ncr <= hi (inclusive). n_cr_total is
    untouched: it records the pre-removal import total."""
    if lo > hi:
        raise DomainError(f"removeCR range lo > hi: [{lo}, {hi}]")
    kept = [v for v in dataset.variants.values() if not lo <= v.ncr <= hi]
    return dataset.with_variants(kept, f"removeCR [{lo},{hi}]")
