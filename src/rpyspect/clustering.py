"""Grouping of CR variants that denote the same cited work.

Candidate pairs are blocked by reference publication year (variants from
different years never cluster), compared with a normalized Levenshtein
similarity over "author, source", and gated by volume/page/DOI equality
where enabled. A union-find over accepted pairs yields the clusters;
merging collapses each cluster onto its highest-NCR member.

The pair loop rests on three exact devices; none changes a cluster.

- Distance limits. ``limits[L]`` is the largest distance ``d`` with
  ``1 - d / L >= threshold``, by that float expression (``_distance_limits``),
  so the pair loop compares integers and no pair flips at the boundary.
  Rows go shortest name first, so the later name is the longer and its
  length indexes the table; the union-find's components do not depend on
  the visiting order, and a cluster's id stays its smallest canonical index.
- Bag bound. Each pair is tested first against its bag distance
  (Bartolini, Ciaccia & Patella, "String matching with metric trees using
  an approximate distance", SPIRE 2002): the larger of the two multiset
  differences of the names' characters, which is the longer length less
  the multiset intersection: one AND and one ``bit_count`` per pair, on
  bags built in one pass over the block (``_bags``). One edit shrinks
  each difference by at most one, so the bag distance never exceeds the
  edit distance: a pair whose bag distance exceeds the limit fails.
- Trimmed edit distance. The edit distance drops the common prefix
  and suffix, then runs the bit-parallel algorithm of Myers (JACM 1999)
  in Hyyrö's (2001) formulation, one whole DP column per character of the
  longer middle. Most accepted pairs differ in a character or two, so
  their middles are short or empty.
"""

from __future__ import annotations

from collections import Counter

from .errors import DomainError
from .model import CitedReference, CRVariant, Dataset
from .structs import Frozen

# RPY blocks larger than this are sub-blocked by the author's first
# character to keep the quadratic pair scan tractable: names with
# different initials never cluster there (README "Clustering").
DEFAULT_BLOCK_CAP = 20000


class ClusterConfig(Frozen):
    __slots__ = ("threshold", "use_volume", "use_page", "use_doi")
    _defaults = {"use_volume": False, "use_page": False, "use_doi": False}

    threshold: float
    use_volume: bool
    use_page: bool
    use_doi: bool

    def _validate(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise DomainError(f"threshold {self.threshold} outside [0, 1]")


def levenshtein(a: str, b: str) -> int:
    """Edit distance by the Myers/Hyyrö bit-parallel algorithm.

    The common prefix and suffix are stripped first: an optimal alignment
    can match them character for character, so the distance is that of
    the two middles, and an empty middle leaves the other's length.

    The shorter middle is the pattern: bit ``i`` of ``peq[c]`` is set when
    its ``i``-th character is ``c``. Each character of the longer middle
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
    end = min(len(a), len(b))
    start = 0
    while start < end and a[start] == b[start]:
        start += 1
    # The suffix may not reach into the prefix: "aa" against "a" keeps
    # one "a" in the longer middle.
    end -= start
    tail = 0
    while tail < end and a[-1 - tail] == b[-1 - tail]:
        tail += 1
    a = a[start : len(a) - tail]
    b = b[start : len(b) - tail]
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

    for members in blocks.values():
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

    ``runs[c][k]`` masks the first ``k`` copies of character ``c``, one
    bit per copy; a name holding more copies than any earlier name extends
    the run with fresh bits. A bag is the OR of ``runs[c][k]`` over its
    name's character counts, so ``(a & b).bit_count()`` is the multiset
    intersection of bags ``a`` and ``b``.
    """
    runs: dict[str, list[int]] = {}
    fresh = 1
    bags = []
    for name in names:
        bag = 0
        for c, k in Counter(name).items():
            run = runs.setdefault(c, [0])
            while len(run) <= k:
                run.append(run[-1] | fresh)
                fresh <<= 1
            bag |= run[k]
        bags.append(bag)
    return bags


def _distance_limits(threshold: float, longest: int) -> list[int]:
    """``limits[n]``, ``n <= longest``: the largest ``d`` with ``1.0 - d / n
    >= threshold``, by that exact expression; ``limits[0] = 0``. A pass at
    ``d`` implies one at ``d - 1`` and at ``n + 1`` (float division and
    subtraction are monotone), so one rising ``d`` fills the table."""
    limits = [0]
    d = 0
    for n in range(1, longest + 1):
        while 1.0 - (d + 1) / n >= threshold:
            d += 1
        limits.append(d)
    return limits


def _cluster_block(
    ordered: list[CRVariant], group: list[int], config: ClusterConfig, uf: _UnionFind
) -> None:
    # Keys are unique in a dataset, so no two variants here share one and
    # their names alone decide. Members are visited shortest name first
    # (ties in canonical order), so in each row the later name is the
    # longer one. Per-position lists: no dict lookups.
    named = sorted(
        ((_name_string(ordered[idx].reference), idx) for idx in group),
        key=lambda item: len(item[0]),
    )
    names = [name for name, _ in named]
    group = [idx for _, idx in named]
    refs = [ordered[idx].reference for idx in group]
    lens = [len(s) for s in names]
    bags = _bags(names)
    limits = _distance_limits(config.threshold, lens[-1])
    find = uf.find
    n = len(group)
    # Cheapest test first. Each test is pure or skips only a union that
    # would change nothing, so the clusters do not depend on the order.
    for p in range(n):
        i, ref_i, name_i, bag_i = group[p], refs[p], names[p], bags[p]
        for q in range(p + 1, n):
            # The bag distance max(|A-B|, |B-A|) is the longer length less
            # the intersection, and it bounds the edit distance from below,
            # so a pair whose bag distance exceeds the limit would fail the
            # edit distance too.
            len_j = lens[q]
            if len_j - (bag_i & bags[q]).bit_count() > limits[len_j]:
                continue
            j = group[q]
            if find(i) == find(j):
                continue
            if not compatible(ref_i, refs[q], config):
                continue
            if levenshtein(name_i, names[q]) <= limits[len_j]:
                uf.union(i, j)


def merge_clusters(dataset: Dataset) -> Dataset:
    """Collapse each cluster onto one variant: NCR summed, representative
    = highest-NCR member (ties: lexicographically smallest key), citing
    years pooled when tracked (the OR of the members' masks, else the
    members' max count). Variants without a cluster id pass through as
    singletons. Each step is order-free, so the input is grouped as it
    stands and the output is not in canonical order."""
    groups: dict[object, list[CRVariant]] = {}
    for v in dataset.variants.values():
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
