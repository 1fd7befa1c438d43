"""Sampling strategies over the filtered CR occurrence stream.

The samplers are fed only by ``wos.import_file``, one ``offer(line, py)``
at a time, in file order; it stops reading once ``wants_more()`` is
false. Every sampler is single-pass and retains at most its sample
(CLUSTER: at most the chosen year's occurrences), which is what keeps
huge imports memory-bounded. Randomness comes from ``random.Random``
(MT19937). The reservoir draws its slots from ``getrandbits``, whose
output for a seed CPython keeps stable across versions, and maps the
bits to a slot itself, the way ``randrange`` does: so a RANDOM sample's
reproducibility rests on the MT19937 output, not on ``randrange``'s
mapping, which CPython does not promise to keep. A (seed, stream order)
pair reproduces a sample bit-for-bit on any platform. CLUSTER's citing
year is still drawn with ``randint``.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import DomainError, OffsetTooLargeError

MODES = ("NONE", "RANDOM", "SYSTEMATIC", "CLUSTER")


class Sampler:
    """Streaming selection interface used by the import pipeline.

    The base holds the selection in ``_kept``, a list of (line, py)
    pairs: ``retained`` reports how many it currently holds (the
    memory-contract instrumentation reads it) and ``result`` returns it.
    Each subclass defines ``offer(line, py)``, which feeds one
    occurrence, a CR line and its citing year, and decides what ``_kept``
    holds; it builds the pair only for an occurrence it keeps.
    ``wants_more`` lets the reader stop early once the sample cannot grow.
    """

    mode = "NONE"

    def __init__(self):
        self._kept: list[tuple[str, Optional[int]]] = []

    def offer(self, line: str, py: Optional[int]) -> None:
        raise NotImplementedError

    def wants_more(self) -> bool:
        return True

    def retained(self) -> int:
        return len(self._kept)

    def result(self) -> list[tuple[str, Optional[int]]]:
        return self._kept


class NoneSampler(Sampler):
    """Identity selection, optionally truncated to the first ``limit``
    occurrences (limit 0 = unlimited)."""

    mode = "NONE"

    def __init__(self, limit: int = 0):
        if limit < 0:
            raise DomainError("limit must be >= 0")
        super().__init__()
        self.limit = limit

    def offer(self, line: str, py: Optional[int]) -> None:
        if self.wants_more():
            self._kept.append((line, py))

    def wants_more(self) -> bool:
        return self.limit == 0 or len(self._kept) < self.limit


class RandomSampler(Sampler):
    """Reservoir sampling (algorithm R): a simple random sample without
    replacement of size min(n, population), in one pass."""

    mode = "RANDOM"

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise DomainError("random sample size must be >= 1")
        super().__init__()
        self.n = n
        self._getrandbits = random.Random(seed).getrandbits
        self._seen = 0

    def offer(self, line: str, py: Optional[int]) -> None:
        i = self._seen
        self._seen = i + 1
        if i < self.n:
            self._kept.append((line, py))
            return
        # Classic replacement rule: keep the newcomer with probability n/(i+1).
        # j is randrange(i + 1) drawn as CPython draws it: (i + 1).bit_length()
        # random bits, drawn again while they exceed i.
        k = (i + 1).bit_length()
        j = self._getrandbits(k)
        while j > i:
            j = self._getrandbits(k)
        if j < self.n:
            self._kept[j] = (line, py)


class SystematicSampler(Sampler):
    """Equidistant selection: positions offset, offset+step, ... with
    step = max(1, floor(total / n)), truncated to at most n picks.

    ``total`` must be the exact occurrence count the stream will yield:
    ``wos.analyze_file`` counts it over the same filtered record stream
    ``wos.import_file`` offers from, and the script engine reuses one
    count per file and year filters for the whole run
    (``wos.build_sampler`` rejects a total of 0 first).
    """

    mode = "SYSTEMATIC"

    def __init__(self, n: int, total: int, offset: int = 0):
        if n < 1:
            raise DomainError("systematic sample size must be >= 1")
        if total < 1:
            raise DomainError("systematic sampling requires total >= 1")
        if offset < 0:
            raise DomainError("offset must be >= 0")
        self.n = n
        self.step = max(1, total // n)
        if offset >= self.step:
            raise OffsetTooLargeError(
                f"offset {offset} >= step {self.step} (total {total}, n {n})"
            )
        super().__init__()
        self.offset = offset
        self._pos = 0

    def offer(self, line: str, py: Optional[int]) -> None:
        pos = self._pos
        self._pos += 1
        if len(self._kept) >= self.n:
            return
        if pos >= self.offset and (pos - self.offset) % self.step == 0:
            self._kept.append((line, py))

    def wants_more(self) -> bool:
        return len(self._kept) < self.n


class ClusterSampler(Sampler):
    """Selects every occurrence whose citing year equals one year drawn
    uniformly from [lo, hi]."""

    mode = "CLUSTER"

    def __init__(self, py_lo: int, py_hi: int, seed: int = 0):
        if py_lo > py_hi:
            raise DomainError(f"empty citing-year range [{py_lo}, {py_hi}]")
        super().__init__()
        self.chosen_year = random.Random(seed).randint(py_lo, py_hi)

    def offer(self, line: str, py: Optional[int]) -> None:
        if py == self.chosen_year:
            self._kept.append((line, py))


def removal_threshold(threshold_full: int, ncr_full: int, ncr_sample: int) -> int:
    """Rule-of-thumb removal threshold for a sample, scaled down from the
    population threshold by the population/sample CR ratio.

    Rounds half away from zero on the real-valued quotient.
    """
    if ncr_sample < 1 or ncr_full < ncr_sample:
        raise DomainError(
            f"need ncr_full >= ncr_sample >= 1, got {ncr_full}, {ncr_sample}"
        )
    if threshold_full < 0:
        raise DomainError("threshold_full must be >= 0")
    # floor(t*s/f + 1/2) in integers: a float quotient can land just
    # below an exact .5 (9 / (18 / 7) is 3.4999999999999996, not 3.5).
    return (2 * threshold_full * ncr_sample + ncr_full) // (2 * ncr_full)
