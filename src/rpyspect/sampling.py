"""Sampling strategies over the filtered CR occurrence stream.

The samplers are fed only by ``wos.import_file``, in file order, one
``offer(line, py)`` per passing CR line as read, with its citing year (a
variant's RPY comes from its key); after each record it stops once
``wants_more()`` is false. Every sampler is single-pass and holds at most
its sample, folded by line as it is offered: NONE and SYSTEMATIC keep one
count and one citing-year mask per distinct line they kept
(``model.LineTables``), and RANDOM, whose reservoir evicts, keeps its
reservoir of (line, py) pairs and folds it at the end. That is what keeps
huge imports memory-bounded. An offer that keeps nothing costs one
comparison for SYSTEMATIC (its position against the next pick). A
per-record ``offer`` waits until the benchmark's tracer counts the offered
lines from the data rather than from ``offer`` calls (ROADMAP item 1a).
Their arguments come from a ``wos.ImportFilter``, which has checked them,
so a sampler checks only what it cannot: a RANDOM or SYSTEMATIC size of at
least 1, and an offset below the systematic step. A CLUSTER sample needs
no sampler of its own: ``wos.import_file`` narrows the citing-year filter
to the drawn year and keeps everything that passes.

Randomness comes from ``random.Random`` (MT19937). The reservoir draws
its slots, and ``wos.import_file`` a CLUSTER sample's year, from
``getrandbits``, whose output for a seed CPython keeps stable across
versions, and maps the bits to a value itself, the way ``randrange``
does: so a sample's reproducibility rests on the MT19937 output, not on
``randrange``'s mapping, which CPython does not promise to keep. A
(seed, stream order) pair reproduces a sample bit-for-bit on any
platform.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import DomainError, OffsetTooLargeError
from .model import YEAR_BITS, LineTables, fold

MODES = ("NONE", "RANDOM", "SYSTEMATIC", "CLUSTER")


class Sampler:
    """Streaming selection interface used by the import pipeline.

    Each subclass defines ``offer(line, py)``, which feeds one
    occurrence, a CR line and its citing year, and decides whether to
    keep it. The base folds each kept occurrence into its tables as it
    comes (``_take``): ``result`` returns them as ``model.LineTables``,
    ``retained`` reports how many occurrences it kept (the benchmark
    tracer reads it) and ``held`` how many entries it holds, one per
    distinct line (the memory probe reads it). ``wants_more`` lets the
    reader stop early once the sample cannot grow.
    """

    def __init__(self):
        self._counts: dict[str, int] = {}
        self._masks: dict[str, int] = {}
        self._kept = 0

    def _take(self, line: str, py: Optional[int]) -> None:
        # The rule of model.fold, one occurrence at a time.
        self._kept += 1
        counts = self._counts
        if line in counts:
            counts[line] += 1
            self._masks[line] |= YEAR_BITS[py]
        else:
            counts[line] = 1
            self._masks[line] = YEAR_BITS[py]

    def wants_more(self) -> bool:
        return True

    def retained(self) -> int:
        return self._kept

    def held(self) -> int:
        return len(self._counts)

    def result(self) -> LineTables:
        return LineTables(self._counts, self._masks)


class NoneSampler(Sampler):
    """Identity selection: keeps every occurrence offered. The first n
    occurrences are ``SystematicSampler(n, total=n)``."""

    offer = Sampler._take


class RandomSampler(Sampler):
    """Reservoir sampling (algorithm R): a simple random sample without
    replacement of size min(n, population), in one pass. The reservoir
    holds (line, py) pairs and is folded in slot order by ``result``."""

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise DomainError("random sample size must be >= 1")
        super().__init__()
        self.n = n
        self._getrandbits = random.Random(seed).getrandbits
        self._seen = 0
        self._reservoir: list[tuple[str, Optional[int]]] = []

    def offer(self, line: str, py: Optional[int]) -> None:
        i = self._seen
        self._seen = i + 1
        if i < self.n:
            self._reservoir.append((line, py))
            return
        # Classic replacement rule: keep the newcomer with probability n/(i+1).
        # j is randrange(i + 1) drawn as CPython draws it: (i + 1).bit_length()
        # random bits, drawn again while they exceed i.
        k = (i + 1).bit_length()
        j = self._getrandbits(k)
        while j > i:
            j = self._getrandbits(k)
        if j < self.n:
            self._reservoir[j] = (line, py)

    def retained(self) -> int:
        return len(self._reservoir)

    held = retained

    def result(self) -> LineTables:
        return fold(self._reservoir)


class SystematicSampler(Sampler):
    """Equidistant selection: positions offset, offset+step, ... with
    step = max(1, floor(total / n)), truncated to at most n picks.

    It keeps the position of the next pick, so an offer makes one
    comparison; a pick moves it on by ``step``, or to -1 after the n-th
    pick, which no position matches. Every CR is still offered, one call
    each, until the import stops after the record of the n-th pick.

    ``total`` must be the exact occurrence count the stream will yield:
    ``wos.analyze_file`` counts it over the same filtered record stream
    ``wos.import_file`` offers from, and the script engine reuses one
    count per file and year filters for the whole run
    (``wos.build_sampler`` rejects a total of 0 first). A ``total`` of
    ``n`` gives step 1 and offset 0: the first ``n`` occurrences, which is
    what a NONE import with a ``max_cr`` of ``n`` keeps.
    """

    def __init__(self, n: int, total: int, offset: int = 0):
        if n < 1:
            raise DomainError("systematic sample size must be >= 1")
        self.n = n
        self.step = max(1, total // n)
        if offset >= self.step:
            raise OffsetTooLargeError(
                f"offset {offset} >= step {self.step} (total {total}, n {n})"
            )
        super().__init__()
        self._pos = 0
        self._next = offset  # the position of the next pick; -1 after the n-th

    def offer(self, line: str, py: Optional[int]) -> None:
        pos = self._pos
        self._pos = pos + 1
        if pos == self._next:
            self._take(line, py)
            self._next = pos + self.step if self._kept < self.n else -1

    def wants_more(self) -> bool:
        return self._kept < self.n


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
