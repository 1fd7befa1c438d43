"""In-process tracing for one benchmarked ``rpyspect run``.

``install`` rebinds the public functions of each rpyspect module at the
names their callers look up: a span (name, start, end, parent span, run
id) around each layer call, and a plain count for the hot per-item calls,
which would cost more to span than they take. Everything stays in memory
until ``dump`` writes it as one JSON document at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

from rpyspect import clustering, engine, formats, model, sampling, script, spectroscopy, wos


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.imports: list[dict] = []
        self.clusterings: list[dict] = []
        self._samplers: list = []

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` in a span; ``observe(result, *args)`` runs after
        the span closes, so its cost is not charged to the layer."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return wrapper

    def count(self, name, fn, weighted=None):
        """Wrap ``fn`` so each call adds 1 to ``name``; with ``weighted`` =
        (other_name, weight), each call also adds ``weight(*args)`` to it."""
        counts = self.counts
        if weighted is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        else:
            other, weight = weighted

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                counts[other] += weight(*args)
                return fn(*args, **kwargs)

        return wrapper

    def dump(self, path) -> None:
        doc = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "imports": self.imports,
            "clusterings": self.clusterings,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Patch every binding a caller looks up, so no call escapes the trace.

    ``normalize_key`` is bound in both ``wos`` and ``model``; ``wos``
    imports ``aggregate`` by name; ``engine``, ``cli`` and ``formats``
    call the other modules through module attributes.
    """
    t = tracer

    # script / engine: set-up and the interpreter itself.
    script.parse_script = t.span("script.parse", script.parse_script)
    engine.execute = t.span("engine.execute", engine.execute)
    engine.Environment.child = t.count("engine.loop_iterations", engine.Environment.child)

    # wos: the streaming reader and its per-line parser.
    normalize = t.count("model.normalize_calls", model.normalize_key)
    wos.normalize_key = normalize
    model.normalize_key = normalize
    wos.parse_cr_line = t.count("wos.cr_lines", wos.parse_cr_line)
    wos.parse_wos_path = _counted_passes(t, wos.parse_wos_path)
    wos.build_sampler = _recorded_sampler(t, wos.build_sampler)
    # Counted on the classes: a wrapper stored on the instance would form a
    # reference cycle that keeps each finished sample alive until a GC pass.
    for cls in sampling.Sampler.__subclasses__():
        cls.offer = t.count("sampling.offered", cls.offer)
    wos.analyze_file = t.span("wos.count_pass", _with_stats(t, wos.analyze_file))
    wos.import_file = t.span("wos.import", _probed_import(t, wos.import_file))

    # model: aggregation of occurrences into variants.
    aggregate = t.span(
        "model.aggregate",
        model.aggregate,
        lambda ds, *a, **k: t.counts.update({"model.variants_out": len(ds.variants)}),
    )
    wos.aggregate = aggregate
    model.aggregate = aggregate

    # clustering.
    clustering.compatible = t.count("clustering.pairs_gated", clustering.compatible)
    clustering.levenshtein = t.count("clustering.dp_calls", clustering.levenshtein)
    clustering.cluster_crs = t.span(
        "clustering.cluster", clustering.cluster_crs, _observe_clustering(t)
    )
    clustering.merge_clusters = t.span("clustering.merge", clustering.merge_clusters)
    clustering.remove_cr = t.span("clustering.remove", clustering.remove_cr)

    # spectroscopy: n_pct rescans every variant, so count what it scans.
    spectroscopy.compute_spectrogram = t.span(
        "spectroscopy.spectrogram", spectroscopy.compute_spectrogram
    )
    spectroscopy.n_pct = t.count(
        "spectroscopy.n_pct_calls",
        spectroscopy.n_pct,
        ("spectroscopy.n_pct_scanned", lambda ds, *a: len(ds.variants)),
    )

    # formats.
    formats.save_cre = t.span(
        "formats.save_cre",
        formats.save_cre,
        lambda _, ds, path, *a, **k: t.counts.update(
            {"formats.cre_bytes_written": os.path.getsize(path)}
        ),
    )
    formats.load_cre = t.span("formats.load_cre", formats.load_cre)
    formats.union_cre = t.span(
        "formats.union",
        formats.union_cre,
        lambda _, paths: t.counts.update({"formats.union_files": len(paths)}),
    )
    formats.export_csv_cr = t.span(
        "formats.csv_cr",
        formats.export_csv_cr,
        lambda _, ds, *a, **k: t.counts.update({"formats.csv_cr_rows": len(ds.variants)}),
    )
    formats.export_csv_graph = t.span("formats.csv_graph", formats.export_csv_graph)


def _counted_passes(t: Tracer, parse_wos_path):
    @functools.wraps(parse_wos_path)
    def wrapper(path, stats=None):
        t.counts["wos.passes"] += 1
        for rec in parse_wos_path(path, stats):
            t.counts["wos.records"] += 1
            yield rec

    return wrapper


def _recorded_sampler(t: Tracer, build_sampler):
    @functools.wraps(build_sampler)
    def wrapper(filt, total=None):
        sampler = build_sampler(filt, total)
        t._samplers.append(sampler)
        return sampler

    return wrapper


def _with_stats(t: Tracer, analyze_file):
    @functools.wraps(analyze_file)
    def wrapper(path, filt, stats=None):
        stats = stats if stats is not None else wos.ParseStats()
        result = analyze_file(path, filt, stats)
        t.counts["wos.malformed_records"] += stats.malformed_records
        return result

    return wrapper


def _probed_import(t: Tracer, import_file):
    @functools.wraps(import_file)
    def wrapper(path, filt, sampler=None, probe=None, stats=None):
        probe = probe if probe is not None else wos.MemoryProbe()
        stats = stats if stats is not None else wos.ParseStats()
        built = len(t._samplers)
        result = import_file(path, filt, sampler, probe, stats)
        used = sampler if sampler is not None else t._samplers[built]
        # Holding on to the sampler would keep its whole sample alive.
        del t._samplers[built:]
        t.counts["wos.malformed_records"] += stats.malformed_records
        t.counts["sampling.kept"] += used.retained()
        t.counts["sampling.early_stops"] += int(not used.wants_more())
        t.imports.append(
            {"mode": filt.sampling_mode, "max_cr": filt.max_cr, "peak_live_refs": probe.peak}
        )
        return result

    return wrapper


def _observe_clustering(t: Tracer):
    def observe(result, dataset, *args, **kwargs):
        blocks = Counter(v.rpy for v in dataset.variants.values() if v.rpy is not None)
        t.clusterings.append(
            {
                "variants_in": len(dataset.variants),
                "blocks": len(blocks),
                "max_block": max(blocks.values(), default=0),
                "clusters_out": len({v.cluster_id for v in result.variants.values()}),
            }
        )

    return observe
