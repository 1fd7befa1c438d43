"""Execution of parsed scripts against the analysis modules.

Statements run in order, mutating one Environment. Loop iterations each
start from a fresh dataset and a private copy of the settings (the run's
population counts stay shared). forEach writes each iteration's result
as a CRE file into its ``dir``, or into a temporary directory that it
keeps. forEachUnion folds each finished iteration's dataset into a
running union of counts per key (``formats.UnionFold``, as ``union_cre``
folds each file it loads), and that union, the dataset ``union_cre``
would read back from the files, becomes the environment's dataset; it
writes the files only into a given ``dir`` and never reads them back.
Re-clustering after a union stays an explicit step. Every module error
is re-raised with the failing statement's source location.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Callable, Optional

from . import clustering, formats, spectroscopy, wos
from .errors import DomainError, RpysError, ScriptError
from .model import Dataset
from .script import Loop, ScriptProgram, Statement, eval_expr
from .structs import Struct

DEFAULT_SETTINGS = {"median_range": 2, "n_pct_range": 0}


class Environment(Struct):
    """Mutable interpreter state: settings, the working dataset, seeds,
    the verbosity (the CLI's ``-v`` count), the sink that receives
    info() lines and, when verbose, import warnings, and the run's
    population counts.

    ``population_counts`` maps a file's identity and year filters (see
    ``_population_key``) to the number of CRs that pass them. analyzeFile
    fills it and a SYSTEMATIC importFile reads it, counting only on a
    miss, so a loop of k systematic samples reads the file k + 1 times
    rather than 2k. Loop iterations share the parent's dict.
    """

    __slots__ = (
        "settings",
        "dataset",
        "tmpdir",
        "base_seed",
        "iteration",
        "verbose",
        "sink",
        "population_counts",
    )
    _defaults = {
        "dataset": None,
        "tmpdir": None,
        "base_seed": 0,
        "iteration": None,
        "verbose": 0,
        "sink": lambda line: print(line, file=sys.stderr),
    }
    _factories = {"settings": lambda: dict(DEFAULT_SETTINGS), "population_counts": dict}

    settings: dict[str, int]
    dataset: Optional[Dataset]
    tmpdir: Optional[str]
    base_seed: int
    iteration: Optional[int]
    verbose: int
    sink: Callable[[str], None]
    population_counts: dict[tuple, int]

    def child(self, iteration: int) -> Environment:
        return self.replace(settings=dict(self.settings), dataset=None, iteration=iteration)

    def require_dataset(self) -> Dataset:
        if self.dataset is None:
            raise RpysError("no dataset loaded; run importFile first")
        return self.dataset


def execute(program: ScriptProgram, env: Environment) -> Environment:
    """Run a validated program, mutating and returning ``env``."""
    _run_statements(program.statements, env, {})
    return env


def _run_statements(statements: tuple[Statement, ...], env: Environment, bindings: dict) -> None:
    for stmt in statements:
        try:
            if isinstance(stmt, Loop):
                _run_loop(stmt, env, bindings)
            else:
                _CALLS[stmt.name](_args(stmt, bindings), env)
        except ScriptError:
            raise  # already located, at a statement of a loop body
        except (RpysError, OSError) as exc:
            raise ScriptError(str(exc), stmt.line, stmt.col) from exc


def _args(stmt, bindings: dict) -> dict:
    return {name: eval_expr(expr, bindings) for name, expr in stmt.args}


def _call_set(args: dict, env: Environment) -> None:
    # Checked here, not where a setting is used: a saveFile in between
    # would write the bad value into a CRE's #SETTINGS.
    for name, value in args.items():
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value}")
    env.settings.update(args)


def _import_filter(args: dict, env: Environment) -> wos.ImportFilter:
    mode = args.get("sampling", "NONE").upper()
    seed = args.get("seed")
    if seed is None:
        seed = env.base_seed + (env.iteration or 0)
    return wos.ImportFilter(
        rpy_range=tuple(args["RPY"]) if "RPY" in args else None,
        py_range=tuple(args["PY"]) if "PY" in args else None,
        max_cr=args.get("maxCR", 0),
        sampling_mode=mode,
        offset=args.get("offset", 0),
        seed=seed,
    )


def _population_key(path, filt: wos.ImportFilter) -> tuple:
    """The file's identity and the year filters: what a CR count depends on.

    Writes are atomic renames, so a file rewritten during the run has a
    new inode (and usually a new size and mtime) and is counted again.
    """
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, filt.py_range, filt.rpy_range)


def _call_import(args: dict, env: Environment) -> None:
    wos.check_format(args["type"])
    filt = _import_filter(args, env)
    sampler = None
    if filt.sampling_mode == "SYSTEMATIC":
        key = _population_key(args["file"], filt)
        total = env.population_counts.get(key)
        if total is None:
            total = env.population_counts[key] = wos.analyze_file(args["file"], filt).n_cr
        sampler = wos.build_sampler(filt, total=total)
    stats = wos.ParseStats()
    env.dataset = wos.import_file(args["file"], filt, sampler=sampler, stats=stats)
    stats.report(env.verbose, env.sink)


def _call_analyze(args: dict, env: Environment) -> None:
    wos.check_format(args["type"])
    filt = _import_filter(args, env)
    key = _population_key(args["file"], filt)
    stats = wos.analyze_file(args["file"], filt)
    env.population_counts[key] = stats.n_cr
    stats.report(env.verbose, env.sink)
    env.sink(f"analyzed {args['file']}: citing={stats.n_citing} crs={stats.n_cr}")


def _call_info(args: dict, env: Environment) -> None:
    ds = env.dataset
    if ds is None:
        env.sink("no dataset loaded")
        return
    env.sink(
        f"{ds.n_citing} citing publications, {ds.sum_ncr()} CRs,"
        f" {len(ds.variants)} distinct variants"
    )


def _call_cluster(args: dict, env: Environment) -> None:
    config = clustering.ClusterConfig(
        threshold=float(args["threshold"]),
        use_volume=args.get("volume", False),
        use_page=args.get("page", False),
        use_doi=args.get("DOI", False),
    )
    env.dataset = clustering.cluster_crs(env.require_dataset(), config)


def _call_merge(args: dict, env: Environment) -> None:
    env.dataset = clustering.merge_clusters(env.require_dataset())


def _call_remove(args: dict, env: Environment) -> None:
    lo, hi = args["N_CR"]
    env.dataset = clustering.remove_cr(env.require_dataset(), lo, hi)


def _call_save(args: dict, env: Environment) -> None:
    formats.save_cre(env.require_dataset(), args["file"], settings=env.settings)


def _call_export(args: dict, env: Environment) -> None:
    kind = args["type"]
    ds = env.require_dataset()
    if kind == "CSV_CR":
        formats.export_csv_cr(ds, args["file"], n_pct_range=env.settings["n_pct_range"])
    elif kind == "CSV_GRAPH":
        spect = spectroscopy.compute_spectrogram(ds, env.settings["median_range"])
        formats.export_csv_graph(spect, args["file"])
    else:
        raise RpysError(f"unknown export type {kind!r} (expected CSV_CR or CSV_GRAPH)")


_CALLS = {
    "set": _call_set,
    "importFile": _call_import,
    "analyzeFile": _call_analyze,
    "info": _call_info,
    "cluster": _call_cluster,
    "merge": _call_merge,
    "removeCR": _call_remove,
    "saveFile": _call_save,
    "exportFile": _call_export,
}


def _run_loop(loop: Loop, env: Environment, bindings: dict) -> None:
    args = _args(loop, bindings)
    count = args["count"]
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    loop_dir = args.get("dir")
    if loop_dir is not None:
        os.makedirs(loop_dir, exist_ok=True)
    elif loop.kind == "forEach":
        loop_dir = tempfile.mkdtemp(prefix="rpys-loop-", dir=env.tmpdir)
    # else: a forEachUnion without dir folds its cycles and writes no file.

    union = formats.UnionFold() if loop.kind == "forEachUnion" else None
    for i in range(count):
        child = env.child(i)
        _run_statements(loop.body, child, {loop.var: i})
        if child.dataset is None:
            raise RpysError(f"loop iteration {i} produced no dataset")
        name = f"iter_{i:04d}.cre"
        if loop_dir is not None:
            formats.save_cre(child.dataset, os.path.join(loop_dir, name), settings=child.settings)
        if union is not None:
            union.add(child.dataset, name)
    del child  # the last cycle's dataset need not outlive its fold
    if union is not None:
        env.dataset = union.dataset()
    else:
        env.sink(f"forEach wrote {count} CRE files to {loop_dir}")
