"""Execution of parsed scripts against the analysis modules.

Statements run in order, mutating one Environment. Loop iterations each
start from a fresh dataset (and a private copy of the settings), write
their result as a CRE file into the loop directory, and forEachUnion
folds those files back into the environment's dataset; re-clustering
after a union stays an explicit step, never an implicit one. Every
module error is re-raised with the failing statement's source location.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import clustering, formats, spectroscopy, wos
from .errors import RpysError, ScriptError
from .model import Dataset
from .script import Call, Loop, ScriptProgram, Statement, eval_expr

DEFAULT_SETTINGS = {"median_range": 2, "n_pct_range": 0}

EXPORT_TYPES = ("CSV_CR", "CSV_GRAPH")


@dataclass
class Environment:
    """Mutable interpreter state: settings, the working dataset, seeds,
    the verbosity (the CLI's ``-v`` count) and the sink that receives
    info() lines and, when verbose, import warnings."""

    settings: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_SETTINGS))
    dataset: Optional[Dataset] = None
    tmpdir: Optional[str] = None
    base_seed: int = 0
    iteration: Optional[int] = None
    verbose: int = 0
    sink: Callable[[str], None] = lambda line: print(line, file=sys.stderr)

    def child(self, iteration: int) -> Environment:
        return Environment(
            settings=dict(self.settings),
            dataset=None,
            tmpdir=self.tmpdir,
            base_seed=self.base_seed,
            iteration=iteration,
            verbose=self.verbose,
            sink=self.sink,
        )

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
                _CALLS[stmt.name](stmt, env, bindings)
        except ScriptError:
            raise
        except (RpysError, NotImplementedError, OSError) as exc:
            raise ScriptError(str(exc), stmt.line, stmt.col) from exc


def _args(stmt, bindings: dict) -> dict:
    return {name: eval_expr(expr, bindings) for name, expr in stmt.args}


def _triple(value) -> tuple[int, int, bool]:
    return (value[0], value[1], value[2])


def _call_set(stmt: Call, env: Environment, bindings: dict) -> None:
    env.settings.update(_args(stmt, bindings))


def _import_filter(args: dict, env: Environment) -> wos.ImportFilter:
    mode = args.get("sampling", "NONE").upper()
    seed = args.get("seed")
    if seed is None:
        seed = env.base_seed + (env.iteration or 0)
    return wos.ImportFilter(
        rpy_range=_triple(args["RPY"]) if "RPY" in args else None,
        py_range=_triple(args["PY"]) if "PY" in args else None,
        max_cr=args.get("maxCR", 0),
        sampling_mode=mode,
        offset=args.get("offset", 0),
        seed=seed,
    )


def _call_import(stmt: Call, env: Environment, bindings: dict) -> None:
    args = _args(stmt, bindings)
    wos.check_format(args["type"])
    stats = wos.ParseStats()
    env.dataset = wos.import_file(args["file"], _import_filter(args, env), stats=stats)
    warning = stats.warning()
    if env.verbose and warning:
        env.sink(warning)


def _call_analyze(stmt: Call, env: Environment, bindings: dict) -> None:
    args = _args(stmt, bindings)
    wos.check_format(args["type"])
    filt = wos.ImportFilter(
        rpy_range=_triple(args["RPY"]) if "RPY" in args else None,
        py_range=_triple(args["PY"]) if "PY" in args else None,
    )
    stats = wos.analyze_file(args["file"], filt)
    env.sink(f"analyzed {args['file']}: citing={stats.n_citing} crs={stats.n_cr}")


def _call_info(stmt: Call, env: Environment, bindings: dict) -> None:
    ds = env.dataset
    if ds is None:
        env.sink("no dataset loaded")
        return
    env.sink(
        f"{ds.n_citing} citing publications, {ds.sum_ncr()} CRs,"
        f" {len(ds.variants)} distinct variants"
    )


def _call_cluster(stmt: Call, env: Environment, bindings: dict) -> None:
    args = _args(stmt, bindings)
    config = clustering.ClusterConfig(
        threshold=float(args["threshold"]),
        use_volume=args.get("volume", False),
        use_page=args.get("page", False),
        use_doi=args.get("DOI", False),
    )
    env.dataset = clustering.cluster_crs(env.require_dataset(), config)


def _call_merge(stmt: Call, env: Environment, bindings: dict) -> None:
    env.dataset = clustering.merge_clusters(env.require_dataset())


def _call_remove(stmt: Call, env: Environment, bindings: dict) -> None:
    lo, hi = _args(stmt, bindings)["N_CR"]
    env.dataset = clustering.remove_cr(env.require_dataset(), lo, hi)


def _call_save(stmt: Call, env: Environment, bindings: dict) -> None:
    args = _args(stmt, bindings)
    formats.save_cre(env.require_dataset(), args["file"], settings=env.settings)


def _call_export(stmt: Call, env: Environment, bindings: dict) -> None:
    args = _args(stmt, bindings)
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
    args = {name: eval_expr(expr, bindings) for name, expr in loop.args}
    count = args["count"]
    if count < 1:
        raise ScriptError(f"count must be >= 1, got {count}", loop.line, loop.col)
    user_dir = args.get("dir")
    if user_dir is not None:
        os.makedirs(user_dir, exist_ok=True)
        loop_dir = user_dir
    else:
        loop_dir = tempfile.mkdtemp(prefix="rpys-loop-", dir=env.tmpdir)

    files = []
    try:
        for i in range(count):
            child = env.child(i)
            _run_statements(loop.body, child, {loop.var: i})
            if child.dataset is None:
                raise ScriptError(
                    f"loop iteration {i} produced no dataset", loop.line, loop.col
                )
            path = os.path.join(loop_dir, f"iter_{i:04d}.cre")
            formats.save_cre(child.dataset, path, settings=child.settings)
            files.append(path)
        if loop.kind == "forEachUnion":
            env.dataset = formats.union_cre(files)
        else:
            env.sink(f"forEach wrote {len(files)} CRE files to {loop_dir}")
    finally:
        # Default-directory files are temporary; user-provided ones are kept.
        if user_dir is None and loop.kind == "forEachUnion":
            shutil.rmtree(loop_dir, ignore_errors=True)
