"""End-to-end and per-layer benchmark of rpyspect's ``.crs`` script runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root (the benchmark needs ``src/rpyspect`` and
``tests/corpus.py`` next to it). Each workload in ``workloads.json`` is a
script template plus ``tests/corpus.make_corpus`` parameters. The corpora
are generated from ``--seed``, and the program sees only one of those
files and ``--seed``. Every ``rpyspect run`` is one fresh, single-threaded
process started by ``child.py``, and runs go one at a time.

``--trace 0`` repeats the workload, cycling through the corpora, while
the next run still fits in ``--seconds``. Before each run it starts the
program ``SETUP_STARTS_PER_RUN`` times up to its first statement, and
after each run it times a fixed reference task. It reports the medians of
``wall_s``, ``cpu_s`` and ``setup_s`` at the reference host speed (see
REFERENCE_TASK_S; the measured seconds are printed too) and of
``peak_rss_mb``. ``failed_ratio`` (failed / attempted) is printed with the
metrics and carried by the ``attempted`` and ``failed`` fields.

``--trace 1`` runs the workload on the first corpus once untraced and
once traced, and reports the per-layer metrics of the traced run (times
are self times: span minus child spans).

Every run is checked: exit code 0; ``merge`` conserves ``sum_ncr``; every
written CRE reloads through ``load_cre`` with a valid checksum; for
``partition_union`` the union's NCR per key equals the generator's ground
truth; at the digest seed every output file matches ``digests.json``; and
in traced runs every bounded import keeps at most maxCR + one record of
live references. A run that fails any of these counts in ``failed``.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. ``--smoke`` runs the same checks on tiny corpora.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import string
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

SETUP_STARTS_PER_RUN = 2
# How much clustering or export work a corpus makes varies by several
# percent from seed to seed, so the runs of one invocation cycle through
# this many corpora, made from seeds seed * CORPORA_PER_SEED + k.
CORPORA_PER_SEED = 3
# The whole invocation must end within 180 s; runs still going at this
# point are killed and count as failed.
DEADLINE_S = 170.0

INPUTS = ("corpus.txt", "script.crs")

# The speed of a shared host drifts by tens of percent within minutes, far
# more than the bounds. So every time metric is reported at a reference
# host speed: a run's seconds are divided by its host factor, the mean time
# a fixed pure-Python task took just before and just after the run, over
# REFERENCE_TASK_S, the task's fastest time seen on the 2-core x86_64
# container (CPython 3.11.7) where the workload sizes were chosen.
REFERENCE_TASK_S = 0.14
_WS_RUN = re.compile(r"\s+")


@dataclass
class Run:
    mode: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    errors: list[str] = field(default_factory=list)
    host: float = 1.0


def reference_task_s() -> float:
    """Seconds a fixed mix of the program's kind of work takes right now in
    this process: build 20,000 reference lines, normalize and split them,
    fold them into a table, sort it and serialize it."""
    start = time.perf_counter()
    rng = random.Random(5)
    table: dict[str, list] = {}
    for _ in range(20_000):
        line = (
            f"AUTHOR{rng.randrange(3000)}  X, {rng.randrange(1970, 2011)},"
            f"  JOURNAL {rng.randrange(50)}, V{rng.randrange(400)}, P{rng.randrange(2000)}."
        )
        key = _WS_RUN.sub(" ", line).strip().upper().rstrip(".,;: ")
        row = table.get(key)
        if row is None:
            parts = key.split(", ")
            table[key] = [parts[0], int(parts[1]), ", ".join(parts[2:]), 1]
        else:
            row[3] += 1
    rows = sorted(table.values(), key=lambda r: (r[1], r[0]))
    "\n".join("\t".join(map(str, r)) for r in rows)
    return time.perf_counter() - start


def run_child(mode: str, run_dir: Path, seed: int, deadline: float, trace_file=None) -> Run:
    """Start one ``rpyspect run`` process and wait for it, measuring wall
    time from start to reap, and CPU time and peak RSS from its rusage."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file), "--run-id", f"{run_dir.parent.name}-{mode}"]
    cmd += ["run", INPUTS[1], "--seed", str(seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    log_path = run_dir.parent / f"{mode}.log"
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=run_dir, env=env, stdout=log, stderr=log)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(mode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        run.errors.append(f"{mode} run exited with {proc.returncode}: {' | '.join(tail)}")
    return run


def reset(run_dir: Path) -> None:
    """Delete every output of the previous run, keeping the inputs."""
    for path in run_dir.iterdir():
        if path.name in INPUTS:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def output_digests(run_dir: Path) -> dict[str, str]:
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name not in INPUTS
    }


def ground_truth_key(raw: str) -> str:
    # The normalized identity the CRE table is keyed by: whitespace runs
    # collapsed, upper case, trailing sentence punctuation stripped.
    return " ".join(raw.split()).upper().rstrip(".,;: ")


def check_outputs(run_dir: Path, truth, digests) -> list[str]:
    from rpyspect.errors import RpysError
    from rpyspect.formats import load_cre

    errors = []
    for name in ("out.cre", "out_CR.csv", "out_GRAPH.csv"):
        if not (run_dir / name).is_file():
            errors.append(f"missing output {name}")
    loaded = {}
    for path in sorted(run_dir.rglob("*.cre")):
        try:
            loaded[path.name] = load_cre(path)
        except (RpysError, ValueError) as exc:
            errors.append(f"{path.relative_to(run_dir)} does not reload: {exc}")
    if truth is not None and "out.cre" in loaded:
        got = {key: v.ncr for key, v in loaded["out.cre"].variants.items()}
        if got != truth:
            wrong = sum(1 for k in truth.keys() | got.keys() if got.get(k) != truth.get(k))
            errors.append(f"union NCR differs from the ground truth on {wrong} keys")
    if digests is not None:
        produced = output_digests(run_dir)
        if produced != digests:
            diff = sorted(k for k in produced.keys() | digests.keys() if produced.get(k) != digests.get(k))
            errors.append(f"outputs differ from the recorded digests: {', '.join(diff)}")
    return errors


def self_times(spans: list) -> tuple[Counter, Counter]:
    """Per-name total and self time (span minus the time its children cover)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    total: Counter = Counter()
    own: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
    return total, own


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict, targets: list[str], traced: Run, untraced: Run) -> dict[str, float]:
    total, own = self_times(doc["spans"])
    c = Counter(doc["counts"])
    cl = doc["clusterings"]
    variants_in = sum(x["variants_in"] for x in cl)
    clusters_out = sum(x["clusters_out"] for x in cl)
    m = {
        "wos.import_s": own["wos.import"],
        "wos.count_pass_s": own["wos.count_pass"],
        "wos.passes": c["wos.passes"],
        "wos.records": c["wos.records"],
        "wos.cr_lines": c["wos.cr_lines"],
        "wos.cr_per_s": ratio(c["wos.cr_lines"], own["wos.import"] + own["wos.count_pass"]),
        "wos.malformed_records": c["wos.malformed_records"],
        "wos.peak_live_refs": max((x["peak_live_refs"] for x in doc["imports"]), default=0),
        "sampling.offered": c["sampling.offered"],
        "sampling.kept": c["sampling.kept"],
        "sampling.kept_ratio": ratio(c["sampling.kept"], c["sampling.offered"]),
        "sampling.early_stops": c["sampling.early_stops"],
        "model.aggregate_s": own["model.aggregate"],
        "model.normalize_calls": c["model.normalize_calls"],
        "model.normalize_per_cr": ratio(c["model.normalize_calls"], c["wos.cr_lines"]),
        "model.variants_out": c["model.variants_out"],
        "clustering.cluster_s": own["clustering.cluster"],
        "clustering.variants_in": variants_in,
        "clustering.blocks": sum(x["blocks"] for x in cl),
        "clustering.max_block": max((x["max_block"] for x in cl), default=0),
        "clustering.pairs_gated": c["clustering.pairs_gated"],
        "clustering.dp_calls": c["clustering.dp_calls"],
        "clustering.clusters_out": clusters_out,
        "clustering.union_per_dp": ratio(variants_in - clusters_out, c["clustering.dp_calls"]),
        "clustering.merge_s": own["clustering.merge"],
        "clustering.remove_s": own["clustering.remove"],
        "spectroscopy.spectrogram_s": own["spectroscopy.spectrogram"],
        "spectroscopy.n_pct_calls": c["spectroscopy.n_pct_calls"],
        "spectroscopy.n_pct_scanned": c["spectroscopy.n_pct_scanned"],
        "formats.save_cre_s": own["formats.save_cre"],
        "formats.load_cre_s": own["formats.load_cre"],
        "formats.union_s": own["formats.union"],
        "formats.union_files": c["formats.union_files"],
        "formats.cre_bytes_written": c["formats.cre_bytes_written"],
        "formats.csv_cr_s": own["formats.csv_cr"],
        "formats.csv_cr_rows": c["formats.csv_cr_rows"],
        "formats.csv_graph_s": own["formats.csv_graph"],
        "engine.execute_s": total["engine.execute"],
        "engine.self_s": own["engine.execute"],
        "engine.loop_iterations": c["engine.loop_iterations"],
        "script.parse_s": own["script.parse"],
        "trace.wall_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    }
    m["load.target_share"] = ratio(sum(m[name] for name in targets), m["engine.execute_s"])
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_cr", "_per_dp")):
        return "ratio"
    if name.endswith("_bytes_written"):
        return "bytes"
    return "count"


def check_memory_contract(doc: dict, crs_per_record: int) -> list[str]:
    errors = []
    for i, imp in enumerate(doc["imports"]):
        bound = imp["max_cr"] + crs_per_record
        if imp["max_cr"] and imp["peak_live_refs"] > bound:
            errors.append(
                f"import {i} ({imp['mode']}) held {imp['peak_live_refs']} live references,"
                f" above maxCR + crs_per_record = {bound}"
            )
    return errors


def main(argv=None) -> int:
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, all checks on")
    args = parser.parse_args(argv)

    if not (SRC / "rpyspect" / "cli.py").is_file() or not (TESTS / "corpus.py").is_file():
        print(f"error: {ROOT} holds no rpyspect sources (src/rpyspect, tests/corpus.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    from corpus import make_corpus

    deadline = time.monotonic() + DEADLINE_S
    wl = spec["workloads"][args.workload]
    size = "smoke" if args.smoke else "full"
    params = wl["smoke_corpus" if args.smoke else "corpus"]
    max_cr = wl["smoke_max_cr" if args.smoke else "max_cr"]
    digests = None
    if args.seed == spec["digest_seed"]:
        recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
        digests = recorded[size][args.workload]

    print(f"# workload={args.workload} size={size} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print(f"# platform={platform.platform()} python={platform.python_version()} nproc={os.cpu_count()}")
    workdir = WORK / f"{args.workload}-{size}-{args.seed}-{os.getpid()}"
    runs: list[Run] = []
    try:
        script = string.Template("\n".join(wl["script"]) + "\n").substitute(max_cr=max_cr)
        inputs = []  # (run directory, ground truth, expected digests) per corpus
        for k in range(CORPORA_PER_SEED):
            run_dir = workdir / f"corpus{k}"
            run_dir.mkdir(parents=True)
            corpus = make_corpus(seed=args.seed * CORPORA_PER_SEED + k, **params)
            corpus.write(run_dir / INPUTS[0])
            (run_dir / INPUTS[1]).write_text(script, encoding="utf-8")
            print(f"# corpus {k}: {json.dumps(params)} -> {corpus.n_cr} CRs; maxCR {max_cr}")
            truth = None
            if args.workload == "partition_union":
                truth = dict(Counter(ground_truth_key(raw) for raw, _ in corpus.occurrences()))
            inputs.append((run_dir, truth, digests[k] if digests is not None else None))
        del corpus

        def checked(mode: str, k: int, trace_file=None) -> Run:
            run_dir, truth, expected = inputs[k]
            reset(run_dir)
            run = run_child(mode, run_dir, args.seed, deadline, trace_file)
            if not run.errors:
                run.errors += check_outputs(run_dir, truth, expected)
            runs.append(run)
            status = "ok" if not run.errors else "FAILED: " + "; ".join(run.errors)
            print(f"{mode} run {len(runs)} on corpus {k}: wall {run.wall_s:.3f} s,"
                  f" cpu {run.cpu_s:.3f} s, peak rss {run.peak_rss_mb:.1f} MB, {status}")
            return run

        if args.trace == 0:
            # Set-up starts are spread between the workload runs, so that a
            # slow spell on a shared machine cannot hit all of them.
            setups = []
            rounds = []
            begin = time.monotonic()
            before = reference_task_s()
            while True:
                started = time.monotonic()
                batch = []
                for _ in range(SETUP_STARTS_PER_RUN):
                    setup = run_child("setup", inputs[0][0], args.seed, deadline)
                    if setup.errors:
                        print("setup start FAILED: " + "; ".join(setup.errors))
                    batch.append(setup)
                run = checked("plain", len(rounds) % CORPORA_PER_SEED)
                after = reference_task_s()
                for r in (*batch, run):
                    r.host = (before + after) / 2 / REFERENCE_TASK_S
                print(f"  host factor {run.host:.3f}")
                before = after
                setups += batch
                runs += batch
                now = time.monotonic()
                rounds.append(now - started)
                typical = statistics.median(rounds)
                if now - begin + typical > args.seconds or now + typical > deadline:
                    break
            plain = [r for r in runs if r.mode == "plain"]
            metrics = {
                "wall_s": (statistics.median(r.wall_s / r.host for r in plain), "s"),
                "cpu_s": (statistics.median(r.cpu_s / r.host for r in plain), "s"),
                "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in plain), "MB"),
                "setup_s": (statistics.median(r.wall_s / r.host for r in setups), "s"),
            }
            print(f"# medians of {len(plain)} workload runs and {len(setups)} set-up starts,"
                  f" at the reference host speed; measured medians: wall"
                  f" {statistics.median(r.wall_s for r in plain):.4f} s, cpu"
                  f" {statistics.median(r.cpu_s for r in plain):.4f} s, setup"
                  f" {statistics.median(r.wall_s for r in setups):.4f} s; host factor"
                  f" {statistics.median(r.host for r in plain):.3f}")
        else:
            untraced = checked("plain", 0)
            trace_file = workdir / "trace.json"
            traced = checked("trace", 0, trace_file)
            metrics = {}
            if not traced.errors:
                doc = json.loads(trace_file.read_text(encoding="utf-8"))
                traced.errors += check_memory_contract(doc, params["crs_per_record"])
                for error in traced.errors:
                    print(f"trace check FAILED: {error}")
                values = layer_metrics(doc, wl["target_layers"], traced, untraced)
                metrics = {name: (value, unit_of(name)) for name, value in values.items()}
                print(f"# {len(doc['spans'])} spans; target layers {wl['target_layers']}"
                      f" take {values['load.target_share']:.1%} of engine.execute_s")
                print("# spectroscopy.n_pct_scanned is computed: n_pct calls x variants at each call")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another invocation is still using it
            pass

    failed = sum(1 for r in runs if r.errors)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_ratio':32s} {ratio(failed, len(runs)):.6g} ({failed}/{len(runs)} runs)")
    correct = failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
