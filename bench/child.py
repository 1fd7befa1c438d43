"""Process entry for one benchmarked ``rpyspect run`` invocation.

    python3 bench/child.py --mode plain|setup|trace [--trace-file F --run-id R] \
        run SCRIPT --seed N

Every mode calls the real ``rpyspect.cli.main`` and guards ``merge`` so
that it conserves ``sum_ncr`` (exit 3 otherwise; the check is O(variants)
per merge). ``setup`` stops at the first statement, so the process pays
only interpreter start, ``import rpyspect`` and script parsing.
``trace`` records spans and counts (see tracer.py) and writes them to
``--trace-file`` when the run ends.
"""

from __future__ import annotations

import argparse
import sys

import tracer
from rpyspect import cli, clustering, engine

EXIT_MERGE_NOT_CONSERVED = 3


def _guard_merge(violations: list[str]) -> None:
    merge_clusters = clustering.merge_clusters

    def guarded(dataset):
        merged = merge_clusters(dataset)
        before, after = dataset.sum_ncr(), merged.sum_ncr()
        if before != after:
            violations.append(f"merge changed sum_ncr from {before} to {after}")
        return merged

    clustering.merge_clusters = guarded


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--mode", choices=("plain", "setup", "trace"), required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    trace = None
    if args.mode == "trace":
        trace = tracer.Tracer(args.run_id)
        tracer.install(trace)
    elif args.mode == "setup":
        engine.execute = lambda program, env: env

    violations: list[str] = []
    _guard_merge(violations)
    code = cli.main(args.cli_args)
    if trace is not None:
        trace.dump(args.trace_file)
    for line in violations:
        print(f"check failed: {line}", file=sys.stderr)
    if code == 0 and violations:
        return EXIT_MERGE_NOT_CONSERVED
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
