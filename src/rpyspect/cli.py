"""Command-line entry point.

Subcommands: run (execute a .crs script), analyze (count records/CRs
passing filters), sample (one-shot import + CRE dump), spectro (CRE to
spectrogram CSV). All commands call the same module functions as the
script engine, so there is no second code path to drift. Info and
progress lines go to stderr; stdout carries only data.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import engine, formats, script, spectroscopy, wos
from .errors import RpysError, ScriptError
from .model import YearFilter


def _year_range(text: str) -> YearFilter:
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi), False)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpyspect",
        description="Memory-bounded reference publication year spectroscopy with sampling.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a .crs script")
    p_run.add_argument("script")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--tmpdir", default=None)

    p_analyze = sub.add_parser("analyze", help="count citing records and CRs passing filters")
    p_analyze.add_argument("input")
    p_analyze.add_argument("--rpy", type=_year_range, default=None)
    p_analyze.add_argument("--py", type=_year_range, default=None)

    p_sample = sub.add_parser("sample", help="import one sample and save it as a CRE file")
    p_sample.add_argument("input")
    p_sample.add_argument(
        "--mode", choices=["none", "random", "systematic", "cluster"], default="none"
    )
    p_sample.add_argument("--n", type=int, default=0, help="sample size (maxCR; 0 = no limit)")
    p_sample.add_argument("--offset", type=int, default=0)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--rpy", type=_year_range, default=None)
    p_sample.add_argument("--py", type=_year_range, default=None)
    p_sample.add_argument("--out", required=True)

    p_spectro = sub.add_parser("spectro", help="compute a spectrogram CSV from a CRE file")
    p_spectro.add_argument("cre")
    p_spectro.add_argument("--median-range", type=int, default=2)
    p_spectro.add_argument("--out", required=True)
    return parser


def cmd_run(args) -> int:
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {args.script}: file not found ({exc})", file=sys.stderr)
        return 1
    try:
        program = script.parse_script(text)
    except ScriptError as exc:
        print(f"error: {args.script}: {exc}", file=sys.stderr)
        return 1
    env = engine.Environment(
        tmpdir=args.tmpdir,
        base_seed=args.seed,
        verbose=args.verbose,
        sink=lambda line: print(line, file=sys.stderr),
    )
    try:
        engine.execute(program, env)
    except (RpysError, NotImplementedError, OSError) as exc:
        print(f"error: {args.script}: {exc}", file=sys.stderr)
        return 1
    if env.dataset is not None:
        print(
            f"done: {len(env.dataset.variants)} variants, {env.dataset.sum_ncr()} CRs",
            file=sys.stderr,
        )
    else:
        print("done", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    filt = wos.ImportFilter(rpy_range=args.rpy, py_range=args.py)
    stats = wos.ParseStats()
    result = wos.analyze_file(args.input, filt, stats)
    warning = stats.warning()
    if args.verbose and warning:
        print(warning, file=sys.stderr)
    print(f"citing={result.n_citing} crs={result.n_cr}")
    return 0


def cmd_sample(args, parser: argparse.ArgumentParser) -> int:
    mode = args.mode.upper()
    if mode == "CLUSTER" and args.py is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        print("error: --mode cluster requires --py <lo:hi>", file=sys.stderr)
        return 1
    filt = wos.ImportFilter(
        rpy_range=args.rpy,
        py_range=args.py,
        max_cr=args.n,
        sampling_mode=mode,
        offset=args.offset,
        seed=args.seed,
    )
    dataset = wos.import_file(args.input, filt)
    formats.save_cre(dataset, args.out, settings=engine.DEFAULT_SETTINGS)
    print(
        f"sampled {dataset.sum_ncr()} CRs into {len(dataset.variants)} variants -> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_spectro(args) -> int:
    dataset = formats.load_cre(args.cre)
    spect = spectroscopy.compute_spectrogram(dataset, args.median_range)
    formats.export_csv_graph(spect, args.out)
    print(f"wrote {len(spect.rows)} spectrogram rows -> {args.out}", file=sys.stderr)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "sample":
            return cmd_sample(args, parser)
        return cmd_spectro(args)
    except (RpysError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
