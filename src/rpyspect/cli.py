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
from .errors import RpysError
from .model import YearFilter
from .sampling import MODES


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
    p_sample.add_argument("--mode", choices=[m.lower() for m in MODES], default="none")
    p_sample.add_argument(
        "--n", type=int, default=0, help="sample size (maxCR; 0 = no limit; cluster ignores it)"
    )
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


def _stderr(line: str) -> None:
    print(line, file=sys.stderr)


def cmd_run(args) -> int:
    if args.seed < 0:
        _stderr(f"error: --seed must be >= 0, got {args.seed}")
        return 1
    env = engine.Environment(tmpdir=args.tmpdir, base_seed=args.seed, verbose=args.verbose)
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            text = fh.read()
        engine.execute(script.parse_script(text), env)
    except UnicodeDecodeError as exc:
        reason = f"not valid UTF-8 at byte {exc.start} ({exc.reason})"
    except OSError as exc:  # reading the script; the engine locates its own
        reason = exc.strerror or exc
    except RpysError as exc:
        reason = exc
    else:
        ds = env.dataset
        _stderr("done" if ds is None else f"done: {len(ds.variants)} variants, {ds.sum_ncr()} CRs")
        return 0
    _stderr(f"error: {args.script}: {reason}")
    return 1


def cmd_analyze(args) -> int:
    stats = wos.analyze_file(args.input, wos.ImportFilter(rpy_range=args.rpy, py_range=args.py))
    stats.report(args.verbose, _stderr)
    print(f"citing={stats.n_citing} crs={stats.n_cr}")
    return 0


def cmd_sample(args, parser: argparse.ArgumentParser) -> int:
    mode = args.mode.upper()
    if mode == "CLUSTER" and args.py is None:
        print(parser.format_usage(), file=sys.stderr, end="")
        _stderr("error: --mode cluster requires --py <lo:hi>")
        return 1
    filt = wos.ImportFilter(
        rpy_range=args.rpy,
        py_range=args.py,
        max_cr=args.n,
        sampling_mode=mode,
        offset=args.offset,
        seed=args.seed,
    )
    stats = wos.ParseStats()
    dataset = wos.import_file(args.input, filt, stats=stats)
    stats.report(args.verbose, _stderr)
    formats.save_cre(dataset, args.out, settings=engine.DEFAULT_SETTINGS)
    _stderr(f"sampled {dataset.sum_ncr()} CRs into {len(dataset.variants)} variants -> {args.out}")
    return 0


def cmd_spectro(args) -> int:
    dataset = formats.load_cre(args.cre)
    spect = spectroscopy.compute_spectrogram(dataset, args.median_range)
    formats.export_csv_graph(spect, args.out)
    _stderr(f"wrote {len(spect)} spectrogram rows -> {args.out}")
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
    except (RpysError, OSError) as exc:
        _stderr(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
