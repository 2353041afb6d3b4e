"""Command-line front end: rate/BER sweeps, channel dump and self-validation.

Exit codes: 0 on success, 1 on validation failure, 2 on configuration errors
and on outputs that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, SystemConfig, config_digest, parse_config
from .harness import SERIAL_BLAS_MAX_MN, channel_dump, run_ber_sweep, run_rate_sweep, validate, work_items


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2**64), got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfsftn",
        description="Link-level sweeps for precoded faster-than-Nyquist "
        "delay-Doppler transmission.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_config: bool) -> None:
        p.add_argument("--config", required=needs_config, help="YAML config file")
        p.add_argument("--seed", type=_seed, default=None, help="override master_seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    threads_help = ("worker threads, one BLAS thread each (default: one per usable CPU, at most "
                    "one per job: a rate sweep's trials, a fading BER alpha's (point, trial) pairs, "
                    "an identity-channel point's frame blocks); at 1, only a frame of at most "
                    f"{SERIAL_BLAS_MAX_MN} symbols runs BLAS on one thread")

    p_rate = sub.add_parser("rate", help="information-rate sweep to CSV")
    common(p_rate, True)
    p_rate.add_argument("--threads", type=_positive_int, default=None, help=threads_help)

    p_ber = sub.add_parser("ber", help="uncoded BER sweep to CSV")
    common(p_ber, True)
    p_ber.add_argument("--threads", type=_positive_int, default=None, help=threads_help)
    p_ber.add_argument("--llr-out", default=None, help="also dump per-frame LLR records here")

    p_dump = sub.add_parser("channel-dump", help="serialize one channel realization")
    common(p_dump, True)

    p_val = sub.add_parser("validate", help="run the invariant self-checks")
    common(p_val, False)
    return parser


def _load_config(path: str | None, seed: int | None) -> tuple[SystemConfig | None, str | None]:
    if path is None:
        return None, None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    cfg = parse_config(text)
    if seed is not None:
        cfg = replace(cfg, master_seed=seed)
    return cfg, config_digest(text)


@contextlib.contextmanager
def _sink(path: str | None):
    """The file at path opened for writing (None: no file) before a command fills it.

    An unwritable path fails before any work; a command that raises leaves no
    partial file behind.  Only a regular file is removed, never a link or a
    device such as /dev/stdout.
    """
    if path is None:
        yield None
        return
    with open(path, "w") as f:
        try:
            yield f
        except BaseException:
            target = Path(path)
            if target.is_file() and not target.is_symlink():
                target.unlink()
            raise


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: the same resolved path, or the same inode where it exists."""
    try:
        return Path(a).resolve() == Path(b).resolve() or Path(a).samefile(b)
    except OSError:
        return False


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    llr_out = getattr(args, "llr_out", None)
    if args.out is not None and llr_out is not None and _same_file(args.out, llr_out):
        print(f"cannot write output: --out and --llr-out both name {args.out}", file=sys.stderr)
        return 2
    try:
        cfg, digest = _load_config(args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        with _sink(args.out) as out, _sink(llr_out) as llr_sink:
            passed = True
            if getattr(args, "threads", 1) is None:  # a worker per usable CPU, none beyond the work
                cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
                args.threads = min(cpus or 1, work_items(cfg, args.command))
            if args.command == "rate":
                text = run_rate_sweep(cfg, threads=args.threads, digest=digest).to_csv()
            elif args.command == "ber":
                text = run_ber_sweep(
                    cfg, threads=args.threads, digest=digest, llr_sink=llr_sink).to_csv()
            elif args.command == "channel-dump":
                text = channel_dump(cfg, digest=digest)
            else:
                report = validate(cfg, seed=args.seed)
                passed, text = report.passed, report.format() + "\n"
            (out or sys.stdout).write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None or exc.filename not in (args.out, llr_out):
            raise
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
