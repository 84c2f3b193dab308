"""Command-line driver.

    fracdiff run <config> [--preset NAME] [--out-dir DIR]
    fracdiff stability [--n N] [--overlap R] [--out-dir DIR]
    fracdiff kernels dump [--out-dir DIR]

Exit codes: 0 success, 2 configuration or domain error (or a grid too large
for memory), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AccuracyError, ConfigError, DomainError, InstabilityError
from .experiments import PRESETS, parse_config, run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracdiff",
                                     description="particle solvers for 1D fractional diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--preset", choices=sorted(PRESETS),
                       help="apply a named parameter preset")
    p_run.add_argument("--out-dir", help="output directory")

    p_st = sub.add_parser("stability", help="stability-constant table (9 rows)")
    p_st.add_argument("--n", type=int, default=2001, help="odd particle count")
    p_st.add_argument("--overlap", type=float, default=2.0)
    p_st.add_argument("--out-dir", help="output directory")

    p_k = sub.add_parser("kernels", help="kernel utilities")
    k_sub = p_k.add_subparsers(dest="kernels_command", required=True)
    p_kd = k_sub.add_parser("dump", help="dump kernel curves as CSV")
    p_kd.add_argument("--out-dir", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"out_dir": args.out_dir}  # parse_config skips a None
    try:
        if args.command == "run":
            with open(args.config) as fh:
                text = fh.read()
            if args.preset:
                overrides = {**PRESETS[args.preset], **overrides}
            cfg = parse_config(text, overrides)
        elif args.command == "stability":
            cfg = parse_config("study = stability",
                               {"n": args.n, "overlap": args.overlap, **overrides})
        else:  # kernels dump
            cfg = parse_config("study = kernels", overrides)
        files = run(cfg)
    except OSError as exc:  # unreadable config, out-dir naming a file, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a grid too large for this machine
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:  # an argument outside a formula's domain
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, InstabilityError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
