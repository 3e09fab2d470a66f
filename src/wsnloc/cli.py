"""Command line front end.

Subcommands mirror the experiment kinds::

    wsnloc rss      --config scenario.json --out rmse.csv [--estimator ls|wls|huber]
    wsnloc doa      --config scenario.json --out rmse.csv [--doa ...] [--decorrelate ...]
    wsnloc hybrid   --config scenario.json --out rmse.csv [--hybrid ...]
    wsnloc spectrum --config scenario.json --out spectrum.csv

``--seed`` overrides the config seed. ``--workers`` is accepted for
compatibility and ignored: trials run serially. Exit codes: 0 success,
1 configuration error, 2 every trial failed at some SNR.
"""

import argparse
import dataclasses
import sys

from .errors import AllTrialsFailed, ConfigError
from .harness import dump_spectrum, load_config, monte_carlo, write_rmse_csv


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=1, help="ignored; trials run serially")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wsnloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rss = sub.add_parser("rss", help="RSS trilateration RMSE vs SNR")
    _add_common(rss)
    rss.add_argument("--estimator", choices=["ls", "wls", "huber"], default=None)

    doa = sub.add_parser("doa", help="DOA estimation RMSE vs SNR")
    _add_common(doa)
    doa.add_argument(
        "--doa",
        choices=["music", "root-music", "esprit", "uca-root-music", "uca-esprit"],
        default=None,
    )
    doa.add_argument(
        "--decorrelate", choices=["none", "fss", "fbss", "toeplitz"], default=None
    )

    hybrid = sub.add_parser("hybrid", help="hybrid RSS+DOA RMSE vs SNR")
    _add_common(hybrid)
    hybrid.add_argument(
        "--hybrid", choices=["single", "fbss", "ls", "wls", "two-lines"], default=None
    )

    spectrum = sub.add_parser("spectrum", help="dump one seeded MUSIC spectrum")
    _add_common(spectrum)
    spectrum.add_argument(
        "--decorrelate", choices=["none", "fss", "fbss", "toeplitz"], default=None
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be an unsigned 64-bit integer")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        cfg = cfg.with_method(
            estimator=getattr(args, "estimator", None),
            doa=getattr(args, "doa", None),
            decorrelate=getattr(args, "decorrelate", None),
            hybrid=getattr(args, "hybrid", None),
        )
        if args.command == "spectrum":
            dump_spectrum(cfg, args.out)
        else:
            result = monte_carlo(cfg, args.command, workers=args.workers)
            write_rmse_csv(result, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except AllTrialsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
