"""Command line front end.

Subcommands mirror the experiment kinds::

    wsnloc rss      --config scenario.json --out rmse.csv [--estimator ls|wls|huber]
    wsnloc doa      --config scenario.json --out rmse.csv [--doa ...] [--decorrelate ...]
    wsnloc hybrid   --config scenario.json --out rmse.csv [--hybrid ...]
    wsnloc spectrum --config scenario.json --out spectrum.csv

``--seed`` overrides the config seed, under the schema's rule for a seed.
``--workers`` is accepted for compatibility and ignored: trials run serially.
Exit codes: 0 success (``--help`` included), 1 configuration error (a malformed
command line included), 2 every trial failed at some SNR. Each warning is one
``warning: ...`` line on stderr, and an error one line after them.
"""

import argparse
import dataclasses
import sys
import warnings

from .errors import AllTrialsFailed, ConfigError
from .config import CONFIG_SCHEMA, _schema_error, _shown, load_config
from .harness import dump_spectrum, monte_carlo, write_rmse_csv

_METHODS = CONFIG_SCHEMA["properties"]["method"]["properties"]


def _cut(message: str) -> str:
    """``message`` cut to 120 characters, for one that may repeat a long value whole."""
    return message if len(message) <= 120 else message[:117] + "..."


class _Parser(argparse.ArgumentParser):
    """A parser whose rejected command line is a configuration error (exit 1), not
    argparse's exit 2, which the CLI keeps for sweeps whose every trial failed. The
    message, which repeats the rejected value whole, is cut short."""

    def error(self, message):
        raise ConfigError(_cut(f"{self.prog}: {message}"))


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` as the CLI shows a warning: one line, cut short."""
    print(f"warning: {_cut(str(message))}", file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=1, help="ignored; trials run serially")


def _add_method(parser: argparse.ArgumentParser, key: str) -> None:
    """``--key``, choosing among the values the config schema allows for ``method.key``."""
    parser.add_argument(f"--{key}", choices=_METHODS[key]["enum"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wsnloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    rss = sub.add_parser("rss", help="RSS trilateration RMSE vs SNR")
    _add_common(rss)
    _add_method(rss, "estimator")

    doa = sub.add_parser("doa", help="DOA estimation RMSE vs SNR")
    _add_common(doa)
    _add_method(doa, "doa")
    _add_method(doa, "decorrelate")

    hybrid = sub.add_parser("hybrid", help="hybrid RSS+DOA RMSE vs SNR")
    _add_common(hybrid)
    _add_method(hybrid, "hybrid")

    spectrum = sub.add_parser("spectrum", help="dump one seeded MUSIC spectrum")
    _add_common(spectrum)
    _add_method(spectrum, "decorrelate")
    return parser


def _check_seed(seed: int) -> None:
    """Raise :class:`ConfigError` naming the seed's range if ``seed`` breaks the config
    schema's seed rule."""
    if _schema_error(seed, CONFIG_SCHEMA["properties"]["seed"]) is not None:
        raise ConfigError(f"--seed: {_shown(seed)} is outside the seed's range 0 ... 2^64 - 1")


def main(argv=None) -> int:
    with warnings.catch_warnings():  # the filters stay; only the display changes
        warnings.showwarning = _warning_line
        try:
            args = build_parser().parse_args(argv)
            cfg = load_config(args.config)
            if args.seed is not None:
                _check_seed(args.seed)
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
