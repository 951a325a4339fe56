"""Command-line front end: one subcommand per study runner.

Every subcommand takes the same four flags. --config accepts either a path to
a JSON file or an inline JSON object (first non-space character '{'); its keys
are the fields of the matching config dataclass. Exit status: 0 on success,
2 on a configuration error, 3 on a data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .dataset import read_text
from .errors import ConfigError, DataError
from .experiments import EXPERIMENTS, config_from_dict

_HELP = {
    "ecp": "smaller-child proportions of single root splits on pure noise",
    "leafsize": "leaf-size statistics per depth on the three-piece signal",
    "sine": "risk traces (and optional MSE table) on sinusoid targets",
    "asbp": "split-dimension sequences and held-out MSE on y = x1 + |x2|",
    "denoise": "partition-forest image denoising on a PGM or the builtin phantom",
    "powell": "test MSE grid on the Powell singular function",
    "timeseries": "tree regression of value on time with a fixed random holdout",
    "martingale": "decay and ratio curves of interval-splitting rules on a law",
    "train": "fit a tree or forest on a CSV and save the model JSON",
    "predict": "score a saved model on a CSV, with metrics when targets are given",
}


def _parse_config(text: Optional[str]) -> dict:
    if text is None:
        return {}
    s = text.strip()
    if s.startswith("{"):
        try:
            return json.loads(s)
        except ValueError as exc:  # bad JSON, or an int past int()'s digit limit
            raise ConfigError(f"bad inline config JSON: {exc}") from None
    try:
        return json.loads(read_text(text))
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    except ValueError as exc:
        raise ConfigError(f"{text}: bad config JSON: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minimaxsplit",
        description="Minimax-split trees, forests, and the studies built on them.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=f"runs/{name}",
                       help=f"output directory (default runs/{name})")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored: every study runs "
                            "on one thread (must be >= 1)")
        p.add_argument("--config", default=None,
                       help="JSON file path or inline '{...}' object")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg_cls, runner = EXPERIMENTS[args.command]
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = config_from_dict(cfg_cls, _parse_config(args.config))
        result = runner(cfg, seed=args.seed, out=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{args.command}: wrote {len(result.files)} files to {result.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
