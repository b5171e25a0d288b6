"""Command-line entry points.

Typical run order:

    memtraj synth --config run.cfg
    memtraj train-features --config run.cfg
    memtraj build-memory --config run.cfg
    memtraj train-addresser --config run.cfg
    memtraj train-fulfillment --config run.cfg
    memtraj eval --config run.cfg
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import Config, load_config
from .errors import MemtrajError
from .pipeline import (
    run_eval,
    run_predict,
    run_synth,
    stage_build_memory,
    stage_train_addresser,
    stage_train_features,
    stage_train_fulfillment,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (key = value lines)")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="override the output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memtraj", description="memory-augmented trajectory prediction")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("train-features", "train the past/intention feature nets"),
        ("build-memory", "encode the training set and filter it into a memory bank"),
        ("train-addresser", "train the retrieval scoring nets against the bank"),
        ("train-fulfillment", "train the destination-conditioned trajectory decoder"),
    ]:
        _add_common(subs.add_parser(name, help=help_text))

    pred = subs.add_parser("predict", help="write multimodal predictions for the test split")
    _add_common(pred)
    pred.add_argument("--trace", action="store_true", help="also write retrieval traces per scene")
    pred.add_argument("--fixed-cosine", action="store_true", help="score retrieval with raw cosine instead of the trained addresser")
    pred.add_argument("--decode-mode", choices=["query", "stored"], help="which past feature the anchor decoder sees")

    ev = subs.add_parser("eval", help="evaluate minADE/minFDE on the test split")
    _add_common(ev)
    ev.add_argument("--fixed-cosine", action="store_true", help="score retrieval with raw cosine instead of the trained addresser")
    ev.add_argument("--decode-mode", choices=["query", "stored"], help="which past feature the anchor decoder sees")

    syn = subs.add_parser("synth", help="generate a synthetic TSV split with mode labels")
    _add_common(syn)
    syn.add_argument("--scenes", type=int, help="number of scenes to generate")

    return parser


def _config_from_args(args: argparse.Namespace) -> Config:
    config = load_config(args.config) if args.config else Config()
    if args.seed is not None:
        config.seed = args.seed
    if args.out:
        config.out_dir = args.out
    if getattr(args, "decode_mode", None):
        config.decode_mode = args.decode_mode
    if getattr(args, "scenes", None) is not None:
        config.synth_scenes = args.scenes
    config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    try:
        config = _config_from_args(args)
        if args.command == "train-features":
            stage_train_features(config)
        elif args.command == "build-memory":
            stage_build_memory(config)
        elif args.command == "train-addresser":
            stage_train_addresser(config)
        elif args.command == "train-fulfillment":
            stage_train_fulfillment(config)
        elif args.command == "predict":
            run_predict(config, fixed_cosine=args.fixed_cosine, trace=args.trace)
        elif args.command == "eval":
            run_eval(config, fixed_cosine=args.fixed_cosine)
        elif args.command == "synth":
            run_synth(config)
    except (MemtrajError, OSError) as exc:
        # OSError: an output path that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
