"""Command-line entry points, run in this order:

    memtraj synth --config run.cfg
    memtraj train-features --config run.cfg
    memtraj build-memory --config run.cfg
    memtraj train-addresser --config run.cfg
    memtraj train-fulfillment --config run.cfg
    memtraj eval --config run.cfg

The config file is the whole run: every subcommand requires ``--config``
(without it argparse exits 2 before anything is written), and no flag
overrides a value it sets, so to change the seed or the output directory,
write another config (one that differs only in ``decode_mode``,
``snap_destination`` or ``test_manifest`` reuses the trained stages). A
leading UTF-8 byte-order mark is ignored. The other flags are ``-v``,
``--fixed-cosine`` on predict and eval (a reference scorer) and ``--trace``
on predict (one more output file).
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from .config import load_config
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

# flag -> help text; a command's call takes each of its flags as a keyword
FLAGS = {
    "trace": "also write retrieval traces per scene",
    "fixed_cosine": "score retrieval with raw cosine instead of the trained addresser",
}

# subcommand -> (help text, pipeline call, its flags)
COMMANDS = {
    "train-features": ("train the past/intention feature nets", stage_train_features, ()),
    "build-memory": ("encode the training set and filter it into a memory bank", stage_build_memory, ()),
    "train-addresser": ("train the retrieval scoring nets against the bank", stage_train_addresser, ()),
    "train-fulfillment": ("train the destination-conditioned trajectory decoder", stage_train_fulfillment, ()),
    "predict": ("write multimodal predictions for the test split", run_predict, ("trace", "fixed_cosine")),
    "eval": ("evaluate minADE/minFDE on the test split", run_eval, ("fixed_cosine",)),
    "synth": ("generate a synthetic TSV split with mode labels", run_synth, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memtraj", description="memory-augmented trajectory prediction")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="config file (key = value lines)")
        for flag in flags:
            sub.add_argument("--" + flag.replace("_", "-"), action="store_true", help=FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = logging.DEBUG if args.verbose else logging.INFO
    logging.basicConfig(level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    _, call, flags = COMMANDS[args.command]
    try:
        # the finite checks report an overflow as one error line, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            call(load_config(args.config), **{flag: getattr(args, flag) for flag in flags})
    except (MemtrajError, OSError) as exc:
        # OSError: an output path that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
