"""Command-line interface.

Subcommands: synth, gen-inferences, train, predict, score, explain,
gradcheck. Exit codes: 0 success, 1 verification failure, 2 usage or
configuration error (a missing input file, a config value naming its
``[section] key``, a bad corpus, clustering or exemplar line), 3 runtime
failure (an unreadable or corrupt checkpoint, an unreadable or unwritable
inference cache or fixture file, a corrupt inference cache or fixture line,
a failed embedding or generation request, a non-finite training loss, any
other operating-system error, such as an output path that cannot be
created). A bad line of any input file is named as ``path:line: …``.
Errors print one ``error:`` line to stderr; a ``train`` or ``predict`` run
directory that was opened is marked ``"status": "failed"`` with the error's
class and message in ``manifest.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import pipeline
from .commonsense import InferenceError
from .embed import EmbeddingError
from .pipeline import (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, ConfigError,
                       load_run_config, parse_seeds)
from .scorer import ScorerError
from .synthgen import SyntheticSpec


def _add_config_flags(sub):
    sub.add_argument("--config", help="run config INI file")
    sub.add_argument("--preset", default=pipeline.DEFAULT_PRESET,
                     help="config preset when no --config is given")
    sub.add_argument("--out", help="output directory override")
    sub.add_argument("--seed", help="comma-separated seed list override")
    sub.add_argument("--mode", choices=("baseline", "intra", "inter"),
                     help="scorer mode override")


def _resolve_config(args) -> pipeline.RunConfig:
    if args.config:
        config = load_run_config(args.config)
    else:
        config = pipeline.preset(args.preset)
    if args.out:
        config.out_dir = args.out
    if args.seed:
        config.seeds = parse_seeds(args.seed, "--seed")
    if args.mode:
        config.train = replace(config.train, mode=args.mode)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cscoref",
        description="cross-document event coreference with temporal "
                    "commonsense inference channels")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("--topics", type=int, default=4)
    synth.add_argument("--clusters-per-topic", type=int, default=4)
    synth.add_argument("--mentions-per-cluster", type=int, default=4)
    synth.add_argument("--hard-fraction", type=float, default=0.5)
    synth.add_argument("--distractor-rate", type=float, default=0.5)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--corpus-out", required=True)
    synth.add_argument("--fixtures-out", required=True)

    gen = sub.add_parser("gen-inferences",
                         help="populate the inference cache for a split")
    _add_config_flags(gen)
    gen.add_argument("--split", default="train",
                     choices=("train", "dev", "test"))

    tr = sub.add_parser("train", help="train one checkpoint per seed")
    _add_config_flags(tr)

    pred = sub.add_parser("predict",
                          help="cluster a split with a checkpoint and score "
                               "the result")
    _add_config_flags(pred)
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--split", default="test",
                      choices=("train", "dev", "test"))
    pred.add_argument("--tau", type=float, default=None)

    score = sub.add_parser("score",
                           help="evaluate an existing clustering file")
    _add_config_flags(score)
    score.add_argument("--clustering", required=True)
    score.add_argument("--split", default="test",
                       choices=("train", "dev", "test"))

    explain = sub.add_parser("explain",
                             help="dump the attention trace for one pair")
    _add_config_flags(explain)
    explain.add_argument("--checkpoint", required=True)
    explain.add_argument("--pair", required=True,
                         help="two mention ids separated by a comma")
    explain.add_argument("--split", default="test",
                         choices=("train", "dev", "test"))
    explain.add_argument("--trace-out", default=None)

    grad = sub.add_parser("gradcheck",
                          help="verify gradients against finite differences")
    grad.add_argument("--mode", choices=("baseline", "intra", "inter"),
                      default="intra")
    grad.add_argument("--seed", default="0,1,2,3,4",
                      help="comma-separated seed list")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            spec = SyntheticSpec(
                n_topics=args.topics,
                clusters_per_topic=args.clusters_per_topic,
                mentions_per_cluster=args.mentions_per_cluster,
                hard_fraction=args.hard_fraction,
                distractor_rate=args.distractor_rate,
                seed=args.seed)
            return pipeline.cmd_synth(spec, args.corpus_out,
                                      args.fixtures_out)
        if args.command == "gen-inferences":
            return pipeline.cmd_gen_inferences(_resolve_config(args),
                                               args.split)
        if args.command == "train":
            return pipeline.cmd_train(_resolve_config(args))
        if args.command == "predict":
            return pipeline.cmd_predict(_resolve_config(args),
                                        args.checkpoint, split=args.split,
                                        tau=args.tau)
        if args.command == "score":
            return pipeline.cmd_score(_resolve_config(args),
                                      args.clustering, split=args.split)
        if args.command == "explain":
            first, _, second = args.pair.partition(",")
            if not first or not second:
                raise ConfigError("--pair expects 'id1,id2'")
            return pipeline.cmd_explain(_resolve_config(args),
                                        args.checkpoint, first.strip(),
                                        second.strip(), split=args.split,
                                        out_path=args.trace_out)
        if args.command == "gradcheck":
            seeds = parse_seeds(args.seed, "--seed")
            if not seeds:
                raise ConfigError(f"--seed {args.seed!r} names no seeds")
            return pipeline.cmd_gradcheck(mode=args.mode, seeds=seeds)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ScorerError, EmbeddingError, InferenceError,
            FloatingPointError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
