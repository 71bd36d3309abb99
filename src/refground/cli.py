"""Command line front end: simulate, ground, aggregate, eval, parse.

Exit codes of every command once its arguments parse (argparse exits 2
with its usage otherwise); a nonzero exit prints one line on stderr and
nothing on stdout:
    0  ok
    1  a room cannot be placed
    2  text does not parse under the configured lexicon
    3  bad input: I/O, config, lexicon, session, dataset or allocation
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .aggregation import AggregationSession, SessionFormatError
from .config import NOISE_PRESETS, ConfigError, PipelineConfig, load_config
from .discriminator import write_outcome
from .episodes import DatasetError
from .evaluation import (
    evaluate_dataset,
    simulate_counting_dataset,
    simulate_dialogue_dataset,
    write_report,
)
from .graph import to_dict as graph_to_dict
from .language import PhraseError, parse_tags, tag, tokenize
from .lexicon import LexiconError
from .pipeline import ground_in_session, query_seed_for, session_for_episode
from .simulator import GenerationError


def _load_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    return config if args.seed is None else replace(config, seed=args.seed)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def report_path(text: str) -> str:
    # the table is written to the report's .txt sibling, which must be another file
    if Path(text).suffix == ".txt":
        raise argparse.ArgumentTypeError(f"the table is written to the .txt beside the report, got {text}")
    return text


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="pipeline config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def _add_noise(parser):
    parser.add_argument("--noise", choices=tuple(NOISE_PRESETS), default="none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refground", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate episode directories")
    _add_common(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--kind", choices=("counting", "dialogue"), default="dialogue")
    p.add_argument("--rooms", type=positive_int, default=5, help="rooms per count (counting) or total rooms")

    p = sub.add_parser("ground", help="ground one instruction in an episode")
    _add_common(p)
    p.add_argument("episode", metavar="EPISODE_DIR")
    p.add_argument("instruction")
    source = p.add_mutually_exclusive_group()  # a dumped session has its noise applied already
    _add_noise(source)
    source.add_argument("--session", metavar="PATH", help="reuse a dumped aggregation session")
    p.add_argument("--out", metavar="PATH", help="write the outcome record here")

    p = sub.add_parser("aggregate", help="build and dump an aggregation session")
    _add_common(p)
    p.add_argument("episode", metavar="EPISODE_DIR")
    _add_noise(p)
    p.add_argument("--out", required=True, metavar="PATH")

    p = sub.add_parser("eval", help="evaluate a dataset directory")
    _add_common(p)
    p.add_argument("dataset", metavar="DATASET_DIR")
    _add_noise(p)
    p.add_argument(
        "--out", type=report_path, metavar="PATH", help="report path (.json; a .txt table is written too)"
    )

    p = sub.add_parser("parse", help="parse text into an object graph")
    _add_common(p)
    p.add_argument("text")
    p.add_argument("--tags", action="store_true", help="also print the BIO tags")
    return parser


def cmd_simulate(args, config: PipelineConfig) -> int:
    if args.kind == "counting":
        simulate_counting_dataset(args.out, config, rooms_per_count=args.rooms)
    else:
        simulate_dialogue_dataset(args.out, config, n_rooms=args.rooms)
    print(f"wrote dataset to {args.out}")
    return 0


def cmd_ground(args, config: PipelineConfig) -> int:
    lexicon = config.lexicon()
    if args.session:
        session = AggregationSession.load(args.session)
        if session.grid != config.grid_spec():
            raise SessionFormatError(
                f"{args.session}: session grid {session.grid} differs from config grid "
                f"{config.grid_spec()}"
            )
    else:
        session = session_for_episode(args.episode, config, args.noise, lexicon)
    seed = query_seed_for(config.seed, f"{Path(args.episode).name}:{args.instruction}")
    outcome, _ = ground_in_session(session, args.instruction, config, lexicon, seed)
    if args.out:
        write_outcome(outcome, args.out)
    print(outcome.query)
    return 0


def cmd_aggregate(args, config: PipelineConfig) -> int:
    session_for_episode(args.episode, config, args.noise, config.lexicon()).dump(args.out)
    print(f"session written to {args.out}")
    return 0


def cmd_eval(args, config: PipelineConfig) -> int:
    report = evaluate_dataset(args.dataset, config, args.noise)
    if args.out:
        write_report(report, args.out)
    print(report.render_table())
    return 0


def cmd_parse(args, config: PipelineConfig) -> int:
    lexicon = config.lexicon()
    tokens = tokenize(args.text)
    labels = tag(tokens, lexicon)
    graph = parse_tags(tokens, labels)  # parse before printing anything
    if args.tags:
        print("\t".join(labels))
    print(json.dumps(graph_to_dict(graph)))
    return 0


# error class -> (exit code, message prefix); the first class the error is an instance of wins
EXIT_CODES = {
    ConfigError: (3, "config error: "),
    LexiconError: (3, "lexicon error: "),
    PhraseError: (2, "error: cannot parse: "),
    DatasetError: (3, "error: "),
    SessionFormatError: (3, "error: "),
    OSError: (3, "error: "),
    MemoryError: (3, "error: "),
    GenerationError: (1, "generation error: "),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "ground": cmd_ground,
        "aggregate": cmd_aggregate,
        "eval": cmd_eval,
        "parse": cmd_parse,
    }
    try:
        return handlers[args.command](args, _load_config(args))
    except tuple(EXIT_CODES) as exc:
        code, prefix = next(EXIT_CODES[error] for error in EXIT_CODES if isinstance(exc, error))
        print(f"{prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
