"""Command line front end: simulate, ground, aggregate, eval, parse.

Exit codes for `ground`: 0 success, 2 instruction parse failure, 3 I/O
error. No query is printed on a nonzero exit. Exit codes for `simulate`:
0 success, 1 when a room cannot be placed, 3 I/O error (for instance an
--out path that is a file or lies under one). Every command exits 3 with
one line on an I/O error, a missing or non-UTF-8 config file, a bad config
key or value, or a malformed lexicon file.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .language import PhraseError, phrase_to_graph, tag, tokenize
from .lexicon import LexiconError
from .pipeline import query_seed_for, session_for_episode
from .simulator import GenerationError

EXIT_PARSE = 2
EXIT_IO = 3


def _load_config(args) -> PipelineConfig:
    config = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        config.seed = args.seed
    config.validate()
    return config


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="pipeline config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def _add_noise(parser: argparse.ArgumentParser):
    parser.add_argument("--noise", choices=tuple(NOISE_PRESETS), default="none")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="refground", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate episode directories")
    _add_common(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--kind", choices=("counting", "dialogue"), default="dialogue")
    p.add_argument("--rooms", type=int, default=5, help="rooms per count (counting) or total rooms")

    p = sub.add_parser("ground", help="ground one instruction in an episode")
    _add_common(p)
    p.add_argument("episode", metavar="EPISODE_DIR")
    p.add_argument("instruction")
    _add_noise(p)
    p.add_argument("--session", metavar="PATH", help="reuse a dumped aggregation session")
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
    p.add_argument("--out", metavar="PATH", help="report path (.json; a .txt table is written too)")

    p = sub.add_parser("parse", help="parse text into an object graph")
    _add_common(p)
    p.add_argument("text")
    p.add_argument("--tags", action="store_true", help="also print the BIO tags")
    return parser


def cmd_simulate(args) -> int:
    config = _load_config(args)
    if args.kind == "counting":
        simulate_counting_dataset(args.out, config, rooms_per_count=args.rooms)
    else:
        simulate_dialogue_dataset(args.out, config, n_rooms=args.rooms)
    print(f"wrote dataset to {args.out}")
    return 0


def cmd_ground(args) -> int:
    config = _load_config(args)
    try:
        if args.session:
            session = AggregationSession.load(args.session)
            if session.grid != config.grid_spec():
                raise SessionFormatError(
                    f"{args.session}: session grid {session.grid} differs from config grid "
                    f"{config.grid_spec()}"
                )
        else:
            session = session_for_episode(args.episode, config, args.noise)
    except (DatasetError, SessionFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        from .pipeline import ground_in_session

        seed = query_seed_for(config.seed, f"{Path(args.episode).name}:{args.instruction}")
        outcome, _ = ground_in_session(session, args.instruction, config, None, seed)
    except PhraseError as exc:
        print(f"error: cannot parse instruction: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.out:
        write_outcome(outcome, args.out)
    print(outcome.query)
    return 0


def cmd_aggregate(args) -> int:
    config = _load_config(args)
    try:
        session = session_for_episode(args.episode, config, args.noise)
        session.dump(args.out)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"session written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    try:
        report = evaluate_dataset(args.dataset, config, args.noise)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.out:
        write_report(report, args.out)
    print(report.render_table())
    return 0


def cmd_parse(args) -> int:
    config = _load_config(args)
    lexicon = config.lexicon()
    try:
        tokens = tokenize(args.text)
        if args.tags:
            labels = tag(tokens, lexicon)
            print("\t".join(str(lab) for lab in labels))
        graph = phrase_to_graph(args.text, lexicon)
    except PhraseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(json.dumps(graph_to_dict(graph)))
    return 0


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
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    except LexiconError as exc:
        print(f"lexicon error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
