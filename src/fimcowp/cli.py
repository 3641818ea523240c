"""Command-line surface: decide, grammar, parse, enumerate, crosscheck, munn.

Exit codes are uniform: 0 for true/accept/clean, 1 for false/reject or a
crosscheck with disagreements, 2 for usage or word-syntax errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import cfg, fim_grammars, munn, oracle, words

HARD_CAP_ENV = "FIMCOWP_MAXLEN_HARD"
HARD_CAP_DEFAULT = 14

GRAMMAR_CHOICES = ", ".join(fim_grammars.LANGUAGES)


def _rank(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rank must be an integer, got {text!r}")
    if not 1 <= value <= words.MAX_RANK:
        raise argparse.ArgumentTypeError(f"rank must be between 1 and {words.MAX_RANK}")
    return value


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return value


def _jobs(text: str) -> int:
    """A worker count of at least 1; crosscheck lowers it to the CPU count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _hard_cap() -> int:
    text = os.environ.get(HARD_CAP_ENV, str(HARD_CAP_DEFAULT))
    error = ValueError(f"{HARD_CAP_ENV} must be a nonnegative integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value


def _check_cap(max_len: int) -> None:
    cap = _hard_cap()
    if max_len > cap:
        raise ValueError(f"--max-len {max_len} exceeds the hard cap {cap} ({HARD_CAP_ENV})")


def resolve_grammar(which: str, rank: int) -> cfg.Grammar:
    return fim_grammars.language(which, rank).grammar()


def oracle_for(which: str, rank: int) -> tuple[Callable, bool]:
    """Munn-tree oracle of a language name, plus whether its universe is
    marked words (True) or plain words (False)."""
    _, predicate, marked = fim_grammars.language(which, rank)
    return predicate, marked


def _cmd_decide(args: argparse.Namespace) -> int:
    if len(args.words) == 1:
        marked = words.parse_marked(args.words[0], args.rank)
    elif len(args.words) == 2:
        u, v = (words.parse_word(text, args.rank) for text in args.words)
        marked = words.MarkedWord(u, words.rev_invert(v))
    else:
        raise ValueError("expected one marked word or a pair of words")
    if args.mode == "wp":
        result = munn.fim_equal(*marked.pair())
    else:
        which = {"cowp": "coWP-FIM", "k1": "K1", "k2": "K2"}[args.mode]
        result = fim_grammars.language(which, args.rank).oracle(marked)
    print("true" if result else "false")
    return 0 if result else 1


def _cmd_grammar(args: argparse.Namespace) -> int:
    grammar = resolve_grammar(args.which, args.rank)
    if args.cnf:
        grammar = cfg.to_cnf(grammar)
    if args.format == "bnf":
        sys.stdout.write(cfg.grammar_to_bnf(grammar))
    else:
        sys.stdout.write(cfg.grammar_to_json(grammar))
    return 0


def _cmd_parse(args: argparse.Namespace) -> int:
    grammar = resolve_grammar(args.which, args.rank)
    tree = None
    if args.tree and set(args.word) <= grammar.terminals:
        # one parse: derive returns None exactly when the word is rejected
        tree = cfg.derive(grammar, args.word)
        accepted = tree is not None
    else:
        accepted = cfg.cyk_member(grammar, args.word)  # raises on a foreign symbol
    print("accept" if accepted else "reject")
    if tree is not None:
        print(cfg.format_tree(tree))
    return 0 if accepted else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _check_cap(args.max_len)
    grammar = resolve_grammar(args.which, args.rank)
    for word in sorted(cfg.enumerate_language(grammar, args.max_len), key=words.symbol_sort_key):
        print(word)
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    _check_cap(args.max_len)
    grammar = resolve_grammar(args.which, args.rank)
    predicate, marked = oracle_for(args.which, args.rank)
    enumerate_items = oracle.enumerate_marked if marked else oracle.enumerate_words
    universe = enumerate_items(args.rank, args.max_len)
    report = oracle.crosscheck(grammar, predicate, universe, jobs=args.jobs)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.clean else 1


def _cmd_munn(args: argparse.Namespace) -> int:
    tree = munn.build_munn(words.parse_word(args.word, args.rank))
    if args.format == "dot":
        sys.stdout.write(munn.render_dot(tree))
    else:
        sys.stdout.write(munn.render_ascii(tree))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fimcowp",
        description="Grammars and Munn-tree oracles for co-word problems of "
        "free inverse monoids of finite rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide wp/cowp/k1/k2 membership with the Munn-tree oracle")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--mode", choices=["wp", "cowp", "k1", "k2"], required=True)
    p.add_argument("words", nargs="+", help="a marked word u#t, or a pair of words u v")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("grammar", help="print a grammar")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--which", required=True, help=GRAMMAR_CHOICES)
    p.add_argument("--format", choices=["bnf", "json"], default="bnf")
    p.add_argument("--cnf", action="store_true", help="convert to Chomsky normal form first")
    p.set_defaults(func=_cmd_grammar)

    p = sub.add_parser("parse", help="test membership of a word in a grammar")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--which", required=True, help=GRAMMAR_CHOICES)
    p.add_argument("--tree", action="store_true", help="print a derivation tree on accept")
    p.add_argument("word")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("enumerate", help="list the language up to a length bound")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--which", required=True, help=GRAMMAR_CHOICES)
    p.add_argument("--max-len", type=_nonneg, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("crosscheck", help="compare a grammar against its semantic oracle")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--which", required=True, help=GRAMMAR_CHOICES)
    p.add_argument("--max-len", type=_nonneg, required=True)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("munn", help="render the Munn tree of a word")
    p.add_argument("--rank", type=_rank, required=True)
    p.add_argument("--format", choices=["dot", "ascii"], default="dot")
    p.add_argument("word")
    p.set_defaults(func=_cmd_munn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (words.WordSyntaxError, cfg.GrammarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
