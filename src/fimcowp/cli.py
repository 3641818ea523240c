"""Command-line surface: decide, grammar, parse, enumerate, crosscheck, munn.

Exit codes are uniform: 0 for true/accept/clean, 1 for false/reject or a
crosscheck with disagreements, 2 for usage or word-syntax errors, and 141
(128 + SIGPIPE, as for a process the signal ends) when stdout is closed
before the output is written.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Callable

from . import cfg, fim_grammars, munn, oracle, words

if TYPE_CHECKING:
    import argparse

HARD_CAP_ENV = "FIMCOWP_MAXLEN_HARD"
HARD_CAP_DEFAULT = 14

# the longest word parse and munn take.  Chart time and munn's output grow
# about as the square of the length on the costliest words: at this length
# parse on (aA)^500 # (aA)^499 a under coWP-FIM at rank 2 takes about 11 s
PARSE_CAP = 2000

GRAMMAR_CHOICES = ", ".join(fim_grammars.LANGUAGES)


def _rank(text: str) -> int:
    import argparse  # only argparse calls the type checkers, so it is loaded

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"rank must be an integer, got {text!r}")
    if not 1 <= value <= words.MAX_RANK:
        raise argparse.ArgumentTypeError(f"rank must be between 1 and {words.MAX_RANK}")
    return value


def _int_at_least(low: int, kind: str) -> Callable[[str], int]:
    """An argparse type for `kind` integers, those of at least `low`."""
    def check(text: str) -> int:
        import argparse

        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer")
        return value
    return check


_nonneg = _int_at_least(0, "nonnegative")
_jobs = _int_at_least(1, "positive")  # a worker count; crosscheck lowers it to the CPUs it may use


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
    accepted = cfg.cyk_member(grammar, args.word)  # raises on a foreign symbol
    print("accept" if accepted else "reject")
    if accepted and args.tree:
        print(cfg.format_tree(cfg.derive(grammar, args.word)))  # reads the same chart
    return 0 if accepted else 1


def _cmd_enumerate(args: argparse.Namespace) -> int:
    grammar = resolve_grammar(args.which, args.rank)
    for word in sorted(cfg.enumerate_language(grammar, args.max_len), key=words.symbol_sort_key):
        print(word)
    return 0


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    grammar = resolve_grammar(args.which, args.rank)
    predicate, marked = oracle_for(args.which, args.rank)
    enumerate_items = oracle.enumerate_marked if marked else oracle.enumerate_words
    universe = enumerate_items(args.rank, args.max_len)
    report = oracle.crosscheck(grammar, predicate, universe, jobs=args.jobs)
    import json

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
    import argparse  # here, so that importing the module does not load it

    parser = argparse.ArgumentParser(
        prog="fimcowp",
        description="Grammars and Munn-tree oracles for co-word problems of "
        "free inverse monoids of finite rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ranked = argparse.ArgumentParser(add_help=False)
    ranked.add_argument("--rank", type=_rank, required=True)
    named = argparse.ArgumentParser(add_help=False, parents=[ranked])
    named.add_argument("--which", required=True, help=GRAMMAR_CHOICES)

    p = sub.add_parser("decide", parents=[ranked],
                       help="decide wp/cowp/k1/k2 membership with the Munn-tree oracle")
    p.add_argument("--mode", choices=["wp", "cowp", "k1", "k2"], required=True)
    p.add_argument("words", nargs="+", help="a marked word u#t, or a pair of words u v")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("grammar", parents=[named], help="print a grammar")
    p.add_argument("--format", choices=["bnf", "json"], default="bnf")
    p.add_argument("--cnf", action="store_true", help="convert to Chomsky normal form first")
    p.set_defaults(func=_cmd_grammar)

    p = sub.add_parser("parse", parents=[named], help="test membership of a word in a grammar")
    p.add_argument("--tree", action="store_true", help="print a derivation tree on accept")
    p.add_argument("word", help=f"at most {PARSE_CAP} symbols")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("enumerate", parents=[named], help="list the language up to a length bound")
    p.add_argument("--max-len", type=_nonneg, required=True,
                   help="longest word listed, counting every symbol, # included")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("crosscheck", parents=[named],
                       help="compare a grammar against its semantic oracle")
    p.add_argument("--max-len", type=_nonneg, required=True,
                   help="counts letters only: |w| for a word, |u|+|t| for a marked word u#t")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("munn", parents=[ranked], help="render the Munn tree of a word")
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
        if len(getattr(args, "word", "")) > PARSE_CAP:  # parse and munn
            raise ValueError(f"word of {len(args.word)} symbols exceeds the "
                             f"{args.command} cap {PARSE_CAP}")
        max_len = getattr(args, "max_len", None)  # enumerate and crosscheck
        if max_len is not None and max_len > (cap := _hard_cap()):
            raise ValueError(f"--max-len {max_len} exceeds the hard cap {cap} ({HARD_CAP_ENV})")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here and not at exit
        return code
    except ValueError as exc:  # WordSyntaxError and GrammarError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader stopped early (`| head`): send what is still buffered to
        # devnull, so that the flush at exit cannot fail again, and end as a
        # process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + 13


if __name__ == "__main__":
    sys.exit(main())
