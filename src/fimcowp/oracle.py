"""Exhaustive enumeration and grammar-vs-oracle crosschecking.

The oracle side of a crosscheck only ever calls the Munn-tree deciders, so a
clean report is real evidence that a grammar matches its semantics.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Callable, Iterable, Iterator

from .cfg import Grammar, cyk_member
from .words import MarkedWord, alphabet, symbol_sort_key

EXAMPLE_CAP = 100
_CHUNK = 4096


def enumerate_words(rank: int, max_len: int) -> Iterator[str]:
    """Every word of length <= max_len, once, in length-then-lex order."""
    if max_len < 0:
        raise ValueError("length bound must be nonnegative")
    letters = alphabet(rank)
    for length in range(max_len + 1):
        yield from map("".join, product(letters, repeat=length))


def enumerate_marked(rank: int, max_len: int) -> Iterator[MarkedWord]:
    """Every marked word with |left| + |right| <= max_len, once, in
    length-then-lex order with the marker sorting after all letters."""
    if max_len < 0:
        raise ValueError("length bound must be nonnegative")
    letters = alphabet(rank)

    def split(total: int) -> Iterator[tuple[str, str]]:
        # (u, t) with |u| + |t| = total, in the order of the text u#t
        if total:
            for letter in letters:
                for left, right in split(total - 1):
                    yield letter + left, right
        for right in product(letters, repeat=total):
            yield "", "".join(right)

    for total in range(max_len + 1):
        for left, right in split(total):
            yield MarkedWord(left, right)


@dataclass
class CrosscheckReport:
    universe: int
    agreements: int
    false_accepts: list[str]
    false_rejects: list[str]
    false_accept_count: int
    false_reject_count: int
    elapsed_ms: float = field(compare=False)

    @property
    def clean(self) -> bool:
        return self.false_accept_count == 0 and self.false_reject_count == 0

    def to_json_dict(self) -> dict:
        return {
            "universe": self.universe,
            "agreements": self.agreements,
            "false_accepts": list(self.false_accepts),
            "false_accept_count": self.false_accept_count,
            "false_rejects": list(self.false_rejects),
            "false_reject_count": self.false_reject_count,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _check_block(
    grammar: Grammar, predicate: Callable, items: Iterable
) -> tuple[int, int, int, int, list[str], list[str]]:
    total = agree = fa_count = fr_count = 0
    false_accepts: list[str] = []
    false_rejects: list[str] = []
    for item in items:
        text = str(item)
        accepted = cyk_member(grammar, text)
        expected = bool(predicate(item))
        total += 1
        if accepted == expected:
            agree += 1
        elif accepted:
            fa_count += 1
            if len(false_accepts) < EXAMPLE_CAP:
                false_accepts.append(text)
        else:
            fr_count += 1
            if len(false_rejects) < EXAMPLE_CAP:
                false_rejects.append(text)
    return total, agree, fa_count, fr_count, false_accepts, false_rejects


def _run_chunk(args: tuple) -> tuple:
    return _check_block(*args)


def crosscheck(
    grammar: Grammar,
    predicate: Callable,
    universe: Iterable,
    jobs: int = 1,
) -> CrosscheckReport:
    """Run the grammar (via CYK) and the semantic predicate over every item
    of the universe and report all disagreements, capping stored
    counterexamples at EXAMPLE_CAP per side.

    With jobs > 1 the universe is split into chunks evaluated in worker
    processes; grammar and predicate must then be picklable.
    """
    started = time.perf_counter()
    if jobs <= 1:
        total, agree, fa_count, fr_count, fas, frs = _check_block(
            grammar, predicate, universe
        )
    else:
        it = iter(universe)
        chunks = iter(lambda: list(islice(it, _CHUNK)), [])
        total = agree = fa_count = fr_count = 0
        fas, frs = [], []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            args = ((grammar, predicate, chunk) for chunk in chunks)
            for t, a, fac, frc, fa, fr in pool.map(_run_chunk, args):
                total += t
                agree += a
                fa_count += fac
                fr_count += frc
                fas.extend(fa)
                frs.extend(fr)
    # per-chunk caps keep every earliest counterexample, so sort-and-trim
    # reproduces the serial report exactly
    fas = sorted(fas, key=symbol_sort_key)[:EXAMPLE_CAP]
    frs = sorted(frs, key=symbol_sort_key)[:EXAMPLE_CAP]
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return CrosscheckReport(total, agree, fas, frs, fa_count, fr_count, elapsed_ms)
