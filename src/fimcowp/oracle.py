"""Exhaustive enumeration and grammar-vs-oracle crosschecking.

The oracle side of a crosscheck only ever calls the Munn-tree deciders, so a
clean report is real evidence that a grammar matches its semantics.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Callable, Iterable, Iterator

from .cfg import Grammar, _Chart
from .cfg import cyk_member  # noqa: F401  kept: perfbench/layers.py traces it here by name
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
    """Check each item on one chart: pop back to the longest common prefix
    with the previous item's text, then push the rest.  Neighbours in
    length-then-lex order share most of their prefix; any order is correct."""
    total = agree = fa_count = fr_count = 0
    false_accepts: list[str] = []
    false_rejects: list[str] = []
    chart = _Chart(grammar)
    previous = ""
    for item in items:
        text = str(item)
        keep = len(os.path.commonprefix((previous, text)))
        for _ in range(len(previous) - keep):
            chart.pop()
        for symbol in text[keep:]:
            chart.push(symbol)
        previous = text
        accepted = chart.accepts()
        expected = bool(predicate(item))
        total += 1
        if accepted == expected:
            agree += 1
        elif accepted:
            fa_count += 1
            false_accepts.append(text)
            if len(false_accepts) == 2 * EXAMPLE_CAP:
                false_accepts = _smallest(false_accepts)
        else:
            fr_count += 1
            false_rejects.append(text)
            if len(false_rejects) == 2 * EXAMPLE_CAP:
                false_rejects = _smallest(false_rejects)
    return total, agree, fa_count, fr_count, _smallest(false_accepts), _smallest(false_rejects)


def _smallest(examples: list[str]) -> list[str]:
    """The first EXAMPLE_CAP examples in canonical order, whatever order
    they were found in."""
    return sorted(examples, key=symbol_sort_key)[:EXAMPLE_CAP]


# a worker process's grammar and predicate, set once by the pool initializer
_worker_args: tuple = ()


def _init_worker(grammar: Grammar, predicate: Callable) -> None:
    global _worker_args
    _worker_args = (grammar, predicate)


def _run_chunk(chunk: list) -> tuple:
    return _check_block(*_worker_args, chunk)


def _pooled_blocks(
    grammar: Grammar, predicate: Callable, universe: Iterable, jobs: int
) -> Iterator[tuple]:
    """The results of the universe's chunks, in chunk order, from worker
    processes; at most two chunks per worker are in flight, so memory
    follows jobs, not the size of the universe."""
    it = iter(universe)
    chunks = iter(lambda: list(islice(it, _CHUNK)), [])
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(grammar, predicate)
    ) as pool:
        in_flight: deque = deque()
        for chunk in chunks:
            in_flight.append(pool.submit(_run_chunk, chunk))
            if len(in_flight) == 2 * jobs:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()


def crosscheck(
    grammar: Grammar,
    predicate: Callable,
    universe: Iterable,
    jobs: int = 1,
) -> CrosscheckReport:
    """Run the grammar (via its chart) and the semantic predicate over every
    item of the universe and report all disagreements, capping stored
    counterexamples at EXAMPLE_CAP per side.

    With jobs > 1 the universe is split into chunks evaluated in worker
    processes, at most one per CPU; grammar and predicate must then be
    picklable, and are sent once to each worker.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    started = time.perf_counter()
    if jobs == 1:
        blocks: Iterable[tuple] = [_check_block(grammar, predicate, universe)]
    else:
        blocks = _pooled_blocks(grammar, predicate, universe, jobs)
    counts, fas, frs = [0, 0, 0, 0], [], []
    for *block_counts, fa, fr in blocks:
        counts = [x + y for x, y in zip(counts, block_counts)]
        # each block keeps its earliest counterexamples, so the earliest
        # overall are among them
        fas, frs = _smallest(fas + fa), _smallest(frs + fr)
    total, agree, fa_count, fr_count = counts
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return CrosscheckReport(total, agree, fas, frs, fa_count, fr_count, elapsed_ms)
