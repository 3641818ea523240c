"""Exhaustive enumeration and grammar-vs-oracle crosschecking.

The oracle side of a crosscheck only ever calls the Munn-tree deciders, so a
clean report is real evidence that a grammar matches its semantics.
"""

from __future__ import annotations

import os
import time
from collections import deque
from itertools import islice, product
from typing import Callable, Iterable, Iterator, NamedTuple

from .cfg import Grammar, _Chart
from .cfg import cyk_member  # noqa: F401  kept: perfbench/layers.py traces it here by name
from .words import MarkedWord, alphabet, symbol_sort_key

__all__ = [
    "CrosscheckReport",
    "crosscheck",
    "enumerate_marked",
    "enumerate_words",
]

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


class CrosscheckReport(NamedTuple("CrosscheckReport", [
    # the fields in the report's JSON key order, in the functional form as
    # cfg.Production's
    ("universe", int),
    ("agreements", int),
    ("false_accepts", list[str]),
    ("false_accept_count", int),
    ("false_rejects", list[str]),
    ("false_reject_count", int),
    ("elapsed_ms", float),
])):
    __slots__ = ()

    @property
    def clean(self) -> bool:
        return self.false_accept_count == 0 and self.false_reject_count == 0

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "elapsed_ms": round(self.elapsed_ms, 3)}


def _check_block(grammar: Grammar, predicate: Callable, items: Iterable) -> tuple[list, list]:
    """Check each item on one chart that holds the item's stem, its text
    without the last symbol, and probe that symbol.  When the stem is the
    previous item's, the chart is already there; otherwise pop back to the
    longest common prefix of the two stems (counted by one scan that stops at
    the first mismatch) and push the rest in one call.  The empty word reads
    the empty chart.  Neighbours in length-then-lex order share most of
    their stem, at rank 2 three in four share all of it; any order is
    correct.

    An oracle that offers a reader (E's and every Zx:x's, a
    munn.IdempotentReader) is read beside the chart: the same pops, the
    same symbols pushed one at a time, and a probe of the same last symbol,
    each O(1), in memory linear in the stem's length.  Any other oracle
    decides each whole item.
    Returns [false rejects, false accepts, agreements] and the earliest
    examples of the first two: a disagreement is filed under the chart's
    answer."""
    counts, examples = [0, 0, 0], [[], []]
    chart = _Chart(grammar)
    push, pop, probe = chart.push, chart.pop, chart.probe
    reader = predicate.reader() if hasattr(predicate, "reader") else None
    if reader is not None:
        read_push, read_pop, read_probe = reader.push, reader.pop, reader.probe
    previous = ""
    for item in items:
        text = str(item)
        stem = text[:-1]
        if stem != previous:
            keep = 0
            for x, y in zip(previous, stem):
                if x != y:
                    break
                keep += 1
            for _ in range(len(previous) - keep):
                pop()
                if reader is not None:
                    read_pop()
            push(stem[keep:])
            if reader is not None:
                for symbol in stem[keep:]:
                    read_push(symbol)
            previous = stem
        if text:
            symbol = text[-1]
            accepted = probe(symbol)
            truth = bool(predicate(item)) if reader is None else read_probe(symbol)
        else:
            accepted = chart.accepts()
            truth = bool(predicate(item)) if reader is None else reader.accepts()
        if accepted == truth:
            counts[2] += 1
            continue
        counts[accepted] += 1
        examples[accepted].append(text)
        if len(examples[accepted]) == 2 * EXAMPLE_CAP:
            examples[accepted] = _smallest(examples[accepted])
    return counts, [_smallest(found) for found in examples]


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
    follows jobs, not the size of the universe.  The pool module is
    imported here, so a serial call never loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

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
    processes, at most one per CPU the process may run on (its affinity,
    where the platform has one); grammar and predicate must then be
    picklable, and are sent once to each worker.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    started = time.perf_counter()
    if jobs == 1:
        blocks: Iterable[tuple] = [_check_block(grammar, predicate, universe)]
    else:
        blocks = _pooled_blocks(grammar, predicate, universe, jobs)
    counts, examples = [0, 0, 0], [[], []]
    for block_counts, block_examples in blocks:
        counts = [x + y for x, y in zip(counts, block_counts)]
        # each block keeps its earliest counterexamples, so the earliest
        # overall are among them
        examples = [_smallest(x + y) for x, y in zip(examples, block_examples)]
    (frs, fas), (fr_count, fa_count, agree) = examples, counts
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return CrosscheckReport(sum(counts), agree, fas, fa_count, frs, fr_count, elapsed_ms)
