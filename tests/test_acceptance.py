"""Acceptance suite: every criterion at its stated bound, one printed
pass/fail line per criterion (run with ``pytest -v -s tests/test_acceptance.py``).
"""

import random
import time
from pathlib import Path

from fimcowp import (
    alphabet,
    build_munn,
    cowp_fim_grammar,
    crosscheck,
    cyk_member,
    enumerate_marked,
    enumerate_words,
    fim_equal,
    grammar_stats,
    grammar_to_bnf,
    in_k1,
    k1_grammar,
    language,
    munn_product,
    sample_kmn,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_idempotent_grammar_equivalence():
    started = time.perf_counter()
    e1, e2 = language("E", 1), language("E", 2)
    r1 = crosscheck(e1.grammar(), e1.oracle, enumerate_words(1, 10))
    r2 = crosscheck(e2.grammar(), e2.oracle, enumerate_words(2, 8))
    ok = r1.clean and r1.universe == 2047 and r2.clean and r2.universe == 87381
    _report(
        "criterion 1: idempotent grammar == free-reduction oracle "
        "(rank 1 len<=10, rank 2 len<=8)",
        ok,
        f"{r1.universe}+{r2.universe} words, {time.perf_counter() - started:.1f}s",
    )


def test_criterion_2_avoiding_grammar_equivalence():
    started = time.perf_counter()
    checked = 0
    ok = True
    for rank, bound in ((1, 10), (2, 8)):
        for x in alphabet(rank):
            zx = language(f"Zx:{x}", rank)
            report = crosscheck(zx.grammar(), zx.oracle, enumerate_words(rank, bound))
            checked += report.universe
            ok = ok and report.clean
    _report(
        "criterion 2: avoiding grammars == (idempotent and avoids x) for every letter",
        ok,
        f"{checked} words, {time.perf_counter() - started:.1f}s",
    )


def test_criterion_3_cowp_union_and_k1_k2_equivalence():
    started = time.perf_counter()
    ok = True
    total = 0
    for rank, bound in ((1, 6), (2, 5)):
        for which in ("coWP-FIM", "K1", "K2"):
            row = language(which, rank)
            report = crosscheck(row.grammar(), row.oracle, enumerate_marked(rank, bound))
            total += report.universe
            ok = ok and report.clean
    _report(
        "criterion 3: coWP-FIM union, K1, K2 == Munn-tree oracles "
        "(rank 1 len<=6, rank 2 len<=5)",
        ok,
        f"{total} memberships, {time.perf_counter() - started:.1f}s",
    )


def test_criterion_4_structured_sampler():
    started = time.perf_counter()
    grid = [(m, n, rank) for m in (0, 1, 2) for n in (0, 1, 2) for rank in (1, 2)]
    ok = True
    for seed in range(1000):
        m, n, rank = grid[seed % len(grid)]
        marked = sample_kmn(rank, m, n, seed)
        u, v = marked.pair()
        if not in_k1(u, v) or not cyk_member(k1_grammar(rank), str(marked)):
            ok = False
            break
    _report(
        "criterion 4: 1000 seeded samples over (m,n) in {0,1,2}^2, both ranks, "
        "all in K1 by oracle and grammar",
        ok,
        f"{time.perf_counter() - started:.1f}s",
    )


def test_criterion_5_munn_product_law():
    started = time.perf_counter()
    words = list(enumerate_words(2, 4))
    trees = {w: build_munn(w) for w in words}
    ok = all(
        munn_product(trees[u], trees[v]) == build_munn(u + v)
        for u in words
        for v in words
    )
    rng = random.Random(20260809)
    letters = alphabet(2)
    for _ in range(10000):
        u = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        v = "".join(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        if munn_product(build_munn(u), build_munn(v)) != build_munn(u + v):
            ok = False
            break
    _report(
        "criterion 5: product law, rank 2, exhaustive len<=4 plus 10000 random pairs",
        ok,
        f"{len(words) ** 2 + 10000} pairs, {time.perf_counter() - started:.1f}s",
    )


def test_criterion_6_wp_cowp_partition():
    started = time.perf_counter()
    grammar = cowp_fim_grammar(1)
    ok = True
    count = 0
    for marked in enumerate_marked(1, 6):
        u, v = marked.pair()
        wp = fim_equal(u, v)
        accepted = cyk_member(grammar, str(marked))
        count += 1
        if wp == accepted:  # exactly one must hold
            ok = False
            break
    _report(
        "criterion 6: WP and grammar-accepted coWP partition the rank-1 marked universe",
        ok,
        f"{count} marked words, {time.perf_counter() - started:.1f}s",
    )


def test_criterion_7_k1_grammar_shape():
    grammar = k1_grammar(1)
    stats_ok = grammar_stats(grammar) == (8, 20)

    fixture_lines = (FIXTURES / "k1_rank1_productions.txt").read_text().splitlines()
    expected = sorted(
        (head.strip(), tuple(body.split()) if body.strip() != "1" else ())
        for head, body in (line.split("->") for line in fixture_lines)
    )
    got = sorted((h, b) for h, b in grammar.productions)
    multiset_ok = got == expected

    bnf = grammar_to_bnf(grammar)
    bnf_ok = (
        bnf == (FIXTURES / "k1_rank1.bnf").read_text()
        and bnf == grammar_to_bnf(k1_grammar(1))
    )
    _report(
        "criterion 7: k1 grammar stats (8, 20), fixture production multiset, "
        "byte-identical BNF",
        stats_ok and multiset_ok and bnf_ok,
    )
