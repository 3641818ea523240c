"""Generic context-free grammar engine.

Grammars are immutable; symbols are strings, with terminals restricted to
single characters so that plain Python strings double as words.  Membership
runs CYK over a memoized Chomsky-normal-form image, on a chart that grows
one end column per pushed symbol and drops the last column on pop; words
that share a prefix can share its columns, as crosscheck does.  Derivation
trees come from a worklist chart on the untransformed grammar, so reported
productions are always the caller's own.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .words import EPSILON_TOKEN

# grammars whose CNF image and CYK tables stay cached
_CACHE_SIZE = 32


class GrammarError(ValueError):
    """Malformed grammar, or input outside a grammar's alphabet."""


class Production(NamedTuple):
    head: str
    body: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class Grammar:
    terminals: frozenset[str]
    nonterminals: frozenset[str]
    productions: tuple[Production, ...]
    start: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        prods = tuple(sorted({Production(h, tuple(b)) for h, b in self.productions}))
        object.__setattr__(self, "productions", prods)
        self._validate()
        key = (self.terminals, self.nonterminals, prods, self.start)
        object.__setattr__(self, "_hash", hash(key))

    def _validate(self) -> None:
        overlap = self.terminals & self.nonterminals
        if overlap:
            raise GrammarError(f"symbols both terminal and nonterminal: {sorted(overlap)}")
        for t in self.terminals:
            if len(t) != 1:
                raise GrammarError(f"terminal symbols must be single characters: {t!r}")
        if self.start not in self.nonterminals:
            raise GrammarError(f"start symbol {self.start!r} is not a declared nonterminal")
        declared = self.terminals | self.nonterminals
        for head, body in self.productions:
            if head not in self.nonterminals:
                raise GrammarError(f"production head {head!r} is not a declared nonterminal")
            for symbol in body:
                if symbol not in declared:
                    raise GrammarError(f"undeclared symbol {symbol!r} in production for {head!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Grammar):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.start == other.start
            and self.terminals == other.terminals
            and self.nonterminals == other.nonterminals
            and self.productions == other.productions
        )

    def __hash__(self) -> int:
        return self._hash


def grammar_stats(grammar: Grammar) -> tuple[int, int]:
    return len(grammar.nonterminals), len(grammar.productions)


def grammar_to_bnf(grammar: Grammar) -> str:
    """Deterministic BNF text: heads lexicographic, bodies lexicographic,
    the empty body rendered as the epsilon token."""
    bodies: dict[str, list[tuple[str, ...]]] = {}
    for head, body in grammar.productions:
        bodies.setdefault(head, []).append(body)
    lines = []
    for head in sorted(bodies):
        alts = [" ".join(b) if b else EPSILON_TOKEN for b in sorted(bodies[head])]
        lines.append(f"{head} -> {' | '.join(alts)}")
    return "\n".join(lines) + "\n"


def grammar_to_json_dict(grammar: Grammar) -> dict:
    return {
        "terminals": sorted(grammar.terminals),
        "nonterminals": sorted(grammar.nonterminals),
        "start": grammar.start,
        "productions": [{"head": h, "body": list(b)} for h, b in grammar.productions],
    }


def grammar_to_json(grammar: Grammar) -> str:
    return json.dumps(grammar_to_json_dict(grammar), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Chomsky normal form


@lru_cache(maxsize=_CACHE_SIZE)
def to_cnf(grammar: Grammar) -> Grammar:
    """CNF image with a fresh non-recursive start; generates exactly the same
    language, keeping the empty word iff the original derives it.

    Pipeline: fresh start, terminal wrapping, binarization, nullable
    elimination, unit elimination, trim of unproductive/unreachable symbols.
    """
    used = set(grammar.nonterminals) | set(grammar.terminals)

    def fresh(base: str) -> str:
        name, k = base, 1
        while name in used:
            k += 1
            name = f"{base}{k}"
        used.add(name)
        return name

    start = fresh(grammar.start + "'")
    prods = [Production(start, (grammar.start,))] + list(grammar.productions)

    # TERM: wrap terminals occurring in bodies of length >= 2
    wrappers: dict[str, str] = {}

    def wrap(t: str) -> str:
        if t not in wrappers:
            wrappers[t] = fresh(f"[{t}]")
        return wrappers[t]

    termed = []
    for head, body in prods:
        if len(body) >= 2:
            body = tuple(wrap(s) if s in grammar.terminals else s for s in body)
        termed.append(Production(head, body))
    termed.extend(Production(name, (t,)) for t, name in wrappers.items())

    # BIN: split bodies longer than two
    binned = []
    counters: dict[str, int] = {}
    for head, body in termed:
        if len(body) <= 2:
            binned.append(Production(head, body))
            continue
        current = head
        rest = list(body)
        while len(rest) > 2:
            counters[head] = counters.get(head, 0) + 1
            aux = fresh(f"{head}.{counters[head]}")
            binned.append(Production(current, (rest[0], aux)))
            current = aux
            rest = rest[1:]
        binned.append(Production(current, tuple(rest)))

    # DEL: drop nullable occurrences; keep epsilon only at the start
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in binned:
            if head not in nullable and all(s in nullable for s in body):
                nullable.add(head)
                changed = True
    deleted: set[Production] = set()
    for head, body in binned:
        variants: set[tuple[str, ...]] = {()}
        for symbol in body:
            grown = {v + (symbol,) for v in variants}
            variants = grown | variants if symbol in nullable else grown
        for v in variants:
            if v:
                deleted.add(Production(head, v))
    if start in nullable:
        deleted.add(Production(start, ()))

    # UNIT: close over single-nonterminal bodies, then drop them
    def is_unit(p: Production) -> bool:
        return len(p.body) == 1 and p.body[0] not in grammar.terminals

    pairs = {(p.head, p.body[0]) for p in deleted if is_unit(p)}
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for b2, c in list(pairs):
                if b2 == b and (a, c) not in pairs:
                    pairs.add((a, c))
                    changed = True
    by_head: dict[str, list[Production]] = {}
    for p in deleted:
        if not is_unit(p):
            by_head.setdefault(p.head, []).append(p)
    unitless = {p for p in deleted if not is_unit(p)}
    for a, b in pairs:
        for p in by_head.get(b, []):
            unitless.add(Production(a, p.body))

    # TRIM: productive then reachable
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, body in unitless:
            if head not in productive and all(
                s in grammar.terminals or s in productive for s in body
            ):
                productive.add(head)
                changed = True
    trimmed = {
        p
        for p in unitless
        if p.head in productive
        and all(s in grammar.terminals or s in productive for s in p.body)
    }
    reachable = {start}
    changed = True
    while changed:
        changed = False
        for head, body in trimmed:
            if head in reachable:
                for s in body:
                    if s not in grammar.terminals and s not in reachable:
                        reachable.add(s)
                        changed = True
    final = {p for p in trimmed if p.head in reachable}
    nts = {start} | {p.head for p in final}
    for _, body in final:
        nts.update(s for s in body if s not in grammar.terminals)

    cnf = Grammar(grammar.terminals, frozenset(nts), tuple(final), start)
    for head, body in cnf.productions:
        assert (
            (len(body) == 2 and all(s in cnf.nonterminals for s in body))
            or (len(body) == 1 and body[0] in cnf.terminals)
            or (body == () and head == start)
        ), f"not CNF: {head} -> {body}"
    return cnf


# ---------------------------------------------------------------------------
# CYK membership


class _CYKTables(NamedTuple):
    accepts_empty: bool
    start: int
    terminal_heads: dict[str, tuple[int, ...]]
    # left child B -> ((right child C, bitmask of the heads A of A -> B C), ...)
    by_left: dict[int, tuple[tuple[int, int], ...]]
    # left child B -> bitmask of its right children C
    rights: dict[int, int]
    size: int


@lru_cache(maxsize=_CACHE_SIZE)
def _cyk_tables(grammar: Grammar) -> _CYKTables:
    cnf = to_cnf(grammar)
    ids = {nt: i for i, nt in enumerate(sorted(cnf.nonterminals))}
    terminal_heads: dict[str, list[int]] = {}
    pairs: dict[int, dict[int, int]] = {}
    accepts_empty = False
    for head, body in cnf.productions:
        if body == ():
            accepts_empty = True
        elif len(body) == 1:
            terminal_heads.setdefault(body[0], []).append(ids[head])
        else:
            by_right = pairs.setdefault(ids[body[0]], {})
            by_right[ids[body[1]]] = by_right.get(ids[body[1]], 0) | 1 << ids[head]
    return _CYKTables(
        accepts_empty,
        ids[cnf.start],
        {t: tuple(v) for t, v in terminal_heads.items()},
        {b: tuple(cs.items()) for b, cs in pairs.items()},
        {b: sum(1 << c for c in cs) for b, cs in pairs.items()},
        len(ids),
    )


class _Chart:
    """CYK chart on the CNF image, grown and shrunk one end column at a time.

    Row i maps each nonterminal A to the bitmask of end positions j with
    A =>* w[i:j].  Pushing a symbol adds end column j and fills its cells
    from start j-1 down to 0; a cell tries only the binary rules whose left
    child is set somewhere in its row.  Each column keeps the (row,
    nonterminal) entries it set, so pop() undoes exactly that column.
    """

    def __init__(self, grammar: Grammar) -> None:
        self._terminals = grammar.terminals
        self._tables = _cyk_tables(grammar)
        self._rows: list[dict[int, int]] = []
        self._undo: list[list[tuple[dict[int, int], int]]] = []

    def push(self, symbol: str) -> None:
        if symbol not in self._terminals:
            raise GrammarError(f"symbol {symbol!r} is not a terminal of this grammar")
        tables = self._tables
        by_left, rights = tables.by_left, tables.rights
        rows = self._rows
        j = len(rows) + 1
        jbit = 1 << j
        heads = tables.terminal_heads.get(symbol, ())
        rows.append(dict.fromkeys(heads, jbit))
        # column[C]: bitmask of starts k > i with C =>* w[k:j]; present: those C
        column = [0] * tables.size
        present = 0
        for a in heads:
            column[a] = 1 << (j - 1)
            present |= 1 << a
        undo = []  # row j-1 is new and goes whole on pop
        for i in range(j - 2, -1, -1):
            row = rows[i]
            found = 0
            for b, ends in row.items():
                if rights.get(b, 0) & present:
                    for c, cell_heads in by_left[b]:
                        if ends & column[c]:
                            found |= cell_heads
            if found:
                ibit = 1 << i
                present |= found
                while found:
                    low = found & -found
                    found ^= low
                    a = low.bit_length() - 1
                    row[a] = row.get(a, 0) | jbit
                    column[a] |= ibit
                    undo.append((row, a))
        self._undo.append(undo)

    def __len__(self) -> int:
        """The number of symbols pushed and not popped."""
        return len(self._rows)

    def pop(self) -> None:
        jbit = 1 << len(self._rows)
        self._rows.pop()
        for row, a in self._undo.pop():
            ends = row[a] ^ jbit
            if ends:
                row[a] = ends
            else:
                del row[a]

    def accepts(self) -> bool:
        """Whether the symbols pushed so far form a word of the language."""
        n = len(self._rows)
        if n == 0:
            return self._tables.accepts_empty
        return bool(self._rows[0].get(self._tables.start, 0) >> n & 1)


def cyk_member(grammar: Grammar, word: Sequence[str]) -> bool:
    """Membership via CYK on the CNF image: a fresh chart with every symbol
    pushed."""
    chart = _Chart(grammar)
    for symbol in word:
        chart.push(symbol)
    return chart.accepts()


# ---------------------------------------------------------------------------
# Bounded enumeration


def enumerate_language(grammar: Grammar, max_len: int) -> set[str]:
    """Exactly the words of length <= max_len, by a fixpoint that grows each
    nonterminal's word set until nothing changes."""
    if max_len < 0:
        raise GrammarError("length bound must be nonnegative")
    known: dict[str, set[str]] = {nt: set() for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for head, body in grammar.productions:
            acc = {""}
            for symbol in body:
                if symbol in grammar.terminals:
                    acc = {w + symbol for w in acc if len(w) < max_len}
                else:
                    acc = {
                        w + u
                        for w in acc
                        for u in known[symbol]
                        if len(w) + len(u) <= max_len
                    }
                if not acc:
                    break
            new = acc - known[head]
            if new:
                known[head] |= new
                changed = True
    return set(known[grammar.start])


# ---------------------------------------------------------------------------
# Derivation trees


@dataclass(frozen=True)
class DerivationTree:
    root: str
    production: Production
    children: tuple[Union["DerivationTree", str], ...]

    def frontier(self) -> str:
        out: list[str] = []
        stack: list[DerivationTree | str] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return "".join(out)

    def productions(self) -> list[Production]:
        """Pre-order trace of the productions applied."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node.production)
            stack.extend(c for c in reversed(node.children) if isinstance(c, DerivationTree))
        return out


def format_tree(tree: DerivationTree, indent: int = 0) -> str:
    lines = []
    stack: list[tuple[DerivationTree | str, int]] = [(tree, indent)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node, str):
            lines.append(pad + node)
            continue
        body = " ".join(node.production.body) if node.production.body else EPSILON_TOKEN
        lines.append(f"{pad}{node.root} -> {body}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines)


def derive(grammar: Grammar, word: Sequence[str]) -> DerivationTree | None:
    """One derivation tree for the word in the grammar's own productions, or
    None when the word is not generated (including symbols off the alphabet).

    Runs a worklist chart directly on the untransformed grammar: items state
    that a symbol, or a production-body suffix, derives a given span.  The
    witness recorded when an item first becomes true refers only to items
    derived strictly earlier, so tree extraction terminates.
    """
    symbols = tuple(word)
    if any(s not in grammar.terminals for s in symbols):
        return None
    n = len(symbols)

    by_full_body: dict[tuple[str, ...], list[str]] = {}
    suffixes: set[tuple[str, ...]] = set()
    for head, body in grammar.productions:
        by_full_body.setdefault(body, []).append(head)
        for k in range(len(body) + 1):
            suffixes.add(body[k:])
    by_first: dict[str, list[tuple[str, ...]]] = {}
    by_rest: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for sfx in sorted(suffixes):
        if sfx:
            by_first.setdefault(sfx[0], []).append(sfx)
            by_rest.setdefault(sfx[1:], []).append(sfx)

    one_by_end: dict[tuple[str, int], list[int]] = {}
    seq_by_start: dict[tuple[tuple[str, ...], int], list[int]] = {}
    one_seen: set[tuple[str, int, int]] = set()
    seq_wit: dict[tuple[tuple[str, ...], int, int], int | None] = {}
    nt_wit: dict[tuple[str, int, int], Production] = {}
    queue: deque[tuple] = deque()

    def add_one(sym: str, i: int, j: int) -> None:
        if (sym, i, j) in one_seen:
            return
        one_seen.add((sym, i, j))
        one_by_end.setdefault((sym, j), []).append(i)
        queue.append(("one", sym, i, j))

    def add_seq(sfx: tuple[str, ...], i: int, j: int, split: int | None) -> None:
        if (sfx, i, j) in seq_wit:
            return
        seq_wit[(sfx, i, j)] = split
        seq_by_start.setdefault((sfx, i), []).append(j)
        queue.append(("seq", sfx, i, j))

    def add_nt(head: str, i: int, j: int, prod: Production) -> None:
        if (head, i, j) not in nt_wit:
            nt_wit[(head, i, j)] = prod
        add_one(head, i, j)

    for i in range(n + 1):
        add_seq((), i, i, None)
    for i, s in enumerate(symbols):
        add_one(s, i, i + 1)

    while queue:
        item = queue.popleft()
        if item[0] == "one":
            _, sym, i, k = item
            for sfx in by_first.get(sym, ()):
                for j in list(seq_by_start.get((sfx[1:], k), ())):
                    add_seq(sfx, i, j, k)
        else:
            _, sfx0, k, j = item
            for head in by_full_body.get(sfx0, ()):
                add_nt(head, k, j, Production(head, sfx0))
            for sfx in by_rest.get(sfx0, ()):
                for i in list(one_by_end.get((sfx[0], k), ())):
                    add_seq(sfx, i, j, k)

    if (grammar.start, 0, n) not in nt_wit:
        return None

    def expand(sym: str, i: int, j: int) -> list:
        """A frame for the tree of sym over [i, j): its production, its
        children still to build (terminals, or keys of nonterminal items),
        and the children built so far."""
        prod = nt_wit[(sym, i, j)]
        pending: list[str | tuple[str, int, int]] = []
        pos, sfx = i, prod.body
        while sfx:
            split = seq_wit[(sfx, pos, j)]
            assert split is not None
            first = sfx[0]
            pending.append(first if first in grammar.terminals else (first, pos, split))
            pos, sfx = split, sfx[1:]
        return [prod, iter(pending), []]

    # depth-first with an explicit stack: trees can be as deep as the word is long
    stack = [expand(grammar.start, 0, n)]
    while True:
        prod, pending, children = stack[-1]
        child = next(pending, None)
        if child is None:
            stack.pop()
            tree = DerivationTree(prod.head, prod, tuple(children))
            if not stack:
                return tree
            stack[-1][2].append(tree)
        elif isinstance(child, str):
            children.append(child)
        else:
            stack.append(expand(*child))


# ---------------------------------------------------------------------------
# Closure transformations


def reverse_invert_grammar(grammar: Grammar, involution: Mapping[str, str]) -> Grammar:
    """Reverse every production body and replace each terminal by its image;
    terminals missing from the mapping stay fixed.  The language becomes the
    reverse-inverse image of the original."""

    def image(t: str) -> str:
        return involution.get(t, t)

    for t in grammar.terminals:
        if image(t) not in grammar.terminals or image(image(t)) != t:
            raise GrammarError("mapping is not an involution on the terminal set")
    prods = [
        Production(h, tuple(image(s) if s in grammar.terminals else s for s in reversed(b)))
        for h, b in grammar.productions
    ]
    return Grammar(grammar.terminals, grammar.nonterminals, tuple(prods), grammar.start)


def insert_marker_grammar(grammar: Grammar, marker: str) -> Grammar:
    """Grammar for {w1 marker w2 : w1 w2 in L(grammar)}.

    Every nonterminal V splits into V^0 (emits no marker) and V^1 (emits
    exactly one); a V^1 body either promotes one nonterminal to its ^1
    variant or drops the marker into one of the gaps.
    """
    if marker in grammar.terminals:
        raise GrammarError(f"marker {marker!r} already a terminal")
    lo = {v: f"{v}^0" for v in grammar.nonterminals}
    hi = {v: f"{v}^1" for v in grammar.nonterminals}
    fresh = set(lo.values()) | set(hi.values())
    if fresh & (grammar.nonterminals | grammar.terminals):
        raise GrammarError("marker-variant names collide with existing symbols")
    prods = []
    for head, body in grammar.productions:
        low_body = tuple(lo.get(s, s) for s in body)
        prods.append(Production(lo[head], low_body))
        for idx, symbol in enumerate(body):
            if symbol in grammar.nonterminals:
                promoted = list(low_body)
                promoted[idx] = hi[symbol]
                prods.append(Production(hi[head], tuple(promoted)))
        for gap in range(len(body) + 1):
            prods.append(Production(hi[head], low_body[:gap] + (marker,) + low_body[gap:]))
    return Grammar(
        grammar.terminals | {marker}, frozenset(fresh), tuple(prods), hi[grammar.start]
    )


def union_grammar(grammars: Sequence[Grammar]) -> Grammar:
    """Fresh start with one production per constituent start; constituent
    nonterminals are renamed apart unconditionally."""
    if not grammars:
        raise GrammarError("union of zero grammars")
    terminals = frozenset().union(*(g.terminals for g in grammars))
    prods: list[Production] = []
    starts: list[str] = []
    nts: set[str] = set()
    for idx, g in enumerate(grammars, start=1):
        renamed = {v: f"{v}@{idx}" for v in g.nonterminals}
        nts.update(renamed.values())
        prods.extend(
            Production(renamed[h], tuple(renamed.get(s, s) for s in b))
            for h, b in g.productions
        )
        starts.append(renamed[g.start])
    start = "S"
    while start in nts or start in terminals:
        start += "'"
    nts.add(start)
    prods.extend(Production(start, (s,)) for s in starts)
    return Grammar(terminals, frozenset(nts), tuple(prods), start)
