"""Generic context-free grammar engine.

Grammars are immutable; symbols are strings, with terminals restricted to
single characters so that plain Python strings double as words.  Membership
and derivations share one chart over a binarised image of the grammar that
keeps unit and epsilon rules (the 2NF of Lange and Leiss, "To CNF or not to
CNF?", 2009) and bracket rules: a body t X u, terminals at both ends around
one symbol, stays whole and is matched in one bitmask step when its closing
terminal is pushed; other long bodies share one auxiliary per distinct
suffix.  Derivations are read out of the chart in the caller's
own productions.  Chomsky normal form (`to_cnf`) is only an export format.
"""

from __future__ import annotations

from itertools import groupby
from typing import Collection, Iterator, Mapping, NamedTuple, Sequence

from .words import EPSILON_TOKEN

__all__ = [
    "DerivationTree",
    "Grammar",
    "GrammarError",
    "Production",
    "cyk_member",
    "derive",
    "enumerate_language",
    "format_tree",
    "grammar_to_bnf",
    "grammar_to_json",
    "insert_marker_grammar",
    "reverse_invert_grammar",
    "to_cnf",
    "union_grammar",
]


class GrammarError(ValueError):
    """Malformed grammar, or input outside a grammar's alphabet."""


# The NamedTuples here and in words, oracle and fim_grammars are declared in
# the functional form: a field annotation in a class body is a string under
# `from __future__ import annotations`, which typing compiles at import.
Production = NamedTuple("Production", [("head", str), ("body", tuple[str, ...])])


class Grammar:
    """Terminals, nonterminals, productions and start symbol; read-only.
    The productions are deduplicated and sorted.  The chart tables, built on
    the first parse, and the chart of the last word parsed are not part of
    the value."""

    __slots__ = ("terminals", "nonterminals", "productions", "start", "_tables", "_last")

    def __init__(self, terminals: Collection[str], nonterminals: Collection[str],
                 productions: Collection[tuple[str, Sequence[str]]], start: str) -> None:
        prods = tuple(sorted({Production(h, tuple(b)) for h, b in productions}))
        fields = (frozenset(terminals), frozenset(nonterminals), prods, start)
        for name, value in zip(("terminals", "nonterminals", "productions", "start"), fields):
            object.__setattr__(self, name, value)
        self._validate()
        object.__setattr__(self, "_tables", None)
        object.__setattr__(self, "_last", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

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

    def _key(self) -> tuple:
        return self.terminals, self.nonterminals, self.productions, self.start

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"Grammar(terminals={self.terminals!r}, nonterminals={self.nonterminals!r}, "
                f"productions={self.productions!r}, start={self.start!r})")

    def __reduce__(self) -> tuple:
        # rebuild from the four fields: a pickle or a copy carries neither
        # the chart tables nor the last chart
        return Grammar, self._key()


def grammar_to_bnf(grammar: Grammar) -> str:
    """Deterministic BNF text: heads lexicographic, bodies lexicographic
    (the order of `productions`), the empty body rendered as the epsilon
    token."""
    lines = []
    for head, group in groupby(grammar.productions, key=lambda p: p.head):
        alts = [" ".join(body) if body else EPSILON_TOKEN for _, body in group]
        lines.append(f"{head} -> {' | '.join(alts)}")
    return "\n".join(lines) + "\n"


def grammar_to_json(grammar: Grammar) -> str:
    import json

    return json.dumps({
        "terminals": sorted(grammar.terminals),
        "nonterminals": sorted(grammar.nonterminals),
        "start": grammar.start,
        "productions": [{"head": h, "body": list(b)} for h, b in grammar.productions],
    }, indent=2) + "\n"


def _generating(rules: Collection, known: Collection[str] = ()) -> dict:
    """AND-closure: `known` (mapped to None) plus every head of a rule whose
    body is in the result, mapped to the first rule that adds it when the
    rules are scanned in order, round by round, until a round adds nothing."""
    out, size = dict.fromkeys(known), -1
    while size != len(out):
        size = len(out)
        for rule in rules:
            if rule.head not in out and all(s in out for s in rule.body):
                out[rule.head] = rule
    return out


def _reach(edges: Mapping, source) -> set:
    """OR-closure: `source` and every node reachable from it along `edges`
    (node -> its successors), by one depth-first search."""
    seen, stack = {source}, [source]
    while stack:
        for node in edges.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


# ---------------------------------------------------------------------------
# Chomsky normal form


def to_cnf(grammar: Grammar) -> Grammar:
    """CNF image with a fresh non-recursive start; generates exactly the same
    language, keeping the empty word iff the original derives it.  Only an
    export format: membership and derivations use the chart below.

    Pipeline: fresh start; terminal wrapping and binarization in one loop;
    nullable elimination, dropping at most one symbol of each (now at most
    two-symbol) body; unit elimination and trim as one expansion from the
    start, each reached head taking the productive non-unit bodies of every
    symbol its unit chains reach.
    """
    terminals = grammar.terminals
    used = set(grammar.nonterminals) | set(terminals)

    def fresh(base: str) -> str:
        name, k = base, 1
        while name in used:
            k += 1
            name = f"{base}{k}"
        used.add(name)
        return name

    start = fresh(grammar.start + "'")

    # TERM+BIN: wrap terminals in bodies of length >= 2 (a wrapper is made
    # the first time its terminal is seen), split bodies longer than two
    wrappers: dict[str, str] = {}
    binned: list[Production] = []
    counters: dict[str, int] = {}
    for head, body in [Production(start, (grammar.start,)), *grammar.productions]:
        if len(body) >= 2:
            for s in body:
                if s in terminals and s not in wrappers:
                    wrappers[s] = fresh(f"[{s}]")
                    binned.append(Production(wrappers[s], (s,)))
            body = tuple(wrappers.get(s, s) for s in body)
        current = head
        while len(body) > 2:
            counters[head] = counters.get(head, 0) + 1
            aux = fresh(f"{head}.{counters[head]}")
            binned.append(Production(current, (body[0], aux)))
            current, body = aux, body[1:]
        binned.append(Production(current, body))

    # DEL: a body and the body without one nullable symbol, never the empty one
    nullable = _generating(binned)
    table: set[Production] = set()
    for head, body in binned:
        dropped = [body[:i] + body[i + 1:] for i, s in enumerate(body) if s in nullable]
        table.update(Production(head, v) for v in [body, *dropped] if v)

    # UNIT+TRIM: unit chains keep each symbol's words, so the productive
    # symbols are those of the epsilon-free table.  Epsilon stays only at
    # the start, which no body mentions.
    productive = _generating(table, terminals)
    units: dict[str, list] = {}  # A -> every B with A -> B
    kept: dict[str, list] = {}  # A -> its productive bodies of two symbols or one terminal
    for head, body in table:
        if len(body) == 1 and body[0] not in terminals:
            units.setdefault(head, []).append(body[0])
        elif all(s in productive for s in body):
            kept.setdefault(head, []).append(body)
    rules = [(start, ())] if start in nullable else []
    nts, todo = {start}, [start]
    while todo:
        head = todo.pop()
        bodies = {body for b in _reach(units, head) for body in kept.get(b, ())}
        rules.extend((head, body) for body in bodies)
        reached = {s for body in bodies for s in body if s not in terminals} - nts
        nts |= reached
        todo.extend(reached)

    cnf = Grammar(grammar.terminals, frozenset(nts), tuple(rules), start)
    for head, body in cnf.productions:
        assert (
            (len(body) == 2 and all(s in cnf.nonterminals for s in body))
            or (len(body) == 1 and body[0] in cnf.terminals)
            or (body == () and head == start)
        ), f"not CNF: {head} -> {body}"
    return cnf


# ---------------------------------------------------------------------------
# Bounded enumeration


def enumerate_language(grammar: Grammar, max_len: int) -> set[str]:
    """Exactly the words of length <= max_len, grown one length n at a time.
    The words of length 0 come from the nullable symbols.  For n > 0, each
    body first joins the final sets of lengths below n; then the fixpoint
    within length n is the unit closure, A taking the length-n words of
    every B with A ~>* B (A -> ... B ... with every other symbol nullable)."""
    if max_len < 0:
        raise GrammarError("length bound must be nonnegative")
    terminals, nullable = grammar.terminals, _generating(grammar.productions)
    units: dict[str, list[str]] = {}  # A -> every B with A ~> B
    for head, body in grammar.productions:
        for idx, symbol in enumerate(body):
            if symbol not in terminals and all(s in nullable for s in body[:idx] + body[idx + 1:]):
                units.setdefault(head, []).append(symbol)
    closure = {nt: _reach(units, nt) for nt in grammar.nonterminals}
    # symbol -> its words of each length so far: below n while length n grows
    words = {t: [set(), {t}] for t in terminals}
    words.update((nt, [{""} if nt in nullable else set()]) for nt in grammar.nonterminals)
    for n in range(1, max_len + 1):
        joined: dict[str, set[str]] = {nt: set() for nt in grammar.nonterminals}
        for head, body in grammar.productions:
            acc = {0: {""}}  # length -> the prefixes of that length
            for symbol in body:
                grown: dict[int, set[str]] = {}
                for length, prefixes in acc.items():
                    # a nonterminal never takes all of n here: the unit closure does
                    for size, tails in enumerate(words[symbol][: n - length + 1]):
                        if tails:
                            grown.setdefault(length + size, set()).update(
                                w + u for w in prefixes for u in tails
                            )
                acc = grown
            joined[head] |= acc.get(n, set())
        for nt in grammar.nonterminals:
            words[nt].append(set().union(*(joined[b] for b in closure[nt])))
    return set().union(*words[grammar.start])


# ---------------------------------------------------------------------------
# Derivation trees


class DerivationTree(NamedTuple("DerivationTree", [
    ("production", Production),
    ("children", tuple),  # a DerivationTree or a terminal per body symbol
])):
    """A node and its children, terminals as strings; the root is the
    production's head.  Every walk, equality and hashing included, is the
    one pre-order walk `_walk`, and repr keeps its own; both use an explicit
    stack, so depth is not limited by the recursion limit.  A tree equals
    only a tree, never the tuple of its fields."""

    __slots__ = ()

    @property
    def root(self) -> str:
        return self.production.head

    def _walk(self) -> Iterator[tuple[int, DerivationTree | str]]:
        """(depth, node or leaf) in pre-order, this node at depth 0."""
        stack: list[tuple[int, DerivationTree | str]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            if not isinstance(node, str):
                stack.extend((depth + 1, child) for child in reversed(node.children))

    def _key(self) -> tuple:
        # the labels in pre-order, each with its depth, fix an ordered tree
        return tuple((depth, node if isinstance(node, str) else node.production)
                     for depth, node in self._walk())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DerivationTree):
            return False
        return self is other or self._key() == other._key()

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        # NamedTuple's own format, built without recursion
        out: list[str] = []
        stack: list[DerivationTree | str] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            out.append(f"DerivationTree(production={node.production!r}, children=(")
            parts = [c if isinstance(c, DerivationTree) else repr(c) for c in node.children]
            stack.append(",))" if len(parts) == 1 else "))")
            for idx in reversed(range(len(parts))):
                stack.extend((parts[idx], ", ") if idx else (parts[idx],))
        return "".join(out)

    def frontier(self) -> str:
        return "".join(node for _, node in self._walk() if isinstance(node, str))

    def productions(self) -> list[Production]:
        """Pre-order trace of the productions applied."""
        return [node.production for _, node in self._walk() if not isinstance(node, str)]


def format_tree(tree: DerivationTree) -> str:
    lines = []
    for depth, node in tree._walk():
        pad = "  " * depth
        if isinstance(node, str):
            lines.append(pad + node)
        else:
            body = " ".join(node.production.body) if node.production.body else EPSILON_TOKEN
            lines.append(f"{pad}{node.production.head} -> {body}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The chart: membership and derivations


# a piece of the binarised grammar in symbol ids, and its source production
# (for a shared auxiliary's rule, the first production that needed it)
_Rule = NamedTuple("_Rule", [("head", int), ("body", tuple[int, ...]), ("production", Production)])

_Tables = NamedTuple("_Tables", [
    ("terminals", tuple[str, ...]),  # ids 0.. name these, in sorted order
    ("aux", int),  # ids from here on are auxiliaries
    ("start", int),
    # terminal u -> (its seeds: every A with A ~>* u, u's id first; u's id
    # when its by_right entry has a pair, lead or not, else None; the
    # brackets u closes: ((opening terminal t's id, middle X, 1 if X is
    # nullable else 0, every A' ~>* A over the brackets A -> t X u), ...),
    # split into those whose every head is a lone closed symbol, which a
    # push closes in place, and the rest), one lookup per push.  A closed C
    # is lone when its one pair's heads are C alone: C has no unit parent
    ("steps", dict[str, tuple[tuple[int, ...], int | None,
                              tuple[tuple[int, int, int, tuple[int, ...]], ...],
                              tuple[tuple[int, int, int, tuple[int, ...]], ...]]]),
    # right child C -> (closed, lead, pairs): its pairs (left child B, every
    # A' ~>* A over the rules A -> B C), split into the lead pairs, whose B
    # is a terminal and which a push combines with all of C's starts in one
    # mask step, and the rest, combined one start at a time.  C is closed
    # when its one pair is (C, heads) with C among the heads, so a closed C
    # has no lead pair.  A terminal's entry merges, by B, those of every
    # symbol it seeds, and is never closed
    ("by_right", dict[int, tuple[bool, tuple[tuple[int, tuple[int, ...]], ...],
                                 tuple[tuple[int, tuple[int, ...]], ...]]]),
    # head -> (opening terminal t's id -> [(closing terminal u's id, rank,
    # middle X, rule), ...] over its brackets A -> t X u; [(rank, left child
    # B, right child C, rule), ...] over its rules A -> B C).  A rank is the
    # rule's index in the rule list, which keeps production order, so a
    # bracket's rank compares with a rule's
    ("splits", dict[int, tuple[dict[int, list[tuple[int, int, int, _Rule]]],
                               list[tuple[int, int, int, _Rule]]]]),
    ("unit", dict[int, list[tuple[_Rule, int]]]),  # head -> (rule, position it ~> to)
    ("eps", dict[int, tuple[DerivationTree, ...]]),  # nullable symbol -> its epsilon children
])


def _chart_tables(grammar: Grammar) -> _Tables:
    """Binarise the caller's productions, keeping unit and epsilon rules: a
    body t X u, terminals at both ends around any one symbol, stays whole as
    a bracket; any other body longer than two becomes a right-branching run
    through auxiliaries, one per distinct body suffix (the sharing of Song,
    Ding and Lin, "Better Binarization for the CKY Parsing", 2008), so a
    run stops at the first suffix that already has one.  Each production
    keeps the shape it would have unshared.  A ~> B when A -> B, or A -> B C
    or A -> C B with C nullable.  Rule lists keep production order."""
    terminals = tuple(sorted(grammar.terminals))
    ids = {s: i for i, s in enumerate(terminals + tuple(sorted(grammar.nonterminals)))}
    size = aux = len(ids)
    rules: list[_Rule] = []
    suffixes: dict[tuple[int, ...], int] = {}  # body suffix -> its auxiliary
    for production in grammar.productions:
        head, body = ids[production.head], tuple(ids[s] for s in production.body)
        bracket = len(body) == 3 and body[0] < len(terminals) and body[2] < len(terminals)
        while len(body) > 2 and not bracket:
            tail = suffixes.setdefault(body[1:], size)
            rules.append(_Rule(head, (body[0], tail), production))
            if tail < size:
                break  # the run of this suffix is already there
            head, body, size = size, body[1:], size + 1
        else:
            rules.append(_Rule(head, body, production))

    # each nullable symbol's fixed epsilon tree; an auxiliary's run of them
    eps: dict[int, tuple[DerivationTree, ...]] = {}
    for head, rule in _generating(rules).items():
        kids = tuple(tree for s in rule.body for tree in eps[s])
        if head < aux:
            kids = (DerivationTree(rule.production, kids),)
        eps[head] = kids

    splits: dict[int, tuple[dict[int, list], list]] = {}
    unit: dict[int, list[tuple[_Rule, int]]] = {}
    parents: dict[int, list[int]] = {}  # X -> every A with A ~> X
    for rank, rule in enumerate(rules):
        if len(rule.body) == 3:  # a bracket: its terminals are never nullable
            t, x, u = rule.body
            splits.setdefault(rule.head, ({}, []))[0].setdefault(t, []).append((u, rank, x, rule))
            continue
        if len(rule.body) == 2:
            splits.setdefault(rule.head, ({}, []))[1].append((rank, *rule.body, rule))
        for pos, symbol in enumerate(rule.body):
            if len(rule.body) == 1 or rule.body[1 - pos] in eps:
                unit.setdefault(rule.head, []).append((rule, pos))
                parents.setdefault(symbol, []).append(rule.head)
    # up[X]: every A with A ~>* X; most symbols have no parent to search from
    up = {x: _reach(parents, x) if x in parents else {x}
          for x in [*range(len(terminals)), *splits]}
    by_right: dict[int, dict[int, set[int]]] = {}
    by_close: dict[str, dict[tuple[int, int], set[int]]] = {}
    for rule in rules:
        if len(rule.body) == 2:
            by_right.setdefault(rule.body[1], {}).setdefault(rule.body[0], set()).update(
                up[rule.head]
            )
        elif len(rule.body) == 3:
            t, x, u = rule.body
            by_close.setdefault(terminals[u], {}).setdefault((t, x), set()).update(
                up[rule.head]
            )
    # a push sets every seed at the one start j-1, so the terminal's one work
    # item combines them all; no terminal seeds another
    for t in terminals:
        merged: dict[int, set[int]] = {}
        for c in up[ids[t]]:
            for b, heads in by_right.get(c, {}).items():
                merged.setdefault(b, set()).update(heads)
        by_right[ids[t]] = merged
    nterm = len(terminals)
    pairs = {c: (bs.keys() == {c} and c in bs[c],
                 tuple((b, tuple(sorted(a))) for b, a in bs.items() if b < nterm),
                 tuple((b, tuple(sorted(a))) for b, a in bs.items() if b >= nterm))
             for c, bs in by_right.items()}
    lone = {c for c, bs in by_right.items() if bs == {c: {c}}}
    steps = {}
    for u in terminals:
        closes = [(t, x, int(x in eps), tuple(sorted(a)))
                  for (t, x), a in by_close.get(u, {}).items()]
        steps[u] = (tuple(sorted(up[ids[u]])), ids[u] if by_right[ids[u]] else None,
                    tuple(b for b in closes if lone.issuperset(b[3])),
                    tuple(b for b in closes if not lone.issuperset(b[3])))
    return _Tables(terminals, aux, ids[grammar.start], steps, pairs, splits, unit, eps)


class _Chart:
    """A chart over the binarised grammar, grown one end column per pushed
    symbol and shrunk by dropping the last, so words that share a prefix can
    share its columns.  A push takes a run of symbols and builds their
    columns in one loop, so a caller pays for one call per run, not per
    symbol; a run with a symbol off the alphabet raises GrammarError and is
    rolled back, leaving the chart as it was before the call.  Column j maps
    each symbol A to the bitmask of starts i < j with A =>* w[i:j]; empty
    spans are left to the nullable set.  The chart also keeps, for each
    terminal, the bitmask of the positions that hold it.

    A push seeds the new column at start j-1 and sets the heads of the
    brackets A -> t X u closed by the pushed u: their starts are, in one
    step, the positions of t shifted down from the starts of X on
    [i+1, j-1) (and from j-1 itself when X is nullable).  It then closes the
    column over a work list that maps each symbol C that is the right child
    of some rule to its starts not yet combined (the terminal's entry stands
    for every seed): each start k of C combines with the finished column k
    through the rules A -> B C.  A rule A -> b C whose left child b is a
    terminal (a lead pair) takes all of C's starts in one step instead: b
    is on [k-1, k) just where w[k-1] is b, so the heads gain the starts
    shifted down by one and masked with b's positions, and a C with only
    lead pairs takes no start one at a time.  A push reads only finished
    columns, since B on [i, k) and C on [k, j) are both nonempty and a
    bracket reads column j-1, so any order reaches the same least fixpoint;
    the work follows the cells that are set.

    A symbol C is closed when C -> C C, through unit parents, is the only
    rule with C as a right child (E, and the Z family).  C's starts are taken
    highest first, and combining a start k also drops from the work every
    start k' of C on [k', k): C on [i, k') and on [k', k) is C on [i, k),
    which the finished column k already holds, so k' would add nothing that
    k did not.  Taken lowest first, no start would ever be dropped.  For
    the same reason the new starts i that combining k gives C itself are not
    queued again for C (its unit parents among the heads still are): i is a
    start of C in column k, and C on [i', i) and on [i, k) is C on [i', k),
    so combining i would bring only starts i' that combining k brought.

    A closed C is lone when it has no unit parent, so that its one pair's
    heads are C alone (E, and the Z family, in the table grammars).  A
    bracket whose every head is lone closes each head C in place, off the
    work list: C takes the bracket's new starts k and, highest first, the
    starts that the finished column k holds for C, each k also dropping the
    starts still to take that column k holds; C on [i, k) and on [k, j) is
    C on [i, j), so one level closes C.  C is not queued, since its one
    pair is the step just taken.  Seeds, the other brackets and the pairs
    still queue C, and those starts are combined as above.  The work list
    is one dict for the whole run, empty again at the end of every column.

    `probe` answers for one more symbol: the same loop builds its column
    against the chart, reads the start's bit 0 from it and drops it, so the
    chart is never changed.

    `tree` reads one derivation out in a single loop over a stack of spans
    to expand, terminals and epsilon trees to emit, and closings: a closing
    is a production, and makes the last len(body) outputs one node.  An
    auxiliary pushes no closing, so its children join its parent's.  A
    bracket whose middle is empty or a terminal is output as its node at
    once.  A span of A on [i, j) takes A's lowest split k, and at k the
    first rule in production order: the `splits` entry of A lists its
    brackets under their opening terminal, so only those opened by w[i]
    are tried, and a bracket that matches splits at i + 1, the lowest
    split there is, losing only to a rule A -> B C of lower rank that also
    splits there.  Without a matching bracket, the rules A -> B C are
    searched in order for their lowest split below the best so far, until
    one splits at i + 1.  When A has no split, the loop runs the same test
    on the symbols of A's unit chains, shortest first, to one that has a
    split or is a terminal, and A takes that chain's first step."""

    __slots__ = ("_tables", "_cols", "_pos")

    def __init__(self, grammar: Grammar) -> None:
        if grammar._tables is None:
            object.__setattr__(grammar, "_tables", _chart_tables(grammar))
        self._tables = grammar._tables
        self._cols: list[dict[int, int]] = [{}]
        # terminal id -> the bitmask of its positions
        self._pos = [0] * len(self._tables.terminals)

    def push(self, symbols: Sequence[str], probe: bool = False) -> bool | None:
        """Push each symbol of the run, a str of one-character terminals or a
        tuple, in turn.  On a symbol off the alphabet, an unhashable one
        included, drop the columns this run pushed and raise GrammarError.
        With probe, symbols is a tuple of one symbol: its column is built
        and dropped, and the answer is whether it holds the start at 0 (see
        `probe`)."""
        tables = self._tables
        steps, by_right, cols, pos = tables.steps, tables.by_right, self._cols, self._pos
        last = cols[-1]
        bit = 1 << len(cols) - 1  # the new column's start j-1
        # right child C -> its starts set in this column and not yet
        # combined; empty again at the end of every column.  The terminal's
        # own entry stands for all its seeds, unless none is a right child
        todo: dict[int, int] = {}
        for symbol in symbols:
            try:
                seeds, own, shut, closes = steps[symbol]
            except (KeyError, TypeError):  # off the alphabet, or unhashable
                # the run's first foreign symbol: its first index is the
                # number of columns the run pushed
                for _ in range(symbols.index(symbol)):
                    self.pop()
                raise GrammarError(
                    f"symbol {symbol!r} is not a terminal of this grammar") from None
            col = dict.fromkeys(seeds, bit)
            if own is not None:
                todo[own] = bit
            for t, x, nullable, heads in shut:  # closed in place, off the work list
                starts = pos[t] & (last.get(x, 0) | nullable * bit) >> 1
                if starts:
                    for c in heads:
                        # c on [i, k) and the bracket's c on [k, j) is c on
                        # [i, j), and the finished column k holds every such
                        # i: one level closes c, highest start first
                        old = col.get(c, 0)
                        more = ks = starts & ~old
                        while ks:
                            k = ks.bit_length() - 1
                            ks ^= 1 << k
                            left = cols[k].get(c)
                            if left:
                                more |= left
                                ks &= ~left
                        if more:
                            col[c] = old | more
            for t, x, nullable, heads in closes:
                # t at i, and X on [i+1, j-1), or empty there when nullable
                starts = pos[t] & (last.get(x, 0) | nullable * bit) >> 1
                if starts:
                    for a in heads:
                        old = col.get(a, 0)
                        new = starts & ~old
                        if new:
                            col[a] = old | new
                            if a in by_right:
                                todo[a] = todo.get(a, 0) | new
            while todo:
                c, ks = todo.popitem()
                closed, lead, pairs = by_right[c]
                if lead:
                    for b, heads in lead:
                        # b on [k-1, k) just where w[k-1] is b: every start at once
                        starts = ks >> 1 & pos[b]
                        if starts:
                            for a in heads:
                                old = col.get(a, 0)
                                new = starts & ~old
                                if new:
                                    col[a] = old | new
                                    if a in by_right:
                                        todo[a] = todo.get(a, 0) | new
                    if not pairs:
                        continue
                skip = c if closed else -1  # whose new starts are not queued again
                while ks:
                    k = ks.bit_length() - 1  # highest first
                    ks ^= 1 << k
                    left = cols[k]
                    for b, heads in pairs:
                        starts = left.get(b)
                        if starts:
                            if closed:  # b is c: its starts that column k holds add no more
                                ks &= ~starts
                            for a in heads:
                                old = col.get(a, 0)
                                new = starts & ~old
                                if new:
                                    col[a] = old | new
                                    if a != skip and a in by_right:
                                        todo[a] = todo.get(a, 0) | new
            if probe:
                return bool(col.get(tables.start, 0) & 1)
            cols.append(col)
            pos[seeds[0]] |= bit  # seeds[0] is the terminal: the lowest id of its closure
            last = col
            bit <<= 1
        return None

    def __len__(self) -> int:
        """The number of symbols pushed and not popped."""
        return len(self._cols) - 1

    def pop(self) -> None:
        """Drop the last symbol pushed.  On an empty chart, raise IndexError
        and change nothing."""
        cols = self._cols
        if len(cols) == 1:
            raise IndexError("pop from an empty chart")
        col = cols.pop()
        # the terminal dropped is the column's first key, seeds[0] in push,
        # and its position is now the number of symbols left
        self._pos[next(iter(col))] ^= 1 << len(cols) - 1

    def probe(self, symbol: str) -> bool:
        """Whether the symbols pushed so far, then symbol, form a word of the
        language; the chart is left as it was, also when symbol is not a
        terminal and push raises."""
        return self.push((symbol,), True)

    def accepts(self) -> bool:
        """Whether the symbols pushed so far form a word of the language."""
        tables, n = self._tables, len(self._cols) - 1
        if n == 0:
            return tables.start in tables.eps
        return bool(self._cols[n].get(tables.start, 0) & 1)

    def tree(self) -> DerivationTree | None:
        """One derivation of the symbols pushed so far, in the caller's own
        productions, or None when they are not a word of the language."""
        tables, cols, n = self._tables, self._cols, len(self._cols) - 1
        if not self.accepts():
            return None
        if n == 0:
            return tables.eps[tables.start][0]
        names, eps, unit, splits = tables.terminals, tables.eps, tables.unit, tables.splits
        aux, nterm, node = tables.aux, len(tables.terminals), tuple.__new__
        word = [next(iter(col)) for col in cols[1:]]  # a column's first key is its terminal
        out, work = [], [(tables.start, 0, n)]  # see the class docstring
        while work:
            item = work.pop()
            if type(item) is Production:  # a closing: its body's outputs are the last
                mark = len(out) - len(item.body)
                out[mark:] = [node(DerivationTree, (item, tuple(out[mark:])))]
                continue
            if type(item) is not tuple:
                out.append(item)
                continue
            x, i, j = item
            cell, low = cols[j], i + 1
            # the split of x, else the shortest unit chain, as (symbol, its
            # first step), to a terminal or a symbol with a split
            y, first, queue, at = x, None, None, 0
            while True:
                entry = splits.get(y)
                if entry is not None:
                    opens, pairs = entry
                    rule = None
                    for u, rank, m, bracket in opens.get(word[i], ()):
                        if u == word[j - 1] and (
                            cols[j - 1].get(m, 0) >> low & 1 if low < j - 1
                            else low == j - 1 and m in eps
                        ):
                            # the lowest split: only a rule of lower rank
                            # that also splits at low comes before it
                            k, rule, left = low, bracket, cols[low]
                            for r, b, c, pair in pairs:
                                if r > rank:
                                    break
                                if left.get(b, 0) >> i & 1 and cell.get(c, 0) >> low & 1:
                                    rule = pair
                                    break
                            break
                    else:
                        window = (1 << j) - (1 << low)  # the splits still to beat
                        for r, b, c, pair in pairs:
                            ks = cell.get(c, 0) & window
                            while ks:
                                bit = ks & -ks
                                split = bit.bit_length() - 1
                                if cols[split].get(b, 0) >> i & 1:
                                    k, rule, window = split, pair, bit - (1 << low)
                                    break
                                ks ^= bit
                            if not window:  # a split at low: none is lower
                                break
                    if rule is not None:
                        break
                if queue is None:
                    queue, seen = [], {x}
                for step in unit.get(y, ()):
                    z = step[0].body[step[1]]
                    if z not in seen and cell.get(z, 0) >> i & 1:
                        seen.add(z)
                        queue.append((z, first or step))
                if at == len(queue):
                    raise AssertionError("a chart cell is set without a derivation")
                y, first = queue[at]
                at += 1
                if y < nterm:
                    break
            if first is not None:  # the chain's first step: one span, beside epsilon trees
                rule, pos = first
                if x < aux:  # not an auxiliary, whose children join its parent's
                    work.append(rule.production)
                body = rule.body
                child = names[body[pos]] if body[pos] < nterm else (body[pos], i, j)
                nullable = eps[body[1 - pos]] if len(body) == 2 else ()
                work.extend(reversed((child, *nullable) if pos == 0 else (*nullable, child)))
            elif len(rule.body) == 3:  # a bracket t m u, split at low
                t, m, u = rule.body
                if low == j - 1 or m < nterm:
                    # m empty or a terminal: a bracket of leaves, its node at once
                    middle = eps[m] if low == j - 1 else (names[m],)
                    out.append(node(DerivationTree,
                                    (rule.production, (names[t], *middle, names[u]))))
                else:  # around a span: t goes straight out
                    work.append(rule.production)
                    work.append(names[u])
                    work.append((m, low, j - 1))
                    out.append(names[t])
            else:
                if x < aux:
                    work.append(rule.production)
                b, c = rule.body
                work.append(names[c] if c < nterm else (c, k, j))
                work.append(names[b] if b < nterm else (b, i, k))
        return out[0]


def _parsed(grammar: Grammar, word: Sequence[str]) -> _Chart:
    """The chart with every symbol of the word pushed, in one run: the
    grammar's last one, when it was for an equal word, or a new one that
    takes its place.
    So `derive` reads the chart that `cyk_member` filled.  A kept chart is
    never pushed to, so a caller holding one while another call replaces it
    still reads a whole chart.  Raises GrammarError on a symbol off the
    alphabet and then keeps no chart."""
    key = word if isinstance(word, str) else tuple(word)
    last = grammar._last
    if last is not None and last[0] == key:
        return last[1]
    object.__setattr__(grammar, "_last", None)
    chart = _Chart(grammar)
    chart.push(key)
    object.__setattr__(grammar, "_last", (key, chart))
    return chart


def cyk_member(grammar: Grammar, word: Sequence[str]) -> bool:
    """Membership: whether the chart of the word (see _parsed) accepts."""
    return _parsed(grammar, word).accepts()


def derive(grammar: Grammar, word: Sequence[str]) -> DerivationTree | None:
    """One derivation tree for the word in the grammar's own productions,
    read out of the membership chart, or None when the word is not
    generated (including symbols off the alphabet)."""
    try:
        chart = _parsed(grammar, word)
    except GrammarError:
        return None
    return chart.tree()


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
