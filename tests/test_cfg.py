import copy
import gc
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import weakref
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fimcowp import (
    DerivationTree,
    Grammar,
    GrammarError,
    Production,
    avoiding_grammar,
    cowp_fg_grammar,
    cowp_fim_grammar,
    crosscheck,
    cyk_member,
    derive,
    enumerate_language,
    enumerate_marked,
    enumerate_words,
    format_tree,
    free_reduce,
    grammar_to_bnf,
    grammar_to_json,
    idempotent_grammar,
    insert_marker_grammar,
    k1_grammar,
    k2_grammar,
    language,
    parse_marked,
    parse_word,
    reverse_invert_grammar,
    to_cnf,
    union_grammar,
)
from fimcowp import cfg, fim_grammars, munn
from fimcowp.cfg import _Chart, _chart_tables
from fimcowp.fim_grammars import LANGUAGES, ZX, sample_kmn
from fimcowp.words import alphabet, rev_invert

E1 = idempotent_grammar(1)
K1 = k1_grammar(1)


def tiny(productions, start="S", terminals="ab"):
    nts = {h for h, _ in productions}
    return Grammar(set(terminals), nts, [Production(h, tuple(b)) for h, b in productions], start)


def all_strings(alphabet, max_len):
    for length in range(max_len + 1):
        for combo in product(sorted(alphabet), repeat=length):
            yield "".join(combo)


@st.composite
def small_grammars(draw, terminals="ab"):
    """Up to 4 nonterminals, bodies of length 0-3, often a bracket t X u
    (terminals t and u around any one symbol X), maybe a unit cycle;
    unproductive and unreachable symbols come up on their own."""
    nts = "STUV"[: draw(st.integers(1, 4))]
    symbol = st.sampled_from(nts + terminals)
    terminal = st.sampled_from(terminals)
    body = st.one_of(st.lists(symbol, max_size=3).map(tuple), st.tuples(terminal, symbol, terminal))
    prods = draw(st.lists(st.tuples(st.sampled_from(nts), body), max_size=10))
    if draw(st.booleans()):
        prods += [(a, (b,)) for a, b in zip(nts, nts[1:] + nts[0])]
    return Grammar(set(terminals), set(nts), [Production(h, b) for h, b in prods], "S")


@st.composite
def doubling_grammars(draw):
    """A small grammar plus C -> C C | t for one of its nonterminals C, which
    the chart may treat as closed, and sometimes X -> t C, C as a right child
    after a terminal, which makes C not closed."""
    grammar = draw(small_grammars())
    nts = sorted(grammar.nonterminals)
    c = draw(st.sampled_from(nts))
    extra = [Production(c, (c, c)), Production(c, (draw(st.sampled_from("ab")),))]
    if draw(st.booleans()):
        extra.append(Production(draw(st.sampled_from(nts)), (draw(st.sampled_from("ab")), c)))
    return Grammar(grammar.terminals, grammar.nonterminals, grammar.productions + tuple(extra),
                   grammar.start)


def random_idempotent(rng, letters, length, avoid=""):
    """A word of even length that freely reduces to the empty word: a walk on
    the Cayley tree that steps back as often as it steps out, and never
    leaves the root by the letter `avoid`."""
    path, out = [], []
    while len(out) < length:
        if path and (rng.random() < 0.5 or len(path) == length - len(out)):
            out.append(path.pop().swapcase())
        else:
            x = rng.choice([y for y in letters if y != (path[-1].swapcase() if path else avoid)])
            path.append(x)
            out.append(x)
    return "".join(out)


def is_derivation(tree, grammar, word):
    """Whether tree derives word from the start, every node applying one of
    the grammar's own productions to children that match its body."""
    if tree.root != grammar.start or tree.frontier() != word:
        return False
    stack = [tree]
    while stack:
        node = stack.pop()
        prod = node.production
        if prod not in grammar.productions or node.root != prod.head:
            return False
        if len(node.children) != len(prod.body):
            return False
        for child, symbol in zip(node.children, prod.body):
            if isinstance(child, DerivationTree):
                if child.root != symbol:
                    return False
                stack.append(child)
            elif child != symbol or symbol not in grammar.terminals:
                return False
    return True


# --- Grammar construction and validation


def test_grammar_rejects_undeclared_symbols():
    with pytest.raises(GrammarError):
        Grammar({"a"}, {"S"}, [Production("S", ("X",))], "S")
    with pytest.raises(GrammarError):
        Grammar({"a"}, {"S"}, [Production("X", ("a",))], "S")


def test_grammar_rejects_bad_start_and_overlap():
    with pytest.raises(GrammarError):
        Grammar({"a"}, {"S"}, [], "T")
    with pytest.raises(GrammarError):
        Grammar({"a", "S"}, {"S"}, [], "S")


def test_grammar_rejects_multichar_terminals():
    with pytest.raises(GrammarError):
        Grammar({"ab"}, {"S"}, [Production("S", ("ab",))], "S")


def test_grammar_deduplicates_and_sorts_productions():
    g = tiny([("S", "a"), ("S", "a"), ("S", "b")])
    assert g.productions == (Production("S", ("a",)), Production("S", ("b",)))
    assert (len(g.nonterminals), len(g.productions)) == (1, 2)


def test_grammar_equality_and_hash():
    g1 = tiny([("S", "a")])
    g2 = tiny([("S", "a")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != tiny([("S", "b")])


def test_grammar_record_behaviour():
    # Grammar is a read-only slotted class; these pin what the frozen
    # dataclass it replaced gave: repr, equality, hashing, keyword
    # construction, read-only fields and pickling
    g = Grammar(terminals={"a"}, nonterminals=["S"], productions=[("S", "a"), ("S", ())],
                start="S")
    assert repr(g) == (
        "Grammar(terminals=frozenset({'a'}), nonterminals=frozenset({'S'}), "
        "productions=(Production(head='S', body=()), Production(head='S', body=('a',))), "
        "start='S')"
    )
    assert (g.terminals, g.nonterminals, g.start) == (frozenset("a"), frozenset("S"), "S")
    assert g.productions == (Production("S", ()), Production("S", ("a",)))
    same = Grammar({"a"}, {"S"}, [("S", ("a",)), ("S", ()), ("S", ["a"])], "S")
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert hash(g) == hash((g.terminals, g.nonterminals, g.productions, g.start))
    assert g != Grammar({"a", "b"}, {"S"}, g.productions, "S")
    assert g != (g.terminals, g.nonterminals, g.productions, g.start)
    for name in ("terminals", "nonterminals", "productions", "start", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, "S")
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert repr(g) == repr(same)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(g, protocol))
        assert clone == g and hash(clone) == hash(g) and repr(clone) == repr(g)
    assert copy.copy(g) == g == copy.deepcopy(g)


def test_grammar_subclass_with_its_own_slots():
    # the four fields are set by name, not by zipping the subclass's slots
    class Weak(Grammar):
        __slots__ = ("__weakref__",)

    class Extra(Grammar):
        __slots__ = ("extra",)

    for cls in (Weak, Extra):
        g = cls({"a"}, {"S"}, [("S", "a")], "S")
        assert (g.terminals, g.nonterminals, g.start) == (frozenset("a"), frozenset("S"), "S")
        assert g.productions == (Production("S", ("a",)),)
        assert cyk_member(g, "a") and not cyk_member(g, "aa")
    g = Weak({"a"}, {"S"}, [("S", "a")], "S")
    assert weakref.ref(g)() is g


# --- CYK membership


def test_cyk_member_examples():
    assert cyk_member(E1, "aA")
    assert cyk_member(E1, "")
    assert not cyk_member(E1, "a")


def test_cyk_member_rejects_foreign_symbols():
    with pytest.raises(GrammarError):
        cyk_member(E1, "b")
    with pytest.raises(GrammarError):
        cyk_member(E1, "a#")
    # a symbol that cannot even be hashed is as foreign as any other
    with pytest.raises(GrammarError):
        cyk_member(E1, [["a"]])


def chart_state(chart):
    return len(chart), [dict(col) for col in chart._cols], list(chart._pos)


def test_chart_foreign_symbol_leaves_chart_usable():
    chart = _Chart(E1)
    chart.push("a")
    state = chart_state(chart)
    # a foreign symbol anywhere in a run, after pushes of that run or not,
    # drops the columns the run pushed, and only those; an unhashable
    # symbol is off the alphabet too
    for foreign in ("b", "#", "ab", "aAb", ("A", "ab"), "aAaAa#", ("a", "A", "a", "aA"),
                    (["x"],), ("a", "A", ["x"])):
        with pytest.raises(GrammarError):
            chart.push(foreign)
        assert len(chart) == 1 and not chart.accepts()
        assert chart_state(chart) == state, foreign
    assert derive(E1, [["a"]]) is None and derive(E1, ["a", "A", ["x"]]) is None
    chart.push("A")
    assert len(chart) == 2 and chart.accepts()
    chart.pop()
    chart.pop()
    assert len(chart) == 0 and chart.accepts()
    with pytest.raises(IndexError):
        chart.pop()
    assert len(chart) == 0 and chart.accepts()
    for symbol in "aAAa":
        chart.push(symbol)
    assert len(chart) == 4 and chart.accepts() and chart.tree().frontier() == "aAAa"
    # valid runs go on as single pushes do
    chart.push("aA")
    chart.push(("A", "a"))
    chart.push("")
    single = _Chart(E1)
    for symbol in "aAAaaAAa":
        single.push(symbol)
    assert chart_state(chart) == chart_state(single)
    assert chart.accepts() and chart.tree().frontier() == "aAAaaAAa"


# (language, rank) -> the longest word pushed
CHART_BOUNDS = {("E", 1): 7, ("Zx:a", 1): 7, ("K1", 1): 7, ("coWP-FIM", 1): 7,
                ("E", 2): 6, ("coWP-FG", 2): 5}


def chart_route(which, rank):
    """The grammar, its words up to the bound by enumeration, and the
    Munn-tree decision on any text over its terminals."""
    row = language(which, rank)
    grammar = row.grammar()

    def oracle(text):
        if row.marked:
            return text.count("#") == 1 and row.oracle(parse_marked(text, rank))
        return row.oracle(text)

    return grammar, enumerate_language(grammar, CHART_BOUNDS[which, rank]), oracle


CHART_ROUTES = {key: chart_route(*key) for key in CHART_BOUNDS}


def positions(word):
    """Each symbol of the word -> the bitmask of the positions it holds."""
    masks = {}
    for i, symbol in enumerate(word):
        masks[symbol] = masks.get(symbol, 0) | 1 << i
    return masks


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(CHART_BOUNDS)),
    st.lists(st.one_of(st.none(), st.sampled_from("aAbB#")), max_size=40),
)
def test_chart_push_pop_matches_enumeration_and_oracle(key, steps):
    # None pops; a letter pushes (pushes past the length bound or off the
    # alphabet are skipped); pops must restore the bracket position masks
    grammar, language, oracle = CHART_ROUTES[key]
    terminals = _chart_tables(grammar).terminals  # the order of chart._pos
    chart = _Chart(grammar)
    word = ""
    for step in steps:
        if step is None:
            if not word:
                continue
            chart.pop()
            word = word[:-1]
        elif step in grammar.terminals and len(word) < CHART_BOUNDS[key]:
            chart.push(step)
            word += step
        else:
            continue
        assert len(chart) == len(word)
        masks = {t: mask for t, mask in zip(terminals, chart._pos) if mask}
        assert masks == positions(word)
        assert chart.accepts() == (word in language) == oracle(word), word
        # probe answers for word + x and leaves the chart as it was; a
        # foreign symbol raises and changes nothing either
        state = len(chart), list(chart._pos), [dict(col) for col in chart._cols]
        for x in "aAbB#z":
            if x not in grammar.terminals:
                with pytest.raises(GrammarError):
                    chart.probe(x)
            elif len(word) < CHART_BOUNDS[key]:
                assert chart.probe(x) == (word + x in language) == oracle(word + x), word + x
            else:
                assert chart.probe(x) == oracle(word + x), word + x
            assert (len(chart), chart._pos, chart._cols) == state


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(sorted(CHART_BOUNDS)).map(lambda key: CHART_ROUTES[key][0]),
                 small_grammars()),
       st.data())
def test_runs_build_the_columns_of_single_pushes(grammar, data):
    # a word pushed in one call, in runs with pops and pushes between them,
    # or a symbol at a time gives the same chart; probe(x) is push x, accepts
    # and pop
    terminals, draw = sorted(grammar.terminals), data.draw
    word = draw(st.lists(st.sampled_from(terminals), max_size=8).map("".join))
    whole, runs, single = _Chart(grammar), _Chart(grammar), _Chart(grammar)
    whole.push(word)
    for symbol in word:
        single.push(symbol)
    start = 0
    for cut in sorted(draw(st.lists(st.integers(0, len(word)), max_size=4))) + [len(word)]:
        run = word[start:cut]
        runs.push(run if draw(st.booleans()) else tuple(run))
        back = draw(st.integers(0, cut))  # pop some, and push them back as one run
        for _ in range(back):
            runs.pop()
        runs.push(word[cut - back:cut])
        start = cut
    state = chart_state(single)
    assert chart_state(whole) == chart_state(runs) == state
    for x in terminals:
        single.push(x)
        expected = single.accepts()
        single.pop()
        assert whole.probe(x) == expected, word + x
        assert chart_state(whole) == state


def test_idempotent_chart_sets_exactly_the_reducing_spans():
    # E is all brackets and E E: no auxiliary, and a cell per span that
    # freely reduces to the empty word
    grammar = idempotent_grammar(2)
    tables = _chart_tables(grammar)
    e = len(tables.terminals)  # E, the one nonterminal, after the terminals
    assert tables.aux == e + 1
    # E is closed, so on long words the chart skips most of its starts
    long_words = ("aA" * 30, random_idempotent(random.Random(13), alphabet(2), 60))
    for word in ("aAbBBbAa", "abBAaBbA", "aaAAbABBba", "BbbaABAaaAbb", *long_words):
        chart = _Chart(grammar)
        for symbol in word:
            chart.push(symbol)
        for j in range(1, len(word) + 1):
            col = chart._cols[j]
            assert all(symbol < tables.aux for symbol in col), (word, j)
            reducing = sum(1 << i for i in range(j) if free_reduce(word[i:j]) == "")
            assert col.get(e, 0) == reducing, (word, j)


def test_avoiding_chart_sets_exactly_the_avoiding_spans_on_long_words():
    # every Z(y) is closed, so on long words the chart skips most of its
    # starts; Z(y) is set on [i, j) iff w[i:j] is idempotent and avoids y
    grammar = avoiding_grammar(2, "a")
    tables = _chart_tables(grammar)
    ids = {name: i for i, name in enumerate([*tables.terminals, *sorted(grammar.nonterminals)])}
    for word in ("aA" * 30, "bB" * 30, random_idempotent(random.Random(13), alphabet(2), 60)):
        chart = _Chart(grammar)
        for symbol in word:
            chart.push(symbol)
        for j in range(1, len(word) + 1):
            col = chart._cols[j]
            for y in alphabet(2):
                expected = sum(1 << i for i in range(j) if munn.is_idempotent(word[i:j])
                               and munn.avoids(word[i:j], y))
                assert col.get(ids[f"Z({y})"], 0) == expected, (word, j, y)


def test_cyk_agrees_with_enumeration_on_all_grammars():
    # chart membership vs fixpoint enumeration of the raw grammar
    grammars = [
        E1,
        idempotent_grammar(2),
        avoiding_grammar(1, "a"),
        avoiding_grammar(2, "B"),
        K1,
        k2_grammar(1),
        cowp_fg_grammar(1),
        cowp_fim_grammar(1),
    ]
    for g in grammars:
        expected = enumerate_language(g, 6)
        got = {w for w in all_strings(g.terminals, 6) if cyk_member(g, w)}
        assert got == expected


# brackets around a nullable T, a non-nullable S and U, and the terminal a;
# b S b with t == u; three brackets closed by b
BRACKETS = tiny([("S", "aTb"), ("S", "bSb"), ("S", "aab"), ("S", "bUa"), ("S", "SS"),
                 ("T", ""), ("T", "TT"), ("T", "aTb"), ("U", "a")])
# C is closed (its one pair is D -> C C, C ~> D) and D, a unit parent among
# its heads, is a right child of X -> a D: D's new starts must be combined
CLOSED_UNDER_A_PARENT = tiny([("X", "aD"), ("C", "D"), ("D", "CC"), ("C", "bCb"), ("C", "a")],
                             start="X")
# the lead step: a rule A -> b C whose left child b is a terminal combines
# with all of C's starts at once.  In X -> a b the terminal b's own entry
# has only that lead pair, and must still be queued.
LEAD_ONLY = tiny([("X", "ab")], start="X")
# C is the right child of S -> a C, a lead pair, and of S -> S C, combined
# one split at a time: an entry with both kinds of pair runs both
LEAD_AND_SPLIT = tiny([("S", "aC"), ("S", "SC"), ("C", "b")])
# X, the head of the lead pair of Y in X -> a Y, is itself the right child
# of S -> b X, so its new starts must be queued
LEAD_HEAD_QUEUED = tiny([("S", "bX"), ("X", "aY"), ("Y", "b")])
# C is closed and lone, its one pair's heads being C alone, so the bracket
# b M a closes it in place.  In column 3 of "bba", C gains start 0 only from
# that bracket, start 1 only as the head of the pair C -> B D and start 2
# only as a seed (C -> a); the last two go through the work list
LONE_CLOSED_THREE_WAYS = tiny([("C", "CC"), ("C", "bMa"), ("C", "BD"), ("C", "a"),
                               ("M", "a"), ("M", "b"), ("B", "b"), ("D", "a")], start="C")


@settings(max_examples=200, deadline=None)
@given(small_grammars())
@example(BRACKETS)
@example(CLOSED_UNDER_A_PARENT)
@example(LEAD_ONLY)
@example(LEAD_AND_SPLIT)
@example(LEAD_HEAD_QUEUED)
@example(LONE_CLOSED_THREE_WAYS)
def test_chart_and_derive_match_enumeration_on_random_grammars(grammar):
    language = enumerate_language(grammar, 5)
    for word in all_strings("ab", 5):
        member = cyk_member(grammar, word)
        assert member == (word in language), word
        tree = derive(grammar, word)
        assert (tree is not None) == member, word
        assert tree is None or is_derivation(tree, grammar, word), word


def assert_cells_mean_derivability(grammar, max_len):
    """After the pushes of each word of length max_len, the cell of every
    original symbol on [i, j), j > i, is set exactly when w[i:j] is in the
    language of the grammar restarted at that symbol; and no two
    auxiliaries share a body."""
    tables = _chart_tables(grammar)
    names = [*tables.terminals, *sorted(grammar.nonterminals)]  # the ids below tables.aux
    assert len(names) == tables.aux
    languages = [
        {name} if name in grammar.terminals else enumerate_language(
            Grammar(grammar.terminals, grammar.nonterminals, grammar.productions, name), max_len)
        for name in names
    ]
    for word in all_strings(grammar.terminals, max_len):
        chart = _Chart(grammar)
        for symbol in word:
            chart.push(symbol)
        for j in range(1, len(word) + 1):
            col = chart._cols[j]
            for symbol, language in enumerate(languages):
                expected = sum(1 << i for i in range(j) if word[i:j] in language)
                assert col.get(symbol, 0) == expected, (word, j, names[symbol])
    # an auxiliary's rules all have two children: its entry holds no bracket
    bodies = [(b, c) for head, (opens, pairs) in tables.splits.items() if head >= tables.aux
              for _, b, c, _ in pairs]
    assert all(not opens for head, (opens, _) in tables.splits.items() if head >= tables.aux)
    assert len(set(bodies)) == len(bodies)


# C is a right child of C C and of X -> b C, so not closed: starts that C's
# own pair would skip still combine with b
DOUBLING = tiny([("X", "bC"), ("C", "CC"), ("C", "a")], start="X")
# S is a right child only of T -> S S, but S is not a unit parent of T, so
# not closed either: S on [i, k) and on [k, j) is no S on [i, j)
UNIT_DOUBLING = tiny([("S", "a"), ("S", "aT"), ("T", "S"), ("T", "SS"), ("T", "b")])


@settings(max_examples=200, deadline=None)
@given(small_grammars())
@example(BRACKETS)
@example(DOUBLING)
@example(UNIT_DOUBLING)
@example(CLOSED_UNDER_A_PARENT)
@example(LEAD_ONLY)
@example(LEAD_AND_SPLIT)
@example(LEAD_HEAD_QUEUED)
@example(LONE_CLOSED_THREE_WAYS)
def test_chart_cells_mean_derivability_on_random_grammars(grammar):
    assert_cells_mean_derivability(grammar, 5)


@settings(max_examples=150, deadline=None)
@given(doubling_grammars())
@example(DOUBLING)
def test_chart_cells_mean_derivability_on_grammars_with_a_doubling_rule(grammar):
    assert_cells_mean_derivability(grammar, 6)


def closed_symbols(grammar):
    tables = _chart_tables(grammar)
    names = [*tables.terminals, *sorted(grammar.nonterminals)]  # the ids below tables.aux
    return {names[c] for c, (closed, _, _) in tables.by_right.items() if closed}


def in_place_symbols(grammar):
    """The heads of the brackets that a push closes in place."""
    tables = _chart_tables(grammar)
    names = [*tables.terminals, *sorted(grammar.nonterminals)]  # the ids below tables.aux
    return {names[c] for _, _, shut, _ in tables.steps.values() for *_, heads in shut
            for c in heads}


def test_closed_symbols_of_the_table_grammars():
    # binarised, a symbol is a right child only where it ends a body of two
    # or more that is not a bracket: K1's bodies end in Z(x) but never in E,
    # K2's, their reverses, in E but never in Z(x), and coWP-FG's in E
    for rank in (1, 2, 5):
        letters = alphabet(rank)
        e = "E'" if "E" in letters else "E"
        zs = {f"Z({x})" for x in letters}
        expected = {"E": {e}, "Zx:a": zs, "K1": {e}, "K2": zs, "coWP-FG": set(),
                    "coWP-FIM": {f"{e}@1"} | {f"{z}@2" for z in zs}}
        for name, closed in expected.items():
            grammar = language(name, rank).grammar()
            assert closed_symbols(grammar) == closed, (name, rank)
            # every closed symbol here has no unit parent and heads brackets
            assert in_place_symbols(grammar) == closed, (name, rank)
    assert closed_symbols(DOUBLING) == closed_symbols(UNIT_DOUBLING) == set()
    assert closed_symbols(tiny([("C", "CC"), ("C", "a")], start="C")) == {"C"}
    assert closed_symbols(tiny([("C", "D"), ("D", "CC"), ("C", "a")], start="C")) == {"C"}
    # C's pair D -> C C has D among its heads, so C's bracket b C b is not
    # closed in place
    assert closed_symbols(CLOSED_UNDER_A_PARENT) == {"C"}
    assert in_place_symbols(CLOSED_UNDER_A_PARENT) == set()
    assert closed_symbols(LONE_CLOSED_THREE_WAYS) == {"C"}
    assert in_place_symbols(LONE_CLOSED_THREE_WAYS) == {"C"}


def test_chart_cells_mean_derivability_on_table_grammars():
    names = [n for n in LANGUAGES if n != ZX] + ["Zx:a", "Zx:A"]
    for name in names:
        assert_cells_mean_derivability(language(name, 1).grammar(), 5)


# sha256 of the accepted items of each universe at rank 2 (those up to the
# length bound that the oracle accepts), each with the format_tree text of
# its derivation, recorded before auxiliaries were shared: sharing must not
# change any tree
TREE_BOUNDS = {"E": 8, "Zx:a": 8, "K1": 5, "K2": 5, "coWP-FG": 4, "coWP-FIM": 4}
TREE_SHA256 = {
    "E": "62f6dfdbb0443842406cc9dcc54389b45e75ba6637a2773d8f45e8d7f928d2bd",
    "Zx:a": "7f21166384ef09fd8f5e842a7977b8703b82327a1ed61a5d566bf2ac2b6cdf36",
    "K1": "04269b215bc9a159e3c9e2c6b952de22c77435742820586f72942bfa5a908986",
    "K2": "91843f080b820f109d26ccf0416ad61724217c07d7a801549d750b26ee27d4cd",
    "coWP-FG": "99764bf8cb9adc03f4372a609746df8f8c5c40726d6f90ce27239bfd9037d57a",
    "coWP-FIM": "d6a0f89f11859418fb4752b28c83b499975d501ec43063c29a485e26a014f06b",
}


def test_derivation_trees_are_pinned():
    count = 0
    for name, bound in TREE_BOUNDS.items():
        row = language(name, 2)
        grammar, digest = row.grammar(), hashlib.sha256()
        universe = enumerate_marked(2, bound) if row.marked else enumerate_words(2, bound)
        for item in filter(row.oracle, universe):
            text = str(item)
            digest.update(f"{text}\n{format_tree(derive(grammar, text))}\n\n".encode())
            count += 1
        assert digest.hexdigest() == TREE_SHA256[name], name
    assert count == 6788


def random_marked(rng, length):
    """length random letters of rank 2 with the marker at a random place."""
    letters = "".join(rng.choice(alphabet(2)) for _ in range(length))
    k = rng.randrange(length + 1)
    return f"{letters[:k]}#{letters[k:]}"


def long_words():
    """Long accepted words at rank 2 by language, whose trees are deep."""
    rng = random.Random(41)
    idempotents = [random_idempotent(rng, alphabet(2), n) for n in range(64, 257, 32)]
    idempotents.append(random_idempotent(rng, alphabet(2), 2000))
    u = random_idempotent(rng, alphabet(2), 150)
    t = random_idempotent(rng, alphabet(2), 148) + "a"
    k1 = [str(sample_kmn(2, m, m, m)) for m in (1, 2, 3)]
    marked = random.Random(43)
    return {
        "E": idempotents + ["aA" * n for n in (32, 64, 1000)],
        "K1": k1,
        "coWP-FIM": [f"{u}#{t}"],
        # the reverse-inverses of the K1 words: here the Z(x) are closed
        "K2": [f"{rev_invert(right)}#{rev_invert(left)}"
               for left, right in (w.split("#") for w in k1)],
        "Zx:a": [random_idempotent(rng, alphabet(2), n, avoid="a") for n in range(64, 257, 32)],
        # random letters around the marker, so u t does not reduce to the
        # empty word; a generator of their own keeps the draws above fixed
        "coWP-FG": [random_marked(marked, n) for n in (128, 256, 512)],
    }


# sha256 of each long word with the format_tree text of its derivation,
# recorded before the read-out became one work-stack loop (K2 and Zx:a
# before a closed symbol's own new starts stopped being queued again,
# coWP-FG before a terminal left child took all of a right child's starts in
# one mask step)
LONG_TREE_SHA256 = {
    "E": "456d506c1a818a8e5f5e3c901103a5bc2ca11624f8dd8b7cb2b2a37abae1ff76",
    "K1": "583c76f3fd92567c1833e1deae5e3d718816170948eaf5889c8cf859a10bbe17",
    "coWP-FIM": "5ee3752e60b2113f9b64c191b1ef76e7dc1d3bed00fbe8920c07770825e2aa57",
    "K2": "2b16e646623eebe477fd76b1fad9347f03ec39ce57f883ef9eaa9b6b45c2ee2c",
    "Zx:a": "2f98e42d20da224a5fe4071303468208f2e915f345cdb12b67236836e76f9b4c",
    "coWP-FG": "18a0210fbad4482e31a41ce304cd75d69fc691fb9faeebd2e77f6cf1a660ea9c",
}


def test_long_derivation_trees_are_pinned():
    for name, texts in long_words().items():
        grammar, digest = language(name, 2).grammar(), hashlib.sha256()
        for text in texts:
            tree = derive(grammar, text)
            assert tree is not None and tree.frontier() == text, (name, len(text))
            digest.update(f"{text}\n{format_tree(tree)}\n\n".encode())
        assert digest.hexdigest() == LONG_TREE_SHA256[name], name


def test_bracket_trees_are_pinned():
    # BRACKETS has brackets of leaves around an empty T and around the
    # terminal a (S -> a a b), which no table grammar has; sha256 of each
    # accepted word up to length 8 with the format_tree text of its
    # derivation, recorded before such a bracket was read out as its node
    # at once
    digest, count = hashlib.sha256(), 0
    for word in all_strings("ab", 8):
        tree = derive(BRACKETS, word)
        if tree is not None:
            digest.update(f"{word}\n{format_tree(tree)}\n\n".encode())
            count += 1
    assert count == 103
    assert digest.hexdigest() == "b07cf09cc6e46f01c4252ae446b56c31e370d69c079a1d6a6a2dd3c3e19fd906"


def seeded_grammars(count=200, seed=31):
    """A fixed list of small grammars over a, b: up to 4 nonterminals,
    bodies of length 0-3, often a bracket t X u, half of them with a unit
    cycle through every nonterminal.  Drawn with random.Random, so the list
    never changes."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        nts = "STUV"[: rng.randint(1, 4)]
        symbols = nts + "ab"
        prods = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.4:
                body = (rng.choice("ab"), rng.choice(symbols), rng.choice("ab"))
            else:
                body = tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3)))
            prods.append((rng.choice(nts), body))
        if rng.random() < 0.5:
            prods += [(x, (y,)) for x, y in zip(nts, nts[1:] + nts[0])]
        out.append(Grammar(set("ab"), set(nts), prods, "S"))
    return out


def test_seeded_grammar_trees_are_pinned():
    # sha256 of every word up to length 5 under each seeded grammar, with the
    # format_tree text of its derivation or None, recorded before the split
    # search moved into the read-out loop: the lowest split, then production
    # order, then the shortest unit chain
    digest, accepted = hashlib.sha256(), 0
    for grammar in seeded_grammars():
        for word in all_strings("ab", 5):
            tree = derive(grammar, word)
            accepted += tree is not None
            digest.update(f"{word}\n{None if tree is None else format_tree(tree)}\n\n".encode())
    assert accepted == 2430
    assert digest.hexdigest() == "d29378a527993d133076fdd7a2caafd5a6434bd9c92b2f4fe05691ae481570a4"


def test_auxiliaries_are_one_per_body_suffix():
    # bracket bodies take none; the other bodies longer than two share them
    counts = {("E", 2): 0, ("Zx:a", 2): 0, ("K1", 2): 116, ("coWP-FIM", 2): 259}
    for (name, rank), count in counts.items():
        tables = _chart_tables(language(name, rank).grammar())
        auxiliaries = {head: entry for head, entry in tables.splits.items() if head >= tables.aux}
        assert len(auxiliaries) == count, name
        # one rule each, with two children, and no two with the same body
        assert all(not opens and len(pairs) == 1 for opens, pairs in auxiliaries.values()), name
        bodies = {pairs[0][3].body for _, pairs in auxiliaries.values()}
        assert len(bodies) == count, name


def test_derive_trees_are_derivations_on_all_grammars():
    for g in [idempotent_grammar(2), avoiding_grammar(1, "A"), K1, k2_grammar(1),
              cowp_fg_grammar(1), cowp_fim_grammar(1)]:
        for w in enumerate_language(g, 5):
            assert is_derivation(derive(g, w), g, w), w


def test_parse_tree_independent_of_hash_seed():
    # coWP-FG derives this word in infinitely many ways (E -> E E | 1)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run(
            [sys.executable, "-m", "fimcowp.cli", "parse", "--rank", "1",
             "--which", "coWP-FG", "--tree", "aAa#aA"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        outputs.append(done.stdout)
    assert outputs[0].startswith("accept\n") and outputs[0] == outputs[1]


# --- CNF conversion


def cnf_shape_ok(g):
    for head, body in g.productions:
        if body == ():
            assert head == g.start
        elif len(body) == 1:
            assert body[0] in g.terminals
        else:
            assert len(body) == 2 and all(s in g.nonterminals for s in body)
    for _, body in g.productions:
        assert g.start not in body
    return True


def test_to_cnf_epsilon_only_grammar():
    g = tiny([("S", "")], terminals="a")
    cnf = to_cnf(g)
    assert cnf.productions == (Production(cnf.start, ()),)


def test_to_cnf_shape_and_language():
    for g in [E1, K1, cowp_fg_grammar(1)]:
        cnf = to_cnf(g)
        assert cnf_shape_ok(cnf)
        assert enumerate_language(cnf, 5) == enumerate_language(g, 5)


def reference_cnf_bnf(grammar):
    """BNF of the five-step CNF pipeline: TERM (wrap every terminal first),
    BIN, DEL by growing sets of variants, UNIT over every head, then TRIM
    of unproductive and unreachable symbols over the unit-expanded rules."""
    terminals = grammar.terminals
    used = set(grammar.nonterminals) | set(terminals)

    def fresh(base):
        name, k = base, 1
        while name in used:
            k += 1
            name = f"{base}{k}"
        used.add(name)
        return name

    start = fresh(grammar.start + "'")
    prods = [Production(start, (grammar.start,)), *grammar.productions]
    wrappers = {}
    for _, body in prods:
        for s in body if len(body) >= 2 else ():
            if s in terminals and s not in wrappers:
                wrappers[s] = fresh(f"[{s}]")
    binned = [Production(name, (t,)) for t, name in wrappers.items()]
    counters = {}
    for head, body in prods:
        if len(body) >= 2:
            body = tuple(wrappers.get(s, s) for s in body)
        current = head
        while len(body) > 2:
            counters[head] = counters.get(head, 0) + 1
            aux = fresh(f"{head}.{counters[head]}")
            binned.append(Production(current, (body[0], aux)))
            current, body = aux, body[1:]
        binned.append(Production(current, body))
    nullable = cfg._generating(binned)
    bodies = {}
    for head, body in binned:
        variants = {()}
        for symbol in body:
            grown = {v + (symbol,) for v in variants}
            variants = grown | variants if symbol in nullable else grown
        variants.discard(())
        bodies.setdefault(head, set()).update(variants)
    units = {a: [v[0] for v in vs if len(v) == 1 and v[0] not in terminals]
             for a, vs in bodies.items()}
    unitless = {Production(a, v) for a in bodies for b in cfg._reach(units, a)
                for v in bodies.get(b, ()) if len(v) == 2 or v[0] in terminals}
    if start in nullable:
        unitless.add(Production(start, ()))
    productive = cfg._generating(unitless, terminals)
    trimmed = {p for p in unitless if all(s in productive for s in (p.head, *p.body))}
    edges = {}
    for head, body in trimmed:
        edges.setdefault(head, []).extend(body)
    reachable = cfg._reach(edges, start)
    final = {p for p in trimmed if p.head in reachable}
    nts = {start} | {s for p in final for s in (p.head, *p.body) if s not in terminals}
    return grammar_to_bnf(Grammar(terminals, nts, final, start))


@settings(max_examples=200, deadline=None)
@given(small_grammars())
def test_to_cnf_shape_and_language_on_random_grammars(grammar):
    # unit cycles, epsilon bodies and useless symbols all come up here
    cnf = to_cnf(grammar)
    assert cnf_shape_ok(cnf)
    assert enumerate_language(cnf, 5) == enumerate_language(grammar, 5)
    assert grammar_to_bnf(cnf) == reference_cnf_bnf(grammar)


# sha256 of grammar_to_bnf(to_cnf(g)) for every language at ranks 1-2, so
# that a change to the closures in to_cnf cannot change the export unseen
CNF_SHA256 = {
    ("E", 1): "a790fe5ff42d1962a9a48ebf80c0aae13f1a40285f459af4dfaecdaaf4645105",
    ("Zx:a", 1): "54ce75df2a7048d95a9cf1a69241ae7b56d6795d8723410ac098d726e2606d7a",
    ("Zx:A", 1): "49361620829868e9c11182103b618ffd10a25dc684001fa16177b5203c8b022f",
    ("K1", 1): "2bd5fab2dd98603adce65d0c2c8f12a50dfec0e1c1b297eac75a3d636b39ff13",
    ("K2", 1): "50b4cf42a030fc89f8e5a4ca7e023e1f2ca132d3a2792e8cb43fdfb9673ba7cf",
    ("coWP-FG", 1): "d12e38350c257fee9efc18c1ba12d8a7338509118889e841a4dea1af426999e3",
    ("coWP-FIM", 1): "a7f85bd511ddbcf1247731d794797f9f54f7460cd4d826ddca3e811428261fa3",
    ("E", 2): "5e67f0c25e02b429841b1b762517c5b960e7c4fcc52233f261d361987448f041",
    ("Zx:a", 2): "8d1c57c9f2724b239819476f7d96cc55ad7cf9e837ce47c6cf79f39c485d89d8",
    ("Zx:A", 2): "f1b80331c280cca3e3192476826b3d4a35acce10f4c2a35c66d3a5df99fae929",
    ("Zx:b", 2): "9cdbe9e0ac105e9221cd39f0ba8e7d9aea49527778a3b96806ac262ab49356ae",
    ("Zx:B", 2): "7784091d25989caa71205edba6b0643f1b9e77595ba2ae30f05b96f336015f2c",
    ("K1", 2): "e2f41ad9483ab065b7e7fd8a7e72543720238deb43cb2ae6276462ba485e7dd6",
    ("K2", 2): "a89eb79ce7a2d33230815af6723ba56205587680db3fec743377f47eaac64c0b",
    ("coWP-FG", 2): "d5e0dfbd672f0776dccb77819e415d2ad81b5a4f879b7b12866fd0a542cec89a",
    ("coWP-FIM", 2): "09ef70dbebb1ee08ea25ba7397d7902f2a0607a299dce9174e0608000e23f66d",
}


def test_to_cnf_export_is_pinned():
    names = [(n, rank) for rank in (1, 2) for n in LANGUAGES if n != ZX]
    names += [("Zx:" + x, rank) for rank in (1, 2) for x in alphabet(rank)]
    assert sorted(names) == sorted(CNF_SHA256)
    for name, rank in names:
        bnf = grammar_to_bnf(to_cnf(language(name, rank).grammar()))
        assert hashlib.sha256(bnf.encode()).hexdigest() == CNF_SHA256[name, rank], name


def test_to_cnf_fresh_names_step_past_declared_ones():
    # S', [a] and S.1 are declared, so the new start, the wrapper of a and
    # the first auxiliary of S take the suffix 2
    g = Grammar(set("ab"), {"S", "T", "S.1", "[a]", "S'"}, [
        Production("S", ("a", "S", "b", "T")), Production("S", ()),
        Production("T", ("S.1",)), Production("T", ()),
        Production("S.1", ("[a]", "S")), Production("[a]", ("b",)),
        Production("S'", ("a",)),
    ], "S")
    cnf = to_cnf(g)
    assert cnf.start == "S'2"
    assert grammar_to_bnf(cnf) == (
        "S -> [a]2 S.12\n"
        "S'2 -> 1 | [a]2 S.12\n"
        "S.12 -> S S.2 | [b] T | b\n"
        "S.2 -> [b] T | b\n"
        "T -> [a] S | b\n"
        "[a] -> b\n"
        "[a]2 -> a\n"
        "[b] -> b\n"
    )
    assert cnf_shape_ok(cnf)
    assert enumerate_language(cnf, 8) == enumerate_language(g, 8)


def test_to_cnf_empty_language():
    g = tiny([("S", ("a", "S"))])
    cnf = to_cnf(g)
    assert enumerate_language(cnf, 5) == set()
    assert not cyk_member(g, "a")


# --- enumeration


def test_enumerate_language_examples():
    assert enumerate_language(E1, 2) == {"", "aA", "Aa"}
    assert enumerate_language(E1, 0) == {""}
    assert enumerate_language(tiny([("S", "a")]), 0) == set()
    za = avoiding_grammar(1, "a")
    assert enumerate_language(za, 2) == {"", "Aa"}
    with pytest.raises(GrammarError, match="nonnegative"):
        enumerate_language(E1, -1)


def test_enumerate_language_matches_oracle():
    got = enumerate_language(idempotent_grammar(2), 4)
    expected = {
        w
        for w in all_strings("aAbB", 4)
        if free_reduce(parse_word(w, 2)) == ""
    }
    assert got == expected


def test_enumerate_language_monotone():
    for g in [E1, K1]:
        for n in range(5):
            assert enumerate_language(g, n) <= enumerate_language(g, n + 1)


# --- derivations


def test_derive_minimal_idempotent_tree():
    tree = derive(E1, "aA")
    assert tree.production == Production("E", ("a", "E", "A"))
    inner = tree.children[1]
    assert isinstance(inner, DerivationTree)
    assert inner.production == Production("E", ())
    assert tree.frontier() == "aA"


def test_derive_takes_the_lowest_split():
    # E -> E E comes before E -> a E A in production order, but the bracket
    # splits aAaA at 1 and E E only at 2
    tree = derive(E1, "aAaA")
    assert format_tree(tree) == "\n".join([
        "E -> a E A", "  a", "  E -> A E a", "    A", "    E -> 1", "    a", "  A",
    ])


def test_derive_takes_a_later_rules_lower_split():
    # S -> X c splits abc at 2 and comes first; S -> a Y splits it at 1
    g = tiny([("S", "Xc"), ("S", "aY"), ("X", "ab"), ("Y", "bc")], terminals="abc")
    assert derive(g, "abc").production == Production("S", ("a", "Y"))


def test_derive_breaks_a_tie_at_the_lowest_split_by_production_order():
    # S -> a T and the bracket S -> a X b both split ab at 1: the first in
    # production order wins, and renaming T to Y puts the bracket first
    first = tiny([("S", "aT"), ("S", "aXb"), ("T", "b"), ("X", "")])
    assert derive(first, "ab").production == Production("S", ("a", "T"))
    second = tiny([("S", "aY"), ("S", "aXb"), ("Y", "b"), ("X", "")])
    assert derive(second, "ab").production == Production("S", ("a", "X", "b"))


def test_derive_rejects_non_members():
    assert derive(E1, "a") is None
    assert derive(E1, "b") is None  # off-alphabet means not generated


def test_derive_k1_flat_witness():
    tree = derive(K1, "aA#")
    assert tree is not None and tree.frontier() == "aA#"
    trace = tree.productions()
    assert trace[0] == Production("S", ("P(a)",))
    # no nesting productions: one 7-symbol expansion, marker emitted directly
    assert Production("P(a)", ("E", "a", "E", "A", "E", "Q(A)", "Z(a)")) in trace
    assert not any(len(p.body) == 5 for p in trace)


def test_derive_frontier_matches_membership():
    for g in [E1, K1, cowp_fg_grammar(1)]:
        for w in all_strings(g.terminals, 4):
            tree = derive(g, w)
            assert (tree is not None) == cyk_member(g, w)
            if tree is not None:
                assert tree.frontier() == w
                assert tree.root == g.start



def test_derive_reads_the_chart_of_the_last_parse():
    g = idempotent_grammar(2)
    for w in ["aAbB", "abBA" * 3, "aAbBBbAa", "abAaBbBA"]:
        cyk_member(K1, "aA#")  # another grammar
        fresh = format_tree(derive(g, w))
        cyk_member(g, "bB")  # another word
        after_other_word = format_tree(derive(g, w))
        assert cyk_member(g, w)
        chart = cfg._parsed(g, w)
        assert format_tree(derive(g, w)) == fresh == after_other_word
        assert cfg._parsed(g, w) is chart  # read, not parsed again


def test_shared_chart_is_kept_for_the_same_grammar_object():
    g, twin = tiny([("S", "aSb"), ("S", "")]), tiny([("S", "aSb"), ("S", "")])
    assert g == twin and g is not twin
    chart = cfg._parsed(g, "aabb")
    assert cfg._parsed(g, "aabb") is chart and g._last == ("aabb", chart)
    # an equal grammar keeps a chart of its own and leaves g's in place
    twins = cfg._parsed(twin, "aabb")
    assert twins is not chart and twin._last[1] is twins
    assert cfg._parsed(g, "aabb") is chart
    # another word under g replaces g's chart
    assert cfg._parsed(g, "ab") is not chart and g._last[0] == "ab"
    assert cfg._parsed(g, "aabb") is not chart
    assert twin._last[1] is twins


@pytest.fixture
def weak_charts(monkeypatch):
    """Charts that a weakref can follow; _Chart's own slots leave it out."""
    class WeakChart(_Chart):
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(cfg, "_Chart", WeakChart)
    return WeakChart


def test_shared_chart_keeps_one_chart(weak_charts):
    first = weakref.ref(cfg._parsed(E1, "aA"))
    assert cyk_member(E1, "aA") and derive(E1, "aA") is not None
    assert isinstance(first(), weak_charts)
    assert not cyk_member(E1, "aAa")
    assert first() is None


def test_failed_parse_keeps_no_chart(weak_charts):
    assert cyk_member(E1, "aA")
    first = weakref.ref(cfg._parsed(E1, "aA"))
    with pytest.raises(GrammarError):
        cyk_member(E1, "aAb")
    assert first() is None and E1._last is None
    assert derive(E1, "aAb") is None and E1._last is None
    with pytest.raises(GrammarError):
        cyk_member(E1, "aAb")


def test_each_grammar_keeps_its_own_last_chart(monkeypatch):
    built = []

    class CountedChart(_Chart):
        __slots__ = ()

        def __init__(self, grammar):
            built.append(grammar)
            super().__init__(grammar)

    monkeypatch.setattr(cfg, "_Chart", CountedChart)
    w, v = "aaA#A", "aAa"
    cyk_member(K1, "#")  # other words, so that each parse below builds a chart
    cyk_member(E1, "")
    built.clear()
    assert cyk_member(K1, w) and not cyk_member(E1, v)
    assert built == [K1, E1]
    # the parse under E1 left K1's chart in place: derive builds none
    tree = derive(K1, w)
    assert tree is not None and tree.frontier() == w
    assert built == [K1, E1]


def test_cyk_member_and_derive_take_any_sequence():
    for g in (E1, K1):
        for w in all_strings(g.terminals, 4):
            tree = derive(g, w)
            text = None if tree is None else format_tree(tree)
            listed = derive(g, list(w))
            assert (None if listed is None else format_tree(listed)) == text
            assert cyk_member(g, list(w)) == cyk_member(g, w) == (tree is not None)
    # one symbol of two letters is off the alphabet, even right after "aA"
    for word in (["aA"], ("aA",)):
        assert cyk_member(E1, "aA")
        with pytest.raises(GrammarError):
            cyk_member(E1, word)
        assert cyk_member(E1, "aA")
        assert derive(E1, word) is None
    # a list changed in place is parsed again
    word = ["a", "A"]
    assert cyk_member(E1, word)
    word.append("a")
    assert not cyk_member(E1, word) and derive(E1, word) is None

def test_format_tree():
    tree = derive(E1, "aA")
    assert format_tree(tree) == "E -> a E A\n  a\n  E -> 1\n  A"


def deep_tree(n, leaf_body=()):
    nest = Production("E", ("a", "E", "A"))
    tree = DerivationTree(Production("E", leaf_body), ())
    for _ in range(n):
        tree = DerivationTree(nest, ("a", tree, "A"))
    return tree


def test_deep_tree_equality_hash_and_repr():
    # two separately built 5,000-deep trees: no shared nodes to shortcut on
    a, b = deep_tree(5000), deep_tree(5000)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert a != deep_tree(5000, leaf_body=("E", "E"))
    assert a != deep_tree(4999) and a != "aA"
    assert len({a, b, deep_tree(4999)}) == 2
    assert repr(a).count("DerivationTree(") == 5001


def test_trees_with_the_same_preorder_labels_but_other_nesting_differ():
    # S(T(a, b)) against S(T(a), b): one pre-order of labels, two shapes
    leaf = DerivationTree(Production("T", ("a",)), ("a",))
    deep = DerivationTree(Production("S", ("T",)),
                          (DerivationTree(Production("T", ("a",)), ("a", "b")),))
    flat = DerivationTree(Production("S", ("T",)), (leaf, "b"))
    assert deep != flat and len({deep, flat}) == 2
    assert deep == DerivationTree(Production("S", ("T",)),
                                  (DerivationTree(Production("T", ("a",)), ("a", "b")),))


def test_tree_repr_matches_namedtuple_format():
    leaf = DerivationTree(Production("E", ()), ())
    assert repr(leaf) == "DerivationTree(production=Production(head='E', body=()), children=())"
    one = DerivationTree(Production("S", ("a",)), ("a",))
    assert repr(one) == (
        "DerivationTree(production=Production(head='S', body=('a',)), children=('a',))"
    )
    assert repr(deep_tree(1)) == (
        "DerivationTree(production=Production(head='E', body=('a', 'E', 'A')), "
        "children=('a', " + repr(leaf) + ", 'A'))"
    )


def test_derivation_trees_are_read_only():
    tree = derive(E1, "aAaA")
    text = format_tree(tree)
    for name in ("root", "production", "children", "other"):
        with pytest.raises(AttributeError):
            setattr(tree, name, "E")
        with pytest.raises(AttributeError):
            delattr(tree, name)
    assert format_tree(tree) == text
    # copies and pickles are rebuilt from the two fields
    assert copy.copy(tree) == tree == pickle.loads(pickle.dumps(tree))


def test_a_node_is_one_production_and_its_children():
    assert DerivationTree._fields == ("production", "children")
    tree = derive(E1, "aAaA")
    assert tree.root == tree.production.head == "E"
    empty = DerivationTree(Production("E", ()), ())
    assert DerivationTree(Production("E", ("a", "E", "A")), ("a", empty, "A")) == derive(E1, "aA")
    # a tree equals only a tree, never the tuple of its fields, from either side
    fields = (tree.production, tree.children)
    assert tree != fields and fields != tree
    assert not tree == fields and not fields == tree
    for twin in (copy.copy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree and hash(twin) == hash(tree)


def test_deep_tree_walks():
    # frontier, productions and format_tree walk a tree far deeper than the
    # recursion limit
    n = 5000
    nest = Production("E", ("a", "E", "A"))
    leaf = Production("E", ())
    tree = DerivationTree(leaf, ())
    for _ in range(n):
        tree = DerivationTree(nest, ("a", tree, "A"))
    assert tree.frontier() == "a" * n + "A" * n
    assert tree.productions() == [nest] * n + [leaf]
    lines = format_tree(tree).splitlines()
    assert len(lines) == 3 * n + 1
    assert lines[0] == "E -> a E A" and lines[1] == "  a"
    assert lines[n * 2] == "  " * n + "E -> 1"
    assert lines[-1] == "  A"


# --- chart tables: each grammar keeps its own


def _live(kind):
    gc.collect()
    return [o for o in gc.get_objects() if isinstance(o, kind)]


def test_tables_live_as_long_as_their_grammar():
    # what the test module holds stays; of what the test builds, a grammar
    # and its tables and chart are left while the test holds the grammar,
    # and nothing once it drops it
    kinds = (Grammar, cfg._Tables, cfg._Chart)
    held = [o for kind in kinds for o in _live(kind)]
    known = {id(o) for o in held}
    for rank in (2, 3):
        for which in ("Zx:a" if name == ZX else name for name in LANGUAGES):
            row = language(which, rank)
            g = row.grammar()
            universe = enumerate_marked(rank, 2) if row.marked else enumerate_words(rank, 2)
            for item in universe:
                cyk_member(g, str(item))
    del g
    last = tiny([("S", "ab")])
    assert cyk_member(last, "ab")
    grammars, tables, charts = ([o for o in _live(kind) if id(o) not in known]
                                for kind in kinds)
    assert len(grammars) == 1 and grammars[0] is last
    assert len(tables) == 1 and tables[0] is last._tables
    assert len(charts) == 1 and charts[0] is last._last[1]
    del grammars, tables, charts, last
    assert [o for kind in kinds for o in _live(kind) if id(o) not in known] == []


def test_tables_are_built_once_per_grammar(monkeypatch):
    built = []

    def counted(grammar):
        built.append(grammar)
        return _chart_tables(grammar)

    monkeypatch.setattr(cfg, "_chart_tables", counted)
    g = k1_grammar(2)
    assert g._tables is None
    assert cyk_member(g, "aA#") and not cyk_member(g, "a#A")
    report = crosscheck(g, language("K1", 2).oracle, enumerate_marked(2, 3))
    assert report.clean
    assert built == [g] and g._tables is not None
    twin = k1_grammar(2)
    assert twin == g and twin is not g and twin._tables is None
    assert cyk_member(twin, "aA#") and built == [g, twin]


def test_cowp_fim_builds_k1_once(monkeypatch):
    for rank in (1, 2, 5):
        calls = []

        def k1(r):
            calls.append(r)
            return k1_grammar(r)

        monkeypatch.setattr(fim_grammars, "k1_grammar", k1)
        g = cowp_fim_grammar(rank)
        assert calls == [rank]
        assert g == union_grammar([k1_grammar(rank), k2_grammar(rank), cowp_fg_grammar(rank)])


def test_tables_stay_out_of_pickles_and_equality():
    g, twin = k1_grammar(2), k1_grammar(2)
    before = pickle.dumps(g)
    assert cyk_member(g, "aA#") and g._tables is not None and g._last is not None
    assert pickle.dumps(g) == before
    clone, copied = pickle.loads(before), copy.copy(g)
    assert clone._tables is None and copied._tables is None
    assert clone._last is None and copied._last is None
    assert g == twin == clone and hash(g) == hash(twin) and repr(g) == repr(twin)


# --- transformations


def test_reverse_invert_fixed_points():
    g = tiny([("S", "")])
    assert reverse_invert_grammar(g, {}) == g


def test_reverse_invert_swaps_and_reverses():
    g = tiny([("S", ("a", "S", "B"))], terminals="abAB")
    flipped = reverse_invert_grammar(g, {"a": "A", "A": "a", "b": "B", "B": "b"})
    assert flipped.productions == (Production("S", ("b", "S", "A")),)


def test_reverse_invert_requires_involution():
    g = tiny([("S", "a")], terminals="ab")
    with pytest.raises(GrammarError):
        reverse_invert_grammar(g, {"a": "b"})
    with pytest.raises(GrammarError):
        reverse_invert_grammar(g, {"a": "z"})


def test_reverse_invert_is_involution_on_language():
    inv = {"a": "A", "A": "a"}
    twice = reverse_invert_grammar(reverse_invert_grammar(K1, inv), inv)
    assert twice == K1


def test_insert_marker_examples():
    g = tiny([("S", "")], terminals="a")
    marked = insert_marker_grammar(g, "#")
    assert enumerate_language(marked, 3) == {"#"}
    marked_e = insert_marker_grammar(E1, "#")
    assert cyk_member(marked_e, "a#A")
    assert not cyk_member(marked_e, "a#a")


def test_insert_marker_soundness():
    marked = insert_marker_grammar(E1, "#")
    for w in all_strings("aA", 6):
        for cut in range(len(w) + 1):
            split = w[:cut] + "#" + w[cut:]
            assert cyk_member(marked, split) == cyk_member(E1, w)


INVOLUTION = {"a": "A", "A": "a"}


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from([E1, avoiding_grammar(1, "a"), avoiding_grammar(1, "A")]),
                 small_grammars(terminals="aA")))
def test_reverse_invert_commutes_with_marker_insertion(grammar):
    # the marker is fixed by the involution
    marked_then_flipped = reverse_invert_grammar(
        insert_marker_grammar(grammar, "#"), {**INVOLUTION, "#": "#"}
    )
    flipped_then_marked = insert_marker_grammar(reverse_invert_grammar(grammar, INVOLUTION), "#")
    language = enumerate_language(marked_then_flipped, 6)
    assert language == enumerate_language(flipped_then_marked, 6)
    marked = enumerate_language(insert_marker_grammar(grammar, "#"), 6)
    assert language == {w[::-1].swapcase() for w in marked}


def test_insert_marker_collision():
    with pytest.raises(GrammarError):
        insert_marker_grammar(E1, "a")
    with pytest.raises(GrammarError, match="collide"):
        insert_marker_grammar(tiny([("X", "a"), ("X^0", "b")], start="X"), "#")


def test_union_grammar():
    g = union_grammar([tiny([("S", "a")]), tiny([("S", "b")])])
    assert enumerate_language(g, 2) == {"a", "b"}
    single = union_grammar([E1])
    assert enumerate_language(single, 4) == enumerate_language(E1, 4)
    with pytest.raises(GrammarError):
        union_grammar([])
    # the fresh start steps past a terminal S
    g = union_grammar([tiny([("T", "S")], start="T", terminals="S")])
    assert g.start == "S'" and enumerate_language(g, 2) == {"S"}


def test_grammar_sizes_examples():
    # (nonterminals, productions)
    for g, stats in [(idempotent_grammar(1), (1, 4)), (idempotent_grammar(2), (1, 6)), (K1, (8, 20))]:
        assert (len(g.nonterminals), len(g.productions)) == stats
    for k in (1, 2, 3):
        g = avoiding_grammar(k, "a")
        assert (len(g.nonterminals), len(g.productions)) == (2 * k, 2 * k * (2 * k + 1))


# --- serialization


def test_bnf_output():
    g = tiny([("S", ""), ("S", "ab"), ("S", ("a", "S"))])
    assert grammar_to_bnf(g) == "S -> 1 | a S | a b\n"


def test_bnf_deterministic():
    assert grammar_to_bnf(K1) == grammar_to_bnf(k1_grammar(1))


def test_json_output():
    g = tiny([("S", "a")], terminals="a")
    d = json.loads(grammar_to_json(g))
    assert d == {
        "terminals": ["a"],
        "nonterminals": ["S"],
        "start": "S",
        "productions": [{"head": "S", "body": ["a"]}],
    }
    assert grammar_to_json(g).endswith("\n")


# sha256 of grammar --format json for each language of the table at rank 2,
# recorded before grammar_to_json took in the dict it dumps
JSON_SHA256 = {
    "E": "a49f3cb57d38ad1e2fefbe9a4900438e8a8bdfbcf26a25137398f71765fe8566",
    "Zx:a": "ebf6c04d595ef46311a13eb0104330761c50de036feadfde75a7ebad91ec9556",
    "K1": "918e636fe5637ac68a0aa42eb44247524d1a354abc534fab3b10f796c42ed6bf",
    "K2": "6a4193b2d1e29701c6f16578008e41e47742def59e8c393cbae88d3e054bac67",
    "coWP-FG": "c88c90f09a98d961896968a94773ccad1bf69091c355f2297f67cff17a5e10b0",
    "coWP-FIM": "77d3121fbf6ff39964752fa39a950dd34357f6d175eac7092b5787618ed0546f",
}


def test_json_export_is_pinned():
    assert list(JSON_SHA256) == ["Zx:a" if n == ZX else n for n in LANGUAGES]
    for name, want in JSON_SHA256.items():
        text = grammar_to_json(language(name, 2).grammar())
        assert hashlib.sha256(text.encode()).hexdigest() == want, name
