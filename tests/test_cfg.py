import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fimcowp import (
    DerivationTree,
    Grammar,
    GrammarError,
    Production,
    avoiding_grammar,
    cowp_fg_grammar,
    cowp_fim_grammar,
    cyk_member,
    derive,
    enumerate_language,
    format_tree,
    free_reduce,
    grammar_stats,
    grammar_to_bnf,
    grammar_to_json,
    grammar_to_json_dict,
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
from fimcowp.cfg import _Chart, _chart_tables

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
    """Up to 4 nonterminals, bodies of length 0-3, maybe a unit cycle;
    unproductive and unreachable symbols come up on their own."""
    nts = "STUV"[: draw(st.integers(1, 4))]
    symbol = st.sampled_from(nts + terminals)
    prods = draw(
        st.lists(
            st.tuples(st.sampled_from(nts), st.lists(symbol, max_size=3).map(tuple)),
            max_size=10,
        )
    )
    if draw(st.booleans()):
        prods += [(a, (b,)) for a, b in zip(nts, nts[1:] + nts[0])]
    return Grammar(set(terminals), set(nts), [Production(h, b) for h, b in prods], "S")


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
    assert grammar_stats(g) == (1, 2)


def test_grammar_equality_and_hash():
    g1 = tiny([("S", "a")])
    g2 = tiny([("S", "a")])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != tiny([("S", "b")])


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


def test_chart_foreign_symbol_leaves_chart_usable():
    chart = _Chart(E1)
    chart.push("a")
    for foreign in ("b", "#", "ab"):
        with pytest.raises(GrammarError):
            chart.push(foreign)
        assert len(chart) == 1 and not chart.accepts()
    chart.push("A")
    assert len(chart) == 2 and chart.accepts()
    chart.pop()
    chart.pop()
    assert len(chart) == 0 and chart.accepts()


CHART_MAX_LEN = 7
CHART_LANGUAGES = ("E", "Zx:a", "K1", "coWP-FIM")


def rank1_route(which):
    """The rank-1 grammar, its words up to CHART_MAX_LEN by enumeration, and
    the Munn-tree decision on any text over its terminals."""
    row = language(which, 1)
    grammar = row.grammar()

    def oracle(text):
        if row.marked:
            return text.count("#") == 1 and row.oracle(parse_marked(text, 1))
        return row.oracle(text)

    return grammar, enumerate_language(grammar, CHART_MAX_LEN), oracle


CHART_ROUTES = {which: rank1_route(which) for which in CHART_LANGUAGES}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(CHART_LANGUAGES),
    st.lists(st.one_of(st.none(), st.sampled_from("aA#")), max_size=40),
)
def test_chart_push_pop_matches_enumeration_and_oracle(which, steps):
    # None pops; a letter pushes (pushes past the length bound are skipped)
    grammar, language, oracle = CHART_ROUTES[which]
    chart = _Chart(grammar)
    word = ""
    for step in steps:
        if step is None:
            if not word:
                continue
            chart.pop()
            word = word[:-1]
        elif step in grammar.terminals and len(word) < CHART_MAX_LEN:
            chart.push(step)
            word += step
        else:
            continue
        assert len(chart) == len(word)
        assert chart.accepts() == (word in language) == oracle(word), word


def test_cyk_agrees_with_enumeration_on_all_grammars():
    # CNF-based membership vs fixpoint enumeration of the raw grammar
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


@settings(max_examples=200, deadline=None)
@given(small_grammars())
def test_chart_and_derive_match_enumeration_on_random_grammars(grammar):
    language = enumerate_language(grammar, 5)
    for word in all_strings("ab", 5):
        member = cyk_member(grammar, word)
        assert member == (word in language), word
        tree = derive(grammar, word)
        assert (tree is not None) == member, word
        assert tree is None or is_derivation(tree, grammar, word), word


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


def test_format_tree():
    tree = derive(E1, "aA")
    assert format_tree(tree) == "E -> a E A\n  a\n  E -> 1\n  A"


def deep_tree(n, leaf_body=()):
    nest = Production("E", ("a", "E", "A"))
    tree = DerivationTree("E", Production("E", leaf_body), ())
    for _ in range(n):
        tree = DerivationTree("E", nest, ("a", tree, "A"))
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


def test_tree_repr_matches_dataclass_format():
    leaf = DerivationTree("E", Production("E", ()), ())
    assert repr(leaf) == "DerivationTree(root='E', production=Production(head='E', body=()), children=())"
    one = DerivationTree("S", Production("S", ("a",)), ("a",))
    assert repr(one) == (
        "DerivationTree(root='S', production=Production(head='S', body=('a',)), children=('a',))"
    )
    assert repr(deep_tree(1)) == (
        "DerivationTree(root='E', production=Production(head='E', body=('a', 'E', 'A')), "
        "children=('a', " + repr(leaf) + ", 'A'))"
    )


def test_deep_tree_walks():
    # frontier, productions and format_tree walk a tree far deeper than the
    # recursion limit
    n = 5000
    nest = Production("E", ("a", "E", "A"))
    leaf = Production("E", ())
    tree = DerivationTree("E", leaf, ())
    for _ in range(n):
        tree = DerivationTree("E", nest, ("a", tree, "A"))
    assert tree.frontier() == "a" * n + "A" * n
    assert tree.productions() == [nest] * n + [leaf]
    lines = format_tree(tree, indent=1).splitlines()
    assert len(lines) == 3 * n + 1
    assert lines[0] == "  E -> a E A" and lines[1] == "    a"
    assert lines[n * 2] == "  " * (n + 1) + "E -> 1"
    assert lines[-1] == "    A"


# --- caches


def test_grammar_caches_are_bounded():
    bound = to_cnf.cache_info().maxsize
    assert bound is not None and _chart_tables.cache_info().maxsize == bound
    for k in range(1, bound + 10):
        g = tiny([("S", "a" * k)])
        assert cyk_member(g, "a" * k)
        assert enumerate_language(to_cnf(g), k) == {"a" * k}
        assert to_cnf.cache_info().currsize <= bound
        assert _chart_tables.cache_info().currsize <= bound


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


def test_union_grammar():
    g = union_grammar([tiny([("S", "a")]), tiny([("S", "b")])])
    assert enumerate_language(g, 2) == {"a", "b"}
    single = union_grammar([E1])
    assert enumerate_language(single, 4) == enumerate_language(E1, 4)
    with pytest.raises(GrammarError):
        union_grammar([])


def test_grammar_stats_examples():
    assert grammar_stats(idempotent_grammar(1)) == (1, 4)
    assert grammar_stats(idempotent_grammar(2)) == (1, 6)
    for k in (1, 2, 3):
        g = avoiding_grammar(k, "a")
        assert grammar_stats(g) == (2 * k, 2 * k * (2 * k + 1))
    assert grammar_stats(K1) == (8, 20)


# --- serialization


def test_bnf_output():
    g = tiny([("S", ""), ("S", "ab"), ("S", ("a", "S"))])
    assert grammar_to_bnf(g) == "S -> 1 | a S | a b\n"


def test_bnf_deterministic():
    assert grammar_to_bnf(K1) == grammar_to_bnf(k1_grammar(1))


def test_json_output():
    g = tiny([("S", "a")], terminals="a")
    d = grammar_to_json_dict(g)
    assert d == {
        "terminals": ["a"],
        "nonterminals": ["S"],
        "start": "S",
        "productions": [{"head": "S", "body": ["a"]}],
    }
    assert grammar_to_json(g).endswith("\n")
