import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from fimcowp import (
    MunnTree,
    WordSyntaxError,
    alphabet,
    avoids,
    build_munn,
    fim_equal,
    free_reduce,
    in_cowp,
    in_k1,
    is_idempotent,
    munn_product,
    parse_marked,
    parse_word,
    render_ascii,
    render_dot,
    rev_invert,
)
from fimcowp.munn import IdempotentReader
from fimcowp.oracle import enumerate_marked, enumerate_words
from fimcowp.words import parse_letter


def W(text, rank=2):
    return parse_word(text, rank)


words2 = st.text(alphabet=alphabet(2), max_size=8)


def test_build_munn_examples():
    assert _as_ref(build_munn("")) == (frozenset(), "")
    assert _as_ref(build_munn(W("aA"))) == (frozenset({"a"}), "")
    assert _as_ref(build_munn(W("aAa"))) == (frozenset({"a"}), W("a"))
    assert _as_ref(build_munn(W("abBA"))) == (frozenset({"a", "ab"}), "")
    # an edge is named by its far endpoint, whichever way it was read
    assert build_munn(W("AabB")).edges == frozenset({"A", "b"})


def _check_reference(w):
    # the vertices are the reduced prefixes of w, the endpoint its reduced form
    t = build_munn(w)
    assert "" not in t.edges
    assert t.edges | {""} == {free_reduce(w[:i]) for i in range(len(w) + 1)}
    assert t.terminal == free_reduce(w)


def test_build_munn_reference_exhaustive():
    for w in enumerate_words(2, 7):
        _check_reference(w)


@given(st.text(alphabet=alphabet(3), max_size=40))
def test_build_munn_reference(w):
    _check_reference(w)


def _is_prefix_closed(tree):
    return "" not in tree.edges and all(v[:-1] in tree.edges for v in tree.edges if len(v) > 1)


def test_build_munn_edge_count_bounded_by_length():
    for w in enumerate_words(2, 6):
        assert len(build_munn(w).edges) <= len(w)


def test_edges_are_named_by_far_endpoint():
    # reading an inverse letter from the root gives the root edge
    # in the inverse direction, distinct from the positive-direction edge
    t = build_munn(W("Aa"))
    assert t.edges == frozenset({"A"})
    assert build_munn(W("Aa")) != build_munn(W("aA"))


def test_munn_tree_equality_examples():
    assert build_munn(W("aAa")) == build_munn(W("a"))
    assert build_munn(W("aA")) != build_munn("")
    assert build_munn(W("ab")) != build_munn(W("ba"))


def test_munn_trees_with_the_same_codes_and_endpoint_but_other_parents_differ():
    # both tries have three nodes, inverse codes A and B in that order and
    # endpoint 2, but b hangs off a in one and off the root in the other
    assert build_munn(W("ab")) != build_munn(W("aAb"))


def test_munn_product_examples():
    for text in ["", "a", "ab", "aBa"]:
        t = build_munn(W(text))
        assert munn_product(build_munn(""), t) == t
    assert munn_product(build_munn(W("a")), build_munn(W("A"))) == build_munn(W("aA"))
    assert munn_product(build_munn(W("aA")), build_munn(W("bB"))) == build_munn(W("aAbB"))


def test_munn_product_soundness_exhaustive_small():
    words = list(enumerate_words(2, 3))
    trees = {w: build_munn(w) for w in words}
    for u in words:
        for v in words:
            product = munn_product(trees[u], trees[v])
            assert product == build_munn(u + v)
            assert _is_prefix_closed(product)


@given(words2, words2)
def test_munn_product_soundness(u, v):
    assert munn_product(build_munn(u), build_munn(v)) == build_munn(u + v)


@given(words2, words2, words2)
def test_munn_product_associative(u, v, w):
    s, t, r = build_munn(u), build_munn(v), build_munn(w)
    left = munn_product(munn_product(s, t), r)
    assert left == munn_product(s, munn_product(t, r))
    assert _is_prefix_closed(left)


def test_is_idempotent_examples():
    assert is_idempotent("")
    assert is_idempotent(W("aA"))
    assert not is_idempotent(W("a"))
    # a text with a non-letter is no word, as for every decider
    with pytest.raises(WordSyntaxError) as info:
        is_idempotent("a##A")
    assert str(info.value) == "unexpected '#' in word 'a##A'"


def test_idempotent_characterization():
    for rank in (1, 2):
        for w in enumerate_words(rank, 8):
            assert is_idempotent(w) == fim_equal(w + w, w)


def test_avoids_examples():
    assert avoids("", "a")
    assert avoids(W("bB"), "a")
    assert not avoids(W("aA"), "a")
    assert avoids(W("Aa"), "a")  # only the inverse-direction edge is present


@pytest.mark.parametrize("x", ["", "ab", "aA"])
def test_avoids_rejects_non_letter(x):
    with pytest.raises(WordSyntaxError) as info:
        avoids(W("abBA"), x)
    assert str(info.value) == f"not a generator letter: {x!r}"


def test_avoids_symmetry_under_rev_invert():
    # idempotents build the same tree as their reverse-inverse
    for w in enumerate_words(2, 8):
        if not is_idempotent(w):
            continue
        for x in alphabet(2):
            assert avoids(w, x) == avoids(rev_invert(w), x)


def test_fim_equal_examples():
    assert fim_equal(W("aAa"), W("a"))
    assert not fim_equal(W("aA"), "")
    assert fim_equal(W("ab"), W("ab"))


def test_in_k1_examples():
    assert in_k1(W("aA"), "")
    assert not in_k1("", W("aA"))
    assert not in_k1(W("a"), W("b"))


def test_in_cowp_examples():
    assert in_cowp(parse_marked("aA#", 1))
    assert not in_cowp(parse_marked("a#A", 1))
    assert not in_cowp(parse_marked("aAa#A", 1))


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 6)])
def test_wp_cowp_partition(rank, max_len):
    for m in enumerate_marked(rank, max_len):
        u, v = m.pair()
        assert fim_equal(u, v) != in_cowp(m)


@pytest.mark.parametrize("rank,max_len", [(1, 6), (2, 5)])
def test_cowp_decomposition(rank, max_len):
    # coWP = K1 union K2 union (free-group inequality)
    for m in enumerate_marked(rank, max_len):
        u, v = m.pair()
        split = in_k1(u, v) or in_k1(v, u) or free_reduce(u) != free_reduce(v)
        assert in_cowp(m) == split


def test_tree_vertices_sorted():
    # render_dot lists every vertex, length first and then canonical, the root as 1
    def vertices(word):
        lines = render_dot(build_munn(W(word))).splitlines()[1:-1]
        return [line.split('"')[1] for line in lines if " -- " not in line]

    assert vertices("abA") == ["1", "a", "ab", "abA"]
    assert vertices("bBBbAaaA") == ["1", "a", "A", "b", "B"]


def test_render_dot_empty():
    assert render_dot(build_munn("")) == (
        'graph munn {\n  "1" [shape=doublecircle, style=filled];\n}\n'
    )


def test_render_dot_single_edge():
    assert render_dot(build_munn(W("aA"))) == (
        "graph munn {\n"
        '  "1" [shape=doublecircle, style=filled];\n'
        '  "a";\n'
        '  "1" -- "a" [label="a"];\n'
        "}\n"
    )


def test_render_dot_path():
    assert render_dot(build_munn(W("ab"))) == (
        "graph munn {\n"
        '  "1" [shape=doublecircle];\n'
        '  "a";\n'
        '  "ab" [style=filled];\n'
        '  "1" -- "a" [label="a"];\n'
        '  "a" -- "ab" [label="b"];\n'
        "}\n"
    )
    # branching at the root and below it; the path ends back at the root
    assert render_dot(build_munn(W("abBcCAAcCaBb", 3))) == (
        "graph munn {\n"
        '  "1" [shape=doublecircle, style=filled];\n'
        '  "a";\n'
        '  "A";\n'
        '  "B";\n'
        '  "ab";\n'
        '  "ac";\n'
        '  "Ac";\n'
        '  "1" -- "a" [label="a"];\n'
        '  "1" -- "A" [label="A"];\n'
        '  "1" -- "B" [label="B"];\n'
        '  "a" -- "ab" [label="b"];\n'
        '  "a" -- "ac" [label="c"];\n'
        '  "A" -- "Ac" [label="c"];\n'
        "}\n"
    )


def test_render_ascii():
    assert render_ascii(build_munn(W("ab"))) == (
        "1 (root)\n  a a\n    b ab (terminal)\n"
    )
    assert render_ascii(build_munn("")) == "1 (root) (terminal)\n"
    assert render_ascii(build_munn(W("bBBbAaaAa"))) == (
        "1 (root)\n  a a (terminal)\n  A A\n  b b\n  B B\n"
    )
    assert render_ascii(build_munn(W("abBcCAAcCaBb", 3))) == (
        "1 (root) (terminal)\n  a a\n    b ab\n    c ac\n  A A\n    c Ac\n  B B\n"
    )
    # the same tree, ending at a branching vertex below the root
    assert render_ascii(build_munn(W("abBcCAAcCaBba", 3))) == (
        "1 (root)\n  a a (terminal)\n    b ab\n    c ac\n  A A\n    c Ac\n  B B\n"
    )


# sha256 of both renders of a seeded random 1,999-letter rank-3 word, whose
# tree has 1,587 vertices, recorded before the sort keys came from one
# str.translate per vertex
RENDER_SHA256 = {
    render_ascii: "20b97590b1e2275c252ac320625bbc9a0fc4ab534fb0c64eb61a4dfb66cc1207",
    render_dot: "7b2422366d4e3f185beee36e6d272457a1eccebcb7a63e4e2b1f85b29f8034e5",
}


def test_renders_of_a_long_word_are_pinned():
    rng = random.Random(6)
    tree = build_munn("".join(rng.choice(alphabet(3)) for _ in range(1999)))
    assert len(tree.edges) + 1 == 1587
    for render, digest in RENDER_SHA256.items():
        assert hashlib.sha256(render(tree).encode()).hexdigest() == digest, render.__name__


def dfs_ascii(tree):
    # depth first over the edge set, children in canonical letter order
    order = alphabet(26).index
    children = {}
    for vertex in sorted(tree.edges, key=lambda v: order(v[-1])):
        children.setdefault(vertex[:-1], []).append(vertex)

    def mark(vertex):
        return " (terminal)" if vertex == tree.terminal else ""

    def visit(vertex):
        lines.append("  " * len(vertex) + f"{vertex[-1]} {vertex}{mark(vertex)}")
        for child in children.get(vertex, ()):
            visit(child)

    lines = ["1 (root)" + mark("")]
    for child in children.get("", ()):
        visit(child)
    return "\n".join(lines) + "\n"


@given(st.integers(1, 3).flatmap(lambda rank: st.text(alphabet=alphabet(rank), max_size=40)))
def test_render_ascii_is_a_depth_first_walk(w):
    tree = build_munn(w)
    assert render_ascii(tree) == dfs_ascii(tree)


def test_repr_and_comparison_with_other_types():
    assert repr(build_munn("aA")) == "MunnTree(edges=frozenset({'a'}), terminal='')"
    assert (build_munn("a") == "a") is False
    assert build_munn("") != ""


# --- the string-set algorithm, kept as a test-only reference ---------------
# A tree is (set of non-root vertices, endpoint): the reduced prefixes of the
# word and its reduced form.


def ref_tree(w):
    return frozenset(free_reduce(w[:i]) for i in range(1, len(w) + 1)) - {""}, free_reduce(w)


def ref_product(s, t):
    (s_vertices, s_end), (t_vertices, t_end) = s, t
    shifted = {free_reduce(s_end + v) for v in t_vertices} - {""}
    return s_vertices | shifted, free_reduce(s_end + t_end)


def ref_in_k1(s, t):
    (s_vertices, s_end), (t_vertices, t_end) = s, t
    return s_end == t_end and not s_vertices <= t_vertices


def _as_ref(tree):
    return tree.edges, tree.terminal


def _check_against_reference(u, v, trees, refs):
    for w in (u, v, u + v):
        if w not in trees:
            trees[w], refs[w] = build_munn(w), ref_tree(w)
    assert fim_equal(u, v) == (refs[u] == refs[v])
    assert in_k1(u, v) == ref_in_k1(refs[u], refs[v])
    product = munn_product(trees[u], trees[v])
    assert _as_ref(product) == refs[u + v]
    assert product == trees[u + v]


def test_deciders_match_reference_exhaustive():
    # every rank-2 word of length <= 7, and every split of it into a pair,
    # so (v, u) is checked wherever (u, v) is
    trees, refs = {}, {}
    for w in enumerate_words(2, 7):
        trees[w], refs[w] = build_munn(w), ref_tree(w)
        assert _as_ref(trees[w]) == refs[w]
        assert is_idempotent(w) == (refs[w][1] == "")
        for x in alphabet(2):
            assert avoids(w, x) == (x not in refs[w][0])
        for i in range(len(w) + 1):
            _check_against_reference(w[:i], w[i:], trees, refs)


def test_in_cowp_matches_reference_exhaustive():
    for m in enumerate_marked(2, 6):
        u, v = m.pair()
        assert in_cowp(m) == (ref_tree(u) != ref_tree(v))


words3 = st.text(alphabet=alphabet(3), max_size=60)


@settings(max_examples=300, deadline=None)
@given(words3, words3, st.sampled_from(alphabet(3)))
def test_deciders_match_reference(u, v, x):
    assert _as_ref(build_munn(u)) == ref_tree(u)
    assert avoids(u, x) == (x not in ref_tree(u)[0])
    product = munn_product(build_munn(u), build_munn(v))
    assert _as_ref(product) == ref_product(ref_tree(u), ref_tree(v))
    trees, refs = {}, {}
    # u u^-1 u equals u in the monoid; u x x^-1 x^-1 x only when u's tree
    # already has both edges at u's endpoint
    for left, right in ((u, v), (v, u), (u, u + rev_invert(u) + u),
                        (u, u + x + x.swapcase() * 2 + x)):
        _check_against_reference(left, right, trees, refs)


@pytest.mark.parametrize("left,right", [
    (munn_product(build_munn("abA"), build_munn("aBBa")), build_munn("abAaBBa")),
    (build_munn("aAa"), build_munn("a")),
    (build_munn("abBAAaab"), build_munn("AaabBb")),
    (munn_product(build_munn(""), build_munn("")), build_munn("")),
])
def test_separate_builds_compare_and_hash_equal(left, right):
    assert left == right and right == left
    assert hash(left) == hash(right)
    assert len({left, right}) == 1
    assert _as_ref(left) == _as_ref(right)


def test_literal_constructor_matches_build_munn():
    # the tree with a given vertex set and endpoint: a word that visits each
    # vertex and comes back, in reverse order, then walks to the endpoint;
    # its trie mostly has another node order than w's
    for w in enumerate_words(2, 5):
        t = build_munn(w)
        other = build_munn("".join(v + rev_invert(v) for v in sorted(t.edges, reverse=True))
                           + t.terminal)
        assert other == t and hash(other) == hash(t)
        assert other.edges == t.edges and other.terminal == t.terminal


def test_the_constructor_takes_a_trie_not_a_vertex_set():
    with pytest.raises(TypeError):
        MunnTree(frozenset({"a"}), "")


def test_trees_are_immutable_and_pickle():
    import pickle

    t = build_munn(W("abBAAc", 3))
    for name in ("edges", "terminal", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    for name in ("edges", "terminal"):
        with pytest.raises(AttributeError):
            delattr(t, name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(t, protocol))
        assert clone == t and hash(clone) == hash(t)
        assert _as_ref(clone) == _as_ref(t) == ref_tree("abBAAc")
        assert munn_product(clone, t) == build_munn("abBAAc" * 2)
    for s, w in ((munn_product(build_munn("abA"), build_munn("aBBa")), "abAaBBa"),
                 (build_munn(""), "")):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(s, protocol))
            assert clone == s and hash(clone) == hash(s)
            assert _as_ref(clone) == _as_ref(s) == ref_tree(w)


# each text with the message of its WordSyntaxError
_NON_WORDS = {
    "a#": "unexpected '#' in word 'a#'",
    "a1": "not a generator letter: '1'",
    "ab c": "not a generator letter: ' '",
    "é": "not a generator letter: 'é'",
    "aé": "not a generator letter: 'é'",
}


@pytest.mark.parametrize("word", list(_NON_WORDS))
def test_deciders_reject_non_letters(word):
    message = _NON_WORDS[word]
    for call in (lambda: build_munn(word), lambda: fim_equal(word, "a"),
                 lambda: in_k1("a", word), lambda: avoids(word, "a"),
                 lambda: is_idempotent(word)):
        with pytest.raises(WordSyntaxError) as info:
            call()
        assert str(info.value) == message


@st.composite
def reader_runs(draw):
    """A rank, a letter to avoid or none, and steps: ("push", letter),
    ("pop", None) or ("probe", letter)."""
    rank = draw(st.integers(1, 3))
    letters = alphabet(rank)
    avoid = draw(st.sampled_from([None, *letters]))
    step = st.one_of(st.tuples(st.just("push"), st.sampled_from(letters)),
                     st.tuples(st.just("pop"), st.none()),
                     st.tuples(st.just("probe"), st.sampled_from(letters)))
    return avoid, draw(st.lists(step, max_size=60))


def reader_truth(word, avoid):
    return is_idempotent(word) and (not avoid or avoids(word, avoid))


@settings(max_examples=200, deadline=None)
@given(reader_runs())
def test_idempotent_reader_matches_the_deciders(run):
    avoid, steps = run
    reader, held = IdempotentReader(avoid), ""
    for op, letter in steps:
        if op == "push":
            reader.push(letter)
            held += letter
        elif op == "pop" and not held:
            with pytest.raises(IndexError):
                reader.pop()
        elif op == "pop":
            reader.pop()
            held = held[:-1]
        else:
            assert reader.probe(letter) == reader_truth(held + letter, avoid), (held, letter)
        assert reader.accepts() == reader_truth(held, avoid), held


@pytest.mark.parametrize("symbol", ["#", "1", "é", "", "ab"])
def test_idempotent_reader_rejects_non_letters(symbol):
    reader = IdempotentReader("a")
    reader.push("a")
    for call in (reader.push, reader.probe):
        with pytest.raises(WordSyntaxError) as info:
            call(symbol)
        assert str(info.value) == f"not a generator letter: {symbol!r}"
    # nothing was pushed: aA ends at the root, but visited a
    assert not reader.probe("A")
    reader.pop()
    with pytest.raises(IndexError):
        reader.pop()
    assert reader.accepts()
    with pytest.raises(WordSyntaxError) as info:
        IdempotentReader(symbol)
    assert str(info.value) == f"not a generator letter: {symbol!r}"


def _message(call):
    """The message of the WordSyntaxError that call must raise."""
    with pytest.raises(WordSyntaxError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("text", ["a#", "a1", "ab c", "é", "aé", "\ud800", "a\udcff"])
def test_deciders_reject_a_bad_word_as_parse_word(text):
    calls = (lambda: build_munn(text), lambda: fim_equal(text, "a"), lambda: fim_equal("a", text),
             lambda: in_k1(text, "a"), lambda: in_k1("a", text), lambda: avoids(text, "a"),
             lambda: is_idempotent(text))
    expected = _message(lambda: parse_word(text, 26))
    assert [_message(call) for call in calls] == [expected] * len(calls)


@pytest.mark.parametrize("x", ["", "ab", "#", "1", "é", "\ud800"])
def test_letter_takers_reject_a_bad_letter_as_parse_letter(x):
    reader = IdempotentReader("a")
    calls = [lambda: avoids("aA", x), lambda: reader.push(x), lambda: reader.probe(x),
             lambda: IdempotentReader(x)]
    expected = _message(lambda: parse_letter(x, 26))
    assert [_message(call) for call in calls] == [expected] * len(calls)


def test_linear_memory_on_deep_words():
    # each vertex string of a^n A^n alone would take about n^2 / 2 bytes (200 MB)
    import tracemalloc

    n = 20_000
    w = "a" * n + "A" * n
    tracemalloc.start()
    try:
        assert fim_equal(w, w + "aA")
        assert not fim_equal(w, w + "bB")
        assert in_k1(w + "bB", w)
        assert not in_k1(w, w + "bB")
        assert munn_product(build_munn(w), build_munn(w)) == build_munn(w)
        assert munn_product(build_munn(w), build_munn("b")) == build_munn(w + "b")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
