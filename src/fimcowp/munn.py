"""Munn trees: canonical forms for free inverse monoid elements.

A tree is the subtree of the free-group Cayley graph traced by reading a
word from the root, together with the endpoint of the path.  Vertices are
reduced words, the root is ``""``, and the parent of a vertex is the vertex
minus its last letter.  A tree is therefore stored as its set of non-root
vertices, each naming the edge from its parent, plus the endpoint.  Two
words represent the same monoid element exactly when their trees are
equal, which makes these trees the semantic oracle for every language in
this package.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .words import EPSILON_TOKEN, MarkedWord, free_reduce, symbol_sort_key


@dataclass(frozen=True)
class MunnTree:
    """``edges`` holds the non-root vertices; each names the edge from its
    parent ``v[:-1]``, so ``len(edges)`` is the edge count."""

    edges: frozenset[str]
    terminal: str


def build_munn(word: str) -> MunnTree:
    """A vertex is always first reached from its parent, so only forward
    steps add one."""
    edges: set[str] = set()
    vertex = ""
    for letter in word:
        if vertex and vertex[-1] == letter.swapcase():
            vertex = vertex[:-1]
        else:
            vertex += letter
            edges.add(vertex)
    return MunnTree(frozenset(edges), vertex)


def munn_product(s: MunnTree, t: MunnTree) -> MunnTree:
    """Tree of any concatenation u*v where u builds s and v builds t: t's
    vertices shifted by s's terminal, united with s's."""
    shifted = {free_reduce(s.terminal + vertex) for vertex in t.edges} - {""}
    return MunnTree(s.edges | shifted, free_reduce(s.terminal + t.terminal))


def is_idempotent(word: str) -> bool:
    return not free_reduce(word)


def avoids(word: str, x: str) -> bool:
    """True when the tree of the word lacks the edge joining the root to the
    one-letter vertex x."""
    if len(x) != 1:
        raise ValueError(f"expected one letter, got {x!r}")
    return x not in build_munn(word).edges


def fim_equal(u: str, v: str) -> bool:
    return build_munn(u) == build_munn(v)


def in_k1(u: str, v: str) -> bool:
    """Equal in the free group, but u's tree has an edge v's tree lacks."""
    tu = build_munn(u)
    tv = build_munn(v)
    return tu.terminal == tv.terminal and not tu.edges <= tv.edges


def in_cowp(marked: MarkedWord) -> bool:
    u, v = marked.pair()
    return not fim_equal(u, v)


def _vertex_label(vertex: str) -> str:
    return vertex or EPSILON_TOKEN


def tree_vertices(tree: MunnTree) -> list[str]:
    """All vertices in length-then-canonical order; the root is always present."""
    return sorted({"", *tree.edges}, key=symbol_sort_key)


def render_dot(tree: MunnTree) -> str:
    vertices = tree_vertices(tree)
    lines = ["graph munn {"]
    for vertex in vertices:
        attrs = []
        if vertex == "":
            attrs.append("shape=doublecircle")
        if vertex == tree.terminal:
            attrs.append("style=filled")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{_vertex_label(vertex)}"{suffix};')
    for vertex in vertices[1:]:
        lines.append(f'  "{_vertex_label(vertex[:-1])}" -- "{vertex}" [label="{vertex[-1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_ascii(tree: MunnTree) -> str:
    """One line per vertex, depth first from the root, children in canonical
    order; iterative, so a tree of any depth renders."""
    children: dict[str, list[str]] = defaultdict(list)
    for vertex in tree_vertices(tree)[1:]:
        children[vertex[:-1]].append(vertex)

    lines = [f"{EPSILON_TOKEN} (root)" + (" (terminal)" if tree.terminal == "" else "")]
    stack = [(child, 1) for child in reversed(children[""])]
    while stack:
        vertex, depth = stack.pop()
        mark = " (terminal)" if vertex == tree.terminal else ""
        lines.append("  " * depth + f"{vertex[-1]} {vertex}{mark}")
        stack.extend((child, depth + 1) for child in reversed(children[vertex]))
    return "\n".join(lines) + "\n"
