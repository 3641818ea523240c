"""Munn trees: canonical forms for free inverse monoid elements.

A tree is the subtree of the free-group Cayley graph traced by reading a
word from the root, together with the endpoint of the path.  Vertices are
reduced words, the root is ``""``.  Two words represent the same monoid
element exactly when their trees are equal, which makes these trees the
semantic oracle for every language in this package.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from .words import EPSILON_TOKEN, MarkedWord, free_reduce, symbol_sort_key


class Edge(NamedTuple):
    """A Cayley-graph edge, keyed by the endpoint nearer the root plus the
    letter read walking away from the root; the far endpoint is
    ``vertex + letter``."""

    vertex: str
    letter: str


@dataclass(frozen=True)
class MunnTree:
    edges: frozenset[Edge]
    terminal: str


def _step(vertex: str, letter: str) -> tuple[Edge, str]:
    """Normalized edge and endpoint reached by reading a letter from a reduced vertex."""
    if vertex and vertex[-1] == letter.swapcase():
        target = vertex[:-1]
        return Edge(target, vertex[-1]), target
    return Edge(vertex, letter), vertex + letter


def build_munn(word: str) -> MunnTree:
    edges: set[Edge] = set()
    vertex = ""
    for letter in word:
        edge, vertex = _step(vertex, letter)
        edges.add(edge)
    return MunnTree(frozenset(edges), vertex)


def munn_product(s: MunnTree, t: MunnTree) -> MunnTree:
    """Tree of any concatenation u*v where u builds s and v builds t: shift
    t's edges by s's terminal, re-normalize each, and union with s."""
    edges = set(s.edges)
    for edge in t.edges:
        base = free_reduce(s.terminal + edge.vertex)
        shifted, _ = _step(base, edge.letter)
        edges.add(shifted)
    return MunnTree(frozenset(edges), free_reduce(s.terminal + t.terminal))


def is_idempotent(word: str) -> bool:
    return not free_reduce(word)


def avoids(word: str, x: str) -> bool:
    """True when the tree of the word lacks the edge joining the root to x."""
    return Edge("", x) not in build_munn(word).edges


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
    seen = {"", tree.terminal}
    seen.update(edge.vertex + edge.letter for edge in tree.edges)
    return sorted(seen, key=symbol_sort_key)


def _sorted_edges(tree: MunnTree) -> list[Edge]:
    """Edges in the order of their far endpoints."""
    return sorted(tree.edges, key=lambda e: symbol_sort_key(e.vertex + e.letter))


def render_dot(tree: MunnTree) -> str:
    lines = ["graph munn {"]
    for vertex in tree_vertices(tree):
        attrs = []
        if vertex == "":
            attrs.append("shape=doublecircle")
        if vertex == tree.terminal:
            attrs.append("style=filled")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{_vertex_label(vertex)}"{suffix};')
    for edge in _sorted_edges(tree):
        near = _vertex_label(edge.vertex)
        far = edge.vertex + edge.letter
        lines.append(f'  "{near}" -- "{far}" [label="{edge.letter}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_ascii(tree: MunnTree) -> str:
    """One line per vertex, depth first from the root, children in canonical
    order; iterative, so a tree of any depth renders."""
    children: dict[str, list[str]] = defaultdict(list)
    for edge in _sorted_edges(tree):
        children[edge.vertex].append(edge.vertex + edge.letter)

    lines = [f"{EPSILON_TOKEN} (root)" + (" (terminal)" if tree.terminal == "" else "")]
    stack = [(child, 1) for child in reversed(children[""])]
    while stack:
        vertex, depth = stack.pop()
        mark = " (terminal)" if vertex == tree.terminal else ""
        lines.append("  " * depth + f"{vertex[-1]} {vertex}{mark}")
        stack.extend((child, depth + 1) for child in reversed(children[vertex]))
    return "\n".join(lines) + "\n"
