"""Munn trees: canonical forms for free inverse monoid elements.

A tree is the subtree of the free-group Cayley graph traced by reading a
word from the root, together with the endpoint of the path.  Vertices are
reduced words and the root is ``""``.  Two words represent the same monoid
element exactly when their trees are equal, which makes these trees the
semantic oracle for every language in this package.

The vertices are kept in a trie whose nodes are integer ids.  Reading a
word walks it one letter at a time: the inverse of the last letter on the
path steps back to the parent, and any other letter steps to the child for
that letter, created if it is missing.  Reading costs one step per letter
and builds no vertex string; ``MunnTree.edges`` spells the vertices out on
first use.  The deciders walk both words on one trie and build no tree.
``IdempotentReader`` decides idempotency, and the avoidance of a root edge,
one pushed letter at a time on a stack, for words that share prefixes.
"""

from __future__ import annotations

from itertools import islice

from .words import (CANONICAL_ORDER, EPSILON_TOKEN, LETTERS, MAX_RANK, MarkedWord, free_reduce,
                    letter_codes, parse_letter)

__all__ = [
    "MunnTree",
    "avoids",
    "build_munn",
    "fim_equal",
    "in_cowp",
    "in_k1",
    "is_idempotent",
    "munn_product",
    "render_ascii",
    "render_dot",
]

# A trie is (children, parents, inverses): children maps parent << 7 | code
# to the child's id, where code is a letter's ASCII code; parents[i] and
# inverses[i] are node i's parent and the code of the inverse of its last
# letter.  The root is node 0, with inverse code 0, which no letter matches.
# A vertex is first reached from its parent, so parents come first.


def _walk(data: bytes, children: dict, parents: list, inverses: bytearray) -> int:
    """Read data from the root, adding missing nodes; the endpoint's id."""
    get = children.get
    node = 0
    for x in data:
        if x == inverses[node]:
            node = parents[node]
        else:
            key = node << 7 | x
            nxt = get(key)
            if nxt is None:
                nxt = children[key] = len(parents)
                parents.append(node)
                inverses.append(x ^ 32)
            node = nxt
    return node


def _read(word: str) -> tuple[dict, list, bytearray, int]:
    """A fresh trie with word read into it, and the endpoint's id."""
    trie: tuple[dict, list, bytearray] = ({}, [0], bytearray(1))
    return *trie, _walk(letter_codes(word), *trie)


class MunnTree:
    """A trie of reduced words plus the endpoint's node, as reading a word
    builds it: ``build_munn`` reads one and ``munn_product`` grafts one onto
    another.  ``edges`` is the ``frozenset`` of non-root vertices, each
    naming the edge from its parent ``v[:-1]``, so ``len(edges)`` is the
    edge count; ``terminal`` is the endpoint as a reduced word.  Both are
    read-only and built on first use, and the trie is never changed once
    built.  Equal trees compare and hash equal however they were built."""

    __slots__ = ("_children", "_parents", "_inverses", "_end", "_edges", "_hash")

    def __init__(self, children: dict, parents: list, inverses: bytearray, end: int) -> None:
        self._children, self._parents, self._inverses, self._end = (
            children, parents, inverses, end)
        self._edges = self._hash = None

    def _nodes(self):
        """(parent, inverse code) of every non-root node, parents first."""
        return islice(zip(self._parents, self._inverses), 1, None)

    @property
    def edges(self) -> frozenset[str]:
        if self._edges is None:
            names = [""]
            for p, inv in self._nodes():
                names.append(names[p] + chr(inv ^ 32))
            self._edges = frozenset(islice(names, 1, None))
        return self._edges

    @property
    def terminal(self) -> str:
        letters = bytearray()
        node = self._end
        while node:
            letters.append(self._inverses[node] ^ 32)
            node = self._parents[node]
        return letters[::-1].decode()

    def __eq__(self, other: object) -> bool:
        """Maps this tree's nodes into other's children table, parents first."""
        if not isinstance(other, MunnTree):
            return NotImplemented
        if len(self._parents) != len(other._parents):
            return False
        if self._parents == other._parents and self._inverses == other._inverses:
            return self._end == other._end
        get = other._children.get
        image = [0]
        for p, inv in self._nodes():
            node = get(image[p] << 7 | inv ^ 32)
            if node is None:
                return False
            image.append(node)
        return image[self._end] == other._end

    def __hash__(self) -> int:
        """Hashes the set of per-vertex path hashes and the endpoint's."""
        if self._hash is None:
            paths = [0]
            for p, inv in self._nodes():
                paths.append(hash((paths[p], inv)))
            self._hash = hash((frozenset(paths), paths[self._end]))
        return self._hash

    def __reduce__(self):
        return MunnTree, (self._children, self._parents, self._inverses, self._end)

    def __repr__(self) -> str:
        return f"MunnTree(edges={self.edges!r}, terminal={self.terminal!r})"


def build_munn(word: str) -> MunnTree:
    return MunnTree(*_read(word))


def munn_product(s: MunnTree, t: MunnTree) -> MunnTree:
    """Tree of any concatenation u*v where u builds s and v builds t: t's
    nodes grafted, parents first, onto a copy of s at s's endpoint."""
    children, parents, inverses = dict(s._children), list(s._parents), bytearray(s._inverses)
    get = children.get
    image = [s._end]
    for p, inv in t._nodes():
        node = image[p]
        x = inv ^ 32
        if x == inverses[node]:
            node = parents[node]
        else:
            key = node << 7 | x
            nxt = get(key)
            if nxt is None:
                nxt = children[key] = len(parents)
                parents.append(node)
                inverses.append(inv)
            node = nxt
        image.append(node)
    return MunnTree(children, parents, inverses, image[t._end])


def is_idempotent(word: str) -> bool:
    letter_codes(word)  # a non-word raises, as for every decider
    return not free_reduce(word)


def avoids(word: str, x: str) -> bool:
    """True when the tree of the word lacks the edge joining the root to the
    one-letter vertex x."""
    code = ord(parse_letter(x, MAX_RANK))
    children, *_ = _read(word)
    return code not in children


class IdempotentReader:
    """A word read one letter at a time, grown by push and shrunk by pop,
    that answers for one more letter: probe(s) is is_idempotent(w + s) for
    the word w held, and with a letter x to avoid, also avoids(w + s, x).

    It keeps the free-reduction stack of w, the vertex where w's path ends,
    and per pushed letter the letter that push cancelled (0 when it grew the
    stack), which pop puts back.  w + s ends at the root iff the stack is
    the one letter s^-1, and then its tree lacks the edge to x iff no prefix
    of w ends at the vertex x; visits[i] counts the prefixes of w[:i] that
    do.  Memory is linear in len(w)."""

    __slots__ = ("_stack", "_undo", "_visits", "_avoid")

    def __init__(self, avoid: str | None = None) -> None:
        self._stack = bytearray()
        self._undo = bytearray()
        self._visits = [0]
        # 0 matches no stack letter, so with nothing to avoid no visit counts
        self._avoid = 0 if avoid is None else ord(parse_letter(avoid, MAX_RANK))

    def push(self, symbol: str) -> None:
        if symbol not in LETTERS:
            parse_letter(symbol, MAX_RANK)  # raises: no letter
        x = ord(symbol)
        stack = self._stack
        if stack and stack[-1] == x ^ 32:
            self._undo.append(stack.pop())
        else:
            stack.append(x)
            self._undo.append(0)
        self._visits.append(self._visits[-1] + (len(stack) == 1 and stack[0] == self._avoid))

    def pop(self) -> None:
        """Drop the last letter pushed.  On an empty reader, raise
        IndexError and change nothing."""
        if not self._undo:
            raise IndexError("pop from an empty reader")
        x = self._undo.pop()
        if x:
            self._stack.append(x)
        else:
            self._stack.pop()
        self._visits.pop()

    def probe(self, symbol: str) -> bool:
        """Whether the word held, then symbol, is idempotent and avoids the
        letter; the reader is left as it was."""
        if symbol not in LETTERS:
            parse_letter(symbol, MAX_RANK)  # raises: no letter
        stack = self._stack
        return len(stack) == 1 and stack[0] == ord(symbol) ^ 32 and not self._visits[-1]

    def accepts(self) -> bool:
        """Whether the word held is idempotent and avoids the letter."""
        return not self._stack and not self._visits[-1]


def fim_equal(u: str, v: str) -> bool:
    """Reads u, then v on u's trie: equal when v adds no node, visits every
    node and ends at u's endpoint."""
    children, parents, inverses, end = _read(u)
    get = children.get
    seen = bytearray(len(parents))  # the root is never reached through get
    unseen = len(parents) - 1
    node = 0
    for x in letter_codes(v):
        if x == inverses[node]:
            node = parents[node]
        else:
            node = get(node << 7 | x)
            if node is None:
                return False
            if not seen[node]:
                seen[node] = 1
                unseen -= 1
    return node == end and not unseen


def in_k1(u: str, v: str) -> bool:
    """Equal in the free group, but u's tree has an edge v's tree lacks:
    reading u after v ends where v does and adds a node."""
    children, parents, inverses, end = _read(v)
    size = len(parents)
    return _walk(letter_codes(u), children, parents, inverses) == end and len(parents) > size


def in_cowp(marked: MarkedWord) -> bool:
    u, v = marked.pair()
    return not fim_equal(u, v)


def _vertex_label(vertex: str) -> str:
    return vertex or EPSILON_TOKEN


def render_dot(tree: MunnTree) -> str:
    # every vertex, the root included, length first and then canonical
    vertices = sorted({"", *tree.edges}, key=lambda v: (len(v), v.translate(CANONICAL_ORDER)))
    terminal = tree.terminal
    lines = ["graph munn {"]
    for vertex in vertices:
        attrs = []
        if vertex == "":
            attrs.append("shape=doublecircle")
        if vertex == terminal:
            attrs.append("style=filled")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{_vertex_label(vertex)}"{suffix};')
    for vertex in vertices[1:]:
        lines.append(f'  "{_vertex_label(vertex[:-1])}" -- "{vertex}" [label="{vertex[-1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_ascii(tree: MunnTree) -> str:
    """One line per vertex, depth first from the root with children in
    canonical order: that is the lexicographic order of the vertices over
    the canonical symbol order, each indented by its length."""
    terminal = tree.terminal
    lines = [f"{EPSILON_TOKEN} (root)" + (" (terminal)" if terminal == "" else "")]
    for vertex in sorted(tree.edges, key=lambda v: v.translate(CANONICAL_ORDER)):
        mark = " (terminal)" if vertex == terminal else ""
        lines.append("  " * len(vertex) + f"{vertex[-1]} {vertex}{mark}")
    return "\n".join(lines) + "\n"
