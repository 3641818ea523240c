"""Grammar constructors for the languages attached to a free inverse monoid
of finite rank: idempotent words, idempotents avoiding a rooted edge, the two
one-sided co-word-problem languages K1 and K2, the free-group co-word
problem, and their union, the full co-word problem.  LANGUAGES names each
with its constructor, its Munn-tree oracle and its universe.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from typing import Any, Callable, NamedTuple

from . import munn, words
from .cfg import (
    Grammar,
    Production,
    insert_marker_grammar,
    reverse_invert_grammar,
    union_grammar,
)
from .oracle import enumerate_words
from .words import MARKER, MarkedWord, alphabet, parse_letter, rev_invert


def _nt(tag: str, letter: str) -> str:
    return f"{tag}({letter})"


def _idempotent_productions(letters: str) -> list[Production]:
    # E -> E E | x E x^-1 | epsilon, one bracketing production per letter
    prods = [Production("E", ("E", "E")), Production("E", ())]
    for x in letters:
        prods.append(Production("E", (x, "E", x.swapcase())))
    return prods


def _avoiding_productions(letters: str) -> list[Production]:
    # Z(a) -> Z(a) Z(a) | y Z(y^-1) y^-1 | epsilon, over y != a
    prods = []
    for a in letters:
        za = _nt("Z", a)
        prods.append(Production(za, (za, za)))
        prods.append(Production(za, ()))
        for y in letters:
            if y != a:
                prods.append(Production(za, (y, _nt("Z", y.swapcase()), y.swapcase())))
    return prods


@lru_cache(maxsize=None)
def idempotent_grammar(rank: int) -> Grammar:
    """Words representing idempotents, i.e. words freely reducing to the
    empty word."""
    letters = alphabet(rank)
    return Grammar(set(letters), {"E"}, _idempotent_productions(letters), "E")


@lru_cache(maxsize=None)
def avoiding_grammar(rank: int, avoid: str) -> Grammar:
    """Idempotent words whose tree lacks the edge from the root to `avoid`.

    The whole Z-family is emitted; the start selects the avoided letter.
    """
    letters = alphabet(rank)
    if len(avoid) != 1 or avoid not in letters:
        raise ValueError(f"letter {avoid!r} out of range for rank {rank}")
    nts = {_nt("Z", a) for a in letters}
    return Grammar(set(letters), nts, _avoiding_productions(letters), _nt("Z", avoid))


@lru_cache(maxsize=None)
def k1_grammar(rank: int) -> Grammar:
    """Marked words u#t whose decoded pair (u, v) is equal in the free group
    while the tree of u has an edge the tree of v lacks."""
    letters = alphabet(rank)
    prods: list[Production] = []
    for x in letters:
        xi = x.swapcase()
        prods.append(Production("S", (_nt("P", x),)))
        prods.append(Production(_nt("Q", x), (MARKER,)))
        for y in letters:
            if y != xi:
                prods.append(Production(_nt("P", x), ("E", x, _nt("P", y), xi, _nt("Z", x))))
                prods.append(Production(_nt("Q", x), (x, "E", _nt("Q", y), _nt("Z", xi), xi)))
            if y != x:
                prods.append(
                    Production(_nt("P", x), ("E", x, "E", xi, "E", _nt("Q", y), _nt("Z", x)))
                )
    prods += _idempotent_productions(letters)
    prods += _avoiding_productions(letters)
    nts = {"S", "E"}
    for tag in ("P", "Q", "Z"):
        nts.update(_nt(tag, x) for x in letters)
    return Grammar(set(letters) | {MARKER}, nts, prods, "S")


@lru_cache(maxsize=None)
def k2_grammar(rank: int) -> Grammar:
    """Mirror of k1_grammar: the pair is equal in the free group while the
    tree of v has an edge the tree of u lacks."""
    involution = {x: x.swapcase() for x in alphabet(rank)}
    return reverse_invert_grammar(k1_grammar(rank), involution)


@lru_cache(maxsize=None)
def cowp_fg_grammar(rank: int) -> Grammar:
    """Marked words u#t with u·t not reducing to the empty word, i.e. the
    co-word problem of the free group in marked form.

    Built from a grammar for words with nonempty reduced form, factored
    along the reduced-form path (idempotent padding between the letters of
    the reduced word), with the marker spliced in afterwards.
    """
    letters = alphabet(rank)
    prods: list[Production] = []
    for x in letters:
        rx = _nt("R", x)
        prods.append(Production("S", ("E", x, rx)))
        prods.append(Production(rx, ("E",)))
        for y in letters:
            if y != x.swapcase():
                prods.append(Production(rx, ("E", y, _nt("R", y))))
    prods += _idempotent_productions(letters)
    nts = {"S", "E"} | {_nt("R", x) for x in letters}
    nontrivial = Grammar(set(letters), nts, prods, "S")
    return insert_marker_grammar(nontrivial, MARKER)


@lru_cache(maxsize=None)
def cowp_fim_grammar(rank: int) -> Grammar:
    """Union grammar for the full co-word problem over well-formed marked
    words: K1, K2, and the free-group co-word problem."""
    return union_grammar([k1_grammar(rank), k2_grammar(rank), cowp_fg_grammar(rank)])


# Munn-tree oracles on one universe item, module-level so that crosscheck
# workers can unpickle them.  They reach the deciders, and `language` the
# constructors, through module attributes at each call, so that a wrapper
# set on such an attribute sees every call.


def _idempotent(item: str) -> bool:
    return munn.is_idempotent(item)


def _avoiding(letter: str, item: str) -> bool:
    return munn.is_idempotent(item) and munn.avoids(item, letter)


def _k1(item: MarkedWord) -> bool:
    return munn.in_k1(*item.pair())


def _k2(item: MarkedWord) -> bool:
    u, v = item.pair()
    return munn.in_k1(v, u)


def _fg_nontrivial(item: MarkedWord) -> bool:
    return words.free_reduce(item.left + item.right) != ""


def _cowp(item: MarkedWord) -> bool:
    return munn.in_cowp(item)


ZX = "Zx:<letter>"

# name -> (grammar constructor, oracle, whether the universe is marked words)
LANGUAGES: dict[str, tuple[str, Callable, bool]] = {
    "E": ("idempotent_grammar", _idempotent, False),
    ZX: ("avoiding_grammar", _avoiding, False),
    "K1": ("k1_grammar", _k1, True),
    "K2": ("k2_grammar", _k2, True),
    "coWP-FG": ("cowp_fg_grammar", _fg_nontrivial, True),
    "coWP-FIM": ("cowp_fim_grammar", _cowp, True),
}


class Language(NamedTuple):
    """A row of LANGUAGES at one rank: the grammar constructor bound to its
    arguments, the picklable oracle, and whether the universe is marked
    words (True) or words (False)."""

    grammar: Callable[[], Grammar]
    oracle: Callable[[Any], bool]
    marked: bool


def language(which: str, rank: int) -> Language:
    """The language of LANGUAGES named `which`, at this rank; the ZX row
    is named with a letter of the rank, as in Zx:a."""
    args: tuple = ()
    if which.startswith("Zx:"):
        if len(which) != 4:
            raise ValueError(f"expected Zx:<letter>, got {which!r}")
        args, which = (parse_letter(which[3], rank),), ZX
    elif which not in LANGUAGES:
        raise ValueError(f"unknown grammar {which!r}; choices: {', '.join(LANGUAGES)}")
    constructor, oracle, marked = LANGUAGES[which]
    oracle = partial(oracle, *args) if args else oracle
    return Language(partial(globals()[constructor], rank, *args), oracle, marked)


@lru_cache(maxsize=None)
def _pool(rank: int, which: str, cap: int) -> tuple[str, ...]:
    """The words of length <= 2*cap of a word language of LANGUAGES."""
    return tuple(filter(language(which, rank).oracle, enumerate_words(rank, 2 * cap)))


def sample_kmn(rank: int, m: int, n: int, seed: int, cap: int = 2) -> MarkedWord:
    """Pseudorandom marked word from the (m, n)-factorized sublanguage of K1.

    Builds u = e1 x1 ... em xm  p0 x p1 x^-1 p2  y1 f1 ... yn fn and
    v = e1' x1 ... em' xm  q  y1 f1' ... yn fn', where the letter sequences
    x1..xm and y1..yn are reduced, xm differs from the inverse of x, y1
    differs from x, the unprimed factors are idempotents, and each primed
    factor (and q) is an idempotent avoiding the adjacent letter.  Returns
    u#t with t the reverse-inverse of v; every output lies in K1.

    Idempotents are drawn uniformly from the enumerated pool of words of
    length <= 2*cap in the relevant language.  Deterministic per seed.
    """
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    letters = alphabet(rank)
    rng = random.Random(seed)

    def pick_letter(banned: tuple[str, ...] = ()) -> str:
        return rng.choice([l for l in letters if l not in banned])

    idem = _pool(rank, "E", cap)

    xs: list[str] = []
    for _ in range(m):
        xs.append(pick_letter((xs[-1].swapcase(),) if xs else ()))
    x = pick_letter((xs[-1].swapcase(),) if xs else ())
    ys: list[str] = []
    for _ in range(n):
        ys.append(pick_letter((x,) if not ys else (ys[-1].swapcase(),)))

    u: list[str] = []
    for xi in xs:
        u.append(rng.choice(idem))
        u.append(xi)
    u.append(rng.choice(idem))
    u.append(x)
    u.append(rng.choice(idem))
    u.append(x.swapcase())
    u.append(rng.choice(idem))
    for yi in ys:
        u.append(yi)
        u.append(rng.choice(idem))

    v: list[str] = []
    for xi in xs:
        v.append(rng.choice(_pool(rank, "Zx:" + xi, cap)))
        v.append(xi)
    v.append(rng.choice(_pool(rank, "Zx:" + x, cap)))
    for yi in ys:
        v.append(yi)
        v.append(rng.choice(_pool(rank, "Zx:" + yi.swapcase(), cap)))

    return MarkedWord("".join(u), rev_invert("".join(v)))
