"""Grammar constructors for the languages attached to a free inverse monoid
of finite rank: idempotent words, idempotents avoiding a rooted edge, the two
one-sided co-word-problem languages K1 and K2, the free-group co-word
problem, and their union, the full co-word problem.  LANGUAGES names each
with its constructor, its Munn-tree oracle and its universe.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, NamedTuple

from . import munn, words
from .cfg import (
    Grammar,
    Production,
    insert_marker_grammar,
    reverse_invert_grammar,
    union_grammar,
)
from .words import MARKER, MarkedWord, alphabet, parse_letter, rev_invert, symbol_sort_key

__all__ = [
    "avoiding_grammar",
    "cowp_fg_grammar",
    "cowp_fim_grammar",
    "idempotent_grammar",
    "k1_grammar",
    "k2_grammar",
    "language",
    "sample_kmn",
]

_INVERT = {x: x.swapcase() for x in alphabet(words.MAX_RANK)}  # the letters' involution, for K2


def _nt(tag: str, letter: str) -> str:
    return f"{tag}({letter})"


def _unused(name: str, letters: str) -> str:
    """The nonterminal name, primed as often as it takes not to be one of
    the letters: E is the inverse of e from rank 5 on, S that of s from
    rank 19 on."""
    while name in letters:
        name += "'"
    return name


def _idempotent_productions(e: str, letters: str) -> list[Production]:
    # E -> E E | x E x^-1 | epsilon, one bracketing production per letter
    prods = [Production(e, (e, e)), Production(e, ())]
    for x in letters:
        prods.append(Production(e, (x, e, x.swapcase())))
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


def idempotent_grammar(rank: int) -> Grammar:
    """Words representing idempotents, i.e. words freely reducing to the
    empty word."""
    letters = alphabet(rank)
    e = _unused("E", letters)
    return Grammar(set(letters), {e}, _idempotent_productions(e, letters), e)


def avoiding_grammar(rank: int, avoid: str) -> Grammar:
    """Idempotent words whose tree lacks the edge from the root to `avoid`.

    The whole Z-family is emitted; the start selects the avoided letter.
    """
    parse_letter(avoid, rank)  # a bad rank or letter raises here
    letters = alphabet(rank)
    prods = _avoiding_productions(letters)
    return Grammar(set(letters), {p.head for p in prods}, prods, _nt("Z", avoid))


def k1_grammar(rank: int) -> Grammar:
    """Marked words u#t whose decoded pair (u, v) is equal in the free group
    while the tree of u has an edge the tree of v lacks."""
    letters = alphabet(rank)
    s, e = _unused("S", letters), _unused("E", letters)
    prods: list[Production] = []
    for x in letters:
        xi = x.swapcase()
        prods.append(Production(s, (_nt("P", x),)))
        prods.append(Production(_nt("Q", x), (MARKER,)))
        for y in letters:
            if y != xi:
                prods.append(Production(_nt("P", x), (e, x, _nt("P", y), xi, _nt("Z", x))))
                prods.append(Production(_nt("Q", x), (x, e, _nt("Q", y), _nt("Z", xi), xi)))
            if y != x:
                prods.append(
                    Production(_nt("P", x), (e, x, e, xi, e, _nt("Q", y), _nt("Z", x)))
                )
    prods += _idempotent_productions(e, letters)
    prods += _avoiding_productions(letters)
    return Grammar(set(letters) | {MARKER}, {p.head for p in prods}, prods, s)


def k2_grammar(rank: int) -> Grammar:
    """Mirror of k1_grammar: the pair is equal in the free group while the
    tree of v has an edge the tree of u lacks."""
    return reverse_invert_grammar(k1_grammar(rank), _INVERT)


def cowp_fg_grammar(rank: int) -> Grammar:
    """Marked words u#t with u·t not reducing to the empty word, i.e. the
    co-word problem of the free group in marked form.

    Built from a grammar for words with nonempty reduced form, factored
    along the reduced-form path (idempotent padding between the letters of
    the reduced word), with the marker spliced in afterwards.
    """
    letters = alphabet(rank)
    s, e = _unused("S", letters), _unused("E", letters)
    prods: list[Production] = []
    for x in letters:
        rx = _nt("R", x)
        prods.append(Production(s, (e, x, rx)))
        prods.append(Production(rx, (e,)))
        for y in letters:
            if y != x.swapcase():
                prods.append(Production(rx, (e, y, _nt("R", y))))
    prods += _idempotent_productions(e, letters)
    nontrivial = Grammar(set(letters), {p.head for p in prods}, prods, s)
    return insert_marker_grammar(nontrivial, MARKER)


def cowp_fim_grammar(rank: int) -> Grammar:
    """Union grammar for the full co-word problem over well-formed marked
    words: K1, K2, and the free-group co-word problem.  K1 is built once and
    mirrored for K2."""
    k1 = k1_grammar(rank)
    return union_grammar([k1, reverse_invert_grammar(k1, _INVERT), cowp_fg_grammar(rank)])


# Munn-tree oracles on one universe item, module-level so that crosscheck
# workers can unpickle them.  They reach the deciders, and `language` the
# constructors, through module attributes at each call, so that a wrapper
# set on such an attribute sees every call.


def _idempotent(item: str) -> bool:
    return munn.is_idempotent(item)


def _avoiding(letter: str, item: str) -> bool:
    return munn.is_idempotent(item) and munn.avoids(item, letter)


class _Read(partial):
    """An oracle on words that a crosscheck can also read along its chart's
    stem: reader() is a fresh munn.IdempotentReader that avoids the letter
    this partial binds, if it binds one."""

    __slots__ = ()

    def reader(self) -> munn.IdempotentReader:
        return munn.IdempotentReader(*self.args)


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
    "E": ("idempotent_grammar", _Read(_idempotent), False),
    ZX: ("avoiding_grammar", _Read(_avoiding), False),
    "K1": ("k1_grammar", _k1, True),
    "K2": ("k2_grammar", _k2, True),
    "coWP-FG": ("cowp_fg_grammar", _fg_nontrivial, True),
    "coWP-FIM": ("cowp_fim_grammar", _cowp, True),
}


class Language(NamedTuple("Language", [
    # in the functional form, as cfg.Production
    ("grammar", Callable[[], Grammar]),
    ("oracle", Callable[[Any], bool]),
    ("marked", bool),
])):
    """A row of LANGUAGES at one rank: the grammar constructor bound to its
    arguments, the picklable oracle, and whether the universe is marked
    words (True) or words (False)."""

    __slots__ = ()


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
    alphabet(rank)  # a bad rank raises here, for every row
    constructor, oracle, marked = LANGUAGES[which]
    # the letter joins the args of ZX's _Read, which stays a _Read
    oracle = type(oracle)(oracle, *args) if args else oracle
    return Language(partial(globals()[constructor], rank, *args), oracle, marked)


def sample_kmn(rank: int, m: int, n: int, seed: int, cap: int = 2) -> MarkedWord:
    """Pseudorandom marked word from the (m, n)-factorized sublanguage of K1.

    Builds u = e1 x1 ... em xm  p0 x p1 x^-1 p2  y1 f1 ... yn fn and
    v = e1' x1 ... em' xm  q  y1 f1' ... yn fn', where the letter sequences
    x1..xm and y1..yn are reduced, xm differs from the inverse of x, y1
    differs from x, the unprimed factors are idempotents, and each primed
    factor (and q) is an idempotent avoiding the adjacent letter.  Returns
    u#t with t the reverse-inverse of v; every output lies in K1.

    Each factor is drawn uniformly from its pool: the idempotents of length
    <= 2*cap, or those of them avoiding the letter, in symbol_sort_key
    order.  The pools are built for each call.  Deterministic per seed.
    """
    if m < 0 or n < 0 or cap < 0:
        raise ValueError("m, n and cap must be nonnegative")
    letters = alphabet(rank)
    rng = random.Random(seed)

    def pick_letter(banned: tuple[str, ...] = ()) -> str:
        return rng.choice([l for l in letters if l not in banned])

    xs: list[str] = []
    for _ in range(m):
        xs.append(pick_letter((xs[-1].swapcase(),) if xs else ()))
    x = pick_letter((xs[-1].swapcase(),) if xs else ())
    ys: list[str] = []
    for _ in range(n):
        ys.append(pick_letter((x,) if not ys else (ys[-1].swapcase(),)))

    # idempotents by half-length k > 0: x e x^-1 f with e and f shorter, split
    # where the walk first returns to the root; the split is not unique, hence sets
    halves = [{""}]
    for k in range(1, cap + 1):
        halves.append({a + e + a.swapcase() + f for i in range(k) for e in halves[i]
                       for f in halves[k - 1 - i] for a in letters})
    idem = sorted((w for half in halves for w in half), key=symbol_sort_key)
    avoiding = {y: [w for w in idem if munn.avoids(w, y)]
                for y in {*xs, x, *(yi.swapcase() for yi in ys)}}

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
        v.append(rng.choice(avoiding[xi]))
        v.append(xi)
    v.append(rng.choice(avoiding[x]))
    for yi in ys:
        v.append(yi)
        v.append(rng.choice(avoiding[yi.swapcase()]))

    return MarkedWord("".join(u), rev_invert("".join(v)))
