"""Alphabets with formal inverses, words, free reduction, and marked words.

Generators are the lowercase letters a, b, c, ...; the matching uppercase
letter is the formal inverse, so inverting a letter swaps its case, and
``rev_invert`` swaps a whole word with one ``str.translate`` table.  A word
is a plain ``str`` over these letters.  This module alone decides what a
letter (``parse_letter``) and a word (``letter_codes``, which ``parse_word``
and the Munn-tree deciders call) are, so each bad text gets one error.  A marked
word serializes as ``u#t`` with exactly one ``#``.  The empty word prints as
``""``; where output formats need a visible token it is rendered as ``1``.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "MARKER",
    "MarkedWord",
    "WordSyntaxError",
    "alphabet",
    "free_reduce",
    "parse_marked",
    "parse_word",
    "rev_invert",
    "symbol_sort_key",
]

MARKER = "#"
EPSILON_TOKEN = "1"

MAX_RANK = 26

# string's two ASCII alphabets, spelt out so that importing words does not
# load string
ascii_lowercase = "abcdefghijklmnopqrstuvwxyz"
ascii_uppercase = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class WordSyntaxError(ValueError):
    """Text that is not a valid word or marked word at the given rank."""


def alphabet(rank: int) -> str:
    """All 2*rank letters in canonical order a, A, b, B, ..."""
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_RANK}, got {rank}")
    return "".join(g + g.upper() for g in ascii_lowercase[:rank])


# per rank, the ASCII codes of its letters, which letter_codes deletes
_LETTER_CODES = {rank: alphabet(rank).encode() for rank in range(1, MAX_RANK + 1)}
# the letters of every rank, for one-letter checks on hot paths
LETTERS = frozenset(alphabet(MAX_RANK))
_INVERSE = str.maketrans(ascii_lowercase + ascii_uppercase, ascii_uppercase + ascii_lowercase)
# each word symbol to its place in the canonical order; texts translated by
# it compare as the tuples of places in their symbol_sort_key do
CANONICAL_ORDER = str.maketrans({c: i for i, c in enumerate(alphabet(MAX_RANK) + MARKER)})


def parse_letter(text: str, rank: int) -> str:
    """Check that text is one letter at this rank and return it."""
    letters = alphabet(rank)  # a bad rank raises here
    if len(text) != 1 or not text.isascii() or not text.isalpha():
        raise WordSyntaxError(f"not a generator letter: {text!r}")
    if text not in letters:
        raise WordSyntaxError(f"generator {text!r} out of range for rank {rank}")
    return text


def letter_codes(text: str, rank: int = MAX_RANK) -> bytes:
    """The ASCII codes of text, if it is a word at this rank; otherwise
    raise for the marker, then for a bad rank, then for the first symbol
    off the alphabet, in order of first use."""
    data = text.encode("utf-8", "surrogatepass")
    letters = _LETTER_CODES.get(rank)
    if letters is None or data.translate(None, letters):
        if MARKER in text:
            raise WordSyntaxError(f"unexpected {MARKER!r} in word {text!r}")
        alphabet(rank)  # a bad rank raises here
        for char in dict.fromkeys(text):
            parse_letter(char, rank)
    return data


def parse_word(text: str, rank: int) -> str:
    """Check that text is a word at this rank and return it."""
    letter_codes(text, rank)
    return text


def free_reduce(word: str) -> str:
    """The unique reduced form: delete adjacent letter/inverse pairs until none
    remain.  Only the ASCII letters a-z, A-Z cancel, each with the other case
    of itself; any other symbol stays where it is."""
    out = bytearray()
    # x ^ 32 swaps an ASCII letter's case, and x & 95 is in A-Z for the
    # letters and no other ASCII byte; outside ASCII only a UTF-8 lead byte
    # passes that test, and what it follows ends a symbol, so it is never
    # x ^ 32, itself a lead byte
    for x in word.encode("utf-8", "surrogatepass"):
        if out and out[-1] == x ^ 32 and 64 < x & 95 < 91:
            out.pop()
        else:
            out.append(x)
    return out.decode("utf-8", "surrogatepass")


def rev_invert(word: str) -> str:
    """Reverse the word and invert every letter; the formal inverse in the free group."""
    return word[::-1].translate(_INVERSE)


class MarkedWord(NamedTuple("MarkedWord", [("left", str), ("right", str)])):
    # fields in the functional form, as cfg.Production's
    __slots__ = ()

    def pair(self) -> tuple[str, str]:
        """The two words compared by this marked word; the second is the
        reverse-inverse of the right part."""
        return self.left, rev_invert(self.right)

    def __str__(self) -> str:
        return self.left + MARKER + self.right


def parse_marked(text: str, rank: int) -> MarkedWord:
    if text.count(MARKER) != 1:
        raise WordSyntaxError(f"expected exactly one {MARKER!r} in {text!r}")
    left, right = text.split(MARKER)
    return MarkedWord(parse_word(left, rank), parse_word(right, rank))


def symbol_sort_key(text: str) -> tuple[int, tuple[int, ...]]:
    """Length-then-lexicographic key over the canonical symbol order
    a, A, b, B, ..., with the marker sorting last."""
    try:
        return len(text), tuple(CANONICAL_ORDER[ord(char)] for char in text)
    except KeyError as missing:
        raise WordSyntaxError(f"not a word symbol: {chr(missing.args[0])!r}") from None
