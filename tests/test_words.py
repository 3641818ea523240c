import pickle

import pytest
from hypothesis import given, strategies as st

from fimcowp import (
    MarkedWord,
    WordSyntaxError,
    alphabet,
    free_reduce,
    parse_marked,
    parse_word,
    rev_invert,
    symbol_sort_key,
)
from fimcowp.oracle import enumerate_marked, enumerate_words
from fimcowp.words import letter_codes, parse_letter


def W(text, rank=2):
    return parse_word(text, rank)


def naive_reduce(word):
    # independent oracle: delete any adjacent inverse pair until none remains
    word = list(word)
    while True:
        for i in range(len(word) - 1):
            if word[i] == word[i + 1].swapcase():
                del word[i : i + 2]
                break
        else:
            return "".join(word)


words2 = st.text(alphabet=alphabet(2), max_size=12)


def test_invert_letter():
    assert rev_invert("a") == "A"
    assert rev_invert("A") == "a"
    assert rev_invert("b") == "B"


def test_invert_letter_is_involution():
    letters = alphabet(3)
    for letter in letters:
        inverse = rev_invert(letter)
        assert inverse != letter and inverse in letters
        assert rev_invert(inverse) == letter


def test_alphabet_size_and_order():
    assert len(alphabet(2)) == 4
    assert list(alphabet(2)) == ["a", "A", "b", "B"]
    assert alphabet(26)[-2:] == "zZ"
    with pytest.raises(ValueError):
        alphabet(0)
    with pytest.raises(ValueError):
        alphabet(27)


def test_free_reduce_examples():
    assert free_reduce(W("aA")) == ""
    assert free_reduce(W("abBA")) == ""
    assert free_reduce(W("aBba")) == W("aa")
    assert free_reduce(W("aBba")) == naive_reduce(W("aBba"))


def test_free_reduce_cancels_only_letter_inverse_pairs():
    # a symbol that is not an ASCII letter cancels with nothing, not even
    # with its own case partner or itself
    for text in ("##", "11", "éÉ", "a##A", "\ud800\ud800"):
        assert free_reduce(text) == text
    assert free_reduce("a#aA#A") == "a##A"
    assert free_reduce("éaAÉ") == "éÉ"


def test_free_reduce_keeps_the_case_pairs_just_outside_the_letters():
    # @ and `, and [ and {, differ by 32 like a letter and its inverse, and
    # sit one step below A and one step above Z
    for text in ("@`", "`@", "[{", "{["):
        assert free_reduce(text) == text


def test_free_reduce_matches_naive_oracle_exhaustively():
    for w in enumerate_words(2, 6):
        assert free_reduce(w) == naive_reduce(w)


def test_free_reduce_idempotent_up_to_length_8():
    for w in enumerate_words(2, 8):
        r = free_reduce(w)
        assert free_reduce(r) == r


def test_word_times_inverse_is_trivial():
    for w in enumerate_words(2, 8):
        assert free_reduce(w + rev_invert(w)) == ""


def test_rev_invert_examples():
    assert rev_invert("") == ""
    assert rev_invert(W("ab")) == W("BA")
    assert rev_invert(W("aA")) == W("aA")


@given(words2)
def test_rev_invert_is_involution(w):
    assert rev_invert(rev_invert(w)) == w


@given(words2, words2)
def test_rev_invert_antihomomorphism(u, v):
    assert rev_invert(u + v) == rev_invert(v) + rev_invert(u)


def test_parse_word_examples():
    assert parse_word("aA", 1) == "aA"
    assert parse_word("bB", 2) == "bB"
    assert parse_word("", 1) == ""
    with pytest.raises(WordSyntaxError, match="generator 'c' out of range for rank 2"):
        parse_word("c", 2)
    with pytest.raises(WordSyntaxError, match="unexpected '#' in word 'c#'"):
        parse_word("c#", 2)
    with pytest.raises(WordSyntaxError, match="not a generator letter: ' '"):
        parse_word("a b", 2)
    # the first offending letter of the text is the one reported
    with pytest.raises(WordSyntaxError, match="'1'"):
        parse_word("ab1cb1", 2)


def test_parse_format_round_trip():
    for w in enumerate_words(2, 5):
        assert parse_word(w, 2) == w
    for m in enumerate_marked(2, 4):
        assert parse_marked(str(m), 2) == m


def test_parse_marked():
    m = parse_marked("aA#", 1)
    assert (m.left, m.right) == (W("aA", 1), "")
    m = parse_marked("a#A", 1)
    assert m.pair() == (W("a", 1), W("a", 1))
    with pytest.raises(WordSyntaxError):
        parse_marked("a#a#", 1)
    with pytest.raises(WordSyntaxError):
        parse_marked("aa", 1)


def test_marked_round_trip():
    for text in ["#", "a#", "#A", "ab#BA"]:
        assert str(parse_marked(text, 2)) == text
    assert str(MarkedWord(W("a"), W("B"))) == "a#B"


def test_marked_word_record_behaviour():
    # MarkedWord is a NamedTuple; these pin what the frozen dataclass it
    # replaced gave (repr, equality, hashing, keyword construction,
    # read-only fields, pickling), and that it is now also a tuple
    m = MarkedWord(left="aB", right="b")
    assert repr(m) == "MarkedWord(left='aB', right='b')"
    assert m == MarkedWord("aB", "b") == parse_marked("aB#b", 2)
    assert hash(m) == hash(MarkedWord("aB", "b")) == hash(("aB", "b"))
    assert m != MarkedWord("b", "aB") and len({m, MarkedWord("aB", "b")}) == 1
    left, right = m
    assert m == ("aB", "b") and (left, right) == ("aB", "b")
    for name in ("left", "right", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, "a")
        with pytest.raises(AttributeError):
            delattr(m, name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(m, protocol))
        assert clone == m and type(clone) is MarkedWord and str(clone) == "aB#b"


def test_symbol_sort_key_orders_length_then_canonical():
    texts = ["Aa", "aA", "", "a", "A", "a#", "#a", "b"]
    ordered = sorted(texts, key=symbol_sort_key)
    assert ordered == ["", "a", "A", "b", "aA", "a#", "Aa", "#a"]
    with pytest.raises(WordSyntaxError, match="not a word symbol"):
        symbol_sort_key("a1")


def test_parse_letter_rejects_junk():
    assert parse_letter("B", 2) == "B"
    for junk in ("1", "aa", "", "#", "é"):
        with pytest.raises(WordSyntaxError, match="not a generator letter"):
            parse_letter(junk, 2)
    with pytest.raises(WordSyntaxError, match="out of range"):
        parse_letter("c", 2)


def test_bad_rank_raises_as_in_alphabet():
    # letters alone do not show a bad rank: 'a' is a letter at every rank
    for call in (lambda: parse_word("a", 27), lambda: parse_word("", 0),
                 lambda: parse_marked("#", 99), lambda: parse_letter("a", 27)):
        with pytest.raises(ValueError, match="rank must be between 1 and 26") as info:
            call()
        assert not isinstance(info.value, WordSyntaxError)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # WordSyntaxError, or a bad rank
        return f"error: {exc}"


def _parse_word_letter_by_letter(text, rank):
    # the check one letter at a time, which names the first bad letter,
    # after the marker and the rank
    if "#" in text:
        raise WordSyntaxError(f"unexpected '#' in word {text!r}")
    alphabet(rank)
    for char in dict.fromkeys(text):
        parse_letter(char, rank)
    return text


# a lone surrogate, and two non-ASCII letters that str.isalpha accepts
@given(st.text(alphabet="aAbBcCzZ#1 é\ud800ßǅ", max_size=12), st.integers(0, 28))
def test_parse_word_matches_letter_by_letter_check(text, rank):
    assert _outcome(parse_word, text, rank) == _outcome(_parse_word_letter_by_letter, text, rank)
    # letter_codes checks at the top rank by default
    codes = _outcome(letter_codes, text)
    if isinstance(codes, bytes):
        codes = codes.decode()
    assert codes == _outcome(_parse_word_letter_by_letter, text, 26)


@given(st.text(alphabet=alphabet(26), max_size=60))
def test_rev_invert_swaps_case_of_reversal(w):
    assert rev_invert(w) == w[::-1].swapcase()
