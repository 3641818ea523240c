from functools import partial

import pytest

from fimcowp import (
    avoiding_grammar,
    avoids,
    cowp_fg_grammar,
    cowp_fim_grammar,
    crosscheck,
    cyk_member,
    enumerate_language,
    enumerate_marked,
    enumerate_words,
    free_reduce,
    grammar_stats,
    idempotent_grammar,
    in_cowp,
    in_k1,
    is_idempotent,
    k1_grammar,
    k2_grammar,
    parse_marked,
    rev_invert,
    sample_kmn,
)


def test_idempotent_grammar_examples():
    assert grammar_stats(idempotent_grammar(1))[1] == 4
    assert cyk_member(idempotent_grammar(2), "aAbB")
    assert not cyk_member(idempotent_grammar(2), "ab")
    with pytest.raises(ValueError):
        idempotent_grammar(0)


def test_avoiding_grammar_examples():
    za1 = avoiding_grammar(1, "a")
    assert cyk_member(za1, "Aa")
    assert not cyk_member(za1, "aA")
    assert cyk_member(avoiding_grammar(2, "a"), "bB")
    with pytest.raises(ValueError):
        avoiding_grammar(0, "a")
    for bad in ("b", "", "aA", "#"):
        with pytest.raises(ValueError):
            avoiding_grammar(1, bad)


def test_avoiding_grammar_start_selects_letter():
    za = avoiding_grammar(2, "a")
    zb = avoiding_grammar(2, "b")
    assert za.start == "Z(a)" and zb.start == "Z(b)"
    assert za.productions == zb.productions
    assert cyk_member(za, "bB") and not cyk_member(zb, "bB")


def test_k1_grammar_shape():
    assert grammar_stats(k1_grammar(1)) == (8, 20)
    for k in (1, 2, 3):
        n = 2 * k
        nts, prods = grammar_stats(k1_grammar(k))
        assert nts == 2 + 3 * n
        assert prods == n + 2 * n * (n - 1) + (n * (n - 1) + n) + (n + 2) + n * (n + 1)


def test_k1_membership_examples():
    assert cyk_member(k1_grammar(1), "aA#")
    assert not cyk_member(k1_grammar(1), "a#A")


def test_k2_membership_examples():
    assert cyk_member(k2_grammar(1), "#aA")
    assert not cyk_member(k2_grammar(1), "aA#")
    assert not cyk_member(k2_grammar(1), "a#A")


def test_k2_language_is_mirror_of_k1():
    def mirror(text):
        out = []
        for ch in reversed(text):
            out.append(ch if ch == "#" else ch.swapcase())
        return "".join(out)

    k1_lang = enumerate_language(k1_grammar(1), 5)
    k2_lang = enumerate_language(k2_grammar(1), 5)
    assert k2_lang == {mirror(w) for w in k1_lang}


def test_cowp_fg_examples():
    g = cowp_fg_grammar(1)
    assert cyk_member(g, "a#")
    assert not cyk_member(g, "a#A")
    assert cyk_member(cowp_fg_grammar(2), "ab#A")


def test_cowp_fim_examples():
    g = cowp_fim_grammar(1)
    assert cyk_member(g, "aA#")
    assert not cyk_member(g, "aAa#A")
    assert cyk_member(cowp_fim_grammar(2), "a#B")


def test_shortest_k1_words():
    assert enumerate_language(k1_grammar(1), 2) == set()
    assert enumerate_language(k1_grammar(1), 3) == {"aA#", "Aa#"}


# --- oracle equivalence at unit scale (acceptance re-runs these bigger)


def _pred_idempotent(w):
    return is_idempotent(w)


def _pred_avoiding(x, w):
    return is_idempotent(w) and avoids(w, x)


def test_idempotent_grammar_matches_oracle():
    report = crosscheck(idempotent_grammar(1), _pred_idempotent, enumerate_words(1, 8))
    assert report.clean and report.universe == 511
    report = crosscheck(idempotent_grammar(2), _pred_idempotent, enumerate_words(2, 6))
    assert report.clean


def test_avoiding_grammar_matches_oracle():
    for rank, bound in ((1, 8), (2, 5)):
        for x in ("a", "A"):
            report = crosscheck(
                avoiding_grammar(rank, x),
                partial(_pred_avoiding, x),
                enumerate_words(rank, bound),
            )
            assert report.clean, (rank, x, report.false_accepts, report.false_rejects)


def _pred_k1(m):
    u, v = m.pair()
    return in_k1(u, v)


def _pred_k2(m):
    u, v = m.pair()
    return in_k1(v, u)


def _pred_cowp(m):
    return in_cowp(m)


def _pred_fg(m):
    return free_reduce(m.left + m.right) != ""


@pytest.mark.parametrize(
    "factory,pred",
    [
        (k1_grammar, _pred_k1),
        (k2_grammar, _pred_k2),
        (cowp_fg_grammar, _pred_fg),
        (cowp_fim_grammar, _pred_cowp),
    ],
)
def test_marked_grammars_match_oracles_small(factory, pred):
    report = crosscheck(factory(1), pred, enumerate_marked(1, 4))
    assert report.clean, (report.false_accepts, report.false_rejects)
    report = crosscheck(factory(2), pred, enumerate_marked(2, 3))
    assert report.clean, (report.false_accepts, report.false_rejects)


# --- structured sampler


# sample_kmn outputs at rank 2, fixed: the benchmark's long-word inputs are
# drawn from sample_kmn, so its use of the RNG and its pool order must not change
SAMPLE_KMN_GOLDEN = {
    (0, 0, 0): "BaAbBAabAAaa#baAB",
    (0, 0, 1): "BbAAAaaaaAAa#BbbB",
    (0, 0, 2): "aaAAaaaAAAbBAa#bBAa",
    (1, 1, 0): "AAaaBBBbbABbBbabBBbabaAB#aABbAbAaBbABba",
    (1, 1, 1): "AAaaAaAAaBBbBbbBbaAaBbbB#bBaAAbBAaaBbBb",
    (1, 1, 2): "bBAaaabBAabaABAAAaaAAaAa#AaBbaAaAbBBb",
    (3, 3, 0): "baABBBbbBAbBaAAAaAabBBbbBaAbBBABbaAaAbBbaAaA#bBBABbaaaaAAbAaBbaBAabaabBAbaAbB",
    (3, 3, 1): "BbbBAbBbBBAaAaaaAaAbBbBbBaAabBbBbBAabA#aaAAaBBbAaABbAAAaababBAabBbB",
    (3, 3, 2): "baABaAAaaaAaAaaAababBABBAababBBbBBBbbBbBAa#AaAabbaAAabBAABaAbAbBbBABAab",
}


def test_sample_kmn_golden():
    for (m, n, seed), text in SAMPLE_KMN_GOLDEN.items():
        assert str(sample_kmn(2, m, n, seed)) == text


def test_sample_kmn_deterministic():
    assert sample_kmn(2, 1, 1, 42) == sample_kmn(2, 1, 1, 42)
    assert str(sample_kmn(1, 0, 0, 7)) == str(sample_kmn(1, 0, 0, 7))


def test_sample_kmn_flat_case_all_trivial_idempotents():
    # cap=0 forces every idempotent factor to be empty, so the sample is
    # exactly x x^-1 # for some letter x
    outputs = {str(sample_kmn(1, 0, 0, seed, cap=0)) for seed in range(32)}
    assert outputs == {"aA#", "Aa#"}


def test_sample_kmn_outputs_satisfy_oracle_and_grammar():
    for seed in range(40):
        m, n = seed % 3, (seed // 3) % 3
        rank = 1 + seed % 2
        marked = sample_kmn(rank, m, n, seed, cap=1)
        u, v = marked.pair()
        assert in_k1(u, v), str(marked)
        assert cyk_member(k1_grammar(rank), str(marked))


def test_sample_kmn_validates_arguments():
    with pytest.raises(ValueError):
        sample_kmn(1, -1, 0, 0)
    with pytest.raises(ValueError):
        sample_kmn(1, 0, -2, 0)
    with pytest.raises(ValueError):
        sample_kmn(0, 0, 0, 0)
