import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from fimcowp import (
    alphabet,
    avoiding_grammar,
    cowp_fg_grammar,
    cowp_fim_grammar,
    crosscheck,
    cyk_member,
    enumerate_language,
    enumerate_marked,
    enumerate_words,
    idempotent_grammar,
    in_k1,
    k1_grammar,
    k2_grammar,
    language,
    parse_marked,
    sample_kmn,
)
from fimcowp import cfg, fim_grammars, munn, oracle, words
from fimcowp.fim_grammars import LANGUAGES, ZX


def test_idempotent_grammar_examples():
    assert len(idempotent_grammar(1).productions) == 4
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
    g = k1_grammar(1)
    assert (len(g.nonterminals), len(g.productions)) == (8, 20)
    for k in (1, 2, 3):
        n = 2 * k
        g = k1_grammar(k)
        nts, prods = len(g.nonterminals), len(g.productions)
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


# --- the language table: each grammar against its Munn-tree oracle at unit
# scale (acceptance re-runs these bigger)


def table_names(rank):
    """Every name the table answers to at this rank, each Zx letter included."""
    names = []
    for name in LANGUAGES:
        names += [f"Zx:{x}" for x in alphabet(rank)] if name == ZX else [name]
    return names


def test_idempotent_grammar_matches_oracle():
    for rank, bound, size in ((1, 8, 511), (2, 6, 5461)):
        e = language("E", rank)
        report = crosscheck(e.grammar(), e.oracle, enumerate_words(rank, bound))
        assert report.clean and report.universe == size


def test_avoiding_grammar_matches_oracle():
    for rank, bound in ((1, 8), (2, 5)):
        for x in ("a", "A"):
            zx = language(f"Zx:{x}", rank)
            report = crosscheck(zx.grammar(), zx.oracle, enumerate_words(rank, bound))
            assert report.clean, (rank, x, report.false_accepts, report.false_rejects)


@pytest.mark.parametrize("which", ["K1", "K2", "coWP-FG", "coWP-FIM"])
def test_marked_grammars_match_oracles_small(which):
    for rank, bound in ((1, 4), (2, 3)):
        row = language(which, rank)
        assert row.marked
        report = crosscheck(row.grammar(), row.oracle, enumerate_marked(rank, bound))
        assert report.clean, (report.false_accepts, report.false_rejects)


def test_nonterminals_are_renamed_only_where_they_are_letters():
    # E is the inverse of e from rank 5 on, S that of s from rank 19 on
    assert idempotent_grammar(4).nonterminals == {"E"}
    assert idempotent_grammar(5).nonterminals == {"E'"}
    assert k1_grammar(18).start == "S" and "E'" in k1_grammar(18).nonterminals
    assert k1_grammar(19).start == "S'"
    assert cowp_fg_grammar(19).start == "S'^1"


@pytest.mark.parametrize("which", table_names(5))
def test_every_language_matches_oracle_at_rank_5(which):
    row = language(which, 5)
    universe = (enumerate_marked if row.marked else enumerate_words)(5, 3)
    report = crosscheck(row.grammar(), row.oracle, universe)
    assert report.clean, (report.false_accepts, report.false_rejects)


@pytest.mark.parametrize("which", ["Zx:a" if name == ZX else name for name in LANGUAGES])
@pytest.mark.parametrize("rank", [0, 27])
def test_every_row_rejects_a_bad_rank(which, rank):
    # at once, as alphabet does, and not later in the row's grammar()
    with pytest.raises(ValueError) as info:
        language(which, rank)
    assert str(info.value) == f"rank must be between 1 and 26, got {rank}"


def test_rows_call_through_module_attributes(monkeypatch):
    # a wrapper set on a constructor or decider (as perfbench's tracer does)
    # must see the table's calls
    called = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            called.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for constructor, _, _ in LANGUAGES.values():
        spy(fim_grammars, constructor)
    for name in ("is_idempotent", "avoids", "in_k1", "in_cowp"):
        spy(munn, name)
    spy(words, "free_reduce")
    for which, constructor, item, decider in [
        ("E", "idempotent_grammar", "aA", "is_idempotent"),
        ("Zx:a", "avoiding_grammar", "Aa", "avoids"),
        ("K1", "k1_grammar", parse_marked("aA#", 1), "in_k1"),
        ("K2", "k2_grammar", parse_marked("#aA", 1), "in_k1"),
        ("coWP-FG", "cowp_fg_grammar", parse_marked("a#", 1), "free_reduce"),
        ("coWP-FIM", "cowp_fim_grammar", parse_marked("aA#", 1), "in_cowp"),
    ]:
        called.clear()
        row = language(which, 1)
        assert row.oracle(item) and decider in called, which
        called.clear()
        row.grammar()
        assert called[0] == constructor, which


def _grammar_route(*args, **kwargs):
    raise AssertionError("an oracle used the grammar route")


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's
    fimcowp."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_oracles_stay_off_the_grammar_route_and_pickle(monkeypatch):
    for module, name in [(cfg, "_Chart"), (cfg, "_chart_tables"), (cfg, "cyk_member"),
                         (cfg, "derive"), (cfg, "enumerate_language"),
                         (oracle, "_Chart"), (oracle, "cyk_member")]:
        monkeypatch.setattr(module, name, _grammar_route)
    for name, (constructor, _, _) in LANGUAGES.items():
        monkeypatch.setattr(fim_grammars, constructor, _grammar_route)
    # the sampler builds its pools without a grammar too
    assert all(in_k1(*sample_kmn(2, m, m, m).pair()) for m in range(3))
    oracles, expected = [], []
    for which in table_names(1):
        row = language(which, 1)
        items = list((enumerate_marked if row.marked else enumerate_words)(1, 5))
        decided = [row.oracle(item) for item in items]
        assert any(decided) and not all(decided), which
        clone = pickle.loads(pickle.dumps(row.oracle))
        assert [clone(item) for item in items] == decided, which
        oracles.append((row.oracle, items))
        expected.append(decided)
    # a spawned worker unpickles the oracle in a fresh interpreter
    done = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; rows = pickle.load(sys.stdin.buffer);"
         "print([[bool(oracle(item)) for item in items] for oracle, items in rows])"],
        input=pickle.dumps(oracles), env=_fresh_env(), capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode() == f"{expected}\n"


def test_grammar_pickle_rehashes_under_another_hash_seed():
    # a worker started by spawn or forkserver has its own string hash seed
    dumped = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from fimcowp import k1_grammar;"
         "sys.stdout.buffer.write(pickle.dumps(k1_grammar(2)))"],
        env=_fresh_env(PYTHONHASHSEED="0"), capture_output=True, timeout=60,
    )
    assert dumped.returncode == 0, dumped.stderr
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from fimcowp import k1_grammar;"
         "loaded, fresh = pickle.load(sys.stdin.buffer), k1_grammar(2);"
         "print(loaded == fresh, hash(loaded) == hash(fresh), len({loaded, fresh}))"],
        input=dumped.stdout, env=_fresh_env(PYTHONHASHSEED="1"), capture_output=True,
        timeout=60,
    )
    assert loaded.returncode == 0, loaded.stderr
    assert loaded.stdout.decode() == "True True 1\n"


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


def test_sample_kmn_draws_are_pinned():
    # 180 draws over ranks 1-3 and caps 1-2, hashed: the Zx pools are
    # filtered from E's pool and must keep their order
    text = "\n".join(str(sample_kmn(rank, m, n, seed, cap))
                     for rank in (1, 2, 3) for cap in (1, 2)
                     for m, n in ((0, 0), (1, 2), (2, 1)) for seed in range(10))
    assert len(text.splitlines()) == 180
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ded759d2fc960a082b8fa2ec9907cf50f8aee8ea50f68ecf133635aa70e875fc")


def test_sample_kmn_deterministic():
    assert sample_kmn(2, 1, 1, 42) == sample_kmn(2, 1, 1, 42)
    assert str(sample_kmn(1, 0, 0, 7)) == str(sample_kmn(1, 0, 0, 7))


def test_sample_kmn_flat_case_all_trivial_idempotents():
    # cap=0 forces every idempotent factor to be empty, so the sample is
    # exactly x x^-1 # for some letter x
    outputs = {str(sample_kmn(1, 0, 0, seed, cap=0)) for seed in range(32)}
    assert outputs == {"aA#", "Aa#"}


def test_sample_kmn_outputs_satisfy_oracle_and_grammar():
    grammars = {rank: k1_grammar(rank) for rank in (1, 2)}
    for seed in range(40):
        m, n = seed % 3, (seed // 3) % 3
        rank = 1 + seed % 2
        marked = sample_kmn(rank, m, n, seed, cap=1)
        u, v = marked.pair()
        assert in_k1(u, v), str(marked)
        assert cyk_member(grammars[rank], str(marked))


def test_sample_kmn_pools_are_the_filtered_enumeration(monkeypatch):
    # every rng.choice of a draw is recorded: the letters, then u's
    # idempotents, then v's avoiding ones, in the order of the factors
    class Recorder(random.Random):
        def choice(self, seq):
            picked = super().choice(seq)
            calls.append((seq, picked))
            return picked

    monkeypatch.setattr(fim_grammars, "random", SimpleNamespace(Random=Recorder))
    for rank in (1, 2, 3):
        for cap in (0, 1, 2, 3):
            # the words of length <= 2*cap, filtered through the table's oracles
            idem = [w for w in enumerate_words(rank, 2 * cap) if language("E", rank).oracle(w)]
            avoiding = {y: [w for w in idem if language("Zx:" + y, rank).oracle(w)]
                        for y in alphabet(rank)}
            seen = set()
            for seed in range(20):
                m, n = seed % 3, (seed // 3) % 3
                calls = []
                sample_kmn(rank, m, n, seed, cap)
                letters = [picked for _, picked in calls[:m + 1 + n]]
                xs, x, ys = letters[:m], letters[m], letters[m + 1:]
                pools = [list(seq) for seq, _ in calls[m + 1 + n:]]
                assert pools[:m + 3 + n] == [idem] * (m + 3 + n), (rank, cap, seed)
                avoided = xs + [x] + [y.swapcase() for y in ys]
                assert pools[m + 3 + n:] == [avoiding[y] for y in avoided], (rank, cap, seed)
                seen.update(avoided)
            assert seen == set(alphabet(rank)), (rank, cap)


def test_sample_kmn_validates_arguments():
    with pytest.raises(ValueError):
        sample_kmn(1, -1, 0, 0)
    with pytest.raises(ValueError):
        sample_kmn(1, 0, -2, 0)
    with pytest.raises(ValueError):
        sample_kmn(1, 0, 0, 0, cap=-1)
    with pytest.raises(ValueError):
        sample_kmn(0, 0, 0, 0)
