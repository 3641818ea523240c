import json
import os

import pytest

from fimcowp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- decide


def test_decide_cowp_true(capsys):
    code, out, _ = run(capsys, "decide", "--rank", "1", "--mode", "cowp", "aA#")
    assert code == 0 and out == "true\n"


def test_decide_wp_true(capsys):
    code, out, _ = run(capsys, "decide", "--rank", "1", "--mode", "wp", "a#A")
    assert code == 0 and out == "true\n"


def test_decide_false_exit_code(capsys):
    code, out, _ = run(capsys, "decide", "--rank", "1", "--mode", "wp", "aA#")
    assert code == 1 and out == "false\n"


def test_decide_word_pair(capsys):
    code, out, _ = run(capsys, "decide", "--rank", "1", "--mode", "k1", "aA", "")
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, "decide", "--rank", "1", "--mode", "k2", "", "aA")
    assert code == 0 and out == "true\n"


def test_decide_malformed(capsys):
    code, _, err = run(capsys, "decide", "--rank", "1", "--mode", "cowp", "a#a#")
    assert code == 2 and "error" in err


def test_decide_too_many_words(capsys):
    code, _, err = run(capsys, "decide", "--rank", "1", "--mode", "wp", "a", "a", "a")
    assert code == 2


def test_decide_rank_out_of_range(capsys):
    code, _, _ = run(capsys, "decide", "--rank", "0", "--mode", "wp", "a#A")
    assert code == 2


# --- grammar


def test_grammar_bnf_idempotent(capsys):
    code, out, _ = run(capsys, "grammar", "--rank", "1", "--which", "E", "--format", "bnf")
    assert code == 0
    assert out == "E -> 1 | A E a | E E | a E A\n"


def test_grammar_json_k1(capsys):
    code, out, _ = run(capsys, "grammar", "--rank", "1", "--which", "K1", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["productions"]) == 20
    assert blob["start"] == "S"
    assert sorted(blob["terminals"]) == ["#", "A", "a"]


def test_grammar_cnf_flag(capsys):
    code, out, _ = run(capsys, "grammar", "--rank", "1", "--which", "E", "--cnf")
    assert code == 0
    heads = {line.split(" -> ")[0] for line in out.strip().splitlines()}
    assert "E'" in heads


def test_grammar_unknown_name(capsys):
    code, _, err = run(capsys, "grammar", "--rank", "1", "--which", "XYZ")
    assert code == 2 and "unknown grammar" in err


def test_grammar_letter_out_of_range(capsys):
    code, _, err = run(capsys, "grammar", "--rank", "2", "--which", "Zx:c")
    assert code == 2 and "out of range" in err


def test_grammar_deterministic(capsys):
    code1, out1, _ = run(capsys, "grammar", "--rank", "2", "--which", "coWP-FIM")
    code2, out2, _ = run(capsys, "grammar", "--rank", "2", "--which", "coWP-FIM")
    assert code1 == code2 == 0 and out1 == out2


# --- parse


def test_parse_accept(capsys):
    code, out, _ = run(capsys, "parse", "--rank", "1", "--which", "K1", "aA#")
    assert code == 0 and out == "accept\n"


def test_parse_reject(capsys):
    code, out, _ = run(capsys, "parse", "--rank", "1", "--which", "K1", "a#A")
    assert code == 1 and out == "reject\n"


def test_parse_tree(capsys):
    code, out, _ = run(capsys, "parse", "--rank", "1", "--which", "E", "", "--tree")
    assert code == 0
    assert out == "accept\nE -> 1\n"


def test_parse_tree_deep(capsys):
    # the derivation is as deep as the word is long; no recursion limit applies
    n = 1000
    code, out, err = run(capsys, "parse", "--rank", "1", "--which", "E", "--tree",
                         "a" * n + "A" * n)
    assert code == 0 and err == ""
    opening = [line for d in range(n) for line in ("  " * d + "E -> a E A", "  " * (d + 1) + "a")]
    closing = ["  " * (d + 1) + "A" for d in reversed(range(n))]
    assert out.splitlines() == ["accept", *opening, "  " * n + "E -> 1", *closing]


def test_parse_bad_symbol(capsys):
    code, _, err = run(capsys, "parse", "--rank", "1", "--which", "E", "c")
    assert code == 2 and "error" in err


# --- enumerate


def test_enumerate_idempotents(capsys):
    code, out, _ = run(capsys, "enumerate", "--rank", "1", "--which", "E", "--max-len", "2")
    assert code == 0
    assert out == "\naA\nAa\n"


def test_enumerate_k1_short(capsys):
    code, out, _ = run(capsys, "enumerate", "--rank", "1", "--which", "K1", "--max-len", "0")
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "enumerate", "--rank", "1", "--which", "K1", "--max-len", "3")
    assert code == 0 and out == "aA#\nAa#\n"


def test_enumerate_hard_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "enumerate", "--rank", "1", "--which", "E", "--max-len", "15")
    assert code == 2 and "hard cap" in err
    monkeypatch.setenv("FIMCOWP_MAXLEN_HARD", "3")
    code, _, err = run(capsys, "enumerate", "--rank", "1", "--which", "E", "--max-len", "4")
    assert code == 2 and "hard cap" in err
    code, out, _ = run(capsys, "enumerate", "--rank", "1", "--which", "E", "--max-len", "3")
    assert code == 0
    for bad in ("x", "-1"):
        monkeypatch.setenv("FIMCOWP_MAXLEN_HARD", bad)
        code, out, err = run(capsys, "enumerate", "--rank", "1", "--which", "E", "--max-len", "2")
        assert code == 2 and out == ""
        assert err == f"error: FIMCOWP_MAXLEN_HARD must be a nonnegative integer, got {bad!r}\n"


# --- crosscheck


def test_crosscheck_clean(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--rank", "1", "--which", "E", "--max-len", "6"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["universe"] == 127
    assert blob["agreements"] == 127
    assert blob["false_accepts"] == [] and blob["false_rejects"] == []


def test_crosscheck_marked_universe(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--rank", "1", "--which", "K1", "--max-len", "4"
    )
    assert code == 0
    assert json.loads(out)["universe"] == 1 + 4 + 12 + 32 + 80


def test_crosscheck_zx(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--rank", "1", "--which", "Zx:A", "--max-len", "6"
    )
    assert code == 0 and json.loads(out)["agreements"] == 127


def test_crosscheck_jobs(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "--rank", "1", "--which", "E", "--max-len", "5", "--jobs", "2"
    )
    assert code == 0 and json.loads(out)["universe"] == 63


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_crosscheck_jobs_rejects_nonpositive(capsys, jobs):
    code, out, err = run(
        capsys, "crosscheck", "--rank", "1", "--which", "E", "--max-len", "2", "--jobs", jobs
    )
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("fimcowp crosscheck: error: argument --jobs:")


def test_crosscheck_jobs_clamped_to_cpu_count(capsys, monkeypatch, recording_pool):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for jobs, workers in (("2", 2), ("3", 3), ("1000000", 3)):
        code, out, _ = run(
            capsys, "crosscheck", "--rank", "1", "--which", "E", "--max-len", "5",
            "--jobs", jobs,
        )
        assert code == 0 and json.loads(out)["universe"] == 63
        assert recording_pool.sizes[-1] == workers
    assert len(recording_pool.sizes) == 3


# --- munn


def test_munn_dot(capsys):
    code, out, _ = run(capsys, "munn", "--rank", "1", "aA", "--format", "dot")
    assert code == 0
    assert out.splitlines()[0] == "graph munn {"
    assert '"1" -- "a" [label="a"];' in out


def test_munn_empty_word(capsys):
    code, out, _ = run(capsys, "munn", "--rank", "1", "")
    assert code == 0
    assert out == 'graph munn {\n  "1" [shape=doublecircle, style=filled];\n}\n'


def test_munn_ascii(capsys):
    code, out, _ = run(capsys, "munn", "--rank", "2", "ab", "--format", "ascii")
    assert code == 0
    assert out == "1 (root)\n  a a\n    b ab (terminal)\n"


def test_munn_ascii_deep_tree(capsys):
    # one line per vertex, however deep the tree
    word = "ab" * 750
    code, out, _ = run(capsys, "munn", "--rank", "2", word, "--format", "ascii")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1501
    assert lines[-1] == "  " * 1500 + f"b {word} (terminal)"


def test_munn_bad_word(capsys):
    code, _, err = run(capsys, "munn", "--rank", "1", "a#")
    assert code == 2


# --- shared behaviour


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["decide", "--rank", "1"]) == 2  # missing required args
