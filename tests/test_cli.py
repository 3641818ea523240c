import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fimcowp.cli import HARD_CAP_ENV, main
from fimcowp.fim_grammars import LANGUAGES


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
    # every mode on a pair: aAa = a, and aA, Aa differ in both directions
    for u, v, truths in (("aAa", "a", {"wp"}), ("aA", "Aa", {"cowp", "k1", "k2"})):
        for mode in ("wp", "cowp", "k1", "k2"):
            code, out, _ = run(capsys, "decide", "--rank", "1", "--mode", mode, u, v)
            assert (code, out) == ((0, "true\n") if mode in truths else (1, "false\n"))


def test_decide_malformed(capsys):
    code, _, err = run(capsys, "decide", "--rank", "1", "--mode", "cowp", "a#a#")
    assert code == 2 and "error" in err


def test_decide_too_many_words(capsys):
    code, _, err = run(capsys, "decide", "--rank", "1", "--mode", "wp", "a", "a", "a")
    assert code == 2


def test_decide_rank_out_of_range(capsys):
    code, _, _ = run(capsys, "decide", "--rank", "0", "--mode", "wp", "a#A")
    assert code == 2


def test_rank_not_an_integer(capsys):
    code, out, err = run(capsys, "grammar", "--rank", "x", "--which", "E")
    assert code == 2 and out == ""
    assert "rank must be an integer, got 'x'" in err


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


# every subcommand that takes --which, with the rest of a valid command line
WHICH_COMMANDS = {
    "grammar": [],
    "parse": ["aA"],
    "enumerate": ["--max-len", "2"],
    "crosscheck": ["--max-len", "2"],
}


def assert_which_error(capsys, rank, which, message):
    for command, rest in WHICH_COMMANDS.items():
        code, out, err = run(capsys, command, "--rank", str(rank), "--which", which, *rest)
        assert (code, out, err) == (2, "", f"error: {message}\n"), (command, which)


def test_grammar_unknown_name(capsys):
    choices = "choices: E, Zx:<letter>, K1, K2, coWP-FG, coWP-FIM"
    for which in ("XYZ", "Foo", "zx:a", "e", ""):
        assert_which_error(capsys, 1, which, f"unknown grammar {which!r}; {choices}")


def test_grammar_letter_out_of_range(capsys):
    assert_which_error(capsys, 2, "Zx:c", "generator 'c' out of range for rank 2")


def test_grammar_malformed_zx(capsys):
    for which in ("Zx:", "Zx:ab", "Zx:<letter>"):
        assert_which_error(capsys, 1, which, f"expected Zx:<letter>, got {which!r}")
    assert_which_error(capsys, 1, "Zx:1", "not a generator letter: '1'")


def test_help_lists_every_language(capsys):
    listed = ", ".join(LANGUAGES)
    assert listed == "E, Zx:<letter>, K1, K2, coWP-FG, coWP-FIM"
    for command in WHICH_COMMANDS:
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and f"--which WHICH {listed} " in " ".join(out.split())


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


def test_parse_length_cap(capsys):
    code, out, err = run(capsys, "parse", "--rank", "1", "--which", "E", "aA" * 1000 + "a")
    assert code == 2 and out == ""
    assert err == "error: word of 2001 symbols exceeds the parse cap 2000\n"


def test_parse_bad_symbol(capsys):
    code, _, err = run(capsys, "parse", "--rank", "1", "--which", "E", "c")
    assert code == 2 and "error" in err


PARSE_AT_TOP_RANK = """
import sys
from fimcowp.cli import main
for which in ("E", "Zx:a", "Zx:S", "K1", "K2", "coWP-FG", "coWP-FIM"):
    word = "sS#eE" if which[0] in "Kc" else "sSeE"
    for argv in (["grammar"], ["parse", "--tree", word]):
        code = main([*argv, "--rank", "26", "--which", which])
        print(which, argv[0], code, file=sys.stderr)
"""


def test_grammar_and_parse_at_the_top_rank():
    # every letter is in play at rank 26, E, e, S and s among them; in a
    # child process, which drops the large grammars when it ends
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PARSE_AT_TOP_RANK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes = {tuple(line.split()[:2]): line.split()[2] for line in done.stderr.splitlines()}
    assert len(codes) == 14 and set(codes.values()) <= {"0", "1"}, done.stderr
    assert codes["coWP-FIM", "parse"] == "0" and codes["coWP-FG", "parse"] == "1"


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


def test_crosscheck_jobs_clamped_to_cpu_count(capsys, usable_cpus, recording_pool):
    usable_cpus(3)
    for jobs, workers in (("2", 2), ("3", 3), ("1000000", 3)):
        code, out, _ = run(
            capsys, "crosscheck", "--rank", "1", "--which", "E", "--max-len", "5",
            "--jobs", jobs,
        )
        assert code == 0 and json.loads(out)["universe"] == 63
        assert recording_pool.sizes[-1] == workers
    assert len(recording_pool.sizes) == 3


ONE_CPU_OF_MANY = """
import io, json, os, sys
from contextlib import redirect_stdout
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
os.cpu_count = lambda: 4  # the machine's CPUs, more than this process may use
from fimcowp.cli import main
for jobs in ("1", "2"):
    with redirect_stdout(io.StringIO()) as out:
        code = main(["crosscheck", "--rank", "1", "--which", "E", "--max-len", "5", "--jobs", jobs])
    report = json.loads(out.getvalue())
    del report["elapsed_ms"]
    print(json.dumps([code, report, "concurrent.futures.process" in sys.modules]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_crosscheck_jobs_on_one_cpu_of_many_starts_no_pool():
    # in a child process whose affinity is one CPU, --jobs 2 takes the
    # serial path: the report of --jobs 1, and the pool module never loaded
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", ONE_CPU_OF_MANY], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    serial, two = map(json.loads, done.stdout.splitlines())
    assert serial == two == [0, serial[1], False] and serial[1]["universe"] == 63


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


def test_munn_length_cap(capsys):
    # at the cap the tree is drawn; one letter more is refused before any work
    word = "a" * 1000 + "A" * 1000
    for fmt in ("dot", "ascii"):
        code, out, err = run(capsys, "munn", "--rank", "1", "--format", fmt, word)
        assert code == 0 and err == ""
        # a vertex a line, plus an edge a line and the braces in dot
        assert out.count("\n") == {"dot": 2003, "ascii": 1001}[fmt]
        code, out, err = run(capsys, "munn", "--rank", "1", "--format", fmt, word + "a")
        assert code == 2 and out == ""
        assert err == "error: word of 2001 symbols exceeds the munn cap 2000\n"


def test_munn_bad_word(capsys):
    code, _, err = run(capsys, "munn", "--rank", "1", "a#")
    assert code == 2


# --- shared behaviour


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["decide", "--rank", "1"]) == 2  # missing required args


@pytest.mark.parametrize("argv, first", [
    (["enumerate", "--rank", "2", "--which", "E", "--max-len", "10"], b"\n"),
    (["parse", "--rank", "1", "--which", "E", "--tree", "aA" * 400], b"accept\n"),
])
def test_closed_stdout_ends_quietly(argv, first):
    # both print far more than a pipe holds, so the writer meets the closed end
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # leaving the with block closes the stderr pipe and reaps the process
    with subprocess.Popen([sys.executable, "-m", "fimcowp.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert line == first
    assert err == b"" and code == 141


# --- any argv, in process

_RANKS = st.sampled_from(["0", "1", "2", "3", "27", "x", "-1"])
_WHICH = st.sampled_from([*LANGUAGES, "Zx:a", "Zx:c", "Zx:é", "Zx:", "nope"])
# words, marked words, and texts with foreign symbols, extra markers, é and a
# lone surrogate, as a shell hands one over
_TEXT = st.one_of(st.text(alphabet="aAbB", max_size=6), st.text(alphabet="aAbB#", max_size=6),
                  st.text(alphabet="aAbBcCd#1 é\udcff", max_size=6))
_MAX_LEN = st.sampled_from(["0", "1", "2", "3", "-1", "15"])  # -1 and 15 are refused


def _flags(*choices):
    """Some of these flags, each with its arguments, in a drawn order."""
    return st.lists(st.sampled_from(choices), unique=True).map(lambda fs: [x for f in fs for x in f])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(["decide", "grammar", "parse", "enumerate", "crosscheck",
                                    "munn"]))
    argv = [command, "--rank", draw(_RANKS)]
    if command == "decide":
        argv += ["--mode", draw(st.sampled_from(["wp", "cowp", "k1", "k2"]))]
        argv += draw(st.lists(_TEXT, min_size=1, max_size=3))
    elif command == "munn":
        argv += draw(_flags(("--format", "dot"), ("--format", "ascii"))) + [draw(_TEXT)]
    else:
        argv += ["--which", draw(_WHICH)]
        if command == "grammar":
            argv += draw(_flags(("--cnf",), ("--format", "json"), ("--format", "bnf")))
        elif command == "parse":
            argv += draw(_flags(("--tree",))) + [draw(_TEXT)]
        else:
            argv += ["--max-len", draw(_MAX_LEN)]
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs())
def test_any_argv_ends_in_an_answer_or_one_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop(HARD_CAP_ENV, None)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code != 2:
        assert code in (0, 1) and err == "", (argv, code, err)
        return
    assert out == "", argv
    lines = err.splitlines()
    if lines[0].startswith("error: "):
        assert len(lines) == 1, (argv, err)
    else:  # argparse's usage, then its one error line
        assert lines[0].startswith("usage: fimcowp "), (argv, err)
        assert re.match(r"fimcowp \w+: error: ", lines[-1]), (argv, err)
        assert not any("error:" in line for line in lines[:-1]), (argv, err)
    assert err.endswith("\n") and "Traceback" not in err, (argv, err)
