import hashlib
import json
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import time

import pytest
from test_fim_grammars import _fresh_env

import fimcowp
from fimcowp import (
    CrosscheckReport,
    Grammar,
    MarkedWord,
    Production,
    alphabet,
    cowp_fim_grammar,
    crosscheck,
    cyk_member,
    enumerate_marked,
    enumerate_words,
    idempotent_grammar,
    in_cowp,
    is_idempotent,
    language,
    parse_word,
    symbol_sort_key,
)
from fimcowp import cfg, fim_grammars, munn, oracle, words


def test_enumerate_words_small():
    assert list(enumerate_words(1, 1)) == ["", "a", "A"]


def test_enumerate_words_counts():
    assert len(list(enumerate_words(1, 2))) == 7
    assert len(list(enumerate_words(2, 2))) == 21
    for rank, n in [(1, 5), (2, 4), (3, 3)]:
        expected = sum((2 * rank) ** l for l in range(n + 1))
        assert len(list(enumerate_words(rank, n))) == expected


def test_enumerate_words_order_and_uniqueness():
    seen = list(enumerate_words(2, 3))
    assert len(seen) == len(set(seen))
    lengths = [len(s) for s in seen]
    assert lengths == sorted(lengths)
    assert seen[:9] == ["", "a", "A", "b", "B", "aa", "aA", "ab", "aB"]


def test_enumerate_marked_small():
    assert [str(m) for m in enumerate_marked(1, 0)] == ["#"]
    assert [str(m) for m in enumerate_marked(1, 1)] == ["#", "a#", "A#", "#a", "#A"]
    assert [str(m) for m in enumerate_marked(1, 2)][5:] == [
        "aa#", "aA#", "a#a", "a#A", "Aa#", "AA#", "A#a", "A#A", "#aa", "#aA", "#Aa", "#AA"
    ]


def test_enumerate_marked_counts():
    for rank, n in [(1, 4), (2, 3)]:
        expected = sum((l + 1) * (2 * rank) ** l for l in range(n + 1))
        got = list(enumerate_marked(rank, n))
        assert len(got) == expected
        assert len(set(map(str, got))) == expected


def test_enumerate_marked_yields_marked_words():
    for m in enumerate_marked(2, 2):
        assert isinstance(m, MarkedWord)
        assert str(m).count("#") == 1


def test_crosscheck_clean_report():
    report = crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 6))
    assert report.universe == 127
    assert report.agreements == 127
    assert report.clean
    assert report.false_accepts == [] and report.false_rejects == []


def test_crosscheck_invariant_and_json():
    report = crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 5))
    assert report.universe == (
        report.agreements + report.false_accept_count + report.false_reject_count
    )
    blob = json.loads(json.dumps(report.to_json_dict()))
    assert set(blob) == {
        "universe",
        "agreements",
        "false_accepts",
        "false_accept_count",
        "false_rejects",
        "false_reject_count",
        "elapsed_ms",
    }


def test_crosscheck_report_record_behaviour():
    # CrosscheckReport is a NamedTuple; these pin what the dataclass it
    # replaced gave (repr, keyword construction, JSON keys, order and
    # values, pickling), and what changed: its fields are read-only and
    # equality counts elapsed_ms
    report = CrosscheckReport(universe=3, agreements=1, false_accepts=["a"], false_accept_count=1,
                              false_rejects=["A", "aA"], false_reject_count=2, elapsed_ms=1.23456)
    assert repr(report) == (
        "CrosscheckReport(universe=3, agreements=1, false_accepts=['a'], false_accept_count=1, "
        "false_rejects=['A', 'aA'], false_reject_count=2, elapsed_ms=1.23456)"
    )
    assert list(report.to_json_dict().items()) == [
        ("universe", 3), ("agreements", 1), ("false_accepts", ["a"]), ("false_accept_count", 1),
        ("false_rejects", ["A", "aA"]), ("false_reject_count", 2), ("elapsed_ms", 1.235),
    ]
    assert not report.clean and CrosscheckReport(1, 1, [], 0, [], 0, 0.0).clean
    assert report == CrosscheckReport(3, 1, ["a"], 1, ["A", "aA"], 2, 1.23456)
    assert report != report._replace(elapsed_ms=2.0)
    with pytest.raises(TypeError):
        hash(report)  # its example lists are unhashable
    for name in ("universe", "elapsed_ms", "other"):
        with pytest.raises(AttributeError):
            setattr(report, name, 0)
        with pytest.raises(AttributeError):
            delattr(report, name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(report, protocol))
        assert clone == report and type(clone) is CrosscheckReport


def corrupted_idempotent_grammar():
    g = idempotent_grammar(1)
    prods = [p for p in g.productions if p != Production("E", ())]
    return Grammar(g.terminals, g.nonterminals, prods, g.start)


def test_crosscheck_detects_missing_epsilon():
    report = crosscheck(corrupted_idempotent_grammar(), is_idempotent, enumerate_words(1, 4))
    assert not report.clean
    assert report.false_accept_count == 0
    assert report.false_reject_count > 0
    assert "" in report.false_rejects


def test_crosscheck_elapsed_ms_lies_within_the_wall_time_of_the_call():
    started = time.perf_counter()
    report = crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 4))
    wall_ms = (time.perf_counter() - started) * 1000.0
    assert 0 <= report.elapsed_ms <= wall_ms


def test_crosscheck_deterministic():
    run = lambda: crosscheck(
        corrupted_idempotent_grammar(), is_idempotent, enumerate_words(1, 5)
    )
    a, b = run(), run()
    assert (a.universe, a.agreements, a.false_accepts, a.false_rejects) == (
        b.universe,
        b.agreements,
        b.false_accepts,
        b.false_rejects,
    )


def always_true(item):
    return True


def test_crosscheck_caps_stored_counterexamples():
    empty = Grammar({"a", "A"}, {"S"}, [], "S")
    report = crosscheck(empty, always_true, enumerate_words(1, 7))
    assert report.false_reject_count == 255
    assert len(report.false_rejects) == 100
    # earliest counterexamples in canonical order survive the cap
    assert report.false_rejects[0] == ""
    assert report.universe == report.agreements + report.false_reject_count


def test_check_block_cuts_examples_back_when_they_reach_twice_the_cap(monkeypatch):
    # a side's examples are cut to the earliest EXAMPLE_CAP exactly when they
    # reach 2 * EXAMPLE_CAP, so no more are ever held: 255 false rejects are
    # cut once at 200, and the last cuts see the 155 left and no accepts
    sizes, smallest = [], oracle._smallest

    def counted(found):
        sizes.append(len(found))
        return smallest(found)

    monkeypatch.setattr(oracle, "_smallest", counted)
    empty = Grammar({"a", "A"}, {"S"}, [], "S")
    counts, examples = oracle._check_block(empty, always_true, enumerate_words(1, 7))
    assert counts == [255, 0, 0] and sizes == [200, 155, 0]
    assert examples == [smallest(list(enumerate_words(1, 7))), []]


def test_crosscheck_parallel_matches_serial():
    serial = crosscheck(idempotent_grammar(2), is_idempotent, enumerate_words(2, 5))
    parallel = crosscheck(
        idempotent_grammar(2), is_idempotent, enumerate_words(2, 5), jobs=2
    )
    assert (serial.universe, serial.agreements) == (parallel.universe, parallel.agreements)
    assert serial.false_accepts == parallel.false_accepts
    assert serial.false_rejects == parallel.false_rejects


def test_crosscheck_parallel_counterexamples_merge():
    serial = crosscheck(corrupted_idempotent_grammar(), is_idempotent, enumerate_words(1, 6))
    parallel = crosscheck(
        corrupted_idempotent_grammar(), is_idempotent, enumerate_words(1, 6), jobs=2
    )
    assert serial.false_rejects == parallel.false_rejects
    assert serial.false_reject_count == parallel.false_reject_count


def report_fields(report):
    blob = report.to_json_dict()
    del blob["elapsed_ms"]
    return blob


@pytest.mark.parametrize(
    "grammar, predicate, universe",
    [
        (idempotent_grammar(2), is_idempotent, lambda: enumerate_words(2, 5)),
        (cowp_fim_grammar(1), in_cowp, lambda: enumerate_marked(1, 4)),
        (corrupted_idempotent_grammar(), is_idempotent, lambda: enumerate_words(1, 5)),
        # 255 counterexamples: the cap keeps the earliest in canonical order
        (Grammar({"a", "A"}, {"S"}, [], "S"), always_true, lambda: enumerate_words(1, 7)),
    ],
)
def test_crosscheck_order_independent(grammar, predicate, universe):
    # the chart shares prefixes between neighbouring items; a shuffled
    # universe shares few, and must give the same report, examples included
    items = list(universe())
    shuffled = items[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != items
    expected = report_fields(crosscheck(grammar, predicate, items))
    assert report_fields(crosscheck(grammar, predicate, shuffled)) == expected
    assert report_fields(crosscheck(grammar, predicate, sorted(items, key=str))) == expected


def stem_runs(items, seed):
    """The items shuffled, each in a run that moves _check_block's stem every
    way: the item twice, the shortest item (the empty word, or the marker on
    its own), the item again, one of its prefixes and one of its one-symbol
    extensions that are items, each followed by the item."""
    rng = random.Random(seed)
    by_text = {str(item): item for item in items}
    symbols = sorted(set("".join(by_text)))
    out = []
    for item in rng.sample(items, len(items)):
        text = str(item)
        prefixes = [by_text[text[:k]] for k in range(len(text)) if text[:k] in by_text]
        longer = [by_text[text + x] for x in symbols if text + x in by_text]
        out += [item, item, items[0], item]
        for near in (prefixes, longer):
            if near:
                out += [rng.choice(near), item]
    return out


def reference_block(grammar, predicate, items):
    """_check_block's result from a fresh cyk_member per text: all examples
    kept, then cut to the earliest EXAMPLE_CAP in canonical order."""
    counts, examples = [0, 0, 0], [[], []]
    for item in items:
        accepted = cyk_member(grammar, str(item))
        if accepted == bool(predicate(item)):
            counts[2] += 1
        else:
            counts[accepted] += 1
            examples[accepted].append(str(item))
    return counts, [sorted(found, key=symbol_sort_key)[:oracle.EXAMPLE_CAP] for found in examples]


@pytest.mark.parametrize(
    "grammar, predicate, items, found",
    [
        (idempotent_grammar(2), is_idempotent, list(enumerate_words(2, 4)), [False, False]),
        (language("K1", 1).grammar(), language("K1", 1).oracle, list(enumerate_marked(1, 4)),
         [False, False]),
        # K1's grammar against K2's oracle: examples on both sides
        (language("K1", 1).grammar(), language("K2", 1).oracle, list(enumerate_marked(1, 4)),
         [True, True]),
        (corrupted_idempotent_grammar(), is_idempotent, list(enumerate_words(1, 6)), [True, False]),
        # the table oracles of E and Zx:x, read along the stem
        (idempotent_grammar(2), language("E", 2).oracle, list(enumerate_words(2, 5)),
         [False, False]),
        (language("Zx:a", 2).grammar(), language("Zx:a", 2).oracle,
         list(enumerate_words(2, 5)), [False, False]),
        (corrupted_idempotent_grammar(), language("E", 1).oracle, list(enumerate_words(1, 6)),
         [True, False]),
        # E's grammar accepts what visits b, Zx:a's rejects what visits a
        (idempotent_grammar(2), language("Zx:b", 2).oracle, list(enumerate_words(2, 5)),
         [False, True]),
        (language("Zx:a", 2).grammar(), language("E", 2).oracle, list(enumerate_words(2, 5)),
         [True, False]),
    ],
)
def test_check_block_matches_a_fresh_parse_per_item(grammar, predicate, items, found):
    # the chart holds each item's stem and probes its last symbol; the
    # reference parses every text on its own
    for universe in (items, stem_runs(items, 0)):
        got = oracle._check_block(grammar, predicate, universe)
        assert got == reference_block(grammar, predicate, universe)
    # [false rejects, false accepts] found, each side
    assert [bool(examples) for examples in got[1]] == found


def test_reader_oracles_match_their_whole_word_path():
    # E's and each Zx:x's row oracle is read along the chart's stem; a lambda
    # of it offers no reader and decides each whole word.  Against E's
    # grammar each Zx:x report has false accepts, so the examples are
    # compared too.
    for rank in (1, 2, 3):
        items = list(enumerate_words(rank, 6))
        grammar = idempotent_grammar(rank)
        for which in ["E", *(f"Zx:{x}" for x in alphabet(rank))]:
            row = language(which, rank)
            whole = report_fields(crosscheck(grammar, lambda w: row.oracle(w), items))
            assert report_fields(crosscheck(grammar, row.oracle, items)) == whole, which
            assert whole["universe"] == len(items), which
            assert (whole["false_accept_count"] > 0) == (which != "E"), which
            assert whole["false_reject_count"] == 0, which


def test_reader_oracles_call_no_decider(monkeypatch):
    # read along the stem, E and Zx:a decide no word on its own, the empty
    # one included
    for name in ("is_idempotent", "avoids"):
        monkeypatch.setattr(munn, name, _no_decider)
    for which in ("E", "Zx:a"):
        row = language(which, 2)
        report = crosscheck(row.grammar(), row.oracle, enumerate_words(2, 5))
        assert report.clean and report.universe == 1365, which


def _no_decider(*args):
    raise AssertionError("a whole-word decider was called")


def test_crosscheck_caps_false_accepts_serial_and_pooled(monkeypatch, usable_cpus,
                                                          recording_pool):
    # 412 false accepts, past 2 * EXAMPLE_CAP, so the accept side's capping
    # runs; pooled in chunks of 100 words, each block caps its own too
    everything = Grammar({"a", "A"}, {"S"}, [("S", ("a", "S")), ("S", ("A", "S")), ("S", ())], "S")
    serial = crosscheck(everything, is_idempotent, enumerate_words(1, 8))
    usable_cpus(2)
    monkeypatch.setattr(oracle, "_CHUNK", 100)
    pooled = crosscheck(everything, is_idempotent, enumerate_words(1, 8), jobs=2)
    assert len(recording_pool.submitted) == 6
    for report in (serial, pooled):
        fields = report_fields(report)
        assert (report.universe, report.agreements, report.false_accept_count,
                report.false_reject_count) == (511, 99, 412, 0)
        assert report.false_accepts[:3] == ["a", "A", "aa"] and len(report.false_accepts) == 100
        assert report.false_rejects == []
        assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == (
            "38c4020fe30276fa244196d1125d07241cf2efd8ab32728a60cb7717b0a5b637")


@pytest.mark.parametrize("jobs", [0, -3])
def test_crosscheck_rejects_nonpositive_jobs(jobs, recording_pool):
    with pytest.raises(ValueError):
        crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 2), jobs=jobs)
    assert recording_pool.sizes == []


def test_crosscheck_jobs_clamped_and_grammar_sent_once(usable_cpus, recording_pool):
    usable_cpus(2)
    grammar = idempotent_grammar(2)
    serial = crosscheck(grammar, is_idempotent, enumerate_words(2, 6))
    pooled = crosscheck(grammar, is_idempotent, enumerate_words(2, 6), jobs=1_000_000)
    assert report_fields(pooled) == report_fields(serial)
    assert recording_pool.sizes == [2]
    # the grammar and predicate go to each worker once, through the
    # initializer; the submitted arguments are bare chunks of the universe
    assert recording_pool.initargs == [(grammar, is_idempotent)]
    assert len(recording_pool.submitted) == 2  # 5,461 words in chunks of 4,096
    assert all(
        isinstance(chunk, list) and all(isinstance(w, str) for w in chunk)
        for chunk in recording_pool.submitted
    )
    assert sum(map(len, recording_pool.submitted)) == serial.universe


def test_crosscheck_streams_chunks(usable_cpus, recording_pool):
    # at most two chunks per worker are in flight, so the universe is pulled
    # only a little ahead of the results read
    usable_cpus(2)
    jobs = 2
    pulled = 0
    pulled_at_first_read = []

    def universe():
        nonlocal pulled
        for word in enumerate_words(2, 7):
            pulled += 1
            yield word

    def predicate(word):
        if not pulled_at_first_read:
            pulled_at_first_read.append(pulled)
        return is_idempotent(word)

    report = crosscheck(idempotent_grammar(2), predicate, universe(), jobs=jobs)
    assert report.clean and report.universe == pulled == 21_845
    assert len(recording_pool.submitted) == 6
    assert pulled_at_first_read[0] <= (2 * jobs + 1) * oracle._CHUNK


@pytest.mark.parametrize("jobs", [2, 3])
def test_crosscheck_keeps_two_chunks_per_worker_in_flight(monkeypatch, usable_cpus,
                                                          recording_pool, jobs):
    # 2,047 words in 21 chunks of 100: the pool fills to 2 * jobs futures
    # not yet read, and a read comes before each further submit
    usable_cpus(jobs)
    monkeypatch.setattr(oracle, "_CHUNK", 100)
    report = crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 10), jobs=jobs)
    assert report.clean and report.universe == 2047
    assert recording_pool.sizes == [jobs] and len(recording_pool.submitted) == 21
    assert max(recording_pool.in_flight) == 2 * jobs


def test_crosscheck_one_cpu_runs_serially(usable_cpus, recording_pool):
    usable_cpus(1)
    report = crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 4), jobs=4)
    assert report.clean and report.universe == 31
    assert recording_pool.sizes == []


_POOL_MODULES = ("concurrent.futures.process", "multiprocessing")


def test_import_loads_no_pool_and_no_dataclasses():
    # -S: no site hook loads a module before fimcowp does.  The pool module
    # is loaded by the first crosscheck with jobs > 1, not before; argparse
    # (with gettext) and json by the CLI calls that use them.  The script
    # takes its list before it imports json itself.  No text is compiled on
    # import: typing would compile each NamedTuple field annotation that is
    # a string (a ForwardRef); a module's own source is compiled from bytes.
    script = f"""
import builtins, sys
compiled, real_compile = [], builtins.compile
def counting_compile(source, *args, **kwargs):
    if isinstance(source, str):
        compiled.append(source)
    return real_compile(source, *args, **kwargs)
builtins.compile = counting_compile
import fimcowp, fimcowp.cli
from fimcowp import cfg, fim_grammars, munn, oracle, words
builtins.compile = real_compile
watched = {_POOL_MODULES + ("dataclasses", "inspect", "argparse", "gettext", "json", "string")!r}
loaded = [m for m in watched if m in sys.modules]
import json, os
print(json.dumps(loaded))
print(json.dumps(compiled))
from fimcowp import crosscheck, enumerate_words, idempotent_grammar, is_idempotent, oracle
os.cpu_count = lambda: 2  # a pool even on one CPU
os.sched_getaffinity = lambda pid: {0, 1}
oracle._CHUNK = 16
for jobs in (1, 2):
    report = crosscheck(idempotent_grammar(1), is_idempotent, enumerate_words(1, 6), jobs=jobs)
    print(json.dumps([[m for m in {_POOL_MODULES!r} if m in sys.modules], report.to_json_dict()]))
"""
    done = subprocess.run([sys.executable, "-S", "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    on_import, compiled, serial, pooled = map(json.loads, done.stdout.splitlines())
    assert on_import == []
    assert compiled == []
    assert serial[0] == [] and pooled[0] == list(_POOL_MODULES)
    del serial[1]["elapsed_ms"], pooled[1]["elapsed_ms"]
    assert pooled[1] == serial[1] and serial[1]["universe"] == 127


def test_each_module_declares_the_names_it_gives_the_package():
    modules = (cfg, fim_grammars, munn, oracle, words)
    assert fimcowp.__all__ == [name for module in modules for name in module.__all__]
    assert len(fimcowp.__all__) == len(set(fimcowp.__all__)) == 45
    for module in modules:
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(fimcowp, name) is value, (module.__name__, name)
            if callable(value):
                # a module lists only what it defines, not what it imports
                assert value.__module__ == module.__name__, (module.__name__, name)
        namespace = {}
        exec(f"from {module.__name__} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(module.__all__), module.__name__


@pytest.mark.parametrize("method, which, universe, max_len, size", [
    pytest.param(method, *row, id=method + suffix)
    for *row, suffix in [("K1", "enumerate_marked", 3, 313, ""),
                         ("E", "enumerate_words", 4, 341, "-E")]
    for method in ("spawn", "forkserver")
])
def test_crosscheck_pool_under_start_method(method, which, universe, max_len, size):
    # workers that start a fresh interpreter import fimcowp themselves and
    # unpickle the grammar, the oracle (E's with its reader) and chunks of
    # marked words or words
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = f"""
import json, multiprocessing, os
multiprocessing.set_start_method({method!r})
from fimcowp import crosscheck, {universe}, language, oracle
os.cpu_count = lambda: 2  # a pool even on one CPU
os.sched_getaffinity = lambda pid: {0, 1}
oracle._CHUNK = 64
row = language({which!r}, 2)
report = crosscheck(row.grammar(), row.oracle, {universe}(2, {max_len}), jobs=2)
print(json.dumps([multiprocessing.get_start_method(), report.to_json_dict()]))
"""
    done = subprocess.run([sys.executable, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    started, pooled = json.loads(done.stdout)
    del pooled["elapsed_ms"]
    row = language(which, 2)
    items = globals()[universe](2, max_len)
    serial = report_fields(crosscheck(row.grammar(), row.oracle, items))
    assert started == method and pooled == serial and serial["universe"] == size


def test_enumeration_rejects_negative_bounds():
    with pytest.raises(ValueError):
        list(enumerate_words(1, -1))
    with pytest.raises(ValueError):
        list(enumerate_marked(1, -1))
