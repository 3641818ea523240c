"""One workload in a fresh interpreter: set-up, timed passes, answer checks.

    python3 perfbench/worker.py setup <workload>
    python3 perfbench/worker.py run <workload> < job.json
    python3 perfbench/worker.py trace <workload> < job.json

``setup`` times a fresh process's set-up only.  ``run`` times set-up, then
repeats the workload's pass for about the job's ``seconds``.  ``trace``
runs set-up and one pass with every layer traced, then one untraced pass for
the tracing overhead.  The job (written by run.py) holds the generated
inputs; the result is one JSON line on stdout.  The package must be
importable (run.py puts ``src`` on PYTHONPATH).

fimcowp is imported inside the set-up timer, so set-up covers the import;
nothing imported before the timer imports any module fimcowp needs.
"""

import gc
import os
import sys
import time

perf_counter = time.perf_counter

# A word of each grammar, for the first membership call of set-up.
FIRST_WORD = {"E": "aA", "K1": "aA#", "coWP-FIM": "aA#"}
# On xc-*, after each pass, latency-sample rounds run for this share of the
# pass's own time.
SAMPLE_SHARE = 0.25
SETUP_GRAMMARS = {
    "xc-idem": [("E", 2)],
    "xc-cowp": [("coWP-FIM", 2), ("coWP-FIM", 3)],
    "parse-long": [("K1", 2), ("E", 2)],
    "decide-long": [],
}


def _modules() -> dict:
    import fimcowp.cli
    from fimcowp import cfg, fim_grammars, munn, oracle, words

    return {"cfg": cfg, "cli": fimcowp.cli, "fim_grammars": fim_grammars, "munn": munn,
            "oracle": oracle, "words": words}


def _grammar(mods: dict, which: str, rank: int):
    builders = {"E": "idempotent_grammar", "K1": "k1_grammar", "coWP-FIM": "cowp_fim_grammar"}
    return getattr(mods["fim_grammars"], builders[which])(rank)


def setup(workload: str) -> tuple[dict, dict]:
    """Import, grammar construction and the first membership call (the first
    decision when the workload has no grammar)."""
    mods = _modules()
    grammars = {}
    for which, rank in SETUP_GRAMMARS[workload]:
        grammar = _grammar(mods, which, rank)
        mods["cfg"].cyk_member(grammar, FIRST_WORD[which])
        grammars[(which, rank)] = grammar
    if workload == "decide-long":
        u, v = mods["words"].parse_marked("aA#", 2).pair()
        mods["munn"].fim_equal(u, v)
    return mods, grammars


# --- passes: each returns (ops, the times in s of its timed parts, outputs) ---
# A part is one op on parse-long and decide-long.  On xc-* it is one CLI
# call, one chunk of a chunked crosscheck or the enumeration.


def _cli_crosscheck(mods: dict, job: dict, times: list):
    """`fimcowp crosscheck` through the CLI entry, timed as one part."""
    import io
    from contextlib import redirect_stdout

    argv = ["crosscheck", "--rank", str(job["rank"]), "--which", job["which"],
            "--max-len", str(job["max_len"])]
    buf = io.StringIO()
    started = perf_counter()
    try:
        with redirect_stdout(buf):
            code = mods["cli"].main(argv)
        out = (code, buf.getvalue())
    except Exception as exc:  # counted as failed ops by the check
        out = (None, repr(exc))
    times.append(perf_counter() - started)
    return out


def _chunked_crosscheck(mods: dict, job: dict, times: list):
    """The same crosscheck as the CLI runs (its grammar, oracle and universe
    enumerator), split into oracle.crosscheck calls on consecutive chunks
    of the universe, each timed as one part.  Short parts let the lowest
    timing of each part over a run escape the host's slow stretches."""
    from itertools import islice

    cli, oracle = mods["cli"], mods["oracle"]
    try:
        grammar = cli.resolve_grammar(job["which"], job["rank"])
        predicate, marked = cli.oracle_for(job["which"], job["rank"])
        enumerate_items = oracle.enumerate_marked if marked else oracle.enumerate_words
        items = enumerate_items(job["rank"], job["max_len"])
        total = agreements = 0
        clean = True
        while True:
            started = perf_counter()
            chunk = list(islice(items, job["chunk"]))
            if not chunk:
                break
            report = oracle.crosscheck(grammar, predicate, chunk)
            times.append(perf_counter() - started)
            total += report.universe
            agreements += report.agreements
            clean = clean and report.clean
        return (0 if clean else 1, {"universe": total, "agreements": agreements})
    except Exception as exc:
        return (None, repr(exc))


def xc_pass(mods: dict, grammars: dict, inputs: dict):
    outputs, times = [], []
    for job in inputs["crosschecks"]:
        if job.get("chunk"):
            outputs.append(_chunked_crosscheck(mods, job, times))
        else:
            outputs.append(_cli_crosscheck(mods, job, times))
    language = None
    spec = inputs["enumerate"]
    if spec:
        grammar = grammars[(spec["which"], spec["rank"])]
        started = perf_counter()
        try:
            language = mods["cfg"].enumerate_language(grammar, spec["max_len"])
        except Exception as exc:
            language = exc
        times.append(perf_counter() - started)
    ops = sum(job["universe"] for job in inputs["crosschecks"])
    return ops, times, (outputs, language)


def parse_pass(mods: dict, grammars: dict, inputs: dict):
    """Outputs (accepted, tree is valid): each tree is checked as soon as
    its op is timed and then dropped, so that peak RSS is that of the
    costliest op, not of all the trees of a pass."""
    cfg = mods["cfg"]
    rank = inputs["rank"]
    productions = {key: frozenset(g.productions) for key, g in grammars.items()}
    latencies, outputs = [], []
    for q in inputs["queries"]:
        grammar = grammars[(q["which"], rank)]
        started = perf_counter()
        try:
            accepted = cfg.cyk_member(grammar, q["word"])
            tree = cfg.derive(grammar, q["word"]) if accepted else None
        except Exception as exc:
            latencies.append(perf_counter() - started)
            outputs.append(exc)
            continue
        latencies.append(perf_counter() - started)
        accepted = bool(accepted)
        outputs.append((accepted, accepted and _tree_ok(tree, q["word"],
                                                        productions[(q["which"], rank)])))
        del tree
    return len(outputs), latencies, outputs


def decide_pass(mods: dict, grammars: dict, inputs: dict):
    words, munn = mods["words"], mods["munn"]
    rank = inputs["rank"]
    latencies, outputs = [], []
    for q in inputs["queries"]:
        started = perf_counter()
        try:
            u, v = words.parse_marked(q["text"], rank).pair()
            if q["op"] == "wp":
                out = munn.fim_equal(u, v)
            elif q["op"] == "k1":
                out = munn.in_k1(u, v)
            else:
                product = munn.munn_product(munn.build_munn(u), munn.build_munn(v))
                out = product == munn.build_munn(u + v)
        except Exception as exc:
            out = exc
        latencies.append(perf_counter() - started)
        outputs.append(out)
    return len(outputs), latencies, outputs


# --- checks: each returns the number of failed ops ---


def check_xc(inputs: dict, outputs) -> int:
    import json

    reports, language = outputs
    failed = 0
    for job, (code, text) in zip(inputs["crosschecks"], reports):
        expected = job["universe"]
        try:
            report = text if isinstance(text, dict) else json.loads(text)
        except ValueError:
            failed += expected
            continue
        if code != 0 or report.get("universe") != expected:
            failed += expected
        else:
            failed += expected - min(report.get("agreements", 0), expected)
    spec = inputs["enumerate"]
    if spec:
        if isinstance(language, Exception) or language is None:
            failed += len(spec["expected"])
        else:
            failed += len(set(language) ^ set(spec["expected"]))
    return failed


def _tree_ok(tree, word: str, productions: frozenset) -> bool:
    """The tree uses only the grammar's productions, each node matching its
    production, and its leaves spell the word.  Iterative, as trees of long
    words are deep."""
    if tree is None:
        return False
    leaves = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            leaves.append(node)
            continue
        prod = node.production
        if prod not in productions or prod.head != node.root or len(prod.body) != len(node.children):
            return False
        for symbol, child in zip(prod.body, node.children):
            if (child if isinstance(child, str) else child.root) != symbol:
                return False
        stack.extend(reversed(node.children))
    return "".join(leaves) == word


def check_parse(inputs: dict, outputs) -> int:
    failed = 0
    for q, out in zip(inputs["queries"], outputs):
        if isinstance(out, Exception):
            failed += 1
            continue
        accepted, tree_ok = out
        failed += accepted != q["member"] or (accepted and not tree_ok)
    return failed


def check_decide(inputs: dict, outputs) -> int:
    return sum(isinstance(out, Exception) or bool(out) != q["expected"]
               for q, out in zip(inputs["queries"], outputs))


PASSES = {"xc-idem": xc_pass, "xc-cowp": xc_pass, "parse-long": parse_pass,
          "decide-long": decide_pass}


def check(workload: str, inputs: dict, outputs) -> int:
    if workload.startswith("xc-"):
        return check_xc(inputs, outputs)
    if workload == "parse-long":
        return check_parse(inputs, outputs)
    return check_decide(inputs, outputs)


def latency_sample(mods: dict, grammars: dict, inputs: dict) -> tuple[list, int]:
    """xc-* only: one membership at a time over a seeded sample of the
    universe, each checked against the oracle's answer.  Not part of the
    pass: the crosscheck runs its memberships inside one CLI call."""
    cfg = mods["cfg"]
    latencies, failed = [], 0
    for q in inputs["sample"]:
        grammar = grammars[(q["which"], q["rank"])]
        started = perf_counter()
        try:
            accepted = cfg.cyk_member(grammar, q["word"])
        except Exception:
            accepted = None
        latencies.append(perf_counter() - started)
        failed += accepted is None or bool(accepted) != q["expected"]
    return latencies, failed


def _next_cpu(passes: int, cpus: list[int], last: dict) -> int:
    """The CPU for the next pass: each in turn at first and then every third
    pass, otherwise the one whose last pass was fastest.  A neighbour on the
    host can slow one CPU for minutes; most timings then come from the other."""
    if passes < len(cpus) or passes % 3 == 2:
        return cpus[passes % len(cpus)]
    return min(cpus, key=last.__getitem__)


def _keep_lowest(best: list | None, times: list) -> list:
    return times if best is None else [min(a, b) for a, b in zip(best, times)]


def run(workload: str, job: dict, setup_s: float, mods: dict, grammars: dict) -> dict:
    """Passes for about `seconds`.  Each timed part of a pass keeps the
    lowest of its timings over the run: on a busy host other work only ever
    adds time, and it comes in bursts that last from milliseconds to minutes.
    The lowest of ten or more timings, spread over the run, is far steadier
    from run to run than any one pass."""
    inputs, seconds = job["inputs"], job["seconds"]
    run_pass = PASSES[workload]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    last: dict[int, float] = {}
    parts = latencies = None
    attempted = failed = passes = 0
    started = perf_counter()
    while True:
        cpu = _next_cpu(passes, cpus, last) if len(cpus) > 1 else None
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        passes += 1
        cycle_started = perf_counter()
        ops, times, outputs = run_pass(mods, grammars, inputs)
        if cpu is not None:
            last[cpu] = sum(times)
        parts = _keep_lowest(parts, times)
        attempted += ops
        failed += check(workload, inputs, outputs)
        del outputs  # so that peak RSS holds one pass's outputs, not two
        gc.collect()  # and so that it does not hinge on when the collector ran
        if workload.startswith("xc-"):
            # sample rounds after each pass spread the timings over the run
            until = perf_counter() + sum(times) * SAMPLE_SHARE
            while True:
                lat, sample_failed = latency_sample(mods, grammars, inputs)
                latencies = _keep_lowest(latencies, lat)
                attempted += len(lat)
                failed += sample_failed
                if perf_counter() >= until:
                    break
        # stop after the pass whose end lies nearest to `seconds`
        now = perf_counter()
        if now - started + (now - cycle_started) / 2 >= seconds:
            break
    import resource

    if latencies is None:
        latencies = parts
    return {"setup_s": setup_s, "ops": ops, "parts": parts, "latencies": latencies,
            "attempted": attempted, "failed": failed,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(workload: str, job: dict) -> dict:
    mods = _modules()
    from layers import Layers
    from spans import Tracer

    inputs = job["inputs"]
    run_pass = PASSES[workload]
    tracer = Tracer()
    layers = Layers(tracer, mods)
    with tracer.span("bench"):
        _, grammars = setup(workload)
        t0 = perf_counter()
        ops, _, outputs = run_pass(mods, grammars, inputs)
        traced_pass = perf_counter() - t0
    tracer.uninstall()
    attempted, failed = ops, check(workload, inputs, outputs)
    del outputs
    t0 = perf_counter()
    ops, _, outputs = run_pass(mods, grammars, inputs)
    untraced_pass = perf_counter() - t0
    attempted += ops
    failed += check(workload, inputs, outputs)
    metrics = layers.metrics()
    metrics.update({
        "trace.traced_s": tracer.end[0] - tracer.start[0],
        "trace.pass_s": traced_pass,
        "trace.untraced_pass_s": untraced_pass,
        "trace.overhead_s": traced_pass - untraced_pass,
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def main() -> int:
    mode, workload = sys.argv[1], sys.argv[2]
    if workload not in SETUP_GRAMMARS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    if mode == "trace":
        import json

        result = trace(workload, json.load(sys.stdin))
    else:
        started = perf_counter()
        mods, grammars = setup(workload)
        setup_s = perf_counter() - started
        import json

        if mode == "setup":
            result = {"setup_s": setup_s}
        else:
            result = run(workload, json.load(sys.stdin), setup_s, mods, grammars)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
