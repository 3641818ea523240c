"""The per-layer metrics: which library functions are traced, under which
span names, and how the recorded spans become metrics.

A layer's ``*_s`` metric is the self time of its spans: their durations
minus the time covered by traced calls they made.  Together with
``bench.self_s`` the self times add up to ``trace.traced_s``.
"""

from __future__ import annotations

from statistics import median

from spans import NO_SIZE, Tracer

# Bucket lenN holds inputs whose length lies in (N/2, N].
BUCKETS = (16, 32, 64, 128, 256)

# span name -> [(module, attribute)], each the name a caller looks up
SPANS = {
    "cfg.cyk_member": [("cfg", "cyk_member"), ("oracle", "cyk_member")],
    "cfg.derive": [("cfg", "derive")],
    "cfg.to_cnf": [("cfg", "to_cnf")],
    "cfg.enumerate_language": [("cfg", "enumerate_language")],
    "fim_grammars.build": [
        ("fim_grammars", name)
        for name in ("idempotent_grammar", "avoiding_grammar", "k1_grammar", "k2_grammar",
                     "cowp_fg_grammar", "cowp_fim_grammar")
    ],
    "oracle.crosscheck": [("oracle", "crosscheck")],
    "cli": [("cli", "main")],
    "words.parse": [("words", "parse_word"), ("words", "parse_marked")],
    "words.free_reduce": [("words", "free_reduce"), ("munn", "free_reduce")],
    "munn.build_munn": [("munn", "build_munn")],
    "munn.munn_product": [("munn", "munn_product")],
    "munn.decide": [("munn", name) for name in ("fim_equal", "in_k1", "in_cowp",
                                                "is_idempotent", "avoids")],
}
ENUMERATORS = [("oracle", "enumerate_words"), ("oracle", "enumerate_marked")]
SIZED = {"cfg.cyk_member", "cfg.derive"}

# metric name -> span name, for the span's total self time in seconds
SELF_TIMES = {
    "cfg.cyk_member_s": "cfg.cyk_member",
    "cfg.derive_s": "cfg.derive",
    "cfg.to_cnf_s": "cfg.to_cnf",
    "cfg.enumerate_language_s": "cfg.enumerate_language",
    "fim_grammars.build_s": "fim_grammars.build",
    "oracle.crosscheck_s": "oracle.crosscheck",
    "oracle.enumerate_s": "oracle.enumerate",
    "oracle.predicate_s": "oracle.predicate",
    "cli.self_s": "cli",
    "words.parse_s": "words.parse",
    "words.free_reduce_s": "words.free_reduce",
    "munn.build_munn_s": "munn.build_munn",
    "munn.munn_product_s": "munn.munn_product",
    "munn.decide_s": "munn.decide",
    "bench.self_s": "bench",
}
CALLS = {
    "cfg.cyk_member_calls": "cfg.cyk_member",
    "cfg.derive_calls": "cfg.derive",
    "oracle.predicate_calls": "oracle.predicate",
    "words.free_reduce_calls": "words.free_reduce",
    "munn.build_munn_calls": "munn.build_munn",
}
COUNTS = ("cfg.cnf_productions", "cfg.enumerate_language_words", "fim_grammars.productions",
          "oracle.universe", "munn.tree_edges")


def _bucket_metrics(span: str) -> dict[str, str]:
    """Median self time in ms of the span's calls on inputs in each bucket;
    0 when no call falls in the bucket."""
    return {f"{span}_ms.len{n}": span for n in BUCKETS}


BUCKETED = {**_bucket_metrics("cfg.cyk_member"), **_bucket_metrics("cfg.derive")}

TRACE_TIMES = ("trace.traced_s", "trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s")

UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTS},
    **{name: "ms" for name in BUCKETED},
    "cfg.cnf_inflation": "ratio",
    **{name: "s" for name in TRACE_TIMES},
    "error_rate": "ratio",
}


class Layers:
    """Installs the spans of SPANS on the imported library modules and keeps
    the counts that are taken from call results."""

    def __init__(self, tracer: Tracer, modules: dict[str, object]) -> None:
        self.tracer = tracer
        self.counts = dict.fromkeys(
            ("cfg.enumerate_language_words", "oracle.universe", "munn.tree_edges"), 0)
        self._cnf: dict[int, tuple[int, int]] = {}
        self._built: dict[tuple, int] = {}
        hooks = {
            "cfg.to_cnf": self._on_cnf,
            "cfg.enumerate_language": self._on_language,
            "munn.build_munn": self._on_tree,
        }
        for span, sites in SPANS.items():
            for module, attr in sites:
                original = getattr(modules[module], attr)
                if span == "fim_grammars.build":
                    hook = self._on_build(attr)
                else:
                    hook = hooks.get(span)
                size_of = (lambda args: len(args[1])) if span in SIZED else None
                tracer.install(modules[module], attr, tracer.wrap(span, original, size_of, hook))
        for module, attr in ENUMERATORS:
            original = getattr(modules[module], attr)
            tracer.install(modules[module], attr,
                           tracer.wrap_iter("oracle.enumerate", original, self._on_items))
        cli = modules["cli"]
        oracle_for = cli.oracle_for

        def traced_oracle_for(*args):
            predicate, marked = oracle_for(*args)
            return tracer.wrap("oracle.predicate", predicate), marked

        tracer.install(cli, "oracle_for", traced_oracle_for)

    def _on_cnf(self, args, result, parent) -> None:
        self._cnf[id(args[0])] = (len(args[0].productions), len(result.productions))

    def _on_language(self, args, result, parent) -> None:
        self.counts["cfg.enumerate_language_words"] += len(result)

    def _on_tree(self, args, result, parent) -> None:
        self.counts["munn.tree_edges"] += len(result.edges)

    def _on_items(self, count: int) -> None:
        self.counts["oracle.universe"] += count

    def _on_build(self, attr: str):
        def hook(args, result, parent) -> None:
            # grammars built as parts of another count with the outer one
            if parent != "fim_grammars.build":
                self._built[(attr, args)] = len(result.productions)

        return hook

    def metrics(self) -> dict[str, float]:
        tracer = self.tracer
        own = tracer.self_times()
        seconds = dict.fromkeys(tracer.names, 0.0)
        calls = dict.fromkeys(tracer.names, 0)
        sized: dict[tuple[str, int], list[float]] = {}
        for i, self_s in enumerate(own):
            name = tracer.names[tracer.name[i]]
            seconds[name] += self_s
            calls[name] += 1
            if tracer.size[i] != NO_SIZE:
                bucket = next((n for n in BUCKETS if tracer.size[i] <= n), None)
                if bucket is not None and tracer.size[i] > bucket // 2:
                    sized.setdefault((name, bucket), []).append(self_s * 1000.0)
        out: dict[str, float] = {}
        for metric, span in SELF_TIMES.items():
            out[metric] = seconds.get(span, 0.0)
        for metric, span in CALLS.items():
            out[metric] = calls.get(span, 0)
        for metric, span in BUCKETED.items():
            bucket = int(metric.rsplit(".len", 1)[1])
            out[metric] = median(sized.get((span, bucket), [0.0]))
        out.update(self.counts)
        out["fim_grammars.productions"] = sum(self._built.values())
        original = sum(orig for orig, _ in self._cnf.values())
        out["cfg.cnf_productions"] = sum(cnf for _, cnf in self._cnf.values())
        out["cfg.cnf_inflation"] = out["cfg.cnf_productions"] / original if original else 0.0
        return out
