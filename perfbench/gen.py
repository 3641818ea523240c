"""Seeded inputs and known answers for each workload.

Runs in the orchestrating process, never in the measured one, so the
measured process receives only the generated inputs.  Every expected answer
follows from how an input is built, or comes from the Munn-tree oracle when
the grammar route is the one being timed; none comes from the timed route.
"""

from __future__ import annotations

import random
from itertools import product

from fimcowp import munn, words
from fimcowp.fim_grammars import sample_kmn

RANK = 2
LETTERS = "aAbB"
KMN_CANDIDATES = 32
IDEMPOTENT_CANDIDATES = 5

# Universe sizes at full scale, the library's enumerators aside: the
# benchmark's own enumeration and universe_size() must both agree with them.
FULL_UNIVERSES = {("words", 2, 5): 1_365, ("words", 2, 6): 5_461, ("words", 2, 7): 21_845,
                  ("marked", 2, 4): 1_593, ("marked", 3, 3): 985}
FULL_E_LANGUAGE = {6: 265}

SCALES = {
    "full": {
        # to length 7 in chunks of 1,024 words, so that a pass takes about
        # 1.5 s and each part of it is timed over ten times in a 35 s run
        "xc-idem": {"cli_len": 5, "max_len": 7, "chunk": 1024, "enumerate_len": 6,
                    "sample": 1000},
        "xc-cowp": {"bounds": [(2, 4), (3, 3)], "sample": 200},
        # few of the costliest inputs, so that a pass takes about 3 s and
        # each op is timed about ten times in a 35 s run.  Twelve E words
        # of one length make a plateau of cost around the 90th percentile,
        # with six ops above it, so op_p90_ms does not hinge on one word.
        "parse-long": {"kmn": [0] * 14 + [1] * 2 + [2, 3], "e_lengths": (64, 180, 48),
                       "e_plateau": (200, 12), "e_longest": 256, "aA": [32, 48, 64]},
        "decide-long": {"per_kind": 30, "long": (200, 1100), "kmn": (50, 70), "product": (20, 100)},
    },
    "tiny": {
        "xc-idem": {"cli_len": 2, "max_len": 4, "chunk": 64, "enumerate_len": 4,
                    "sample": 100},
        "xc-cowp": {"bounds": [(2, 2), (3, 1)], "sample": 100},
        "parse-long": {"kmn": [0, 1] * 2, "e_lengths": (16, 24, 4), "e_plateau": (28, 2),
                       "e_longest": 32, "aA": [8]},
        "decide-long": {"per_kind": 3, "long": (20, 60), "kmn": (2, 4), "product": (4, 12)},
    },
}


def universe_size(kind: str, rank: int, max_len: int) -> int:
    """Words (or marked words u#t with |u|+|t| = k, k+1 marker slots) of
    length <= max_len over 2*rank letters."""
    letters = 2 * rank
    if kind == "words":
        return sum(letters**k for k in range(max_len + 1))
    return sum((k + 1) * letters**k for k in range(max_len + 1))


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """`count` lengths from lo to hi, evenly spaced, so every seed gets the
    same length profile and only the letters change."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def _skewed(lo: int, hi: int, count: int) -> list[int]:
    """`count` lengths from lo to hi, lo * (hi/lo)**(x**3) for x evenly
    spaced in [0, 1]: most are short, and the long ones, whose cost grows
    about with the square of the length, thin out towards hi."""
    return [round(lo * (hi / lo) ** ((i / (count - 1)) ** 3)) for i in range(count)]


def _random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


def _random_idempotent(rng: random.Random, length: int) -> str:
    """A word of even length that freely reduces to the empty word: every
    letter pushed is later cancelled by its inverse."""
    out: list[str] = []
    stack: list[str] = []
    for remaining in range(length, 0, -1):
        if stack and (len(stack) == remaining or rng.random() < 0.5):
            out.append(stack.pop().swapcase())
        else:
            letter = rng.choice(LETTERS)
            out.append(letter)
            stack.append(letter)
    return "".join(out)


def _balanced_spans(word: str) -> int:
    """Spans of the word that freely reduce to the empty word: pairs of
    positions whose prefixes reduce to the same element.  The cost of
    derive on E grows with it."""
    stack: list[str] = []
    seen = {"": 1}
    for ch in word:
        if stack and stack[-1] == ch.swapcase():
            stack.pop()
        else:
            stack.append(ch)
        key = "".join(stack)
        seen[key] = seen.get(key, 0) + 1
    return sum(n * (n - 1) // 2 for n in seen.values())


def _typical_idempotent(rng: random.Random, length: int) -> str:
    """The median by balanced spans of a few random idempotents, so that
    every seed puts about the same load on derive."""
    candidates = [_random_idempotent(rng, length) for _ in range(IDEMPOTENT_CANDIDATES)]
    return sorted(candidates, key=_balanced_spans)[IDEMPOTENT_CANDIDATES // 2]


def _inverse(word: str) -> str:
    return word[::-1].swapcase()


def _mutate(rng: random.Random, marked: str) -> str:
    """Insert or delete one letter.  Either changes one generator's exponent
    sum in u·t by one, so u and v = t^-1 differ in the free group, hence in
    the monoid, and u#t leaves K1."""
    spots = [i for i, ch in enumerate(marked) if ch != words.MARKER]
    if rng.random() < 0.5:
        i = rng.choice(spots)
        return marked[:i] + marked[i + 1 :]
    i = rng.randrange(len(marked) + 1)
    return marked[:i] + rng.choice(LETTERS) + marked[i:]


def _alphabet(rank: int) -> str:
    return "".join(ch + ch.upper() for ch in "abcdefghijklmnopqrstuvwxyz"[:rank])


def _words_of_length(rank: int, length: int) -> list[str]:
    return ["".join(w) for w in product(_alphabet(rank), repeat=length)]


def _words(rank: int, max_len: int) -> list[str]:
    return [w for k in range(max_len + 1) for w in _words_of_length(rank, k)]


def _marked(rank: int, max_len: int) -> list[str]:
    by_len = [_words_of_length(rank, k) for k in range(max_len + 1)]
    return [u + words.MARKER + t for k in range(max_len + 1) for i in range(k + 1)
            for u in by_len[i] for t in by_len[k - i]]


def _universe(kind: str, rank: int, max_len: int) -> list[str]:
    """The crosscheck universe as text, built here rather than by the
    library's enumerators, and checked against its closed-form size."""
    items = (_words if kind == "words" else _marked)(rank, max_len)
    size = universe_size(kind, rank, max_len)
    fixed = FULL_UNIVERSES.get((kind, rank, max_len), size)
    if not len(items) == size == fixed:
        raise RuntimeError(f"universe {kind} rank {rank} <= {max_len}: "
                           f"{len(items)} items, {size} by formula, {fixed} fixed")
    return items


def _xc_sample(rng: random.Random, universes: list[tuple], count: int) -> list[dict]:
    """About `count` memberships drawn from (grammar, rank, texts, oracle)
    universes, stratified by grammar and length in proportion to their
    sizes: every seed gets the same mix, and only the items change."""
    total = sum(len(texts) for _, _, texts, _ in universes)
    sample = []
    for which, rank, texts, oracle in universes:
        by_len: dict[int, list[str]] = {}
        for text in texts:
            by_len.setdefault(len(text), []).append(text)
        for group in by_len.values():
            for text in (rng.choice(group) for _ in range(round(count * len(group) / total))):
                sample.append({"which": which, "rank": rank, "word": text,
                               "expected": bool(oracle(text))})
    rng.shuffle(sample)
    return sample


def _is_idempotent(rank: int):
    return lambda text: munn.is_idempotent(words.parse_word(text, rank))


def _in_cowp(rank: int):
    return lambda text: munn.in_cowp(words.parse_marked(text, rank))


def xc_idem(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)
    cli_len, max_len, enumerate_len = scale["cli_len"], scale["max_len"], scale["enumerate_len"]
    universe = _universe("words", RANK, max_len)
    oracle = _is_idempotent(RANK)
    language = [w for w in _universe("words", RANK, enumerate_len) if oracle(w)]
    if len(language) != FULL_E_LANGUAGE.get(enumerate_len, len(language)):
        raise RuntimeError(f"oracle-filtered E language has {len(language)} words")
    return {
        "crosschecks": [
            {"which": "E", "rank": RANK, "max_len": cli_len,
             "universe": len(_universe("words", RANK, cli_len))},
            {"which": "E", "rank": RANK, "max_len": max_len, "chunk": scale["chunk"],
             "universe": len(universe)},
        ],
        "enumerate": {"which": "E", "rank": RANK, "max_len": enumerate_len,
                      "expected": language},
        "sample": _xc_sample(rng, [("E", RANK, universe, oracle)], scale["sample"]),
    }


def xc_cowp(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)
    crosschecks, universes = [], []
    for rank, max_len in scale["bounds"]:
        universe = _universe("marked", rank, max_len)
        crosschecks.append({"which": "coWP-FIM", "rank": rank, "max_len": max_len,
                            "universe": len(universe)})
        universes.append(("coWP-FIM", rank, universe, _in_cowp(rank)))
    return {"crosschecks": crosschecks, "enumerate": None,
            "sample": _xc_sample(rng, universes, scale["sample"])}


def _kmn_near(rng: random.Random, mn: int) -> str:
    """A K1 sample from sample_kmn(m = n = mn) whose length is nearest
    18 mn + 19, a common length, among seeded candidates (the shorter on a
    tie), so that every seed gets about the same lengths."""
    target = 18 * mn + 19
    candidates = (str(sample_kmn(RANK, mn, mn, rng.randrange(2**31)))
                  for _ in range(KMN_CANDIDATES))
    return min(candidates, key=lambda w: (abs(len(w) - target), len(w)))


def parse_long(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)
    queries = []
    for mn in scale["kmn"]:
        member = _kmn_near(rng, mn)
        queries.append({"kind": "k1-member", "which": "K1", "word": member, "member": True})
        queries.append({"kind": "k1-mutant", "which": "K1", "word": _mutate(rng, member),
                        "member": False})
    lo, hi, count = scale["e_lengths"]
    plateau, times = scale["e_plateau"]
    for length in _skewed(lo, hi, count) + [plateau] * times + [scale["e_longest"]]:
        queries.append({"kind": "e-random", "which": "E",
                        "word": _typical_idempotent(rng, length - length % 2), "member": True})
    for n in scale["aA"]:
        queries.append({"kind": "e-aA", "which": "E", "word": "aA" * n, "member": True})
    rng.shuffle(queries)
    return {"rank": RANK, "queries": queries}


def decide_long(seed: int, scale: dict) -> dict:
    rng = random.Random(seed)
    queries = []
    lo, hi = scale["long"]
    for total in _spread(lo, hi, scale["per_kind"]):
        # equal: u = p q s and v = p q q^-1 q s, with |u| + |v| = 2 (|p| + 2|q| + |s|)
        half = total // 2
        b = rng.randint(1, half // 4)
        a = rng.randint(1, half - 2 * b - 1)
        p, q, s = (_random_word(rng, k) for k in (a, b, half - 2 * b - a))
        u, v = p + q + s, p + q + _inverse(q) + q + s
        queries.append({"kind": "long-equal", "op": "wp", "text": u + "#" + _inverse(v),
                        "expected": True})
    for total in _spread(lo, hi, scale["per_kind"]):
        u = _random_word(rng, total // 2)
        queries.append({"kind": "long-unequal", "op": "wp",
                        "text": _mutate(rng, u + "#" + _inverse(u)), "expected": False})
    mlo, mhi = scale["kmn"]
    for mn in _spread(mlo, mhi, scale["per_kind"]):
        queries.append({"kind": "k1", "op": "k1", "text": _kmn_near(rng, mn), "expected": True})
    plo, phi = scale["product"]
    for length in _spread(plo, phi, scale["per_kind"]):
        u, v = _random_word(rng, length), _random_word(rng, plo + phi - length)
        queries.append({"kind": "product-law", "op": "product", "text": u + "#" + _inverse(v),
                        "expected": True})
    rng.shuffle(queries)
    return {"rank": RANK, "queries": queries}


GENERATORS = {"xc-idem": xc_idem, "xc-cowp": xc_cowp, "parse-long": parse_long,
              "decide-long": decide_long}


def generate(workload: str, seed: int, scale: str) -> dict:
    return GENERATORS[workload](seed, SCALES[scale][workload])


def known_answers(workload: str, inputs: dict) -> dict:
    """Counts of the expected answers, recorded with every result."""
    if workload.startswith("xc-"):
        out = {"universes": [c["universe"] for c in inputs["crosschecks"]],
               "sample": len(inputs["sample"]),
               "sample_members": sum(q["expected"] for q in inputs["sample"])}
        if inputs["enumerate"]:
            out["language"] = len(inputs["enumerate"]["expected"])
        return out
    key = "member" if workload == "parse-long" else "expected"
    kinds: dict[str, list[int]] = {}
    for q in inputs["queries"]:
        count = kinds.setdefault(q["kind"], [0, 0])
        count[0] += 1
        count[1] += bool(q[key])
    return {kind: {"ops": n, "true": t} for kind, (n, t) in sorted(kinds.items())}
