"""First-order mutants of chosen functions, each run against chosen tests.

Each mutant changes one place in one function of the package:
- a comparison flipped: == and !=, < and <=, > and >=, in and not in;
- an operator swapped, also in an augmented assignment: | and &, + and -,
  << and >>;
- and and or swapped;
- a not dropped;
- an integer constant from 0 to 3 raised by one.
Annotations are never mutated: under `from __future__ import annotations`
they are never evaluated.

For each mutant the package and the tests are copied to a fresh directory,
the mutated module is written there (by `ast.unparse`, so comments go) and
pytest runs the chosen tests under a Hypothesis profile that is
derandomized and keeps no example database, so a run can be repeated
exactly.  A failing test kills the mutant; a run past TIMEOUT counts as a
kill but is listed apart.  Mutants run one per usable CPU.  One JSON line
per mutant goes to stdout.  A survivor that is not in EQUIVALENT below
makes the exit status 1, and so does an entry of EQUIVALENT for a target
that was run that names no mutant generated: the code under it changed.

    python tests/mutants.py --target cfg:_Chart.tree --target cfg:_chart_tables \\
        --tests tests/test_cfg.py

This is a tool, not a test: pytest does not collect it, and it is run by
hand on the functions that a change touches.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fimcowp"
TIMEOUT = 120  # seconds for one run of the tests

SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.BitOr: ast.BitAnd, ast.BitAnd: ast.BitOr, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift, ast.And: ast.Or, ast.Or: ast.And,
}
SPELLING = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.In: "in", ast.NotIn: "not in", ast.BitOr: "|", ast.BitAnd: "&", ast.Add: "+",
    ast.Sub: "-", ast.LShift: "<<", ast.RShift: ">>", ast.And: "and", ast.Or: "or",
}

# Survivors that no test can kill, as (target, source of the mutated node,
# mutation), each with the argument that it changes no behaviour.
EQUIVALENT: dict[tuple[str, str, str], str] = {
    ("cfg:_Chart.tree", "0 in: cols[j - 1].get(m, 0) >> low & 1 if low < j - 1", "0 -> 1"):
        "a default of 1 shifted right by low >= 1 is 0, as 0 is",
    ("cfg:_Chart.tree", "r > rank in: if r > rank:", "> -> >="):
        "ranks are indices into one rule list, so no rule A -> B C has its bracket's rank",
    ("cfg:_Chart.tree",
     "0 in: if left.get(b, 0) >> i & 1 and cell.get(c, 0) >> low & 1: #2", "0 -> 1"):
        "a default of 1 shifted right by low >= 1 is 0, as 0 is",
    ("cfg:_Chart.tree", "1 << j in: window = (1 << j) - (1 << low)", "<< -> >>"):
        "0 - (1 << low) sets every bit from low up, and a cell has no bit from j up",
    ("cfg:_Chart.tree", "1 in: window = (1 << j) - (1 << low)", "1 -> 2"):
        "the window gains bit j, and a cell has no bit from j up",
    ("cfg:_Chart.tree", "0 in: ks = cell.get(c, 0) & window", "0 -> 1"):
        "a default of 1 is bit 0, and the window holds no bit below low >= 1",
    ("cfg:_Chart.push", "0 in: starts = pos[t] & (last.get(x, 0) | nullable * bit) >> 1",
     "0 -> 1"):
        "a default of 1 is bit 0, which the shift right by one drops",
    ("cfg:_Chart.push", "0 in: todo[a] = todo.get(a, 0) | new", "0 -> 1"):
        "a start 0 queued in vain combines with column 0, which is always empty, and a "
        "lead pair's shift right by one drops it",
    ("cfg:_Chart.push", "1 in: skip = c if closed else -1", "1 -> 2"):
        "-1 and -2 are both no symbol id, so no head is skipped either way",
    ("cfg:_chart_tables", "1 in: head, body, size = size, body[1:], size + 1 #2", "1 -> 2"):
        "auxiliary ids with gaps between them: they are only dict keys, compared with aux",
}


def _function(module: ast.Module, qualname: str) -> ast.AST:
    node: ast.AST = module
    for name in qualname.split("."):
        node = next(n for n in ast.iter_child_nodes(node)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def _annotations(function: ast.AST) -> set[int]:
    """The ids of every node inside an annotation of the function."""
    roots = [n.annotation for n in ast.walk(function) if isinstance(n, (ast.arg, ast.AnnAssign))]
    roots += [n.returns for n in ast.walk(function) if isinstance(n, ast.FunctionDef)]
    return {id(m) for r in roots if r is not None for m in ast.walk(r)}


def _setter(holder, key):
    if isinstance(key, int):
        return lambda value: holder.__setitem__(key, value)
    return lambda value: setattr(holder, key, value)


def _sites(function: ast.AST):
    """(node, mutation text, setter, old value, new value) for every mutant
    of the function, in a fixed order."""
    skip = _annotations(function)
    for parent in ast.walk(function):
        for field, value in ast.iter_fields(parent):
            places = enumerate(value) if isinstance(value, list) else [(field, value)]
            for key, node in places:
                if not isinstance(node, ast.AST) or id(node) in skip:
                    continue
                put = _setter(value if isinstance(value, list) else parent, key)
                swaps = [(_setter(node, "op"), node.op)] if isinstance(
                    node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) else []
                if isinstance(node, ast.Compare):
                    swaps = [(_setter(node.ops, k), op) for k, op in enumerate(node.ops)]
                for setter, op in swaps:
                    if type(op) in SWAPS:
                        new = SWAPS[type(op)]()
                        yield node, f"{SPELLING[type(op)]} -> {SPELLING[type(new)]}", setter, op, new
                if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                    yield node, "not dropped", put, node, node.operand
                elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 3:
                    yield node, f"{node.value} -> {node.value + 1}", put, node, ast.Constant(node.value + 1)


def _run(source_name: str, text: str, tests: list[str]) -> str:
    """killed, timed out or survived, for the package with one module's
    text replaced."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / "src" / "fimcowp" / source_name).write_text(text)
        (work / "mutant_profile.py").write_text(
            "from hypothesis import settings\n"
            "settings.register_profile('mutants', derandomize=True, database=None)\n"
            "settings.load_profile('mutants')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(work / "src"), str(work)]),
                   PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "-p", "mutant_profile", *tests]
        with subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, start_new_session=True) as proc:
            try:
                code = proc.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--target", action="append", required=True,
                        help="module:qualified.name, e.g. cfg:_Chart.tree; repeatable")
    parser.add_argument("--tests", nargs="+", action="extend", required=True,
                        help="test files or node ids; repeatable")
    args = parser.parse_args(argv)

    mutants = []  # (target, line, source, mutation, module file name, text)
    checked: set[str] = set()
    for target in args.target:
        module_name, qualname = target.split(":")
        path = PACKAGE / f"{module_name}.py"
        source = path.read_text()
        module = ast.parse(source)
        lines = source.splitlines()
        sites = sorted(_sites(_function(module, qualname)),
                       key=lambda site: (site[0].lineno, site[0].col_offset))
        seen: dict[tuple[int, str, str], int] = {}
        for node, mutation, put, old, new in sites:
            # the node's source, and its line when that is longer, name the
            # mutant; a repeat on one line is numbered
            segment = " ".join(ast.get_source_segment(source, node).split())
            line = lines[node.lineno - 1].split("  #")[0].strip()  # its comment aside
            key = segment if segment == line else f"{segment} in: {line}"
            count = seen[node.lineno, key, mutation] = seen.get((node.lineno, key, mutation), 0) + 1
            key += f" #{count}" if count > 1 else ""
            put(new)
            text = ast.unparse(module)
            put(old)
            mutants.append((target, node.lineno, key, mutation, path.name, text))
        # each module unmutated, written the same way, must pass
        if path.name not in checked:
            checked.add(path.name)
            if _run(path.name, ast.unparse(module), args.tests) != "survived":
                print(f"the tests fail on {path.name} unmutated", file=sys.stderr)
                return 2

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(max_workers=cpus or 1) as pool:
        outcomes = pool.map(lambda m: _run(m[4], m[5], args.tests), mutants)
        tally, unlisted = {"killed": 0, "timed out": 0, "survived": 0}, 0
        for (target, line, key, mutation, name, _), outcome in zip(mutants, outcomes):
            tally[outcome] += 1
            row = {"file": f"src/fimcowp/{name}", "line": line, "target": target,
                   "source": key, "mutation": mutation, "outcome": outcome}
            if outcome == "survived":
                reason = EQUIVALENT.get((target, key, mutation))
                row["equivalent"] = reason
                unlisted += reason is None
            print(json.dumps(row), flush=True)
    generated = {(target, key, mutation) for target, _, key, mutation, _, _ in mutants}
    stale = [entry for entry in EQUIVALENT
             if entry[0] in args.target and entry not in generated]
    for entry in stale:
        print(f"EQUIVALENT entry matches no mutant: {entry}", file=sys.stderr)
    print(f"{len(mutants)} mutants: {tally['killed']} killed, {tally['timed out']} timed out, "
          f"{tally['survived']} survived ({unlisted} not listed as equivalent)", file=sys.stderr)
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
