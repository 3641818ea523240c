"""Self-test of the benchmark at tiny bounds; takes well under a minute.

    python3 perfbench/selftest.py

For every workload run.py knows, runs it at ``--scale tiny`` with
tracing off and on, and checks that:
- every end-to-end (untraced) or per-layer (traced) metric is emitted, with
  its unit, and no other;
- every answer is right: ``failed`` and ``error_rate`` are 0;
- the layer self times plus the benchmark's self time add up to the traced
  time;
- the context line records the seed, the reason for the workload and the
  repository counts.
Then checks that run.py fails, printing no result, in a directory holding
only BENCHMARK.json and the benchmark's own files.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import SELF_TIMES  # noqa: E402
from run import WORKLOADS  # noqa: E402

CONTEXT_KEYS = {"workload", "why", "seed", "known_answers", "git_sha", "python", "nproc",
                "src_lines", "all_size"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result, context = json.loads(lines[-1]), json.loads(lines[-2])["context"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}, "
                      f"units {sorted(n for n in got.keys() & wanted.keys() if got[n] != wanted[n])}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if any(not isinstance(v, (int, float)) or not math.isfinite(v) for v in values.values()):
        errors.append(f"{where}: a metric value is not a finite number")
    if trace:
        if values.get("error_rate") != 0:
            errors.append(f"{where}: error_rate {values.get('error_rate')}")
        total = sum(values.get(name, 0.0) for name in SELF_TIMES)
        if not math.isclose(total, values.get("trace.traced_s", -1.0), rel_tol=1e-9):
            errors.append(f"{where}: self times sum to {total}, traced {values.get('trace.traced_s')}")
    elif min(values.values(), default=0) <= 0:
        errors.append(f"{where}: an end-to-end metric is not positive: {values}")
    if not CONTEXT_KEYS <= set(context) or context["seed"] != 7:
        errors.append(f"{where}: context lacks {sorted(CONTEXT_KEYS - set(context))}")
    return errors


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "xc-idem", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}", flush=True)
            errors += found
    found = check_bare_directory()
    print(f"{'FAIL' if found else 'ok  '} bare directory fails without a result")
    errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
