"""fimcowp benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload xc-idem --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed in this process, then runs
set-up probes and the workload itself in fresh interpreters (worker.py), so
that the library's caches start empty and the measured process receives only
the generated inputs.  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced pass.  The last stdout line
is the result; the line before it records the run's context.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# xc-cowp runs here but is not in BENCHMARK.json (see README.md).
WORKLOADS = {
    "xc-idem": "crosscheck of E at rank 2 through the CLI to length 5, then over all 21,845 words "
               "of length <= 7 in 1,024-word chunks, then enumerate_language(E, 2, 6): many short "
               "inputs, tiny grammar, cheap oracle",
    "xc-cowp": "crosscheck of coWP-FIM at rank 2 (marked length <= 4) and rank 3 (<= 3) through "
               "the CLI: a large CNF grammar, so the CYK rule loop and to_cnf dominate",
    "parse-long": "cyk_member, and derive on accept, on K1 members and mutants of 18-74 symbols "
                  "and E idempotents of 64-256 letters, (aA)^n among them: cost grows with length",
    "decide-long": "oracle only: parse_marked then fim_equal, in_k1 or the product law on pairs "
                   "of up to 1,300 letters: words and munn do all the work",
}
SETUP_RUNS = 21  # fresh processes per run whose set-up times give setup_s
DEADLINE_S = 170  # a whole run stays under the 180 s a run may take


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _cpus() -> list[int | None]:
    """The CPUs this process may run on, or [None] where that is unknown."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]


def _worker(mode: str, workload: str, deadline: float, job: dict | None = None,
            cpu: int | None = None) -> dict:
    """Runs worker.py to its end; with `cpu`, pinned to that CPU."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, workload],
        input=json.dumps(job) if job is not None else "",
        capture_output=True, text=True, env=env, cwd=ROOT, preexec_fn=pin,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _context(args: argparse.Namespace, known: dict) -> dict:
    import fimcowp

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "known_answers": known, "git_sha": _git_sha(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "src_lines": src_lines, "all_size": len(fimcowp.__all__),
    }


def _end_to_end(setup_s: list[float], result: dict) -> dict:
    latencies_ms = [s * 1000.0 for s in result["latencies"]]
    deciles = quantiles(latencies_ms, n=10)
    return {
        "setup_s": {"value": median(setup_s), "unit": "s"},
        "ops_per_s": {"value": result["ops"] / sum(result["parts"]), "unit": "ops/s"},
        "op_p50_ms": {"value": median(latencies_ms), "unit": "ms"},
        "op_p90_ms": {"value": deciles[8], "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: small inputs for the self-test (selftest.py)")
    args = parser.parse_args(argv)
    if not (SRC / "fimcowp" / "__init__.py").is_file():
        print(f"error: no fimcowp package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    import gen
    from layers import UNITS

    inputs = gen.generate(args.workload, args.seed, args.scale)
    job = {"inputs": inputs, "seconds": args.seconds}
    if args.trace:
        result = _worker("trace", args.workload, deadline, job)
        values = dict(result["metrics"])
        values["error_rate"] = result["failed"] / result["attempted"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    else:
        # the probes take turns on the CPUs, as the passes of a run do
        cpus = _cpus()
        setup_s = [_worker("setup", args.workload, deadline,
                           cpu=cpus[i % len(cpus)])["setup_s"]
                   for i in range(SETUP_RUNS - 1)]
        result = _worker("run", args.workload, deadline, job)
        metrics = _end_to_end(setup_s + [result["setup_s"]], result)
    print(json.dumps({"context": _context(args, gen.known_answers(args.workload, inputs))}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
