"""memtraj benchmark: training-heavy and dense-crowd workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first runs the
same workload and seed untraced in a child process, then runs it traced
in-process; it prints the per-layer metrics, the tracing overhead per
end-to-end metric and the per-workload layer shares, writes every span to
``.bench_run/trace-<workload>-<seed>.json``, and fails unless both runs
produced the same prediction digest.

Lines starting with ``#`` are notes; the last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``. A failed output
check prints ``correct: false`` and exits 1. The program under test is always
the ``src/memtraj`` next to this directory; without it the run exits 2
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOAD_NAMES = ("train", "crowd")  # the keys of workloads.WORKLOADS, known before NumPy loads
DEV_SEED = 1  # the development seed; NOTES.md names the held-out one
# The untraced child of a traced run must leave the traced half time to finish
# within the 180 s a run may take; a child of `--workload all` may take longer.
TRACE_CHILD_TIMEOUT_S = 100
ALL_CHILD_TIMEOUT_S = 600
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread and memtraj's shipped serial default; must precede the NumPy import."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MEMTRAJ_THREADS", None)


def import_program():
    """Put this checkout's ``src`` first on the path and refuse any other memtraj."""
    src = ROOT / "src"
    if not (src / "memtraj" / "__init__.py").is_file():
        print(f"perfbench: no memtraj sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import memtraj

    if Path(memtraj.__file__).resolve().parent != (src / "memtraj").resolve():
        print(f"perfbench: imported memtraj from {memtraj.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "memtraj_threads": os.environ.get("MEMTRAJ_THREADS", "unset"),
        "seed": seed,
    }


def note(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}", flush=True)


def finish(correct: bool, attempted: int, failed: int, metrics: dict) -> int:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_workload(name: str, seed: int, seconds: int, mark=None) -> dict:
    """``harness.run`` in a scratch directory under RUN_DIR that is removed afterwards."""
    import harness
    import workloads

    work_dir = RUN_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        return harness.run(workloads.WORKLOADS[name], seed, seconds, work_dir, mark=mark)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_untraced(name: str, seed: int, seconds: int) -> int:
    result = run_workload(name, seed, seconds)
    note("environment", environment(seed))
    note("inputs", result["inputs"])
    note("timings", result["timings"])
    note("digest", result["digest"])
    for problem in result["problems"][:20]:
        print(f"# check failed: {problem}", flush=True)
    return finish(not result["problems"], result["attempted"], result["failed"], result["metrics"])


def run_child(name: str, seed: int, seconds: int, trace: int, timeout: float) -> tuple[dict | None, dict]:
    """Run this script in a child process; return its result and its ``#`` notes by label."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    notes = dict(line[2:].partition(" ")[::2] for line in lines if line.startswith("# "))
    result = json.loads(lines[-1]) if lines and not lines[-1].startswith("#") else None
    return result, notes


def run_traced(name: str, seed: int, seconds: int) -> int:
    untraced, untraced_notes = run_child(name, seed, seconds, trace=0, timeout=TRACE_CHILD_TIMEOUT_S)
    if untraced is None:
        print("# untraced child run printed no result", flush=True)
        return 1
    untraced_digest = json.loads(untraced_notes.get("digest", "null"))

    import tracing

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer) as missing:
        result = run_workload(name, seed, seconds, mark=tracer.mark)
    per_layer = tracing.rollup(tracer)
    overhead = {
        metric: {
            "traced": entry["value"],
            "untraced": untraced["metrics"][metric]["value"],
            "traced_minus_untraced": entry["value"] - untraced["metrics"][metric]["value"],
            "unit": entry["unit"],
        }
        for metric, entry in result["metrics"].items()
    }
    problems = list(result["problems"])
    if not untraced["correct"]:
        problems.append("the untraced run failed its checks")
    if untraced_digest != result["digest"]:
        problems.append(f"traced digest {result['digest']} != untraced {untraced_digest}")
    shares = tracing.stress_shares(tracer, result["metrics"]["train_s"]["value"], sum(result["timings"]["eval_s"]))
    inputs = {
        **result["inputs"],
        **{key.partition(".")[2]: value for key, value in tracer.counts.items() if key.startswith("inputs.")},
        "bank_entries_in": tracer.counts.get("membank.entries_in", 0),
    }
    env = environment(seed)
    RUN_DIR.mkdir(exist_ok=True)
    trace_path = RUN_DIR / f"trace-{name}-{seed}.json"
    tracer.write(
        trace_path,
        {
            "workload": name,
            "seed": seed,
            "environment": env,
            "unwrapped_call_sites": missing,
            "digest": result["digest"],
            "tracing_overhead": overhead,
            "stress_shares": shares,
            "inputs": inputs,
        },
    )
    note("environment", env)
    note("inputs", inputs)
    note("tracing_overhead", overhead)
    note("stress_shares", shares)
    note("digest", {"traced": result["digest"], "untraced": untraced_digest})
    note("trace_file", str(trace_path.relative_to(ROOT)))
    for problem in problems[:20]:
        print(f"# check failed: {problem}", flush=True)
    return finish(not problems, result["attempted"], result["failed"], per_layer)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, each in its own process, one result line each."""
    status = 0
    for name in WORKLOAD_NAMES:
        result, _ = run_child(name, seed, seconds, trace, timeout=ALL_CHILD_TIMEOUT_S)
        if result is None:
            print(f"# {name}: no result", flush=True)
            status = 1
            continue
        print(f"# {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"#   {metric:<32} {entry['value']:>14.6g} {entry['unit']}")
        print(json.dumps({"workload": name, **result}), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=int, default=12, help="predict rounds (evaluate, then a per-scene pass) repeat until this has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_environment()
    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.trace:
        return run_traced(args.workload, args.seed, args.seconds)
    return run_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
