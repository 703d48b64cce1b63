"""The repository benchmark: one workload, tracing off or on.

    python3 perfbench/run.py --workload validation --seed 1992 --seconds 40 --trace 0

Runs measured iterations of the workload, each in a fresh interpreter
(``perfbench/worker.py``), until the next one would overrun
``--seconds``.  The first iteration's outputs are checked, and every
later one must reproduce its digest; a failed check counts in
``failed``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones, from iterations that alternate
untraced and traced so the tracing overhead is measured too.

The batch C core is compiled into ``.bench_build/cache`` of the
checkout, and traced iterations write their spans under
``.bench_build/perfbench``; nothing is written elsewhere.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
#: Iterations below this count are run even past ``--seconds``, so
#: every median rests on at least two samples.
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """A worker process failed; the run has no result."""


def run_worker(arguments, cache: Path):
    """Run ``worker.py`` in a fresh interpreter; return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *arguments],
            cwd=ROOT,
            env=dict(os.environ, XDG_CACHE_HOME=str(cache)),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"worker timed out: {arguments}") from error
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {arguments} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed, seconds, trace):
    """Run iterations for about ``seconds``; alternate traced ones if asked."""
    cache = BUILD / "cache"
    spans_dir = BUILD / "perfbench"
    spans_dir.mkdir(parents=True, exist_ok=True)
    run_worker(["--load-core"], cache)  # warm the core cache and bytecode
    untraced, traced = [], []
    started = perf_counter()
    while True:
        began = perf_counter()
        # Outputs are checked once; every later iteration must reproduce
        # the checked one's digest, which covers all simulated statistics.
        check = [] if untraced else ["--check"]
        arguments = ["--workload", workload, "--seed", str(seed)]
        untraced.append(run_worker(arguments + check, cache))
        print(
            f"iteration {len(untraced)}: wall_s {untraced[-1]['wall_s']:.4f} "
            f"setup_s {untraced[-1]['setup_s']:.4f}",
            file=sys.stderr,
        )
        if trace:
            spans = spans_dir / f"spans-{workload}-seed{seed}-{len(traced)}.json"
            traced.append(run_worker(arguments + ["--trace", str(spans)], cache))
        last = perf_counter() - began
        enough = len(untraced) >= (1 if trace else MIN_ITERATIONS)
        if enough and perf_counter() - started + last > seconds:
            return untraced, traced


def verify(iterations):
    """Count every check plus cross-iteration digest agreement."""
    attempted = failed = 0
    for result in iterations:
        for name, passed, detail in result["checks"]:
            attempted += 1
            if not passed:
                failed += 1
                print(f"check failed: {name}: {detail}", file=sys.stderr)
    reference = iterations[0]["digest"]
    for result in iterations[1:]:
        attempted += 1
        if result["digest"] != reference:
            failed += 1
            print(
                "check failed: digest differs between identical iterations",
                file=sys.stderr,
            )
    return attempted, failed


def _median(iterations, key):
    return statistics.median(result[key] for result in iterations)


def end_to_end(iterations):
    walls = [result["wall_s"] for result in iterations]
    return {
        "wall_s": statistics.median(walls),
        "wall_p90_s": statistics.quantiles(walls, n=10, method="inclusive")[-1],
        "setup_s": _median(iterations, "setup_s"),
        "work_per_s": statistics.median(
            result["counts"]["work"] / result["wall_s"] for result in iterations
        ),
        "peak_rss_mb": _median(iterations, "peak_rss_mb"),
    }


def per_layer(names, untraced, traced, build, error_rate):
    """Medians over traced iterations; layers never called read 0."""
    values = {
        name: statistics.median(
            result["layers"].get(name, result["counts"].get(name, 0.0))
            for result in traced
        )
        for name in names
    }
    values["sim.batchcore.build_s"] = build["load_s"]
    values["harness.trace_overhead_s"] = _median(traced, "wall_s") - _median(
        untraced, "wall_s"
    )
    values["error_rate"] = error_rate
    return values


def cold_build():
    """Compile the C core into an empty cache: the one-time build cost."""
    cache = BUILD / f"cold-{os.getpid()}"
    try:
        return run_worker(["--load-core"], cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def provenance(iterations):
    found = dict(iterations[0]["provenance"])
    found["repro_env"] = {
        key: value for key, value in os.environ.items() if key.startswith("REPRO_")
    }
    found["nproc"] = os.cpu_count()
    found["git_sha"] = _git_sha()
    found["iterations"] = len(iterations)
    return found


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declaration():
    """Workload names and metric units by kind, from ``BENCHMARK.json``."""
    found = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "workloads": [workload["name"] for workload in found["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in found["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in found["per_layer"]},
    }


def main(argv=None):
    declared = declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=declared["workloads"])
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        untraced, traced = collect(
            args.workload, args.seed, args.seconds, args.trace
        )
        build = cold_build() if args.trace else None
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    iterations = untraced + traced
    attempted, failed = verify(iterations)
    units = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer(units, untraced, traced, build, failed / attempted)
    else:
        values = end_to_end(untraced)
    print("provenance " + json.dumps(provenance(iterations), sort_keys=True))
    print(
        f"digest {args.workload} seed={args.seed} sha256={iterations[0]['digest']}"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
