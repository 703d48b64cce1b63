"""One measured benchmark iteration in a fresh interpreter.

Run by ``perfbench/run.py``; each call is a new process so the
program's in-process caches (the validation memo, the solver LRU, the
torus distance LRUs) and ``ru_maxrss`` never carry over between
iterations.  Prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload validation --seed 1992 [--check] [--trace SPANS.json]
    python3 perfbench/worker.py --load-core
"""

import time

#: Set before any heavy import so ``setup_s`` covers imports, loading
#: the C core and preparing the workload's inputs.
START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Recorder, instrument, self_times  # noqa: E402


def _lanes(args, kwargs, result):
    return {"lanes": len(result)}


def _anneal(args, kwargs, result):
    return {
        "steps": result.attempted_moves + result.skipped_moves,
        "accepted": result.accepted_moves,
        "attempted": result.attempted_moves,
    }


#: Layer spans: the program's public functions the benchmark times.
#: ``repro.core.pool`` is deliberately absent; every workload runs with
#: ``jobs=1``.
TARGETS = (
    ("sim.machine_run", "repro.sim.machine", "Machine.run", None),
    ("sim.run_batch", "repro.sim.batch", "run_batch", _lanes),
    ("mapping.anneal", "repro.mapping.anneal", "anneal_mapping", _anneal),
    ("mapping.random_mapping", "repro.mapping.strategies", "random_mapping", None),
    ("mapping.paper_suite", "repro.mapping.families", "paper_mapping_suite", None),
    ("mapping.average_distance", "repro.mapping.evaluate", "average_distance", None),
    ("topology.neighbor_graph", "repro.topology.graphs", "torus_neighbor_graph", None),
    ("topology.distance_backend", "repro.topology.torus", "distance_backend", None),
    ("workload.build_programs", "repro.workload.synthetic", "build_programs", None),
    ("core.solve", "repro.core.combined", "solve", None),
    ("analysis.fit", "repro.analysis.fitting", "fit_message_curve", None),
)

SIM_LAYERS = ("sim.machine_run", "sim.run_batch")


def layer_metrics(spans, wall_s, messages):
    """Per-layer self time and counts from one traced iteration.

    Layer times cover set-up and the timed region; ``harness.other_s``
    is the part of the timed region's wall that no span covers.
    """
    metrics = {f"{name}.s": 0.0 for name, *_ in TARGETS}
    for span, seconds in zip(spans, self_times(spans)):
        metrics[f"{span.name}.s"] += seconds
    timed = [span for span in spans if span.phase == "timed"]
    metrics["harness.other_s"] = wall_s - sum(
        span.duration for span in timed if span.parent is None
    )

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in timed if s.name == name)

    metrics["sim.machine_run.calls"] = sum(
        1 for span in timed if span.name == "sim.machine_run"
    )
    metrics["sim.run_batch.lanes"] = total("sim.run_batch", "lanes")
    attempted = total("mapping.anneal", "attempted")
    metrics["mapping.anneal.steps"] = total("mapping.anneal", "steps")
    metrics["mapping.anneal.accept_ratio"] = (
        total("mapping.anneal", "accepted") / attempted if attempted else 0.0
    )
    sim_seconds = sum(span.duration for span in timed if span.name in SIM_LAYERS)
    metrics["sim.host_us_per_message"] = (
        sim_seconds * 1e6 / messages if messages else 0.0
    )
    return metrics


def load_core():
    """Time ``batchcore.load()``; builds the core if the cache is cold."""
    from repro.sim import batchcore

    started = time.perf_counter()
    loaded = batchcore.load() is not None
    return {
        "load_s": time.perf_counter() - started,
        "loaded": loaded,
        "failure": batchcore.load_failure(),
    }


def iteration(workload_name, seed, spans_path, check):
    import numpy
    from repro.sim import batchcore, engine

    from workloads import WORKLOADS

    recorder = Recorder() if spans_path else None
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(instrument(recorder, TARGETS))
        core = load_core()
        workload = WORKLOADS[workload_name]()
        inputs = workload.prepare(seed)
        setup_s = time.perf_counter() - START
        if recorder is not None:
            recorder.phase = "timed"
        started = time.perf_counter()
        outputs = workload.execute(inputs)
        wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = workload.checks(inputs, outputs) if check else []
    counts = workload.counts(inputs, outputs)
    digest = hashlib.sha256(
        json.dumps(workload.digest_data(inputs, outputs), sort_keys=True).encode()
    ).hexdigest()
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
        "checks": checks,
        "digest": digest,
        "provenance": {
            "batchcore_loaded": core["loaded"],
            "batchcore_failure": core["failure"],
            "batch_engine_mode": batchcore.engine_mode(),
            "sim_engine_default": engine.engine_enabled_default(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    if recorder is not None:
        layers = layer_metrics(
            recorder.spans, wall_s, counts.get("sim.messages", 0)
        )
        layers["sim.batchcore.load_s"] = core["load_s"]
        result["layers"] = layers
        Path(spans_path).write_text(
            json.dumps(
                [
                    {
                        "name": span.name,
                        "start": span.start - START,
                        "end": span.end - START,
                        "parent": span.parent,
                        "phase": span.phase,
                        "attrs": span.attrs,
                    }
                    for span in recorder.spans
                ]
            )
        )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1992)
    parser.add_argument(
        "--trace", metavar="SPANS", help="record spans and write them here"
    )
    parser.add_argument(
        "--check", action="store_true", help="verify the outputs too"
    )
    parser.add_argument("--load-core", action="store_true")
    args = parser.parse_args(argv)
    if args.load_core:
        result = load_core()
    else:
        result = iteration(args.workload, args.seed, args.trace, args.check)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
