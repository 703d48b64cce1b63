"""Benchmarks: the array fabric kernel vs the object reference.

Two entry points, mirroring ``bench_mapping.py``:

* ``pytest benchmarks/bench_simulator.py --benchmark-only`` — timed runs
  of the machine-level simulator (both switch architectures), the
  Section 3.3 validation pipeline, and the fabric workload suite, each
  asserting cycle-exact parity between
  :class:`repro.sim.kernel.FabricKernel` and
  :class:`repro.sim.reference.ReferenceTorusFabric`.
* ``python benchmarks/bench_simulator.py [--quick] [--output FILE]
  [--workload NAME]`` — script mode for CI smoke: runs the workload
  suite (or just ``NAME``), checks parity, and writes a JSON artifact
  with ``{bench, config, wall_s, speedup_vs_reference}`` rows.

The telemetry-overhead row drives the kernel twice over the same
schedule — telemetry detached vs attached — and records ``on/off`` wall
as its speedup column, so ``repro-bench compare`` flags the
telemetry-off hot path getting slower (the tentpole promise: one
guarded branch per tick and per grant when detached).  Parity between
the two runs is always asserted: telemetry must never perturb
simulation results.

The machine rows (``machine_uniform_radix{8,16}``,
``machine_saturated_radix{8,16}``) time whole ``Machine.run`` calls —
processors, controllers, and fabric together — with the event-calendar
engine on vs the retained per-cycle loop (both pinned with ``engine=``),
asserting bit-exact summary parity.  The light-traffic uniform rows are
the engine's headline (>= 5x at radix-8 under ``REPRO_BENCH_STRICT=1``);
the saturated rows are reported for honesty — a fabric busy every cycle
leaves nothing to skip.  The ``machine_core`` row times the default
``Machine.run`` — the compiled C core for these fresh cut-through
machines — against the pinned event calendar on the Section 3.3
validation machine (>= 3x under ``REPRO_BENCH_STRICT=1``).

The headline row is ``tree_saturation``: every message targets a few
hot ejection ports, so blocked-channel trees grow across the fabric and
almost no channel changes hands per cycle — exactly where the kernel's
event-driven arbitration (touch only channels that can change) beats the
reference's full pending-list scan by an order of magnitude.  Uniform
light traffic is the kernel's *worst* regime (grants dominate both
implementations) and is reported alongside for honesty.

Timing assertions (the >= 5x floor on the headline workload) only fire
under ``REPRO_BENCH_STRICT=1`` so shared CI runners cannot flake the
suite; parity assertions always run.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import sys
import time

from repro.analysis.validation import run_validation
from repro.mapping.families import paper_mapping_suite
from repro.mapping.strategies import identity_mapping, random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.kernel import FabricKernel
from repro.sim.machine import Machine
from repro.sim.message import Message, MessageKind
from repro.sim.reference import ReferenceTorusFabric
from repro.sim.replicate import default_seeds, run_replications
from repro.sim.telemetry import TelemetryConfig
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus
from repro.workload.synthetic import build_programs

SEED = 1992
STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: Fabric workload suite: injection rate is mean messages per cycle
#: machine-wide; ``hot`` is the fraction of traffic aimed at the
#: ``hot_count`` lowest-numbered nodes; ``data`` switches to 24-flit
#: data replies.  A single hot node grows the deepest blocked-channel
#: trees — the canonical tree-saturation stress.
WORKLOADS = {
    "uniform": dict(rate=0.4, hot=0.0, hot_count=4, data=False),
    "saturated": dict(rate=2.0, hot=0.0, hot_count=4, data=False),
    "hotspot50": dict(rate=1.5, hot=0.5, hot_count=4, data=True),
    "tree_saturation": dict(rate=1.5, hot=1.0, hot_count=1, data=True),
}
HEADLINE = "tree_saturation"


def _schedule(radix, dimensions, cycles, spec, seed=SEED):
    """Pre-generated per-cycle injection lists (identical for both runs)."""
    rng = random.Random(seed)
    nodes = radix**dimensions
    hot_nodes = tuple(range(min(spec["hot_count"], nodes)))
    kind = MessageKind.DATA_REPLY if spec["data"] else MessageKind.READ_REQUEST
    whole, fractional = divmod(spec["rate"], 1)
    plan = []
    tag = 0
    for _ in range(cycles):
        injections = []
        attempts = int(whole) + (1 if rng.random() < fractional else 0)
        for _ in range(attempts):
            source = rng.randrange(nodes)
            if rng.random() < spec["hot"]:
                destination = rng.choice(hot_nodes)
            else:
                destination = rng.randrange(nodes)
            if source != destination:
                injections.append((kind, source, destination, tag))
                tag += 1
        plan.append(injections)
    return plan


def _drive(fabric_cls, radix, dimensions, plan, telemetry=None):
    """Run one fabric over a schedule; return (seconds, deliveries, flits)."""
    torus = Torus(radix=radix, dimensions=dimensions)
    delivered = []
    fabric = fabric_cls(torus, on_delivery=delivered.append)
    if telemetry is not None:
        instrumentation = fabric.attach_telemetry(telemetry)
    began = time.perf_counter()
    cycle = 0
    for cycle, injections in enumerate(plan):
        for kind, source, destination, tag in injections:
            fabric.inject(
                Message(kind, source, destination, (0, 0), tag), cycle
            )
        fabric.tick(cycle)
    while not fabric.quiescent():
        cycle += 1
        fabric.tick(cycle)
    seconds = time.perf_counter() - began
    if telemetry is not None:
        instrumentation.finalize(cycle + 1)
    deliveries = sorted(
        (
            worm.message.transaction,
            worm.message.injected_at,
            worm.message.delivered_at,
            worm.message.source,
            worm.message.destination,
            worm.hops,
            worm.source_wait,
        )
        for worm in delivered
    )
    return seconds, deliveries, fabric.link_flits


def measure_workload(name, radix=16, dimensions=2, cycles=1500, best_of=1):
    """Time kernel vs reference on one workload; verify exact parity.

    ``best_of`` takes the minimum wall clock of N alternating
    reference/kernel drives (parity checked on every round).  The
    quick-mode rows finish in single-digit milliseconds, where one-shot
    ratios carry ±20% scheduler jitter — the committed baselines are
    snapshotted best-of-N so the ``repro-bench compare`` gate watches
    the kernel, not the scheduler.
    """
    plan = _schedule(radix, dimensions, cycles, WORKLOADS[name])
    ref_seconds = kernel_seconds = float("inf")
    parity = True
    messages = 0
    for _ in range(max(1, best_of)):
        seconds, ref_deliveries, ref_flits = _drive(
            ReferenceTorusFabric, radix, dimensions, plan
        )
        ref_seconds = min(ref_seconds, seconds)
        seconds, kernel_deliveries, kernel_flits = _drive(
            FabricKernel, radix, dimensions, plan
        )
        kernel_seconds = min(kernel_seconds, seconds)
        parity = parity and (
            kernel_deliveries == ref_deliveries and kernel_flits == ref_flits
        )
        messages = len(kernel_deliveries)
    return {
        "bench": name,
        "config": f"radix-{radix} {dimensions}-D torus, {cycles} cycles",
        "wall_s": round(kernel_seconds, 4),
        "reference_wall_s": round(ref_seconds, 4),
        "speedup_vs_reference": round(ref_seconds / kernel_seconds, 2),
        "parity": parity,
        "messages": messages,
    }


def measure_suite(quick=False, best_of=1):
    """The full workload suite (smaller fabric/windows under ``quick``)."""
    radix = 8 if quick else 16
    cycles = 300 if quick else 1500
    return [
        measure_workload(name, radix=radix, cycles=cycles, best_of=best_of)
        for name in WORKLOADS
    ]


def measure_telemetry_overhead(quick=False, workload="uniform"):
    """Kernel wall time with telemetry detached vs attached, same plan.

    ``speedup_vs_reference`` is ``on_wall / off_wall`` — the attached
    run standing in for the "reference" — so a drop below the committed
    baseline means the *detached* hot path got slower, which is the
    regression the tentpole's zero-cost-when-off promise forbids.
    ``overhead_pct`` is the attached run's relative cost, informational.
    """
    radix = 8 if quick else 16
    cycles = 600 if quick else 1500
    plan = _schedule(radix, 2, cycles, WORKLOADS[workload])
    # A discarded warmup pair, then three alternating pairs with best-of
    # per side.  Telemetry's true attached cost is a few percent, which
    # single-shot millisecond-scale drives cannot resolve — an early
    # version of this row ran one pair and reported scheduler jitter
    # (±15% and worse) as telemetry overhead.
    _drive(FabricKernel, radix, 2, plan)
    _drive(FabricKernel, radix, 2, plan, telemetry=TelemetryConfig())
    off_seconds, off_deliveries, off_flits = _drive(
        FabricKernel, radix, 2, plan
    )
    on_seconds, on_deliveries, on_flits = _drive(
        FabricKernel, radix, 2, plan, telemetry=TelemetryConfig()
    )
    for _ in range(2):
        off_seconds = min(
            off_seconds, _drive(FabricKernel, radix, 2, plan)[0]
        )
        on_seconds = min(
            on_seconds,
            _drive(
                FabricKernel, radix, 2, plan, telemetry=TelemetryConfig()
            )[0],
        )
    return {
        "bench": f"{workload}_telemetry",
        "config": f"radix-{radix} 2-D torus, {cycles} cycles, off vs on",
        "wall_s": round(off_seconds, 4),
        "telemetry_wall_s": round(on_seconds, 4),
        "speedup_vs_reference": round(on_seconds / off_seconds, 2),
        "overhead_pct": round((on_seconds / off_seconds - 1.0) * 100, 1),
        "parity": (
            on_deliveries == off_deliveries and on_flits == off_flits
        ),
        "messages": len(off_deliveries),
    }


#: End-to-end machine operating points for the engine on/off rows.
#: ``machine_uniform`` is the paper's light-traffic regime — long
#: compute runs between accesses, the fabric quiescent most cycles —
#: which is exactly what the event-calendar engine exists for;
#: ``machine_saturated`` is the short-run default where the fabric is
#: busy nearly every cycle and the engine can only win the per-cycle
#: processor scan.
MACHINE_WORKLOADS = {
    "machine_uniform": dict(compute=1000, contexts=1),
    "machine_saturated": dict(compute=8, contexts=2),
}


def _whole_machine(radix, compute, contexts, engine):
    config = SimulationConfig(
        radix=radix,
        contexts=contexts,
        compute_cycles=compute,
        seed=SEED,
    )
    graph = torus_neighbor_graph(radix, 2)
    programs = build_programs(graph, contexts, compute, config.compute_jitter)
    return Machine(
        config, identity_mapping(radix * radix), programs, engine=engine
    )


def measure_machine_run(name, radix, quick=False):
    """One ``Machine.run`` row: per-cycle loop vs event-calendar engine.

    ``speedup_vs_reference`` is ``off_wall / on_wall`` — the retained
    per-cycle loop standing in for the reference — and ``parity``
    asserts the two summaries are bit-identical, the engine's whole
    contract.  Best-of-2 per side: the light-traffic engine runs are
    milliseconds, which single shots cannot time reliably.
    """
    spec = MACHINE_WORKLOADS[name]
    warmup, measure = (300, 1500) if quick else (500, 4000)

    def run(engine):
        machine = _whole_machine(
            radix, spec["compute"], spec["contexts"], engine
        )
        began = time.perf_counter()
        summary = machine.run(warmup=warmup, measure=measure)
        return time.perf_counter() - began, summary.as_dict()

    off_seconds, off_summary = run(False)
    on_seconds, on_summary = run(True)
    off_seconds = min(off_seconds, run(False)[0])
    on_seconds = min(on_seconds, run(True)[0])
    return {
        "bench": f"{name}_radix{radix}",
        "config": (
            f"radix-{radix} 2-D torus, contexts={spec['contexts']}, "
            f"compute={spec['compute']}, {warmup}+{measure} cycles, "
            "loop vs engine"
        ),
        "wall_s": round(on_seconds, 4),
        "loop_wall_s": round(off_seconds, 4),
        "speedup_vs_reference": round(off_seconds / on_seconds, 2),
        "parity": on_summary == off_summary,
        "messages": off_summary["messages_sent"],
    }


def measure_machine_core(quick=False):
    """Default ``Machine.run`` (compiled core) vs the pinned Python spec.

    The Section 3.3 validation machine — 64-node radix-8 torus, a
    random mapping — at p = 1, 2 and 4, timed as the sum over the three
    context counts.  ``speedup_vs_reference`` is ``calendar_wall /
    core_wall`` with ``engine=True`` (the event calendar) standing in
    for the reference; ``parity`` asserts every summary is bit-identical.
    Best-of-2 per side.  Where the core cannot load, both sides run the
    calendar and the ratio reads about 1x; ``engine`` records which.
    """
    warmup, measure = (300, 1500) if quick else (500, 4000)
    mapping = random_mapping(64, seed=SEED)
    graph = torus_neighbor_graph(8, 2)
    machines = []
    for contexts in (1, 2, 4):
        config = SimulationConfig(contexts=contexts, seed=SEED)
        programs = build_programs(
            graph, contexts, config.compute_cycles, config.compute_jitter
        )
        machines.append((config, programs))

    def run(engine):
        seconds = 0.0
        summaries = []
        paths = set()
        for config, programs in machines:
            machine = Machine(
                config, mapping, copy.deepcopy(programs), engine=engine
            )
            began = time.perf_counter()
            summaries.append(
                machine.run(warmup=warmup, measure=measure).as_dict()
            )
            seconds += time.perf_counter() - began
            paths.add(machine.engine_path)
        return seconds, summaries, paths

    core_seconds, core_summaries, paths = run(None)
    spec_seconds, spec_summaries, _ = run(True)
    core_seconds = min(core_seconds, run(None)[0])
    spec_seconds = min(spec_seconds, run(True)[0])
    return {
        "bench": "machine_core",
        "config": (
            f"radix-8 2-D torus, random mapping, contexts=1,2,4, "
            f"{warmup}+{measure} cycles, calendar vs default"
        ),
        "wall_s": round(core_seconds, 4),
        "calendar_wall_s": round(spec_seconds, 4),
        "speedup_vs_reference": round(spec_seconds / core_seconds, 2),
        "parity": core_summaries == spec_summaries,
        "engine": "/".join(sorted(paths)),
        "messages": sum(s["messages_sent"] for s in core_summaries),
    }


def measure_machine_suite(quick=False):
    """Engine on/off rows at radix-8 and radix-16, both operating points,
    plus the single-run compiled-core row."""
    rows = [
        measure_machine_run(name, radix, quick=quick)
        for name in MACHINE_WORKLOADS
        for radix in (8, 16)
    ]
    rows.append(measure_machine_core(quick=quick))
    return rows


def measure_replication_scaling(quick=False):
    """Wall-clock for the same replication set, serial vs pooled."""
    config = SimulationConfig(
        radix=4 if quick else 8, contexts=2,
        warmup_network_cycles=300,
        measure_network_cycles=1500 if quick else 6000,
    )
    graph = torus_neighbor_graph(config.radix, 2)
    programs = build_programs(
        graph, 2, config.compute_cycles, config.compute_jitter
    )
    mapping = random_mapping(config.node_count, seed=SEED)
    seeds = default_seeds(config.seed, 2 if quick else 4)

    began = time.perf_counter()
    serial = run_replications(config, mapping, programs, seeds, jobs=1)
    serial_seconds = time.perf_counter() - began
    began = time.perf_counter()
    pooled = run_replications(
        config, mapping, programs, seeds, jobs=len(seeds)
    )
    pooled_seconds = time.perf_counter() - began
    return {
        "bench": "replication_scaling",
        "config": f"{len(seeds)} seeds, jobs=1 vs jobs={len(seeds)}",
        "wall_s": round(pooled_seconds, 4),
        "serial_wall_s": round(serial_seconds, 4),
        "speedup_vs_reference": round(serial_seconds / pooled_seconds, 2),
        "parity": [s.as_dict() for s in serial.summaries]
        == [s.as_dict() for s in pooled.summaries],
        "messages": None,
    }


# ----------------------------------------------------------------------
# pytest benchmarks.
# ----------------------------------------------------------------------


def _machine(switching: str, contexts: int = 2) -> Machine:
    config = SimulationConfig(
        contexts=contexts,
        switching=switching,
        warmup_network_cycles=0,
        measure_network_cycles=4000,
    )
    graph = torus_neighbor_graph(8, 2)
    programs = build_programs(
        graph, contexts, config.compute_cycles, config.compute_jitter
    )
    return Machine(config, identity_mapping(64), programs)


def test_cut_through_simulator_throughput(benchmark):
    """Network cycles per second, 64-node machine, buffered switches."""

    def run():
        machine = _machine("cut_through")
        return machine.run(warmup=500, measure=4000)

    summary = benchmark(run)
    assert summary.messages_sent > 0


def test_wormhole_simulator_throughput(benchmark):
    """Network cycles per second, 64-node machine, rigid worms."""

    def run():
        machine = _machine("wormhole")
        return machine.run(warmup=500, measure=4000)

    summary = benchmark(run)
    assert summary.messages_sent > 0


def test_validation_pipeline_single_context(benchmark):
    """End-to-end Section 3.3 validation at p = 1 (quick windows)."""
    torus = Torus(radix=8, dimensions=2)
    mappings = paper_mapping_suite(torus, adversarial_steps=1500)
    config = SimulationConfig(
        contexts=1, warmup_network_cycles=1000, measure_network_cycles=4000
    )

    report = benchmark.pedantic(
        run_validation, args=(config, mappings), rounds=1, iterations=1
    )
    assert report.mean_rate_error < 0.15


def test_fabric_kernel_speedup(bench_record):
    """The headline claim: >= 5x on the tree-saturation workload.

    Always checks cycle-exact parity on every workload; only enforces
    the timing floor under ``REPRO_BENCH_STRICT=1``.  Rows run best-of-3
    so the BENCH json this session leaves behind (the compare gate's
    input) is not a single-shot number.
    """
    rows = measure_suite(quick=not STRICT, best_of=3)
    for row in rows:
        assert row["parity"], f"kernel diverged from reference: {row}"
        bench_record(
            row["bench"], row["config"], row["wall_s"],
            row["speedup_vs_reference"],
        )
    if STRICT:
        headline = next(r for r in rows if r["bench"] == HEADLINE)
        assert headline["speedup_vs_reference"] >= 5.0, headline


def test_telemetry_overhead(bench_record):
    """Telemetry never perturbs results; detached cost is pinned.

    Parity between the detached and attached runs always runs; the
    ≤ 2% detached-overhead claim is enforced by ``repro-bench compare``
    against the committed ``uniform_telemetry`` baseline row, not by a
    wall-clock assert here (shared runners are too noisy for that).
    """
    row = measure_telemetry_overhead(quick=not STRICT)
    assert row["parity"], f"telemetry perturbed simulation results: {row}"
    bench_record(
        row["bench"], row["config"], row["wall_s"],
        row["speedup_vs_reference"],
    )


def test_machine_engine_speedup(bench_record):
    """End-to-end ``Machine.run``: event-calendar engine vs step loop.

    Always checks bit-exact summary parity on every row; the >= 5x
    floor on the light-traffic radix-8 row and the >= 3x floor on the
    ``machine_core`` row (default path on the compiled core vs the
    pinned event calendar) only fire under ``REPRO_BENCH_STRICT=1``
    (shared runners are too noisy for unconditional wall-clock asserts).
    """
    rows = measure_machine_suite(quick=not STRICT)
    for row in rows:
        assert row["parity"], f"engine diverged from step loop: {row}"
        bench_record(
            row["bench"], row["config"], row["wall_s"],
            row["speedup_vs_reference"],
        )
    if STRICT:
        headline = next(
            r for r in rows if r["bench"] == "machine_uniform_radix8"
        )
        assert headline["speedup_vs_reference"] >= 5.0, headline
        core = next(r for r in rows if r["bench"] == "machine_core")
        assert core["engine"] == "core", core
        assert core["speedup_vs_reference"] >= 3.0, core


def test_replication_jobs_invariance(bench_record):
    """Pooled replication returns byte-identical summaries to serial."""
    row = measure_replication_scaling(quick=not STRICT)
    assert row["parity"], "pooled replication diverged from serial"
    bench_record(
        row["bench"], row["config"], row["wall_s"],
        row["speedup_vs_reference"],
    )


# ----------------------------------------------------------------------
# Script mode (CI smoke).
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fabric kernel speedup measurement (script mode)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small fabric (radix 8, 300 cycles) for CI smoke",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the measurements as JSON to FILE",
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS), default=None,
        help="run a single workload (plus its telemetry-overhead row) "
        "instead of the full suite",
    )
    parser.add_argument(
        "--best-of", type=int, default=1, metavar="N",
        help="take the best wall clock of N drives per workload row "
        "(default: 1)",
    )
    args = parser.parse_args(argv)
    if args.workload:
        radix = 8 if args.quick else 16
        cycles = 300 if args.quick else 1500
        rows = [
            measure_workload(
                args.workload, radix=radix, cycles=cycles,
                best_of=args.best_of,
            )
        ]
        rows.append(
            measure_telemetry_overhead(
                quick=args.quick, workload=args.workload
            )
        )
    else:
        rows = measure_suite(quick=args.quick, best_of=args.best_of)
        rows.append(measure_telemetry_overhead(quick=args.quick))
        rows.extend(measure_machine_suite(quick=args.quick))
        rows.append(measure_replication_scaling(quick=args.quick))
    for row in rows:
        print(
            f"{row['bench']:<20} {row['config']:<38} "
            f"kernel {row['wall_s']}s -> "
            f"{row['speedup_vs_reference']}x "
            f"(parity: {row['parity']})"
        )
    parity = all(row["parity"] for row in rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        print(f"report written to {args.output}")
    return 0 if parity else 1


if __name__ == "__main__":
    sys.exit(main())
