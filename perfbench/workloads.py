"""The benchmark's workloads: seeded inputs, the timed call, output checks.

Each workload has four steps.  ``prepare(seed)`` builds the inputs
before the timed region.  ``execute(inputs)`` is the timed region: it
calls the program's public functions and nothing else.  ``checks``
verifies the outputs against the paper's bands and the program's own
invariants, and ``counts`` reports the simulated or searched work the
timed region did.  ``digest_data`` returns every simulated statistic
and best distance, so a change meant only to be faster can show that
its trajectories did not move.

Window lengths are chosen so one iteration takes seconds on a 2-CPU
host while every check passes with margin for any seed: the validation
fits need a 2000-cycle warmup and a 6000-cycle window to keep R^2
above 0.99 (shorter windows read 0.98-0.99 at p=2 and p=4).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from repro.analysis.validation import run_validation
from repro.mapping import anneal_mapping, average_distance, paper_mapping_suite
from repro.mapping import random_mapping
from repro.sim.config import SimulationConfig
from repro.sim.machine import Machine
from repro.sim.replicate import default_seeds, run_replications
from repro.topology.distance import random_traffic_distance_exact
from repro.topology.graphs import torus_neighbor_graph
from repro.topology.torus import Torus, distance_backend
from repro.workload.synthetic import build_programs

#: ``(name, passed, detail)`` for one verified output.
Check = Tuple[str, bool, str]


def _check(name: str, passed: bool, detail: str) -> Check:
    return (name, bool(passed), detail)


class Validation:
    """Section 3.3: the nine-mapping suite simulated at p = 1, 2, 4.

    Calls ``run_validation`` directly (not the memoized
    ``validation_report``), so every iteration runs all 27 single-seed
    ``Machine.run`` calls on the 64-node radix-8 cut-through torus.
    The seed drives the simulation; the mapping suite is the paper's
    fixed nine-mapping set, so every seed simulates the same number of
    machines.
    """

    contexts = (1, 2, 4)

    def __init__(self, warmup=2000, measure=6000, adversarial_steps=4000):
        self.warmup = warmup
        self.measure = measure
        self.adversarial_steps = adversarial_steps

    def prepare(self, seed: int):
        return [
            SimulationConfig(
                contexts=contexts,
                warmup_network_cycles=self.warmup,
                measure_network_cycles=self.measure,
                seed=seed,
            )
            for contexts in self.contexts
        ]

    def execute(self, configs):
        torus = Torus(radix=configs[0].radix, dimensions=configs[0].dimensions)
        suite = paper_mapping_suite(
            torus, adversarial_steps=self.adversarial_steps
        )
        return [run_validation(config, suite) for config in configs]

    def checks(self, configs, reports) -> List[Check]:
        p1, _, p4 = reports
        slopes = [report.curve.sensitivity for report in reports]
        found = [
            _check(
                "rate_error.p1",
                p1.mean_rate_error < 0.12,
                f"{p1.mean_rate_error:.4f} < 0.12",
            ),
            _check(
                "rate_error.p4",
                p4.mean_rate_error < 0.30,
                f"{p4.mean_rate_error:.4f} < 0.30",
            ),
            _check(
                "latency_error.p1",
                p1.max_latency_error_cycles < 12.0,
                f"{p1.max_latency_error_cycles:.3f} < 12 cycles",
            ),
            _check(
                "slopes_rise",
                slopes[0] < slopes[1] < slopes[2],
                " < ".join(f"{slope:.3f}" for slope in slopes),
            ),
        ]
        for contexts, report in zip(self.contexts, reports):
            r_squared = report.curve.fit.r_squared
            found.append(
                _check(
                    f"r_squared.p{contexts}",
                    r_squared > 0.99,
                    f"{r_squared:.5f} > 0.99",
                )
            )
        return found

    def counts(self, configs, reports) -> Dict[str, float]:
        node_cycles = sum(
            config.node_count
            * (config.warmup_network_cycles + config.measure_network_cycles)
            * len(report.rows)
            for config, report in zip(configs, reports)
        )
        p1, _, p4 = reports
        return {
            "work": node_cycles,
            "sim.node_cycles": node_cycles,
            "sim.messages": sum(
                row.simulated.messages_sent
                for report in reports
                for row in report.rows
            ),
            "analysis.rate_error.p1": p1.mean_rate_error,
            "analysis.rate_error.p4": p4.mean_rate_error,
            "analysis.latency_error.p1": p1.max_latency_error_cycles,
        }

    def digest_data(self, configs, reports):
        return [
            {
                "contexts": report.contexts,
                "slope": report.curve.sensitivity,
                "rows": [
                    {
                        "name": row.name,
                        "distance": row.distance,
                        "summary": row.simulated.as_dict(),
                    }
                    for row in report.rows
                ],
            }
            for report in reports
        ]


class LocalityScale:
    """``anneal_mapping`` from a seeded random mapping at 10^5-10^6 nodes.

    Only the mapping and topology layers work here; the simulator does
    nothing, so every simulator change should leave this workload
    unmoved.  ``shapes`` holds ``(radix, dimensions, steps)``.
    """

    def __init__(self, shapes=((316, 2, 10000), (1000, 2, 4000))):
        self.shapes = tuple(shapes)

    def prepare(self, seed: int):
        machines = []
        for radix, dimensions, steps in self.shapes:
            torus = Torus(radix=radix, dimensions=dimensions)
            distance_backend(torus)
            graph = torus_neighbor_graph(radix, dimensions)
            start = random_mapping(torus.node_count, seed=seed)
            machines.append((torus, graph, start, steps))
        return machines, seed

    def execute(self, inputs):
        machines, seed = inputs
        return [
            anneal_mapping(graph, torus, start, steps=steps, seed=seed)
            for torus, graph, start, steps in machines
        ]

    def checks(self, inputs, results) -> List[Check]:
        machines, _ = inputs
        found = []
        for (torus, graph, _, _), result in zip(machines, results):
            shape = f"{torus.radix}^{torus.dimensions}"
            eq17 = random_traffic_distance_exact(torus.radix, torus.dimensions)
            found.append(
                _check(
                    f"eq17.{shape}",
                    abs(result.initial_distance - eq17) <= 0.01 * eq17,
                    f"random {result.initial_distance:.4f} vs Eq 17 "
                    f"{eq17:.4f} (within 1%)",
                )
            )
            found.append(
                _check(
                    f"annealed_le_random.{shape}",
                    result.best_distance <= result.initial_distance,
                    f"{result.best_distance:.4f} <= "
                    f"{result.initial_distance:.4f}",
                )
            )
            found.append(
                _check(
                    f"bijection.{shape}",
                    result.mapping.is_bijective,
                    "one thread per processor",
                )
            )
            recomputed = average_distance(graph, result.mapping, torus)
            found.append(
                _check(
                    f"best_distance.{shape}",
                    recomputed == result.best_distance,
                    f"recomputed {recomputed!r} == {result.best_distance!r}",
                )
            )
        return found

    def counts(self, inputs, results) -> Dict[str, float]:
        machines, _ = inputs
        return {"work": sum(steps for _, _, _, steps in machines)}

    def digest_data(self, inputs, results):
        return [
            {
                "initial": result.initial_distance,
                "best": result.best_distance,
                "accepted": result.accepted_moves,
                "attempted": result.attempted_moves,
                "mapping": hash(result.mapping.assignment),
            }
            for result in results
        ]


class Replicate:
    """``run_replications(..., batch=R)``: every seed in one lockstep pass.

    A 256-node radix-16 2-D torus with 4 contexts under a random
    mapping: heavy enough traffic that calendar cycle-skipping does
    little and invalidations fan out often.
    """

    def __init__(self, radix=16, contexts=4, lanes=8, warmup=1000, measure=3000):
        self.radix = radix
        self.contexts = contexts
        self.lanes = lanes
        self.warmup = warmup
        self.measure = measure

    def prepare(self, seed: int):
        config = SimulationConfig(
            radix=self.radix,
            contexts=self.contexts,
            warmup_network_cycles=self.warmup,
            measure_network_cycles=self.measure,
            seed=seed,
        )
        graph = torus_neighbor_graph(self.radix, config.dimensions)
        programs = build_programs(
            graph, self.contexts, config.compute_cycles, config.compute_jitter
        )
        mapping = random_mapping(config.node_count, seed=seed)
        return config, mapping, programs, default_seeds(seed, self.lanes)

    def execute(self, inputs):
        config, mapping, programs, seeds = inputs
        return run_replications(
            config, mapping, programs, seeds, batch=len(seeds)
        )

    def checks(self, inputs, result) -> List[Check]:
        config, mapping, programs, seeds = inputs
        serial = Machine(
            config.with_seed(seeds[0]),
            copy.deepcopy(mapping),
            copy.deepcopy(programs),
        ).run()
        return [
            _check(
                "first_seed_matches_serial",
                result.summaries[0] == serial,
                f"batched seed {seeds[0]} summary == serial Machine.run",
            ),
            _check(
                "every_lane_measured",
                len(result.summaries) == len(seeds)
                and all(s.messages_sent > 0 for s in result.summaries),
                f"{len(result.summaries)} summaries with messages",
            ),
        ]

    def counts(self, inputs, result) -> Dict[str, float]:
        config, _, _, seeds = inputs
        node_cycles = (
            len(seeds)
            * config.node_count
            * (config.warmup_network_cycles + config.measure_network_cycles)
        )
        return {
            "work": node_cycles,
            "sim.node_cycles": node_cycles,
            "sim.messages": sum(s.messages_sent for s in result.summaries),
        }

    def digest_data(self, inputs, result):
        return [summary.as_dict() for summary in result.summaries]


WORKLOADS = {
    "validation": Validation,
    "locality_scale": LocalityScale,
    "replicate": Replicate,
}
