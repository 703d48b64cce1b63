"""Tests for the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Recorder, Span, _resolve, instrument, self_times  # noqa: E402
from workloads import WORKLOADS, LocalityScale, Replicate, Validation  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _originals():
    bound = {}
    for name, module_name, path, _ in worker.TARGETS:
        owner, attribute = _resolve(module_name, path)
        bound[name] = (owner, attribute, getattr(owner, attribute))
    return bound


class TestInstrument:
    def test_wrappers_restore_the_originals(self):
        import workloads
        from repro.analysis import validation
        from repro.sim import replicate

        before = _originals()
        copies = (
            workloads.anneal_mapping,
            validation.solve,
            replicate.run_batch,
        )
        recorder = Recorder()
        with instrument(recorder, worker.TARGETS):
            for name, (owner, attribute, original) in before.items():
                assert getattr(owner, attribute) is not original, name
            assert workloads.anneal_mapping is not copies[0]
            assert validation.solve is not copies[1]
            assert replicate.run_batch is not copies[2]
        for name, (owner, attribute, original) in before.items():
            assert getattr(owner, attribute) is original, name
        assert (
            workloads.anneal_mapping,
            validation.solve,
            replicate.run_batch,
        ) == copies

    def test_restores_after_an_exception(self):
        before = _originals()
        with pytest.raises(KeyError):
            with instrument(Recorder(), worker.TARGETS):
                raise KeyError("boom")
        for name, (owner, attribute, original) in before.items():
            assert getattr(owner, attribute) is original, name

    def test_records_nested_calls_and_rebinds_copies(self, monkeypatch):
        fake = types.ModuleType("perfbench_fake")
        exec(
            "def inner(x):\n    return x + 1\n"
            "def outer(x):\n    return inner(x) + inner(x)\n",
            fake.__dict__,
        )
        importer = types.ModuleType("perfbench_importer")
        importer.inner = fake.inner
        monkeypatch.setitem(sys.modules, fake.__name__, fake)
        monkeypatch.setitem(sys.modules, importer.__name__, importer)
        targets = [
            ("outer", fake.__name__, "outer", None),
            ("inner", fake.__name__, "inner", lambda a, k, r: {"x": r}),
        ]
        recorder = Recorder()
        with instrument(recorder, targets):
            assert fake.outer(1) == 4
            assert importer.inner(5) == 6
        assert [(s.name, s.parent, s.attrs) for s in recorder.spans] == [
            ("outer", None, {}),
            ("inner", 0, {"x": 2}),
            ("inner", 0, {"x": 2}),
            ("inner", None, {"x": 6}),
        ]
        outer, first, second, _ = recorder.spans
        assert outer.start <= first.start <= first.end <= second.start
        assert second.end <= outer.end
        assert importer.inner is fake.inner


class TestSelfTime:
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            Span("a", 0.0, 10.0, None, "timed"),
            Span("b", 1.0, 4.0, 0, "timed"),
            Span("c", 2.0, 3.5, 1, "timed"),
            Span("b", 5.0, 7.0, 0, "timed"),
            Span("d", 11.0, 12.0, None, "timed"),
        ]
        assert self_times(spans) == pytest.approx([5.0, 1.5, 1.5, 2.0, 1.0])

    def test_layer_metrics_partition_the_wall(self):
        spans = [
            Span("sim.machine_run", 0.0, 3.0, None, "timed"),
            Span("mapping.average_distance", 0.5, 1.0, 0, "timed"),
            Span("mapping.anneal", 3.0, 5.0, None, "timed",
                 {"steps": 10, "accepted": 2, "attempted": 8}),
            Span("mapping.random_mapping", -1.0, -0.5, None, "setup"),
        ]
        metrics = worker.layer_metrics(spans, wall_s=6.0, messages=100)
        assert metrics["sim.machine_run.s"] == pytest.approx(2.5)
        assert metrics["mapping.average_distance.s"] == pytest.approx(0.5)
        assert metrics["mapping.anneal.s"] == pytest.approx(2.0)
        assert metrics["mapping.random_mapping.s"] == pytest.approx(0.5)
        assert metrics["harness.other_s"] == pytest.approx(1.0)
        assert metrics["sim.machine_run.calls"] == 1
        assert metrics["mapping.anneal.steps"] == 10
        assert metrics["mapping.anneal.accept_ratio"] == pytest.approx(0.25)
        assert metrics["sim.host_us_per_message"] == pytest.approx(3e4)


class TestMetricNames:
    def test_every_metric_name_matches_the_pattern(self):
        declared = run.declaration()
        for name in [*declared["end_to_end"], *declared["per_layer"]]:
            assert NAME.fullmatch(name), name
            assert len(name) <= 64 and name[0].isalnum(), name

    def test_every_declared_metric_is_computed(self):
        declared = run.declaration()
        sample = {
            "wall_s": 2.0,
            "setup_s": 0.5,
            "peak_rss_mb": 80.0,
            "counts": {"work": 10, "sim.messages": 5},
            "layers": {"sim.machine_run.s": 1.5},
        }
        other = dict(sample, wall_s=3.0)
        assert set(run.end_to_end([sample, other])) == set(declared["end_to_end"])
        layers = run.per_layer(
            declared["per_layer"], [other], [sample], {"load_s": 0.7}, 0.0
        )
        assert set(layers) == set(declared["per_layer"])
        assert layers["sim.machine_run.s"] == 1.5
        assert layers["sim.messages"] == 5
        assert layers["mapping.anneal.s"] == 0.0
        assert layers["harness.trace_overhead_s"] == -1.0
        assert set(declared["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize(
    "workload",
    [
        Validation(warmup=2000, measure=3000, adversarial_steps=1500),
        LocalityScale(shapes=((100, 2, 2000),)),
        Replicate(radix=8, contexts=2, lanes=2, warmup=300, measure=900),
    ],
    ids=lambda workload: type(workload).__name__,
)
def test_tiny_window_smoke_run_passes_its_checks(workload):
    inputs = workload.prepare(1992)
    outputs = workload.execute(inputs)
    failed = [c for c in workload.checks(inputs, outputs) if not c[1]]
    assert failed == []
    assert workload.counts(inputs, outputs)["work"] > 0
    json.dumps(workload.digest_data(inputs, outputs))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
