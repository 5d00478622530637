"""The benchmark regression gate fails on a regression of every gated
metric, in the direction that metric declares."""

import json

import pytest

from benchmarks import bench_diff

GATED = [
    (name, metric, better)
    for name, metrics in bench_diff.METRICS.items()
    for metric, better in metrics
]


def _doc(values: dict[str, float]) -> dict:
    """A result document holding ``values`` at their dotted paths."""
    doc: dict = {}
    for dotted, value in values.items():
        *parents, leaf = dotted.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return doc


@pytest.fixture
def gate_dirs(tmp_path, monkeypatch):
    """Point the gate at a scratch root holding baselines at 1.0."""
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    monkeypatch.setattr(bench_diff, "ROOT", tmp_path)
    monkeypatch.setattr(bench_diff, "BASELINE_DIR", baselines)

    def write(regressed: tuple[str, str] | None = None,
              factor: float = 1.0) -> None:
        for name, metrics in bench_diff.METRICS.items():
            base = {metric: 1.0 for metric, _ in metrics}
            current = dict(base)
            if regressed is not None and regressed[0] == name:
                current[regressed[1]] = factor
            (baselines / name).write_text(json.dumps(_doc(base)))
            (tmp_path / name).write_text(json.dumps(_doc(current)))

    return write


def test_every_metric_declares_a_direction():
    assert GATED
    for _, _, better in GATED:
        assert better in (bench_diff.HIGHER, bench_diff.LOWER)


def test_overhead_ratios_are_lower_is_better():
    directions = {(name, metric): better for name, metric, better in GATED}
    assert directions[("BENCH_chaos.json", "overhead.overhead_ratio")] == "lower"
    assert (directions[("BENCH_intransit.json", "tcp_overhead.overhead_ratio")]
            == "lower")
    assert (directions[("BENCH_map.json", "summary.moving_average_speedup")]
            == "higher")


def test_unchanged_results_pass(gate_dirs):
    gate_dirs()
    assert bench_diff.main([]) == 0


@pytest.mark.parametrize("name,metric,better", GATED,
                         ids=[f"{n}:{m}" for n, m, _ in GATED])
def test_synthetic_2x_regression_fails_the_gate(gate_dirs, name, metric,
                                                better):
    # A 2x regression: half the value when higher is better, double it
    # when lower is better.
    gate_dirs((name, metric), 0.5 if better == bench_diff.HIGHER else 2.0)
    assert bench_diff.main([]) == 1


@pytest.mark.parametrize("name,metric,better", GATED,
                         ids=[f"{n}:{m}" for n, m, _ in GATED])
def test_2x_improvement_passes_the_gate(gate_dirs, name, metric, better):
    gate_dirs((name, metric), 2.0 if better == bench_diff.HIGHER else 0.5)
    assert bench_diff.main([]) == 0
